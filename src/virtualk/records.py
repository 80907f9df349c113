"""``Record``, the base of the package's immutable records.

A record holds the fields its class names in ``__slots__`` and compares,
hashes and prints by them, as a frozen dataclass does, without the start-up
cost of generating those methods.  A field that a base class names (the text
position of an expression node) is stored but takes no part.
"""

#: Sets a field past the immutability guard, for ``__init__`` methods.
set_field = object.__setattr__


class Record:
    """``__init__`` takes the fields in ``__slots__`` order; a subclass with
    defaults or checks defines its own and sets each field with ``set_field``."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            set_field(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("%s values are immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s values are immutable" % type(self).__name__)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __reduce__(self):
        return type(self), self._values()
