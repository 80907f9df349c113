"""Host-speed calibration, so that end-to-end times survive a drifting host.

On a small shared virtual machine the same Python code can run up to twice
as slow for minutes at a time, because other tenants contend for the
physical cores.  A wall time alone then says more about the neighbours than
about virtualk.  ``HostSpeed`` times a fixed piece of interpreter-bound work
every ``SAMPLE_EVERY_S`` of wall time, from a ``SIGALRM`` handler, while the
measured work runs, and tracks the handler's own time so that callers can
subtract it.  On the 2-vCPU host the benchmark was defined on, the ratio of
virtualk work to this calibration stayed within about 5 % while raw times
moved by 2x.

``factor()`` is ``REFERENCE_S`` over the median sample, so a time multiplied
by it is in reference seconds: the time the work would take on a host where
one calibration sample takes ``REFERENCE_S``.  The calibration work belongs
to the benchmark, not to virtualk, so a change to the program moves the
measured time and leaves the factor alone.
"""

from __future__ import annotations

import argparse
import math
import re
import signal
import statistics
import time

SAMPLE_EVERY_S = 0.25
#: Duration of one calibration sample on the host the benchmark was defined on.
REFERENCE_S = 0.006

_WORDS = ("x[3]", "e[1,2]", "zeta^2", "u[0,1]", "one[0]", "sigma[2]")
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]+)|(.))")


class _Node:
    __slots__ = ("kind", "text", "kids")

    def __init__(self, kind: str, text: str, kids: tuple = ()):
        self.kind = kind
        self.text = text
        self.kids = kids


def _argument_parser() -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="calibration")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("eval", "mul", "adams", "line"):
        sp = sub.add_parser(name)
        sp.add_argument("expression")
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--basis", choices=("auto", "sector", "loc", "u"), default="auto")
    return p.parse_args(["mul", "x[0]", "--n", "3", "--basis", "u"])


def calibration_work() -> int:
    """Fixed work with the operation mix of a virtualk call: building and
    running an argument parser (the CLI), small-integer tuple arithmetic and
    gcd (``Cyc``), string formatting and a regex tokenizer (parsing and
    rendering), and small objects with slots."""
    acc = _argument_parser().n
    seen: dict[str, int] = {}
    for i in range(250):
        a = tuple((i * j + 1) % 17 for j in range(6))
        acc += math.gcd(sum([x * y for x, y in zip(a, a[1:])]), i + 1)
        text = "%s*%s + %d/%d" % (_WORDS[i % 6], _WORDS[(i + 1) % 6], i, i + 3)
        node = _Node("expr", text, tuple(_Node("tok", m.group(0)) for m in _TOKEN.finditer(text)))
        seen[text] = len(node.kids)
        acc += len(",".join(sorted(seen)[:5]))
    return acc


class HostSpeed:
    """Host-speed samples.  Call ``sample()`` at safe points, or use the
    object as a context manager to sample from a timer while its block runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # wall time spent taking samples

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        calibration_work()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "HostSpeed":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def factor(self) -> float:
        return REFERENCE_S / statistics.median(self.samples)
