"""Exact virtual (orbifold) K-theory of the weighted projective line P(1,n).

Everything is computed over the cyclotomic field Q(zeta_n) with canonical
representatives, so every stated identity is checked by exact equality.
``run_verify`` and the ``presentation`` exports load their modules on first
use.
"""

from .coords import Coords, basis, basis_vectors, gen, power, unit, zero
from .cyclotomic import Cyc, CycPoly, cyclotomic_polynomial, phi_degree, zeta_pow
from .line_elements import (
    LineCertificate,
    LineElt,
    is_line_element,
    line_element,
    line_inverse,
    line_mul,
    line_realize,
    nu,
    sigma,
    span_rank,
)
from .localization import (
    from_u_basis,
    gamma,
    gamma_inverse,
    loc_adams,
    loc_mul,
    to_u_basis,
    u_adams,
    u_inverse,
    u_mul,
)
from .sector_ring import sector_adams, sector_monomial, sector_mul
from .virtual_ring import (
    euler_factor,
    k_monomial,
    lambda_from_adams,
    virtual_adams,
    virtual_augmentation,
    virtual_mul,
)

__version__ = "0.1.0"

#: Exports of the verification modules, which load on first use, so that a
#: process that only queries never compiles them.
_LAZY = {
    "run_verify": "verify",
    "gamma0_project": "presentation",
    "resolution_adams": "presentation",
    "resolution_mul": "presentation",
    "verify_presentation": "presentation",
    "verify_resolution_isomorphism": "presentation",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = __import__(_LAZY[name], globals(), level=1)  # virtualk.<module>
    globals()[name] = value = getattr(module, name)
    return value
