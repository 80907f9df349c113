"""Exact virtual (orbifold) K-theory of the weighted projective line P(1,n).

Everything is computed over the cyclotomic field Q(zeta_n) with canonical
representatives, so every stated identity is checked by exact equality.
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
from .presentation import (
    gamma0_project,
    resolution_adams,
    resolution_mul,
    verify_presentation,
    verify_resolution_isomorphism,
)
from .sector_ring import (
    bott_class,
    sector_adams,
    sector_monomial,
    sector_mul,
    sector_x_inverse,
)
from .verify import run_verify
from .virtual_ring import (
    euler_factor,
    from_sectors,
    k_monomial,
    lambda_from_adams,
    sector_part,
    virtual_adams,
    virtual_augmentation,
    virtual_mul,
)

__version__ = "0.1.0"
