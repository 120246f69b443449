"""Exact arithmetic library for the nine imaginary quadratic UFDs.

Covers ring arithmetic with canonical associates, prime splitting, element
factorization, exact divisor-power sums and abundancy indices over quadratic
surds, and norm-bounded searches for perfect and multiperfect elements.
"""

from .abundancy import (
    MAX_POWER,
    Index,
    InternalInconsistency,
    SurdSum,
    classical_abundancy,
    classical_sigma,
    delta_n,
    index_n,
    is_n_powerfully_t_perfect,
)
from .elemtext import ElementParseError, format_element, parse_element
from .factorize import (
    ElementFactorization,
    divisors_up_to_associates,
    factor_element,
    is_prime_element,
    rho,
)
from .prospect import (
    Check,
    EulerianShape,
    LParity,
    SearchReport,
    VerificationReport,
    congruence_identities,
    direct_scan,
    eulerian_parity,
    inert_residues,
    mersenne_perfects,
    search_powerfully,
    search_t_perfect,
    verify_bounds,
    worker_count,
    zeta_series,
)
from .ring import (
    UFD_DS,
    MixedRingError,
    QuadInt,
    RingCtx,
    canonicalize,
    in_sector,
    is_associated,
    ring,
    try_div,
    units,
)
from .splitting import (
    IntegerFactorization,
    SplitClass,
    classify_prime,
    factor_integer,
    is_probable_prime,
    prime_above,
    primes_up_to,
    sqrt_mod,
)

__version__ = "0.1.0"
