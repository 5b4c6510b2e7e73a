"""Weighted gcds, normalization, and exact heights on weighted projective spaces.

All arithmetic is exact: arbitrary-precision integers and rationals, with
irrational values carried as canonical radicals m**(1/k).  The library covers
weighted greatest common divisors (plain and absolute), normalization and
canonical representatives of points in weighted projective space over the
rationals, weight well-forming, naive sizes, weighted heights by two
independent routes, and a complete enumerator of all points of bounded
weighted height.
"""

from .factorization import (
    FactorConfig,
    Factorization,
    IncompleteFactorizationError,
    factor_config,
    factorize,
    iroot,
    is_prime,
    nth_root_rational,
    primes_up_to,
)
from .radicals import ExactRoot
from .wgcd import (
    WeightSystem,
    WeightedTuple,
    as_weight_system,
    awgcd,
    generalized_awgcd,
    generalized_wgcd,
    wgcd,
)
from .projective import (
    WeightedPoint,
    WellFormingResult,
    WellFormingStep,
    absolutely_normalize,
    apply_well_forming,
    canonical_rep,
    clear_denominators,
    equivalent,
    is_well_formed,
    naive_size,
    normalize,
    replay_well_forming,
    scale,
    well_form,
)
from .heights import (
    KroneckerResult,
    ProjectivePoint,
    bounded_points,
    counting_function,
    kronecker_check,
    log_weighted_height,
    phi,
    phi_preimage,
    weighted_height,
    weighted_height_direct,
    weil_height,
)

__version__ = "0.1.0"

__all__ = [
    "ExactRoot",
    "FactorConfig",
    "Factorization",
    "IncompleteFactorizationError",
    "KroneckerResult",
    "ProjectivePoint",
    "WeightSystem",
    "WeightedPoint",
    "WeightedTuple",
    "WellFormingResult",
    "WellFormingStep",
    "absolutely_normalize",
    "apply_well_forming",
    "as_weight_system",
    "awgcd",
    "bounded_points",
    "canonical_rep",
    "clear_denominators",
    "counting_function",
    "equivalent",
    "factor_config",
    "factorize",
    "generalized_awgcd",
    "generalized_wgcd",
    "iroot",
    "is_prime",
    "is_well_formed",
    "kronecker_check",
    "log_weighted_height",
    "naive_size",
    "normalize",
    "nth_root_rational",
    "phi",
    "phi_preimage",
    "primes_up_to",
    "replay_well_forming",
    "scale",
    "weighted_height",
    "weighted_height_direct",
    "weil_height",
    "well_form",
    "wgcd",
]
