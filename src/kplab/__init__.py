"""Exact computational laboratory for point/k-flat incidence combinatorics
over prime fields: configuration generators, incidence and simplex counters
with independent brute-force oracles, the (n,k) maximal operator, and exact
rational exponent bookkeeping.
"""

from .config import (
    Configuration,
    gen_degenerate,
    gen_nk_set,
    gen_point_cloud,
    gen_random_config,
)
from .exponents import (
    BoundExpr,
    PowerProduct,
    best_possible_exponents,
    main_term_abc,
    max_ick_derive,
    theorem_exponents,
)
from .field import Field
from .flats import (
    AffineFlat,
    LinearSubspace,
    enumerate_grassmannian,
    enumerate_points,
    gaussian_binomial,
    make_flat,
)
from .incidence import (
    build_refinement_chain,
    check_main_bound,
    check_max_ic,
    cs_holder_count,
    incidence_count,
    jr_decompose,
    refine_dyadic,
)
from .maximal import GridFunction, apply_maximal, empirical_norm_search
from .oracles import affine_hull, count_simplices_bruteforce
from .simplex import count_simplices, simplex_bound_report

__version__ = "0.1.0"

__all__ = [
    "AffineFlat",
    "BoundExpr",
    "Configuration",
    "Field",
    "GridFunction",
    "LinearSubspace",
    "PowerProduct",
    "affine_hull",
    "apply_maximal",
    "best_possible_exponents",
    "build_refinement_chain",
    "check_main_bound",
    "check_max_ic",
    "count_simplices",
    "count_simplices_bruteforce",
    "cs_holder_count",
    "empirical_norm_search",
    "enumerate_grassmannian",
    "enumerate_points",
    "gaussian_binomial",
    "gen_degenerate",
    "gen_nk_set",
    "gen_point_cloud",
    "gen_random_config",
    "incidence_count",
    "jr_decompose",
    "main_term_abc",
    "make_flat",
    "max_ick_derive",
    "refine_dyadic",
    "simplex_bound_report",
    "theorem_exponents",
]
