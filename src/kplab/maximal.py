"""The (n,k) maximal operator: exact application over the Grassmannian,
one weighted Lebesgue norm, and a seeded witness search lower-bounding the
operator norm.

Function values are exact rationals; the operator itself (coset sums and
sups) is exact.  Norms with rational exponents are rendered as floats, with
the largest value taken out only where the plain power sum overflows or
underflows; the exponent identities that matter are checked with
PowerProduct.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .config import _kept_points, enumerate_space
from .exponents import PowerProduct
from .field import Field
from .flats import (
    CosetSums,
    LinearSubspace,
    coordinate_flat,
    enumerate_grassmannian,
    enumerate_points,
    gaussian_binomial,
)
from .linalg import Vector


@dataclass(frozen=True)
class GridFunction:
    """Nonnegative rational-valued function on F^n, sparse (absent = 0),
    held as its value classes: each distinct positive value in ascending
    order, paired with its points, sorted.  Every point must be a length-n
    tuple of residues in range(p).  The direct constructor checks only the
    points, not that the classes are disjoint; `from_dict`, `indicator` and
    `constant` build them so."""

    field: Field
    n: int
    classes: Tuple[Tuple[Fraction, Tuple[Vector, ...]], ...]

    def __post_init__(self):
        support = [pt for _, points in self.classes for pt in points]
        for pt in self.field.points_outside(support, self.n):
            raise ValueError(f"point {pt!r} is not in F_{self.field.p}^{self.n}")

    @classmethod
    def from_dict(cls, field: Field, n: int, values: Dict[Vector, Fraction]) -> "GridFunction":
        """The points of each nonzero value grouped into one class."""
        classes: Dict[Fraction, List[Vector]] = {}
        for pt, v in values.items():
            v = Fraction(v)
            if v < 0:
                raise ValueError("grid function values must be nonnegative")
            if v:
                classes.setdefault(v, []).append(pt)
        return cls(field, n, tuple((v, tuple(sorted(classes[v]))) for v in sorted(classes)))

    @classmethod
    def indicator(cls, field: Field, n: int, points: Iterable[Vector]) -> "GridFunction":
        """1 on the distinct points: one class, or none for no points."""
        points = tuple(sorted(set(points)))
        return cls(field, n, ((Fraction(1), points),) if points else ())

    @classmethod
    def constant(cls, field: Field, n: int, value: Fraction = Fraction(1)) -> "GridFunction":
        """`value` on every point of F^n: one class, or none for the value 0."""
        value = Fraction(value)
        if value < 0:
            raise ValueError("grid function values must be nonnegative")
        return cls(field, n, ((value, tuple(enumerate_space(n, field))),) if value else ())

    def is_zero(self) -> bool:
        return not self.classes

    def as_dict(self) -> Dict[Vector, Fraction]:
        return {pt: v for v, points in self.classes for pt in points}


def apply_maximal_many(
    fs: Sequence[GridFunction], n: int, k: int
) -> List[Dict[LinearSubspace, Fraction]]:
    """`apply_maximal` of each function, in one walk over G(n,k).

    The sup over all translates x + pi equals the max over the p^{n-k}
    cosets of pi.  Each distinct function object's value classes, scaled
    to ints by the lcm of their denominators, are its `CosetSums`
    weighting; one `CosetSums` over those weightings gives every
    function's largest scaled coset sum once per direction.  A function
    given twice shares one image.
    """
    if not fs:
        return []
    fld = fs[0].field
    for f in fs:
        if f.n != n:
            raise ValueError(f"grid function lives on F^{f.n}, not F^{n}")
        if f.field != fld:
            raise ValueError(f"grid functions over {fld} and {f.field} in one family")
    distinct = list({id(f): f for f in fs}.values())
    scales = [math.lcm(*(v.denominator for v, _ in f.classes)) for f in distinct]
    weightings = [
        [(v.numerator * (scale // v.denominator), points) for v, points in f.classes]
        for f, scale in zip(distinct, scales)
    ]
    kernel = CosetSums(weightings, k, fld)
    images: List[Dict[LinearSubspace, Fraction]] = [{} for _ in distinct]
    for pi in enumerate_grassmannian(n, k, fld):
        for tf, scale, best in zip(images, scales, kernel.maxima(pi)):
            tf[pi] = Fraction(best, scale)
    image_of = {id(f): tf for f, tf in zip(distinct, images)}
    return [image_of[id(f)] for f in fs]


def apply_maximal(f: GridFunction, n: int, k: int) -> Dict[LinearSubspace, Fraction]:
    """For each direction, the maximum coset sum of f (`apply_maximal_many`
    of the one-function family)."""
    return apply_maximal_many([f], n, k)[0]


def norm(values: Iterable[Fraction], exp, weight=1) -> float:
    """(weight * sum of v^exp)^(1/exp) over nonnegative rationals, exp >= 1.

    The power sum is taken in floats as it stands, each value as the true
    division of its numerator by its denominator (what float() of a
    Fraction computes, without the call).  Only when it overflows,
    or comes out inf or 0 for nonzero values, is the largest value m taken
    out: m * (weight * sum of (v/m)^exp)^(1/exp).  Rescaling every sum would
    move the last bits of ratios that fit, and with them float ties between
    witnesses.
    """
    exp = Fraction(exp)
    if exp < 1:
        raise ValueError("exponent must be >= 1")
    values, e = list(values), float(exp)
    try:
        total = weight * sum((v.numerator / v.denominator) ** e for v in values)
        if 0 < total < math.inf or not any(values):
            return total ** (1 / e)
    except OverflowError:
        pass
    m = max(values)
    return float(m) * (weight * sum(float(v / m) ** e for v in values)) ** (1 / e)


def constant_witness_ratio_exact(
    n: int, k: int, field: Field, p_exp: Fraction, q_exp: Fraction
) -> PowerProduct:
    """Exact ratio for f identically 1:
    p^{k - n/p} * (|G(n,k)| / p^{k(n-k)})^{1/q}."""
    p_exp, q_exp = Fraction(p_exp), Fraction(q_exp)
    p = field.p
    return PowerProduct(
        [
            (p, Fraction(k) - Fraction(n) / p_exp),
            (gaussian_binomial(n, k, p), 1 / q_exp),
            (p, Fraction(-k * (n - k)) / q_exp),
        ]
    )


@dataclass
class SearchResult:
    best_name: str
    all_ratios: Dict[str, float]


def default_candidates(
    n: int, k: int, field: Field, seed: int
) -> Dict[str, GridFunction]:
    """Built-in witness family: constant, point spike, the coordinate r-flat
    indicators (`flats.coordinate_flat`), random dyadic-density sets (one
    `Random(seed)` read by `config._kept_points`), and, for 2 <= k <= n-1,
    `degenerate_points`, the points of `gen_degenerate(n, k, k-1)`: the
    `flat_dim_{k-1}` object under a second name."""
    rng = random.Random(seed)
    out: Dict[str, GridFunction] = {}
    out["constant"] = GridFunction.constant(field, n)
    out["point"] = GridFunction.indicator(field, n, [(0,) * n])
    for r in range(1, k + 1):
        flat = coordinate_flat(n, r, field)
        out[f"flat_dim_{r}"] = GridFunction.indicator(field, n, enumerate_points(flat, field))
    for exponent in (1, 2, 3):
        pts = _kept_points(n, field, Fraction(1, 2**exponent), rng)
        if pts:
            out[f"random_density_1/{2**exponent}"] = GridFunction.indicator(field, n, pts)
    if 1 <= k - 1 and k <= n - 1:
        out["degenerate_points"] = out[f"flat_dim_{k - 1}"]
    return out


def empirical_norm_search(
    n: int,
    k: int,
    field: Field,
    p_exp,
    q_exp,
    candidates: Optional[Dict[str, GridFunction]] = None,
    seed: int = 0,
) -> SearchResult:
    """Maximize ||Tf||_q / ||f||_p over a finite witness family.

    ||f||_p counts points; ||Tf||_q weighs each direction of G(n,k) by
    p^{-k(n-k)}, a total mass of [n k]_p / p^{k(n-k)}, above 1.  This is the
    one place a ratio is formed, once per distinct witness object: a
    witness under two names has one ratio.  It is a certified lower bound
    on the operator norm (each witness is exact), not an estimate of the sup
    over all functions.
    """
    if candidates is None:
        candidates = default_candidates(n, k, field, seed)
    if not candidates:
        raise ValueError("empty candidate family")
    family = {name: f for name, f in sorted(candidates.items()) if not f.is_zero()}
    images = apply_maximal_many(list(family.values()), n, k)
    weight = field.p ** (-k * (n - k))
    ratio_of: Dict[int, float] = {}
    for f, tf in zip(family.values(), images):
        if id(f) not in ratio_of:
            lp = norm((v for v, points in f.classes for _ in points), p_exp)
            ratio_of[id(f)] = norm(tf.values(), q_exp, weight) / lp
    ratios = {name: ratio_of[id(f)] for name, f in family.items()}
    best_name = max(ratios, key=lambda name: (ratios[name], name))
    return SearchResult(best_name, ratios)
