"""The (n,k) maximal operator: exact application over the Grassmannian,
one weighted Lebesgue norm, and a seeded witness search lower-bounding the
operator norm.

Function values are exact rationals; the operator itself (coset sums and
sups) is exact.  One walk over G(n,k) (`_coset_sums`) gives each function's
largest coset sum per direction as an int over the function's scale:
`apply_maximal_many` renders them as `Fraction`s, and the witness search
reads the ints.  Norms with rational exponents are rendered as floats, with
the largest value taken out only where the plain power sum overflows or
underflows; the exponent identities that matter are checked with
PowerProduct.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import chain, repeat
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ._value import _Value, _set
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


class GridFunction(_Value, frozen=True):
    """Nonnegative rational-valued function on F^n, sparse (absent = 0),
    held as its value classes: each distinct positive value in ascending
    order, paired with its points, sorted.  Every point must be a length-n
    tuple of residues in range(p).  The direct constructor checks only the
    points, not that the classes are disjoint; `from_dict`, `indicator` and
    `constant` build them so."""

    __slots__ = ("field", "n", "classes")

    def __init__(self, field: Field, n: int, classes: Tuple[Tuple[Fraction, Tuple[Vector, ...]], ...]):
        support = [pt for _, points in classes for pt in points]
        for pt in field.points_outside(support, n):
            raise ValueError(f"point {pt!r} is not in F_{field.p}^{n}")
        _set(self, "field", field)
        _set(self, "n", n)
        _set(self, "classes", classes)

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


def _check_lives_on(fs: Iterable[GridFunction], n: int, field: Field) -> None:
    """Refuse any function, zero or not, that does not live on F^n over `field`."""
    for f in fs:
        if f.n != n:
            raise ValueError(f"grid function lives on F^{f.n}, not F^{n}")
        if f.field != field:
            raise ValueError(f"grid function over {f.field}, not {field}")


def _coset_sums(
    fs: Sequence[GridFunction], n: int, k: int, field: Field
) -> Tuple[List[GridFunction], List[int], CosetSums]:
    """What one walk over G(n,k) over `field` reads for a nonempty family:
    its distinct function objects, the scale of each, and the one
    `CosetSums` whose `maxima(direction)` is each distinct function's
    largest coset sum times its scale, an int.

    A function's scale is the lcm of its class denominators, and its value
    classes, scaled to ints, are its weighting.  Every function must live
    on F^n over the walk's field.
    """
    _check_lives_on(fs, n, field)
    distinct = list({id(f): f for f in fs}.values())
    scales = [math.lcm(*(v.denominator for v, _ in f.classes)) for f in distinct]
    weightings = [
        [(v.numerator * (scale // v.denominator), points) for v, points in f.classes]
        for f, scale in zip(distinct, scales)
    ]
    return distinct, scales, CosetSums(weightings, k, field)


def apply_maximal_many(
    fs: Sequence[GridFunction], n: int, k: int
) -> List[Dict[LinearSubspace, Fraction]]:
    """`apply_maximal` of each function, in one walk over G(n,k)
    (`_coset_sums`).

    The sup over all translates x + pi equals the max over the p^{n-k}
    cosets of pi: each image maps a direction to the function's largest
    coset sum, the walk's int over the function's scale.  A function given
    twice shares one image.
    """
    if not fs:
        return []
    distinct, scales, sums = _coset_sums(fs, n, k, fs[0].field)
    images: List[Dict[LinearSubspace, Fraction]] = [{} for _ in distinct]
    for pi in enumerate_grassmannian(n, k, fs[0].field):
        for tf, scale, best in zip(images, scales, sums.maxima(pi)):
            tf[pi] = Fraction(best, scale)
    image_of = {id(f): tf for f, tf in zip(distinct, images)}
    return [image_of[id(f)] for f in fs]


def apply_maximal(f: GridFunction, n: int, k: int) -> Dict[LinearSubspace, Fraction]:
    """For each direction, the maximum coset sum of f (`apply_maximal_many`
    of the one-function family)."""
    return apply_maximal_many([f], n, k)[0]


def _exponent(exp) -> float:
    """A norm's exponent as a float, refused below 1."""
    exp = Fraction(exp)
    if exp < 1:
        raise ValueError("exponent must be >= 1")
    return float(exp)


def _plain_norm(powers: Iterable[float], e: float, weight) -> Optional[float]:
    """(weight * sum of the powers)^(1/e), the powers summed in order; None
    where one of them overflows, or the sum comes out inf or 0."""
    try:
        total = weight * sum(powers)
    except OverflowError:
        return None
    return total ** (1 / e) if 0 < total < math.inf else None


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
    e = _exponent(exp)
    values = list(values)
    if not any(values):
        return 0.0
    plain = _plain_norm(((v.numerator / v.denominator) ** e for v in values), e, weight)
    if plain is not None:
        return plain
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


class SearchResult:
    """The witness search's ratio of each candidate name, and the name of
    the largest."""

    __slots__ = ("best_name", "all_ratios")

    def __init__(self, best_name: str, all_ratios: Dict[str, float]):
        self.best_name, self.all_ratios = best_name, all_ratios


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

    The ratios are `norm`'s, bit for bit, with no `Fraction` or image per
    direction: ||Tf||_q reads the walk's ints (`_coset_sums`), each direction's
    term (best / scale)^q_exp, which is what `norm` takes of
    Fraction(best, scale), as int true division rounds correctly; ||f||_p
    raises each value class to p_exp once and adds the power once per
    point, class by class, the terms `norm` adds point by point.  Where a
    power sum overflows or underflows, `norm` of the values takes over.
    """
    if candidates is None:
        candidates = default_candidates(n, k, field, seed)
    if not candidates:
        raise ValueError("empty candidate family")
    e_p, e_q = _exponent(p_exp), _exponent(q_exp)
    _check_lives_on(candidates.values(), n, field)
    family = {name: f for name, f in sorted(candidates.items()) if not f.is_zero()}
    if not family:
        raise ValueError("every candidate is zero")
    distinct, scales, sums = _coset_sums(list(family.values()), n, k, field)
    # Each distinct function's scaled maxima over G(n,k), in walk order.
    columns = zip(*map(sums.maxima, enumerate_grassmannian(n, k, field)))
    weight = field.p ** (-k * (n - k))
    ratio_of: Dict[int, float] = {}
    for f, scale, column in zip(distinct, scales, columns):
        powers = (repeat((v.numerator / v.denominator) ** e_p, len(points)) for v, points in f.classes)
        lp = _plain_norm(chain.from_iterable(powers), e_p, 1)
        if lp is None:
            lp = norm((v for v, points in f.classes for _ in points), p_exp)
        lq = _plain_norm(((best / scale) ** e_q for best in column), e_q, weight)
        if lq is None:
            lq = norm((Fraction(best, scale) for best in column), q_exp, weight)
        ratio_of[id(f)] = lq / lp
    ratios = {name: ratio_of[id(f)] for name, f in family.items()}
    best_name = max(ratios, key=lambda name: (ratios[name], name))
    return SearchResult(best_name, ratios)
