"""The (n,k) maximal operator: exact application over the Grassmannian,
one weighted Lebesgue norm, and a seeded witness search lower-bounding the
operator norm.

Function values are exact rationals; the operator itself (coset sums and
sups) is exact.  One walk over G(n,k) (`_coset_sums`) gives each function's
largest coset sum per direction as an int over the function's scale:
`apply_maximal_many` renders them as `Fraction`s, and the witness search
reads the ints.  Four of the default witnesses have closed forms (the
constant, the point spike and the coordinate r-flats, `closed_form_images`),
so the default search walks only the random-density witnesses and reads
the flats' images off each direction's RREF in the same walk.  Norms with
rational exponents are rendered as floats, with the largest value taken out
only where the plain power sum overflows or underflows; the exponent
identities that matter are checked with PowerProduct.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import chain, combinations, repeat
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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
from .linalg import Vector, rref


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


def _random_witnesses(n: int, field: Field, seed: int) -> Dict[str, GridFunction]:
    """The random dyadic-density witnesses of `default_candidates`, the ones
    with no closed form: one `Random(seed)` read by `config._kept_points`
    at densities 1/2, 1/4 and 1/8, an empty draw left out."""
    rng = random.Random(seed)
    out: Dict[str, GridFunction] = {}
    for exponent in (1, 2, 3):
        pts = _kept_points(n, field, Fraction(1, 2**exponent), rng)
        if pts:
            out[f"random_density_1/{2**exponent}"] = GridFunction.indicator(field, n, pts)
    return out


def _degenerate_flat(n: int, k: int) -> Optional[str]:
    """The name of the r-flat witness that `degenerate_points` is, r = k-1,
    for 2 <= k <= n-1; None outside that range, where it is not a witness."""
    return f"flat_dim_{k - 1}" if 1 <= k - 1 and k <= n - 1 else None


def default_candidates(
    n: int, k: int, field: Field, seed: int
) -> Dict[str, GridFunction]:
    """Built-in witness family: constant, point spike, the coordinate r-flat
    indicators (`flats.coordinate_flat`), the random dyadic-density sets
    (`_random_witnesses`), and, for 2 <= k <= n-1, `degenerate_points`, the
    points of `gen_degenerate(n, k, k-1)`: the `flat_dim_{k-1}` object under
    a second name.  `empirical_norm_search` builds only the random ones and
    reads the others' images in closed form (`closed_form_images`); given
    this family as `candidates`, it walks them all, with the same ratios."""
    out: Dict[str, GridFunction] = {}
    out["constant"] = GridFunction.constant(field, n)
    out["point"] = GridFunction.indicator(field, n, [(0,) * n])
    for r in range(1, k + 1):
        flat = coordinate_flat(n, r, field)
        out[f"flat_dim_{r}"] = GridFunction.indicator(field, n, enumerate_points(flat, field))
    out.update(_random_witnesses(n, field, seed))
    if (alias := _degenerate_flat(n, k)) is not None:
        out["degenerate_points"] = out[alias]
    return out


def _block_rank(rows: Sequence[Vector], m: int, columns: Sequence[int], field: Field) -> int:
    """The rank over `field` of the first m >= 1 rows restricted to the
    (nonempty) `columns`, with no elimination where the block has one or
    two rows or columns: a block of one row or one column has rank 1 where
    any entry is nonzero, else 0, and one of two rows or two columns has
    rank 2 where a 2x2 minor is nonzero, else that same 1 or 0."""
    if m == 1:
        return int(any(map(rows[0].__getitem__, columns)))
    if len(columns) == 1:
        j = columns[0]
        return int(any([row[j] for row in rows[:m]]))
    if m == 2:
        a, b = rows[0], rows[1]
        minors = (a[i] * b[j] - a[j] * b[i] for i, j in combinations(columns, 2))
    elif len(columns) == 2:
        i, j = columns
        minors = (a[i] * b[j] - a[j] * b[i] for a, b in combinations(rows[:m], 2))
    else:
        return rref([[row[j] for j in columns] for row in rows[:m]], field).rank
    p = field.p
    if any(minor % p for minor in minors):
        return 2
    return int(any(row[j] for row in rows[:m] for j in columns))


def _meet_powers(n: int, k: int, field: Field) -> Callable[[LinearSubspace], List[int]]:
    """The image of each coordinate r-flat witness at a direction pi, for
    r = 1, ..., k in turn: p^dim(pi cap V_r), V_r = span(e_1, ..., e_r).

    The indicator of V_r has its largest coset sum under pi on the coset
    through 0, pi cap V_r, with p^dim(pi cap V_r) points, and
    dim(pi cap V_r) is k minus the rank of pi's basis on the columns from r
    on.  In the RREF basis, the k - m rows with pivots from r on are the
    identity on those pivot columns, where the m rows with pivots below r
    are zero.  So that rank is k - m plus the rank of the m rows on the
    free columns from r on (`_block_rank`), and dim(pi cap V_r) is m minus
    the latter.  m and those columns depend on the pivots alone, and are
    kept per pivot pattern."""
    p = field.p
    powers = [p**j for j in range(k + 1)]
    # Per pivot pattern and r: (the image where the block is empty, else 0; m; the columns).
    shapes: Dict[Tuple[int, ...], List[Tuple[int, int, Tuple[int, ...]]]] = {}

    def meets(direction: LinearSubspace) -> List[int]:
        rows, pivots = direction.basis.rows, direction.basis.pivots
        shape = shapes.get(pivots)
        if shape is None:
            shape = shapes[pivots] = []
            for r in range(1, k + 1):
                m = sum(pivot < r for pivot in pivots)
                columns = tuple(j for j in range(r, n) if j not in pivots)
                shape.append((0 if m and columns else powers[m], m, columns))
        return [fixed or powers[m - _block_rank(rows, m, columns, field)] for fixed, m, columns in shape]

    return meets


# A witness as the ratio reads it: its value classes as (value, number of
# points), its scale, and its scaled image over G(n,k) in walk order.
_Witness = Tuple[Sequence[Tuple[Fraction, int]], int, Sequence[int]]


def _closed_forms(n: int, k: int, p: int, count: int, meet_columns: Sequence[Sequence[int]]) -> Dict[str, _Witness]:
    """The witnesses of `default_candidates` with closed forms, by name, over
    the `count` directions of G(n,k): the constant, Tf = p^k, on p^n points;
    the point spike, Tf = 1, on one; `flat_dim_r`, on p^r points, with the
    r-th of the `meet_columns` (`_meet_powers`) as its image; and
    `degenerate_points`, the `flat_dim_{k-1}` witness itself.  Each is an
    indicator, of scale 1."""
    one = Fraction(1)
    out: Dict[str, _Witness] = {
        "constant": (((one, p**n),), 1, [p**k] * count),
        "point": (((one, 1),), 1, [1] * count),
    }
    for r, column in enumerate(meet_columns, 1):
        out[f"flat_dim_{r}"] = (((one, p**r),), 1, column)
    if (alias := _degenerate_flat(n, k)) is not None:
        out["degenerate_points"] = out[alias]
    return out


def closed_form_images(n: int, k: int, field: Field) -> Dict[str, Tuple[int, Sequence[int]]]:
    """Each closed-form witness of `default_candidates` by name, as the size
    of its support and its image Tf (ints) over G(n,k) in the order of
    `enumerate_grassmannian`, with no grid function built: what
    `empirical_norm_search` reads for them."""
    meets = _meet_powers(n, k, field)
    rows = [meets(pi) for pi in enumerate_grassmannian(n, k, field)]
    forms = _closed_forms(n, k, field.p, len(rows), list(zip(*rows)))
    return {name: (classes[0][1], column) for name, (classes, _, column) in forms.items()}


def _no_columns(direction: LinearSubspace) -> List[int]:
    """No images at any direction: the r-flats of a given family are walked."""
    return []


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

    With no `candidates`, the family is `default_candidates(n, k, field,
    seed)`, but only its random witnesses are built and walked; the others'
    images come from `_closed_forms`, in walk order, with the flats' read
    off each direction in the same walk (`_meet_powers`).  They are the same
    ints the walk would give, in the same order, so every ratio is the one
    the whole family's walk gives, bit for bit.
    """
    closed = candidates is None
    if closed:
        candidates = _random_witnesses(n, field, seed)
    elif not candidates:
        raise ValueError("empty candidate family")
    e_p, e_q = _exponent(p_exp), _exponent(q_exp)
    _check_lives_on(candidates.values(), n, field)
    family = {name: f for name, f in sorted(candidates.items()) if not f.is_zero()}
    if not family and not closed:
        raise ValueError("every candidate is zero")
    distinct, scales, sums = _coset_sums(list(family.values()), n, k, field)
    meets = _meet_powers(n, k, field) if closed else _no_columns
    # Each direction's scaled maxima of the walked witnesses, then its r-flat images.
    rows = [sums.maxima(pi) + meets(pi) for pi in enumerate_grassmannian(n, k, field)]
    columns = list(zip(*rows))
    witness_of = {
        id(f): (tuple((v, len(points)) for v, points in f.classes), scale, column)
        for f, scale, column in zip(distinct, scales, columns)
    }
    witnesses = {name: witness_of[id(f)] for name, f in family.items()}
    if closed:
        witnesses.update(_closed_forms(n, k, field.p, len(rows), columns[len(distinct) :]))
    weight = field.p ** (-k * (n - k))
    ratio_of: Dict[int, float] = {}
    for witness in witnesses.values():
        if id(witness) in ratio_of:
            continue
        classes, scale, column = witness
        powers = (repeat((v.numerator / v.denominator) ** e_p, count) for v, count in classes)
        lp = _plain_norm(chain.from_iterable(powers), e_p, 1)
        if lp is None:
            lp = norm(chain.from_iterable(repeat(v, count) for v, count in classes), p_exp)
        lq = _plain_norm(((best / scale) ** e_q for best in column), e_q, weight)
        if lq is None:
            lq = norm((Fraction(best, scale) for best in column), q_exp, weight)
        ratio_of[id(witness)] = lq / lp
    ratios = {name: ratio_of[id(witnesses[name])] for name in sorted(witnesses)}
    best_name = max(ratios, key=lambda name: (ratios[name], name))
    return SearchResult(best_name, ratios)
