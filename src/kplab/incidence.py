"""Exact incidence counting: the incidence set, Cauchy-Schwarz/Hoelder tuple
counts, the two-ends stratification, dyadic refinement, and the refinement
chain feeding the simplex construction.

All counts are exact integers; thresholds are exact rationals; comparisons
against products with rational exponents go through PowerProduct so no
verdict ever touches floating point.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .config import Configuration
from .exponents import PowerProduct, main_term_exponents
from .flats import (
    AffineFlat,
    CosetKeys,
    affine_hull,
    difference_basis,
    enumerate_points,
    local_coordinates,
    membership,
)
from .linalg import Vector, hyperplane, in_span
from .reports import CountReport


class EmptyRefinementError(ValueError):
    """Dyadic refinement of a configuration with no incidences."""


class PreconditionError(ValueError):
    pass


class SizeGuardError(RuntimeError):
    """Work refused before it starts: a brute-force oracle's point limit or
    the CLI's work budget would be exceeded."""


@dataclass
class IncidenceIndex:
    """Both marginals of the incidence relation, the exact total, and the
    sorted incident points of every flat."""

    per_flat: Dict[AffineFlat, int]
    per_point: Dict[Vector, Tuple[AffineFlat, ...]]
    total: int
    points: Dict[AffineFlat, Tuple[Vector, ...]]


def incidence_count(config: Configuration) -> IncidenceIndex:
    """Exact |I(P, Pi)| with per-flat and per-point marginals.  Every counter
    that reads incidences takes this index as an argument, so a caller
    builds it once per configuration.

    When p^k <= |P| a flat is counted from its p^k points, zipped column by
    column by `enumerate_points`, each looked up in the point set.  Otherwise
    every point of P is probed with one `membership` call per (point, flat);
    that side and the crossover stay as they are because the benchmark
    tracer's self-test pins 39 `membership` calls inside `incidence_count`
    on `gen_degenerate(4, 2, 1, GF(3))`.
    """
    fld = config.field
    flat_size = fld.p ** config.k
    points: Dict[AffineFlat, Tuple[Vector, ...]] = {}
    per_point: Dict[Vector, List[AffineFlat]] = defaultdict(list)
    for flat in config.flats:
        if flat_size <= len(config.points):
            hits = [pt for pt in enumerate_points(flat, fld) if pt in config.points]
        else:
            hits = [pt for pt in config.points if membership(pt, flat, fld)]
        points[flat] = tuple(sorted(hits))
        for pt in hits:
            per_point[pt].append(flat)
    per_flat = {flat: len(pts) for flat, pts in points.items()}
    return IncidenceIndex(
        per_flat, {pt: tuple(fl) for pt, fl in per_point.items()}, sum(per_flat.values()), points
    )


def cs_holder_count(config: Configuration, m: int, index: IncidenceIndex) -> int:
    """Sum over flats of |P ∩ pi|^m: the count of ordered m-tuples of
    incident points per flat.  Asserts the exact Hoelder lower bound
    sum * |Pi|^{m-1} >= |I|^m (Cauchy-Schwarz at m = 2)."""
    if m < 1:
        raise PreconditionError(f"need m >= 1, got {m}")
    count = sum(c**m for c in index.per_flat.values())
    num_flats = len(config.flats)
    if num_flats > 0:
        assert count * num_flats ** (m - 1) >= index.total**m
    return count


@dataclass
class JrDecomposition:
    """|J_r| and its partition by affine-hull dimension of the point tuple."""

    r: int
    total: int
    strata: Tuple[int, ...]  # index j = hull dimension, j = 0..r


def _onto(slots: int, size: int) -> int:
    """Number of maps from `slots` slots onto a set of `size` points,
    size! S(slots, size), by inclusion-exclusion."""
    return sum(
        (-1) ** i * math.comb(size, i) * (size - i) ** slots for i in range(size + 1)
    )


def jr_decompose(config: Configuration, r: int, index: IncidenceIndex) -> JrDecomposition:
    """Classify every incident (r+1)-tuple per flat by the dimension of its
    affine hull.  Exact partition: the strata sum to sum_pi c^{r+1}, and
    stratum 0 (constant tuples) equals |I|.

    Tuples are counted by their point sets: an ordered (r+1)-tuple whose
    points form an s-subset is one of the onto(s) = s! S(r+1, s) maps from
    r+1 slots onto it, and all of them share the subset's hull.  A single
    point is a 0-flat and two distinct points span a line, so strata 0 and 1
    get c and C(c,2) onto(2) per flat of c points; each s-subset with
    3 <= s <= r+1 adds onto(s) to the stratum of the rank of its local
    differences (`local_coordinates`).  The identity
    sum_s C(c,s) onto(s) = c^{r+1} makes the final total a real check.
    `jr_decompose_bruteforce` is the independent oracle."""
    if not 1 <= r <= config.k:
        raise PreconditionError(f"need 1 <= r <= k={config.k}, got r={r}")
    fld = config.field
    work = sum(c ** (r + 1) for c in index.per_flat.values())
    onto = [_onto(r + 1, s) for s in range(r + 2)]
    strata = [0] * (r + 1)
    for flat in config.flats:
        pts = index.points[flat]
        c = len(pts)
        strata[0] += c
        strata[1] += math.comb(c, 2) * onto[2]
        if c < 3 or r < 2:
            continue
        local = local_coordinates(pts, flat)
        for s in range(3, r + 2):
            for subset in itertools.combinations(pts, s):
                strata[difference_basis([local[q] for q in subset], fld).rank] += onto[s]
    total = sum(strata)
    assert total == work
    return JrDecomposition(r, total, tuple(strata))


JR_ORACLE_POINT_GUARD = 64


def jr_decompose_bruteforce(config: Configuration, r: int) -> JrDecomposition:
    """Independent oracle for `jr_decompose`, straight from the definition:
    each flat's points are found by scanning P with `linalg.in_span` on
    differences, and every ordered (r+1)-tuple of them from
    `itertools.product` is classified by `affine_hull`.  No incidence index
    or coset key is read."""
    if not 1 <= r <= config.k:
        raise PreconditionError(f"need 1 <= r <= k={config.k}, got r={r}")
    if len(config.points) > JR_ORACLE_POINT_GUARD:
        raise SizeGuardError(
            f"two-ends oracle limited to {JR_ORACLE_POINT_GUARD} points, "
            f"got {len(config.points)}"
        )
    fld = config.field
    p = fld.p
    points = sorted(config.points)
    strata = [0] * (r + 1)
    hull_dim_cache: Dict[Tuple[Vector, ...], int] = {}
    for flat in config.flats:
        incident = [
            x for x in points
            if in_span(tuple((a - b) % p for a, b in zip(x, flat.representative)),
                       flat.direction.basis, fld)
        ]
        for tup in itertools.product(incident, repeat=r + 1):
            key = tuple(sorted(set(tup)))
            dim = hull_dim_cache.get(key)
            if dim is None:
                dim = hull_dim_cache[key] = affine_hull(key, fld)[0]
            strata[dim] += 1
    return JrDecomposition(r, sum(strata), tuple(strata))


@dataclass
class RefinedConfig:
    """The dyadic bucket of flats carrying the largest share of incidences."""

    flats: Tuple[AffineFlat, ...]
    bucket_level: int
    refined_total: int

    @property
    def num_flats(self) -> int:
        return len(self.flats)


def refine_dyadic(config: Configuration, index: IncidenceIndex) -> RefinedConfig:
    """Bucket nonempty flats by floor(log2 |P ∩ pi|) and keep the bucket
    maximizing its incidence contribution, ties toward the larger level."""
    if index.total == 0:
        raise EmptyRefinementError("no incidences to refine")
    buckets: Dict[int, List[AffineFlat]] = defaultdict(list)
    contributions: Dict[int, int] = Counter()
    for flat in config.flats:
        c = index.per_flat.get(flat, 0)
        if c == 0:
            continue
        level = c.bit_length() - 1
        buckets[level].append(flat)
        contributions[level] += c
    best_level = max(contributions, key=lambda lvl: (contributions[lvl], lvl))
    chosen = tuple(buckets[best_level])
    return RefinedConfig(chosen, best_level, contributions[best_level])


def _fraction_product(value: Fraction) -> PowerProduct:
    return PowerProduct([(value.numerator, Fraction(1)), (value.denominator, Fraction(-1))])


@dataclass
class HypothesisVerdict:
    which: str
    ratio: PowerProduct
    margin: Fraction
    holds: bool

    @property
    def ratio_float(self) -> float:
        return float(self.ratio)


def hypothesis_check(
    config: Configuration, index: IncidenceIndex, which: str, margin: Fraction = Fraction(10)
) -> HypothesisVerdict:
    """Quantitative non-degeneracy check: H1 compares |I~| against
    |P| |Pi~|^{(k-1)/k}, H2 against |Pi~| |F|^{k-1}; ">>" is read as
    ">= margin * RHS" and decided exactly."""
    margin = Fraction(margin)
    if margin <= 0:
        raise PreconditionError("margin must be positive")
    if which not in ("H1", "H2"):
        raise PreconditionError(f"unknown hypothesis {which!r}")
    if index.total == 0:
        return HypothesisVerdict(which, PowerProduct([(0, Fraction(1))]), margin, False)
    refined = refine_dyadic(config, index)
    k, p = config.k, config.field.p
    if which == "H1":
        rhs = PowerProduct(
            [(len(config.points), Fraction(1)), (refined.num_flats, Fraction(k - 1, k))]
        )
    else:
        rhs = PowerProduct.integer(refined.num_flats * p ** (k - 1))
    lhs = PowerProduct.integer(refined.refined_total)
    if rhs.is_zero:
        return HypothesisVerdict(which, lhs, margin, not lhs.is_zero)
    holds = lhs.compare(_fraction_product(margin) * rhs) >= 0
    return HypothesisVerdict(which, lhs / rhs, margin, holds)


@dataclass
class MaxIcReport:
    """Exact ratio of |I| against the duality-side incidence bound, plus the
    per-direction sup-chain check from the proof."""

    ratio: Optional[PowerProduct]
    chain_holds: bool
    sup_sum: int
    total: int

    @property
    def ratio_float(self) -> Optional[float]:
        return None if self.ratio is None else float(self.ratio)


def check_max_ic(
    config: Configuration, index: IncidenceIndex, p_exp: Fraction, q_exp: Fraction
) -> MaxIcReport:
    """Compare |I| with |P|^{1/p} |Pi|^{1/q'} |F|^{k(n-k)/q} exactly, and
    verify |I| <= sum over directions of the sup coset count."""
    p_exp, q_exp = Fraction(p_exp), Fraction(q_exp)
    if p_exp < 1 or q_exp < 1:
        raise PreconditionError("exponents must be >= 1")
    if not config.direction_separated:
        raise PreconditionError("configuration is not direction separated")
    fld = config.field
    # Per-direction sup over cosets: each flat's count is at most the sup of
    # the point counts over all cosets of its direction.
    kernel = CosetKeys(config.points, fld)
    sup_sum = sum(
        max(Counter(kernel.keys(flat.direction)).values(), default=0) for flat in config.flats
    )
    chain_holds = index.total <= sup_sum
    if index.total == 0 or not config.points or not config.flats:
        return MaxIcReport(None, chain_holds, sup_sum, index.total)
    inv_q_conj = 1 - 1 / q_exp
    rhs = PowerProduct(
        [
            (len(config.points), 1 / p_exp),
            (len(config.flats), inv_q_conj),
            (fld.p, Fraction(config.k * (config.n - config.k)) / q_exp),
        ]
    )
    return MaxIcReport(PowerProduct.integer(index.total) / rhs, chain_holds, sup_sum, index.total)


def check_main_bound(config: Configuration, index: IncidenceIndex) -> CountReport:
    """Evaluate the three-term main incidence bound on the dyadic refinement
    of the configuration and report |I~| / RHS with the dominant term."""
    n, k, p = config.n, config.k, config.field.p
    if not 2 <= k <= n - 2:
        raise PreconditionError(f"need 2 <= k <= n-2, got n={n}, k={k}")
    if not config.direction_separated:
        raise PreconditionError("configuration is not direction separated")
    report = CountReport()
    report.counts.update(
        {
            "num_points": len(config.points),
            "num_flats": len(config.flats),
            "incidences": index.total,
        }
    )
    if index.total == 0:
        report.ratios["main_bound"] = None
        report.notes["dominant_term"] = "absent"
        return report
    refined = refine_dyadic(config, index)
    num_points, num_flats = len(config.points), refined.num_flats
    terms = {
        "main": main_term_exponents(k).evaluate(num_points, num_flats, p),
        "P_Pi": PowerProduct([(num_points, Fraction(1)), (num_flats, Fraction(k - 1, k))]),
        "Pi_F": PowerProduct.integer(num_flats * p ** (k - 1)),
    }
    dominant = max(terms, key=lambda name: (terms[name].log(), name))
    rhs_value = sum(float(t) for t in terms.values())
    report.counts["refined_incidences"] = refined.refined_total
    report.counts["refined_flats"] = num_flats
    report.counts["bucket_level"] = refined.bucket_level
    report.ratios["main_bound"] = refined.refined_total / rhs_value
    report.notes["dominant_term"] = dominant
    # Exact sufficient check against the dominant term; the float ratio is
    # only a rendering.
    report.verdicts["at_most_dominant"] = (
        PowerProduct.integer(refined.refined_total).compare(terms[dominant]) <= 0
    )
    return report


def common_points(
    flats: Sequence[AffineFlat], index: IncidenceIndex
) -> Iterator[Dict[int, List[Vector]]]:
    """For each flat of the family, in order, the points of P it shares with
    each other family flat it meets in P, keyed by that flat's position in
    `flats` and listed in the flat's sorted point order.

    Each flat's table is built when its turn comes, so one lives at a time.
    The walk visits every family flat through every point of each flat: the
    sum over x in P of deg(x)^2 steps, deg(x) the family flats through x.
    The family must be a subset of the flats `index` was built from."""
    through: Dict[Vector, List[int]] = defaultdict(list)
    for b, flat in enumerate(flats):
        for x in index.points[flat]:
            through[x].append(b)
    for a, flat in enumerate(flats):
        shared: Dict[int, List[Vector]] = defaultdict(list)
        for x in index.points[flat]:
            for b in through[x]:
                if b != a:
                    shared[b].append(x)
        yield shared


@dataclass
class RefinementChainReport:
    """Exact cardinalities of every stage of the refinement chain.
    `shared_pairs` counts, for each pair of positions a < b in
    `refined.flats`, the kept spanning k-subsets the two flats share (pairs
    sharing none are absent); its pairs, in both orders, are the
    deleted-spine plane pairs."""

    refined: RefinedConfig
    ik_prime: int
    ik: int
    vk_prime: int
    vk: int
    vkp: int
    d_size: int
    d_bucket_level: int
    d_threshold: Optional[Fraction]
    holder_lower_holds: bool
    cs_lower_holds: bool
    shared_pairs: Dict[Tuple[int, int], int]


def build_refinement_chain(config: Configuration, index: IncidenceIndex) -> RefinementChainReport:
    """Materialize the chain spanning-tuples -> spine-filtered tuples ->
    plane pairs -> extended pairs -> pigeonholed plane-point family, with
    every stage counted exactly, in one pass over the refined flats that
    keeps only that flat's state.

    The counts are of ordered k-tuples, but spines are enumerated unordered:
    a spanning k-tuple has k distinct points, and its k! orders share one
    hull and one set of tallies, so each k-subset of a flat's sorted points
    is visited once and its counts, the f(pi_0, x) values included, are
    scaled by k! (before the dyadic bucketing of f).

    Spines are found face-locally: in the flat's local coordinates
    (`local_coordinates`) a spine is a hyperplane of F^k, so k points span
    one exactly when the normal l of their k-1 local differences (signed
    minors, `linalg.hyperplane`) is nonzero.  The normal keys the spine's
    parallel class, and the flat's points binned by l . y mod p are its
    spine bins; the spine's bin is l . y of its points.  Every point of P on
    a spine lies on the flat, so the bin of the spine counts exactly the
    points of P on it, and the spine is kept when that count times
    10 |Pi~| p reaches |I~|, compared as integers.

    Pairs are read from the points each refined flat shares with the others
    (`common_points`).  Two distinct k-flats sharing k spanning points meet
    in exactly the (k-1)-flat L they span, so L is the spine of every
    k-subset the two share and its c points of P are their common points.
    A partner with c >= k and c 10 |Pi~| p >= |I~| thus shares the s
    spanning k-subsets of the common points, all kept; each ordered pair
    adds s to vk and s (|P ∩ pi_a| - c) to vkp, and s to f(pi_a, x) for
    every x of the partner off pi_a, and f is bucketed one pi_a at a time.
    `build_refinement_chain_bruteforce` is the independent oracle."""
    fld = config.field
    k, p = config.k, fld.p
    if index.total == 0:
        raise EmptyRefinementError("refinement chain of an incidence-free configuration")
    refined = refine_dyadic(config, index)
    i_tilde = refined.refined_total
    num_flats = refined.num_flats
    # A spine with `count` points is kept when count >= i_tilde / scale.
    scale = 10 * num_flats * p

    holder_tuple_count = sum(index.per_flat[flat] ** k for flat in refined.flats)

    orders = math.factorial(k)
    spanning = kept = vk = vkp = 0
    shared: Dict[Tuple[int, int], int] = {}
    bucket_size: Dict[int, int] = Counter()
    bucket_mass: Dict[int, int] = Counter()
    for a, (flat, partners) in enumerate(zip(refined.flats, common_points(refined.flats, index))):
        pts = index.points[flat]
        local = local_coordinates(pts, flat)
        spine_bins: Dict[Vector, Dict[int, int]] = {}
        for corners in itertools.combinations(local.values(), k):
            spine = hyperplane(corners, p)
            if spine is None:
                continue
            spanning += 1
            normal, level = spine
            bins = spine_bins.get(normal)
            if bins is None:
                bins = spine_bins[normal] = Counter([sum(map(mul, normal, y)) % p for y in local.values()])
            kept += bins[level] * scale >= i_tilde

        # f(pi_a, x) = sum of s over the partners through x, for x off pi_a.
        off = frozenset(pts)
        f_values: Dict[Vector, int] = {}
        for b, common in partners.items():
            c = len(common)
            if c < k or c * scale < i_tilde:
                continue
            corners = [local[x] for x in common]
            s = sum(hyperplane(sub, p) is not None for sub in itertools.combinations(corners, k))
            if not s:
                continue
            vk += s
            vkp += s * (len(pts) - c)
            if a < b:
                shared[(a, b)] = s
            for x in index.points[refined.flats[b]]:
                if x not in off:
                    f_values[x] = f_values.get(x, 0) + s
        for f in f_values.values():
            f *= orders
            level = f.bit_length() - 1
            bucket_size[level] += 1
            bucket_mass[level] += f

    ik_prime = orders * spanning
    ik = orders * kept
    vk *= orders
    d_level = max(bucket_mass, key=lambda lvl: (bucket_mass[lvl], lvl), default=-1)
    d_size = bucket_size[d_level]
    d_threshold = (
        Fraction(vk * i_tilde, num_flats * d_size) if d_size and vk else None
    )

    holder_lower_holds = (
        holder_tuple_count * num_flats ** (k - 1) >= i_tilde**k
    )
    # Each kept k-subset on g refined flats adds g^2 = g + g(g-1) orders.
    vk_prime = ik + vk
    cs_lower_holds = vk_prime * len(config.points) ** k >= ik**2

    return RefinementChainReport(
        refined=refined,
        ik_prime=ik_prime,
        ik=ik,
        vk_prime=vk_prime,
        vk=vk,
        vkp=orders * vkp,
        d_size=d_size,
        d_bucket_level=d_level,
        d_threshold=d_threshold,
        holder_lower_holds=holder_lower_holds,
        cs_lower_holds=cs_lower_holds,
        shared_pairs=shared,
    )


CHAIN_ORACLE_POINT_GUARD = 64


def build_refinement_chain_bruteforce(config: Configuration) -> Dict[str, object]:
    """Independent oracle for the counted stages of `build_refinement_chain`,
    straight from the definitions: the points of a flat or a spine are found
    by scanning P with `linalg.in_span` on differences, spanning
    tuples are ordered `itertools.product` k-tuples, and no incidence index
    or coset key is used.  Returns ik_prime, ik, vk_prime, vk, vkp, d_size,
    d_bucket_level and d_threshold by name."""
    if len(config.points) > CHAIN_ORACLE_POINT_GUARD:
        raise SizeGuardError(
            f"chain oracle limited to {CHAIN_ORACLE_POINT_GUARD} points, "
            f"got {len(config.points)}"
        )
    fld = config.field
    k, p = config.k, fld.p
    points = sorted(config.points)

    def on(x: Vector, flat: AffineFlat) -> bool:
        diff = tuple((a - b) % p for a, b in zip(x, flat.representative))
        return in_span(diff, flat.direction.basis, fld)

    incident = {flat: [x for x in points if on(x, flat)] for flat in config.flats}
    level_mass: Dict[int, int] = Counter()
    for pts in incident.values():
        if pts:
            level_mass[len(pts).bit_length() - 1] += len(pts)
    if not level_mass:
        raise EmptyRefinementError("refinement chain of an incidence-free configuration")
    level = max(level_mass, key=lambda lvl: (level_mass[lvl], lvl))
    refined = [
        flat for flat in config.flats
        if incident[flat] and len(incident[flat]).bit_length() - 1 == level
    ]
    i_tilde, num_flats = level_mass[level], len(refined)
    spine_threshold = Fraction(i_tilde, 10 * num_flats * p)

    ik_prime = ik = 0
    groups: Dict[Tuple[Vector, ...], List[AffineFlat]] = defaultdict(list)
    spines: Dict[Tuple[Vector, ...], AffineFlat] = {}
    for flat in refined:
        for tup in itertools.product(incident[flat], repeat=k):
            dim, spine = affine_hull(tup, fld)
            if dim != k - 1:
                continue
            ik_prime += 1
            if sum(on(x, spine) for x in points) >= spine_threshold:
                ik += 1
                groups[tup].append(flat)
                spines[tup] = spine
    vk_prime = sum(len(g) ** 2 for g in groups.values())
    vk = sum(len(g) * (len(g) - 1) for g in groups.values())

    vkp = 0
    f_values: Dict[Tuple[AffineFlat, Vector], int] = Counter()
    for tup, group in groups.items():
        for pi in group:
            ext_points = [x for x in incident[pi] if not on(x, spines[tup])]
            vkp += len(ext_points) * (len(group) - 1)
            for x in ext_points:
                for pi0 in group:
                    if pi0 != pi and not on(x, pi0):
                        f_values[(pi0, x)] += 1

    d_mass: Dict[int, int] = Counter()
    d_members: Dict[int, int] = Counter()
    for f in f_values.values():
        d_mass[f.bit_length() - 1] += f
        d_members[f.bit_length() - 1] += 1
    d_level = max(d_mass, key=lambda lvl: (d_mass[lvl], lvl)) if d_mass else -1
    d_size = d_members[d_level]
    return {
        "ik_prime": ik_prime,
        "ik": ik,
        "vk_prime": vk_prime,
        "vk": vk,
        "vkp": vkp,
        "d_size": d_size,
        "d_bucket_level": d_level,
        "d_threshold": Fraction(vk * i_tilde, num_flats * d_size) if d_size and vk else None,
    }
