"""Exact incidence counting: the incidence set, Cauchy-Schwarz/Hoelder tuple
counts, the two-ends stratification, dyadic refinement, and the refinement
chain feeding the simplex construction.

All counts are exact integers; thresholds are exact rationals; comparisons
against products with rational exponents go through PowerProduct so no
verdict ever touches floating point.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .config import Configuration
from .exponents import PowerProduct, main_term_exponents
from .flats import (
    AffineFlat,
    LinearSubspace,
    affine_hull,
    coset_key,
    coset_sums,
    enumerate_points,
    membership,
)
from .linalg import Vector
from .reports import CountReport

TUPLE_WORK_GUARD = 5_000_000


class EmptyRefinementError(ValueError):
    """Dyadic refinement of a configuration with no incidences."""


class PreconditionError(ValueError):
    pass


class SizeGuardError(RuntimeError):
    """Exact tuple enumeration would exceed the work guard."""


@dataclass
class IncidenceIndex:
    """Both marginals of the incidence relation, the exact total, and the
    sorted incident points of every flat."""

    per_flat: Dict[AffineFlat, int]
    per_point: Dict[Vector, Tuple[AffineFlat, ...]]
    total: int
    points: Dict[AffineFlat, Tuple[Vector, ...]]


def incidence_count(config: Configuration) -> IncidenceIndex:
    """Exact |I(P, Pi)| with per-flat and per-point marginals.

    Each flat is counted by enumerating its p^k points and probing the point
    set, unless the point set is smaller, in which case points are probed
    against the flat membership test.
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


def cs_holder_count(
    config: Configuration, m: int, index: Optional[IncidenceIndex] = None
) -> int:
    """Sum over flats of |P ∩ pi|^m: the count of ordered m-tuples of
    incident points per flat.  Asserts the exact Hoelder lower bound
    sum * |Pi|^{m-1} >= |I|^m (Cauchy-Schwarz at m = 2)."""
    if m < 1:
        raise PreconditionError(f"need m >= 1, got {m}")
    if index is None:
        index = incidence_count(config)
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


def jr_decompose(
    config: Configuration, r: int, index: Optional[IncidenceIndex] = None
) -> JrDecomposition:
    """Classify every incident (r+1)-tuple per flat by the dimension of its
    affine hull.  Exact partition: the strata sum to sum_pi c^{r+1}, and
    stratum 0 (constant tuples) equals |I|."""
    if not 1 <= r <= config.k:
        raise PreconditionError(f"need 1 <= r <= k={config.k}, got r={r}")
    if index is None:
        index = incidence_count(config)
    fld = config.field
    work = sum(c ** (r + 1) for c in index.per_flat.values())
    if work > TUPLE_WORK_GUARD:
        raise SizeGuardError(f"{work} tuples exceeds guard {TUPLE_WORK_GUARD}")
    strata = [0] * (r + 1)
    hull_dim_cache: Dict[Tuple[Vector, ...], int] = {}
    for flat in config.flats:
        for tup in itertools.product(index.points[flat], repeat=r + 1):
            key = tuple(sorted(set(tup)))
            dim = hull_dim_cache.get(key)
            if dim is None:
                dim = affine_hull(key, fld)[0]
                hull_dim_cache[key] = dim
            strata[dim] += 1
    total = sum(strata)
    assert total == work
    return JrDecomposition(r, total, tuple(strata))


@dataclass
class RefinedConfig:
    """The dyadic bucket of flats carrying the largest share of incidences."""

    parent: Configuration
    index: IncidenceIndex
    flats: Tuple[AffineFlat, ...]
    bucket_level: int
    refined_total: int

    @property
    def num_flats(self) -> int:
        return len(self.flats)


def refine_dyadic(
    config: Configuration, index: Optional[IncidenceIndex] = None
) -> RefinedConfig:
    """Bucket nonempty flats by floor(log2 |P ∩ pi|) and keep the bucket
    maximizing its incidence contribution, ties toward the larger level."""
    if index is None:
        index = incidence_count(config)
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
    return RefinedConfig(config, index, chosen, best_level, contributions[best_level])


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
    config: Configuration,
    which: str,
    margin: Fraction = Fraction(10),
    refined: Optional[RefinedConfig] = None,
) -> HypothesisVerdict:
    """Quantitative non-degeneracy check: H1 compares |I~| against
    |P| |Pi~|^{(k-1)/k}, H2 against |Pi~| |F|^{k-1}; ">>" is read as
    ">= margin * RHS" and decided exactly."""
    margin = Fraction(margin)
    if margin <= 0:
        raise PreconditionError("margin must be positive")
    if which not in ("H1", "H2"):
        raise PreconditionError(f"unknown hypothesis {which!r}")
    if refined is None:
        index = incidence_count(config)
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
    config: Configuration, p_exp: Fraction, q_exp: Fraction
) -> MaxIcReport:
    """Compare |I| with |P|^{1/p} |Pi|^{1/q'} |F|^{k(n-k)/q} exactly, and
    verify |I| <= sum over directions of the sup coset count."""
    p_exp, q_exp = Fraction(p_exp), Fraction(q_exp)
    if p_exp < 1 or q_exp < 1:
        raise PreconditionError("exponents must be >= 1")
    if not config.direction_separated:
        raise PreconditionError("configuration is not direction separated")
    fld = config.field
    index = incidence_count(config)
    # Per-direction sup over cosets: each flat's count is at most the sup of
    # the point counts over all cosets of its direction.
    sup_sum = 0
    for flat in config.flats:
        counts = coset_sums(((pt, 1) for pt in config.points), flat.direction, fld)
        sup_sum += max(counts.values(), default=0)
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


def check_main_bound(config: Configuration) -> CountReport:
    """Evaluate the three-term main incidence bound on the dyadic refinement
    of the configuration and report |I~| / RHS with the dominant term."""
    n, k, p = config.n, config.k, config.field.p
    if not 2 <= k <= n - 2:
        raise PreconditionError(f"need 2 <= k <= n-2, got n={n}, k={k}")
    if not config.direction_separated:
        raise PreconditionError("configuration is not direction separated")
    report = CountReport()
    index = incidence_count(config)
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


@dataclass
class RefinementChainReport:
    """Exact cardinalities of every stage of the refinement chain, plus the
    materialized spine groups the simplex bounds feed on."""

    refined: RefinedConfig
    spine_threshold: Fraction
    ik_prime: int
    ik: int
    vk_prime: int
    vk: int
    vkp: int
    d_size: int
    d_bucket_level: int
    d_threshold: Optional[Fraction]
    holder_tuple_count: int
    holder_lower_holds: bool
    discard_allowance: Fraction
    cs_lower_holds: bool
    spine_groups: Dict[Tuple[Vector, ...], Tuple[AffineFlat, ...]]
    spine_hulls: Dict[Tuple[Vector, ...], AffineFlat]
    d_pairs: Tuple[Tuple[AffineFlat, Vector], ...]


def build_refinement_chain(config: Configuration) -> RefinementChainReport:
    """Materialize the chain spanning-tuples -> spine-filtered tuples ->
    plane pairs -> extended pairs -> pigeonholed plane-point family, with
    every stage counted exactly."""
    fld = config.field
    k, p = config.k, fld.p
    index = incidence_count(config)
    if index.total == 0:
        raise EmptyRefinementError("refinement chain of an incidence-free configuration")
    refined = refine_dyadic(config, index)
    i_tilde = refined.refined_total
    num_flats = refined.num_flats
    spine_threshold = Fraction(i_tilde, 10 * num_flats * p)

    holder_tuple_count = sum(index.per_flat[flat] ** k for flat in refined.flats)
    if holder_tuple_count > TUPLE_WORK_GUARD:
        raise SizeGuardError(
            f"{holder_tuple_count} spanning tuples exceeds guard {TUPLE_WORK_GUARD}"
        )

    ik_prime = 0
    ik = 0
    groups: Dict[Tuple[Vector, ...], List[AffineFlat]] = defaultdict(list)
    hulls: Dict[Tuple[Vector, ...], AffineFlat] = {}
    hull_cache: Dict[Tuple[Vector, ...], Tuple[int, AffineFlat]] = {}
    for flat in refined.flats:
        pts = index.points[flat]
        # A spine spanned by points of this flat lies in it, so its points of
        # P are among the flat's own: bin those once per spine direction.
        # Spines of one direction are keyed through the subspace instance the
        # bins were made with, so only that instance keeps annihilator rows.
        spine_bins: Dict[LinearSubspace, Tuple[LinearSubspace, Dict[int, int]]] = {}
        for tup in itertools.product(pts, repeat=k):
            key = tuple(sorted(set(tup)))
            cached = hull_cache.get(key)
            if cached is None:
                cached = affine_hull(key, fld)
                hull_cache[key] = cached
            dim, hull = cached
            if dim != k - 1:
                continue
            ik_prime += 1
            entry = spine_bins.get(hull.direction)
            if entry is None:
                entry = (hull.direction, coset_sums(((q, 1) for q in pts), hull.direction, fld))
                spine_bins[hull.direction] = entry
            direction, bins = entry
            if bins.get(coset_key(hull.representative, direction, fld), 0) >= spine_threshold:
                ik += 1
                groups[tup].append(flat)
                hulls[tup] = hull

    vk_prime = sum(len(g) ** 2 for g in groups.values())
    vk = sum(len(g) * (len(g) - 1) for g in groups.values())

    # Extended pairs and the f(pi_0, x) tallies in one pass.
    vkp = 0
    f_values: Dict[Tuple[AffineFlat, Vector], int] = Counter()
    point_sets = {flat: frozenset(index.points[flat]) for flat in refined.flats}
    for tup, flats_for_tup in groups.items():
        hull = hulls[tup]
        m = len(flats_for_tup)
        if m < 2:
            continue
        for pi in flats_for_tup:
            ext_points = [
                q for q in index.points[pi] if not membership(q, hull, fld)
            ]
            vkp += len(ext_points) * (m - 1)
            for x in ext_points:
                for pi0 in flats_for_tup:
                    if pi0 == pi:
                        continue
                    if x not in point_sets[pi0]:
                        f_values[(pi0, x)] += 1

    # Dyadic pigeonhole on f over eligible pairs.
    d_pairs: Tuple[Tuple[AffineFlat, Vector], ...] = ()
    d_level = -1
    if f_values:
        bucket_members: Dict[int, List[Tuple[AffineFlat, Vector]]] = defaultdict(list)
        bucket_mass: Dict[int, int] = Counter()
        for pair, f in f_values.items():
            level = f.bit_length() - 1
            bucket_members[level].append(pair)
            bucket_mass[level] += f
        d_level = max(bucket_mass, key=lambda lvl: (bucket_mass[lvl], lvl))
        d_pairs = tuple(
            sorted(
                bucket_members[d_level],
                key=lambda pr: (pr[1], pr[0].representative, pr[0].direction.basis.rows),
            )
        )
    d_size = len(d_pairs)
    d_threshold = (
        Fraction(vk * i_tilde, num_flats * d_size) if d_size and vk else None
    )

    holder_lower_holds = (
        holder_tuple_count * num_flats ** (k - 1) >= i_tilde**k
    )
    discard_allowance = Fraction(i_tilde**k, 10**k * num_flats ** (k - 1))
    cs_lower_holds = vk_prime * len(config.points) ** k >= ik**2

    return RefinementChainReport(
        refined=refined,
        spine_threshold=spine_threshold,
        ik_prime=ik_prime,
        ik=ik,
        vk_prime=vk_prime,
        vk=vk,
        vkp=vkp,
        d_size=d_size,
        d_bucket_level=d_level,
        d_threshold=d_threshold,
        holder_tuple_count=holder_tuple_count,
        holder_lower_holds=holder_lower_holds,
        discard_allowance=discard_allowance,
        cs_lower_holds=cs_lower_holds,
        spine_groups={t: tuple(g) for t, g in groups.items()},
        spine_hulls=hulls,
        d_pairs=d_pairs,
    )
