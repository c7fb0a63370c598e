"""Exact incidence counting: the incidence set, Cauchy-Schwarz/Hoelder tuple
counts, the two-ends stratification, dyadic refinement, and the refinement
chain feeding the simplex construction.

All counts are exact integers; thresholds are exact rationals; comparisons
against products with rational exponents go through PowerProduct so no
verdict ever touches floating point.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from ._value import _Value
from .config import Configuration
from .exponents import PowerProduct, main_term_exponents
from .field import Field
from .flats import AffineFlat, CosetSums, FlatLanes, enumerate_points, local_coordinates, membership
from .linalg import Vector, span


class EmptyRefinementError(ValueError):
    """Dyadic refinement of a configuration with no incidences."""


class PreconditionError(ValueError):
    pass


class SizeGuardError(RuntimeError):
    """Work refused before it starts: a brute-force oracle's point limit or
    the CLI's work budget would be exceeded."""


class IncidenceIndex(_Value):
    """The sorted incident points of every flat; the per-flat marginal and
    the exact total are read from them, once each."""

    __slots__ = ("points", "__dict__")  # the instance dict holds the cached properties

    def __init__(self, points: Dict[AffineFlat, Tuple[Vector, ...]]):
        self.points = points

    @functools.cached_property
    def per_flat(self) -> Dict[AffineFlat, int]:
        return {flat: len(pts) for flat, pts in self.points.items()}

    @functools.cached_property
    def total(self) -> int:
        return sum(self.per_flat.values())


def incidence_count(config: Configuration) -> IncidenceIndex:
    """The sorted points of P on each flat of Pi, from which the per-flat
    marginal and the exact |I(P, Pi)| are read.  Every counter that reads
    incidences takes this index as an argument, so a caller builds it once
    per configuration.

    Three sides count the flats, each where per-flat timings show it wins
    (CPython 3.11, a shared 2-CPU host, best of 15 on fresh flats):
    - Probe, when p^k + 12 > 4|P|: every point of P is probed with one
      `membership` call per (point, flat), which stops at the first
      annihilator digit of the point that differs from the flat's.  Probing
      costs about 4.5 us plus 0.5-0.8 us a point, so it loses to enumeration
      from |P| of about p^k/4 + 3 (|P| = 6 at (4,2,3), 15 at (4,2,7)).
      Below that a few points are cheaper to probe than p^k to build, and
      `gen_degenerate(4, 2, 1, GF(3))` (3 points, p^k = 9) stays here, with
      its 39 `membership` calls.
    - Lanes, below p = 128 when |Pi| (4 p^k + 130 - |P|) > 12 |P| + 1400:
      `FlatLanes.incident` takes every coset digit of every point under
      every flat at once, in byte lanes.  Fitted on eight shapes from
      (4,1,7) to (4,3,5) at 1 to 64 flats and p^k/2 to 4 p^k points, it
      costs about 3.5 us plus 0.045 us a point per flat, and once per call
      about 50 us plus 0.6 us a point (sorting P, tables and sums), against
      about 10 us plus 0.2 us·p^k a flat to enumerate (12-48 us on those
      shapes): the rule is that comparison, times 20, with the once-per-
      call cost rounded up.  So sparse P on a family of more than a few
      flats takes the lanes: the benchmark's `incidence-bound` (|P| = 37
      at (4,2,7)) counts in 0.26-0.34 of the time of enumeration, and
      `two-ends` (|P| = 150) in 0.53-0.69, 200 flats each.  Lanes lose
      from |P| of about 4 p^k + 130 whatever the family (at (4,2,7) from
      about 350 points; with all 2 401 points on 2 850 flats they take
      0.33 s against 0.065 s), and below about 10 flats to the
      once-per-call cost.
    - Enumerate otherwise (dense P, small families and p >= 128): a flat's
      p^k points, zipped column by column by `enumerate_points` (in byte
      lanes below p = 128), are each looked up in the point set.
    No side sorts per flat: `enumerate_points` yields ascending points, and
    the other two walk P sorted once.
    """
    fld, size, flat_size = config.field, len(config.points), config.field.p**config.k
    if flat_size + 12 > 4 * size:
        ordered = sorted(config.points)
        return IncidenceIndex(
            {flat: tuple([pt for pt in ordered if membership(pt, flat, fld)]) for flat in config.flats}
        )
    if fld.p < 128 and len(config.flats) * (4 * flat_size + 130 - size) > 12 * size + 1400:
        return IncidenceIndex(FlatLanes(config.points, fld).incident(config.flats))
    return IncidenceIndex(
        {flat: tuple(filter(config.points.__contains__, enumerate_points(flat, fld))) for flat in config.flats}
    )


def _power_sum(index: IncidenceIndex, flats: Sequence[AffineFlat], m: int) -> Tuple[int, bool]:
    """Sum over the flats of |P ∩ pi|^m, the ordered m-tuples of incident
    points per flat, and whether it meets the exact Hoelder lower bound
    sum * |Pi|^{m-1} >= |I|^m over them (Cauchy-Schwarz at m = 2)."""
    counts = [index.per_flat[flat] for flat in flats]
    power_sum = sum(c**m for c in counts)
    return power_sum, power_sum * len(counts) ** (m - 1) >= sum(counts) ** m


def cs_holder_count(config: Configuration, m: int, index: IncidenceIndex) -> int:
    """Sum over flats of |P ∩ pi|^m (`_power_sum`), asserting its Hoelder
    lower bound."""
    if m < 1:
        raise PreconditionError(f"need m >= 1, got {m}")
    count, holds = _power_sum(index, config.flats, m)
    assert holds
    return count


class JrDecomposition(_Value):
    """|J_r| and its partition by affine-hull dimension of the point tuple:
    `strata[j]` counts the tuples of hull dimension j, j = 0..r."""

    __slots__ = ("r", "total", "strata")

    def __init__(self, r: int, total: int, strata: Tuple[int, ...]):
        self.r, self.total, self.strata = r, total, strata


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
    3 <= s <= r+1 adds onto(s) to the stratum of the dimension of its span
    in local coordinates (`local_coordinates`, `linalg.span`).  The identity
    sum_s C(c,s) onto(s) = c^{r+1} makes the final total a real check.
    `oracles.jr_decompose_bruteforce` is the independent oracle."""
    if not 1 <= r <= config.k:
        raise PreconditionError(f"need 1 <= r <= k={config.k}, got r={r}")
    p = config.field.p
    work, _ = _power_sum(index, config.flats, r + 1)
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
            for subset in itertools.combinations(local, s):
                strata[span(subset, p)[0]] += onto[s]
    total = sum(strata)
    assert total == work
    return JrDecomposition(r, total, tuple(strata))


class RefinedConfig(_Value):
    """The dyadic bucket of flats carrying the largest share of incidences."""

    __slots__ = ("flats", "bucket_level", "refined_total")

    def __init__(self, flats: Tuple[AffineFlat, ...], bucket_level: int, refined_total: int):
        self.flats, self.bucket_level, self.refined_total = flats, bucket_level, refined_total

    @property
    def num_flats(self) -> int:
        return len(self.flats)


class _DyadicLevels:
    """Positive integers bucketed by dyadic level floor(log2 v), with each
    level's count `size` and sum `mass`: the one pigeonhole of `refine_dyadic`
    and of `ChainTally`'s plane-point family."""

    def __init__(self):
        self.size: Dict[int, int] = Counter()
        self.mass: Dict[int, int] = Counter()

    def add(self, value: int) -> int:
        """Count `value` at its level, and return the level."""
        level = value.bit_length() - 1
        self.size[level] += 1
        self.mass[level] += value
        return level

    def heaviest(self) -> int:
        """The level of largest mass, ties toward the larger; -1 for none."""
        mass = self.mass
        return max(mass, key=lambda lvl: (mass[lvl], lvl), default=-1)


def refine_dyadic(config: Configuration, index: IncidenceIndex) -> RefinedConfig:
    """Bucket nonempty flats by floor(log2 |P ∩ pi|) and keep the bucket
    of the heaviest level (`_DyadicLevels`) by incidence contribution."""
    if index.total == 0:
        raise EmptyRefinementError("no incidences to refine")
    levels = _DyadicLevels()
    buckets: Dict[int, List[AffineFlat]] = defaultdict(list)
    for flat in config.flats:
        c = index.per_flat.get(flat, 0)
        if c:
            buckets[levels.add(c)].append(flat)
    best = levels.heaviest()
    return RefinedConfig(tuple(buckets[best]), best, levels.mass[best])


def _refuse_unseparated(config: Configuration) -> None:
    if not config.direction_separated:
        raise PreconditionError("configuration is not direction separated")


def _row_head(config: Configuration, index: IncidenceIndex) -> Dict[str, object]:
    """The head of every row on a configuration's incidences: num_points,
    num_flats and incidences, in that order."""
    return {"num_points": len(config.points), "num_flats": len(config.flats), "incidences": index.total}


def _refined_row(config: Configuration, index: IncidenceIndex) -> Tuple[Dict[str, object], Optional[RefinedConfig]]:
    """The start of a row on the dyadic refinement (`check_main_bound`,
    `simplex.simplex_bound_report`): refuse a family that is not direction
    separated, write the row head (`_row_head`), and refine; None for the
    refinement when |I| = 0."""
    _refuse_unseparated(config)
    return _row_head(config, index), (refine_dyadic(config, index) if index.total else None)


class MaxIcReport(_Value):
    """Exact ratio of |I| against the duality-side incidence bound, plus the
    per-direction sup-chain check from the proof."""

    __slots__ = ("ratio", "chain_holds", "sup_sum", "total")

    def __init__(self, ratio: Optional[PowerProduct], chain_holds: bool, sup_sum: int, total: int):
        self.ratio, self.chain_holds, self.sup_sum, self.total = ratio, chain_holds, sup_sum, total


def check_max_ic(
    config: Configuration, index: IncidenceIndex, p_exp: Fraction, q_exp: Fraction
) -> MaxIcReport:
    """Compare |I| with |P|^{1/p} |Pi|^{1/q'} |F|^{k(n-k)/q} exactly, and
    verify |I| <= sum over directions of the sup coset count.

    Each flat's sup is the most points of P in one coset of its direction.
    Below p = 128, with p^(n-k) <= 2^64, they come from the packed coset
    keys of every point under every flat at once (`FlatLanes.
    largest_cosets`, one `Counter` a flat) when |Pi| (200 - |P|) > 400, and
    from one `CosetSums.maxima` call a flat otherwise.  Timed per flat
    (CPython 3.11, a shared 2-CPU host, best of 15 on fresh flats, the
    shapes of `incidence_count`'s fit), the lanes cost about 8 us plus
    0.065 us a point, and a `CosetSums` direction at least about 20 us,
    flat in |P| where the directions have few cosets ((4,3,5), 5 cosets)
    and rising with |P| where they have many ((4,2,7), 49 cosets: 64 us at
    223 points); each side's once-per-call set-up is 50-150 us.  So the
    lanes win below about 200 points on a family of more than a few flats,
    and the rule keeps a margin there: the benchmark's `incidence-bound`
    (|P| = 37, 200 flats at (4,2,7)) takes 0.44-0.57 of the time of
    `CosetSums`.
    Dense P stays on `CosetSums` ((4,2,7) with all 2 401 points on 2 850
    directions: 0.11-0.20 s there, 0.62 s in lanes)."""
    p_exp, q_exp = Fraction(p_exp), Fraction(q_exp)
    if p_exp < 1 or q_exp < 1:
        raise PreconditionError("exponents must be >= 1")
    _refuse_unseparated(config)
    fld, size = config.field, len(config.points)
    # Per-direction sup over cosets: each flat's count is at most the sup of
    # the point counts over all cosets of its direction.
    if fld.p < 128 and fld.p ** (config.n - config.k) <= 1 << 64 and len(config.flats) * (200 - size) > 400:
        sup_sum = sum(FlatLanes(config.points, fld).largest_cosets(config.flats).values())
    else:
        kernel = CosetSums([[(1, config.points)]], config.k, fld)
        sup_sum = sum(kernel.maxima(flat.direction)[0] for flat in config.flats)
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


def check_main_bound(config: Configuration, index: IncidenceIndex) -> Dict[str, object]:
    """The main-bound row: the three-term main incidence bound evaluated on
    the dyadic refinement of the configuration, as |I~| / RHS with the
    dominant term, after the row head and the refinement's counts."""
    n, k, p = config.n, config.k, config.field.p
    if not 2 <= k <= n - 2:
        raise PreconditionError(f"need 2 <= k <= n-2, got n={n}, k={k}")
    row, refined = _refined_row(config, index)
    if refined is None:
        return {**row, "ratio_main_bound": None, "dominant_term": "absent"}
    num_points, num_flats = len(config.points), refined.num_flats
    terms = {
        "main": main_term_exponents(k).evaluate(num_points, num_flats, p),
        "P_Pi": PowerProduct([(num_points, Fraction(1)), (num_flats, Fraction(k - 1, k))]),
        "Pi_F": PowerProduct.integer(num_flats * p ** (k - 1)),
    }
    # The largest term, decided exactly; a tie goes to the larger name.
    dominant = max(sorted(terms, reverse=True), key=functools.cmp_to_key(lambda a, b: terms[a].compare(terms[b])))
    rhs_value = sum(float(t) for t in terms.values())
    return {
        **row,
        "refined_incidences": refined.refined_total,
        "refined_flats": num_flats,
        "bucket_level": refined.bucket_level,
        "ratio_main_bound": refined.refined_total / rhs_value,
        "dominant_term": dominant,
    }


class Spine(NamedTuple):
    """One hyperplane of a face spanned by its points: `points`, the face
    points on it (bits, `|`-ed); `heads`, its spanning k-subsets as
    ascending tuples of vertex bits; `partners`, the ascending positions of
    the other family flats through it."""

    points: int
    heads: List[Tuple[int, ...]]
    partners: List[int]


# One flat's record from `common_points`: each hyperplane (normal, level) in
# local coordinates that k of its points span, mapped to that hyperplane's
# `Spine`.  The flat's points are bits 1 << i in sorted order, a set of them
# the `|` of their bits.
Face = Dict[Tuple[Vector, int], Spine]


def common_points(flats: Sequence[AffineFlat], index: IncidenceIndex, field: Field) -> Iterator[Face]:
    """For each flat of the family, in order, its `Face`, a dict from each
    hyperplane its k-subsets span, k = dim, to that hyperplane's `Spine`,
    with the other family flats through it.  This is the one place that
    decides spanning: k points span a hyperplane of the flat exactly when
    their span in local coordinates (`local_coordinates`) has dimension k-1
    (`linalg.span`).

    Every face point on a spine completes k-1 points of one of its spanning
    k-subsets to another, so a spine's points are the `|` of its heads.  Two
    distinct k-flats sharing k spanning points meet in exactly the (k-1)-flat
    they span, so a partner shares exactly one spine's points; a flat that
    shares no spine's points shares no spanning k-subset and is no partner.

    One flat's record lives at a time; the walk takes the sum over x in P of
    deg(x)^2 steps, deg(x) the family flats through x.  The family must be a
    subset of the flats `index` was built from."""
    k, p = (flats[0].dim if flats else 0), field.p
    through: Dict[Vector, List[int]] = defaultdict(list)
    for b, flat in enumerate(flats):
        for x in index.points[flat]:
            through[x].append(b)
    for a, flat in enumerate(flats):
        pts = index.points[flat]
        bits = [1 << i for i in range(len(pts))]
        corners = itertools.combinations(local_coordinates(pts, flat), k)
        spanning: Dict[Tuple[Vector, int], List[Tuple[int, ...]]] = defaultdict(list)
        for vertices, corner in zip(itertools.combinations(bits, k), corners):
            dim, plane = span(corner, p)
            if dim == k - 1:
                spanning[plane].append(vertices)
        spines, by_points = {}, {}
        for plane, heads in spanning.items():
            points = 0
            for vertices in heads:
                points |= sum(vertices)
            spines[plane] = by_points[points] = Spine(points, heads, [])
        shared: Dict[int, int] = defaultdict(int)
        for x, bit in zip(pts, bits):
            for b in through[x]:
                shared[b] |= bit
        for b, mask in shared.items():
            if b != a and mask in by_points:
                by_points[mask].partners.append(b)
        yield spines


class RefinementChainReport(_Value):
    """Exact cardinalities of every stage of the refinement chain.
    `shared_pairs` counts, for each pair of positions a < b in
    `refined.flats`, the kept spanning k-subsets the two flats share (pairs
    sharing none are absent); its pairs, in both orders, are the
    deleted-spine plane pairs."""

    __slots__ = (
        "refined", "ik_prime", "ik", "vk_prime", "vk", "vkp", "d_size", "d_bucket_level",
        "d_threshold", "holder_lower_holds", "cs_lower_holds", "shared_pairs",
    )

    def __init__(
        self, refined: RefinedConfig, ik_prime: int, ik: int, vk_prime: int, vk: int, vkp: int, d_size: int,
        d_bucket_level: int, d_threshold: Optional[Fraction], holder_lower_holds: bool, cs_lower_holds: bool,
        shared_pairs: Dict[Tuple[int, int], int],
    ):
        self.refined, self.ik_prime, self.ik, self.vk_prime = refined, ik_prime, ik, vk_prime
        self.vk, self.vkp, self.d_size, self.d_bucket_level = vk, vkp, d_size, d_bucket_level
        self.d_threshold, self.holder_lower_holds = d_threshold, holder_lower_holds
        self.cs_lower_holds, self.shared_pairs = cs_lower_holds, shared_pairs


def build_refinement_chain(config: Configuration, index: IncidenceIndex) -> RefinementChainReport:
    """Materialize the chain spanning-tuples -> spine-filtered tuples ->
    plane pairs -> extended pairs -> pigeonholed plane-point family, with
    every stage counted exactly: a `ChainTally` over one `common_points`
    walk of the refined flats, which keeps only one flat's state at a time.
    `oracles.build_refinement_chain_bruteforce` is the independent oracle."""
    if index.total == 0:
        raise EmptyRefinementError("refinement chain of an incidence-free configuration")
    tally = ChainTally(config, index, refine_dyadic(config, index))
    for face in common_points(tally.refined.flats, index, config.field):
        tally.add(face)
    return tally.report()


class ChainTally:
    """The refinement chain counted one refined flat at a time: `add` takes
    the next flat's `Face` (`common_points` over `refined.flats`, in order)
    and keeps only running counts, and `report` closes the chain once every
    flat has been added.  A caller that walks the refined family for another
    purpose feeds each face here too, so one walk serves both.

    The counts are of ordered k-tuples, but spines are enumerated unordered:
    a spanning k-tuple has k distinct points, and its k! orders share one
    hull and one set of tallies, so each spanning k-subset of a flat's
    points (a head of one of its face's spines) is counted once and its
    counts, the f(pi_0, x) values included, are scaled by k! (before the
    dyadic bucketing of f).

    A spine is kept when its c points of P, times 10 |Pi~| p, reach |I~|,
    compared as integers; every point of P on a spine lies on the flat, so c
    counts the spine's points.  A kept spine's s heads are all kept and
    shared by every partner on it: each ordered pair adds s to vk,
    s (|P ∩ pi_a| - c) to vkp and s to f(pi_a, x) for every x of the partner
    off pi_a, and f is bucketed one pi_a at a time (`_DyadicLevels`, the
    pigeonhole rule of `refine_dyadic`)."""

    def __init__(self, config: Configuration, index: IncidenceIndex, refined: RefinedConfig):
        self.config, self.index, self.refined = config, index, refined
        # A spine with `count` points is kept when count >= i_tilde / scale.
        self.scale = 10 * refined.num_flats * config.field.p
        self.added = self.spanning = self.kept = self.vk = self.vkp = 0
        self.shared: Dict[Tuple[int, int], int] = {}
        self.f_levels = _DyadicLevels()

    def add(self, face: Face) -> None:
        """Tally the next refined flat, given its face record."""
        flats, i_tilde, scale = self.refined.flats, self.refined.refined_total, self.scale
        a = self.added
        self.added += 1
        pts = self.index.points[flats[a]]
        # f(pi_a, x) = sum of s over the partners through x, for x off pi_a.
        off = frozenset(pts)
        f_values: Dict[Vector, int] = {}
        for spine in face.values():
            s, c = len(spine.heads), spine.points.bit_count()
            self.spanning += s
            if c * scale < i_tilde:
                continue
            self.kept += s
            self.vk += s * len(spine.partners)
            self.vkp += s * (len(pts) - c) * len(spine.partners)
            for b in spine.partners:
                if a < b:
                    self.shared[(a, b)] = s
                for x in self.index.points[flats[b]]:
                    if x not in off:
                        f_values[x] = f_values.get(x, 0) + s
        orders = math.factorial(self.config.k)
        add = self.f_levels.add
        for f in f_values.values():
            add(f * orders)

    def report(self) -> RefinementChainReport:
        """The chain's exact stage counts, once every refined flat is added."""
        config, refined = self.config, self.refined
        if self.added != refined.num_flats:
            raise ValueError(f"chain tally fed {self.added} of {refined.num_flats} refined flats")
        k = config.k
        i_tilde, num_flats = refined.refined_total, refined.num_flats
        orders = math.factorial(k)
        ik = orders * self.kept
        vk = orders * self.vk
        d_level = self.f_levels.heaviest()
        d_size = self.f_levels.size[d_level]
        _, holder_holds = _power_sum(self.index, refined.flats, k)
        # Each kept k-subset on g refined flats adds g^2 = g + g(g-1) orders.
        vk_prime = ik + vk
        return RefinementChainReport(
            refined=refined,
            ik_prime=orders * self.spanning,
            ik=ik,
            vk_prime=vk_prime,
            vk=vk,
            vkp=orders * self.vkp,
            d_size=d_size,
            d_bucket_level=d_level,
            d_threshold=Fraction(vk * i_tilde, num_flats * d_size) if d_size and vk else None,
            holder_lower_holds=holder_holds,
            cs_lower_holds=vk_prime * len(config.points) ** k >= ik**2,
            shared_pairs=self.shared,
        )
