"""Exact counting of (k+1)-simplices and the deleted-spine plane pairs,
plus the evaluation of the simplex upper/lower bound expressions.  The
brute-force counter `oracles.count_simplices_bruteforce` is the oracle for
the fast path.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Dict, Iterable, Optional, Tuple

from .config import Configuration
from .flats import AffineFlat, flats_through
from .incidence import (
    ChainTally,
    Face,
    IncidenceIndex,
    RefinementChainReport,
    _refined_row,
    common_points,
)
from .linalg import Vector

def count_simplices(
    config: Configuration,
    index: IncidenceIndex,
    flats: Optional[Tuple[AffineFlat, ...]] = None,
    faces: Optional[Iterable[Face]] = None,
) -> int:
    """Unordered count of (k+2)-point sets spanning dimension k+1 whose k+2
    facet hulls all belong to the flat family.

    The family must be a subset of `config.flats` (the default is all of
    them): faces and their points come from `index`, the incidence index of
    the configuration, so a family flat outside it raises ValueError.
    `faces` is the family's face records, one per flat in family order, as
    `common_points(family, index, config.field)` yields them (the default);
    a caller that walks the family for another purpose passes its walk
    here, and this function reads one record per family flat.

    Fast path: pivot on each flat as a face.  A base is k+1 of its points
    spanning it: the first k, the head, span a hyperplane of the face, a
    spine, and the last point lies off it.  Omitting base vertex i leaves k
    spanning points, and the apexes completing a simplex are the points off
    the face lying, for every i, on a family flat through those k points:
    the facet itself, so no facet hull is computed.  Those flats are the
    partners on the face's spines (its `Face`), so each face maps every
    head of a spine with partners to the pool of their points off the face,
    a table kept for that face only.  Only its keys can be heads, and a
    base's last vertex, its highest in the face's point order, completes
    every (k-1)-subset of the head to a key: each (k-1)-subset keeps the
    mask of the face points that complete it so, and a head's candidates
    are the `&` of its k masks less its spine's points, the face's points on
    the head's hyperplane.  Pools are bitmasks, one bit per point on the
    family's flats: a pool is the `|` of its partners' masks less the
    face's, the apexes of a base are the `&` of its k+1 pools, and
    `int.bit_count` counts them.  Every simplex is discovered once per face,
    so the tally divides by k+2 exactly.
    `oracles.count_simplices_bruteforce` is the independent oracle.
    """
    k = config.k
    family = tuple(dict.fromkeys(flats if flats is not None else config.flats))
    if not set(family).issubset(config.flats):
        raise ValueError("simplex family holds flats outside config.flats")
    if faces is None:
        faces = common_points(family, index, config.field)

    bits: Dict[Vector, int] = {}
    masks = []
    for flat in family:
        mask = 0
        for x in index.points[flat]:
            bit = bits.get(x)
            if bit is None:
                bit = bits[x] = 1 << len(bits)
            mask |= bit
        masks.append(mask)

    face_incidences = 0
    for face_mask, face in zip(masks, faces):
        # A spanning k-subset of the face's points, as face bits, to its pool.
        around: Dict[int, int] = {}
        heads = []
        for spine in face.values():
            pool = 0
            for b in spine.partners:
                pool |= masks[b]
            pool &= ~face_mask
            if pool:
                for vertices in spine.heads:
                    head = sum(vertices)
                    around[head] = pool
                    heads.append((head, vertices, pool, spine.points))
        # The last vertices completing a (k-1)-subset to a key of `around`.
        completing: Dict[int, int] = defaultdict(int)
        for key in around:
            last = 1 << (key.bit_length() - 1)
            completing[key ^ last] |= last
        for head, vertices, pool, points in heads:
            # The base's last vertex lies above its head, completes each
            # (k-1)-subset of the head, and lies off the head's spine.
            lasts = -(vertices[-1] << 1) & ~points
            for vertex in vertices:
                lasts &= completing.get(head ^ vertex, 0)
            while lasts:
                last = lasts & -lasts
                lasts ^= last
                apexes = pool
                for vertex in vertices:
                    apexes &= around[head ^ vertex | last]
                face_incidences += apexes.bit_count()
    assert face_incidences % (k + 2) == 0
    return face_incidences // (k + 2)


def v_k_del(chain: RefinementChainReport) -> int:
    """Number of distinct ordered plane pairs admitting a shared spanning
    spine tuple."""
    return 2 * len(chain.shared_pairs)


def lambda_flat_counts(config: Configuration, chain: RefinementChainReport) -> Tuple[int, ...]:
    """For each deleted-spine plane pair (pi_0, pi), once per unordered pair
    in the order of `chain.shared_pairs` (the span is symmetric), the number
    of refined flats lying inside the (k+1)-dimensional span of the pair.

    Each refined flat lies in (p^(n-k)-1)/(p-1) flats of dimension k+1
    (`flats_through`); they are built once per refined flat, numbered in
    order of first sight, and counted, so a (k+1)-flat's count is the
    number of refined flats it was built from.  The pair shares a spine, so
    its span is the one (k+1)-flat through both: the one number their two
    sets hold in common."""
    fld = config.field
    numbers: Dict[AffineFlat, int] = {}
    through = [
        {numbers.setdefault(span, len(numbers)) for span in flats_through(flat, fld).values()}
        for flat in chain.refined.flats
    ]
    inside = Counter(number for spans in through for number in spans)
    counts = []
    for a, b in chain.shared_pairs:
        (span,) = through[a] & through[b]
        counts.append(inside[span])
    return tuple(counts)


def _ratio(simplices: int, bound: Fraction) -> Optional[float]:
    """|S_k| against a bound expression; None where the bound is 0."""
    return float(Fraction(simplices) / bound) if bound else None


def simplex_bound_report(config: Configuration, index: IncidenceIndex) -> Dict[str, object]:
    """The simplex-bounds row: exact |S_k|, |V_k|, |I~|, |Pi~| and the three
    bound expressions, the deleted-spine upper bound, the inductive lower
    bound and the independence heuristic, then the spine-deletion verdict
    and the largest λ.  Ratios are reported, never asserted.  The refusal,
    the row head and the refinement are `incidence._refined_row`'s, as for
    `check_main_bound`.

    The refined family is walked once (`common_points`): each flat's face
    record goes to the refinement chain's tally (`ChainTally`) and then to
    `count_simplices`, so only one flat's record is held at a time."""
    k, p = config.k, config.field.p
    row, refined = _refined_row(config, index)
    if refined is None:
        return {**row, "ratio_upper": None, "ratio_lower": None, "ratio_heuristic": None}
    num_points, num_flats = len(config.points), len(config.flats)
    tally = ChainTally(config, index, refined)

    def faces():
        for face in common_points(refined.flats, index, config.field):
            tally.add(face)
            yield face

    simplices = count_simplices(config, index, refined.flats, faces())
    chain = tally.report()
    deleted = v_k_del(chain)
    i_tilde, m_flats = refined.refined_total, refined.num_flats
    upper = (
        Fraction(chain.vk)
        * Fraction(m_flats * p, i_tilde) ** k
        * Fraction(p) ** (k * k)
    )
    lower = heuristic = Fraction(0)
    if chain.vk > 0 and simplices > 0:
        lower = (
            Fraction(chain.vk) ** (k + 1)
            * Fraction(m_flats) ** (k * k - 2 * k - 2)
            / (Fraction(num_points) ** k * Fraction(i_tilde) ** (k * k - k - 2))
        )
    if simplices > 0:
        heuristic = (
            Fraction(num_points) ** (k + 2)
            * Fraction(num_flats) ** (k + 2)
            * Fraction(index.total, num_points * num_flats) ** ((k + 1) * (k + 2))
        )
    return {
        **row,
        "simplices": simplices,
        "simplices_ordered": simplices * math.factorial(k + 2),
        "vk": chain.vk,
        "vk_del": deleted,
        "refined_incidences": i_tilde,
        "refined_flats": m_flats,
        "ratio_upper": _ratio(simplices, upper),
        "ratio_lower": _ratio(simplices, lower),
        "ratio_heuristic": _ratio(simplices, heuristic),
        "verdict_spine_deletion_lower": Fraction(chain.vk) >= Fraction(i_tilde, 10 * m_flats * p) ** k * deleted,
        "lambda_max_flats": max(lambda_flat_counts(config, chain), default=0),
    }
