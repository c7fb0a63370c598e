"""Exact counting of (k+1)-simplices and the deleted-spine plane pairs,
plus the evaluation of the simplex upper/lower bound expressions.  A
brute-force simplex counter is kept permanently as the oracle for the fast
path.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from operator import mul
from typing import Dict, Optional, Tuple

from .config import Configuration
from .flats import AffineFlat, affine_hull, flats_through, local_coordinates, through_key
from .incidence import (
    IncidenceIndex,
    RefinementChainReport,
    SizeGuardError,
    build_refinement_chain,
    common_points,
)
from .linalg import Vector, hyperplane
from .reports import CountReport

BRUTE_FORCE_POINT_GUARD = 40


def count_simplices(
    config: Configuration,
    index: IncidenceIndex,
    flats: Optional[Tuple[AffineFlat, ...]] = None,
) -> int:
    """Unordered count of (k+2)-point sets spanning dimension k+1 whose k+2
    facet hulls all belong to the flat family.

    The family must be a subset of `config.flats` (the default is all of
    them): faces and their points come from `index`, the incidence index of
    the configuration, so a family flat outside it raises ValueError.

    Fast path: pivot on each flat as a face.  A (k+1)-subset of its points
    spans the face exactly when the k x k determinant of its k differences
    from the first point, in the face's local coordinates
    (`local_coordinates`), is nonzero mod p (ad - bc for k = 2).  It is read
    as l . d, with l the normal of the first k-1 differences and d the last:
    the base spans when its last point is off the hyperplane of its first k
    (`linalg.hyperplane`, shared by every base with that head).  For every
    such base, omitting base vertex i leaves k spanning points, and the
    apexes completing a simplex are the points off the face lying, for
    every i, on a family flat through those k points.  Such a flat is the
    facet itself (the apex and the k points span a k-flat inside it), so no
    facet hull is computed.  The family flats holding k spanning points of
    the face are the partners on its spines (`common_points`), so each face
    maps every k-subset of a spine's points to the pooled points of its
    partners, a table kept for that face only; a head found in no such
    table has no apex.  Every simplex is discovered once per face, so the
    tally divides by k+2 exactly.
    `count_simplices_bruteforce` is the independent oracle.
    """
    p = config.field.p
    k = config.k
    family = tuple(dict.fromkeys(flats if flats is not None else config.flats))
    if not set(family).issubset(config.flats):
        raise ValueError("simplex family holds flats outside config.flats")
    if not family or len(config.points) < k + 2:
        return 0

    face_incidences = 0
    for face, groups in zip(family, common_points(family, index)):
        around = {}
        for common, partners in groups.items():
            partner_points = set().union(*(index.points[family[b]] for b in partners))
            for rest in itertools.combinations(common, k):
                around[rest] = partner_points
        if not around:
            continue
        pts = index.points[face]
        local = list(local_coordinates(pts, face).values())
        heads = zip(
            itertools.combinations(range(len(pts)), k),
            itertools.combinations(pts, k),
            itertools.combinations(local, k),
        )
        for head, head_pts, corners in heads:
            # The k-subset omitting the base's last vertex is the head itself.
            shared = around.get(head_pts)
            if shared is None:
                continue
            plane = hyperplane(corners, p)
            if plane is None:
                continue
            normal, level = plane
            for last in range(head[-1] + 1, len(pts)):
                if sum(map(mul, normal, local[last])) % p == level:
                    continue
                apexes = shared
                for omit in range(k):
                    apexes = apexes.intersection(
                        around.get(head_pts[:omit] + head_pts[omit + 1 :] + (pts[last],), ())
                    )
                    if not apexes:
                        break
                else:
                    face_incidences += len(apexes.difference(pts))
    assert face_incidences % (k + 2) == 0
    return face_incidences // (k + 2)


def count_simplices_bruteforce(
    config: Configuration, flats: Optional[Tuple[AffineFlat, ...]] = None
) -> int:
    """Independent oracle: iterate all (k+2)-subsets of P directly, with no
    incidence index.  Whether the hull of a (k+1)-subset is a k-flat of the
    family is decided once per subset, and a (k+2)-subset's own span is
    tested only when all k+2 of its facets pass."""
    if len(config.points) > BRUTE_FORCE_POINT_GUARD:
        raise SizeGuardError(
            f"brute force limited to {BRUTE_FORCE_POINT_GUARD} points, "
            f"got {len(config.points)}"
        )
    fld = config.field
    k = config.k
    family = set(flats if flats is not None else config.flats)
    if not family:
        return 0
    facet_ok: Dict[Tuple[Vector, ...], bool] = {}

    def is_facet(vertices: Tuple[Vector, ...]) -> bool:
        ok = facet_ok.get(vertices)
        if ok is None:
            dim, hull = affine_hull(vertices, fld)
            ok = facet_ok[vertices] = dim == k and hull in family
        return ok

    count = 0
    for vertices in itertools.combinations(sorted(config.points), k + 2):
        if all(is_facet(vertices[:i] + vertices[i + 1 :]) for i in range(k + 2)):
            count += affine_hull(vertices, fld)[0] == k + 1
    return count


def v_k_del(chain: RefinementChainReport) -> int:
    """Number of distinct ordered plane pairs admitting a shared spanning
    spine tuple."""
    return 2 * len(chain.shared_pairs)


def lambda_flat_counts(config: Configuration, chain: RefinementChainReport) -> Tuple[int, ...]:
    """For each deleted-spine plane pair (pi_0, pi), once per unordered pair
    in the order of `chain.shared_pairs` (the span is symmetric), the number
    of refined flats lying inside the (k+1)-dimensional span of the pair.

    The pair shares a spine, so its span is the (k+1)-flat through pi_0
    extended by any row of pi's direction off pi_0's (`through_key`).  Each
    refined flat lies in (p^(n-k)-1)/(p-1) such flats (`flats_through`);
    they are built once per refined flat and counted, so a (k+1)-flat's
    count is the number of refined flats it was built from, read per pair
    from that table."""
    fld = config.field
    flats = chain.refined.flats
    through = [flats_through(flat, fld) for flat in flats]
    inside: Dict[AffineFlat, int] = Counter(span for spans in through for span in spans.values())
    counts = []
    for a, b in chain.shared_pairs:
        key = next(
            u for u in (through_key(flats[a], row, fld) for row in flats[b].direction.basis.rows) if u
        )
        counts.append(inside[through[a][key]])
    return tuple(counts)


def simplex_bound_report(config: Configuration, index: IncidenceIndex) -> CountReport:
    """Exact |S_k|, |V_k|, |I~|, |Pi~| and the three bound expressions: the
    deleted-spine upper bound, the inductive lower bound and the
    independence heuristic.  Ratios are reported, never asserted."""
    k, p = config.k, config.field.p
    report = CountReport()
    if not config.direction_separated:
        raise ValueError("configuration is not direction separated")
    num_points = len(config.points)
    num_flats = len(config.flats)
    report.counts.update(
        {"num_points": num_points, "num_flats": num_flats, "incidences": index.total}
    )
    if index.total == 0:
        report.ratios.update({"upper": None, "lower": None, "heuristic": None})
        return report
    chain = build_refinement_chain(config, index)
    refined = chain.refined
    simplices = count_simplices(config, index, refined.flats)
    ordered = simplices * math.factorial(k + 2)
    deleted = v_k_del(chain)
    i_tilde, m_flats = refined.refined_total, refined.num_flats
    report.counts.update(
        {
            "simplices": simplices,
            "simplices_ordered": ordered,
            "vk": chain.vk,
            "vk_del": deleted,
            "refined_incidences": i_tilde,
            "refined_flats": m_flats,
        }
    )
    upper = (
        Fraction(chain.vk)
        * Fraction(m_flats * p, i_tilde) ** k
        * Fraction(p) ** (k * k)
    )
    report.ratios["upper"] = float(Fraction(simplices) / upper) if upper else None
    report.verdicts["spine_deletion_lower"] = (
        Fraction(chain.vk) >= Fraction(i_tilde, 10 * m_flats * p) ** k * deleted
    )
    if chain.vk > 0 and simplices > 0:
        lower = (
            Fraction(chain.vk) ** (k + 1)
            * Fraction(m_flats) ** (k * k - 2 * k - 2)
            / (Fraction(num_points) ** k * Fraction(i_tilde) ** (k * k - k - 2))
        )
        report.ratios["lower"] = float(Fraction(simplices) / lower) if lower else None
    else:
        report.ratios["lower"] = None
    if simplices > 0:
        heuristic = (
            Fraction(num_points) ** (k + 2)
            * Fraction(num_flats) ** (k + 2)
            * Fraction(index.total, num_points * num_flats) ** ((k + 1) * (k + 2))
        )
        report.ratios["heuristic"] = (
            float(Fraction(simplices) / heuristic) if heuristic else None
        )
    else:
        report.ratios["heuristic"] = None
    lam = lambda_flat_counts(config, chain)
    report.notes["lambda_max_flats"] = max(lam, default=0)
    return report
