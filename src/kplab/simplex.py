"""Exact counting of (k+1)-simplices, (k,l)-chains and the deleted-spine
plane pairs, plus the evaluation of the simplex upper/lower bound
expressions.  A brute-force simplex counter is kept permanently as the
oracle for the fast path.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Optional, Set, Tuple

from .config import Configuration
from .flats import (
    AffineFlat,
    affine_hull,
    difference_basis,
    intersect_flats,
    local_coordinates,
    make_flat,
    membership,
    span_of,
)
from .incidence import (
    IncidenceIndex,
    RefinementChainReport,
    SizeGuardError,
    build_refinement_chain,
)
from .linalg import Vector
from .reports import CountReport

BRUTE_FORCE_POINT_GUARD = 40
CHAIN_POINT_GUARD = 20


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
    spans the face exactly when its k differences, in the face's local
    coordinates (`local_coordinates`), have rank k; no hull is built.  For
    every such base the apexes completing a simplex are read off the index:
    omitting base vertex i leaves k points, and the apexes are the points off
    the face lying, for every i, on a family flat through those k points.
    Such a flat is the facet itself (the apex and the k points span a k-flat
    inside it), so no facet hull is computed.  Every simplex is discovered
    once per face, so the tally divides by k+2 exactly.
    `count_simplices_bruteforce` is the independent oracle.
    """
    fld = config.field
    k = config.k
    family = set(flats if flats is not None else config.flats)
    if not family.issubset(config.flats):
        raise ValueError("simplex family holds flats outside config.flats")
    if not family or len(config.points) < k + 2:
        return 0
    on_point = {pt: family.intersection(fl) for pt, fl in index.per_point.items()}
    # Points of P on the family flats through a k-subset of a base; the
    # face's own points are removed per face.
    around_cache: Dict[Tuple[Vector, ...], Set[Vector]] = {}

    def around(rest: Tuple[Vector, ...]) -> Set[Vector]:
        cached = around_cache.get(rest)
        if cached is None:
            through = family.intersection(*(on_point[q] for q in rest))
            cached = set().union(*(index.points[f] for f in through))
            around_cache[rest] = cached
        return cached

    face_incidences = 0
    for face, pts in index.points.items():
        if face not in family:
            continue
        local = local_coordinates(pts, face)
        for base in itertools.combinations(pts, k + 1):
            if difference_basis([local[q] for q in base], fld).rank != k:
                continue
            apexes = around(base[1:]).difference(pts)
            for omit in range(1, k + 1):
                if not apexes:
                    break
                apexes &= around(base[:omit] + base[omit + 1 :])
            face_incidences += len(apexes)
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


def count_chains(config: Configuration, l: int) -> int:
    """Number of (k,l)-chains, ordered in both the point tuple and the flat
    tuple: (k+2) points spanning dimension k+1 and l flats whose every
    m-fold intersection has dimension k-m+1 and is affinely spanned by the
    chain points lying on it."""
    k = config.k
    if not 2 <= l <= k + 1:
        raise ValueError(f"need 2 <= l <= k+1={k + 1}, got l={l}")
    if len(config.points) > CHAIN_POINT_GUARD:
        raise SizeGuardError(
            f"chain counting limited to {CHAIN_POINT_GUARD} points, "
            f"got {len(config.points)}"
        )
    fld = config.field
    # Unordered flat subsets whose intersection lattice has the right
    # dimensions; the point/flat conditions are ordering-invariant, so the
    # ordered count is the unordered count times (k+2)! * l!.
    valid_pairs = 0
    spanning_sets = [
        vertices
        for vertices in itertools.combinations(sorted(config.points), k + 2)
        if affine_hull(vertices, fld)[0] == k + 1
    ]
    if not spanning_sets:
        return 0
    for flat_set in itertools.combinations(config.flats, l):
        intersections: Dict[Tuple[int, ...], Optional[AffineFlat]] = {}
        lattice_ok = True
        for m in range(2, l + 1):
            for subset in itertools.combinations(range(l), m):
                inter = intersect_flats([flat_set[i] for i in subset], fld)
                if inter is None or inter.dim != k - m + 1:
                    lattice_ok = False
                    break
                intersections[subset] = inter
            if not lattice_ok:
                break
        if not lattice_ok:
            continue
        for vertices in spanning_sets:
            if _chain_conditions(vertices, flat_set, intersections, k, l, fld):
                valid_pairs += 1
    return valid_pairs * math.factorial(k + 2) * math.factorial(l)


def _chain_conditions(vertices, flat_set, intersections, k, l, fld) -> bool:
    # m = 1: each flat must be spanned by k+1 of the chain points.
    for flat in flat_set:
        on = tuple(v for v in vertices if membership(v, flat, fld))
        if len(on) < k + 1 or affine_hull(on, fld) != (k, flat):
            return False
    for subset, inter in intersections.items():
        m = len(subset)
        on = tuple(v for v in vertices if membership(v, inter, fld))
        if len(on) < k - m + 2 or affine_hull(on, fld) != (k - m + 1, inter):
            return False
    return True


def v_k_del(chain: RefinementChainReport) -> int:
    """Number of distinct ordered plane pairs admitting a shared spanning
    spine tuple."""
    return len(_deleted_pairs(chain))


def _deleted_pairs(chain: RefinementChainReport) -> Set[Tuple[AffineFlat, AffineFlat]]:
    pairs: Set[Tuple[AffineFlat, AffineFlat]] = set()
    for group in chain.spine_groups.values():
        for a, b in itertools.permutations(group, 2):
            pairs.add((a, b))
    return pairs


def lambda_flat_counts(config: Configuration, chain: RefinementChainReport) -> Tuple[int, ...]:
    """For each deleted-spine plane pair, the number of family flats lying
    inside the (k+1)-dimensional span of the pair."""
    fld = config.field
    p = fld.p
    # Many pairs share one span (for n = k+1 every pair spans F^n), so the
    # count is kept per canonical span flat.
    inside_by_span: Dict[AffineFlat, int] = {}
    counts = []
    for pi0, pi in sorted(
        _deleted_pairs(chain),
        key=lambda pr: (pr[0].representative, pr[0].direction.basis.rows,
                        pr[1].representative, pr[1].direction.basis.rows),
    ):
        diff = tuple((a - b) % p for a, b in zip(pi.representative, pi0.representative))
        rows = pi0.direction.basis.rows + pi.direction.basis.rows + (diff,)
        span = span_of(rows, config.n, fld)
        span_flat = make_flat(span, pi0.representative, fld)
        inside = inside_by_span.get(span_flat)
        if inside is None:
            inside = sum(
                membership(flat.representative, span_flat, fld)
                and span.contains_subspace(flat.direction, fld)
                for flat in chain.refined.flats
            )
            inside_by_span[span_flat] = inside
        counts.append(inside)
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
