"""The reference layer: the independent oracle of every fast path, the
helpers only oracles read, and `selftest`, the suite behind `kplab selftest`.

An oracle works from the definition, with no incidence index, coset key,
face walk or cached `linalg.span`: a flat's points are found by scanning P
with `in_span` on differences (`_incidences`), hulls by `affine_hull`, and
coset sums by adding up the points of every coset.  The fast modules
(`field`, `linalg`, `flats`, `config`, `exponents`, `incidence`, `simplex`,
`maximal`) import nothing from here; `cli` and the package do.

The oracles still share fast code: `linalg.rref`, and through it
`linalg._eliminate`, and `flats.make_flat`, besides the enumerations
`enumerate_grassmannian` and `enumerate_points`, which `selftest` checks
against the counting formula and the definition; `design_moments` reads
`gaussian_binomial` and `linalg.normalized`, and its closed forms are held
to counted tuples in the tests.  The sharing is no
common-mode fault.  RREF output is what makes flats canonical, so a
mutation of `_eliminate` that skips back-substitution fails 40 tests, the
chain and simplex oracle comparisons and the selftest among them; the
two-ends and maximal comparisons pass under it, as ranks do not need
back-substitution and neither maximal path eliminates.  `make_flat` is
itself compared with `reduce_vector` in the tests, and `tools/mutations.py`
replays these checks.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, defaultdict
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import exponents, incidence, maximal, simplex
from .config import Configuration, gen_degenerate, gen_point_cloud, gen_random_config
from .field import Field
from .flats import (
    AffineFlat,
    CosetKeys,
    CosetMasks,
    LinearSubspace,
    coset_key,
    enumerate_grassmannian,
    enumerate_points,
    gaussian_binomial,
    make_flat,
    unrank_grassmannian,
)
from .incidence import EmptyRefinementError, JrDecomposition, PreconditionError, SizeGuardError
from .linalg import RrefBasis, Vector, _eliminate, normalized, null_space_rows, rref

JR_ORACLE_POINT_GUARD = 64
CHAIN_ORACLE_POINT_GUARD = 64
BRUTE_FORCE_POINT_GUARD = 40


def reduce_vector(v: Vector, basis: RrefBasis, field: Field) -> Vector:
    """Residual of v after eliminating every pivot coordinate of the basis.

    The result has a zero in each pivot column; it is the zero vector iff v
    lies in the span of the basis.
    """
    p = field.p
    out = v
    for row, piv in zip(basis.rows, basis.pivots):
        coeff = out[piv]
        if coeff != 0:
            out = [(x - coeff * y) % p for x, y in zip(out, row)]
    return tuple(out)


def in_span(v: Vector, basis: RrefBasis, field: Field) -> bool:
    return all(x == 0 for x in reduce_vector(v, basis, field))


def solve_affine_system(
    equations: Sequence[Tuple[Vector, int]], n: int, field: Field
) -> Optional[Tuple[Vector, RrefBasis]]:
    """Solve the stacked system {c . x = d} exactly.

    Returns (particular solution with free coordinates set to 0, canonical
    basis of the homogeneous solutions), or None if the system is
    inconsistent. An empty equation list describes all of F^n.
    """
    aug = [list(c) + [d % field.p] for c, d in equations]
    reduced, pivots = _eliminate(aug, field.p)
    if n in pivots:
        return None
    coeff_basis = RrefBasis(
        tuple(tuple(r[:n]) for r in reduced), tuple(pivots)
    )
    particular = [0] * n
    for row, piv in zip(reduced, pivots):
        particular[piv] = row[n]
    return tuple(particular), rref(null_space_rows(coeff_basis, n, field), field)


def affine_hull(points: Sequence[Vector], field: Field) -> Tuple[int, AffineFlat]:
    """Dimension and canonical flat of the affine span of the points."""
    if not points:
        raise ValueError("affine hull of empty point set")
    n = len(points[0])
    if any(len(q) != n for q in points):
        raise ValueError("ambient dimension mismatch")
    base, p = points[0], field.p
    diffs = [tuple([(a - b) % p for a, b in zip(q, base)]) for q in points[1:]]
    direction = LinearSubspace(n, rref(diffs, field))
    return direction.dim, make_flat(direction, base, field)


def enumerate_coset_representatives(direction: LinearSubspace, field: Field) -> Iterator[Vector]:
    """Canonical representatives of all p^(n-k) cosets of the subspace: each
    choice of values in its free (non-pivot) columns, zero at its pivots."""
    free = [j for j in range(direction.ambient) if j not in direction.basis.pivots]
    for values in itertools.product(field.elements(), repeat=len(free)):
        rep = [0] * direction.ambient
        for j, x in zip(free, values):
            rep[j] = x
        yield tuple(rep)


def _point_guard(config: Configuration, limit: int, name: str) -> None:
    """Refuse, before any work, a configuration of more than `limit` points."""
    if len(config.points) > limit:
        raise SizeGuardError(f"{name} limited to {limit} points, got {len(config.points)}")


def _on(x: Vector, flat: AffineFlat, field: Field) -> bool:
    """Whether x lies on the flat: its difference from the representative
    is in the span of the direction."""
    diff = tuple((a - b) % field.p for a, b in zip(x, flat.representative))
    return in_span(diff, flat.direction.basis, field)


def _incidences(config: Configuration) -> Dict[AffineFlat, List[Vector]]:
    """The sorted points of P on each flat, by scanning P with `_on`."""
    points = sorted(config.points)
    return {flat: [x for x in points if _on(x, flat, config.field)] for flat in config.flats}


def jr_decompose_bruteforce(config: Configuration, r: int) -> JrDecomposition:
    """Independent oracle for `incidence.jr_decompose`, straight from the
    definition: every ordered (r+1)-tuple of a flat's points (`_incidences`)
    from `itertools.product` is classified by `affine_hull`."""
    if not 1 <= r <= config.k:
        raise PreconditionError(f"need 1 <= r <= k={config.k}, got r={r}")
    _point_guard(config, JR_ORACLE_POINT_GUARD, "two-ends oracle")
    incident = _incidences(config)
    strata = [0] * (r + 1)
    hull_dim_cache: Dict[Tuple[Vector, ...], int] = {}
    for flat in config.flats:
        for tup in itertools.product(incident[flat], repeat=r + 1):
            key = tuple(sorted(set(tup)))
            dim = hull_dim_cache.get(key)
            if dim is None:
                dim = hull_dim_cache[key] = affine_hull(key, config.field)[0]
            strata[dim] += 1
    return JrDecomposition(r, sum(strata), tuple(strata))


def build_refinement_chain_bruteforce(config: Configuration) -> Dict[str, object]:
    """Independent oracle for the counted stages of
    `incidence.build_refinement_chain`, straight from the definitions: the
    points of a flat or a spine are found by scanning P (`_on`), and
    spanning tuples are ordered `itertools.product` k-tuples.  Returns
    ik_prime, ik, vk_prime, vk, vkp, d_size, d_bucket_level and d_threshold
    by name."""
    _point_guard(config, CHAIN_ORACLE_POINT_GUARD, "chain oracle")
    fld = config.field
    k, p = config.k, fld.p
    points = sorted(config.points)
    incident = _incidences(config)
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
            if sum(_on(x, spine, fld) for x in points) >= spine_threshold:
                ik += 1
                groups[tup].append(flat)
                spines[tup] = spine
    vk_prime = sum(len(g) ** 2 for g in groups.values())
    vk = sum(len(g) * (len(g) - 1) for g in groups.values())

    vkp = 0
    f_values: Dict[Tuple[AffineFlat, Vector], int] = Counter()
    for tup, group in groups.items():
        for pi in group:
            ext_points = [x for x in incident[pi] if not _on(x, spines[tup], fld)]
            vkp += len(ext_points) * (len(group) - 1)
            for x in ext_points:
                for pi0 in group:
                    if pi0 != pi and not _on(x, pi0, fld):
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


def count_simplices_bruteforce(
    config: Configuration, flats: Optional[Tuple[AffineFlat, ...]] = None
) -> int:
    """Independent oracle for `simplex.count_simplices`: iterate all
    (k+2)-subsets of P directly, with no incidence index.  Whether the hull
    of a (k+1)-subset is a k-flat of the family is decided once per subset,
    and a (k+2)-subset's own span is tested only when all k+2 of its facets
    pass."""
    _point_guard(config, BRUTE_FORCE_POINT_GUARD, "brute force")
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


def apply_maximal_bruteforce(f: maximal.GridFunction, n: int, k: int) -> Dict[LinearSubspace, Fraction]:
    """Tiny-instance oracle for `maximal.apply_maximal`, summing over every
    coset's points explicitly."""
    if n != f.n:
        raise ValueError(f"grid function lives on F^{f.n}, not F^{n}")
    fld = f.field
    values = f.as_dict()
    out: Dict[LinearSubspace, Fraction] = {}
    for pi in enumerate_grassmannian(n, k, fld):
        best = Fraction(0)
        for rep in enumerate_coset_representatives(pi, fld):
            total = sum(
                (values.get(pt, Fraction(0)) for pt in enumerate_points(make_flat(pi, rep, fld), fld)),
                Fraction(0),
            )
            best = max(best, total)
        out[pi] = best
    return out


def design_moments(points: Sequence[Vector], n: int, k: int, field: Field, m: int) -> int:
    """The sum over every direction pi of G(n,k) and every coset of pi of
    c^m, c the number of the points on the coset, m = 2 or 3, from closed
    forms that hold at any size.  An ordered m-tuple of the points lies in
    one coset of pi exactly when pi holds the span of its differences, and
    [n-d k-d]_p directions (0 when d > k) hold a given d-subspace, so the
    sum is that count summed over the tuples by the dimension d of their
    affine span:
    m = 2: [n k] |E| + [n-1 k-1] |E|(|E|-1);
    m = 3: [n k] |E| + [n-1 k-1] (3|E|(|E|-1) + L) + [n-2 k-2] (|E|(|E|-1)(|E|-2) - L),
    with L the ordered triples of distinct collinear points: for each point
    x, the other points y grouped by the direction of y - x, normalized
    (`linalg.normalized`), a line through x with g of them giving g(g-1)."""
    if m not in (2, 3):
        raise ValueError(f"design moments are written down for m = 2 and 3, got m = {m}")
    p, on = field.p, set(points)
    size = len(on)

    def holding(d: int) -> int:
        return gaussian_binomial(n - d, k - d, p) if d <= k else 0

    if m == 2:
        return holding(0) * size + holding(1) * size * (size - 1)
    collinear = 0
    for x in on:
        lines = Counter(normalized([b - a for a, b in zip(x, y)], p) for y in on if y != x)
        collinear += sum(g * (g - 1) for g in lines.values())
    pairs = size * (size - 1)
    return holding(0) * size + holding(1) * (3 * pairs + collinear) + holding(2) * (pairs * (size - 2) - collinear)


def selftest() -> int:
    """Compare the fast paths with the oracles on small seeded inputs, one
    PASS or FAIL line each; 3 if any line fails, else 0."""
    failures = 0

    def check(name: str, test: Callable[[], bool]):
        # A fast path's internal assertion is a FAIL, and later lines still run.
        nonlocal failures
        try:
            ok = test()
        except AssertionError:
            ok = False
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1

    def simplices_agree(cfg, index) -> bool:
        return simplex.count_simplices(cfg, index) == count_simplices_bruteforce(cfg)

    for n, k, p in ((3, 1, 2), (4, 2, 3), (2, 1, 5)):
        enumerated = sum(1 for _ in enumerate_grassmannian(n, k, Field(p)))
        check(f"grassmann census ({n},{k},{p})", lambda: enumerated == gaussian_binomial(n, k, p))
    check("exponent identities k<=12", lambda: all(exponents.verify_identity_main(k) for k in range(2, 13)))
    for seed in range(5):
        cfg = gen_random_config(3, 1, 4, Fraction(1, 3), Field(3), seed)
        index = incidence.incidence_count(cfg)
        check(f"simplex oracle seed {seed}", lambda: simplices_agree(cfg, index))
    # In F_3^4 (all 130 planes, at most 26 points) most pairs of planes meet
    # in a single point, so the counters skip partners sharing fewer than k
    # points, which never happens in F_3^3.
    for n, num_directions, density in ((3, 8, Fraction(1, 2)), (4, 130, Fraction(1, 3))):
        for seed in range(3):
            cfg = gen_random_config(n, 2, num_directions, density, Field(3), seed)
            index = incidence.incidence_count(cfg)
            check(
                f"refinement chain oracle ({n},2,3) seed {seed}",
                lambda: all(
                    getattr(incidence.build_refinement_chain(cfg, index), name) == value
                    for name, value in build_refinement_chain_bruteforce(cfg).items()
                ),
            )
            check(f"simplex oracle ({n},2,3) seed {seed}", lambda: simplices_agree(cfg, index))
    # All 16 points of F_2^4 and one 3-flat of each of the 15 directions of
    # G(4,3): the first k = 3 simplex counts.  Over GF(2) any three distinct
    # points span; in F_3^4 (40 3-flats, 20-26 points) three points on a
    # line do not, so those lines reach k-subsets `common_points` drops.
    for p, num_directions, density in ((2, 15, Fraction(1)), (3, 40, Fraction(1, 3))):
        for seed in range(3):
            cfg = gen_random_config(4, 3, num_directions, density, Field(p), seed)
            index = incidence.incidence_count(cfg)
            check(f"simplex oracle (4,3,{p}) seed {seed}", lambda: simplices_agree(cfg, index))
    # The first k = 4 count: 18 points of F_2^5 on 20 4-flats, one simplex.
    cfg = gen_random_config(5, 4, 20, Fraction(3, 4), Field(2), 2)
    index = incidence.incidence_count(cfg)
    check("simplex oracle (5,4,2) seed 2", lambda: simplices_agree(cfg, index))
    # Over GF(2) any three distinct points span; over GF(3) three points of
    # a plane can lie on a line, so the (4,2,3) lines reach every stratum.
    for label, n, k, p, num_directions, rs in (("", 5, 3, 2, 8, (1, 2, 3)), (" (4,2,3)", 4, 2, 3, 40, (2,))):
        for seed in range(3):
            cfg = gen_random_config(n, k, num_directions, Fraction(1, 2), Field(p), seed)
            index = incidence.incidence_count(cfg)
            check(
                f"two-ends oracle{label} seed {seed}",
                lambda: all(incidence.jr_decompose(cfg, r, index) == jr_decompose_bruteforce(cfg, r) for r in rs),
            )
    # Three seeded flats of each dimension 0..4 in F_7^4, each point the
    # representative plus sum c_i row_i over `itertools.product` coefficients.
    fld, rng, same = Field(7), random.Random(0), True
    for dim in range(5):
        for _ in range(3):
            direction = unrank_grassmannian(4, dim, fld, rng.randrange(gaussian_binomial(4, dim, 7)))
            flat = make_flat(direction, tuple(rng.randrange(7) for _ in range(4)), fld)
            rows = direction.basis.rows
            expected = [
                tuple(
                    (x + sum(c * row[j] for c, row in zip(coeffs, rows))) % 7
                    for j, x in enumerate(flat.representative)
                )
                for coeffs in itertools.product(range(7), repeat=dim)
            ]
            same = same and list(enumerate_points(flat, fld)) == expected
    check("flat points by definition (4,2,7)", lambda: same)
    cfg = gen_degenerate(4, 2, 1, Field(3))
    index = incidence.incidence_count(cfg)
    check("degenerate worst case (4,2,1,3)", lambda: index.total == 39 == len(cfg.points) * len(cfg.flats))
    fld = Field(3)
    kernel = CosetKeys(gen_point_cloud(4, fld, Fraction(1, 3), 0), fld)
    check(
        "coset keys oracle G(4,2) p=3",
        lambda: all(
            kernel.keys(pi) == [coset_key(x, pi, fld) for x in kernel.points]
            for pi in enumerate_grassmannian(4, 2, fld)
        ),
    )
    # Both coset kernels on a point cloud of F_5^3 under planes, against the
    # closed forms of sum c^2 and sum c^3 over every coset of every plane.
    fld = Field(5)
    cloud = gen_point_cloud(3, fld, Fraction(1, 3), 0)

    def moments(counts_of) -> List[int]:
        counts = [c for pi in enumerate_grassmannian(3, 2, fld) for c in counts_of(pi)]
        return [sum(c**m for c in counts) for m in (2, 3)]

    keys, masks = CosetKeys(cloud, fld), CosetMasks(cloud, fld)
    check(
        "design moments G(3,2) p=5",
        lambda: moments(lambda pi: Counter(keys.keys(pi)).values())
        == moments(lambda pi: [mask.bit_count() for mask in masks.masks(pi)])
        == [design_moments(cloud, 3, 2, fld, m) for m in (2, 3)],
    )
    # The default witnesses, one function of mixed denominators and one
    # constant 3/2 on a point cloud, over lines (two annihilator rows) and
    # planes (one row, the path of the maximal-ratio benchmark).
    family = list(maximal.default_candidates(3, 1, fld, 0).values())
    cloud = sorted(gen_point_cloud(3, fld, Fraction(1, 2), 1))
    weights = {x: Fraction(1 + i % 3, 1 + i % 4) for i, x in enumerate(cloud)}
    family.append(maximal.GridFunction.from_dict(fld, 3, weights))
    family.append(maximal.GridFunction.from_dict(fld, 3, dict.fromkeys(cloud, Fraction(3, 2))))
    for k in (1, 2):
        check(
            f"maximal family oracle (3,{k},3)",
            lambda: maximal.apply_maximal_many(family, 3, k) == [apply_maximal_bruteforce(f, 3, k) for f in family],
        )
    # The images the witness search reads in closed form, with no walk,
    # against the per-coset sums of the witnesses themselves.
    fld = Field(3)
    witnesses = maximal.default_candidates(3, 1, fld, 0)
    check(
        "maximal closed forms (3,1,3)",
        lambda: all(
            len(witnesses[name].classes[0][1]) == support
            and list(apply_maximal_bruteforce(witnesses[name], 3, 1).values()) == list(column)
            for name, (support, column) in maximal.closed_form_images(3, 1, fld).items()
        ),
    )
    return 3 if failures else 0
