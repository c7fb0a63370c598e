import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest

import kplab.incidence
from conftest import planted_simplex_config, random_corpus
from kplab.config import Configuration, gen_degenerate, gen_random_config
from kplab.exponents import PowerProduct
from kplab.field import Field
from kplab.flats import (
    enumerate_grassmannian,
    enumerate_points,
    gaussian_binomial,
    local_coordinates,
    make_flat,
    membership,
    span_of,
)
from kplab.incidence import (
    EmptyRefinementError,
    PreconditionError,
    SizeGuardError,
    build_refinement_chain,
    check_main_bound,
    check_max_ic,
    common_points,
    cs_holder_count,
    incidence_count,
    jr_decompose,
    refine_dyadic,
)
from kplab.linalg import span
from kplab.oracles import (
    affine_hull,
    build_refinement_chain_bruteforce,
    enumerate_coset_representatives,
    jr_decompose_bruteforce,
)


def single_flat_config(fld, n, k, with_points=True):
    basis = [tuple(1 if j == i else 0 for j in range(n)) for i in range(k)]
    flat = make_flat(span_of(basis, n, fld), tuple([0] * n), fld)
    points = frozenset(enumerate_points(flat, fld)) if with_points else frozenset()
    return Configuration(fld, n, k, points, (flat,))


class TestIncidenceCount:
    def test_full_flat(self, f3):
        cfg = single_flat_config(f3, 3, 2)
        assert incidence_count(cfg).total == 9

    def test_degenerate_pinned(self, f3):
        assert incidence_count(gen_degenerate(4, 2, 1, f3)).total == 39

    def test_empty_points(self, f3):
        cfg = single_flat_config(f3, 3, 2, with_points=False)
        index = incidence_count(cfg)
        assert index.total == 0
        assert index.per_flat[cfg.flats[0]] == 0

    def test_marginals_agree(self):
        # Every flat's stored points are a sorted membership scan of P.
        # (4,2,3) at density 1/2 gives |P| >= p^k (enumerate side), at 1/16
        # |P| < p^k (probe side).  (4,2,7) is the two-ends bench size, 200
        # planes of F_7^4 at density 1/16: about 150 points against 49 a
        # plane (enumerate side).  (3,3,3) has k = n: its one flat is F^3,
        # every column a pivot column, and at density 1 |P| = p^k (enumerate
        # side).
        cases = [
            (4, 2, 3, None, Fraction(1, 2), 10),
            (4, 2, 3, None, Fraction(1, 16), 10),
            (4, 2, 7, 200, Fraction(1, 16), 3),
            (3, 3, 3, None, Fraction(1), 3),
        ]
        sides = set()
        for n, k, p, num_directions, density, count in cases:
            fld = Field(p)
            for _, cfg in random_corpus(n, k, p, count, num_directions=num_directions, density=density):
                index = incidence_count(cfg)
                sides.add((n, k, p, len(cfg.points) >= p**k))
                assert index.total == sum(index.per_flat.values())
                degrees = Counter(x for pts in index.points.values() for x in pts)
                assert index.total == sum(degrees.values())
                for flat in cfg.flats:
                    on = tuple(sorted(pt for pt in cfg.points if membership(pt, flat, fld)))
                    assert index.points[flat] == on
                    assert index.per_flat[flat] == len(on)
        assert sides == {(4, 2, 3, True), (4, 2, 3, False), (4, 2, 7, True), (3, 3, 3, True)}


    @pytest.mark.parametrize("n,k,p", [(3, 2, 5), (4, 2, 3), (3, 1, 7)])
    def test_all_of_ag_holds_each_point_gaussian_binomial_times(self, n, k, p):
        # Every point lies on [n k]_p flats of AG(n,k), one coset of each
        # direction, so the flats of all of AG(n,k) hold sum |P ∩ flat| =
        # [n k]_p |P| incidences: on the probe side (|P| < p^k) and on the
        # enumerate side (|P| >= p^k) alike.
        fld = Field(p)
        flats = tuple(
            make_flat(pi, rep, fld)
            for pi in enumerate_grassmannian(n, k, fld)
            for rep in enumerate_coset_representatives(pi, fld)
        )
        space = list(itertools.product(range(p), repeat=n))
        rng = random.Random(n * 100 + k * 10 + p)
        for size in (p**k - 1, p**k, len(space) // 2):
            points = frozenset(rng.sample(space, size))
            index = incidence_count(Configuration(fld, n, k, points, flats))
            assert index.total == gaussian_binomial(n, k, p) * len(points)

class TestCsHolder:
    def test_m1_is_incidence_count(self, f3):
        cfg = gen_degenerate(4, 2, 1, f3)
        index = incidence_count(cfg)
        assert cs_holder_count(cfg, 1, index) == index.total

    def test_single_flat_equality(self, f3):
        cfg = single_flat_config(f3, 3, 1)
        index = incidence_count(cfg)
        assert cs_holder_count(cfg, 2, index) == index.total**2

    def test_degenerate_tight(self, f3):
        # Uniform per-flat counts make Cauchy-Schwarz an equality:
        # 13 * 3^2 = 117 = 39^2 / 13.
        cfg = gen_degenerate(4, 2, 1, f3)
        assert cs_holder_count(cfg, 2, incidence_count(cfg)) == 117

    def test_invalid_m(self, f3):
        cfg = gen_degenerate(4, 2, 1, f3)
        with pytest.raises(PreconditionError):
            cs_holder_count(cfg, 0, incidence_count(cfg))


class TestJrDecompose:
    def test_degenerate_pinned(self, f3):
        cfg = gen_degenerate(4, 2, 1, f3)
        decomp = jr_decompose(cfg, 1, incidence_count(cfg))
        assert decomp.total == 117
        assert decomp.strata == (39, 78)

    def test_single_point_all_constant(self, f3):
        cfg = single_flat_config(f3, 3, 1)
        cfg = Configuration(cfg.field, cfg.n, cfg.k, frozenset([next(iter(sorted(cfg.points)))]), cfg.flats)
        decomp = jr_decompose(cfg, 1, incidence_count(cfg))
        assert decomp.total == 1
        assert decomp.strata == (1, 0)

    def test_partition_and_stratum0_on_corpus(self):
        for _, cfg in random_corpus(3, 1, 3, 20):
            index = incidence_count(cfg)
            for r in (1,):
                decomp = jr_decompose(cfg, r, index)
                assert sum(decomp.strata) == decomp.total
                assert decomp.strata[0] == index.total

    def test_invalid_r(self, f3):
        cfg = gen_degenerate(4, 2, 1, f3)
        with pytest.raises(PreconditionError):
            jr_decompose(cfg, 3, incidence_count(cfg))


class TestRefineDyadic:
    def test_uniform_counts_keep_everything(self, f3):
        cfg = gen_degenerate(4, 2, 1, f3)
        refined = refine_dyadic(cfg, incidence_count(cfg))
        assert set(refined.flats) == set(cfg.flats)
        assert refined.refined_total == 39

    def test_one_heavy_flat_wins(self):
        # Per-flat counts {8, 1, 1}: level 3 contributes 8 > 2 from level 0.
        fld = Field(11)
        l1 = make_flat(span_of([(1, 0)], 2, fld), (0, 0), fld)
        l2 = make_flat(span_of([(0, 1)], 2, fld), (9, 0), fld)
        l3 = make_flat(span_of([(0, 1)], 2, fld), (10, 0), fld)
        points = frozenset([(i, 0) for i in range(8)] + [(9, 1), (10, 2)])
        cfg = Configuration(fld, 2, 1, points, (l1, l2, l3))
        refined = refine_dyadic(cfg, incidence_count(cfg))
        assert refined.bucket_level == 3
        assert refined.flats == (l1,)
        assert refined.refined_total == 8

    def test_tied_levels_go_to_the_larger_level(self):
        # Per-flat counts {2, 1, 1}: level 1 and level 0 both contribute 2.
        fld = Field(11)
        l1 = make_flat(span_of([(1, 0)], 2, fld), (0, 0), fld)
        l2 = make_flat(span_of([(0, 1)], 2, fld), (9, 0), fld)
        l3 = make_flat(span_of([(0, 1)], 2, fld), (10, 0), fld)
        points = frozenset([(0, 0), (1, 0), (9, 1), (10, 2)])
        cfg = Configuration(fld, 2, 1, points, (l1, l2, l3))
        refined = refine_dyadic(cfg, incidence_count(cfg))
        assert (refined.bucket_level, refined.flats, refined.refined_total) == (1, (l1,), 2)

    def test_pigeonhole_guarantee_on_corpus(self):
        for _, cfg in random_corpus(4, 2, 3, 30):
            index = incidence_count(cfg)
            if index.total == 0:
                with pytest.raises(EmptyRefinementError):
                    refine_dyadic(cfg, index)
                continue
            refined = refine_dyadic(cfg, index)
            levels = {
                c.bit_length() - 1 for c in index.per_flat.values() if c > 0
            }
            assert refined.refined_total * len(levels) >= index.total
            # Loose closed-form version of the same guarantee.
            bound = cfg.k * math.ceil(math.log2(cfg.field.p)) + 2
            assert refined.refined_total * bound >= index.total


class TestCheckMaxIc:
    def test_single_flat_ratio(self, f3):
        n, k = 3, 1
        cfg = single_flat_config(f3, n, k)
        report = check_max_ic(cfg, incidence_count(cfg), Fraction(1), Fraction(1))
        assert report.ratio == PowerProduct([(3, Fraction(-k * (n - k)))])

    def test_no_points(self, f3):
        # No ratio and a zero sup sum, whichever coset kernel sums them.
        cfg = single_flat_config(f3, 3, 1, with_points=False)
        report = check_max_ic(cfg, incidence_count(cfg), Fraction(2), Fraction(4))
        assert (report.ratio, report.chain_holds, report.sup_sum, report.total) == (None, True, 0, 0)

    def test_chain_inequality_on_corpus(self):
        for _, cfg in random_corpus(4, 2, 3, 20):
            report = check_max_ic(cfg, incidence_count(cfg), Fraction(2), Fraction(4))
            assert report.chain_holds
            # sup_sum against point counts over every coset, enumerated.
            fld = cfg.field
            explicit = sum(
                max(
                    sum(pt in cfg.points for pt in enumerate_points(make_flat(flat.direction, rep, fld), fld))
                    for rep in enumerate_coset_representatives(flat.direction, fld)
                )
                for flat in cfg.flats
            )
            assert explicit > 0
            assert report.sup_sum == explicit

    def test_degenerate_endpoint_finite(self, f3):
        cfg = gen_degenerate(4, 2, 1, f3)
        report = check_max_ic(cfg, incidence_count(cfg), Fraction(2), Fraction(4))
        assert report.ratio is not None and float(report.ratio) > 0

    def test_requires_direction_separated(self, f3):
        flat = make_flat(span_of([(1, 0)], 2, f3), (0, 0), f3)
        other = make_flat(span_of([(1, 0)], 2, f3), (0, 1), f3)
        cfg = Configuration(f3, 2, 1, frozenset([(0, 0)]), (flat, other))
        with pytest.raises(PreconditionError):
            check_max_ic(cfg, incidence_count(cfg), Fraction(2), Fraction(2))


class TestCheckMainBound:
    @pytest.mark.parametrize("n,k,p", [(4, 2, 3), (4, 2, 5), (5, 2, 3), (5, 3, 3)])
    def test_degenerate_ratio_near_one(self, n, k, p):
        cfg = gen_degenerate(n, k, 1, Field(p))
        report = check_main_bound(cfg, incidence_count(cfg))
        assert report["dominant_term"] == "Pi_F"
        assert Fraction(1, 4) <= Fraction(report["ratio_main_bound"]) <= 4

    def test_exact_tie_goes_to_larger_name(self):
        # P is the 343 points of the 3-flat x_3 = 0 in F_7^4 and Pi is 49
        # of the 57 planes through 0 inside it, so |P| |Pi|^(1/2) = 7^4 is
        # exactly the main term; the tie goes to the larger name, "main".
        f7 = Field(7)
        inside = [pi for pi in enumerate_grassmannian(4, 2, f7) if all(row[3] == 0 for row in pi.basis.rows)]
        assert len(inside) == 57
        flats = tuple(make_flat(pi, (0, 0, 0, 0), f7) for pi in inside[:49])
        points = frozenset(x + (0,) for x in itertools.product(range(7), repeat=3))
        cfg = Configuration(f7, 4, 2, points, flats)
        report = check_main_bound(cfg, incidence_count(cfg))
        assert report["refined_flats"] == 49
        assert report["dominant_term"] == "main"

    def test_empty_points_absent(self, f3):
        cfg = single_flat_config(f3, 4, 2, with_points=False)
        report = check_main_bound(cfg, incidence_count(cfg))
        assert report["ratio_main_bound"] is None
        assert report["dominant_term"] == "absent"

    def test_k_range_enforced(self, f3):
        cfg = single_flat_config(f3, 3, 1)
        with pytest.raises(PreconditionError):
            check_main_bound(cfg, incidence_count(cfg))


class TestRefinementChain:
    def test_degenerate_pinned_counts(self, f3):
        cfg = gen_degenerate(4, 2, 1, f3)
        chain = build_refinement_chain(cfg, incidence_count(cfg))
        # Ordered distinct collinear pairs: 3*2 per plane over 13 planes.
        assert chain.ik_prime == 78
        assert chain.ik == 78
        assert chain.vk_prime == 1014
        assert chain.vk == 936
        # No plane has a point off the common line, so no extended pairs.
        assert chain.vkp == 0
        assert chain.d_size == 0

    def test_spine_kept_at_equal_threshold(self):
        # The planes z = 0 and y = 0 of F_23^3 as the two refined flats, each
        # holding 460 points with exactly two, (0,0,0) and (1,0,0), on their
        # common line.  |I~| = 920 = 2 * 10 * |Pi~| * p, so a spine through
        # two points is kept at equality: every spanning pair is kept, and
        # the two planes share one kept pair, in 2! orders each way.
        fld = Field(23)
        kept = {(x, y) for x in range(23) for y in range(23)}
        kept -= {(x, 0) for x in range(2, 23)} | {(x, y) for x in range(23) for y in (1, 2)}
        kept -= {(0, 3), (1, 3)}
        assert len(kept) == 460
        axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        flats = tuple(make_flat(span_of([axes[0], axes[j]], 3, fld), (0, 0, 0), fld) for j in (1, 2))
        points = frozenset((x, y, 0) for x, y in kept) | frozenset((x, 0, z) for x, z in kept)
        cfg = Configuration(fld, 3, 2, points, flats)
        chain = build_refinement_chain(cfg, incidence_count(cfg))
        assert chain.ik == chain.ik_prime == 2 * 2 * math.comb(460, 2)
        assert chain.vk == 4
        assert chain.shared_pairs == {(0, 1): 1}

    def test_spines_below_threshold_dropped(self):
        # As above with (0,3) kept: 461 points a plane, so |I~| = 922 and a
        # spine needs 3 points.  The common line holds two and is dropped
        # with every other 2-point line; each line of F_23^2 is counted by
        # its key b x - a y for its direction (a, b).
        fld = Field(23)
        kept = {(x, y) for x in range(23) for y in range(23)}
        kept -= {(x, 0) for x in range(2, 23)} | {(x, y) for x in range(23) for y in (1, 2)}
        kept -= {(1, 3)}
        assert len(kept) == 461
        axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        flats = tuple(make_flat(span_of([axes[0], axes[j]], 3, fld), (0, 0, 0), fld) for j in (1, 2))
        points = frozenset((x, y, 0) for x, y in kept) | frozenset((x, 0, z) for x, z in kept)
        cfg = Configuration(fld, 3, 2, points, flats)
        chain = build_refinement_chain(cfg, incidence_count(cfg))
        pairs_on_rich_lines = 0
        for a, b in [(1, m) for m in range(23)] + [(0, 1)]:
            on_line = Counter((b * x - a * y) % 23 for x, y in kept)
            pairs_on_rich_lines += sum(math.comb(c, 2) for c in on_line.values() if c >= 3)
        assert 0 < pairs_on_rich_lines < math.comb(461, 2)
        assert chain.ik_prime == 2 * 2 * math.comb(461, 2)
        assert chain.ik == 2 * 2 * pairs_on_rich_lines
        assert chain.vk == 0 and chain.shared_pairs == {}

    def test_invariants_on_corpus(self):
        for _, cfg in random_corpus(4, 2, 3, 15):
            index = incidence_count(cfg)
            if index.total == 0:
                continue
            chain = build_refinement_chain(cfg, index)
            assert 0 <= chain.ik <= chain.ik_prime
            assert chain.vk <= chain.vk_prime
            # A kept k-subset on g refined flats adds g^2 = g + g(g-1) orders.
            assert chain.vk_prime == chain.vk + chain.ik
            assert chain.holder_lower_holds
            assert chain.cs_lower_holds

    def test_empty_configuration_rejected(self, f3):
        cfg = single_flat_config(f3, 4, 2, with_points=False)
        with pytest.raises(EmptyRefinementError):
            build_refinement_chain(cfg, incidence_count(cfg))


@pytest.mark.parametrize(
    "n,k,p", [(4, 2, 3), (4, 1, 3), (3, 2, 3), (4, 3, 2), (4, 3, 3), (3, 2, 5), (5, 3, 3)]
)
def test_common_points_match_pointwise_intersection(n, k, p):
    # Each face record's spines are the hyperplanes (normal, level), in
    # local coordinates, holding exactly the spine's points; its heads are
    # the k-subsets on that hyperplane whose affine hull has dimension k-1,
    # every such k-subset of the face on exactly one spine; its partners are
    # the other family flats whose points in common with the face, found by
    # intersecting point sets, are the spine's points, by ascending position.
    fld = Field(p)
    proper = multi = dropped = larger = 0
    for _, cfg in random_corpus(n, k, p, 8):
        index = incidence_count(cfg)
        if index.total == 0:
            continue
        refined = refine_dyadic(cfg, index).flats
        proper += len(refined) < len(cfg.flats)
        for family in (cfg.flats, refined):
            faces = list(common_points(family, index, fld))
            assert len(faces) == len(family)
            for a, face in enumerate(faces):
                pts = index.points[family[a]]
                bit = {x: 1 << i for i, x in enumerate(pts)}
                local = dict(zip(pts, local_coordinates(pts, family[a])))
                spanning = [
                    subset for subset in itertools.combinations(pts, k) if affine_hull(subset, fld)[0] == k - 1
                ]
                assert sum(len(spine.heads) for spine in face.values()) == len(spanning)
                for (normal, level), spine in face.items():
                    on = {x for x in pts if sum(map(mul, normal, local[x])) % p == level}
                    assert spine.points == sum(bit[x] for x in on)
                    assert spine.heads and spine.heads == [
                        tuple(bit[x] for x in subset) for subset in spanning if on.issuperset(subset)
                    ]
                    assert spine.partners == [
                        b for b, other in enumerate(family)
                        if b != a and set(pts) & set(index.points[other]) == on
                    ]
                    multi += len(spine.partners) >= 2
                    larger += bool(spine.partners) and len(on) > k
                for b, other in enumerate(family):
                    common = set(pts) & set(index.points[other])
                    dropped += b != a and len(common) >= k and not any(common.issuperset(s) for s in spanning)
    assert proper >= 2
    # Hyperplanes (k = n-1) of distinct directions always meet in a
    # (k-1)-flat, so these corpora put several partners on one spine.
    if k == n - 1:
        assert multi >= 1
    # Any k distinct points span when k <= 2 or p = 2, so only k >= 3 over
    # p >= 3 has flats sharing k or more points none of whose k-subsets span.
    assert (dropped >= 1) == (k >= 3 and p >= 3)
    # At k = 1 a spine is one point, so only k >= 2 puts partners on a spine
    # of more than k points.
    assert (larger >= 1) == (k >= 2)


@pytest.mark.parametrize("n,k,p", [(4, 2, 3), (3, 2, 5), (4, 3, 2), (5, 3, 3)])
def test_spanning_head_hyperplane_holds_exactly_the_shared_points(n, k, p):
    # A spanning head of a spine spans a hyperplane of the face; the face's
    # points on that hyperplane, found through the head's `affine_hull` in
    # ambient coordinates, are the points each partner shares with the face:
    # the mask `count_simplices` takes off a head's candidate last vertices.
    # The `|` of the spine's heads is that same set.
    fld = Field(p)
    larger = 0
    for _, cfg in random_corpus(n, k, p, 8):
        index = incidence_count(cfg)
        if index.total == 0:
            continue
        for family in (cfg.flats, refine_dyadic(cfg, index).flats):
            for flat, face in zip(family, common_points(family, index, fld)):
                pts = index.points[flat]
                for spine in face.values():
                    spanned = 0
                    for head in spine.heads:
                        dim, plane = affine_hull([pts[b.bit_length() - 1] for b in head], fld)
                        assert dim == k - 1
                        on = sum(1 << i for i, x in enumerate(pts) if membership(x, plane, fld))
                        assert on == spine.points
                        spanned |= sum(head)
                    assert spanned == spine.points
                    for b in spine.partners:
                        shared = set(pts) & set(index.points[family[b]])
                        assert sum(1 << i for i, x in enumerate(pts) if x in shared) == spine.points
                    larger += bool(spine.partners) and spine.points.bit_count() > k
    assert larger >= 1


CHAIN_FIELDS =("ik_prime", "ik", "vk_prime", "vk", "vkp", "d_size", "d_bucket_level", "d_threshold")


@pytest.mark.parametrize(
    "n,k,p,extra_flats,extra_points",
    [(4, 1, 3, 8, 14), (4, 2, 3, 8, 14), (3, 2, 3, 6, 10), (3, 2, 5, 8, 14), (4, 3, 2, 6, 6)],
)
def test_chain_oracle_equivalence(n, k, p, extra_flats, extra_points):
    configs = [cfg for _, cfg in random_corpus(n, k, p, 6)]
    configs += [planted_simplex_config(n, k, p, seed, extra_flats, extra_points) for seed in range(4)]
    if 1 < k < n:
        configs.append(gen_degenerate(n, k, 1, Field(p)))
    nonzero = 0
    for cfg in configs:
        index = incidence_count(cfg)
        if index.total == 0:
            with pytest.raises(EmptyRefinementError):
                build_refinement_chain_bruteforce(cfg)
            continue
        chain = build_refinement_chain(cfg, index)
        brute = build_refinement_chain_bruteforce(cfg)
        assert {name: getattr(chain, name) for name in CHAIN_FIELDS} == brute
        assert chain.holder_lower_holds
        nonzero += brute["vkp"] > 0 and brute["d_size"] > 0
    assert nonzero >= len(configs) // 2


def test_chain_oracle_point_guard(f5):
    cfg = gen_random_config(3, 2, 4, Fraction(1), f5, 0)
    with pytest.raises(SizeGuardError):
        build_refinement_chain_bruteforce(cfg)


@pytest.mark.parametrize("n,k,p", [(3, 1, 3), (4, 2, 3), (4, 3, 2), (5, 3, 2)])
def test_jr_oracle_equivalence(n, k, p):
    configs = [cfg for _, cfg in random_corpus(n, k, p, 6)]
    configs += [gen_degenerate(n, k, d, Field(p)) for d in range(1, k)]
    high_r = nonzero_stratum2 = 0
    for cfg in configs:
        index = incidence_count(cfg)
        for r in range(1, k + 1):
            decomp = jr_decompose(cfg, r, index)
            assert decomp == jr_decompose_bruteforce(cfg, r)
            if r >= 2:
                high_r += 1
                nonzero_stratum2 += decomp.strata[2] > 0
    assert nonzero_stratum2 * 2 >= high_r


def test_jr_decompose_spans_each_subset_once(monkeypatch):
    # At r = 3 every 3- and 4-subset of a flat's incident points takes one
    # rank test, and nothing else does; counting them leaves the strata as
    # they are.
    configs = [cfg for _, cfg in random_corpus(5, 3, 2, 2)]
    unwrapped = [jr_decompose(cfg, 3, incidence_count(cfg)).strata for cfg in configs]
    calls = []

    def counted(points, p):
        calls.append(len(points))
        return span(points, p)

    monkeypatch.setattr(kplab.incidence, "span", counted)
    for cfg, strata in zip(configs, unwrapped):
        calls.clear()
        index = incidence_count(cfg)
        assert jr_decompose(cfg, 3, index).strata == strata
        sizes = [c for c in index.per_flat.values() if c >= 3]
        assert sizes, "a vacuous corpus: no flat holds three points"
        assert len(calls) == sum(math.comb(c, 3) + math.comb(c, 4) for c in sizes)


def test_jr_oracle_point_guard(f5):
    cfg = gen_random_config(3, 2, 4, Fraction(1), f5, 0)
    with pytest.raises(SizeGuardError):
        jr_decompose_bruteforce(cfg, 1)
