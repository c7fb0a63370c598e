import math
from fractions import Fraction

import pytest

import kplab.incidence
from conftest import planted_simplex_config, random_corpus
from kplab.config import Configuration, gen_degenerate, gen_random_config
from kplab.exponents import PowerProduct
from kplab.field import Field
from kplab.flats import (
    enumerate_coset_representatives,
    enumerate_points,
    make_flat,
    membership,
    span_of,
)
from kplab.incidence import (
    EmptyRefinementError,
    PreconditionError,
    SizeGuardError,
    build_refinement_chain,
    build_refinement_chain_bruteforce,
    check_main_bound,
    check_max_ic,
    common_points,
    cs_holder_count,
    hypothesis_check,
    incidence_count,
    jr_decompose,
    jr_decompose_bruteforce,
    refine_dyadic,
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
                assert index.total == sum(len(fl) for fl in index.per_point.values())
                for flat in cfg.flats:
                    on = tuple(sorted(pt for pt in cfg.points if membership(pt, flat, fld)))
                    assert index.points[flat] == on
                    assert index.per_flat[flat] == len(on)
        assert sides == {(4, 2, 3, True), (4, 2, 3, False), (4, 2, 7, True), (3, 3, 3, True)}


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
        cfg = cfg.with_points(frozenset([next(iter(sorted(cfg.points)))]))
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


class TestHypothesisCheck:
    def test_degenerate_h2_ratio_one_fails_margin(self, f3):
        cfg = gen_degenerate(4, 2, 1, f3)
        verdict = hypothesis_check(cfg, incidence_count(cfg), "H2")
        assert verdict.ratio == PowerProduct.integer(1)
        assert not verdict.holds

    def test_full_space_h2_ratio_is_p(self, f3):
        flats = []
        from kplab.flats import enumerate_coset_representatives, enumerate_grassmannian

        for pi in enumerate_grassmannian(2, 1, f3):
            for rep in enumerate_coset_representatives(pi, f3):
                flats.append(make_flat(pi, rep, f3))
        points = frozenset((x, y) for x in range(3) for y in range(3))
        cfg = Configuration(f3, 2, 1, points, tuple(flats))
        verdict = hypothesis_check(cfg, incidence_count(cfg), "H2")
        assert verdict.ratio == PowerProduct.integer(3)

    def test_empty_points_fail(self, f3):
        cfg = single_flat_config(f3, 3, 1, with_points=False)
        assert not hypothesis_check(cfg, incidence_count(cfg), "H1").holds

    def test_unknown_hypothesis(self, f3):
        cfg = gen_degenerate(4, 2, 1, f3)
        with pytest.raises(PreconditionError):
            hypothesis_check(cfg, incidence_count(cfg), "H3")


class TestCheckMaxIc:
    def test_single_flat_ratio(self, f3):
        n, k = 3, 1
        cfg = single_flat_config(f3, n, k)
        report = check_max_ic(cfg, incidence_count(cfg), Fraction(1), Fraction(1))
        assert report.ratio == PowerProduct([(3, Fraction(-k * (n - k)))])

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
        assert report.ratio_float is not None and report.ratio_float > 0

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
        assert report.notes["dominant_term"] == "Pi_F"
        assert Fraction(1, 4) <= Fraction(report.ratios["main_bound"]) <= 4

    def test_empty_points_absent(self, f3):
        cfg = single_flat_config(f3, 4, 2, with_points=False)
        report = check_main_bound(cfg, incidence_count(cfg))
        assert report.ratios["main_bound"] is None
        assert report.notes["dominant_term"] == "absent"

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


@pytest.mark.parametrize("n,k,p", [(4, 2, 3), (4, 1, 3), (3, 2, 3), (4, 3, 2)])
def test_common_points_match_pointwise_intersection(n, k, p):
    proper = 0
    for _, cfg in random_corpus(n, k, p, 8):
        index = incidence_count(cfg)
        if index.total == 0:
            continue
        refined = refine_dyadic(cfg, index).flats
        proper += len(refined) < len(cfg.flats)
        for family in (cfg.flats, refined):
            tables = list(common_points(family, index))
            assert len(tables) == len(family)
            for a, shared in enumerate(tables):
                expected = {}
                for b, other in enumerate(family):
                    common = set(index.points[family[a]]) & set(index.points[other])
                    if b != a and common:
                        expected[b] = [x for x in index.points[family[a]] if x in common]
                assert shared == expected
    assert proper >= 2


CHAIN_FIELDS = ("ik_prime", "ik", "vk_prime", "vk", "vkp", "d_size", "d_bucket_level", "d_threshold")


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


def test_jr_decompose_makes_no_hull_call(monkeypatch):
    def forbidden(*args):
        raise AssertionError("affine_hull called")

    monkeypatch.setattr(kplab.incidence, "affine_hull", forbidden)
    for _, cfg in random_corpus(5, 3, 2, 2):
        jr_decompose(cfg, 3, incidence_count(cfg))


def test_jr_oracle_point_guard(f5):
    cfg = gen_random_config(3, 2, 4, Fraction(1), f5, 0)
    with pytest.raises(SizeGuardError):
        jr_decompose_bruteforce(cfg, 1)
