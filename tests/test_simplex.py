import itertools
from fractions import Fraction

import pytest

from conftest import planted_simplex_config, random_corpus
from kplab.config import Configuration, gen_degenerate, gen_random_config
from kplab.field import Field
from kplab.flats import (
    coset_key,
    enumerate_grassmannian,
    make_flat,
    span_of,
)
from kplab.incidence import (
    Face,
    PreconditionError,
    SizeGuardError,
    build_refinement_chain,
    check_main_bound,
    common_points,
    incidence_count,
    refine_dyadic,
)
from kplab.oracles import count_simplices_bruteforce, enumerate_coset_representatives
from kplab.simplex import (
    count_simplices,
    lambda_flat_counts,
    simplex_bound_report,
    v_k_del,
)


def all_lines_config(p):
    fld = Field(p)
    flats = []
    for pi in enumerate_grassmannian(2, 1, fld):
        for rep in enumerate_coset_representatives(pi, fld):
            flats.append(make_flat(pi, rep, fld))
    points = frozenset(itertools.product(range(p), repeat=2))
    return Configuration(fld, 2, 1, points, tuple(flats))


def test_f2_plane_has_four_triangles():
    cfg = all_lines_config(2)
    assert len(cfg.flats) == 6
    assert count_simplices(cfg, incidence_count(cfg)) == 4
    assert count_simplices_bruteforce(cfg) == 4


def test_empty_family_and_tiny_point_sets(f3):
    cfg = all_lines_config(3)
    no_points = Configuration(cfg.field, cfg.n, cfg.k, frozenset(), cfg.flats)
    assert count_simplices(no_points, incidence_count(no_points), cfg.flats) == 0
    two = Configuration(cfg.field, cfg.n, cfg.k, frozenset([(0, 0), (1, 1)]), cfg.flats)
    assert count_simplices(two, incidence_count(two)) == 0
    empty_family = Configuration(f3, 2, 1, cfg.points, ())
    assert count_simplices(empty_family, incidence_count(empty_family)) == 0


def test_degenerate_has_no_simplices(f3):
    cfg = gen_degenerate(4, 2, 1, f3)
    assert count_simplices(cfg, incidence_count(cfg)) == 0


@pytest.mark.parametrize("n,k,p", [(3, 1, 2), (3, 1, 3), (4, 2, 3)])
def test_oracle_equivalence(n, k, p):
    from fractions import Fraction

    for seed in range(10):
        cfg = gen_random_config(n, k, 6, Fraction(1, 3), Field(p), seed)
        if len(cfg.points) > 40:
            continue
        assert count_simplices(cfg, incidence_count(cfg)) == count_simplices_bruteforce(cfg)


def test_oracle_equivalence_k_eq_n_minus_1():
    from fractions import Fraction

    for seed in range(5):
        cfg = gen_random_config(3, 2, 4, Fraction(1, 4), Field(3), seed)
        assert count_simplices(cfg, incidence_count(cfg)) == count_simplices_bruteforce(cfg)


@pytest.mark.parametrize(
    "n,k,p,extra_flats,extra_points",
    [(3, 1, 5, 8, 12), (3, 2, 3, 6, 10), (4, 2, 3, 8, 14), (5, 3, 3, 20, 12)],
)
def test_oracle_equivalence_planted(n, k, p, extra_flats, extra_points):
    # Random corpora almost never hold a simplex, so this oracle check runs on
    # configurations with one planted, against the full and the refined family.
    counts = []
    for seed in range(10):
        cfg = planted_simplex_config(n, k, p, seed, extra_flats, extra_points)
        index = incidence_count(cfg)
        full = count_simplices(cfg, index)
        assert full == count_simplices_bruteforce(cfg) >= 1
        family = refine_dyadic(cfg, index).flats
        refined = count_simplices(cfg, index, family)
        assert refined == count_simplices_bruteforce(cfg, flats=family)
        counts += [full, refined]
    assert sum(c > 0 for c in counts) > len(counts) // 2
    assert max(counts) > 1


def test_oracle_equivalence_k4():
    # The first k = 4 counts: 18 points of F_2^5 and 20 of its 4-flats, with
    # one simplex on the full family and on the refined one.
    cfg = gen_random_config(5, 4, 20, Fraction(3, 4), Field(2), 2)
    index = incidence_count(cfg)
    for family in (cfg.flats, refine_dyadic(cfg, index).flats):
        simplices = count_simplices(cfg, index, family)
        assert simplices == count_simplices_bruteforce(cfg, flats=family) >= 1


def _fused_cases():
    for n, k, p, extra_flats, extra_points in [(3, 2, 3, 6, 10), (4, 2, 3, 8, 14), (5, 3, 3, 20, 12)]:
        for seed in range(4):
            yield planted_simplex_config(n, k, p, seed, extra_flats, extra_points)
    for n, k, p, num_directions, density in [
        (3, 2, 3, 13, Fraction(2, 3)),
        (4, 2, 5, 300, Fraction(1, 2)),
        (4, 1, 3, 30, Fraction(1, 2)),
    ]:
        for seed in range(3):
            yield gen_random_config(n, k, num_directions, density, Field(p), seed)


def test_bound_report_matches_standalone_counters():
    # The report walks the refined family once for both the chain and the
    # simplex counter; each count must equal the counter run on its own.
    with_simplices = 0
    for cfg in _fused_cases():
        index = incidence_count(cfg)
        report = simplex_bound_report(cfg, index)
        chain = build_refinement_chain(cfg, index)
        simplices = count_simplices(cfg, index, refine_dyadic(cfg, index).flats)
        assert report["simplices"] == simplices
        assert report["vk"] == chain.vk
        assert report["vk_del"] == v_k_del(chain)
        assert report["lambda_max_flats"] == max(lambda_flat_counts(cfg, chain), default=0)
        with_simplices += simplices > 0
    assert with_simplices >= 6


def test_bound_report_walks_common_points_once(monkeypatch):
    import kplab.incidence as incidence
    import kplab.simplex as simplex

    walks = []
    original = incidence.common_points

    def counted(flats, index, field):
        walks.append(len(flats))
        return original(flats, index, field)

    monkeypatch.setattr(incidence, "common_points", counted)
    monkeypatch.setattr(simplex, "common_points", counted)
    for cfg in _fused_cases():
        index = incidence_count(cfg)
        walks.clear()
        report = simplex_bound_report(cfg, index)
        assert walks == [report["refined_flats"]]


def test_count_simplices_reads_a_given_walk():
    # The counter reads every face record of the walk it is given, and only
    # those: a walk with every spine's partners emptied counts nothing.
    # (Seed 0 of this size counts no simplex on its refined family; seed 1
    # counts 3.)
    cfg = planted_simplex_config(4, 2, 3, 1, 8, 14)
    index = incidence_count(cfg)
    family = refine_dyadic(cfg, index).flats
    fed = []

    def faces():
        for face in common_points(family, index, cfg.field):
            fed.append(face)
            yield face

    simplices = count_simplices(cfg, index, family)
    assert simplices >= 1
    assert count_simplices(cfg, index, family, faces()) == simplices
    assert len(fed) == len(family)
    alone = [{key: spine._replace(partners=[]) for key, spine in face.items()} for face in fed]
    assert count_simplices(cfg, index, family, alone) == 0


def test_family_outside_config_flats_rejected(f3):
    # Faces come from the incidence index of config.flats, so a family flat
    # outside them could never be a face.
    cfg = all_lines_config(3)
    fewer = Configuration(f3, 2, 1, cfg.points, cfg.flats[:6])
    index = incidence_count(fewer)
    with pytest.raises(ValueError):
        count_simplices(fewer, index, cfg.flats)
    assert count_simplices(fewer, index, cfg.flats[:3]) == count_simplices_bruteforce(
        fewer, flats=cfg.flats[:3]
    )


def _lambda_recount(config, chain):
    """lambda_flat_counts without the per-span memo: one span and one scan of
    the refined flats per deleted pair, once per unordered pair."""
    fld = config.field
    p = fld.p
    flats = chain.refined.flats
    counts = []
    for a, b in chain.shared_pairs:
        pi0, pi = flats[a], flats[b]
        diff = tuple((x - y) % p for x, y in zip(pi.representative, pi0.representative))
        span = span_of(pi0.direction.basis.rows + pi.direction.basis.rows + (diff,), config.n, fld)
        counts.append(
            sum(
                all(
                    coset_key(v, span, fld) == 0
                    for v in f.direction.basis.rows
                    + (tuple((x - y) % p for x, y in zip(f.representative, pi0.representative)),)
                )
                for f in flats
            )
        )
    return tuple(counts)


@pytest.mark.parametrize(
    "n,k,num_directions,density",
    [
        pytest.param(4, 1, 20, Fraction(1, 2), id="4-1"),
        pytest.param(4, 2, 20, Fraction(1, 2), id="4-2"),
        pytest.param(5, 2, 200, Fraction(1, 4), id="5-2"),
    ],
)
def test_lambda_flat_counts_match_recount(n, k, num_directions, density):
    # With n - k = 3 each refined flat lies in 13 flats of dimension k+1.
    varied = 0
    for seed in range(8):
        cfg = gen_random_config(n, k, num_directions, density, Field(3), seed)
        chain = build_refinement_chain(cfg, incidence_count(cfg))
        lam = lambda_flat_counts(cfg, chain)
        assert lam == _lambda_recount(cfg, chain)
        varied += len(set(lam)) > 1
    assert varied >= 2


def test_bruteforce_size_guard():
    cfg = all_lines_config(7)
    with pytest.raises(SizeGuardError):
        count_simplices_bruteforce(cfg)


class TestSpineDeletion:
    def test_degenerate_pinned(self, f3):
        cfg = gen_degenerate(4, 2, 1, f3)
        chain = build_refinement_chain(cfg, incidence_count(cfg))
        assert v_k_del(chain) == 13 * 12

    def test_single_flat_zero(self, f3):
        import kplab.incidence as incidence

        cfg = gen_degenerate(4, 2, 1, f3)
        single = Configuration(f3, 4, 2, cfg.points, cfg.flats[:1])
        chain = build_refinement_chain(single, incidence_count(single))
        assert v_k_del(chain) == 0


class TestBoundReport:
    def test_degenerate_rich_case(self, f3):
        cfg = gen_degenerate(4, 2, 1, f3)
        report = simplex_bound_report(cfg, incidence_count(cfg))
        assert report["simplices"] == 0
        assert report["vk"] == 936
        assert report["ratio_lower"] is None
        assert report["ratio_heuristic"] is None
        assert report["verdict_spine_deletion_lower"] in (True, False)

    def test_refuses_a_family_not_direction_separated(self, f3):
        # The two refined rows share one refusal, a PreconditionError.
        direction = span_of([(1, 0, 0, 0), (0, 1, 0, 0)], 4, f3)
        flats = (make_flat(direction, (0, 0, 0, 0), f3), make_flat(direction, (0, 0, 1, 0), f3))
        cfg = Configuration(f3, 4, 2, frozenset([(0, 0, 0, 0)]), flats)
        index = incidence_count(cfg)
        for row in (simplex_bound_report, check_main_bound):
            with pytest.raises(PreconditionError):
                row(cfg, index)

    def test_empty_incidences(self, f3):
        cfg = Configuration(f3, 4, 2, frozenset(), gen_degenerate(4, 2, 1, f3).flats)
        report = simplex_bound_report(cfg, incidence_count(cfg))
        assert report["incidences"] == 0
        assert report["ratio_upper"] is None

    def test_random_corpus_runs(self):
        for _, cfg in random_corpus(3, 1, 3, 5):
            report = simplex_bound_report(cfg, incidence_count(cfg))
            assert report["num_flats"] == len(cfg.flats)
