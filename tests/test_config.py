import itertools
import random
from fractions import Fraction

import pytest

from kplab import config
from kplab.config import (
    ConfigDomainError,
    Configuration,
    _draws_below,
    gen_degenerate,
    gen_nk_set,
    gen_point_cloud,
    gen_random_config,
)
from kplab.field import Field
from kplab.flats import AffineFlat, coset_key, enumerate_grassmannian, enumerate_points, gaussian_binomial, make_flat
from kplab.incidence import incidence_count


def test_degenerate_pinned_counts(f3):
    cfg = gen_degenerate(4, 2, 1, f3)
    assert len(cfg.points) == 3
    assert len(cfg.flats) == 13
    assert incidence_count(cfg).total == 39


def test_degenerate_small_case(f2):
    cfg = gen_degenerate(3, 2, 1, f2)
    assert len(cfg.points) == 2
    assert len(cfg.flats) == 3
    assert incidence_count(cfg).total == 6


def test_degenerate_flat_count_formula():
    for n, k, r, p in [(4, 2, 1, 3), (4, 2, 1, 5), (5, 3, 2, 3)]:
        cfg = gen_degenerate(n, k, r, Field(p))
        assert len(cfg.flats) == gaussian_binomial(n - r, k - r, p)


def test_degenerate_is_direction_separated(f3):
    assert gen_degenerate(4, 2, 1, f3).direction_separated


# The shapes (n, k, r, p) on which the degenerate flats are held to the filter.
DEGENERATE_SHAPES = [
    (3, 2, 1, 3), (4, 2, 1, 3), (4, 3, 1, 5), (4, 3, 2, 3),
    (5, 3, 1, 3), (5, 4, 2, 2), (5, 3, 2, 7), (6, 4, 2, 3),
]


@pytest.mark.parametrize("n,k,r,p", DEGENERATE_SHAPES)
def test_degenerate_flats_are_the_filtered_grassmannian(n, k, r, p, monkeypatch):
    # By definition: every direction of G(n,k) whose zero coset holds
    # e_1, ..., e_r, through the origin, in G(n,k)'s order.  The generator
    # builds them from G(n-r, k-r) and never walks G(n,k) itself.
    fld = Field(p)
    origin = (0,) * n
    lead = [tuple(int(j == i) for j in range(n)) for i in range(r)]
    expected = tuple(
        make_flat(pi, origin, fld)
        for pi in enumerate_grassmannian(n, k, fld)
        if all(coset_key(e, pi, fld) == 0 for e in lead)
    )
    walked = []

    def enumerate_logged(m, d, field):
        walked.append((m, d))
        return enumerate_grassmannian(m, d, field)

    monkeypatch.setattr(config, "enumerate_grassmannian", enumerate_logged)
    assert gen_degenerate(n, k, r, fld).flats == expected
    assert walked == [(n - r, k - r)]


def test_degenerate_domain_errors(f3):
    with pytest.raises(ConfigDomainError):
        gen_degenerate(4, 2, 2, f3)  # needs r < k
    with pytest.raises(ConfigDomainError):
        gen_degenerate(3, 3, 1, f3)  # needs k <= n-1


class TestNkSet:
    def test_zero_translates_cover_plane(self, f3):
        assert gen_nk_set(2, 1, f3, translate_rule="zero") == frozenset(
            (x, y) for x in range(3) for y in range(3)
        )

    def test_zero_rule_contains_origin(self, f3):
        assert (0, 0, 0, 0) in gen_nk_set(4, 2, f3, translate_rule="zero")

    @pytest.mark.parametrize("p", [2, 3])
    def test_zero_rule_is_the_whole_space(self, p):
        # Every point of F^n lies on a k-subspace through the origin, so the
        # union of G(n,k) is F^n for every 1 <= k <= n-1.
        fld = Field(p)
        for n in range(2, 5):
            space = frozenset(itertools.product(range(p), repeat=n))
            for k in range(1, n):
                union = {
                    x for pi in enumerate_grassmannian(n, k, fld) for x in enumerate_points(AffineFlat(pi, (0,) * n), fld)
                }
                assert gen_nk_set(n, k, fld, "zero") == union == space

    def test_random_rule_deterministic(self, f3):
        a = gen_nk_set(4, 2, f3, translate_rule="random", seed=1)
        b = gen_nk_set(4, 2, f3, translate_rule="random", seed=1)
        assert a == b

    def test_random_rule_seeded_by_default(self):
        # Without a seed the draws are seed 0's, as in every other generator
        # of the module: two default calls agree, and agree with seed=0.
        f5 = Field(5)
        default = gen_nk_set(3, 1, f5, translate_rule="random")
        assert default == gen_nk_set(3, 1, f5, translate_rule="random") == gen_nk_set(3, 1, f5, "random", seed=0)

    def test_unknown_rule_rejected(self, f3):
        with pytest.raises(ConfigDomainError):
            gen_nk_set(4, 2, f3, translate_rule="middle")


def flats_only(n, k, num_directions, fld, seed):
    """The seeded flats of `config._random_flats` with no points: the flats
    `gen_random_config` draws for the same seed."""
    return Configuration(fld, n, k, frozenset(), config._random_flats(n, k, num_directions, fld, seed))


class TestRandomDirectionSeparated:
    def test_all_directions(self, f3):
        total = gaussian_binomial(3, 1, 3)
        cfg = flats_only(3, 1, total, f3, seed=0)
        assert len(cfg.flats) == total
        assert cfg.direction_separated

    def test_single_flat(self, f3):
        cfg = flats_only(4, 2, 1, f3, seed=7)
        assert len(cfg.flats) == 1 and cfg.direction_separated

    def test_deterministic(self, f3):
        a = flats_only(4, 2, 5, f3, seed=11)
        b = flats_only(4, 2, 5, f3, seed=11)
        assert a == b

    def test_too_many_rejected(self, f3):
        with pytest.raises(ConfigDomainError):
            flats_only(2, 1, 5, f3, seed=0)


def walk_direction_separated(n, k, num_directions, fld, seed):
    """The reference sampler: a partial Fisher-Yates over the full index
    list, then a walk of the enumerated Grassmannian up to each sorted pick."""
    rng = random.Random(seed)
    total = gaussian_binomial(n, k, fld.p)
    indices = list(range(total))
    for i in range(num_directions):
        j = rng.randrange(i, total)
        indices[i], indices[j] = indices[j], indices[i]
    chosen = set(indices[:num_directions])
    flats = []
    for pos, pi in enumerate(enumerate_grassmannian(n, k, fld)):
        if pos in chosen:
            rep = tuple(
                0 if j in pi.basis.pivots else rng.randrange(fld.p) for j in range(n)
            )
            flats.append(make_flat(pi, rep, fld))
    return tuple(flats)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_generated_flats_are_canonical(p):
    # The generators build their flats from canonical representatives (zero
    # at the pivots) without make_flat, so each equals make_flat's flat.
    fld = Field(p)
    for n in range(2, 6):
        for k in range(1, n):
            num_directions = min(40, gaussian_binomial(n, k, p))
            for seed in range(3):
                cfg = gen_random_config(n, k, num_directions, Fraction(1, 2), fld, seed)
                assert len(cfg.flats) == num_directions
                for flat in cfg.flats:
                    assert flat == make_flat(flat.direction, flat.representative, fld)


@pytest.mark.parametrize("n,k,p", [(3, 1, 3), (3, 2, 5), (4, 2, 3), (4, 1, 5), (5, 2, 2), (3, 1, 7)])
def test_nk_set_random_translates_match_make_flat(n, k, p):
    # The union of make_flat translates, drawn with the generator's own rng
    # calls in the same order, is the generated set.
    fld = Field(p)
    for seed in range(2):
        rng = random.Random(seed)
        points = set()
        for pi in enumerate_grassmannian(n, k, fld):
            rep = tuple(0 if j in pi.basis.pivots else rng.randrange(p) for j in range(n))
            points.update(enumerate_points(make_flat(pi, rep, fld), fld))
        assert gen_nk_set(n, k, fld, "random", seed=seed) == frozenset(points)


@pytest.mark.parametrize("num_directions", [0, 1, 200, gaussian_binomial(4, 2, 7)])
@pytest.mark.parametrize("seed", range(5))
def test_sampler_matches_list_walk(seed, num_directions):
    f7 = Field(7)
    cfg = flats_only(4, 2, num_directions, f7, seed)
    assert cfg.flats == walk_direction_separated(4, 2, num_directions, f7, seed)


class TestPointCloud:
    def test_density_one_is_everything(self, f3):
        assert len(gen_point_cloud(4, f3, Fraction(1), seed=0)) == 81

    def test_half_density_deterministic(self, f3):
        a = gen_point_cloud(4, f3, Fraction(1, 2), seed=5)
        assert a == gen_point_cloud(4, f3, Fraction(1, 2), seed=5)
        assert 0 < len(a) < 81

    def test_tiny_density_may_be_empty(self, f2):
        cloud = gen_point_cloud(2, f2, Fraction(1, 10**6), seed=0)
        # Empty point sets must be representable downstream.
        cfg = Configuration(f2, 2, 1, frozenset(cloud), flats_only(2, 1, 2, f2, seed=0).flats)
        assert incidence_count(cfg).total >= 0

    def test_bad_density_rejected(self, f3):
        with pytest.raises(ConfigDomainError):
            gen_point_cloud(2, f3, Fraction(0), seed=0)
        with pytest.raises(ConfigDomainError):
            gen_point_cloud(2, f3, Fraction(3, 2), seed=0)


@pytest.mark.parametrize("bound", [1, 2, 3, 7, 64, 255, 256, 257, 2**31, 2**32 - 1, 2**32])
def test_bulk_draws_replay_randrange(monkeypatch, bound):
    # The keep-draw reads the generator's 32-bit outputs in bulk: it gives
    # the draws of randrange(bound), rejections included, and leaves the
    # generator where randrange leaves it, whether the draws take one bulk
    # read, several, or none.  At 2^32 and above it calls randrange.
    monkeypatch.setattr(config, "_WORDS_AT_ONCE", 64)
    for count in (0, 1, 5, 300):
        bulk, plain = random.Random(count), random.Random(count)
        assert list(_draws_below(bulk, bound, count)) == [plain.randrange(bound) for _ in range(count)]
        assert bulk.getrandbits(32) == plain.getrandbits(32)


def test_configuration_rejects_duplicates_and_mismatches(f3):
    cfg = flats_only(3, 1, 2, f3, seed=0)
    with pytest.raises(ConfigDomainError):
        Configuration(f3, 3, 1, frozenset(), cfg.flats + (cfg.flats[0],))
    with pytest.raises(ConfigDomainError):
        Configuration(f3, 3, 2, frozenset(), cfg.flats)


@pytest.mark.parametrize("point", [(0, 0, 0), (0, 0, 3, 0), (0, -1, 0, 0)])
def test_configuration_rejects_points_outside_space(f3, point):
    # A 3-tuple, or an entry outside range(3), in F_3^4.  A short tuple
    # would add incidences on the probe side of incidence_count.
    cfg = gen_random_config(4, 2, 30, Fraction(1, 27), f3, seed=0)
    with pytest.raises(ConfigDomainError):
        Configuration(f3, 4, 2, frozenset(cfg.points) | {point}, cfg.flats)


def test_gen_random_config_deterministic(f3):
    a = gen_random_config(4, 2, 6, Fraction(1, 2), f3, seed=3)
    b = gen_random_config(4, 2, 6, Fraction(1, 2), f3, seed=3)
    assert a == b


@pytest.mark.parametrize("bound", [1, 2, 3, 16, 127, 128, 255, 256, 257])
def test_kept_points_replay_randrange(monkeypatch, bound):
    # Below 256 the keep-draw is read off each output's top byte and the
    # points kept by a table; at 256 a draw needs nine bits and takes
    # `_draws_below`.  Either way the kept points are those of one
    # randrange per point, and the generator is left where that loop
    # leaves it, over several bulk reads.
    monkeypatch.setattr(config, "_WORDS_AT_ONCE", 64)
    fld = Field(3)
    for numerator in sorted({1, max(bound - 1, 1)}):
        for n in (0, 1, 4, 5):
            bulk, plain = random.Random(bound * 10 + n), random.Random(bound * 10 + n)
            kept = config._kept_points(n, fld, Fraction(numerator, bound), bulk)
            expected = [x for x in itertools.product(range(3), repeat=n) if plain.randrange(bound) < numerator]
            assert kept == expected
            assert bulk.getrandbits(32) == plain.getrandbits(32)

