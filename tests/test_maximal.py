import math
from collections import Counter
from fractions import Fraction

import pytest

import kplab.maximal
from kplab.config import gen_degenerate
from kplab.exponents import PowerProduct
from kplab.field import Field
from kplab.flats import CosetSums, enumerate_grassmannian, enumerate_points, gaussian_binomial, make_flat, span_of
from kplab.maximal import (
    GridFunction,
    apply_maximal,
    apply_maximal_many,
    constant_witness_ratio_exact,
    default_candidates,
    empirical_norm_search,
    norm,
)
from kplab.oracles import apply_maximal_bruteforce


def witness_ratio(f, p_exp, q_exp, n, k):
    """||Tf||_q / ||f||_p of one witness: the search over a one-witness family."""
    return empirical_norm_search(n, k, f.field, p_exp, q_exp, candidates={"f": f}).all_ratios["f"]


def test_constant_function_hits_every_coset_fully(f3):
    f = GridFunction.constant(f3, 4)
    tf = apply_maximal(f, 4, 2)
    assert len(tf) == gaussian_binomial(4, 2, 3)
    assert all(v == 9 for v in tf.values())


def test_point_spike_gives_one_everywhere(f3):
    f = GridFunction.indicator(f3, 3, [(1, 2, 0)])
    tf = apply_maximal(f, 3, 1)
    assert all(v == 1 for v in tf.values())


def test_subspace_indicator_peaks_at_own_direction(f3):
    pi = span_of([(1, 0, 0), (0, 1, 0)], 3, f3)
    flat = make_flat(pi, (0, 0, 0), f3)
    f = GridFunction.indicator(f3, 3, enumerate_points(flat, f3))
    tf = apply_maximal(f, 3, 2)
    assert tf[pi] == 9
    assert max(tf.values()) == 9


def test_ambient_mismatch_rejected(f3):
    # f lives on F_3^3.  With n = 4 the coset masks would read only the
    # points' three coordinates and report a max of 2, so both paths refuse it,
    # and the witness search inherits the check.
    f = GridFunction.indicator(f3, 3, [(0, 0, 0), (1, 1, 1)])
    for apply in (apply_maximal, apply_maximal_bruteforce):
        with pytest.raises(ValueError):
            apply(f, 4, 2)
    with pytest.raises(ValueError):
        witness_ratio(f, 2, 2, 4, 2)
    assert max(apply_maximal(f, 3, 2).values()) == 2


def test_points_outside_space_rejected(f3):
    # Kept, {(0,0,2), (0,0,5), (0,0)} gave apply_maximal a max of 3 where the
    # oracle gave 1: the key read 5 as 2 and (0,0) as a shorter dot product.
    with pytest.raises(ValueError):
        GridFunction.indicator(f3, 3, [(0, 0, 2), (0, 0, 5), (0, 0)])
    for point in [(0, 0, 5), (0, 0), (0, 0, -1)]:
        with pytest.raises(ValueError):
            GridFunction.from_dict(f3, 3, {(0, 0, 2): Fraction(1), point: Fraction(1, 2)})
    assert max(apply_maximal(GridFunction.indicator(f3, 3, [(0, 0, 2)]), 3, 1).values()) == 1


def test_indicator_and_constant_match_from_dict(f3):
    # Built directly, they hold what from_dict builds: sorted distinct points,
    # and no points at all for the zero constant.
    points = [(2, 1, 0), (0, 0, 1), (2, 1, 0), (1, 2, 2)]
    assert GridFunction.indicator(f3, 3, points) == GridFunction.from_dict(f3, 3, dict.fromkeys(points, 1))
    for value in (Fraction(3, 2), 2, Fraction(0)):
        got = GridFunction.constant(f3, 2, value)
        assert got == GridFunction.from_dict(f3, 2, {(a, b): value for a in range(3) for b in range(3)})
    assert GridFunction.constant(f3, 2, 0).is_zero()
    with pytest.raises(ValueError):
        GridFunction.constant(f3, 2, Fraction(-1, 2))


def test_from_dict_groups_each_value_into_one_class(f3):
    # Equal values form one class whether they come as distinct Fraction
    # objects or as ints; classes ascend, their points are sorted and zeros
    # are dropped.  The classes are the weighting the operator reads.
    values = {
        (2, 1): Fraction(1, 2), (0, 2): 1, (1, 1): Fraction(2, 4), (0, 1): Fraction(1),
        (2, 0): 2, (2, 2): 0, (1, 0): Fraction(0), (0, 0): Fraction(1, 2),
    }
    f = GridFunction.from_dict(f3, 2, values)
    assert f.classes == (
        (Fraction(1, 2), ((0, 0), (1, 1), (2, 1))),
        (Fraction(1), ((0, 1), (0, 2))),
        (Fraction(2), ((2, 0),)),
    )
    assert all(type(v) is Fraction for v, _ in f.classes)
    assert f.as_dict() == {pt: Fraction(v) for pt, v in values.items() if v}
    assert GridFunction.indicator(f3, 2, []).is_zero()
    assert apply_maximal_many([f], 2, 1) == [apply_maximal_bruteforce(f, 2, 1)]


def test_oracle_equivalence_small():
    import random

    fld = Field(3)
    rng = random.Random(0)
    for _ in range(5):
        values = {
            (x, y): Fraction(rng.randrange(4))
            for x in range(3)
            for y in range(3)
            if rng.random() < 0.7
        }
        f = GridFunction.from_dict(fld, 2, values)
        assert apply_maximal(f, 2, 1) == apply_maximal_bruteforce(f, 2, 1)


@pytest.mark.parametrize("n, k, p", [(2, 1, 5), (3, 1, 3), (3, 2, 3)])
def test_oracle_equivalence_mixed_denominators(n, k, p):
    # apply_maximal sums ints scaled by the lcm of the denominators; the
    # oracle sums the Fractions themselves.
    import itertools
    import random

    fld = Field(p)
    rng = random.Random(n * 100 + k * 10 + p)
    palette = [Fraction(1, 3), Fraction(2, 7), Fraction(5, 12), Fraction(1), Fraction(9, 4)]
    for _ in range(4):
        values = {
            pt: rng.choice(palette)
            for pt in itertools.product(range(p), repeat=n)
            if rng.random() < 0.6
        }
        f = GridFunction.from_dict(fld, n, values)
        tf = apply_maximal(f, n, k)
        assert tf == apply_maximal_bruteforce(f, n, k)
        assert len({v.denominator for v in tf.values()}) > 1


@pytest.mark.parametrize(
    "n, k, p", [(2, 1, 5), (3, 1, 3), (3, 2, 3), (3, 0, 2), (3, 3, 2), (4, 2, 3), (3, 0, 7), (3, 3, 7)]
)
def test_many_matches_oracle_per_function(n, k, p):
    # One walk for the family: mixed denominators, a zero function, a
    # constant, overlapping supports, one function inside another's support
    # and one spread over two value classes.  (3,0,7) and (3,3,7) sum 343
    # points by keys (a coset per point) and by masks (one coset).
    import itertools
    import random

    fld = Field(p)
    rng = random.Random(n * 100 + k * 10 + p)
    space = list(itertools.product(range(p), repeat=n))
    palette = [Fraction(1, 3), Fraction(2, 7), Fraction(5, 12), Fraction(1), Fraction(9, 4)]
    half = rng.sample(space, len(space) // 2)
    fs = [
        GridFunction.from_dict(fld, n, {pt: rng.choice(palette) for pt in space if rng.random() < 0.6}),
        GridFunction.from_dict(fld, n, {}),
        GridFunction.constant(fld, n, Fraction(3, 2)),
        GridFunction.indicator(fld, n, half),
        GridFunction.from_dict(fld, n, {pt: Fraction(1 + i % 2, 5) for i, pt in enumerate(half[:5])}),
        GridFunction.indicator(fld, n, space[:3]),
    ]
    images = apply_maximal_many(fs, n, k)
    assert len(images) == len(fs)
    for f, tf in zip(fs, images):
        assert tf == apply_maximal_bruteforce(f, n, k) == apply_maximal(f, n, k)
    assert set(images[1].values()) == {0}
    assert apply_maximal_many([], n, k) == []


def test_one_weighting_per_distinct_function(monkeypatch):
    # degenerate_points is the flat_dim_{k-1} object itself: at (3,2,7) the
    # eight named witnesses are seven functions, weighed once each, and the
    # two names share one image and one ratio.
    n, k, fld = 3, 2, Field(7)
    family = default_candidates(n, k, fld, 0)
    assert len(family) == 8 and family["degenerate_points"] is family["flat_dim_1"]
    built = []

    def recorded(weightings, *args):
        built.append(len(weightings))
        return CosetSums(weightings, *args)

    monkeypatch.setattr(kplab.maximal, "CosetSums", recorded)
    images = apply_maximal_many(list(family.values()), n, k)
    names = list(family)
    assert images[names.index("degenerate_points")] is images[names.index("flat_dim_1")]
    result = empirical_norm_search(n, k, fld, Fraction(11, 6), Fraction(22, 5), candidates=family)
    assert built == [7, 7]
    assert result.all_ratios["degenerate_points"] == result.all_ratios["flat_dim_1"]


def test_many_rejects_mixed_families(f3, f5):
    with pytest.raises(ValueError):
        apply_maximal_many([GridFunction.constant(f3, 2), GridFunction.constant(f5, 2)], 2, 1)
    with pytest.raises(ValueError):
        apply_maximal_many([GridFunction.constant(f3, 2), GridFunction.constant(f3, 3)], 2, 1)
    with pytest.raises(ValueError):
        apply_maximal_many([GridFunction.constant(f3, 3), GridFunction.constant(f3, 2)], 2, 1)


def test_search_ratios_equal_operator_ratio(f3):
    # empirical_norm_search walks G(n,k) once for the family; each ratio is
    # bit-identical to the ratio of that witness searched alone.
    family = default_candidates(4, 2, f3, seed=2)
    result = empirical_norm_search(4, 2, f3, Fraction(11, 6), Fraction(22, 5), candidates=family)
    assert result.all_ratios == {
        name: witness_ratio(f, Fraction(11, 6), Fraction(22, 5), 4, 2) for name, f in family.items()
    }


def _plain_sum_fits(values, exp):
    """Whether the float power sum of the values neither overflows nor
    comes out 0, so `norm` takes it as it stands."""
    try:
        total = sum(float(v) ** float(exp) for v in values)
    except OverflowError:
        return False
    return 0 < total < math.inf


@pytest.mark.parametrize(
    "p_exp, q_exp, plain",
    [
        (Fraction(11, 6), Fraction(22, 5), True),
        (2, 2000, False),
        (2000, 10**300, False),
        (10**300, Fraction(7, 2), False),
    ],
    ids=["fits", "q_2000", "q_1e300", "p_1e300"],
)
def test_search_ratios_are_norms_of_the_images(p_exp, q_exp, plain):
    # The search reads the walk's ints and each value class's power once,
    # yet every ratio is norm() of the apply_maximal_many image over norm()
    # of the values point by point, bit for bit: on the default witnesses
    # and on functions of several value classes with mixed denominators,
    # where the power sums fit and where they overflow or underflow and
    # norm() takes the largest value out.
    import itertools
    import random

    n, k, fld = 3, 1, Field(5)
    rng = random.Random(5)
    space = list(itertools.product(range(5), repeat=n))
    palette = [Fraction(1, 3), Fraction(2, 7), Fraction(5, 12), Fraction(1), Fraction(9, 4)]
    family = dict(default_candidates(n, k, fld, 1))
    for i in range(3):
        family[f"mixed_{i}"] = GridFunction.from_dict(
            fld, n, {pt: rng.choice(palette) for pt in space if rng.random() < 0.5}
        )
    family["two_values"] = GridFunction.from_dict(fld, n, {pt: Fraction(1 + i % 2, 3) for i, pt in enumerate(space)})
    assert all(len(family[name].classes) > 1 for name in ("mixed_0", "mixed_1", "mixed_2", "two_values"))
    result = empirical_norm_search(n, k, fld, p_exp, q_exp, candidates=family)
    weight = fld.p ** (-k * (n - k))
    fits = []
    for (name, f), tf in zip(family.items(), apply_maximal_many(list(family.values()), n, k)):
        values = [v for v, points in f.classes for _ in points]
        assert result.all_ratios[name] == norm(tf.values(), q_exp, weight) / norm(values, p_exp)
        fits.append(_plain_sum_fits(tf.values(), q_exp) and _plain_sum_fits(values, p_exp))
    assert all(fits) == plain


def test_mixed_denominators_sum_exactly(f3):
    pi = span_of([(1, 0)], 2, f3)
    values = {(0, 1): Fraction(1, 3), (2, 1): Fraction(2, 7), (1, 2): Fraction(5, 12)}
    f = GridFunction.from_dict(f3, 2, values)
    assert apply_maximal(f, 2, 1)[pi] == Fraction(13, 21)


def test_negative_values_rejected(f3):
    with pytest.raises(ValueError):
        GridFunction.from_dict(f3, 2, {(0, 0): Fraction(-1)})


def _values(f):
    return [v for v, points in f.classes for _ in points]


class TestNorms:
    # L^p norms of f count points (weight 1); L^q norms of Tf weigh each
    # direction of G(n,k) by p^(-k(n-k)).
    def test_lp_constant(self, f3):
        f = GridFunction.constant(f3, 4)
        assert norm(_values(f), 2) == pytest.approx(9.0)

    def test_lp_spike_and_sup(self, f5):
        f = GridFunction.indicator(f5, 2, [(0, 0)])
        assert norm(_values(f), 3) == pytest.approx(1.0)
        # Large exponents approach the sup.
        assert norm([Fraction(1), Fraction(1, 2)], 10**6) == pytest.approx(1.0)

    def test_lp_subspace_indicator(self, f3):
        flat = make_flat(span_of([(1, 0)], 2, f3), (0, 0), f3)
        f = GridFunction.indicator(f3, 2, enumerate_points(flat, f3))
        assert norm(_values(f), 1) == pytest.approx(3.0)

    def test_lq_constant_on_grassmannian(self, f3):
        g = {pi: Fraction(1) for pi in enumerate_grassmannian(2, 1, f3)}
        # |G(2,1)| = 4 with weight 1/3: the Grassmannian's mass is above 1.
        assert norm(g.values(), 1, 3**-1) == 4 / 3

    def test_lq_sup(self, f3):
        # Large exponents approach the sup, 3, whose 3^q overflows a float.
        g = {pi: Fraction(i) for i, pi in enumerate(enumerate_grassmannian(2, 1, f3))}
        assert norm(g.values(), 10**6, 3**-1) == pytest.approx(3.0, rel=1e-5)

    def test_zero_function(self, f3):
        f = GridFunction.from_dict(f3, 2, {})
        assert f.is_zero()
        assert norm(_values(f), 2) == 0.0

    def test_exponent_below_one_rejected(self):
        with pytest.raises(ValueError):
            norm([Fraction(1)], Fraction(1, 2))

    def test_overflow_and_underflow_rescale(self):
        # 1.5^10000 overflows a float and 0.5^2000 underflows to 0; both
        # norms are taken with the largest value out.
        assert math.isclose(norm([Fraction(3, 2)] * 4, 10**4), 1.5 * 4 ** (1 / 10**4), rel_tol=1e-12)
        assert math.isclose(norm([Fraction(1, 2)] * 3, 2000), 0.5 * 3 ** (1 / 2000), rel_tol=1e-12)
        assert math.isclose(norm([Fraction(3, 2)] * 4, 10**4, 2**-10), 1.5 * (4 / 2**10) ** (1 / 10**4),
                            rel_tol=1e-12)

    def test_plain_power_sum_bits_kept(self):
        # The benchmark's family: where the power sum fits, norm is that sum's
        # root bit for bit, so the search's ratios and float ties stay put.
        n, k, fld = 3, 2, Field(7)
        p_exp, q_exp = Fraction(11, 6), Fraction(22, 5)
        family = default_candidates(n, k, fld, 0)
        weight = 7 ** (-k * (n - k))
        for f, tf in zip(family.values(), apply_maximal_many(list(family.values()), n, k)):
            lq = (weight * sum(float(v) ** float(q_exp) for v in tf.values())) ** (1 / float(q_exp))
            lp = sum(float(v) ** float(p_exp) for v in _values(f)) ** (1 / float(p_exp))
            assert norm(tf.values(), q_exp, weight) == lq
            assert norm(_values(f), p_exp) == lp


def test_grassmann_measure_exceeds_one():
    # The weighted mass of G(n,k) is the L^1 norm of Tf = 1: [n k]_p / p^(k(n-k)).
    mass = norm([1] * gaussian_binomial(4, 2, 3), 1, 3**-4)
    assert mass == pytest.approx(130 / 81) and mass > 1


def test_operator_ratio_constant_pinned(f3):
    f = GridFunction.constant(f3, 4)
    # ||Tf||_1 = 9 * 130/81; ||f||_1 = 81.
    assert witness_ratio(f, 1, 1, 4, 2) == pytest.approx(9 * (130 / 81) / 81)


def test_operator_ratio_point_spike(f3):
    f = GridFunction.indicator(f3, 4, [(0, 0, 0, 0)])
    expected = (130 / 81) ** (1 / 4)
    assert witness_ratio(f, 2, 4, 4, 2) == pytest.approx(expected)


class TestConstantWitnessExact:
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_p_power_factor_cancels_at_critical_exponent(self, p):
        n, k = 4, 2
        q = Fraction(4)
        ratio = constant_witness_ratio_exact(n, k, Field(p), Fraction(n, k), q)
        measure_part = PowerProduct(
            [
                (gaussian_binomial(n, k, p), 1 / q),
                (p, Fraction(-k * (n - k)) / q),
            ]
        )
        assert ratio.compare(measure_part) == 0

    def test_matches_float_evaluation(self, f3):
        ratio = constant_witness_ratio_exact(4, 2, f3, Fraction(2), Fraction(4))
        f = GridFunction.constant(f3, 4)
        assert float(ratio) == pytest.approx(witness_ratio(f, 2, 4, 4, 2))


class TestSearch:
    def test_constant_only_family(self, f3):
        f = GridFunction.constant(f3, 3)
        result = empirical_norm_search(3, 1, f3, 2, 2, candidates={"constant": f})
        assert result.best_name == "constant"
        best = result.all_ratios[result.best_name]
        assert best == pytest.approx(float(constant_witness_ratio_exact(3, 1, f3, 2, 2)))

    def test_max_dominates_members(self, f3):
        result = empirical_norm_search(3, 1, f3, 2, 2)
        best = result.all_ratios[result.best_name]
        for name, value in result.all_ratios.items():
            assert best >= value

    def test_deterministic(self, f3):
        a = empirical_norm_search(4, 2, f3, Fraction(11, 6), Fraction(22, 5), seed=1)
        b = empirical_norm_search(4, 2, f3, Fraction(11, 6), Fraction(22, 5), seed=1)
        assert a.best_name == b.best_name
        assert a.all_ratios == b.all_ratios

    def test_default_family_contents(self, f3):
        family = default_candidates(4, 2, f3, seed=0)
        assert "constant" in family and "point" in family
        assert any(name.startswith("flat_dim_") for name in family)
        # The degenerate witness is the (k-1)-flat's indicator under a second
        # name; the generator it is named after stays its definition.
        for n, k, p in ((3, 2, 7), (4, 2, 5), (5, 3, 3), (5, 4, 2)):
            fld = Field(p)
            family = default_candidates(n, k, fld, seed=0)
            assert set(family["degenerate_points"].as_dict()) == gen_degenerate(n, k, k - 1, fld).points


@pytest.mark.parametrize(
    "n,k,p,r,p_exp,q_exp",
    [
        (4, 2, 7, 1, Fraction(11, 6), Fraction(22, 5)),
        (4, 2, 7, 2, Fraction(11, 6), Fraction(22, 5)),
        *((5, 2, 3, r, Fraction(13, 6), Fraction(39, 7)) for r in range(1, 5)),
    ],
)
def test_flat_indicator_closed_form(n, k, p, r, p_exp, q_exp):
    # For f = 1_V with V an r-flat, Tf(pi) = p^dim(V cap pi), and
    # p^((r-j)(k-j)) [r j]_p [n-r k-j]_p directions pi meet V in dimension j.
    # These sizes are far beyond apply_maximal_bruteforce.
    fld = Field(p)
    basis = [tuple(int(i == j) for i in range(n)) for j in range(r)]
    v = span_of(basis, n, fld)
    f = GridFunction.indicator(fld, n, enumerate_points(make_flat(v, (0,) * n, fld), fld))
    tf = apply_maximal(f, n, k)
    for pi, value in tf.items():
        meet = r + k - span_of(v.basis.rows + pi.basis.rows, n, fld).dim
        assert value == p**meet
    histogram = {
        p**j: p ** ((r - j) * (k - j)) * gaussian_binomial(r, j, p) * gaussian_binomial(n - r, k - j, p)
        for j in range(max(0, r + k - n), min(r, k) + 1)
    }
    assert sum(histogram.values()) == gaussian_binomial(n, k, p)
    assert Counter(tf.values()) == histogram
    q = float(q_exp)
    lq = (p ** (-k * (n - k)) * sum(count * value**q for value, count in histogram.items())) ** (1 / q)
    assert math.isclose(norm(tf.values(), q_exp, p ** (-k * (n - k))), lq, rel_tol=1e-12)
    ratio = lq / p ** (r / float(p_exp))
    assert math.isclose(witness_ratio(f, p_exp, q_exp, n, k), ratio, rel_tol=1e-12)
