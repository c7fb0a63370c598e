"""Exact rational exponent algebra: every comparison here must be decidable
without floating point, so most tests assert against Fraction literals."""

from fractions import Fraction

import pytest

from kplab.exponents import (
    BoundExpr,
    ChainIdentityResult,
    ConvexityHypothesisError,
    ExponentDomainError,
    PowerProduct,
    alpha,
    alpha_r,
    best_possible_exponents,
    convex_combine,
    main_term_abc,
    main_term_exponents,
    max_ick_derive,
    theorem_exponents,
    verify_identity_chain,
    verify_identity_main,
)


class TestPowerProduct:
    def test_exact_comparison_cross_multiplies(self):
        # 2^(3/2) vs 3: 2^3 = 8 < 9 = 3^2.
        assert PowerProduct([(2, Fraction(3, 2))]) < PowerProduct.integer(3)
        assert PowerProduct([(8, Fraction(1, 3))]) == PowerProduct.integer(2)

    def test_near_tie_is_resolved_exactly(self):
        # 2^100 and (2^100 + 1): floats cannot tell these apart.
        big = 2**100
        assert PowerProduct.integer(big) < PowerProduct.integer(big + 1)

    def test_algebra(self):
        a = PowerProduct([(2, Fraction(1, 2)), (3, Fraction(1))])
        b = PowerProduct([(2, Fraction(1, 2))])
        assert a / b == PowerProduct.integer(3)
        assert b * b == PowerProduct.integer(2)
        assert (a ** Fraction(0)) == PowerProduct([])

    def test_zero_handling(self):
        # Every base is positive: a base of 0 or below is refused, whatever
        # its exponent.
        for base, exp in ((0, Fraction(1)), (0, Fraction(-1)), (0, Fraction(0)), (-2, Fraction(1))):
            with pytest.raises(ValueError):
                PowerProduct([(base, exp)])
        with pytest.raises(ValueError):
            PowerProduct.integer(0)

    def test_float_rendering(self):
        value = PowerProduct([(2, Fraction(1, 2))])
        assert abs(float(value) - 2**0.5) < 1e-12


class TestAlpha:
    def test_pinned_values(self):
        assert alpha(2) == 0
        assert alpha(3) == Fraction(10, 17)
        assert 0 < alpha(10) < 1

    def test_domain(self):
        with pytest.raises(ExponentDomainError):
            alpha(1)

    def test_alpha_r_pinned_values(self):
        assert alpha_r(3, 1) == Fraction(35, 51)
        assert alpha_r(3, 2) == Fraction(3, 17)
        assert 0 <= alpha_r(4, 2) <= 1
        assert 0 <= alpha_r(5, 3) <= 1

    def test_alpha_r_domain(self):
        with pytest.raises(ExponentDomainError):
            alpha_r(3, 3)
        with pytest.raises(ExponentDomainError):
            alpha_r(3, 0)


def test_convex_combine():
    b1 = BoundExpr(Fraction(1), Fraction(0), Fraction(0))
    b2 = BoundExpr(Fraction(0), Fraction(1), Fraction(0))
    assert convex_combine(b1, b2, Fraction(1)) == b1
    assert convex_combine(b1, b2, Fraction(0)) == b2
    mid = convex_combine(b1, b2, Fraction(1, 2))
    assert mid == BoundExpr(Fraction(1, 2), Fraction(1, 2), Fraction(0))
    with pytest.raises(ExponentDomainError):
        convex_combine(b1, b2, Fraction(3, 2))


def test_main_term_exponents_pinned():
    assert main_term_exponents(2) == BoundExpr(
        Fraction(3, 5), Fraction(4, 5), Fraction(3, 5)
    )
    assert main_term_exponents(3) == BoundExpr(
        Fraction(12, 17), Fraction(14, 17), Fraction(12, 17)
    )


def test_verify_identity_main_range():
    assert all(verify_identity_main(k) for k in range(2, 51))


class TestChainIdentity:
    def test_corrected_denominator_at_3_2(self):
        assert (
            verify_identity_chain(3, 2)
            == ChainIdentityResult.HOLDS_WITH_CORRECTED_DENOMINATOR
        )

    def test_variant_consistent_over_grid(self):
        verdicts = {
            verify_identity_chain(k, r)
            for k in range(2, 11)
            for r in range(1, k - 1)
        }
        assert verdicts == {ChainIdentityResult.HOLDS_WITH_CORRECTED_DENOMINATOR}


class TestMaxIckDerive:
    def test_pinned_endpoint_4_2(self):
        a, b, c = main_term_abc(2)
        assert (a, b, c) == (Fraction(3, 5), Fraction(1, 5), Fraction(7, 10))
        p, q = max_ick_derive(a, b, c, 4, 2)
        assert p == Fraction(11, 6)
        assert q == Fraction(22, 5)

    def test_matches_theorem_over_grid(self):
        for n in range(4, 13):
            for k in range(2, n - 1):
                derived = max_ick_derive(*main_term_abc(k), n, k)
                assert derived == theorem_exponents(n, k)

    def test_hypothesis_failure_at_n_eq_k_plus_1(self):
        with pytest.raises(ConvexityHypothesisError):
            max_ick_derive(*main_term_abc(3), 4, 3)

    def test_out_of_range_exponent_rejected(self):
        with pytest.raises(ExponentDomainError):
            max_ick_derive(Fraction(3, 2), Fraction(1, 5), Fraction(1, 2), 5, 2)


def test_theorem_exponents_pinned():
    assert theorem_exponents(4, 2) == (Fraction(11, 6), Fraction(22, 5))
    assert theorem_exponents(5, 2) == (Fraction(13, 6), Fraction(39, 7))
    assert theorem_exponents(5, 3) == (Fraction(19, 12), Fraction(38, 7))


def test_best_possible_exponents():
    assert best_possible_exponents(4, 2) == BoundExpr(
        Fraction(1, 2), Fraction(3, 4), Fraction(1)
    )


def degenerate_coincidence_exponents(n, k, r):
    """Exponents of |F| for the four incidence quantities evaluated at
    |P| = |F|^r, |Pi| = |F|^{(k-r)(n-k)}; all four coincide."""
    if not 1 <= r < k <= n - 1:
        raise ExponentDomainError(f"need 1 <= r < k <= n-1, got n={n}, k={k}, r={r}")
    ep = Fraction(r)
    epi = Fraction((k - r) * (n - k))
    worst = ep + epi
    trivial = epi + r
    two_ends = ep + Fraction(r, r + 1) * epi + Fraction((k - r) * (n - k), r + 1)
    best = Fraction(k, n) * ep + Fraction(n - 1, n) * epi + Fraction(k * (n - k), n)
    return (worst, trivial, two_ends, best)


def test_degenerate_coincidence_all_four_agree():
    for n, k, r in [(4, 2, 1), (5, 3, 1), (5, 3, 2), (6, 4, 2)]:
        values = degenerate_coincidence_exponents(n, k, r)
        assert len(set(values)) == 1
        assert values[0] == r + (k - r) * (n - k)
