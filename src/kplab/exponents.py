"""Exact rational exponent algebra.

Everything in this module is computed with `fractions.Fraction`; no floating
point enters any verdict.  The central helper is `PowerProduct`, a product of
integer bases raised to rational exponents, which supports exact ordering
comparisons via integer cross-multiplication.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Iterable, Tuple

from ._value import _Value, _set

Rational = Fraction


class ExponentDomainError(ValueError):
    """Raised when an exponent-formula parameter is out of range."""


class ConvexityHypothesisError(ValueError):
    """Raised when the (n-k)b + c >= 1 hypothesis fails (needs n >= k+2)."""


class PowerProduct:
    """An exact positive real of the form ``prod base_i ** exp_i``.

    Bases are positive integers (a base <= 0 is refused), exponents are
    rationals.  Comparisons are exact: rational exponents are cleared to a
    common denominator and the two sides are compared as big integers.
    """

    __slots__ = ("_factors",)

    def __init__(self, factors: Iterable[Tuple[int, Rational]] = ()):
        merged: dict[int, Fraction] = {}
        for base, exp in factors:
            if base <= 0:
                raise ValueError(f"PowerProduct base {base} is not positive")
            exp = Fraction(exp)
            if exp == 0 or base == 1:
                continue
            merged[base] = merged.get(base, Fraction(0)) + exp
        self._factors = {b: e for b, e in merged.items() if e != 0}

    @classmethod
    def integer(cls, n: int) -> "PowerProduct":
        return cls([(n, Fraction(1))])

    def items(self):
        return sorted(self._factors.items())

    def __mul__(self, other: "PowerProduct") -> "PowerProduct":
        return PowerProduct([*self._factors.items(), *other._factors.items()])

    def __truediv__(self, other: "PowerProduct") -> "PowerProduct":
        return self * other ** Fraction(-1)

    def __pow__(self, exp) -> "PowerProduct":
        exp = Fraction(exp)
        return PowerProduct([(b, e * exp) for b, e in self._factors.items()])

    def __float__(self) -> float:
        return math.exp(sum(float(e) * math.log(b) for b, e in self._factors.items()))

    def compare(self, other: "PowerProduct") -> int:
        """Exact three-way comparison: -1, 0 or 1."""
        diff: dict[int, Fraction] = dict(self._factors)
        for b, e in other._factors.items():
            diff[b] = diff.get(b, Fraction(0)) - e
        diff = {b: e for b, e in diff.items() if e != 0}
        if not diff:
            return 0
        scale = math.lcm(*(e.denominator for e in diff.values()))
        lhs = rhs = 1
        for b, e in diff.items():
            power = int(e * scale)
            if power > 0:
                lhs *= b ** power
            else:
                rhs *= b ** (-power)
        return (lhs > rhs) - (lhs < rhs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerProduct):
            return NotImplemented
        return self.compare(other) == 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __lt__(self, other):
        return self.compare(other) < 0

    def __repr__(self):
        parts = " * ".join(f"{b}^{e}" for b, e in self.items())
        return f"PowerProduct({parts or '1'})"


class BoundExpr(_Value, frozen=True):
    """Exponent triple for an expression |P|^a |Pi|^b |F|^c."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a: Rational, b: Rational, c: Rational):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)

    def evaluate(self, num_points: int, num_flats: int, p: int) -> PowerProduct:
        return PowerProduct([(num_points, self.a), (num_flats, self.b), (p, self.c)])


def convex_combine(b1: BoundExpr, b2: BoundExpr, t: Rational) -> BoundExpr:
    t = Fraction(t)
    if not 0 <= t <= 1:
        raise ExponentDomainError(f"convex weight {t} outside [0, 1]")
    s = 1 - t
    return BoundExpr(t * b1.a + s * b2.a, t * b1.b + s * b2.b, t * b1.c + s * b2.c)


def alpha(k: int) -> Rational:
    """Convex weight mixing the two pair-count incidence bounds."""
    if k < 2:
        raise ExponentDomainError(f"alpha requires k >= 2, got {k}")
    value = Fraction(k**3 + k**2 - 4 * k - 4, k**3 + k**2 - 2)
    assert 0 <= value <= 1
    return value


def alpha_r(k: int, r: int) -> Rational:
    """Convex weight mixing the two chain-count incidence bounds."""
    if k < 2 or not 1 <= r <= k - 1:
        raise ExponentDomainError(f"alpha_r requires k >= 2 and 1 <= r <= k-1, got k={k}, r={r}")
    d = k * k + 2 * k + 2
    value = Fraction(k * (k + 1) * (r + 1) - r * d, d) * Fraction((k + 1) * (r + 1) - k, k * r)
    assert 0 <= value <= 1
    return value


def main_term_exponents(k: int) -> BoundExpr:
    """Exponents of the leading term of the main incidence bound."""
    if k < 2:
        raise ExponentDomainError(f"main bound requires k >= 2, got {k}")
    d = k * k + 2 * k + 2
    return BoundExpr(
        Fraction(k * (k + 1), d),
        Fraction(k * k + k + 2, d),
        Fraction(k * (k + 1), d),
    )


def main_term_abc(k: int) -> Tuple[Rational, Rational, Rational]:
    """The (a, b, c) parametrization |P|^a |Pi|^{1-b} |F|^{k(1-c)} of the
    leading main-bound term, as consumed by `max_ick_derive`."""
    expr = main_term_exponents(k)
    a = expr.a
    b = 1 - expr.b
    c = 1 - expr.c / k
    return (a, b, c)


def verify_identity_main(k: int) -> bool:
    """Check that the alpha(k) convex combination of the two pair-count
    bounds reproduces the leading main-bound term, exactly."""
    pair_bound = BoundExpr(
        Fraction(k + 1, k + 2), Fraction(k + 1, k + 2), Fraction(k - 1, k + 2)
    )
    crude_bound = BoundExpr(
        Fraction(k + 1, 2 * k + 1), Fraction(2 * k, 2 * k + 1), Fraction(k * k - 1, 2 * k + 1)
    )
    combined = convex_combine(pair_bound, crude_bound, alpha(k))
    return combined == main_term_exponents(k)


class ChainIdentityResult(Enum):
    HOLDS_AS_PRINTED = "holds_as_printed"
    HOLDS_WITH_CORRECTED_DENOMINATOR = "holds_with_corrected_denominator"
    FAILS = "fails"


def verify_identity_chain(k: int, r: int) -> ChainIdentityResult:
    """Check the alpha_r(k) convex combination of the two chain-count bounds
    against the leading main-bound term.

    The second chain bound's middle exponent is tried with two denominators:
    the one appearing in print, (k+1)(r+1)-k, and the corrected (k+1)(r+1)
    matching the other two exponents of that bound.  Reports which variant
    reproduces the target.
    """
    d1 = (k + 1) * (r + 1) - k
    d2 = (k + 1) * (r + 1)
    weight = alpha_r(k, r)
    target = main_term_exponents(k)
    first = BoundExpr(
        Fraction(r * (k + 1), d1), Fraction(d1 - r, d1), Fraction(k - r, d1)
    )
    printed = BoundExpr(
        Fraction(r * (k + 1), d2), Fraction(d2 - r, d1), Fraction(k * k + k - r, d2)
    )
    corrected = BoundExpr(
        Fraction(r * (k + 1), d2), Fraction(d2 - r, d2), Fraction(k * k + k - r, d2)
    )
    if convex_combine(first, printed, weight) == target:
        return ChainIdentityResult.HOLDS_AS_PRINTED
    if convex_combine(first, corrected, weight) == target:
        return ChainIdentityResult.HOLDS_WITH_CORRECTED_DENOMINATOR
    return ChainIdentityResult.FAILS


def max_ick_derive(a: Rational, b: Rational, c: Rational, n: int, k: int) -> Tuple[Rational, Rational]:
    """Derive the (p, q) exponent pair from an incidence bound of the form
    |P|^a |Pi|^{1-b} |F|^{k(1-c)}: p = ((n-k)b + c)/a and
    q = min{(n-k)p', ((n-k)b + c)/b}."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    for name, value in (("a", a), ("b", b), ("c", c)):
        if not 0 <= value <= 1:
            raise ExponentDomainError(f"exponent {name}={value} outside [0, 1]")
    threshold = (n - k) * b + c
    if threshold < 1:
        raise ConvexityHypothesisError(
            f"(n-k)b + c = {threshold} < 1: the convex-combination step needs "
            f"n >= k+2 (here n={n}, k={k})"
        )
    p = threshold / a
    p_conj = p / (p - 1)
    q = min((n - k) * p_conj, threshold / b)
    return (p, q)


def theorem_exponents(n: int, k: int) -> Tuple[Rational, Rational]:
    """Endpoint (p, q) of the boundedness range: p = (kn+k+1)/(k(k+1)),
    q = (n-k)p'."""
    if not 2 <= k <= n - 2:
        raise ExponentDomainError(f"need 2 <= k <= n-2, got n={n}, k={k}")
    p = Fraction(k * n + k + 1, k * (k + 1))
    p_conj = p / (p - 1)
    return (p, (n - k) * p_conj)


def best_possible_exponents(n: int, k: int) -> BoundExpr:
    """The conjectured best possible incidence bound
    |P|^{k/n} |Pi|^{(n-1)/n} |F|^{k(n-k)/n}."""
    return BoundExpr(Fraction(k, n), Fraction(n - 1, n), Fraction(k * (n - k), n))

