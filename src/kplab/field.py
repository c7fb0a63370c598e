"""Exact arithmetic in prime fields GF(p)."""

from __future__ import annotations

import itertools
from typing import Collection, Iterator

MAX_PRIME = 2**16


class NotPrimeError(ValueError):
    pass


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Field:
    """The prime field GF(p).  Immutable; arithmetic works on plain residues.

    The library stores field elements as bare ints in [0, p) and reduces
    sums, products and inverses (`pow(a, -1, p)`) mod `p` inline; a Field
    holds the modulus and the element range.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not 2 <= p <= MAX_PRIME:
            raise NotPrimeError(f"modulus {p} outside [2, 2^16]")
        if not _is_prime(p):
            raise NotPrimeError(f"modulus {p} is not prime")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    def __reduce__(self):
        # Rebuilt by the constructor: the default would set `p` by setattr.
        return Field, (self.p,)

    def elements(self) -> range:
        """Residues 0, 1, ..., p-1 in ascending order."""
        return range(self.p)

    def points_outside(self, points: Collection, n: int) -> Iterator:
        """The points, in order, that are not length-n tuples of residues in
        range(p); valid input is checked as a whole, with no per-point calls."""
        residues = frozenset(self.elements())
        if set(map(type, points)) <= {tuple} and set(map(len, points)) <= {n}:
            if residues.issuperset(itertools.chain.from_iterable(points)):
                return iter(())
        return (pt for pt in points if type(pt) is not tuple or len(pt) != n or not residues.issuperset(pt))

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"Field({self.p})"

