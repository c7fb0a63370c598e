"""Dense linear algebra over GF(p): reduced row echelon form, annihilator
rows and the exact rank test of points of F^k, the cached `span`.

Vectors are plain tuples of ints in [0, p); the field is passed alongside.
RREF output is canonical: two generating sets with equal span produce
identical bases, which is what lets subspaces and flats be hashed and
compared structurally everywhere else in the library.
"""

from __future__ import annotations

import functools
from typing import Iterable, Optional, Sequence, Tuple

from ._value import _Value, _set
from .field import Field

Vector = Tuple[int, ...]


class RrefBasis(_Value, frozen=True):
    """Rows in reduced row echelon form plus their pivot columns."""

    __slots__ = ("rows", "pivots")

    def __init__(self, rows: Tuple[Vector, ...], pivots: Tuple[int, ...]):
        _set(self, "rows", rows)
        _set(self, "pivots", pivots)

    @property
    def rank(self) -> int:
        return len(self.rows)


def _eliminate(rows: list[list[int]], p: int) -> Tuple[list[list[int]], list[int]]:
    """In-place Gauss-Jordan elimination mod the prime p; returns (reduced
    rows, pivots)."""
    if not rows:
        return [], []
    n = len(rows[0])
    pivots: list[int] = []
    rank = 0
    for col in range(n):
        pivot_row = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        pivot = rows[rank] = [inv * x % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [(x - factor * y) % p for x, y in zip(rows[i], pivot)]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


def rref(vectors: Iterable[Vector], field: Field) -> RrefBasis:
    """Canonical reduced row echelon basis of the span of the input vectors.

    Empty input (or all-zero input) yields the rank-0 basis.
    """
    rows = [list(v) for v in vectors]
    dims = {len(r) for r in rows}
    if len(dims) > 1:
        raise ValueError("vectors of mixed ambient dimension")
    reduced, pivots = _eliminate(rows, field.p)
    return RrefBasis(tuple(tuple(r) for r in reduced), tuple(pivots))


def null_space_rows(basis: RrefBasis, n: int, field: Field) -> Tuple[Vector, ...]:
    """Independent rows spanning {c in F^n : B c = 0} for the row space B,
    one per free column j: 1 at j and -B[i][j] at the pivot of row i.

    Deterministic per basis but not in RREF.
    """
    p = field.p
    pivot_set = set(basis.pivots)
    rows: list[Vector] = []
    for j in range(n):
        if j in pivot_set:
            continue
        vec = [0] * n
        vec[j] = 1
        for row, piv in zip(basis.rows, basis.pivots):
            vec[piv] = -row[j] % p
        rows.append(tuple(vec))
    return tuple(rows)


@functools.lru_cache(maxsize=1 << 16)
def span(points: Tuple[Vector, ...], p: int) -> Tuple[int, Optional[Tuple[Vector, int]]]:
    """(dim, plane) of the affine span of points of F^k over GF(p), by one
    elimination of their differences from the first.  At dim k-1, plane is
    (normal, level), the span being {y : normal . y = level mod p} with the
    normal's first nonzero entry 1; else None.  Point sets recur across
    flats, so results are kept, keyed by the points and p."""
    first = points[0]
    k = len(first)
    rows, pivots = _eliminate([[(a - b) % p for a, b in zip(q, first)] for q in points[1:]], p)
    dim = len(pivots)
    if dim != k - 1:
        return dim, None
    # The one free column j, the column no pivot takes: the null vector is
    # e_j minus each row's entry at j placed at the row's pivot.
    free = k * (k - 1) // 2 - sum(pivots)
    normal = [0] * k
    normal[free] = 1
    for row, piv in zip(rows, pivots):
        normal[piv] = -row[free] % p
    normal = normalized(normal, p)
    return dim, _shared(normal, sum([a * b for a, b in zip(normal, first)]) % p)


@functools.lru_cache(maxsize=1 << 16)
def _shared(normal: Vector, level: int) -> Tuple[Vector, int]:
    """One object per hyperplane, shared by the `span` entries of all the
    point sets spanning it (F_p^k has p (p^k - 1) / (p - 1) hyperplanes)."""
    return normal, level


def normalized(v: Sequence[int], p: int) -> Optional[Vector]:
    """v mod p scaled so its first nonzero entry is 1; None for zero."""
    for lead in v:
        if lead % p:
            inv = pow(lead, -1, p)
            return tuple([x * inv % p for x in v])
    return None
