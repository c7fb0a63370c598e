"""Dense linear algebra over GF(p): reduced row echelon form, annihilator
rows, affine linear-system solving, and the exact rank test of vectors in
F^k by signed minors.

Vectors are plain tuples of ints in [0, p); the field is passed alongside.
RREF output is canonical: two generating sets with equal span produce
identical bases, which is what lets subspaces and flats be hashed and
compared structurally everywhere else in the library.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from .field import Field

Vector = Tuple[int, ...]


@dataclass(frozen=True)
class RrefBasis:
    """Rows in reduced row echelon form plus their pivot columns."""

    rows: Tuple[Vector, ...]
    pivots: Tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.rows)


def _eliminate(rows: list[list[int]], field: Field) -> Tuple[list[list[int]], list[int]]:
    """In-place Gauss-Jordan elimination; returns (reduced rows, pivots)."""
    if not rows:
        return [], []
    n = len(rows[0])
    p = field.p
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
        inv = field.inv(rows[rank][col])
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
    reduced, pivots = _eliminate(rows, field)
    return RrefBasis(tuple(tuple(r) for r in reduced), tuple(pivots))


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


def solve_affine_system(
    equations: Sequence[Tuple[Vector, int]], n: int, field: Field
) -> Optional[Tuple[Vector, RrefBasis]]:
    """Solve the stacked system {c . x = d} exactly.

    Returns (particular solution with free coordinates set to 0, canonical
    basis of the homogeneous solutions), or None if the system is
    inconsistent. An empty equation list describes all of F^n.
    """
    aug = [list(c) + [d % field.p] for c, d in equations]
    reduced, pivots = _eliminate(aug, field)
    if n in pivots:
        return None
    coeff_basis = RrefBasis(
        tuple(tuple(r[:n]) for r in reduced), tuple(pivots)
    )
    particular = [0] * n
    for row, piv in zip(reduced, pivots):
        particular[piv] = row[n]
    return tuple(particular), rref(null_space_rows(coeff_basis, n, field), field)


def _det(rows: Sequence[Vector]) -> int:
    """Integer determinant of a small square matrix, by Laplace expansion
    along the first row (the callers' matrices are at most (k-1) x (k-1))."""
    if len(rows) < 2:
        return rows[0][0] if rows else 1
    first, rest = rows[0], rows[1:]
    return sum(
        (-1) ** j * a * _det([r[:j] + r[j + 1 :] for r in rest])
        for j, a in enumerate(first)
        if a
    )


@functools.lru_cache(maxsize=1 << 16)
def hyperplane(points: Tuple[Vector, ...], p: int) -> Optional[Tuple[Vector, int]]:
    """The affine hyperplane of F^k through k points, as (l, c) with
    {y : l . y = c mod p} the hyperplane, or None when the points span less.

    l is the normal of the k-1 differences from the first point: the signed
    (k-1)-minors (-1)^j det(M without column j) of their matrix M, scaled so
    the first nonzero entry is 1.  It is nonzero exactly when the
    differences are independent, and then it is the one functional (up to
    scale) vanishing on their span.  By Laplace expansion along a further
    difference d, det(M; d) = +-l . d times a unit, so k+1 points span F^k
    exactly when the hyperplane of the first k exists and the last is off
    it.  Inputs recur across flats (at most p^(k*k) distinct ones), so
    results are kept."""
    first = points[0]
    diffs = [tuple([(a - b) % p for a, b in zip(q, first)]) for q in points[1:]]
    minors = [(-1) ** j * _det([v[:j] + v[j + 1 :] for v in diffs]) for j in range(len(first))]
    normal = normalized(minors, p)
    if normal is None:
        return None
    return normal, sum([a * b for a, b in zip(normal, first)]) % p


def normalized(v: Sequence[int], p: int) -> Optional[Vector]:
    """v mod p scaled so its first nonzero entry is 1; None for zero."""
    for lead in v:
        if lead % p:
            inv = pow(lead, -1, p)
            return tuple([x * inv % p for x in v])
    return None
