"""Linear subspaces, affine flats, and their enumeration over GF(p).

Subspaces carry a canonical RREF basis, flats carry a canonical coset
representative (zero in every pivot coordinate of the direction), so
equality and hashing are structural throughout.

Which coset of a direction holds a point is answered by one packed integer
key, the digits a_i . x mod p of the annihilator rows a_i of the direction
(`coset_key`, `membership` and `coset_sums`).  The rows, and a flat's own
key, are kept on the instance the first time they are needed, and so is
the hash of every subspace and flat.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from .field import Field
from .linalg import (
    RrefBasis,
    Vector,
    in_span,
    null_space_rows,
    reduce_vector,
    rref,
    solve_affine_system,
)

W = TypeVar("W")


@dataclass(frozen=True)
class LinearSubspace:
    """A k-dimensional subspace of F^n in canonical RREF form."""

    ambient: int
    basis: RrefBasis

    def __hash__(self) -> int:
        # The dataclass hash of the fields, kept on the instance.
        kept = self.__dict__
        value = kept.get("_hash")
        if value is None:
            value = kept["_hash"] = hash((self.ambient, self.basis))
        return value

    @property
    def dim(self) -> int:
        return self.basis.rank

    def contains(self, v: Vector, field: Field) -> bool:
        return in_span(v, self.basis, field)

    def contains_subspace(self, other: "LinearSubspace", field: Field) -> bool:
        return all(self.contains(row, field) for row in other.basis.rows)


@dataclass(frozen=True)
class AffineFlat:
    """A coset representative + direction subspace; representative canonical."""

    direction: LinearSubspace
    representative: Vector

    def __hash__(self) -> int:
        # The dataclass hash of the fields, kept on the instance.
        kept = self.__dict__
        value = kept.get("_hash")
        if value is None:
            value = kept["_hash"] = hash((self.direction, self.representative))
        return value

    @property
    def ambient(self) -> int:
        return self.direction.ambient

    @property
    def dim(self) -> int:
        return self.direction.dim


def span_of(vectors: Iterable[Vector], n: int, field: Field) -> LinearSubspace:
    basis = rref(vectors, field)
    if basis.rows and len(basis.rows[0]) != n:
        raise ValueError("ambient dimension mismatch")
    return LinearSubspace(n, basis)


def zero_subspace(n: int) -> LinearSubspace:
    return LinearSubspace(n, RrefBasis((), ()))


def make_flat(direction: LinearSubspace, point: Vector, field: Field) -> AffineFlat:
    """Canonical affine flat through `point` with the given direction."""
    rep = reduce_vector(point, direction.basis, field)
    return AffineFlat(direction, rep)


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n."""
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    assert num % den == 0
    return num // den


def _pivot_patterns(n: int, k: int) -> Iterator[Tuple[Tuple[int, ...], List[Tuple[int, int]]]]:
    """Each RREF pivot pattern of a k-subspace of F^n, lexicographically, with
    the (row, column) positions of its free entries."""
    for pivots in itertools.combinations(range(n), k):
        pivot_set = set(pivots)
        yield pivots, [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, n)
            if j not in pivot_set
        ]


def _pattern_subspace(
    n: int, pivots: Tuple[int, ...], free_positions: List[Tuple[int, int]], values: Sequence[int]
) -> LinearSubspace:
    """The subspace of the pivot pattern with these values in its free entries."""
    rows = [[0] * n for _ in pivots]
    for i, piv in enumerate(pivots):
        rows[i][piv] = 1
    for (i, j), v in zip(free_positions, values):
        rows[i][j] = v
    return LinearSubspace(n, RrefBasis(tuple(tuple(r) for r in rows), tuple(pivots)))


def enumerate_grassmannian(n: int, k: int, field: Field) -> Iterator[LinearSubspace]:
    """All k-subspaces of F^n, each exactly once, in deterministic order.

    Pivot patterns are visited lexicographically; for each pattern the free
    entries (RREF shape) run through all field values in ascending order.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    if k == 0:
        yield zero_subspace(n)
        return
    for pivots, free_positions in _pivot_patterns(n, k):
        for values in itertools.product(field.elements(), repeat=len(free_positions)):
            yield _pattern_subspace(n, pivots, free_positions, values)


def unrank_grassmannian(n: int, k: int, field: Field, index: int) -> LinearSubspace:
    """The subspace at position `index` of `enumerate_grassmannian`'s order.

    Each pivot pattern is a block of p^free subspaces; within it the free
    entries are the base-p digits of the offset, the last position fastest.
    """
    total = gaussian_binomial(n, k, field.p)
    if not 0 <= index < total:
        raise IndexError(f"index {index} outside G({n},{k}) of size {total}")
    if k == 0:
        return zero_subspace(n)
    p = field.p
    for pivots, free_positions in _pivot_patterns(n, k):
        block = p ** len(free_positions)
        if index < block:
            break
        index -= block
    values = [0] * len(free_positions)
    for pos in reversed(range(len(values))):
        index, values[pos] = divmod(index, p)
    return _pattern_subspace(n, pivots, free_positions, values)


def enumerate_points(flat: AffineFlat, field: Field) -> Iterator[Vector]:
    """All p^dim points of the flat, deterministically: the representative
    plus every combination of the basis rows, the first coefficient varying
    slowest.  Built by sums, adding every multiple of each row (last to
    first) to the points built so far."""
    p = field.p
    points = [flat.representative]
    for row in reversed(flat.direction.basis.rows):
        shifted = list(points)
        for c in range(1, p):
            shift = [c * y for y in row]
            shifted += [tuple([(a + b) % p for a, b in zip(x, shift)]) for x in points]
        points = shifted
    yield from points


def _packed_key(point: Vector, rows: Tuple[Vector, ...], p: int) -> int:
    """The coset key of `point`: the residues a . x mod p of the annihilator
    rows a, read as the base-p digits of one int.  Two points share a key
    exactly when their difference lies in the direction."""
    key = 0
    for row in rows:
        key = key * p + sum(map(mul, row, point)) % p
    return key


def _annihilator(direction: LinearSubspace, field: Field) -> Tuple[Vector, ...]:
    """Independent rows of the functionals vanishing on `direction`, computed
    once per subspace instance (which, unlike its basis, fixes the ambient n)."""
    cached = direction.__dict__.get("_annihilator")
    if cached is None or cached[0] != field.p:
        cached = (field.p, null_space_rows(direction.basis, direction.ambient, field))
        object.__setattr__(direction, "_annihilator", cached)
    return cached[1]


def coset_key(point: Vector, direction: LinearSubspace, field: Field) -> int:
    """The key of the coset of `direction` holding `point`, as `coset_sums`
    keys it."""
    return _packed_key(point, _annihilator(direction, field), field.p)


def membership(point: Vector, flat: AffineFlat, field: Field) -> bool:
    """Whether the point lies on the flat: its coset key under the flat's
    direction equals the flat's own, which is computed once per flat."""
    cached = flat.__dict__.get("_key")
    if cached is None or cached[0] != field.p:
        rows = _annihilator(flat.direction, field)
        cached = (field.p, rows, _packed_key(flat.representative, rows, field.p))
        object.__setattr__(flat, "_key", cached)
    p, rows, key = cached
    return _packed_key(point, rows, p) == key


def coset_sums(
    weighted: Iterable[Tuple[Vector, W]], direction: LinearSubspace, field: Field
) -> Dict[int, W]:
    """Total weight per coset of `direction`, keyed by the coset's packed
    integer key (the key `membership` and `coset_key` use); cosets holding no
    point are absent."""
    p = field.p
    rows = _annihilator(direction, field)
    sums: Dict[int, W] = {}
    for point, weight in weighted:
        key = _packed_key(point, rows, p)
        sums[key] = sums.get(key, 0) + weight
    return sums


def flat_equations(flat: AffineFlat, field: Field) -> List[Tuple[Vector, int]]:
    """The n - dim linear equations c . x = c . rep cutting out the flat."""
    p = field.p
    return [
        (c, sum(map(mul, c, flat.representative)) % p)
        for c in _annihilator(flat.direction, field)
    ]


def intersect_flats(flats: Sequence[AffineFlat], field: Field) -> Optional[AffineFlat]:
    """Common solution set of the flats, canonicalized; None if empty."""
    if not flats:
        raise ValueError("empty flat list")
    n = flats[0].ambient
    if any(f.ambient != n for f in flats):
        raise ValueError("ambient dimension mismatch")
    equations: List[Tuple[Vector, int]] = []
    for f in flats:
        equations.extend(flat_equations(f, field))
    solution = solve_affine_system(equations, n, field)
    if solution is None:
        return None
    particular, direction_basis = solution
    return make_flat(LinearSubspace(n, direction_basis), particular, field)


def affine_hull(points: Sequence[Vector], field: Field) -> Tuple[int, AffineFlat]:
    """Dimension and canonical flat of the affine span of the points."""
    if not points:
        raise ValueError("affine hull of empty point set")
    base = points[0]
    p = field.p
    diffs = [tuple((a - b) % p for a, b in zip(q, base)) for q in points[1:]]
    direction = span_of(diffs, len(base), field)
    return direction.dim, make_flat(direction, base, field)


def local_coordinates(points: Iterable[Vector], flat: AffineFlat) -> Dict[Vector, Vector]:
    """Each point on the flat mapped to its coordinates in F^k: its entries in
    the pivot columns of the direction.  The representative is zero there,
    so a point is the representative plus these entries times the basis
    rows, and the map is an affine bijection of the flat onto F^k."""
    pivots = flat.direction.basis.pivots
    return {x: tuple(x[j] for j in pivots) for x in points}


def is_direction_separated(flats: Sequence[AffineFlat]) -> bool:
    directions = {f.direction for f in flats}
    return len(directions) == len(flats)


def enumerate_coset_representatives(direction: LinearSubspace, field: Field) -> Iterator[Vector]:
    """Canonical representatives of all p^(n-k) cosets of the subspace."""
    n = direction.ambient
    pivot_set = set(direction.basis.pivots)
    free_cols = [j for j in range(n) if j not in pivot_set]
    for values in itertools.product(field.elements(), repeat=len(free_cols)):
        rep = [0] * n
        for j, v in zip(free_cols, values):
            rep[j] = v
        yield tuple(rep)
