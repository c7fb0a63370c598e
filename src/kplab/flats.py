"""Linear subspaces, affine flats, and their enumeration over GF(p).

Subspaces carry a canonical RREF basis, flats carry a canonical coset
representative (zero in every pivot coordinate of the direction), so
equality and hashing are structural throughout.

Which coset of a direction holds a point is answered by one map, the packed
integer key: the digits a_j . x mod p of the annihilator rows a_j of the
direction, one row per free column j.  `coset_key`, `membership` and
`LinearSubspace.contains` read it for one point, `CosetKeys` for a fixed
point set under any direction at once (by shared prefixes), `make_flat` writes
its digits into the free columns of the canonical representative (they are
the entries that eliminating the pivots by the basis rows leaves there), and
`through_key` reads the digits of a direction vector to name the (k+1)-flat
it spans with a k-flat (`flats_through`).
The rows are kept on the subspace instance the first time they are needed,
a flat's own key is kept on it when `make_flat` builds it, and the hash of
every subspace and flat is kept the first time it is asked for.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import mul
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .field import Field
from .linalg import RrefBasis, Vector, normalized, null_space_rows, rref


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
        """Whether v lies in the subspace: its coset key is the zero coset's."""
        return coset_key(v, self, field) == 0

    def contains_subspace(self, other: "LinearSubspace", field: Field) -> bool:
        return all(self.contains(row, field) for row in other.basis.rows)


@dataclass(frozen=True)
class AffineFlat:
    """Direction + canonical coset representative; `make_flat` builds it and keeps its key."""

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


def difference_basis(points: Sequence[Vector], field: Field) -> RrefBasis:
    """RREF basis of the differences of the points from the first one: the
    direction of their affine span, its rank the span's dimension."""
    base, p = points[0], field.p
    return rref([tuple([(a - b) % p for a, b in zip(q, base)]) for q in points[1:]], field)


def _at_free_columns(direction: LinearSubspace, values: Iterable[int]) -> Vector:
    """The vector with `values` in the free (non-pivot) columns of the
    direction, ascending, and zero in its pivot columns."""
    pivots = direction.basis.pivots
    values = iter(values)
    return tuple([0 if j in pivots else next(values) for j in range(direction.ambient)])


def make_flat(direction: LinearSubspace, point: Vector, field: Field) -> AffineFlat:
    """Canonical affine flat through `point` with the given direction: the
    digits of the point's coset key in the free columns, zero at the pivots.
    The key is kept on the flat for `membership`."""
    p = field.p
    rows = _annihilator(direction, field)
    digits = [sum(map(mul, row, point)) % p for row in rows]
    flat = AffineFlat(direction, _at_free_columns(direction, digits))
    key = 0
    for digit in digits:
        key = key * p + digit
    object.__setattr__(flat, "_key", (p, rows, key))
    return flat


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


def _pivot_patterns(n: int, k: int) -> Iterator[Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]]:
    """Each RREF pivot pattern of a k-subspace of F^n, lexicographically, with
    the (row, column) positions of its free entries."""
    for pivots in itertools.combinations(range(n), k):
        pivot_set = set(pivots)
        yield pivots, tuple(
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, n)
            if j not in pivot_set
        )


@functools.lru_cache(maxsize=None)
def _pattern_blocks(
    n: int, k: int, p: int
) -> Tuple[int, Tuple[Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...], int], ...]]:
    """|G(n,k)| over GF(p) and its pivot patterns in enumeration order, each
    with its free positions and its block size p^free; computed once per
    (n, k, p) for `unrank_grassmannian`."""
    total = gaussian_binomial(n, k, p)
    return total, tuple(
        (pivots, free_positions, p ** len(free_positions))
        for pivots, free_positions in _pivot_patterns(n, k)
    )


def _pattern_subspace(
    n: int, pivots: Tuple[int, ...], free_positions: Sequence[Tuple[int, int]], values: Sequence[int]
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
    total, blocks = _pattern_blocks(n, k, field.p)
    if not 0 <= index < total:
        raise IndexError(f"index {index} outside G({n},{k}) of size {total}")
    for pivots, free_positions, block in blocks:
        if index < block:
            break
        index -= block
    values = [0] * len(free_positions)
    for pos in reversed(range(len(values))):
        index, values[pos] = divmod(index, field.p)
    return _pattern_subspace(n, pivots, free_positions, values)


@functools.lru_cache(maxsize=None)
def _pivot_columns(p: int, k: int) -> Tuple[Tuple[int, ...], ...]:
    """Coordinate i of each point of F^k in `itertools.product` order, for
    i < k: each value repeated p^(k-1-i) times, the run repeated p^i times.
    Computed once per (p, k) for `enumerate_points`."""
    return tuple(
        tuple([a for a in range(p) for _ in range(p ** (k - 1 - i))] * p**i)
        for i in range(k)
    )


def enumerate_points(flat: AffineFlat, field: Field) -> Iterator[Vector]:
    """All p^dim points of the flat, deterministically: the representative
    plus every combination of the basis rows, the first coefficient varying
    slowest.  Built one column at a time and zipped: the representative is
    zero at the pivots and each row has a 1 at its own pivot and 0 at the
    others, so pivot column i is coefficient i (`_pivot_columns`); free
    column j starts at the representative's entry and is expanded by each
    row, first to last, with that row's multiples row[j] * c mod p."""
    p = field.p
    basis = flat.direction.basis
    pivot_columns = dict(zip(basis.pivots, _pivot_columns(p, basis.rank)))
    columns = []
    for j, x in enumerate(flat.representative):
        if j in pivot_columns:
            columns.append(pivot_columns[j])
            continue
        values = [x]
        for row in basis.rows:
            steps = [row[j] * c % p for c in range(p)]
            values = [(v + s) % p for v in values for s in steps]
        columns.append(values)
    yield from zip(*columns)


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
    """The key of the coset of `direction` holding `point`, as `CosetKeys`
    gives it for a point set."""
    return _packed_key(point, _annihilator(direction, field), field.p)


def membership(point: Vector, flat: AffineFlat, field: Field) -> bool:
    """Whether the point lies on the flat: its coset key under the flat's
    direction equals the flat's own, kept by `make_flat`."""
    p, rows, key = flat.__dict__["_key"]
    if p != field.p:
        raise ValueError(f"flat built over GF({p}) tested over GF({field.p})")
    return _packed_key(point, rows, p) == key


class CosetKeys:
    """The coset keys of one fixed point set under any direction, all at once.

    The points are kept sorted and distinct (`points`), with their
    lexicographic prefixes: level i holds each distinct prefix x_0..x_i as
    the position of its parent prefix x_0..x_(i-1) one level up and its last
    entry x_i, so the last level holds the points themselves, in order.
    `keys(direction)` sums each annihilator row of the direction along the
    levels, one step per prefix, so points that share a prefix share its
    partial sum; each row's sums are reduced mod p once, at the end, and
    packed into the base-p key `coset_key` gives.  A level that extends each
    prefix of the level above exactly once needs no gather, and is left out
    when all its entries are zero.  A direction
    costs (n-k) steps per prefix, and `levels` holds at most
    min(n |points|, p + p^2 + ... + p^n) prefixes.
    """

    def __init__(self, points: Iterable[Vector], field: Field):
        self.field = field
        self.points = sorted(set(points))
        if len(set(map(len, self.points))) > 1:
            raise ValueError("ambient dimension mismatch")
        self.n = len(self.points[0]) if self.points else 0
        # (column i, parent positions or None when they are 0, 1, 2, ..., entries x_i)
        self.levels: List[Tuple[int, Optional[List[int]], List[int]]] = []
        at = [0] * len(self.points)  # each point's prefix position one level up
        width = 1  # the number of prefixes one level up
        for i in range(self.n):
            parents: List[int] = []
            digits: List[int] = []
            below: List[int] = []
            last = None
            for q, x in zip(at, self.points):
                node = (q, x[i])
                if node != last:
                    last = node
                    parents.append(q)
                    digits.append(x[i])
                below.append(len(digits) - 1)
            at = below
            if len(digits) == width:
                if not any(digits):
                    continue
                parents = None
            self.levels.append((i, parents, digits))
            width = len(digits)

    def keys(self, direction: LinearSubspace) -> List[int]:
        """`coset_key(x, direction)` for each x in `points`, in order."""
        if not self.points:
            return []
        if direction.ambient != self.n:
            raise ValueError(f"direction lives in F^{direction.ambient}, the points in F^{self.n}")
        p = self.field.p
        keys: Optional[List[int]] = None
        for row in _annihilator(direction, self.field):
            sums = [0]
            for i, parents, digits in self.levels:
                a = row[i]
                if not a:
                    if parents is not None:
                        sums = [sums[q] for q in parents]
                elif parents is None:
                    sums = [s + a * x for s, x in zip(sums, digits)]
                else:
                    sums = [sums[q] + a * x for q, x in zip(parents, digits)]
            keys = [s % p for s in sums] if keys is None else [key * p + s % p for key, s in zip(keys, sums)]
        return [0] * len(self.points) if keys is None else keys


def flats_through(flat: AffineFlat, field: Field) -> Dict[Vector, AffineFlat]:
    """The (p^(n-k)-1)/(p-1) flats of dimension k+1 containing the k-flat,
    keyed by the normalized nonzero u in F^(n-k) (first nonzero entry 1):
    the span of the flat and the vector with u in the free columns of its
    direction.  Annihilator row j has a 1 at free column j and zeros at the
    other free columns, so that vector's annihilator image is u, and any
    vector off the direction extends it to the flat keyed by `through_key`."""
    p, n, free = field.p, flat.ambient, flat.ambient - flat.dim
    rows = flat.direction.basis.rows
    spans = {}
    for lead in range(free):
        for tail in itertools.product(range(p), repeat=free - lead - 1):
            u = (0,) * lead + (1,) + tail
            extension = _at_free_columns(flat.direction, u)
            spans[u] = make_flat(span_of(rows + (extension,), n, field), flat.representative, field)
    return spans


def through_key(flat: AffineFlat, v: Vector, field: Field) -> Optional[Vector]:
    """The key in `flats_through(flat)` of the flat spanned by the flat and
    the direction v: v's normalized image a . v mod p under the annihilator
    rows a (the digits of its coset key); None when v lies in the direction."""
    p = field.p
    return normalized([sum(map(mul, row, v)) for row in _annihilator(flat.direction, field)], p)


def affine_hull(points: Sequence[Vector], field: Field) -> Tuple[int, AffineFlat]:
    """Dimension and canonical flat of the affine span of the points."""
    if not points:
        raise ValueError("affine hull of empty point set")
    n = len(points[0])
    if any(len(q) != n for q in points):
        raise ValueError("ambient dimension mismatch")
    direction = LinearSubspace(n, difference_basis(points, field))
    return direction.dim, make_flat(direction, points[0], field)


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
    free = direction.ambient - direction.dim
    for values in itertools.product(field.elements(), repeat=free):
        yield _at_free_columns(direction, values)
