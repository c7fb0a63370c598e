"""Linear subspaces, affine flats, and their enumeration over GF(p).

Subspaces carry a canonical RREF basis, flats carry a canonical coset
representative (zero in every pivot coordinate of the direction), so
equality and hashing are structural throughout.

Which coset of a direction holds a point is answered by one map, the packed
integer key: the digits a_j . x mod p (`_digits`) of the annihilator rows
a_j of the direction, one row per free column j.  `coset_key` reads it
for one point, `membership` compares its digits with the flat's one row at
a time and stops at the first that differs, `CosetKeys` gives it for a
fixed point set under any direction, or under every flat of a family at
once in byte lanes (`incidence.incidence_count`'s points on each flat and
`incidence.check_max_ic`'s largest cosets), `make_flat` writes its
digits into the free columns of the canonical representative (they are the
entries that eliminating the pivots by the basis rows leaves there), and
`flats_through` keys the (k+1)-flats through a k-flat by the digits of the
vector that extends it.
The rows are kept on the subspace instance the first time they are needed,
a flat's own digits (its representative's) on the flat the first time
`membership` tests it, and the hash of every subspace and flat the first
time it is asked for.

`CosetMasks` gives the same partition as int bitmasks, folding the
annihilator rows' classes column by column and resuming each direction's
fold where its steps first differ from the last direction's; both kernels
hold their points and coordinate columns in a `_PointSet`.  `CosetSums`
picks one of them to give the largest coset sum of integer weightings of
the points under any direction (`maximal`'s one walk over G(n,k),
`incidence.check_max_ic`).  A coordinate column has one form (`_column`)
and one sum mod p (`_column_sum`), which `enumerate_points` and
`CosetKeys` both read.
`coordinate_flat` is the one span(e_1, ..., e_r), of `config.gen_degenerate`
and the maximal operator's witnesses.
"""

from __future__ import annotations

import functools
import itertools
import sys
from array import array
from collections import Counter
from operator import add, attrgetter, itemgetter, mod, mul
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ._value import _Value, _set
from .field import Field
from .linalg import RrefBasis, Vector, null_space_rows, rref


class LinearSubspace(_Value, frozen=True):
    """A k-dimensional subspace of F^n in canonical RREF form.  Its hash
    (the hash of its field tuple) and its annihilator rows (`_annihilator`)
    are kept on the instance."""

    __slots__ = ("ambient", "basis", "_hash", "_annihilator")

    def __init__(self, ambient: int, basis: RrefBasis):
        _set(self, "ambient", ambient)
        _set(self, "basis", basis)
        _set(self, "_hash", None)

    @property
    def dim(self) -> int:
        return self.basis.rank


class AffineFlat(_Value, frozen=True):
    """Direction + canonical coset representative, as `make_flat` builds it.
    Its hash (the hash of its field tuple) and its annihilator digits
    (`membership`) are kept on the instance."""

    __slots__ = ("direction", "representative", "_hash", "_digits")

    def __init__(self, direction: LinearSubspace, representative: Vector):
        _set(self, "direction", direction)
        _set(self, "representative", representative)
        _set(self, "_hash", None)

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


def _at_free_columns(direction: LinearSubspace, values: Iterable[int]) -> Vector:
    """The vector with `values` in the free (non-pivot) columns of the
    direction, ascending, and zero in its pivot columns."""
    pivots = direction.basis.pivots
    values = iter(values)
    return tuple([0 if j in pivots else next(values) for j in range(direction.ambient)])


def make_flat(direction: LinearSubspace, point: Vector, field: Field) -> AffineFlat:
    """Canonical affine flat through `point` with the given direction: the
    digits of the point's coset key in the free columns, zero at the pivots.
    Refuses a point that is not in the direction's F^n."""
    for pt in field.points_outside((point,), direction.ambient):
        raise ValueError(f"point {pt!r} is not in F_{field.p}^{direction.ambient}")
    digits = _digits(point, _annihilator(direction, field), field.p)
    return AffineFlat(direction, _at_free_columns(direction, digits))


def coordinate_flat(n: int, r: int, field: Field) -> AffineFlat:
    """span(e_1, ..., e_r) through the origin: the points of F^n that are
    zero after their first r coordinates."""
    basis = [tuple(1 if j == i else 0 for j in range(n)) for i in range(r)]
    return make_flat(span_of(basis, n, field), (0,) * n, field)


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n."""
    if k < 0 or k > n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    k = min(k, n - k)  # [n k]_p = [n n-k]_p, with fewer factors
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (k - i) - 1
    quotient, remainder = divmod(num, den)
    assert remainder == 0
    return quotient


@functools.lru_cache(maxsize=None)
def _pattern_blocks(
    n: int, k: int, p: int
) -> Tuple[int, Tuple[Tuple[Tuple[int, ...], Tuple[Any, ...], int, int], ...]]:
    """|G(n,k)| over GF(p) and each RREF pivot pattern of a k-subspace of F^n,
    lexicographically, as (pivots, rows, free, block); computed once per
    (n, k, p) for enumeration and unranking alike.

    A pattern's free entries, row by row and left to right in a row, hold
    the digits d_0, ..., d_{free-1}, and its block is the p^free subspaces
    they give.  `rows` holds each basis row's template as an itemgetter of
    the values (0, 1, d_0, ..., d_{free-1}): index 1 at the row's pivot, the
    digit slot 2 + s at its s-th free entry and 0 elsewhere, so one call
    writes the row as a tuple.  A row's free entries are the columns after
    its pivot that the complement of the pivot set holds, so a pattern
    takes O(kn) steps, also at k = n."""
    total = gaussian_binomial(n, k, p)
    blocks = []
    for pivots in itertools.combinations(range(n), k):
        free_columns = set(range(n)).difference(pivots)
        rows, slot = [], 2
        for pivot in pivots:
            template = [0] * n
            template[pivot] = 1
            for j in range(pivot + 1, n):
                if j in free_columns:
                    template[j], slot = slot, slot + 1
            # An itemgetter of one index gives a bare value; at n = 1 the row is (1,).
            rows.append(itemgetter(*template) if n > 1 else lambda values: (1,))
        blocks.append((pivots, tuple(rows), slot - 2, p ** (slot - 2)))
    return total, tuple(blocks)


def _pattern_subspace(n: int, pivots: Tuple[int, ...], rows: Tuple[Any, ...], values: Sequence[int]) -> LinearSubspace:
    """The subspace of the pivot pattern whose row templates (`_pattern_blocks`)
    read these values, (0, 1, d_0, ..., d_{free-1})."""
    return LinearSubspace(n, RrefBasis(tuple([row(values) for row in rows]), pivots))


def enumerate_grassmannian(n: int, k: int, field: Field) -> Iterator[LinearSubspace]:
    """All k-subspaces of F^n, each exactly once, in deterministic order.

    Pivot patterns are visited lexicographically (`_pattern_blocks`); for
    each pattern the free entries (RREF shape) run through all field values
    in ascending order, the last fastest.  At k = 0 the one empty pattern
    gives the zero subspace.
    """
    for pivots, rows, free, _ in _pattern_blocks(n, k, field.p)[1]:
        for digits in itertools.product(field.elements(), repeat=free):
            yield _pattern_subspace(n, pivots, rows, (0, 1, *digits))


def unrank_grassmannian(n: int, k: int, field: Field, index: int) -> LinearSubspace:
    """The subspace at position `index` of `enumerate_grassmannian`'s order.

    Each pivot pattern is a block of p^free subspaces; within it the free
    entries are the base-p digits of the offset, the last entry the lowest
    digit, written straight into the digit slots of the pattern's row
    templates (`_pattern_blocks`).
    """
    p = field.p
    total, blocks = _pattern_blocks(n, k, p)
    if not 0 <= index < total:
        raise IndexError(f"index {index} outside G({n},{k}) of size {total}")
    for pivots, rows, free, block in blocks:
        if index < block:
            break
        index -= block
    values = [0, 1] + [0] * free
    for slot in range(free + 1, 1, -1):
        index, values[slot] = divmod(index, p)
    return _pattern_subspace(n, pivots, rows, values)


@functools.lru_cache(maxsize=None)
def _pivot_columns(p: int, k: int) -> Tuple[Sequence[int], ...]:
    """Coordinate i of each point of F^k in `itertools.product` order, for
    i < k, as a `_column`: each value repeated p^(k-1-i) times, the run
    repeated p^i times.  Computed once per (p, k) for `enumerate_points`."""
    return tuple(_column([a for a in range(p) for _ in range(p ** (k - 1 - i))] * p**i, p) for i in range(k))


def enumerate_points(flat: AffineFlat, field: Field) -> Iterator[Vector]:
    """All p^dim points of the flat, deterministically: the representative
    plus every combination of the basis rows, the first coefficient varying
    slowest.  Built one column at a time and zipped: the representative is
    zero at the pivots and each row has a 1 at its own pivot and 0 at the
    others, so pivot column i is coefficient i (`_pivot_columns`); free
    column j is the `_column_sum` of the representative's entry x_j and
    row[j] times pivot column i over the rows.
    The points come out ascending: row i is zero before its pivot, so two
    points first differing in coefficient i agree before pivot i, where
    they hold that coefficient."""
    p = field.p
    basis = flat.direction.basis
    pivot_columns, size = _pivot_columns(p, basis.rank), p**basis.rank
    at_pivot = dict(zip(basis.pivots, pivot_columns))
    columns = []
    for j, x in enumerate(flat.representative):
        if j in at_pivot:
            columns.append(at_pivot[j])
        else:
            columns.append(_column_sum(zip([row[j] for row in basis.rows], pivot_columns), size, p, x))
    yield from zip(*columns)


def _digits(point: Vector, rows: Tuple[Vector, ...], p: int) -> List[int]:
    """The residues a . x mod p of the annihilator rows a: the digits of the
    coset key of `point`, first row first."""
    return [sum(map(mul, row, point)) % p for row in rows]


def _packed_key(point: Vector, rows: Tuple[Vector, ...], p: int) -> int:
    """The coset key of `point`: its `_digits` read as the base-p digits of
    one int.  Two points share a key exactly when their difference lies in
    the direction."""
    key = 0
    for digit in _digits(point, rows, p):
        key = key * p + digit
    return key


def _annihilator(direction: LinearSubspace, field: Field) -> Tuple[Vector, ...]:
    """Independent rows of the functionals vanishing on `direction`, computed
    once per subspace instance (which, unlike its basis, fixes the ambient n)."""
    cached = getattr(direction, "_annihilator", None)
    if cached is None or cached[0] != field.p:
        cached = (field.p, null_space_rows(direction.basis, direction.ambient, field))
        _set(direction, "_annihilator", cached)
    return cached[1]


def coset_key(point: Vector, direction: LinearSubspace, field: Field) -> int:
    """The key of the coset of `direction` holding `point`, as `CosetKeys`
    gives it for a point set."""
    return _packed_key(point, _annihilator(direction, field), field.p)


def membership(point: Vector, flat: AffineFlat, field: Field) -> bool:
    """Whether the point lies on the flat: each annihilator row of the flat's
    direction gives the point the flat's own digit, its representative's.
    The rows with their digits are kept on the flat at its first test,
    whether or not `make_flat` built it, and the test stops at the first row
    whose digit differs."""
    kept = getattr(flat, "_digits", None)
    if kept is None:
        rows = _annihilator(flat.direction, field)
        digits = _digits(flat.representative, rows, field.p)
        kept = (field.p, tuple(zip(rows, digits)))
        _set(flat, "_digits", kept)
    p, rows_and_digits = kept
    if p != field.p:
        raise ValueError(f"flat built over GF({p}) tested over GF({field.p})")
    for row, digit in rows_and_digits:
        if sum(map(mul, row, point)) % p != digit:
            return False
    return True


def _column(values: Iterable[int], p: int) -> Sequence[int]:
    """Residues mod p in the one form of a coordinate column: a `bytes`, one
    lane an entry, below p = 256, and an `array('H')` above (p <= 2^16)."""
    return bytes(values) if p < 256 else array("H", values)


@functools.lru_cache(maxsize=None)
def _byte_tables(p: int) -> Tuple[Tuple[bytes, ...], bytes, Tuple[bytes, ...]]:
    """The `bytes.translate` tables over GF(p), p < 256: `times[a]` maps a
    residue v to a v mod p and `residue` any byte to itself mod p (the byte
    lanes of `_column_sum`), and `ones[v]` writes the binary digit 1 for the
    residue v and 0 for any other byte (`CosetMasks`)."""
    times = tuple(bytes([a * v % p for v in range(256)]) for a in range(p))
    ones = tuple(b"0" * v + b"1" + b"0" * (255 - v) for v in range(p))
    return times, bytes([v % p for v in range(256)]), ones


def _column_sum(terms: Iterable[Tuple[int, Sequence[int]]], size: int, p: int, start: int = 0) -> Sequence[int]:
    """Start plus the sum of a times column over the terms (a, column), mod
    p, entry by entry: a `_column` of `size` entries, every column one of
    residues mod p, none added where a = 0.  Below p = 128 it works in byte
    lanes: each column is mapped through the table of a times a residue (no
    map where a = 1) and added as a little-endian int; lanes cannot carry
    while their sum stays below 256, so the sum is reduced mod p between
    adds where the next could carry, and once at the end.  Above, the
    entries are summed one by one and reduced once."""
    if p >= 128:  # chained maps, one pass; comprehensions would make a and p cells here
        sums = itertools.repeat(start, size)
        for a, column in terms:
            if a:
                sums = map(add, sums, map(mul, itertools.repeat(a), column))
        return _column(map(mod, sums, itertools.repeat(p)), p)
    times, residue, _ = _byte_tables(p)
    sums = int.from_bytes(bytes([start]) * size, "little")
    top = start  # the largest lane of sums
    for a, column in terms:
        if a:
            if top + p > 256:  # the next column could carry: reduce first
                sums = int.from_bytes(sums.to_bytes(size, "little").translate(residue), "little")
                top = p - 1
            sums += int.from_bytes(column if a == 1 else column.translate(times[a]), "little")
            top += p - 1
    return sums.to_bytes(size, "little").translate(residue)


# The array typecode of each lane width in bytes.
_LANE_TYPECODES = {array(code).itemsize: code for code in "QLIHB"}
# Maps a lane of 0 to 1 and any other to 0.
_ZERO_FLAGS = b"\x01" + bytes(255)


class _PointSet:
    """The fixed point set of a coset kernel: its points sorted and distinct
    (`points`), all in one F^n (`n`; 0 for no points), and their coordinate
    columns, built once: `columns[i]` holds the entries x_i, in order, as a
    `_column`."""

    def __init__(self, points: Iterable[Vector], field: Field):
        self.field = field
        self.points = sorted(set(points))
        if len(set(map(len, self.points))) > 1:
            raise ValueError("ambient dimension mismatch")
        self.n = len(self.points[0]) if self.points else 0
        self.columns = [_column(column, field.p) for column in zip(*self.points)]

    def _rows(self, direction: LinearSubspace) -> Optional[Tuple[Vector, ...]]:
        """The annihilator rows of `direction`, None for no points; refuses another F^n."""
        if not self.points:
            return None
        if direction.ambient != self.n:
            raise ValueError(f"direction lives in F^{direction.ambient}, the points in F^{self.n}")
        return _annihilator(direction, self.field)


def _lane_width(cosets: int) -> int:
    """The bytes a packed key below `cosets` takes in a lane: the fewest of
    1, 2, 4 and 8 that hold it, and 0 above 2^64, where keys are not packed
    in lanes."""
    return 1 if cosets <= 1 << 8 else 2 if cosets <= 1 << 16 else 4 if cosets <= 1 << 32 else 8 if cosets <= 1 << 64 else 0


def _packed_keys(digit_columns: Sequence[bytes], size: int, p: int, width: int) -> array:
    """The base-p keys of `size` entries whose digits, first most
    significant, are the byte columns, packed in lanes of `width` bytes
    (`_lane_width` of p^len(digit_columns)) and read back by `array`."""
    key = 0
    for digits in digit_columns:
        if width > 1:
            lanes = bytearray(width * size)
            lanes[::width] = digits
            digits = lanes
        key = key * p + int.from_bytes(digits, "little")
    keys = array(_LANE_TYPECODES[width], key.to_bytes(width * size, "little"))
    if sys.byteorder == "big":
        keys.byteswap()
    return keys


# The most lanes, |P| a flat, that `CosetKeys` sums at once in a free slot
# of its flat lanes: it takes the flats in chunks below it, so its memory
# does not grow with the family.
_LANE_CAP = 1 << 16


class CosetKeys(_PointSet):
    """The coset keys of one fixed point set: under one direction, all
    points at once (`keys`), or under every flat of a family at once, in
    byte lanes (`incident`, `largest_cosets`).

    `keys(direction)` reads each annihilator row a as one `_column_sum` of
    a_i times coordinate column i (`_PointSet`), the row's digit of every
    point at once.  The rows' digit columns are packed into the base-p key
    in lanes of 1, 2, 4 or 8 bytes, the fewest that hold p^(n-k), and read
    back by `array` (`_packed_keys`), when the columns are `bytes` and
    p^(n-k) <= 2^64, and point by point otherwise.  A row is nonzero only
    at its free column and the k pivots, so a direction takes at most
    (n-k)(k+1) column steps.

    The flat lanes hold the same digits for every flat of a family.  Lane
    F |P| + x of free slot s holds x_f - sum_i row_i[f] x_{pivot_i} mod p,
    where f is the s-th free column of flat F's direction and row_i and
    pivot_i are its RREF basis rows and pivots: the digit of its annihilator
    row s (`_digits`).  Each of those terms is one `b"".join` of per-flat
    pieces, and one `_column_sum` adds them.  The flats are grouped by pivot
    pattern, which fixes f and the pivots, so a group's piece of the first
    term is column f repeated, and its pieces of pivot term i are read by
    one `map` from a table of column pivot_i times -row_i[f] mod p
    (`_byte_tables`' `times`), kept per (column, coefficient) once read.
    The flats are taken in chunks of at most `_LANE_CAP` lanes a slot, each
    with its own table, so the table holds no more pieces than the chunk's
    terms do.  The lanes are bytes, so the lane methods refuse a point set
    whose columns are not (p >= 256); from p = 128 `_column_sum` adds them
    entry by entry.

    `incident` adds each representative's -c_f as one more term, so a point
    lies on F exactly when every slot's lane is 0.  `largest_cosets` packs
    the digits into keys as `keys` does and counts each flat's segment.
    """

    def __init__(self, points: Iterable[Vector], field: Field):
        super().__init__(points, field)
        self._bytes = all(isinstance(column, bytes) for column in self.columns)

    def keys(self, direction: LinearSubspace) -> List[int]:
        """`coset_key(x, direction)` for each x in `points`, in order."""
        rows = self._rows(direction)
        if rows is None:
            return []
        p, size = self.field.p, len(self.points)
        digit_columns = [_column_sum(zip(row, self.columns), size, p) for row in rows]
        if self._bytes and (width := _lane_width(p ** len(rows))):
            return _packed_keys(digit_columns, size, p, width).tolist()
        keys = [0] * size
        for digits in digit_columns:  # key * p + digit, by map: a comprehension would make p a cell here
            keys = list(map(add, map(mul, keys, itertools.repeat(p)), digits))
        return keys

    def _lanes(self, flats: Sequence[AffineFlat], constant: bool) -> Iterator[Tuple[List[AffineFlat], List[bytes]]]:
        """Each chunk of the flats in lane order, with the lanes of each free
        slot; with `constant`, each flat's lanes less its representative's
        digits; no chunks for no points.  The flats all have one dimension
        in F^n; refuses columns that are not `bytes`."""
        n, p, size = self.n, self.field.p, len(self.points)
        if not self._bytes:
            raise ValueError(f"flat lanes need byte columns, p < 256, got p = {p}")
        if not size:
            return
        times = _byte_tables(p)[0]
        columns = self.columns + [b"\x01" * size]  # and a column of ones
        pivots_of, rows_of = attrgetter("direction.basis.pivots"), attrgetter("direction.basis.rows")
        representative = attrgetter("representative")
        ordered = sorted(flats, key=pivots_of)
        step = max(_LANE_CAP // size, 1)
        for start in range(0, len(ordered), step):
            chunk = ordered[start : start + step]
            # Per free slot, each term's pieces: the free column's, then
            # each pivot's, then the constants'.
            k = chunk[0].dim
            slots = [[[] for _ in range(k + 1 + constant)] for _ in range(n - k)]
            # Column j times -a mod p at [j][a], filled as first read.
            scaled: List[List[Optional[bytes]]] = [[None] * p for _ in columns]
            for pivots, group in itertools.groupby(chunk, pivots_of):
                group = list(group)
                free = [j for j in range(n) if j not in pivots]
                # The column of each term after the first, with its rows
                # flat by flat: the pivots with the basis rows, and the ones
                # with the representatives.
                scaled_columns, rows = pivots, list(zip(*map(rows_of, group)))
                if constant:
                    scaled_columns, rows = pivots + (n,), rows + [list(map(representative, group))]
                for terms, f in zip(slots, free):
                    terms[0].append(columns[f] * len(group))
                    for term, j, row in zip(terms[1:], scaled_columns, rows):
                        coefficients, table = list(map(itemgetter(f), row)), scaled[j]
                        for a in set(coefficients):
                            if table[a] is None:
                                table[a] = columns[j].translate(times[-a % p])
                        term.append(b"".join(map(table.__getitem__, coefficients)))
            yield chunk, [_column_sum([(1, b"".join(term)) for term in terms], len(chunk) * size, p) for terms in slots]

    def incident(self, flats: Sequence[AffineFlat]) -> Dict[AffineFlat, Tuple[Vector, ...]]:
        """The sorted points on each flat, in the flats' order."""
        points, size = self.points, len(self.points)
        on: Dict[AffineFlat, Tuple[Vector, ...]] = dict.fromkeys(flats, ())
        for chunk, slots in self._lanes(flats, True):
            off = 0
            for lanes in slots:
                off |= int.from_bytes(lanes, "little")
            flags = off.to_bytes(len(chunk) * size, "little").translate(_ZERO_FLAGS)
            # Only the segments of flats with a point on them are read.
            start = flags.find(1)
            while start >= 0:
                end = (start // size + 1) * size
                on[chunk[end // size - 1]] = tuple(itertools.compress(points, flags[end - size : end]))
                start = flags.find(1, end)
        return on

    def largest_cosets(self, flats: Sequence[AffineFlat]) -> Dict[AffineFlat, int]:
        """The most points in one coset of each flat's direction, in the
        flats' order, 0 for no points; p^(n-k) <= 2^64."""
        p, size = self.field.p, len(self.points)
        largest = dict.fromkeys(flats, 0)
        for chunk, slots in self._lanes(flats, False):
            keys = _packed_keys(slots, len(chunk) * size, p, _lane_width(p ** len(slots)))
            for start, flat in zip(range(0, len(keys), size), chunk):
                largest[flat] = max(Counter(keys[start : start + size]).values())
        return largest


def _bitmask(positions: Iterable[int], size: int) -> int:
    """The int whose set bits are `positions`, all below `size`, in time and
    space linear in `size` (or-ing the bits in one at a time would copy the
    growing int once per bit): a string of `size` binary digits, bit i at
    digit size-1-i, read by int(_, 2), which no limit on the length of int
    strings applies to."""
    digits = bytearray(b"0") * size
    for i in positions:
        digits[i] = 49  # b"1"
    return int(digits[::-1] or b"0", 2)


class CosetMasks(_PointSet):
    """The cosets of any direction in one fixed point set, as int bitmasks.

    Bit i of a mask stands for points[i] (`_PointSet`).
    `value_masks[i][v]` is the mask of the points whose x_i = v: coordinate
    column i (`_PointSet.columns`), the last point first, mapped to binary
    digits by the table of v (`_byte_tables`) and read by int(_, 2).  The
    columns are `bytes`, so the kernel refuses p >= 256, where `CosetSums`
    keys.  `masks(direction)` partitions the points by each annihilator row
    a in turn: the classes of a . x start as the masks of its free column j
    (a_j = 1), and each pivot coordinate a_i, in basis-row order, folds in as
    new[(c + a_i v) % p] |= cur[c] & value_masks[i][v], only nonempty classes
    taking part, at most p^2 ANDs, none where a_i = 0.  Each row's classes
    are then met into the cosets of the rows before it, and empty meets
    dropped.  A row is nonzero only at its free column and the k pivots, so
    a direction costs at most (n-k) k p^2 ANDs of |points|-bit ints and its
    meets, and its masks hold up to |points| bits each, one per nonempty
    coset.

    The walk is resumed, not redone: the kernel keeps the fold steps of the
    last direction it partitioned, each a (column, coefficient) or a meet,
    with the cosets and classes after each, and folds a direction from the
    end of the longest prefix of steps the two share.  In the order of
    `enumerate_grassmannian` the last free entry changes fastest, and it is
    the last pivot coefficient of the last row, so consecutive directions
    mostly redo one fold and one meet.  The answer does not depend on the
    order the directions come in; one kernel is not to be shared between
    threads.
    """

    def __init__(self, points: Iterable[Vector], field: Field):
        if field.p >= 256:
            raise ValueError(f"coset masks need p < 256, got p = {field.p}")
        super().__init__(points, field)
        ones = _byte_tables(field.p)[2]
        # Coordinate i of every point, the last first, as binary digits.
        self.value_masks = [[int(column[::-1].translate(digits), 2) for digits in ones] for column in self.columns]
        # The last walk: its steps, and the (cosets, classes) before the
        # first and after each.
        self._steps: List[Optional[Tuple[int, int]]] = []
        self._states: List[Tuple[List[int], Optional[List[int]]]] = [([(1 << len(self.points)) - 1], None)]

    def masks(self, direction: LinearSubspace) -> List[int]:
        """Each nonempty coset of `direction` in `points` as a bitmask: the
        classes of equal `coset_key`, disjoint and covering the points."""
        rows = self._rows(direction)
        if rows is None:
            return []
        pivots = direction.basis.pivots
        free = [j for j in range(self.n) if j not in pivots]
        steps: List[Optional[Tuple[int, int]]] = []
        for j, row in zip(free, rows):
            steps.append((j, 1))
            for i in pivots:
                steps.append((i, row[i]))
            steps.append(None)
        same = 0
        for step, kept in zip(steps, self._steps):
            if step != kept:
                break
            same += 1
        states = self._states
        del states[same + 1 :]
        cosets, classes = states[-1]
        p = self.field.p
        for step in steps[same:]:
            if step is None:
                cosets = [meet for mask in cosets for other in classes if (meet := mask & other)]
                classes = None
            elif classes is None:
                classes = self.value_masks[step[0]]
            elif step[1]:
                i, a = step
                folded = [0] * p
                for c, mask in enumerate(classes):
                    if mask:
                        for v, values in enumerate(self.value_masks[i]):
                            if meet := mask & values:
                                folded[(c + a * v) % p] |= meet
                classes = folded
            states.append((cosets, classes))
        self._steps = steps
        return list(cosets)


# A mask AND costs one step, plus one per MASK_STEP_BITS bits of |points|.
# The value is fitted to the picks, not to the time of one AND: on the
# default witness family of `maximal.default_candidates`, and on its random
# witnesses alone, which are all `maximal.empirical_norm_search` walks by
# default, it picks masks at (3,2,7), (3,1,13), (3,1,17), (4,1,7), (4,2,5)
# and (2,1,31) and keys at k = 0, (2,1,61) and (4,1,11)
# (`test_walked_family_kernel_pick`).  It was fitted when keys summed
# columns point by point.  With keys in byte lanes and the masks' fold
# resumed from the direction before, masks run 2.4-2.9x faster than keys at
# (3,2,7), (4,2,5) and (4,2,7) and level at (3,1,13), but keys run faster
# at (3,1,17), (4,1,7) and (2,1,31), where masks are picked (CHANGES.md has
# the times).  The cost model's recalibration (ROADMAP.md) refits the
# value.  At p >= 256 the keys are picked whatever the count, since
# `CosetMasks` refuses there.
MASK_STEP_BITS = 2048


class CosetSums:
    """The largest coset sum of each of a family of integer weightings of
    points, under any direction of dimension k.

    A weighting is a sequence of (value, points) classes, no point in two of
    them.  The kernel is built once, over the union of the supports, and is
    a `CosetMasks` or a `CosetKeys`, whichever costs fewer steps a
    direction, and keys at p >= 256, where masks are refused: masks take
    (n-k)(p + k p^2) ANDs to fold, p per coset to meet and one per coset
    and class to sum, each 1 + |points| // MASK_STEP_BITS steps; keys take
    (n-k)(k+1) column steps per point and one per weighted point.  So the
    count puts masks cheaper on dense families with few cosets, keys on
    sparse point sets and on many cosets: at k = 0 each point is its own
    coset, and masks would hold |points|^2 bits.  A coset
    sum is one AND and popcount per class, or one `Counter` of keys per
    class.  The count charges every direction a whole fold, though
    `CosetMasks` resumes the fold of the direction before and, walking
    G(n,k) in order, mostly redoes one fold and one meet.  The key steps
    are charged at the rate of column sums entry by entry, which is slower
    than the byte lanes.  Both errors stand until the cost model is refit
    (see `MASK_STEP_BITS`).
    """

    def __init__(self, weightings: Sequence[Sequence[Tuple[int, Sequence[Vector]]]], k: int, field: Field):
        union = {pt for weighting in weightings for _, points in weighting for pt in points}
        n, p, size = len(next(iter(union), ())), field.p, len(union)
        rows = max(n - k, 0)
        ands = rows * (p + k * p * p) + p**rows * (p + sum(map(len, weightings)))
        weighted = sum(len(points) for weighting in weightings for _, points in weighting)
        steps = rows * (k + 1) * size + weighted
        masks = p < 256 and ands * (1 + size // MASK_STEP_BITS) <= steps
        self.kernel = CosetMasks(union, field) if masks else CosetKeys(union, field)
        del union  # before the position map, so the two never share the peak
        position = {pt: i for i, pt in enumerate(self.kernel.points)}.__getitem__
        # (value, its points' mask) with masks, (value, their positions) with keys
        self.classes: List[List[Tuple[int, Any]]] = [
            [
                (value, _bitmask(map(position, points), size) if masks else list(map(position, points)))
                for value, points in weighting
            ]
            for weighting in weightings
        ]

    def maxima(self, direction: LinearSubspace) -> List[int]:
        """The largest coset sum of each weighting under `direction`, in
        order; 0 for a weighting of no points."""
        out: List[int] = []
        if isinstance(self.kernel, CosetMasks):
            cosets = self.kernel.masks(direction)
            for classes in self.classes:
                if len(classes) == 1:
                    # Indicators and constants: no sums.
                    ((value, mask),) = classes
                    out.append(value * max([(coset & mask).bit_count() for coset in cosets]))
                else:
                    sums = [sum([value * (coset & mask).bit_count() for value, mask in classes]) for coset in cosets]
                    out.append(max(sums, default=0))
            return out
        keys = self.kernel.keys(direction)
        at = keys.__getitem__
        for classes in self.classes:
            if len(classes) == 1:
                # One value; on every point (a configuration's), the keys
                # themselves are counted.
                ((value, positions),) = classes
                counted = keys if len(positions) == len(keys) else map(at, positions)
                out.append(value * max(Counter(counted).values(), default=0))
            else:
                totals: Dict[int, int] = {}
                for value, positions in classes:
                    for key, count in Counter(map(at, positions)).items():
                        totals[key] = totals.get(key, 0) + value * count
                out.append(max(totals.values(), default=0))
        return out


def flats_through(flat: AffineFlat, field: Field) -> Dict[Vector, AffineFlat]:
    """The (p^(n-k)-1)/(p-1) flats of dimension k+1 containing the k-flat,
    keyed by the normalized nonzero u in F^(n-k) (first nonzero entry 1):
    the span of the flat and e_u, the vector with u in the free columns of
    its direction.  Annihilator row j has a 1 at free column j and zeros at
    the other free columns, so e_u's annihilator image is u: any vector off
    the direction extends the flat to the one keyed by its normalized
    annihilator image.

    Each flat is written down in canonical form, with no elimination: e_u is
    zero at the direction's pivots and its leading 1 sits at the free column
    j0 of u's leading 1, which becomes the new pivot.  Clearing column j0
    from the k basis rows with e_u and inserting e_u in pivot order gives
    the reduced row echelon basis of the span (a row's entries before its
    pivot stay zero, since e_u is zero before j0), and clearing the
    representative's entry j0 with e_u gives the point of the flat that is
    zero at every new pivot: the flat `make_flat` builds from that span."""
    p, n = field.p, flat.ambient
    direction = flat.direction
    rows, pivots, rep = direction.basis.rows, direction.basis.pivots, flat.representative
    free = [j for j in range(n) if j not in pivots]
    spans = {}
    for lead, j0 in enumerate(free):
        at = sum(piv < j0 for piv in pivots)
        new_pivots = pivots[:at] + (j0,) + pivots[at:]
        for tail in itertools.product(range(p), repeat=len(free) - lead - 1):
            u = (0,) * lead + (1,) + tail
            e = _at_free_columns(direction, u)
            cleared = [
                tuple([(x - row[j0] * y) % p for x, y in zip(row, e)]) if row[j0] else row for row in rows
            ]
            basis = RrefBasis(tuple(cleared[:at]) + (e,) + tuple(cleared[at:]), new_pivots)
            c = rep[j0]
            point = tuple([(x - c * y) % p for x, y in zip(rep, e)]) if c else rep
            spans[u] = AffineFlat(LinearSubspace(n, basis), point)
    return spans


def local_coordinates(points: Iterable[Vector], flat: AffineFlat) -> Tuple[Vector, ...]:
    """The coordinates in F^k of each point on the flat, in point order: its
    entries in the pivot columns of the direction.  The representative is
    zero there, so a point is the representative plus these entries times
    the basis rows, and the map is an affine bijection of the flat onto F^k."""
    pivots = flat.direction.basis.pivots
    return tuple([tuple([x[j] for j in pivots]) for x in points])
