"""Generators for the point/flat configurations used throughout: degenerate
configurations, (n,k) sets, random direction-separated families and random
point clouds.  All randomness is seeded and single-threaded, so equal seeds
give byte-identical output.
The seeded draws have one owner each: points `_kept_points` (also of the
maximal witnesses; below a denominator of 256 it reads each draw off the
top byte of a 32-bit output, otherwise through `_draws_below`), flats
`_random_flats` (directions by `randrange`, translates by `_draws_below`),
and the random (n,k)-set's translates `gen_nk_set` (by `_draws_below`).
`_draws_below` replays `randrange` draws from bulk reads of the generator.
"""

from __future__ import annotations

import functools
import itertools
import random
import struct
from fractions import Fraction
from typing import Collection, Dict, FrozenSet, Iterator, List, Tuple

from ._value import _Value, _set
from .field import Field
from .flats import (
    AffineFlat,
    _at_free_columns,
    coordinate_flat,
    enumerate_grassmannian,
    enumerate_points,
    gaussian_binomial,
    span_of,
    unrank_grassmannian,
)
from .linalg import Vector


class ConfigDomainError(ValueError):
    pass


class Configuration(_Value, frozen=True):
    """A point set P in F^n together with a family of affine k-flats,
    checked on construction.  P is kept as a frozenset, so points given
    with repeats count once."""

    __slots__ = ("field", "n", "k", "points", "flats")

    def __init__(self, field: Field, n: int, k: int, points: Collection[Vector], flats: Tuple[AffineFlat, ...]):
        for pt in field.points_outside(points, n):
            raise ConfigDomainError(f"point {pt!r} is not in F_{field.p}^{n}")
        if len(set(flats)) != len(flats):
            raise ConfigDomainError("duplicate flats in configuration")
        for f in flats:
            if f.ambient != n or f.dim != k:
                raise ConfigDomainError("flat with wrong ambient dimension or dim")
        _set(self, "field", field)
        _set(self, "n", n)
        _set(self, "k", k)
        _set(self, "points", frozenset(points))
        _set(self, "flats", flats)

    @property
    def direction_separated(self) -> bool:
        """No two flats share a direction."""
        return len({f.direction for f in self.flats}) == len(self.flats)


def enumerate_space(n: int, fld: Field) -> Iterator[Vector]:
    """All p^n points of F^n in lexicographic order."""
    return itertools.product(fld.elements(), repeat=n)


def gen_degenerate(n: int, k: int, r: int, fld: Field) -> Configuration:
    """Type-(k,r) degenerate configuration: all p^r points of the coordinate
    r-flat sigma (`coordinate_flat`), and one k-flat through 0 per direction
    containing it.

    Those directions are span(e_1, ..., e_r) + W, W a (k-r)-subspace of the
    last n-r coordinates, so they are built from G(n-r, k-r), W's rows
    padded with r leading zeros, in the order in which they occur in
    G(n,k); 0 is zero at every pivot, so it is each flat's canonical
    representative.  The point set attains the worst case |I| = |P| * |Pi|
    exactly; the flat count is gaussian_binomial(n-r, k-r, p).
    """
    if not 1 <= r < k <= n - 1:
        raise ConfigDomainError(f"need 1 <= r < k <= n-1, got n={n}, k={k}, r={r}")
    sigma = coordinate_flat(n, r, fld)
    points = frozenset(enumerate_points(sigma, fld))
    lead, pad = sigma.direction.basis.rows, (0,) * r
    flats = tuple(
        AffineFlat(span_of(lead + tuple(map(pad.__add__, w.basis.rows)), n, fld), sigma.representative)
        for w in enumerate_grassmannian(n - r, k - r, fld)
    )
    return Configuration(fld, n, k, points, flats)


# The translate rules of `gen_nk_set`, which the CLI's domain check reads too.
TRANSLATE_RULES = ("zero", "random")


def gen_nk_set(
    n: int,
    k: int,
    fld: Field,
    translate_rule: str = "zero",
    seed: int = 0,
) -> FrozenSet[Vector]:
    """Union over every direction in G(n,k) of one affine translate's points.

    translate_rule "zero" takes the subspace itself, and every point of F^n
    lies on a k-subspace (k >= 1), so the union is F^n, returned without a
    walk; "random" samples one coset uniformly per direction, seeded by
    `seed` (0 unless given): the n-k free entries of each translate,
    direction by direction, are one read of `_draws_below`.
    """
    if not 1 <= k <= n - 1:
        raise ConfigDomainError(f"need 1 <= k <= n-1, got n={n}, k={k}")
    if translate_rule not in TRANSLATE_RULES:
        raise ConfigDomainError(f"unknown translate rule {translate_rule!r}")
    if translate_rule == "zero":
        return frozenset(enumerate_space(n, fld))
    draws = _draws_below(random.Random(seed), fld.p, gaussian_binomial(n, k, fld.p) * (n - k))
    points = set()
    for pi in enumerate_grassmannian(n, k, fld):
        points.update(enumerate_points(AffineFlat(pi, _at_free_columns(pi, draws)), fld))
    return frozenset(points)


def _random_flats(n: int, k: int, num_directions: int, fld: Field, seed: int) -> Tuple[AffineFlat, ...]:
    """num_directions distinct directions sampled without replacement, one
    uniformly random translate each.

    The directions are the first num_directions slots of a partial
    Fisher-Yates shuffle of G(n,k)'s enumeration order, taken in ascending
    position.  Only the swapped slots are stored, and each pick is unranked
    (`unrank_grassmannian`, which writes the pick's base-p digits into its
    pivot pattern's row templates) rather than enumerated, so the work is
    O(num_directions) and not O(|G(n,k)|).  The translates' n-k free
    entries each, flat by flat, are then one read of `_draws_below`."""
    total = gaussian_binomial(n, k, fld.p)
    if num_directions > total:
        raise ConfigDomainError(
            f"requested {num_directions} directions but G({n},{k}) has {total}"
        )
    rng = random.Random(seed)
    swapped: Dict[int, int] = {}
    for i in range(num_directions):
        j = rng.randrange(i, total)
        swapped[i], swapped[j] = swapped.get(j, j), swapped.get(i, i)
    draws = _draws_below(rng, fld.p, num_directions * (n - k))
    flats = []
    for target in sorted(swapped.get(i, i) for i in range(num_directions)):
        pi = unrank_grassmannian(n, k, fld, target)
        flats.append(AffineFlat(pi, _at_free_columns(pi, draws)))
    return tuple(flats)


# The most 32-bit words `_draws_below` and `_kept_points` ask of the
# generator at once.
_WORDS_AT_ONCE = 4096


def _draws_below(rng: random.Random, bound: int, count: int) -> Iterator[int]:
    """`count` draws of rng.randrange(bound), the same values, leaving the
    generator in the same state.

    Below 2^32, randrange takes a 32-bit output w of the generator as
    w >> (32 - bound.bit_length()) and draws again while that is >= bound.
    One getrandbits(32 m) gives m such outputs, the first in its lowest
    bits, so they are read in bulk; at most as many are asked for at once
    as draws are still missing, none past the last draw.  A larger bound
    draws by randrange."""
    if bound >= 1 << 32:
        for _ in range(count):
            yield rng.randrange(bound)
        return
    shift = 32 - bound.bit_length()
    while count:
        words = min(count, _WORDS_AT_ONCE)
        for w in struct.unpack(f"<{words}I", rng.getrandbits(32 * words).to_bytes(4 * words, "little")):
            if (draw := w >> shift) < bound:
                count -= 1
                yield draw


@functools.lru_cache(maxsize=None)
def _top_byte_tables(bound: int, numerator: int) -> Tuple[bytes, bytes]:
    """For a bound below 256, whose draw t >> (8 - bound.bit_length()) is
    read off the top byte t of a 32-bit output: the top bytes whose draw
    randrange rejects (>= bound), and the `bytes.translate` table writing
    1 for a top byte whose draw keeps its point (< numerator), else 0."""
    shift = 8 - bound.bit_length()
    rejected = bytes([t for t in range(256) if t >> shift >= bound])
    return rejected, bytes([t >> shift < numerator for t in range(256)])


def _kept_points(n: int, fld: Field, density: Fraction, rng: random.Random) -> List[Vector]:
    """The points of F^n in lexicographic order, each kept when
    rng.randrange(denominator) < numerator of the density: one draw a
    point, leaving the generator where those randrange calls leave it.

    The 32-bit outputs are read in bulk as in `_draws_below`.  Below 256,
    each output's draw is its top byte's (`_top_byte_tables`): every fourth
    byte of a read, rejected draws deleted and the rest written as keep
    flags by one `bytes.translate`, and `itertools.compress` keeps the
    points.  A larger denominator draws through `_draws_below`."""
    numerator, bound, count = density.numerator, density.denominator, fld.p**n
    if bound >= 256:
        draws = _draws_below(rng, bound, count)
        return [point for point, draw in zip(enumerate_space(n, fld), draws) if draw < numerator]
    rejected, keep = _top_byte_tables(bound, numerator)
    flags = bytearray()
    while len(flags) < count:
        words = min(count - len(flags), _WORDS_AT_ONCE)
        flags += rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4].translate(keep, rejected)
    return list(itertools.compress(enumerate_space(n, fld), flags))


def gen_point_cloud(
    n: int, fld: Field, density: Fraction, seed: int
) -> FrozenSet[Vector]:
    """Each point of F^n kept independently with the given probability
    (`_kept_points` of a `Random(seed)`)."""
    density = Fraction(density)
    if not 0 < density <= 1:
        raise ConfigDomainError(f"density {density} outside (0, 1]")
    return frozenset(_kept_points(n, fld, density, random.Random(seed)))


def gen_random_config(
    n: int,
    k: int,
    num_directions: int,
    density: Fraction,
    fld: Field,
    seed: int,
) -> Configuration:
    """Convenience corpus generator: the seeded flats of `_random_flats`
    plus an independently seeded random point cloud, in one `Configuration`."""
    points = gen_point_cloud(n, fld, density, seed ^ 0x9E3779B9)
    return Configuration(fld, n, k, points, _random_flats(n, k, num_directions, fld, seed))
