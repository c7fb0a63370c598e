"""Generators for the point/flat configurations used throughout: degenerate
configurations, (n,k) sets, random direction-separated families and random
point clouds.  All randomness is seeded and single-threaded, so equal seeds
give byte-identical output.
The seeded draws have one owner each: points `_kept_points` (also of the
maximal witnesses, its `randrange` draws read in bulk by `_draws_below`),
flats `_random_flats`.
"""

from __future__ import annotations

import itertools
import random
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from .field import Field
from .flats import (
    AffineFlat,
    LinearSubspace,
    _at_free_columns,
    coordinate_flat,
    enumerate_grassmannian,
    enumerate_points,
    gaussian_binomial,
    is_direction_separated,
    make_flat,
    unrank_grassmannian,
)
from .linalg import Vector


class ConfigDomainError(ValueError):
    pass


@dataclass(frozen=True)
class Configuration:
    """A point set P in F^n together with a family of affine k-flats."""

    field: Field
    n: int
    k: int
    points: FrozenSet[Vector]
    flats: Tuple[AffineFlat, ...]

    def __post_init__(self):
        for pt in self.field.points_outside(self.points, self.n):
            raise ConfigDomainError(f"point {pt!r} is not in F_{self.field.p}^{self.n}")
        if len(set(self.flats)) != len(self.flats):
            raise ConfigDomainError("duplicate flats in configuration")
        for f in self.flats:
            if f.ambient != self.n or f.dim != self.k:
                raise ConfigDomainError("flat with wrong ambient dimension or dim")

    @property
    def direction_separated(self) -> bool:
        return is_direction_separated(self.flats)

    def with_points(self, points) -> "Configuration":
        return Configuration(self.field, self.n, self.k, frozenset(points), self.flats)


def enumerate_space(n: int, fld: Field) -> Iterator[Vector]:
    """All p^n points of F^n in lexicographic order."""
    return itertools.product(fld.elements(), repeat=n)


def gen_degenerate(n: int, k: int, r: int, fld: Field) -> Configuration:
    """Type-(k,r) degenerate configuration: all p^r points of the coordinate
    r-flat (`coordinate_flat`), and one k-flat per direction containing it.

    The point set attains the worst case |I| = |P| * |Pi| exactly; the flat
    count is gaussian_binomial(n-r, k-r, p).
    """
    if not 1 <= r < k <= n - 1:
        raise ConfigDomainError(f"need 1 <= r < k <= n-1, got n={n}, k={k}, r={r}")
    sigma = coordinate_flat(n, r, fld)
    points = frozenset(enumerate_points(sigma, fld))
    flats = tuple(
        make_flat(pi, sigma.representative, fld)
        for pi in enumerate_grassmannian(n, k, fld)
        if pi.contains_subspace(sigma.direction, fld)
    )
    return Configuration(fld, n, k, points, flats)


def _random_coset_representative(
    direction: LinearSubspace, fld: Field, rng: random.Random
) -> Vector:
    free = direction.ambient - direction.dim
    return _at_free_columns(direction, [rng.randrange(fld.p) for _ in range(free)])


def gen_nk_set(
    n: int,
    k: int,
    fld: Field,
    translate_rule: str = "zero",
    seed: Optional[int] = None,
) -> FrozenSet[Vector]:
    """Union over every direction in G(n,k) of one affine translate's points.

    translate_rule "zero" takes the subspace itself; "random" samples one
    coset uniformly per direction (seeded).
    """
    if not 1 <= k <= n - 1:
        raise ConfigDomainError(f"need 1 <= k <= n-1, got n={n}, k={k}")
    if translate_rule not in ("zero", "random"):
        raise ConfigDomainError(f"unknown translate rule {translate_rule!r}")
    rng = random.Random(seed)
    points = set()
    origin = tuple([0] * n)
    for pi in enumerate_grassmannian(n, k, fld):
        rep = origin if translate_rule == "zero" else _random_coset_representative(pi, fld, rng)
        points.update(enumerate_points(AffineFlat(pi, rep), fld))
    return frozenset(points)


def gen_random_direction_separated(n: int, k: int, num_directions: int, fld: Field, seed: int) -> Configuration:
    """The seeded flats of `_random_flats`, with an empty point set."""
    return Configuration(fld, n, k, frozenset(), _random_flats(n, k, num_directions, fld, seed))


def _random_flats(n: int, k: int, num_directions: int, fld: Field, seed: int) -> Tuple[AffineFlat, ...]:
    """num_directions distinct directions sampled without replacement, one
    uniformly random translate each.

    The directions are the first num_directions slots of a partial
    Fisher-Yates shuffle of G(n,k)'s enumeration order, taken in ascending
    position.  Only the swapped slots are stored, and each pick is unranked
    (`unrank_grassmannian`) rather than enumerated, so the work is
    O(num_directions) and not O(|G(n,k)|)."""
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
    flats = []
    for target in sorted(swapped.get(i, i) for i in range(num_directions)):
        pi = unrank_grassmannian(n, k, fld, target)
        flats.append(AffineFlat(pi, _random_coset_representative(pi, fld, rng)))
    return tuple(flats)


# The most 32-bit words `_draws_below` asks of the generator at once.
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


def _kept_points(n: int, fld: Field, density: Fraction, rng: random.Random) -> List[Vector]:
    """The points of F^n in lexicographic order, each kept when
    rng.randrange(denominator) < numerator of the density: one draw a point,
    read in bulk (`_draws_below`)."""
    numerator = density.numerator
    draws = _draws_below(rng, density.denominator, fld.p**n)
    return [point for point, draw in zip(enumerate_space(n, fld), draws) if draw < numerator]


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
