"""Generators for the point/flat configurations used throughout: degenerate
configurations, (n,k) sets, random direction-separated families and random
point clouds.  All randomness is seeded and single-threaded, so equal seeds
give byte-identical output.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from .field import Field
from .flats import (
    AffineFlat,
    LinearSubspace,
    _at_free_columns,
    enumerate_grassmannian,
    enumerate_points,
    gaussian_binomial,
    is_direction_separated,
    make_flat,
    span_of,
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
        residues = frozenset(self.field.elements())
        for pt in self.points:
            if type(pt) is not tuple or len(pt) != self.n or not residues.issuperset(pt):
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
    """Type-(k,r) degenerate configuration: all p^r points of a fixed affine
    r-flat, and one k-flat per direction containing it.

    The point set attains the worst case |I| = |P| * |Pi| exactly; the flat
    count is gaussian_binomial(n-r, k-r, p).
    """
    if not 1 <= r < k <= n - 1:
        raise ConfigDomainError(f"need 1 <= r < k <= n-1, got n={n}, k={k}, r={r}")
    sigma_basis = [tuple(1 if j == i else 0 for j in range(n)) for i in range(r)]
    sigma = span_of(sigma_basis, n, fld)
    sigma_flat = make_flat(sigma, tuple([0] * n), fld)
    points = frozenset(enumerate_points(sigma_flat, fld))
    flats = tuple(
        make_flat(pi, tuple([0] * n), fld)
        for pi in enumerate_grassmannian(n, k, fld)
        if pi.contains_subspace(sigma, fld)
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
        if translate_rule == "zero":
            rep = origin
        else:
            rep = _random_coset_representative(pi, fld, rng)
        points.update(enumerate_points(make_flat(pi, rep, fld), fld))
    return frozenset(points)


def gen_random_direction_separated(
    n: int, k: int, num_directions: int, fld: Field, seed: int
) -> Configuration:
    """num_directions distinct directions sampled without replacement, one
    uniformly random translate each; the point set starts empty.

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
        flats.append(make_flat(pi, _random_coset_representative(pi, fld, rng), fld))
    return Configuration(fld, n, k, frozenset(), tuple(flats))


def gen_point_cloud(
    n: int, fld: Field, density: Fraction, seed: int
) -> FrozenSet[Vector]:
    """Each point of F^n kept independently with the given probability."""
    density = Fraction(density)
    if not 0 < density <= 1:
        raise ConfigDomainError(f"density {density} outside (0, 1]")
    draw = random.Random(seed).randrange
    numerator, denominator = density.numerator, density.denominator
    return frozenset(point for point in enumerate_space(n, fld) if draw(denominator) < numerator)


def gen_random_config(
    n: int,
    k: int,
    num_directions: int,
    density: Fraction,
    fld: Field,
    seed: int,
) -> Configuration:
    """Convenience corpus generator: seeded random direction-separated flats
    plus an independently seeded random point cloud."""
    flats_cfg = gen_random_direction_separated(n, k, num_directions, fld, seed)
    points = gen_point_cloud(n, fld, density, seed ^ 0x9E3779B9)
    return flats_cfg.with_points(points)
