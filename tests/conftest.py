import random
from fractions import Fraction

import pytest

from kplab.config import Configuration, gen_random_config
from kplab.field import Field
from kplab.flats import enumerate_grassmannian, enumerate_points, make_flat
from kplab.oracles import affine_hull


@pytest.fixture(scope="session")
def f2():
    return Field(2)


@pytest.fixture(scope="session")
def f3():
    return Field(3)


@pytest.fixture(scope="session")
def f5():
    return Field(5)


def random_corpus(n, k, p, count, num_directions=None, density=Fraction(1, 2), start_seed=0):
    """Seeded configuration stream shared by the property tests and the
    acceptance suite."""
    from kplab.flats import gaussian_binomial

    fld = Field(p)
    if num_directions is None:
        num_directions = min(8, gaussian_binomial(n, k, p))
    for seed in range(start_seed, start_seed + count):
        yield seed, gen_random_config(n, k, num_directions, density, fld, seed)


def random_vectors(n, p, count, rng: random.Random):
    return [tuple(rng.randrange(p) for _ in range(n)) for _ in range(count)]


def planted_simplex_config(n, k, p, seed, extra_flats, extra_points):
    """Seeded direction-separated configuration holding at least one
    (k+1)-simplex: k+2 affinely independent points and their k+2 facet flats
    (distinct directions, since two facets share k points), padded with
    flats of new directions through the simplex's vertices and with points
    drawn from F^n or from the family's flats."""
    fld = Field(p)
    rng = random.Random(seed)
    while True:
        vertices = tuple(sorted(set(random_vectors(n, p, k + 2, rng))))
        if len(vertices) == k + 2 and affine_hull(vertices, fld)[0] == k + 1:
            break
    facets = [affine_hull(vertices[:i] + vertices[i + 1 :], fld)[1] for i in range(k + 2)]
    used = {f.direction for f in facets}
    fresh = [d for d in enumerate_grassmannian(n, k, fld) if d not in used]
    flats = facets + [make_flat(d, rng.choice(vertices), fld) for d in rng.sample(fresh, extra_flats)]
    points = set(vertices)
    for _ in range(extra_points):
        if rng.randrange(2):
            points.update(random_vectors(n, p, 1, rng))
        else:
            points.add(rng.choice(list(enumerate_points(rng.choice(flats), fld))))
    return Configuration(fld, n, k, frozenset(points), tuple(flats))
