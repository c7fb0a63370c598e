import inspect
import itertools
import random

import pytest

from conftest import random_vectors
from kplab.field import Field
from kplab.flats import (
    CosetKeys,
    affine_hull,
    coset_key,
    enumerate_coset_representatives,
    enumerate_grassmannian,
    enumerate_points,
    gaussian_binomial,
    is_direction_separated,
    make_flat,
    membership,
    span_of,
    unrank_grassmannian,
    zero_subspace,
)
from kplab.linalg import in_span, reduce_vector


def line(fld, n, direction, point):
    return make_flat(span_of([direction], n, fld), point, fld)


class TestGaussianBinomial:
    def test_pinned_counts(self):
        assert gaussian_binomial(3, 1, 2) == 7
        assert gaussian_binomial(4, 2, 3) == 130
        assert gaussian_binomial(5, 2, 3) == 1210

    def test_boundary_cases(self):
        for n in range(6):
            assert gaussian_binomial(n, 0, 3) == 1
            assert gaussian_binomial(n, n, 3) == 1

    def test_duality(self):
        for n in range(1, 7):
            for k in range(n + 1):
                for p in (2, 3, 5):
                    assert gaussian_binomial(n, k, p) == gaussian_binomial(n, n - k, p)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            gaussian_binomial(3, 4, 2)


class TestGrassmannianEnumeration:
    def test_f2_lines(self):
        subspaces = list(enumerate_grassmannian(2, 1, Field(2)))
        assert len(subspaces) == 3
        spans = {s.basis.rows for s in subspaces}
        assert spans == {((1, 0),), ((0, 1),), ((1, 1),)}

    @pytest.mark.parametrize(
        "n,k,p", [(3, 1, 2), (3, 2, 2), (4, 2, 3), (4, 1, 5), (2, 1, 7)]
    )
    def test_count_matches_formula(self, n, k, p):
        fld = Field(p)
        seen = set()
        for s in enumerate_grassmannian(n, k, fld):
            assert s.dim == k
            seen.add(s)
        assert len(seen) == gaussian_binomial(n, k, p)

    def test_extreme_dimensions(self):
        fld = Field(3)
        assert [s.dim for s in enumerate_grassmannian(4, 0, fld)] == [0]
        full = list(enumerate_grassmannian(3, 3, fld))
        assert len(full) == 1 and full[0].dim == 3

    def test_order_is_deterministic(self):
        fld = Field(3)
        first = [s.basis.rows for s in enumerate_grassmannian(3, 1, fld)]
        second = [s.basis.rows for s in enumerate_grassmannian(3, 1, fld)]
        assert first == second


@pytest.mark.parametrize(
    "n,k,p", [(2, 1, 5), (3, 1, 3), (3, 2, 7), (4, 0, 3), (4, 2, 5), (4, 4, 2), (5, 2, 3)]
)
def test_unrank_matches_enumeration(n, k, p):
    fld = Field(p)
    enumerated = list(enumerate_grassmannian(n, k, fld))
    assert [unrank_grassmannian(n, k, fld, i) for i in range(len(enumerated))] == enumerated
    with pytest.raises(IndexError):
        unrank_grassmannian(n, k, fld, len(enumerated))
    with pytest.raises(IndexError):
        unrank_grassmannian(n, k, fld, -1)


@pytest.mark.parametrize(
    "n,k,p", [(4, 2, 7), (4, 2, 5), (5, 2, 3), (3, 1, 3), (5, 3, 2), (3, 3, 3)]
)
def test_enumerate_points_product_order(n, k, p):
    # The reference order: the representative plus sum c_i row_i over
    # `itertools.product` coefficients, the first coefficient slowest.
    fld = Field(p)
    rng = random.Random(n * 100 + k * 10 + p)
    for dim in range(n + 1):
        directions = list(enumerate_grassmannian(n, dim, fld))
        for direction in rng.sample(directions, min(3, len(directions))):
            flat = make_flat(direction, tuple(rng.randrange(p) for _ in range(n)), fld)
            rows = direction.basis.rows
            expected = [
                tuple(
                    (x + sum(c * row[j] for c, row in zip(coeffs, rows))) % p
                    for j, x in enumerate(flat.representative)
                )
                for coeffs in itertools.product(range(p), repeat=len(rows))
            ]
            assert list(enumerate_points(flat, fld)) == expected


def test_enumerate_points_is_a_generator_function():
    # The benchmark tracer counts `flats.enumerate_points.yielded` only for
    # generator functions, so the points must be yielded, not returned.
    assert inspect.isgeneratorfunction(enumerate_points)


def test_enumerate_points_sizes():
    f3, f5 = Field(3), Field(5)
    point_flat = make_flat(zero_subspace(2), (1, 2), f3)
    assert list(enumerate_points(point_flat, f3)) == [(1, 2)]
    assert len(set(enumerate_points(line(f3, 2, (1, 1), (0, 0)), f3))) == 3
    plane = make_flat(span_of([(1, 0, 0, 0), (0, 1, 0, 0)], 4, f5), (0, 0, 1, 2), f5)
    assert len(set(enumerate_points(plane, f5))) == 25


def test_membership():
    f3 = Field(3)
    diag = line(f3, 2, (1, 1), (0, 0))
    assert membership(diag.representative, diag, f3)
    assert membership((2, 2), diag, f3)
    assert not membership((1, 2), diag, f3)


def test_membership_matches_span_definition():
    # membership compares coset keys; the textbook definition is
    # "x - rep lies in the direction's span".
    rng = random.Random(11)
    outcomes = set()
    for _ in range(200):
        p, n = rng.choice((2, 3, 5)), rng.randrange(1, 5)
        fld = Field(p)
        k = rng.randrange(n + 1)
        direction = span_of(random_vectors(n, p, k, rng), n, fld)
        flat = make_flat(direction, random_vectors(n, p, 1, rng)[0], fld)
        on_flat = list(enumerate_points(flat, fld))
        for x in random_vectors(n, p, 3, rng) + [rng.choice(on_flat)]:
            diff = tuple(fld.sub(a, b) for a, b in zip(x, flat.representative))
            expected = in_span(diff, direction.basis, fld)
            assert membership(x, flat, fld) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_packed_key_matches_canonical_representative(p):
    # The packed key of x (what CosetKeys gives) must separate cosets
    # exactly as the canonical representative reduce_vector(x) does, for
    # every k, including 0 (one coset per point) and n (a single coset); a
    # subspace's basis alone does not fix its ambient n at k = 0.  The
    # representative make_flat builds from the key's digits is that same
    # reduce_vector(x), and LinearSubspace.contains (key zero) agrees with
    # in_span.
    fld = Field(p)
    rng = random.Random(p)
    for n in range(1, 5):
        for k in range(n + 1):
            direction = zero_subspace(n)
            while direction.dim != k:
                direction = span_of(random_vectors(n, p, k, rng), n, fld)

            def key(x):
                (only,) = CosetKeys([x], fld).keys(direction)
                return only

            seen = set()
            for _ in range(40):
                x = random_vectors(n, p, 1, rng)[0]
                if rng.random() < 0.5:
                    # y in the coset of x: add a random element of the direction.
                    y = x
                    for row in direction.basis.rows:
                        c = rng.randrange(p)
                        y = tuple((a + c * b) % p for a, b in zip(y, row))
                else:
                    y = random_vectors(n, p, 1, rng)[0]
                same = reduce_vector(x, direction.basis, fld) == reduce_vector(y, direction.basis, fld)
                assert (key(x) == key(y)) == same
                assert 0 <= key(x) < p ** (n - k)
                assert key(x) == coset_key(x, direction, fld)
                assert membership(y, make_flat(direction, x, fld), fld) == same
                assert make_flat(direction, x, fld).representative == reduce_vector(
                    x, direction.basis, fld
                )
                diff = tuple((a - b) % p for a, b in zip(y, x))
                assert direction.contains(diff, fld) == in_span(diff, direction.basis, fld) == same
                seen.add(same)
            if k < n:
                assert seen == {True, False}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_coset_keys_match_coset_key(p):
    # The batch kernel gives coset_key of each of its points under every
    # direction of G(n,k), n <= 4 and every k including 0 (one coset per
    # point) and n (one coset), on empty, one-point, duplicate-laden and
    # full-F^n inputs, and on a coordinate line, whose all-zero levels are
    # left out; its points are the input sorted and distinct.
    fld = Field(p)
    rng = random.Random(p)
    for n in range(1, 5):
        space = list(itertools.product(range(p), repeat=n))
        drawn = random_vectors(n, p, 12, rng)
        axis = [(x,) + (0,) * (n - 1) for x in range(p)]
        inputs = [[], [space[1]], drawn + drawn[:7] + [drawn[0]] * 3, axis[::-1], space]
        kernels = [CosetKeys(points, fld) for points in inputs]
        for points, kernel in zip(inputs, kernels):
            assert kernel.points == sorted(set(points))
        for k in range(n + 1):
            for direction in enumerate_grassmannian(n, k, fld):
                for kernel in kernels:
                    assert kernel.keys(direction) == [coset_key(x, direction, fld) for x in kernel.points]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_coset_keys_prefix_count_bound(p):
    # A direction costs (n-k) steps per kept prefix: at most n per point and
    # at most the p + p^2 + ... + p^n prefixes of F^n, which the full space
    # reaches.
    fld = Field(p)
    rng = random.Random(p)
    for n in range(1, 5):
        bound = sum(p**i for i in range(1, n + 1))
        space = list(itertools.product(range(p), repeat=n))
        for size in (0, 1, 2, 5, 20, 60):
            points = random_vectors(n, p, size, rng)
            kept = sum(len(digits) for _, _, digits in CosetKeys(points, fld).levels)
            assert kept <= min(n * len(set(points)), bound)
        assert sum(len(digits) for _, _, digits in CosetKeys(space, fld).levels) == bound


def test_coset_keys_reject_mixed_ambient():
    f3 = Field(3)
    with pytest.raises(ValueError):
        CosetKeys([(0, 0), (1, 1, 1)], f3)
    with pytest.raises(ValueError):
        CosetKeys([(0, 0), (1, 1)], f3).keys(zero_subspace(3))


def test_make_flat_canonicalizes_representative():
    f3 = Field(3)
    assert line(f3, 2, (1, 1), (2, 2)) == line(f3, 2, (1, 1), (0, 0))
    assert line(f3, 2, (1, 1), (1, 2)) == line(f3, 2, (1, 1), (2, 0))


def test_equal_flats_hash_equal():
    f5 = Field(5)
    a = make_flat(span_of([(1, 2, 0), (0, 1, 1)], 3, f5), (1, 1, 1), f5)
    b = make_flat(span_of([(1, 3, 1), (2, 2, 3)], 3, f5), (2, 4, 2), f5)
    assert a == b and a is not b
    assert hash(a) == hash(b) and hash(a.direction) == hash(b.direction)
    # The kept hash is the dataclass hash of the fields, so set and dict
    # orders are those of structural hashing.
    assert hash(a) == hash(a) == hash((a.direction, a.representative))
    assert hash(a.direction) == hash((a.direction.ambient, a.direction.basis))
    assert len({a, b}) == 1


def test_pickle_round_trip_keeps_equality_and_hash():
    import pickle

    f3 = Field(3)
    flat = line(f3, 3, (1, 2, 0), (0, 1, 2))
    fresh = line(f3, 3, (2, 1, 0), (1, 0, 2))
    hash(flat)  # keep the hashes and the coset key on the instances
    membership((0, 1, 2), flat, f3)
    for obj, twin in ((flat, fresh), (flat.direction, fresh.direction)):
        copy = pickle.loads(pickle.dumps(obj))
        assert copy == obj == twin
        assert hash(copy) == hash(obj) == hash(twin)
        assert copy in {twin}
    copy = pickle.loads(pickle.dumps(flat))
    assert membership((0, 1, 2), copy, f3) and not membership((0, 0, 1), copy, f3)


class TestAffineHull:
    def test_single_point(self):
        dim, flat = affine_hull([(1, 2)], Field(3))
        assert dim == 0
        assert set(enumerate_points(flat, Field(3))) == {(1, 2)}

    def test_collinear_points(self):
        dim, _ = affine_hull([(0, 0), (1, 1), (2, 2)], Field(3))
        assert dim == 1

    def test_spanning_points_f2(self):
        dim, _ = affine_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1)], Field(2))
        assert dim == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            affine_hull([], Field(2))

    @pytest.mark.parametrize("points", [[(0, 0, 0), (1, 1)], [(0, 0), (1, 1, 1)]])
    def test_mixed_ambient_rejected(self, points):
        with pytest.raises(ValueError):
            affine_hull(points, Field(2))


def test_direction_separated():
    f3 = Field(3)
    a = line(f3, 2, (1, 0), (0, 0))
    b = line(f3, 2, (1, 0), (0, 1))
    c = line(f3, 2, (0, 1), (0, 0))
    assert is_direction_separated([a])
    assert is_direction_separated([a, c])
    assert not is_direction_separated([a, b])


def test_coset_representatives_partition_space():
    fld = Field(3)
    direction = span_of([(1, 1, 0)], 3, fld)
    reps = list(enumerate_coset_representatives(direction, fld))
    assert len(reps) == 3 ** (3 - 1)
    covered = set()
    for rep in reps:
        pts = set(enumerate_points(make_flat(direction, rep, fld), fld))
        assert not (pts & covered)
        covered |= pts
    assert len(covered) == 27
