"""Row reduction, spans, annihilator rows, affine solving and the cached
rank test `span`; the canonicity shuffle test is the load-bearing one,
since everything downstream hashes RREF output."""

import itertools
import random

import pytest

from conftest import random_vectors
from kplab.field import Field
from kplab.linalg import normalized, null_space_rows, rref, span
from kplab.oracles import in_span, reduce_vector, solve_affine_system


def test_rref_full_rank_f2():
    basis = rref([(1, 1), (0, 1)], Field(2))
    assert basis.rows == ((1, 0), (0, 1))
    assert basis.pivots == (0, 1)


def test_rref_scalar_multiple_collapses():
    # (2,4,0) reduces to (2,1,0) mod 3, a scalar multiple of (1,2,0).
    basis = rref([(1, 2, 0), (2, 1, 0)], Field(3))
    assert basis.rank == 1
    assert basis.rows == ((1, 2, 0),)


def test_rref_zero_vector():
    assert rref([(0, 0, 0)], Field(5)).rank == 0


def test_rref_mixed_dimensions_rejected():
    with pytest.raises(ValueError):
        rref([(1, 0), (1, 0, 0)], Field(2))


@pytest.mark.parametrize("n,p", [(3, 2), (3, 3), (4, 5)])
def test_rref_canonicity_under_shuffle_and_rescale(n, p):
    fld = Field(p)
    rng = random.Random(1234)
    for _ in range(200):
        vectors = random_vectors(n, p, rng.randrange(1, n + 2), rng)
        reference = rref(vectors, fld)
        mutated = list(vectors)
        rng.shuffle(mutated)
        scaled = []
        for v in mutated:
            scalar = rng.randrange(1, p)
            scaled.append(tuple(scalar * x % p for x in v))
        mutated = scaled
        assert rref(mutated, fld) == reference


def test_reduce_vector_zero_iff_in_span():
    fld = Field(5)
    basis = rref([(1, 2, 3), (0, 1, 4)], fld)
    member = tuple((a + b) % 5 for a, b in zip((1, 2, 3), (0, 1, 4)))
    assert reduce_vector(member, basis, fld) == (0, 0, 0)
    assert in_span(member, basis, fld)
    assert not in_span((0, 0, 1), basis, fld)
    # Pivot coordinates of the residual are always zero.
    residual = reduce_vector((4, 4, 4), basis, fld)
    assert residual[0] == 0 and residual[1] == 0


def test_null_space_is_orthogonal_complement():
    fld = Field(7)
    basis = rref([(1, 2, 3, 4), (0, 0, 1, 1)], fld)
    ns = null_space_rows(basis, 4, fld)
    assert rref(ns, fld).rank == len(ns) == 4 - basis.rank
    for c in ns:
        for row in basis.rows:
            assert sum(ci * xi for ci, xi in zip(c, row)) % 7 == 0


def test_solve_affine_system_consistent():
    fld = Field(3)
    # x + y = 1, y + z = 2 in F_3^3: a line.
    solution = solve_affine_system([((1, 1, 0), 1), ((0, 1, 1), 2)], 3, fld)
    assert solution is not None
    particular, homogeneous = solution
    for c, d in [((1, 1, 0), 1), ((0, 1, 1), 2)]:
        assert sum(ci * xi for ci, xi in zip(c, particular)) % 3 == d
    assert homogeneous.rank == 1


def test_solve_affine_system_inconsistent():
    fld = Field(3)
    assert solve_affine_system([((1, 0), 0), ((1, 0), 1)], 2, fld) is None


def test_solve_affine_system_empty_describes_everything():
    particular, homogeneous = solve_affine_system([], 2, Field(2))
    assert particular == (0, 0)
    assert homogeneous.rank == 2


@pytest.mark.parametrize("k,p", [(k, p) for k in (1, 2, 3) for p in (2, 3, 5)])
def test_hyperplane_against_rref(k, p):
    # `span` against `rref`, on the points 0, v_1, ..., v_(s-1) of F^k for
    # each s <= k+1: every such tuple where there are at most 3^9 of them,
    # else a seeded sample.  The dimension is the RREF rank of the v_i.  At dimension k-1 the normal
    # leads with 1 and vanishes on their RREF basis rows, so on all p^(k-1)
    # points of their span; a nonzero functional vanishes on exactly
    # p^(k-1) points, so its kernel is that span.  Below or above k-1 there
    # is no hyperplane.  The points moved by t have the same dimension and
    # the same normal at level normal . t.
    fld = Field(p)
    rng = random.Random(k * 100 + p)
    space = list(itertools.product(range(p), repeat=k))
    origin, shift = (0,) * k, (1,) * k
    for s in range(1, k + 2):
        if p ** (k * (s - 1)) <= 3**9:
            tails = itertools.product(space, repeat=s - 1)
        else:
            tails = (tuple(rng.choice(space) for _ in range(s - 1)) for _ in range(2000))
        for tail in tails:
            basis = rref(tail, fld)
            dim, plane = span((origin,) + tail, p)
            assert dim == basis.rank
            moved = span(tuple(tuple((a + 1) % p for a in x) for x in (origin,) + tail), p)
            if dim == k - 1:
                normal, level = plane
                assert level == 0 and normal == normalized(normal, p)
                assert all(sum(a * b for a, b in zip(normal, row)) % p == 0 for row in basis.rows)
                assert moved == (dim, (normal, sum(shift[j] * normal[j] for j in range(k)) % p))
            else:
                assert plane is None and moved == (dim, None)


def test_span_cache_is_keyed_by_p():
    # (2,1) is twice (1,2) mod 3 but not mod 5: a line over GF(3), the plane
    # over GF(5), asked in one process.
    points = ((0, 0), (1, 2), (2, 1))
    assert span(points, 3)[0] == 1
    assert span(points, 5)[0] == 2
    assert span(points, 3)[0] == 1


def test_normalized():
    assert normalized((0, 3, 1), 5) == (0, 1, 2)
    assert normalized((0, 5, 10), 5) is None
    assert normalized((), 3) is None
