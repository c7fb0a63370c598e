"""The reference unit: a fixed pure-Python computation that the benchmark
times next to every pass, so pass times can be given in seconds of a host
of fixed speed.

It mirrors the mix of kplab's hot kernels (mod-p row reduction over tuples,
dict-cached keys and Fraction sums) without importing kplab, so a change to
kplab never changes it.  Changing this file changes every timing the
benchmark reports: do not edit it without re-measuring the baseline.
"""

import random
from fractions import Fraction

P = 5
N = 4
NUM_POINTS = 312
NUM_FLATS = 60


def reduce_vector(v, basis):
    for pivot, row in basis:
        c = v[pivot]
        if c:
            v = tuple((a - c * b) % P for a, b in zip(v, row))
    return v


def rref(rows):
    basis = []
    for r in rows:
        r = reduce_vector(r, basis)
        pivot = next((i for i, a in enumerate(r) if a), None)
        if pivot is None:
            continue
        inv = pow(r[pivot], P - 2, P)
        r = tuple(a * inv % P for a in r)
        basis = [(p, tuple((a - row[pivot] * b) % P for a, b in zip(row, r))) for p, row in basis]
        basis.append((pivot, r))
    return basis


def unit() -> Fraction:
    """Bin NUM_POINTS random points of GF(5)^4 by coset of NUM_FLATS random
    2-dimensional directions, summing a Fraction per point."""
    rng = random.Random(1)
    points = [tuple(rng.randrange(P) for _ in range(N)) for _ in range(NUM_POINTS)]
    flats = [rref([tuple(rng.randrange(P) for _ in range(N)) for _ in range(2)]) for _ in range(NUM_FLATS)]
    cosets = {}
    total = Fraction(0)
    for index, basis in enumerate(flats):
        for pt in points:
            key = (index, reduce_vector(pt, basis))
            weight = cosets.get(key)
            if weight is None:
                weight = cosets[key] = len(cosets) % 7 + 1
            total += Fraction(1, weight)
    return total
