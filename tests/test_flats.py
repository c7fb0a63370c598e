import inspect
import itertools
import random
import sys
from fractions import Fraction

import pytest

from conftest import random_vectors
from kplab.config import Configuration, gen_random_config
from kplab.field import Field
from kplab.flats import (
    AffineFlat,
    CosetKeys,
    CosetMasks,
    CosetSums,
    _bitmask,
    coordinate_flat,
    coset_key,
    enumerate_grassmannian,
    enumerate_points,
    flats_through,
    gaussian_binomial,
    make_flat,
    membership,
    span_of,
    unrank_grassmannian,
)
from kplab.linalg import normalized, null_space_rows
from kplab.maximal import default_candidates
from kplab.oracles import affine_hull, enumerate_coset_representatives, in_span, reduce_vector


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
        assert list(enumerate_grassmannian(4, 0, fld)) == [span_of((), 4, fld)]
        full = list(enumerate_grassmannian(3, 3, fld))
        assert len(full) == 1 and full[0].dim == 3
        for k in (3, -1):
            with pytest.raises(ValueError, match="need 0 <= k <= n"):
                next(enumerate_grassmannian(2, k, fld))

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


@pytest.mark.parametrize(
    "n,k,p",
    [(2, 1, 5), (3, 1, 3), (3, 2, 3), (3, 2, 7), (4, 1, 3), (4, 2, 3), (4, 2, 5), (4, 3, 2), (5, 2, 2), (5, 3, 3)],
)
def test_enumerate_points_ascending(n, k, p):
    # RREF rows are zero before their pivots, so a flat's points come out
    # sorted and distinct; incidence_count keeps them in this order.
    fld = Field(p)
    rng = random.Random(n * 100 + k * 10 + p)
    total = gaussian_binomial(n, k, p)
    for _ in range(60):
        direction = unrank_grassmannian(n, k, fld, rng.randrange(total))
        flat = make_flat(direction, tuple(rng.randrange(p) for _ in range(n)), fld)
        points = list(enumerate_points(flat, fld))
        assert points == sorted(set(points))


@pytest.mark.parametrize("n,r,p", [(3, 1, 7), (3, 2, 3), (4, 2, 3), (5, 3, 2), (4, 4, 3)])
def test_coordinate_flat_is_span_of_first_unit_vectors(n, r, p):
    # The points zero after their first r coordinates, found by scanning F^n.
    fld = Field(p)
    flat = coordinate_flat(n, r, fld)
    assert (flat.ambient, flat.dim, flat.representative) == (n, r, (0,) * n)
    on = {x for x in itertools.product(range(p), repeat=n) if not any(x[r:])}
    assert set(enumerate_points(flat, fld)) == on


def test_enumerate_points_is_a_generator_function():
    # The benchmark tracer counts `flats.enumerate_points.yielded` only for
    # generator functions, so the points must be yielded, not returned.
    assert inspect.isgeneratorfunction(enumerate_points)


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("p", [2, 3, 5, 7, 127, 131])
def test_enumerate_points_lanes_match_expansion(p, k):
    # The plain column expansion: x_j plus each row's multiples, row by row.
    # At p = 127 and k >= 2 a lane sum runs past 255 and is reduced before it
    # carries; at p = 131 enumerate_points expands the columns itself.  Flats
    # of more than 10^5 points are held to it once, in F^(k+1).
    fld = Field(p)
    rng = random.Random(p * 10 + k)
    n = k + 1 if p**k > 10**5 else k + 2
    total = gaussian_binomial(n, k, p)
    for _ in range(1 if p**k > 10**5 else 4):
        direction = unrank_grassmannian(n, k, fld, rng.randrange(total))
        flat = make_flat(direction, tuple(rng.randrange(p) for _ in range(n)), fld)
        basis = direction.basis
        columns = []
        for j, x in enumerate(flat.representative):
            values = [x]
            for row in basis.rows:
                values = [(v + row[j] * c) % p for v in values for c in range(p)]
            columns.append(values)
        points = list(enumerate_points(flat, fld))
        assert points == list(zip(*columns))
        assert points == sorted(points) and len(set(points)) == p**k


def test_enumerate_points_sizes():
    f3, f5 = Field(3), Field(5)
    point_flat = make_flat(span_of((), 2, f3), (1, 2), f3)
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


def test_membership_of_directly_built_flat():
    # An AffineFlat built by hand, equal to the make_flat one, tests every
    # point of F_3^3 the same way; a test over another field is refused,
    # also once the flat keeps its digits from those tests.
    f3 = Field(3)
    direction = span_of([(1, 0, 0)], 3, f3)
    direct = AffineFlat(direction, (0, 1, 2))
    built = make_flat(direction, (2, 1, 2), f3)
    assert direct == built and hash(direct) == hash(built)
    for x in itertools.product(range(3), repeat=3):
        assert membership(x, direct, f3) == membership(x, built, f3)
    for flat in (direct, built):
        with pytest.raises(ValueError):
            membership((0, 1, 2), flat, Field(5))


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
            diff = tuple((a - b) % p for a, b in zip(x, flat.representative))
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
    # reduce_vector(x), and key zero (the zero coset) agrees with in_span.
    fld = Field(p)
    rng = random.Random(p)
    for n in range(1, 5):
        for k in range(n + 1):
            direction = span_of((), n, fld)
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
                assert (coset_key(diff, direction, fld) == 0) == in_span(diff, direction.basis, fld) == same
                seen.add(same)
            if k < n:
                assert seen == {True, False}


@pytest.mark.parametrize("p", [2, 3, 5])
def test_coset_keys_match_coset_key(p):
    # The batch kernels give coset_key of each of their points under every
    # direction of G(n,k), n <= 4 and every k including 0 (one coset per
    # point) and n (one coset), on empty, one-point, duplicate-laden and
    # full-F^n inputs, and on a coordinate line, all of whose columns but the
    # first are zero; their points are the input sorted and distinct.  The masks
    # are exactly the nonempty classes of equal key: disjoint, nonempty and
    # covering the points.
    fld = Field(p)
    rng = random.Random(p)
    for n in range(1, 5):
        space = list(itertools.product(range(p), repeat=n))
        drawn = random_vectors(n, p, 12, rng)
        axis = [(x,) + (0,) * (n - 1) for x in range(p)]
        inputs = [[], [space[1]], drawn + drawn[:7] + [drawn[0]] * 3, axis[::-1], space]
        kernels = [(CosetKeys(points, fld), CosetMasks(points, fld)) for points in inputs]
        for points, (kernel, masks) in zip(inputs, kernels):
            assert kernel.points == masks.points == sorted(set(points))
        for k in range(n + 1):
            for direction in enumerate_grassmannian(n, k, fld):
                for kernel, masks in kernels:
                    keys = [coset_key(x, direction, fld) for x in kernel.points]
                    assert kernel.keys(direction) == keys
                    classes = {}
                    for i, key in enumerate(keys):
                        classes[key] = classes.get(key, 0) | 1 << i
                    got = masks.masks(direction)
                    assert all(got) and len(got) == len(set(got))
                    assert sorted(got) == sorted(classes.values())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_coset_masks_answer_in_any_order(p):
    # CosetMasks resumes each direction's fold from the steps it shares
    # with the direction asked before.  Two kernels, on half of F^n and on
    # all of it, are asked in turn for their own shuffles of every
    # direction of G(n,k), k = 0..n, mixed (at most 200 of them), one
    # direction asked twice running: each answer is the classes of equal
    # coset_key.  Directions of F^(n-1) and F^(n+1) in the lists are refused
    # whenever they come, and the walks go on.
    fld = Field(p)
    rng = random.Random(20 + p)
    for n in range(1, 5):
        space = list(itertools.product(range(p), repeat=n))
        kernels = [CosetMasks(rng.sample(space, len(space) // 2 + 1), fld), CosetMasks(space, fld)]
        everything = [d for k in range(n + 1) for d in enumerate_grassmannian(n, k, fld)]
        strangers = [span_of((), n + 1, fld)] + ([unrank_grassmannian(n - 1, 1, fld, 0)] if n > 1 else [])
        orders = []
        for _ in kernels:
            order = rng.sample(everything, min(len(everything), 200))
            for stranger in strangers:
                order.insert(rng.randrange(len(order)), stranger)
            twice = rng.randrange(len(order))
            order.insert(twice, order[twice])
            orders.append(order)
        for asked in zip(*orders):
            for masks, direction in zip(kernels, asked):
                if direction.ambient != n:
                    with pytest.raises(ValueError):
                        masks.masks(direction)
                    continue
                classes = {}
                for i, x in enumerate(masks.points):
                    key = coset_key(x, direction, fld)
                    classes[key] = classes.get(key, 0) | 1 << i
                assert sorted(masks.masks(direction)) == sorted(classes.values())


@pytest.mark.parametrize(
    "n,k,p,width",
    [
        (4, 2, 7, 1),
        (5, 2, 7, 2),
        (7, 1, 11, 4),
        (9, 1, 31, 8),
        (4, 2, 127, 2),  # three columns a row: the lanes are reduced between adds
        (9, 1, 2, 1),  # 2^8 keys: a full 1-byte lane
        (6, 1, 31, 4),  # 31^5 > 2^24: four bytes, not three
        (65, 1, 2, 8),  # 2^64 keys
        (66, 1, 2, None),  # 2^65 keys: column sums
        (3, 1, 131, None),  # p >= 128: column sums
        (45, 1, 3, None),  # 3^44 > 2^64: column sums
    ],
)
def test_coset_keys_lanes_match_coset_key(monkeypatch, n, k, p, width):
    # Each path of CosetKeys.keys, byte lanes of 1, 2, 4 and 8 bytes a key
    # or column sums, gives coset_key of each point on empty, one-point,
    # duplicate-laden and drawn inputs, under every direction of G(n,k) or,
    # where it is too large to enumerate, under sampled ones.
    widths = []
    lane_keys = CosetKeys._lane_keys

    def recorded(self, rows, lanes):
        widths.append(lanes)
        return lane_keys(self, rows, lanes)

    monkeypatch.setattr(CosetKeys, "_lane_keys", recorded)
    fld = Field(p)
    rng = random.Random(n * p + k)
    drawn = random_vectors(n, p, 40, rng)
    inputs = [[], drawn[:1], drawn[:9] + drawn[:5] + [drawn[3]] * 4, drawn + [(p - 1,) * n, (0,) * n]]
    kernels = [CosetKeys(points, fld) for points in inputs]
    total = gaussian_binomial(n, k, p)
    if total <= 3000:
        directions = list(enumerate_grassmannian(n, k, fld))
    else:
        directions = [unrank_grassmannian(n, k, fld, rng.randrange(total)) for _ in range(40)]
    for direction in directions:
        for kernel in kernels:
            assert kernel.keys(direction) == [coset_key(x, direction, fld) for x in kernel.points]
    assert set(widths) == ({width} if width else set())


def test_membership_stops_only_at_a_differing_digit():
    # membership compares the annihilator digits of the point with the
    # flat's one row at a time: on (4,2,7) flats, points that share the
    # flat's first digit but not its second are refused, and every answer
    # is the one coset_key gives.
    fld = Field(7)
    rng = random.Random(4)
    space = list(itertools.product(range(7), repeat=4))
    later = 0
    for _ in range(20):
        direction = unrank_grassmannian(4, 2, fld, rng.randrange(gaussian_binomial(4, 2, 7)))
        flat = make_flat(direction, rng.choice(space), fld)
        rows = null_space_rows(direction.basis, 4, fld)
        assert len(rows) == 2

        def digits(x):
            return [sum(a * b for a, b in zip(row, x)) % 7 for row in rows]

        own = digits(flat.representative)
        for x in rng.sample(space, 200):
            on = membership(x, flat, fld)
            assert on == (coset_key(x, direction, fld) == coset_key(flat.representative, direction, fld))
            first, second = digits(x)
            if first == own[0] and second != own[1]:
                assert not on
                later += 1
    assert later > 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_coset_sums_match_keyed_sums(p):
    # Whichever kernel it picks, the largest coset sum of each weighting is
    # the largest sum over the classes of equal coset_key: for every
    # direction of G(n,k), n <= 3 and every k, on a weighting of several
    # values, the indicator of F^n, one point and the empty weighting, on a
    # sparse family, and on no points at all (a configuration without
    # points).  Both kernels are picked across the cases.
    fld = Field(p)
    rng = random.Random(p)
    picked = set()
    for n in range(1, 4):
        space = list(itertools.product(range(p), repeat=n))
        drawn = sorted(set(random_vectors(n, p, 6, rng)))
        spread = {}
        for x in space:
            if rng.random() < 0.7:
                spread.setdefault(rng.randint(1, 4), []).append(x)
        dense = [list(spread.items()), [(1, space)], [(5, [space[-1]])], []]
        for weightings in (dense, [[(1, drawn)]], [[]], [[(3, [])]]):
            for k in range(n + 1):
                sums = CosetSums(weightings, k, fld)
                picked.add(type(sums.kernel))
                for direction in enumerate_grassmannian(n, k, fld):
                    want = []
                    for weighting in weightings:
                        totals = {}
                        for value, points in weighting:
                            for x in points:
                                key = coset_key(x, direction, fld)
                                totals[key] = totals.get(key, 0) + value
                        want.append(max(totals.values(), default=0))
                    assert sums.maxima(direction) == want
    assert picked == {CosetKeys, CosetMasks}


def test_coset_sums_kernel_stays_linear_in_points():
    # At k = 0 every point of F^n is its own coset, and masks would hold
    # |points|^2 bits: the keys are picked.  At k = n there is one coset and
    # the masks are picked, p per coordinate of |points| bits each.
    fld = Field(31)
    space = list(itertools.product(range(31), repeat=3))
    constant = [[(2, space)]]
    keyed = CosetSums(constant, 0, fld)
    assert isinstance(keyed.kernel, CosetKeys)
    assert keyed.maxima(span_of((), 3, fld)) == [2]
    masked = CosetSums(constant, 3, fld)
    assert isinstance(masked.kernel, CosetMasks)
    assert max(mask.bit_length() for column in masked.kernel.columns for mask in column) <= len(space)
    (whole,) = enumerate_grassmannian(3, 3, fld)
    assert masked.maxima(whole) == [2 * len(space)]
    # The step count's picks on the default witness families of the maximal
    # operator, each witness an indicator or the constant 1 (one class of
    # value 1): masks on dense families with few cosets, keys on many cosets.
    # These pin the count, not the faster kernel: keys run faster at
    # (3,1,13) and (4,1,7), yet the count picks masks.  The benchmark's
    # sparse incidence-bound configurations (37 points of F_7^4 under
    # planes, its default seed) are keyed.
    for (n, k, p), kernel in [
        ((3, 2, 7), CosetMasks),
        ((3, 1, 13), CosetMasks),
        ((4, 1, 7), CosetMasks),
        ((4, 2, 5), CosetMasks),
        ((2, 1, 61), CosetKeys),
        ((3, 0, 31), CosetKeys),
    ]:
        fld = Field(p)
        family = [[(1, points) for _, points in f.classes] for f in default_candidates(n, k, fld, 0).values()]
        assert isinstance(CosetSums(family, k, fld).kernel, kernel)
    fld = Field(7)
    for seed in (935448141, 694982796):
        cfg = gen_random_config(4, 2, 200, Fraction(1, 64), fld, seed)
        assert len(cfg.points) == 37
        assert isinstance(CosetSums([[(1, cfg.points)]], 2, fld).kernel, CosetKeys)


def test_coset_keys_reject_mixed_ambient():
    f3 = Field(3)
    with pytest.raises(ValueError):
        CosetKeys([(0, 0), (1, 1, 1)], f3)
    with pytest.raises(ValueError):
        CosetKeys([(0, 0), (1, 1)], f3).keys(span_of((), 3, f3))
    with pytest.raises(ValueError):
        CosetMasks([(0, 0), (1, 1, 1)], f3)
    with pytest.raises(ValueError):
        CosetMasks([(0, 0), (1, 1)], f3).masks(span_of((), 3, f3))
    with pytest.raises(ValueError):
        CosetSums([[(1, [(0, 0)])], [(1, [(1, 1, 1)])]], 0, f3)
    with pytest.raises(ValueError):
        CosetSums([[(1, [(0, 0)])]], 0, f3).maxima(span_of((), 3, f3))


def _flats_through_by_span(flat, fld):
    """The (k+1)-flats through a k-flat, each the canonical flat of the
    rref span of its direction and one vector off it, keyed by that
    vector's normalized image under the direction's annihilator rows."""
    n, p = flat.ambient, fld.p
    annihilator = null_space_rows(flat.direction.basis, n, fld)
    spans = {}
    for v in itertools.product(range(p), repeat=n):
        key = normalized([sum(a * x for a, x in zip(row, v)) for row in annihilator], p)
        if key is not None and key not in spans:
            direction = span_of(flat.direction.basis.rows + (v,), n, fld)
            spans[key] = make_flat(direction, flat.representative, fld)
            if len(spans) == (p ** (n - flat.dim) - 1) // (p - 1):
                break
    return spans


@pytest.mark.parametrize("n,k,p", [(3, 1, 5), (4, 1, 3), (4, 2, 3), (5, 2, 3), (5, 3, 2)])
def test_flats_through_matches_span_construction(n, k, p):
    # flats_through writes each span in canonical form with no elimination;
    # every direction of G(n,k), each with a seeded representative.
    fld = Field(p)
    rng = random.Random(n * 100 + k * 10 + p)
    for direction in enumerate_grassmannian(n, k, fld):
        rep = tuple(rng.randrange(p) for _ in range(n))
        flat = make_flat(direction, rep, fld)
        through = flats_through(flat, fld)
        assert len(through) == (p ** (n - k) - 1) // (p - 1)
        assert through == _flats_through_by_span(flat, fld)
        for span in through.values():
            assert span.dim == k + 1
            assert span == make_flat(span.direction, span.representative, fld)
            assert membership(flat.representative, span, fld)


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
    # The kept hash is the hash of the field tuple, so set and dict
    # orders are those of structural hashing.
    assert hash(a) == hash(a) == hash((a.direction, a.representative))
    assert hash(a.direction) == hash((a.direction.ambient, a.direction.basis))
    assert len({a, b}) == 1


def test_pickle_round_trip_keeps_equality_and_hash():
    import pickle

    f3 = Field(3)
    flat = line(f3, 3, (1, 2, 0), (0, 1, 2))
    fresh = line(f3, 3, (2, 1, 0), (1, 0, 2))
    hash(flat)  # keep the hashes and the flat's digits on the instances
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
    assert Configuration(f3, 2, 1, frozenset(), (a,)).direction_separated
    assert Configuration(f3, 2, 1, frozenset(), (a, c)).direction_separated
    assert not Configuration(f3, 2, 1, frozenset(), (a, b)).direction_separated


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


def bytearray_bitmask(positions, size):
    """The int whose set bits are `positions`, one bit or-ed in at a time."""
    bits = bytearray((size + 7) >> 3)
    for i in positions:
        bits[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(bits, "little")


def bytearray_masks(points, p, n):
    """The masks of each coordinate value, one bit or-ed in per point."""
    return [
        [bytearray_bitmask([i for i, x in enumerate(points) if x[j] == v], len(points)) for v in range(p)]
        for j in range(n)
    ]


@pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 7**5])
def test_masks_match_bytearray_construction(size):
    # CosetMasks reads its columns, and _bitmask its positions, as binary
    # digit strings.  F_7^5 has 16 807 points, more digits than the default
    # limit on int strings (4300), which base 2 is exempt from.
    fld = Field(7)
    space = list(itertools.product(range(7), repeat=5))
    points = sorted(random.Random(size).sample(space, size))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        kernel = CosetMasks(points, fld)
        assert kernel.columns == (bytearray_masks(points, 7, 5) if points else [])
        positions = [i for i in range(size) if i % 3 != 1]
        assert _bitmask(positions, size) == bytearray_bitmask(positions, size)
        assert _bitmask([], size) == 0
    finally:
        sys.set_int_max_str_digits(limit)


def test_masks_of_a_large_field_match_bytearray_construction():
    # At p >= 256 a column's masks come from each value's positions.
    fld = Field(257)
    points = sorted(set(random_vectors(2, 257, 300, random.Random(0))))
    assert CosetMasks(points, fld).columns == bytearray_masks(points, 257, 2)
