import contextlib
import functools
import io
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leelat import analyzer, cli, hadamard, intlat, metric, xform
from leelat.errors import CapExceededError, DimensionError, IntegralityError
from leelat.intlat import Lattice
from leelat.xform import ContinuousBoxReport, DiscreteBoxReport, RadicalVector, TransformSpec

from helpers import check_record, kronecker_rows

HYPOTHESIS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@functools.lru_cache(maxsize=None)
def built_spec(d):
    return TransformSpec.build(d)


def points(n, span):
    return st.lists(st.integers(-span, span), min_size=n, max_size=n).map(tuple)

EVEN_SUM_Z4 = Lattice(
    [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 0, 2]]
)


class TestRadicalVector:
    def test_to_int_vector(self):
        assert RadicalVector((4, 0, -2, 6), 4).to_int_vector() == (2, 0, -1, 3)

    def test_non_square_radicand(self):
        with pytest.raises(IntegralityError):
            RadicalVector((2,), 2).to_int_vector()

    def test_indivisible_component(self):
        with pytest.raises(IntegralityError):
            RadicalVector((3,), 4).to_int_vector()


SPEC2_REPR = ("TransformSpec(h=HadamardMatrix(order=4), d=2, "
              "code=Lattice([[2, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]]), rho=1)")

#: type -> (fields in order, a change of one field, pinned repr)
RECORDS = {
    "RadicalVector": (lambda: {"nums": (1, 2), "radicand": 3}, {"radicand": 5},
                      "RadicalVector(nums=(1, 2), radicand=3)"),
    "ContinuousBoxReport": (
        lambda: {"order": 4, "radius": 2, "max_abs": 2, "points_checked": 41, "witness_attains": True},
        {"witness_attains": False},
        "ContinuousBoxReport(order=4, radius=2, max_abs=2, points_checked=41, witness_attains=True)"),
    "DiscreteBoxReport": (
        lambda: {"radius": 2, "rho": 1, "bound": 7, "extents": (3, 3, 3, 3), "points_checked": 41},
        {"extents": (3, 3, 3, 4)},
        "DiscreteBoxReport(radius=2, rho=1, bound=7, extents=(3, 3, 3, 3), points_checked=41)"),
    # the repr leaves the coset index out
    "TransformSpec": (lambda: {"h": built_spec(2).h, "d": 2, "code": built_spec(2).code, "rho": 1,
                               "cosets": dict(built_spec(2).cosets)},
                      {"cosets": {}}, SPEC2_REPR),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records(name):
    fields, other, text = RECORDS[name]
    check_record(getattr(xform, name), fields(), other, text)


def test_records_as_built():
    assert repr(built_spec(2)) == SPEC2_REPR
    assert built_spec(2) == TransformSpec(**RECORDS["TransformSpec"][0]())
    assert repr(xform.continuous_box(hadamard.sylvester(2), 2)) == RECORDS["ContinuousBoxReport"][2]
    assert repr(xform.discrete_box(built_spec(2), 2)) == RECORDS["DiscreteBoxReport"][2]
    # the traced benchmark run rewraps build through the class dict
    assert all(isinstance(TransformSpec.__dict__[k], classmethod) for k in ("build", "from_hadamard"))


class TestContinuousTransform:
    def test_zero(self):
        h = hadamard.sylvester(2)
        assert xform.t_apply(h, (0, 0, 0, 0)).to_int_vector() == (0, 0, 0, 0)

    def test_all_ones(self):
        h = hadamard.sylvester(2)
        assert xform.t_apply(h, (1, 1, 1, 1)).to_int_vector() == (2, 0, 0, 0)

    def test_unit_times_two(self):
        h = hadamard.sylvester(2)
        assert xform.t_apply(h, (2, 0, 0, 0)).to_int_vector() == (1, 1, 1, 1)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            xform.t_apply(hadamard.sylvester(2), (1, 2, 3))


class TestContinuousBox:
    def test_radius_zero(self):
        rep = xform.continuous_box(hadamard.sylvester(2), 0)
        assert rep.max_abs == 0 and rep.points_checked == 1

    def test_order_4_full_spheres(self):
        h = hadamard.sylvester(2)
        for radius in range(1, 5):
            rep = xform.continuous_box(h, radius)
            assert rep.points_checked == metric.lee_sphere_size(4, radius)
            assert rep.max_abs <= radius
            assert rep.witness_attains

    def test_witness_is_extreme_axis_point(self):
        h = hadamard.sylvester(2)
        x = (3, 0, 0, 0)
        assert max(abs(v) for v in h.matrix.mat_vec(x)) == 3


class TestKernelCode:
    def test_d2_is_even_sum_lattice(self):
        code = xform.hadamard_kernel_code(hadamard.sylvester(2))
        assert intlat.same_lattice(code, EVEN_SUM_Z4)
        assert code.volume == 2
        assert analyzer.min_distance(code) == 2

    def test_d4_volume_via_snf_count(self):
        h = hadamard.sylvester(4)
        code = xform.hadamard_kernel_code(h)
        divisors = intlat.snf(h.matrix)
        count = math.prod(math.gcd(s, 4) for s in divisors)
        assert code.volume == 4**16 // count == 64

    def test_d4_min_distance(self):
        code = xform.hadamard_kernel_code(hadamard.sylvester(4))
        assert analyzer.min_distance(code) == 4

    def test_closed_under_transform(self):
        for k in (2, 4):
            h = hadamard.sylvester(k)
            code = xform.hadamard_kernel_code(h)
            for row in code.int_matrix.entries:
                image = xform.t_apply(h, row).to_int_vector()
                assert intlat.contains(code, image)

    def test_transform_maps_code_onto_itself(self):
        # the images of a generating set generate the whole code again
        for k in (2, 4):
            h = hadamard.sylvester(k)
            code = xform.hadamard_kernel_code(h)
            images = [
                list(xform.t_apply(h, row).to_int_vector())
                for row in code.int_matrix.entries
            ]
            assert intlat.same_lattice(Lattice(images), code)

    def test_non_square_order_rejected(self):
        with pytest.raises(DimensionError):
            xform.hadamard_kernel_code(hadamard.sylvester(3))

    def test_asymmetric_rejected_with_diagnostic(self):
        with pytest.raises(ValueError, match=r"not symmetric: entry \(2,1\)"):
            xform.hadamard_kernel_code(hadamard.paley(11))


class TestDiscreteTransform:
    def test_zero(self):
        spec = TransformSpec.build(2)
        assert xform.discrete_transform(spec, (0, 0, 0, 0)) == (0, 0, 0, 0)

    def test_worked_example(self):
        spec = TransformSpec.build(2)
        assert xform.discrete_transform(spec, (1, 0, 0, 0)) == (0, 1, 1, 1)
        assert xform.discrete_transform(spec, (0, 1, 1, 1)) == (1, 0, 0, 0)

    def test_codeword_branch_uses_zero_leader(self):
        spec = TransformSpec.build(2)
        p = (2, 0, 0, 0)  # in the code, so the leader is 0 and T_d2 = T
        assert xform.discrete_transform(spec, p) == xform.t_apply(spec.h, p).to_int_vector()

    def test_leader_decomposition_unique(self):
        spec = TransformSpec.build(2)
        rng = random.Random(52)
        leaders = analyzer.coset_table(spec.code).leaders
        for _ in range(50):
            p = tuple(rng.randint(-30, 30) for _ in range(4))
            fits = [
                s
                for s in leaders
                if intlat.contains(spec.code, tuple(a - b for a, b in zip(p, s)))
            ]
            assert len(fits) == 1

    def test_involution_d2(self):
        spec = TransformSpec.build(2)
        rng = random.Random(53)
        pts = [tuple(rng.randint(-100, 100) for _ in range(4)) for _ in range(1000)]
        assert xform.check_involution_discrete(spec, pts) == 1000

    def test_involution_d4(self):
        spec = TransformSpec.build(4)
        rng = random.Random(54)
        pts = [tuple(rng.randint(-50, 50) for _ in range(16)) for _ in range(200)]
        assert xform.check_involution_discrete(spec, pts) == 200

    def test_box_round_trip_no_collisions(self):
        # volume preservation, discretely: injective on a whole box
        spec = TransformSpec.build(2)
        from itertools import product

        box = list(product(range(-2, 3), repeat=4))
        images = {xform.discrete_transform(spec, p) for p in box}
        assert len(images) == len(box)


class TestDiscreteBox:
    def test_radius_zero_single_point(self):
        spec = TransformSpec.build(2)
        rep = xform.discrete_box(spec, 0)
        assert rep.extents == (1, 1, 1, 1)

    def test_bounds_d2(self):
        spec = TransformSpec.build(2)
        assert spec.rho == 1
        for radius, bound in [(1, 5), (4, 9)]:
            rep = xform.discrete_box(spec, radius)
            assert rep.bound == bound
            assert all(e <= bound for e in rep.extents)
            assert rep.points_checked == metric.lee_sphere_size(4, radius)

    def test_bound_formula(self):
        spec = TransformSpec.build(2)
        for radius in range(7):
            rep = xform.discrete_box(spec, radius)
            assert rep.bound == 2 * math.ceil((radius + rep.rho) / 2) + 2 * rep.rho + 1

    def test_off_center(self):
        spec = TransformSpec.build(2)
        rep = xform.discrete_box(spec, 2, center=(5, -7, 1, 0))
        assert all(e <= rep.bound for e in rep.extents)

    @pytest.mark.parametrize("center", [None, (3, -1, 0, 7, -5, 2, 0, 0, 1, -9, 4, 0, 0, -2, 6, 1)])
    def test_d4_spheres(self, center):
        spec = built_spec(4)
        for radius in range(4):
            rep = xform.discrete_box(spec, radius, center=center)
            assert rep.points_checked == metric.lee_sphere_size(16, radius)
            assert all(e <= rep.bound for e in rep.extents)

    def test_center_length_checked(self):
        with pytest.raises(DimensionError, match="^center has the wrong length$"):
            xform.discrete_box(built_spec(2), 1, center=(0, 0, 0))

    @pytest.mark.parametrize("bad", [0.5, Fraction(1, 2), Fraction(2), 2.0])
    def test_center_coordinates_must_be_ints(self, bad):
        with pytest.raises(IntegralityError, match="^center coordinate .* is not an int$"):
            xform.discrete_box(built_spec(2), 3, center=(0, 0, bad, 0))

    def test_sphere_size_cap(self):
        # the walk is bounded by the sphere's point count, not its dimension
        radius = 1
        while metric.lee_sphere_size(16, radius) <= metric.DEFAULT_CAP:
            radius += 1
        with pytest.raises(CapExceededError):
            xform.discrete_box(built_spec(4), radius)
        with pytest.raises(CapExceededError):
            xform.continuous_box(hadamard.sylvester(4), radius)


# Oracles for the streamed sweeps and the syndrome-keyed involution, written
# from the definitions: the leader comes from canonical_residue and a coset
# table of its own (not the spec's syndrome index), the images from a full
# mat_vec, the sphere from metric.enumerate_sphere.


@functools.lru_cache(maxsize=None)
def residue_leaders(code):
    return {intlat.canonical_residue(code, s): s for s in analyzer.coset_table(code).leaders}


def leader_image(spec, p):
    s = residue_leaders(spec.code)[intlat.canonical_residue(spec.code, p)]
    hc = spec.h.matrix.mat_vec(tuple(a - b for a, b in zip(p, s)))
    assert all(v % spec.d == 0 for v in hc)
    return tuple(v // spec.d + b for v, b in zip(hc, s))


@HYPOTHESIS
@given(st.data())
def test_discrete_transform_matches_leader_formula(data):
    for d in (2, 4):
        spec = built_spec(d)
        p = data.draw(points(d * d, 60))
        assert xform.discrete_transform(spec, p) == leader_image(spec, p)


@HYPOTHESIS
@given(points(16, 50))
def test_involution_d4_random(p):
    spec = built_spec(4)
    assert xform.discrete_transform(spec, xform.discrete_transform(spec, p)) == p


def _product_cases():
    syl = [hadamard.sylvester(k) for k in range(7)]  # full split, leaf [1]
    pal = {q: hadamard.paley(q) for q in (3, 7, 11, 19)}  # no split
    cases = [pytest.param(h, id=f"sylvester{k}") for k, h in enumerate(syl)]
    cases += [pytest.param(h, id=f"paley{q}") for q, h in pal.items()]
    for k, q in ((1, 7), (2, 3), (2, 11)):  # k stages over a Paley leaf
        rows = kronecker_rows(syl[k].matrix.entries, pal[q].matrix.entries)
        cases.append(pytest.param(hadamard.HadamardMatrix(intlat.IntMatrix(rows)), id=f"sylvester{k}xpaley{q}"))
    leaf = [list(r) for r in syl[2].matrix.entries]
    leaf[1], leaf[2] = leaf[2], leaf[1]  # sylvester(4) with its rows permuted: two stages, leaf of order 4
    rows = kronecker_rows(syl[2].matrix.entries, leaf)
    cases.append(pytest.param(hadamard.HadamardMatrix(intlat.IntMatrix(rows)), id="sylvester4_permuted"))
    rows = [[-v for v in r] for r in syl[3].matrix.entries]  # full split, leaf [-1]
    cases.append(pytest.param(hadamard.HadamardMatrix(intlat.IntMatrix(rows)), id="sylvester3_negated"))
    return cases


@pytest.mark.parametrize("h", _product_cases())
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32), span=st.sampled_from([1, 60, 10**30]))
def test_hadamard_columns_match_mat_vec(h, seed, span):
    """The butterfly and leaf product give H.x of every point of blocks of
    every size around ``xform.BLOCK``, including the empty block."""
    rng = random.Random(seed)
    n = h.order
    for size in (0, 1, 255, 256, 257):
        pts = [tuple(rng.randint(-span, span) for _ in range(n)) for _ in range(size)]
        cols = [tuple(p[j] for p in pts) for j in range(n)]
        expected = [h.matrix.mat_vec(p) for p in pts]
        out = xform.hadamard_columns(h, cols)
        assert len(out) == n and all(len(col) == size for col in out)
        assert list(zip(*out)) == expected


def lane_edges(n):
    """Coordinates at the edges of the 64-bit fields for H of order n, by
    scope, each set closed under negation as the rows of H flip signs:
    "fast", +-(2^(63-g) - 1), inside [-2^(63-g), 2^(63-g)) for
    g = n.bit_length() guard bits; "past", adding +-2^(63-g), +-(2^(63-g) + 1)
    and +-floor(2^63 / n) + {0, +-1}, where n equal coordinates overflow a
    field; "int64", adding +-2^63, past the signed 64-bit range."""
    e, f = 1 << (63 - n.bit_length()), (1 << 63) // n
    fast = [e - 1, 1 - e]
    past = fast + [s * (b + t) for s in (1, -1) for b, ts in ((e, (0, 1)), (f, (-1, 0, 1))) for t in ts]
    return {"fast": fast, "past": past, "int64": past + [1 << 63, -(1 << 63)]}


@pytest.mark.parametrize("h", _product_cases())
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32), scope=st.sampled_from(["fast", "past", "int64"]))
def test_hadamard_columns_at_the_lane_edges(h, seed, scope):
    """Blocks that mix small coordinates with points e * (row r of H), whose
    image has (H.x)_r = n*e, for e at the lane edges of one scope: H.x
    matches mat_vec, and for the transform matrices the involution matches
    the leader formula.  A block of the "fast" scope keeps 64-bit fields."""
    rng = random.Random(seed)
    n, rows = h.order, h.matrix.entries
    edges = lane_edges(n)[scope]
    spec = {4: built_spec(2), 16: built_spec(4)}.get(n)
    for size in (0, 1, 257):
        pts = []
        for _ in range(size):
            if rng.random() < 0.5:
                pts.append(tuple(rng.randint(-60, 60) for _ in range(n)))
            else:
                e, row = rng.choice(edges), rng.choice(rows)
                pts.append(tuple(e * v if rng.random() < 0.9 else rng.randint(-60, 60) for v in row))
        cols = [tuple(p[j] for p in pts) for j in range(n)]
        if scope == "fast" and pts:
            assert xform._packed(cols, n)[0].w == 64
        out = xform.hadamard_columns(h, cols)
        assert len(out) == n and list(zip(*out)) == [h.matrix.mat_vec(p) for p in pts]
        if spec is not None and spec.h.matrix == h.matrix:
            assert list(zip(*xform.discrete_columns(spec, cols))) == [leader_image(spec, p) for p in pts]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32), d=st.sampled_from([1, 2, 3, 4, 6, 8]), n=st.sampled_from([1, 4, 16, 40]),
       span=st.sampled_from([60, 2**50, 10**30]))
def test_divide_gives_class_keys_and_floors(seed, d, n, span):
    """Packed residues and quotients (d a power of two whose n residues fit
    a field) and the per-value ones (any other d, or n*log2(d) >= 64) give
    each point's class key sum((v_i mod d) * d^i) and floor(v / d)."""
    rng = random.Random(seed)
    cols = [[rng.randint(-span, span) for _ in range(9)] for _ in range(n)]
    lanes, xs = xform._packed(cols, n)
    keys, qs = xform._divide(lanes, xs, d)
    assert list(keys) == [class_key([v % d for v in p], d) for p in zip(*cols)]
    assert [list(lanes.unpack(q)) for q in qs] == [[v // d for v in col] for col in cols]


@functools.lru_cache(maxsize=None)
def table_leaders(d):
    return analyzer.coset_table(built_spec(d).code).leaders


@HYPOTHESIS
@given(st.data())
def test_involution_is_leader_formula_in_fractions(data):
    """Each image is (H.p - H.s)/d + s, worked out in Fractions, with s the
    one coset-table leader whose difference from p lies in the code."""
    for d in (2, 4):
        spec = built_spec(d)
        n = d * d
        coords = st.integers(-(10**40), 10**3) | st.integers(-(2**70), -(2**64))
        pts = data.draw(st.lists(st.lists(coords, min_size=n, max_size=n).map(tuple), min_size=1, max_size=4))
        images = [q for cols in xform.column_blocks(pts, n) for q in zip(*xform.discrete_columns(spec, cols))]
        assert len(images) == len(pts)
        for p, image in zip(pts, images):
            [s] = [s for s in table_leaders(d) if intlat.contains(spec.code, tuple(a - b for a, b in zip(p, s)))]
            hp, hs = spec.h.matrix.mat_vec(p), spec.h.matrix.mat_vec(s)
            assert image == tuple(Fraction(a - b, d) + c for a, b, c in zip(hp, hs, s))


@st.composite
def sphere_cases(draw):
    n, rows = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    entries = draw(st.lists(points(n, 9), min_size=rows, max_size=rows))
    center = draw(st.none() | points(n, 20))
    return entries, draw(st.integers(0, 5)), center


def class_key(s, d):
    return sum(r * d**i for i, r in enumerate(s))


def class_offsets(rows, d, seed):
    """An arbitrary offset vector for each residue class of Z^rows mod d,
    under the class's key sum(s_i * d^i), as ``TransformSpec.cosets`` keys it."""
    rng = random.Random(seed)
    return {class_key(s, d): tuple(rng.randint(-9, 9) for _ in range(rows))
            for s in itertools.product(range(d), repeat=rows)}


@HYPOTHESIS
@example(([[1, -2, 3], [4, 0, -1]], 5, None), 4, 0)
@example(([[1, -2, 3], [4, 0, -1]], 5, (7, -3, 2)), 1, 1)
@example(([[3], [-2]], 512, None), 2, 2)
@example(([[3], [-2]], 600, (11,)), 3, 3)
@example(([[0, 1], [0, -1]], 3, None), 2, 0)  # +w and -w of the zero column: one image, two points
@given(sphere_cases(), st.sampled_from([1, 2, 3, 4]), st.integers(0, 2**32))
def test_sphere_box_matches_brute_extremes(case, d, seed):
    """The joined per-coordinate summaries give the per-row extremes of
    floor(m.p / d) + offset of the class of m.p over every sphere point, and
    the sphere's point count."""
    entries, radius, center = case
    m = intlat.IntMatrix(entries)
    offsets = class_offsets(m.rows, d, seed)
    sphere = metric.enumerate_sphere(m.cols, radius, center=center)
    images = []
    for p in sphere:
        y = m.mat_vec(p)
        images.append(tuple(v // d + o for v, o in zip(y, offsets[class_key([v % d for v in y], d)])))
    lo, hi = list(map(min, zip(*images))), list(map(max, zip(*images)))
    assert xform._sphere_box(m, radius, center, d, offsets) == (lo, hi, len(sphere))


def test_sphere_walk_memory_is_bounded():
    """The sweeps hold per-weight summaries by residue class, never a point
    set: each 50,049-point sweep in Z^16 peaks under 1 MB."""
    h, spec = hadamard.sylvester(4), built_spec(4)
    for sweep in (lambda: xform.continuous_box(h, 4), lambda: xform.discrete_box(spec, 4)):
        tracemalloc.start()
        try:
            sweep()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6


@HYPOTHESIS
@given(st.data())
def test_streamed_sweeps_match_brute_sphere(data):
    for d, max_radius in ((2, 6), (4, 3)):
        spec = built_spec(d)
        h, n = spec.h, d * d
        radius = data.draw(st.integers(0, max_radius))
        center = data.draw(points(n, 40))
        sphere = metric.enumerate_sphere(n, radius, center=center)
        images = [leader_image(spec, p) for p in sphere]
        extents = tuple(max(col) - min(col) + 1 for col in zip(*images))
        bound = 2 * math.ceil((radius + spec.rho) / d) + 2 * spec.rho + 1
        assert xform.discrete_box(spec, radius, center=center) == DiscreteBoxReport(
            radius=radius, rho=spec.rho, bound=bound, extents=extents, points_checked=len(sphere)
        )

        origin = metric.enumerate_sphere(n, radius)
        max_abs = max(abs(v) for p in origin for v in h.matrix.mat_vec(p))
        assert xform.continuous_box(h, radius) == ContinuousBoxReport(
            order=n, radius=radius, max_abs=max_abs, points_checked=len(origin), witness_attains=True
        )


def transform_lines(d, mode, pts):
    stdin = "".join(" ".join(map(str, p)) + "\n" for p in pts)
    with mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.run(["transform", "--d", str(d), "--mode", mode]) == 0
    return out.getvalue().splitlines()


@settings(max_examples=2, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32))
def test_blocks_keep_every_point_in_order(seed):
    """Batches on both sides of the block size, through the library and the
    CLI: every point's image comes back, in input order."""
    rng = random.Random(seed)
    for d in (2, 4):
        spec, n = built_spec(d), d * d
        for size in (0, 1, xform.BLOCK - 1, xform.BLOCK, xform.BLOCK + 1, 1000):
            pts = [tuple(rng.randint(-60, 60) for _ in range(n)) for _ in range(size)]
            disc = [leader_image(spec, p) for p in pts]
            cont = [[str(Fraction(sum(a * b for a, b in zip(row, p)), d)) for row in spec.h.matrix.entries]
                    for p in pts]
            whole = [tuple(p[j] for p in pts) for j in range(n)]  # the batch as one block
            for blocks in (list(xform.column_blocks(pts, n)), [whole]):
                images = [xform.discrete_columns(spec, cols) for cols in blocks]
                assert all(len(image) == n for image in images)
                assert [q for image in images for q in zip(*image)] == disc
                assert [[str(Fraction(v, d)) for v in q] for cols in blocks
                        for q in zip(*xform.hadamard_columns(spec.h, cols))] == cont
            assert transform_lines(d, "disc", pts) == [" ".join(map(str, q)) for q in disc]
            assert transform_lines(d, "cont", pts) == [" ".join(q) for q in cont]


class TestTransformSpec:
    def test_build_validates_d(self):
        with pytest.raises(ValueError):
            TransformSpec.build(3)
        with pytest.raises(ValueError):
            TransformSpec.build(1)

    def test_from_hadamard(self):
        spec = TransformSpec.from_hadamard(hadamard.sylvester(2))
        assert spec.d == 2 and spec.code.volume == 2

    def test_leader_table_size_matches_volume(self):
        for d in (2, 4):
            spec = TransformSpec.build(d)
            assert len(spec.cosets) == spec.code.volume
