import math
import random
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclobox import core, kernels, rng
from cyclobox.concentration import (
    CounterStream,
    IntervalSpec,
    SamplerConfig,
    isosceles_report,
    polytope_report,
    pyramid_report,
    right_angle_report,
    sample_vertex,
    theorem4_report,
    vertex_pair_report,
    within_sqrt_interval,
)
from cyclobox.core import BoxSpec, CyclotomicInt, GuardError
from cyclobox.moments import avg_vertex_pairs
from cyclobox.visibility import (
    box_pair_mean_report,
    mean_box_pair_dist_sq,
    oracle_mean_box_pair_dist_sq,
)

PRIMES = st.sampled_from([3, 5, 7, 13])
SIZES = st.sampled_from([1, 2 ** 20, 2 ** 31, 2 ** 62, 10 ** 12])
# apex coefficients: small ones, and ones at or beyond float precision and int64
COEFFS = st.one_of(
    st.integers(-(2 ** 20), 2 ** 20),
    st.integers(2 ** 53, 2 ** 65),
    st.integers(-(2 ** 65), -(2 ** 53)),
)


def _check(p, x, y, m, rows_x, rows_y):
    """Kernel d^2 and exact sums against core.dist_sq on Python ints."""
    want = [core.dist_sq(CyclotomicInt(p, a), CyclotomicInt(p, b)) for a, b in zip(rows_x, rows_y)]
    got = kernels.dist_sq(p, x, y, m)
    assert [int(v) for v in got] == want
    bound = kernels.dist_sq_bound(p, p - 1, m)
    assert max(want) <= bound
    assert kernels.exact_sum(got, bound) == sum(want)
    sq = kernels.lift(got, bound * bound)
    assert kernels.exact_sum(sq * sq, bound * bound) == sum(d * d for d in want)


@st.composite
def _signs(draw, p, rows):
    return np.array(draw(st.lists(st.lists(st.sampled_from([-1, 1]), min_size=p - 1,
                                           max_size=p - 1), min_size=rows, max_size=rows)))


class TestDistanceKernel:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), PRIMES, SIZES, st.integers(1, 8))
    def test_vertex_vertex(self, data, p, N, rows):
        x = kernels.scaled(data.draw(_signs(p, rows)), N)
        y = kernels.scaled(data.draw(_signs(p, rows)), N)
        _check(p, x, y, 2 * N, x.tolist(), y.tolist())

    @settings(max_examples=150, deadline=None)
    @given(st.data(), PRIMES, SIZES, st.integers(1, 8))
    def test_vertex_apex(self, data, p, N, rows):
        x = kernels.scaled(data.draw(_signs(p, rows)), N)
        alpha = data.draw(st.lists(COEFFS, min_size=p - 1, max_size=p - 1))
        widest = max(abs(c) for c in alpha)
        y = np.array(alpha, dtype=kernels.exact_dtype(widest))
        _check(p, x, y, N + widest, x.tolist(), [alpha] * rows)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), PRIMES, SIZES, st.integers(1, 8))
    def test_box_box(self, data, p, N, rows):
        coeff = st.integers(-N, N)
        pts = [data.draw(st.lists(coeff, min_size=p - 1, max_size=p - 1)) for _ in range(2 * rows)]
        x = np.array(pts[:rows], dtype=np.int64)
        y = np.array(pts[rows:], dtype=np.int64)
        _check(p, x, y, 2 * N, pts[:rows], pts[rows:])


# p -> the largest N whose box-point differences (|d_j| <= 2N) the int64 limbs hold
LIMB_EDGE = {5: 2 ** 59 - 1, 101: 2 ** 55 - 1, 1009: 2 ** 51 - 1}


def _first_past_int64(p):
    """The smallest N whose p^2 (p-1) (2N)^2 passes INT64_MAX."""
    n = math.isqrt(kernels.INT64_MAX // (4 * p * p * (p - 1)))
    while p * p * (p - 1) * (2 * n) ** 2 <= kernels.INT64_MAX:
        n += 1
    return n


def _path_sizes(p):
    return [_first_past_int64(p), 2 ** 40, LIMB_EDGE[p], LIMB_EDGE[p] + 1, 2 ** 62]


class TestArithmeticPath:
    @pytest.mark.parametrize("p", sorted(LIMB_EDGE))
    def test_path_at_its_edges(self, p):
        def path(N):
            return kernels.arithmetic_path(p, p - 1, 2 * N)

        first = _first_past_int64(p)
        assert path(first - 1) == "int64"
        assert path(first) == path(2 ** 40) == path(LIMB_EDGE[p]) == "limbs"
        assert path(LIMB_EDGE[p] + 1) == path(2 ** 62) == "object"

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from(sorted(LIMB_EDGE)), st.integers(1, 4),
           st.sampled_from(["random", "plus-minus", "mixed-signs"]), st.integers(0, 2 ** 32))
    def test_limbs_equal_the_object_path(self, data, p, rows, kind, seed):
        N = data.draw(st.sampled_from(_path_sizes(p)))
        dim, gen = p - 1, np.random.default_rng(seed)
        if kind == "random":
            x, y = (gen.integers(-N, N, size=(rows, dim), endpoint=True) for _ in range(2))
        elif kind == "plus-minus":  # every d_j is +2N or -2N, the widest
            x = np.full((rows, dim), N, dtype=np.int64) * gen.choice([-1, 1], size=(rows, 1))
            y = -x
        else:
            x, y = (N * gen.choice([-1, 1], size=(rows, dim)) for _ in range(2))
        got = kernels.dist_sq(p, x, y, 2 * N)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "arithmetic_path", lambda *args: "object")
            by_objects = kernels.dist_sq(p, x, y, 2 * N)
        want = [core.dist_sq(CyclotomicInt(p, a), CyclotomicInt(p, b))
                for a, b in zip(x.tolist(), y.tolist())]
        assert [int(v) for v in got] == [int(v) for v in by_objects] == want

    def test_box_pair_tally_lifts_only_row_totals(self, monkeypatch):
        box, count = BoxSpec(101, 2 ** 40), 50
        lifted = []

        def recording_lift(a, bound, lift=kernels.lift):
            out = lift(a, bound)
            if out.dtype != a.dtype:
                lifted.append(a.shape)
            return out

        monkeypatch.setattr(kernels, "lift", recording_lift)
        spec = kernels.EdgeSpec(box, 2, kernels.draw_box_points, ((0, 1, ()),))
        got = kernels.tally(spec, 3, count, 1)
        assert lifted and all(shape == (count,) for shape in lifted)
        pts, _ = kernels.draw_box_points(box, 2, 3, 0, count)
        assert got.d2_sum == sum(core.dist_sq(CyclotomicInt(101, a), CyclotomicInt(101, b))
                                 for a, b in pts.tolist())


class TestOverflowPolicy:
    def test_dtype_switches_exactly_past_int64(self):
        a = np.array([1, -1], dtype=np.int64)
        assert kernels.exact_dtype(2 ** 63 - 1) is np.int64
        assert kernels.exact_dtype(2 ** 63) is object
        assert kernels.lift(a, 2 ** 63 - 1) is a
        assert kernels.lift(a, 2 ** 63).dtype == object
        big = kernels.lift(a, 2 ** 63)
        assert kernels.lift(big, 1) is big  # Python ints never go back

    def test_sum_of_values_that_fit_but_whose_total_does_not(self):
        vals = np.full(1000, 2 ** 62, dtype=np.int64)
        assert kernels.exact_sum(vals, 2 ** 62) == 1000 * 2 ** 62
        assert kernels.exact_sum(-vals.reshape(10, 100), 2 ** 62) == -1000 * 2 ** 62
        assert kernels.exact_sum(np.array([], dtype=np.int64), 2 ** 62) == 0

    def test_vertex_coefficients_beyond_int64(self):
        N = 2 ** 63
        x = kernels.scaled(np.array([[1, -1]]), N)
        assert x.dtype == object and x.tolist() == [[N, -N]]


class TestVertexEnumeration:
    @pytest.mark.parametrize("p,N", [(3, 1), (5, 3), (7, 2 ** 62), (11, 2 ** 70)])
    def test_order_of_box_vertices(self, p, N):
        box = BoxSpec(p, N)
        got = [tuple(int(c) for c in row) for row in kernels.vertex_matrix(box.dim, N)]
        assert got == [v.coeffs for v in box.vertices()]

    def test_one_guard(self):
        box = BoxSpec(19, 1)
        with pytest.raises(GuardError):
            kernels.box_vertex_rows(box)
        with pytest.raises(GuardError):
            next(box.vertices())
        assert len(kernels.box_vertex_rows(BoxSpec(core.VERTEX_ENUM_MAX_P, 1))) == 2 ** 16


class TestEngine:
    def test_tally_matches_the_one_point_path(self):
        box = BoxSpec(11, 3)
        apex = CyclotomicInt(11, (3, -2, 0, 1, 3, -3, 2, 0, -1, 1))
        base = IntervalSpec(Fraction(1, 2), Fraction(1, 10))
        lateral = IntervalSpec(Fraction(1, 2), Fraction(1, 5))
        edges = kernels.all_edges(3, (base,)) + ((0, kernels.APEX, (lateral,)),)
        spec = kernels.EdgeSpec(box, 3, kernels.draw_vertices, edges, apex=apex.coeffs)
        cfg = SamplerConfig(5, 200)
        got = kernels.tally(spec, cfg.seed, cfg.sample_count, 2)

        stream = CounterStream(5)
        d2 = box.diameter_sq()
        hits = total = 0
        for _ in range(200):
            pts = [sample_vertex(box, stream) for _ in range(3)]
            dists = [core.dist_sq(pts[j], pts[k]) for j, k in ((0, 1), (0, 2), (1, 2))]
            lateral_d = core.dist_sq(pts[0], apex)
            hits += (all(within_sqrt_interval(Fraction(d, d2), base) for d in dists)
                     and within_sqrt_interval(Fraction(lateral_d, d2), lateral))
            total += sum(dists) + lateral_d
        assert got.hits == (hits,)
        assert got.attempts == 200
        assert got.d2_sum == total


class TestBoxMatrix:
    @pytest.mark.parametrize("p,N", [(3, 1), (3, 4), (5, 1), (7, 2)])
    def test_order_of_box_points(self, p, N):
        box = BoxSpec(p, N)
        got = [tuple(row) for row in kernels.box_matrix(box.dim, N).tolist()]
        assert got == [pt.coeffs for pt in box.points()]


# D = 4 N^2 p^2 (p-1) at (p, N) = (3, 1), (7, 3), (1009, 1), (101, 2^40)
DIAMETER_VALUES = [72, 3240, 4 * 1009 ** 2 * 1008, 4 * 2 ** 80 * 101 ** 2 * 100]
DIAMETERS = st.sampled_from(DIAMETER_VALUES)


def _assert_exact_range(spec, d2):
    """spec.members(d2) is the set of n that the reference test passes, and masks
    int64 and object arrays alike; returns the range."""
    lo, hi = spec.members(d2)

    def member(n):
        return within_sqrt_interval(Fraction(n, d2), spec)

    if lo <= hi:
        assert member(lo) and member(hi)
        assert lo == 0 or not member(lo - 1)
        assert not member(hi + 1)
        ends = (0, lo, hi)
    else:
        ends = (0, math.floor(spec.center_sq * d2))
    window = sorted({n for e in ends for n in range(e - 3, e + 4) if n >= 0})
    want = [member(n) for n in window]

    def mask(vals):
        return (vals >= lo) & (vals <= hi)

    assert mask(np.array(window, dtype=object)).tolist() == want
    assert mask(np.array([window], dtype=object)).tolist() == [want]
    small = [n for n in window if n <= kernels.INT64_MAX]
    assert mask(np.array(small, dtype=np.int64)).tolist() == [member(n) for n in small]
    return lo, hi


class TestIntervalRange:
    @settings(max_examples=300, deadline=None)
    @given(
        DIAMETERS,
        st.fractions(min_value=0, max_value=2, max_denominator=10 ** 6),
        st.fractions(min_value=Fraction(1, 10 ** 5), max_value=1, max_denominator=10 ** 6),
    )
    def test_range_is_the_member_set(self, d2, center, eps):
        _assert_exact_range(IntervalSpec(center, eps), d2)

    def test_interval_between_two_integers_masks_nothing(self):
        # A * D = 72/7 = 10.29, and the interval holds only d^2 in [10.23, 10.34]
        spec = IntervalSpec(Fraction(1, 7), Fraction(1, 1000))
        lo, hi = spec.members(72)
        assert lo > hi
        assert not within_sqrt_interval(Fraction(10, 72), spec)
        assert not within_sqrt_interval(Fraction(11, 72), spec)
        vals = np.arange(200, dtype=np.int64)
        assert not ((vals >= lo) & (vals <= hi)).any()

    @settings(max_examples=200, deadline=None)
    @given(
        DIAMETERS,
        st.fractions(min_value=0, max_value=2, max_denominator=10 ** 6),
        st.floats(min_value=1e-9, max_value=1.0),
    )
    def test_float_epsilon(self, d2, center, eps):
        # Fraction(float) has a power-of-two denominator, up to 2^82 here
        _assert_exact_range(IntervalSpec(center, Fraction(eps)), d2)

    @pytest.mark.parametrize("center,eps", [
        # float epsilons, as `--eta` makes them: denominators past 2^52
        (Fraction(1, 2), Fraction(1009 ** -2.5)),
        (Fraction(1, 2), Fraction(1009 ** -2.0)),
        (Fraction(1, 2), Fraction(0.01)),
        (Fraction(0), Fraction(1, 3)),           # A = 0
        (Fraction(1, 9), Fraction(1, 3)),        # A = eps^2 exactly
        (Fraction(1, 100), Fraction(1, 2)),      # eps > sqrt(A)
        (Fraction(1, 2), Fraction(1, 10 ** 6)),  # both ends past int64 at the widest box
    ])
    @pytest.mark.parametrize("d2", DIAMETER_VALUES)
    def test_edge_cases(self, center, eps, d2):
        lo, hi = _assert_exact_range(IntervalSpec(center, eps), d2)
        assert (lo == 0) == (center <= eps * eps)
        if d2 > 2 ** 100 and eps < Fraction(1, 10):
            assert kernels.INT64_MAX < lo <= hi


@lru_cache(maxsize=None)
def _pair_histogram(p):
    """d^2 -> number of ordered vertex pairs at N = 1, from numpy row chunks."""
    v = np.array([x.coeffs for x in BoxSpec(p, 1).vertices()], dtype=np.int64)
    hist = Counter()
    for i in range(0, len(v), 64):
        diff = v[i : i + 64, None, :] - v[None, :, :]
        d2 = p * p * np.sum(diff * diff, axis=-1) - (p + 1) * np.sum(diff, axis=-1) ** 2
        vals, counts = np.unique(d2, return_counts=True)
        hist.update(dict(zip(vals.tolist(), counts.tolist())))
    return hist


def _histogram_hits(p, center, eps):
    """Ordered vertex pairs at N = 1 within eps of sqrt(center), from `_pair_histogram`."""
    d2, spec = BoxSpec(p, 1).diameter_sq(), IntervalSpec(center, eps)
    return sum(c for n, c in _pair_histogram(p).items()
               if within_sqrt_interval(Fraction(n, d2), spec))


def _t5_sweep(p, workers=1):
    return vertex_pair_report(BoxSpec(p, 1), Fraction(1, 10), SamplerConfig(1, 1, workers),
                              exhaustive=True)


def _t4_sweep(p, workers=1):
    box = BoxSpec(p, 1)
    return theorem4_report(core.north_pole_point(box), box, Fraction(1, 10),
                           SamplerConfig(1, 1, workers), exhaustive=True)


class TestExhaustiveSweeps:
    @pytest.mark.parametrize("p,eps,workers", [
        (11, Fraction(1, 100), 1),
        (11, Fraction(1, 10), 1),
        (11, Fraction(3, 4), 1),
        (13, Fraction(3, 4), 3),  # 64 slabs on three threads
    ])
    def test_t5_hits_match_the_pair_histogram(self, p, eps, workers):
        box = BoxSpec(p, 1)
        v = kernels.box_vertex_rows(box)
        r = vertex_pair_report(box, eps, SamplerConfig(1, 1, workers), exhaustive=True)
        a_vv = avg_vertex_pairs(box)
        assert r.trials == len(v) ** 2
        assert r.hits == _histogram_hits(p, a_vv, eps)
        assert r.extra["hits_half"] == _histogram_hits(p, Fraction(1, 2), eps)
        assert Fraction(r.extra["mean_dist_sq"]) == a_vv
        if eps * eps > a_vv:  # every pair hits, the diagonal ones included
            assert r.hits == r.extra["hits_half"] == r.trials

    def test_exhaustive_worker_count_invariance(self):
        for p in (11, 13):  # four slabs at p = 11 and 64 at p = 13, run on two threads
            one, two = (_t5_sweep(p, w) for w in (1, 2))
            assert replace(two, worker_count=1) == one

    def test_t5_at_p11_runs_in_several_slabs(self, monkeypatch):
        slabs = []

        def recording_run_chunks(fn, total, workers, unit_dim=1, run=kernels.run_chunks):
            def slab(lo, hi):
                slabs.append((lo, hi))
                return fn(lo, hi)
            return run(slab, total, workers, unit_dim)

        monkeypatch.setattr(kernels, "run_chunks", recording_run_chunks)
        one = _t5_sweep(11)
        assert len(slabs) > 1
        assert [lo for lo, _ in sorted(slabs)] == [0] + [hi for _, hi in sorted(slabs)][:-1]
        assert max(hi for _, hi in slabs) == 1024
        assert one.trials == 1024 ** 2
        assert replace(_t5_sweep(11, 2), worker_count=1) == one

    # slab sizes of 10 rows (100 at p = 11), the last short, in elements per slab
    @pytest.mark.parametrize("sweep,p,elements", [
        (_t4_sweep, 7, 10 * 6),  # a K = 1 slab of c rows holds c * dim elements
        (_t5_sweep, 7, 10 * 64),  # a K = 2 slab of c rows meets n rows: c * n pairs
        (_t5_sweep, 11, 100 * 1024),
    ])
    def test_ragged_slabs_match_one_slab(self, monkeypatch, sweep, p, elements):
        whole = sweep(p)
        # each pair of a K = 2 slab holds _PAIR_TEMPORARIES int64 values against the budget
        per_element = kernels._PAIR_TEMPORARIES if sweep is _t5_sweep else 1
        monkeypatch.setattr(kernels, "_BATCH_ELEMENTS", elements * per_element)
        one, two = (sweep(p, w) for w in (1, 2))
        assert replace(two, worker_count=1) == one == whole
        if sweep is _t5_sweep:
            a_vv = avg_vertex_pairs(BoxSpec(p, 1))
            assert one.trials == sum(_pair_histogram(p).values())
            assert one.hits == _histogram_hits(p, a_vv, Fraction(1, 10))
            assert one.extra["hits_half"] == _histogram_hits(p, Fraction(1, 2), Fraction(1, 10))
            assert Fraction(one.extra["mean_dist_sq"]) == a_vv

    def test_sweep_total_is_the_row_count(self):
        box = BoxSpec(7, 1)
        rows = kernels.box_vertex_rows(box)
        for K in (1, 2):
            spec = kernels.EdgeSpec(box, K, rows, ((0, K - 1, ()),))
            assert kernels.tally(spec, 0, len(rows), 1).attempts == len(rows) ** K
            for total in (0, len(rows) - 1, len(rows) + 1, len(rows) ** 2):
                with pytest.raises(ValueError):
                    kernels.tally(spec, 0, total, 1)

    @pytest.mark.parametrize("K", [3, 4])
    def test_sweep_refuses_k_past_2_before_any_slab(self, monkeypatch, K):
        box = BoxSpec(5, 1)
        rows = kernels.box_vertex_rows(box)

        def no_slabs(*args):
            raise AssertionError("a slab was formed")

        monkeypatch.setattr(kernels, "run_chunks", no_slabs)
        spec = kernels.EdgeSpec(box, K, rows, ((0, 1, ()),))
        with pytest.raises(ValueError, match=f"K = {K}"):
            kernels.tally(spec, 0, len(rows), 1)

    def test_apex_leg_refuses_box_points(self):
        box = BoxSpec(5, 3)
        leg = (0, kernels.APEX, (IntervalSpec(Fraction(1, 2), Fraction(1, 10)),))
        spec = kernels.EdgeSpec(box, 1, kernels.draw_box_points, (leg,), apex=(1, 0, -2, 3))
        with pytest.raises(ValueError, match="vertex points"):
            kernels.tally(spec, 0, 10, 1)

    def test_apex_leg_without_an_apex_is_refused_before_any_chunk(self, monkeypatch):
        def no_chunks(*args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr(kernels, "run_chunks", no_chunks)
        leg = (0, kernels.APEX, (IntervalSpec(Fraction(1, 2), Fraction(1, 10)),))
        for K, edges in ((1, (leg,)), (3, kernels.all_edges(3, leg[2]) + (leg,))):
            spec = kernels.EdgeSpec(BoxSpec(5, 1), K, kernels.draw_vertices, edges)
            with pytest.raises(ValueError, match="apex"):
                kernels.tally(spec, 0, 10, 1)

    def test_box_pair_oracle_over_several_blocks(self):
        box = BoxSpec(5, 3)  # 2401 points: 4 row blocks
        assert box.num_points() == 2401
        assert oracle_mean_box_pair_dist_sq(box) == mean_box_pair_dist_sq(box)


# row entries: small ones, and ones past 2^31, where Q(x)^2 and the pair totals pass int64
ROW_ENTRIES = st.one_of(st.integers(-3, 3), st.integers(-(2 ** 40), 2 ** 40))


class TestPairTotals:
    @settings(max_examples=100, deadline=None)
    @given(st.data(), PRIMES, st.integers(1, 6))
    def test_identity_against_a_double_loop(self, data, p, n):
        rows = [tuple(data.draw(st.lists(ROW_ENTRIES, min_size=p - 1, max_size=p - 1)))
                for _ in range(n)]
        m = max(1, max(abs(c) for row in rows for c in row))
        points = [CyclotomicInt(p, row) for row in rows]
        d2 = [core.dist_sq(x, y) for x in points for y in points]
        got = kernels.pair_totals(p, np.array(rows, dtype=kernels.exact_dtype(m)), m)
        assert got == (sum(d2), sum(d * d for d in d2))

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_d2_total_equals_the_block_sweep(self, p):
        box = BoxSpec(p, 3)
        rows = kernels.box_vertex_rows(box)
        spec = kernels.EdgeSpec(box, 2, rows, ((0, 1, ()),))
        swept = kernels.tally(spec, 0, len(rows), 1).d2_sum
        d2, _ = kernels.pair_totals(p, rng.unpack_signs(rows, box.dim), 1)
        assert d2 * box.N ** 2 == swept


PACKED_PRIMES = st.sampled_from([3, 67, 193, 1009])


@st.composite
def _packed_vertices(draw, dim, rows):
    """(rows, nwords) packed sign words and the same rows as Python ints."""
    ints = draw(st.lists(st.integers(0, 2 ** dim - 1), min_size=rows, max_size=rows))
    nwords = (dim + 63) // 64
    words = [[v >> 64 * k & (2 ** 64 - 1) for k in range(nwords)] for v in ints]
    return np.array(words, dtype=np.uint64), ints


def _vertex_of(p, N, bits):
    return CyclotomicInt(p, tuple(N if bits >> j & 1 else -N for j in range(p - 1)))


@st.composite
def _apexes(draw, box):
    """The origin, the poles, an in-box alpha with repeated and distinct values, or
    an alpha with coefficients at and past float precision and int64."""
    p, N, dim = box.p, box.N, box.dim
    kind = draw(st.sampled_from(["origin", "north-pole", "alternating", "in-box", "wide"]))
    if kind == "origin":
        return (0,) * dim
    if kind == "north-pole":
        return core.north_pole_point(box).coeffs
    if kind == "alternating":
        return core.alternating_point(box).coeffs
    coeff = (st.one_of(st.sampled_from([-N, -(N // 3), 0, 1, N]), st.integers(-N, N))
             if kind == "in-box" else COEFFS)
    return tuple(draw(st.lists(coeff, min_size=dim, max_size=dim)))


def _per_coordinate_terms(alpha):
    """PackedApex's (c, set bits of M_c) terms, built by visiting every bit of
    every coefficient: one per distinct value, or one per sign and bit if fewer."""
    by_value, by_bit = {}, {}
    for j, c in enumerate(alpha):
        if c:
            by_value.setdefault(c, set()).add(j)
        for k in range(abs(c).bit_length()):
            if abs(c) >> k & 1:
                by_bit.setdefault((1 if c > 0 else -1) << k, set()).add(j)
    return {(c, frozenset(idx)) for c, idx in min(by_value, by_bit, key=len).items()}


class TestPackedKernel:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), PACKED_PRIMES, SIZES, st.integers(1, 5))
    def test_vertex_vertex(self, data, p, N, rows):
        box = BoxSpec(p, N)
        x, xs = data.draw(_packed_vertices(p - 1, rows))
        y, ys = data.draw(_packed_vertices(p - 1, rows))
        got = kernels.vertex_dist_sq(box, x, y, kernels.popcount(x), kernels.popcount(y))
        want = [core.dist_sq(_vertex_of(p, N, a), _vertex_of(p, N, b)) for a, b in zip(xs, ys)]
        assert [int(v) for v in got] == want

    @settings(max_examples=80, deadline=None)
    @given(st.data(), PACKED_PRIMES, SIZES, st.integers(1, 5))
    def test_vertex_apex(self, data, p, N, rows):
        box = BoxSpec(p, N)
        x, xs = data.draw(_packed_vertices(p - 1, rows))
        alpha = data.draw(_apexes(box))
        apex = kernels.PackedApex(box, alpha)
        got = apex.dist_sq(x, kernels.popcount(x))
        a = CyclotomicInt(p, alpha)
        assert [int(v) for v in got] == [core.dist_sq(_vertex_of(p, N, v), a) for v in xs]
        widest = max(abs(c) for c in alpha)
        assert len(apex.terms) <= min(len(set(alpha) - {0}), 2 * widest.bit_length())

    @settings(max_examples=60, deadline=None)
    @given(st.data(), PACKED_PRIMES, SIZES, st.integers(1, 5))
    def test_mask_sum_is_alpha_over_the_set_bits(self, data, p, N, rows):
        box = BoxSpec(p, N)
        x, xs = data.draw(_packed_vertices(p - 1, rows))
        alpha = data.draw(_apexes(box))
        start, weight = data.draw(st.integers(-N, N)), data.draw(st.sampled_from([2, -4 * N]))
        got = kernels.PackedApex(box, alpha).mask_sum(x, start, weight)
        want = [start + weight * sum(c for j, c in enumerate(alpha) if v >> j & 1) for v in xs]
        assert np.broadcast_to(got, rows).tolist() == want

    @pytest.mark.parametrize("alpha,values", [
        ((3, 3, -5, 3, 0, -5), {3, -5}),  # one mask per distinct value
        ((1, 2, 3, 4, 5, 6), {1, 2, 4}),  # one per bit: 3 masks, not 6
    ])
    def test_mask_sum_under_either_mask_choice(self, alpha, values):
        box = BoxSpec(7, 2 ** 62)
        apex = kernels.PackedApex(box, alpha)
        assert {c for c, _ in apex.terms} == values
        got = apex.mask_sum(kernels.box_vertex_rows(box), 7, -4 * box.N)
        assert got.tolist() == [7 - 4 * box.N * sum(c for j, c in enumerate(alpha) if v >> j & 1)
                                for v in range(2 ** box.dim)]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([7, 101, 1009]), st.sampled_from([1, 2 ** 31, 2 ** 62]),
           st.sampled_from(["north-pole", "alternating", 3, 100, "random"]),
           st.integers(0, 2 ** 32))
    def test_masks_from_distinct_values_match_a_per_coordinate_build(self, p, N, kind, seed):
        box, gen = BoxSpec(p, N), random.Random(seed)
        if kind == "north-pole":
            alpha = core.north_pole_point(box).coeffs
        elif kind == "alternating":
            alpha = core.alternating_point(box).coeffs
        elif kind == "random":
            alpha = tuple(gen.randint(-N, N) for _ in range(box.dim))
        else:  # coefficients from a pool of 3 or 100 values: repeated, by value or by bit
            values = [gen.randint(-N, N) for _ in range(kind)]
            alpha = tuple(gen.choice(values) for _ in range(box.dim))
        got = {(c, frozenset(np.flatnonzero(np.unpackbits(
            mask.astype("<u8").view(np.uint8), bitorder="little")).tolist()))
            for c, mask in kernels.PackedApex(box, alpha).terms}
        assert got == _per_coordinate_terms(alpha)

    @pytest.mark.parametrize("p,N", [(3, 1), (7, 5), (13, 2 ** 62)])
    def test_sweep_rows_unpack_to_the_vertex_matrix(self, p, N):
        box = BoxSpec(p, N)
        rows = kernels.box_vertex_rows(box)
        assert rows.dtype == np.uint64 and rows.shape == (2 ** box.dim, 1)
        want = [v.coeffs for v in box.vertices()]
        coords = [tuple(N if int(row) >> j & 1 else -N for j in range(box.dim)) for row in rows[:, 0]]
        assert coords == want
        got = kernels.scaled(rng.unpack_signs(rows, box.dim), N)
        assert [tuple(row) for row in got.tolist()] == want == [
            tuple(row) for row in kernels.vertex_matrix(box.dim, N).tolist()]

    def test_exhaustive_guard_on_packed_rows(self):
        box = BoxSpec(19, 1)
        with pytest.raises(GuardError):
            kernels.box_vertex_rows(box)
        with pytest.raises(GuardError):
            theorem4_report(CyclotomicInt.zero(19), box, Fraction(1, 10), SamplerConfig(1, 1),
                            exhaustive=True)


class TestPairSweepLimit:
    def test_ordered_pairs_edge(self):
        assert kernels.ordered_pairs(1 << 12) == kernels.PAIR_SWEEP_MAX == 1 << 24
        with pytest.raises(GuardError):
            kernels.ordered_pairs((1 << 12) + 1)

    def test_tally_guards_a_pair_sweep_before_any_pair(self, monkeypatch):
        box = BoxSpec(17, 1)
        rows = kernels.vertex_rows(box.dim)[: (1 << 12) + 1]
        spec = kernels.EdgeSpec(box, 2, rows, ((0, 1, ()),))

        def no_pairs(*args):
            raise AssertionError("a pair was formed")

        monkeypatch.setattr(kernels, "vertex_dist_sq", no_pairs)
        with pytest.raises(GuardError):
            kernels.tally(spec, 0, len(rows), 1)
        with pytest.raises(AssertionError, match="a pair was formed"):
            kernels.tally(replace(spec, draw=rows[:-1]), 0, len(rows) - 1, 1)

    def test_box_pair_oracle_at_the_edge(self):
        box = BoxSpec(3, 511)  # 1023^2 = 1,046,529 points, the most an enumeration lists
        assert box.num_points() <= core.POINT_ENUM_MAX < BoxSpec(3, 512).num_points()
        assert oracle_mean_box_pair_dist_sq(box) == mean_box_pair_dist_sq(box)
        # the a-priori bound on S2 = sum Q(x)^2, about 2.3e19, passes int64 here; check
        # the d^4 total against a sum over difference vectors v, each met by
        # prod_j (2N + 1 - |v_j|) ordered pairs
        rows = kernels.box_matrix(box.dim, box.N)
        assert len(rows) * kernels.dist_sq_bound(3, 2, box.N) ** 2 > kernels.INT64_MAX
        v = np.arange(-2 * box.N, 2 * box.N + 1)
        met = (2 * box.N + 1 - np.abs(v)).astype(object)
        d4 = 0
        for v1, met1 in zip(v.tolist(), met.tolist()):
            q = (9 * (v1 * v1 + v * v) - 4 * (v1 + v) ** 2).astype(object)
            d4 += met1 * int(np.sum(q * q * met))
        assert kernels.pair_totals(3, rows, box.N)[1] == d4
        with pytest.raises(GuardError):
            oracle_mean_box_pair_dist_sq(BoxSpec(3, 512))  # 1025^2 = 1,050,625 points
        with pytest.raises(GuardError):
            next(BoxSpec(3, 512).points())

    def test_exhaustive_t5_runs_up_to_p13(self):
        box = BoxSpec(13, 1)
        r = vertex_pair_report(box, Fraction(1, 4), SamplerConfig(1, 1), exhaustive=True)
        assert r.trials == 1 << 24
        assert r.extra["mean_dist_sq"] == str(avg_vertex_pairs(box))


def _unchanged(fn, *args):
    """fn(*args), checked to leave every array argument as it found it."""
    saved = [a.copy() if isinstance(a, np.ndarray) else None for a in args]
    out = fn(*args)
    for a, before in zip(args, saved):
        if before is not None:
            assert a.dtype == before.dtype and np.array_equal(a, before), f"{fn} wrote an input"
    return out


def _row_ints(packed):
    """Each packed row as one Python int, bit j for coordinate j."""
    return [sum(int(w) << 64 * k for k, w in enumerate(row)) for row in packed]


class TestKernelsLeaveTheirInputs:
    """`_combine`, `PackedApex.mask_sum` and the counter round write in place, but only
    into temporaries their callers made: no kernel changes an array it is given."""

    @pytest.mark.parametrize("N", [1, 2 ** 62], ids=["N1", "N2^62"])
    def test_vertex_dist_sq_with_popcounts_shared_across_edges(self, N):
        box = BoxSpec(67, N)  # two words per row
        pts, _ = kernels.draw_vertices(box, 4, 3, 0, 40)
        members = [pts[:, m] for m in range(4)]
        pcs = [kernels.popcount(x) for x in members]
        points = [[_vertex_of(67, N, bits) for bits in _row_ints(x)] for x in members]
        for _ in range(2):  # each edge reads the popcounts the edges before it read
            for j, k in combinations(range(4), 2):
                got = _unchanged(kernels.vertex_dist_sq, box, members[j], members[k],
                                 pcs[j], pcs[k])
                assert [int(v) for v in got] == [core.dist_sq(a, b)
                                                 for a, b in zip(points[j], points[k])]
        rows, pc = members[0], pcs[0]  # a sweep slab: both operands view the same arrays
        got = _unchanged(kernels.vertex_dist_sq, box, rows[:, None], rows[None, :],
                         pc[:, None], pc[None, :])
        assert [int(v) for v in got[3]] == [core.dist_sq(points[0][3], b) for b in points[0]]

    @pytest.mark.parametrize("kind", ["zero", "pole", "past 2^64"])
    def test_packed_apex(self, kind):
        box = BoxSpec(67, 3)
        alpha = {"zero": (0,) * box.dim,
                 "pole": core.north_pole_point(box).coeffs,
                 "past 2^64": (2 ** 64 + 1, -3) + (1, 0) * 32}[kind]
        apex = kernels.PackedApex(box, alpha)
        x = kernels.draw_vertices(box, 1, 9, 0, 30)[0][:, 0]
        pcx = kernels.popcount(x)
        xs = _row_ints(x)
        start, weight = 5, -4 * box.N
        for _ in range(2):
            got = _unchanged(apex.mask_sum, x, start, weight)
            want = [start + weight * sum(c for j, c in enumerate(alpha) if v >> j & 1)
                    for v in xs]
            assert np.broadcast_to(got, len(xs)).tolist() == want
            assert (kind == "zero") == np.isscalar(got)
            got = _unchanged(apex.dist_sq, x, pcx)
            a = CyclotomicInt(box.p, alpha)
            assert [int(v) for v in got] == [core.dist_sq(_vertex_of(box.p, box.N, v), a)
                                             for v in xs]

    @pytest.mark.parametrize("p,N,path", [(5, 3, "int64"), (101, 2 ** 40, "limbs"),
                                          (101, 2 ** 62, "object")])
    def test_dist_sq_on_each_path(self, p, N, path):
        dim = p - 1
        assert kernels.arithmetic_path(p, dim, 2 * N) == path
        x = rng.box_offsets(4, 0, 12, dim, N)
        y = rng.box_offsets(4, 12, 12, dim, N)
        want = [core.dist_sq(CyclotomicInt(p, tuple(a)), CyclotomicInt(p, tuple(b)))
                for a, b in zip(x.tolist(), y.tolist())]
        for _ in range(2):
            assert [int(v) for v in _unchanged(kernels.dist_sq, p, x, y, 2 * N)] == want
        row = y[:1]  # one row met by every row, as an apex row is
        got = _unchanged(kernels.dist_sq, p, x, row, 2 * N)
        assert int(got[0]) == core.dist_sq(CyclotomicInt(p, tuple(x[0].tolist())),
                                           CyclotomicInt(p, tuple(row[0].tolist())))

    @pytest.mark.parametrize("N", [2, 2 ** 40], ids=["N2", "N2^40"])
    def test_pair_totals(self, N):
        rows = rng.box_offsets(6, 0, 20, 6, N)
        first = _unchanged(kernels.pair_totals, 7, rows, N)
        assert _unchanged(kernels.pair_totals, 7, rows, N) == first


@pytest.fixture
def pools(monkeypatch):
    """The worker count of each pool built, counted by a stand-in for
    `kernels.ThreadPoolExecutor`."""
    built = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(kernels, "ThreadPoolExecutor", CountingPool)
    return built


@pytest.fixture
def chunk_counts(monkeypatch):
    """The number of chunks of each `run_chunks` call."""
    counts = []

    def counting(fn, total, workers, unit_dim=1, run=kernels.run_chunks):
        parts = run(fn, total, workers, unit_dim)
        counts.append(len(parts))
        return parts

    monkeypatch.setattr(kernels, "run_chunks", counting)
    return counts


_BOX = BoxSpec(1009, 1)
_POLE = core.north_pole_point(_BOX)
# report and sample count, each at three or more chunks, so that two workers
# would have built a pool
VERTEX_REPORTS = {
    "T5": (lambda cfg: vertex_pair_report(_BOX, Fraction(1, 4), cfg), 2500),
    "T4": (lambda cfg: theorem4_report(_POLE, _BOX, Fraction(1, 4), cfg), 4500),
    "isosceles": (lambda cfg: isosceles_report(_POLE, _BOX, Fraction(1, 4), cfg), 2500),
    "polytope": (lambda cfg: polytope_report(_BOX, 4, 1009 ** 0.1, cfg), 1200),
    "pyramid": (lambda cfg: pyramid_report(CyclotomicInt.zero(1009), _BOX, 3,
                                           Fraction(1, 4), cfg), 1500),
    "right-angle": (lambda cfg: right_angle_report(_POLE, _BOX, 0.1, cfg), 4500),
}


class TestThreadUse:
    """Sampled packed-vertex chunks run on the calling thread at any worker count;
    box-point draws and pair-sweep slabs keep the pool."""

    @pytest.mark.parametrize("name", sorted(VERTEX_REPORTS))
    def test_vertex_reports_build_no_pool(self, pools, chunk_counts, name):
        report, samples = VERTEX_REPORTS[name]
        one = report(SamplerConfig(11, samples, 1))
        two = report(SamplerConfig(11, samples, 2))
        assert pools == []
        assert min(chunk_counts) >= 3
        assert replace(two, worker_count=1) == one

    def test_box_pair_means_build_a_pool(self, pools, chunk_counts):
        box = BoxSpec(1009, 3)
        one = box_pair_mean_report(box, SamplerConfig(2, 2100, 1))
        assert pools == []
        assert box_pair_mean_report(box, SamplerConfig(2, 2100, 2)) == one
        assert pools == [2] and chunk_counts == [3, 3]

    def test_exhaustive_t5_at_p11_builds_a_pool(self, pools, chunk_counts):
        one = _t5_sweep(11)
        assert pools == []
        assert replace(_t5_sweep(11, 2), worker_count=1) == one
        assert pools == [2] and chunk_counts == [4, 4]
