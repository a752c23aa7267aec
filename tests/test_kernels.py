import math
import random
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from functools import partial
from itertools import combinations

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclobox import concentration, core, kernels, rng
from cyclobox.concentration import (
    CounterStream,
    IntervalSpec,
    SamplerConfig,
    isosceles_report,
    polytope_report,
    pyramid_report,
    right_angle_report,
    sample_box_point,
    sample_vertex,
    theorem4_report,
    vertex_pair_report,
    within_sqrt_interval,
)
from cyclobox.core import BoxSpec, CyclotomicInt, GuardError
from cyclobox.moments import avg_point_to_vertices, avg_vertex_pairs, oracle_moments
from cyclobox.visibility import (
    box_pair_mean_report,
    mean_box_pair_dist_sq,
    oracle_mean_box_pair_dist_sq,
    visibility_concentration_report,
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
        with pytest.raises(GuardError):
            next(BoxSpec(19, 1).vertices())
        assert next(BoxSpec(core.VERTEX_ENUM_MAX_P, 1).vertices()).coeffs == (-1,) * 16


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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_predicate_verdict_equals_its_interval(self, workers):
        """A verdict test may be a predicate of (d^2 values, popcounts): the one built
        from `IntervalSpec.members` tallies what the interval does, d2_sum included."""
        box = BoxSpec(101, 1)
        pole = core.north_pole_point(box).coeffs
        interval = IntervalSpec(avg_point_to_vertices(CyclotomicInt(101, pole), box),
                                Fraction(1, 100))
        lo, hi = interval.members(box.diameter_sq())
        seen = []

        def predicate(vals, pcs):
            seen.append(pcs.shape == vals.shape)
            return (vals >= lo) & (vals <= hi)

        got = [kernels.tally(kernels.EdgeSpec(box, 1, kernels.draw_vertices,
                                              ((0, kernels.APEX, (test,)),), apex=pole),
                             3, 30_000, workers)
               for test in (interval, predicate)]
        assert got[0] == got[1] and 0 < got[0].hits[0] < got[0].attempts == 30_000
        assert len(seen) == 2 and all(seen)  # one call per slice: 20971 + 9029 samples


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


def _t5_sweep(p, workers=1):
    return vertex_pair_report(BoxSpec(p, 1), Fraction(1, 10), SamplerConfig(1, 1, workers),
                              exhaustive=True)


def _t4_sweep(p, workers=1):
    box = BoxSpec(p, 1)
    return theorem4_report(core.north_pole_point(box), box, Fraction(1, 10),
                           SamplerConfig(1, 1, workers), exhaustive=True)


def _alpha(kind, p, N):
    """A fixed point for BoxSpec(p, N): the origin, the poles, an alternating point, values
    repeated or all distinct (outside the box when it has too few values), or
    coefficients past int64."""
    dim, gen = p - 1, random.Random(p * 7 + N)
    if kind == "origin":
        return (0,) * dim
    if kind == "north-pole":
        return core.north_pole(p, N)
    if kind == "east-pole":
        return core.east_pole(p, N)
    if kind == "alternating":
        return core.alternating_point(BoxSpec(p, N)).coeffs
    if kind == "repeated":
        return tuple(gen.choice([-N, 0, N // 3, N]) for _ in range(dim))
    if kind == "distinct":
        if 2 * N + 1 < dim:  # more coordinates than values in the box
            return tuple(range(dim))
        values = []
        while len(values) < dim:
            v = gen.randint(-N, N)
            values += [v] * (v not in values)
        return tuple(values)
    return tuple(gen.choice([2 ** 64 + 3, -(2 ** 70), 5, 0]) for _ in range(dim))  # past int64


ALPHA_KINDS = ["origin", "north-pole", "east-pole", "alternating", "repeated", "distinct",
               "wide"]
# eps = 1 takes in every tuple of the box: sqrt(d^2 / D) and sqrt(A) both lie in [0, 1]
EPSILONS = [Fraction(1, 100), Fraction(1, 10), Fraction(1, 3), Fraction(1)]
BOX_SIZES = [1, 2 ** 31, 2 ** 62]


class TestExhaustiveSweeps:
    @pytest.mark.parametrize("p,eps,workers", [
        (11, Fraction(1, 100), 1),
        (11, Fraction(1, 10), 1),
        (11, Fraction(3, 4), 1),
        (13, Fraction(3, 4), 3),
    ])
    def test_t5_hits_match_the_pair_histogram(self, p, eps, workers):
        box = BoxSpec(p, 1)
        hist = oracles.vertex_pair_histogram(p, 1)
        r = vertex_pair_report(box, eps, SamplerConfig(1, 1, workers), exhaustive=True)
        a_vv = avg_vertex_pairs(box)
        hits, trials, mean = oracles.histogram_law(hist, p, 1, a_vv, eps)
        assert (r.hits, r.trials) == (hits, trials) == (hits, 4 ** (p - 1))
        assert r.extra["hits_half"] == oracles.histogram_law(hist, p, 1, Fraction(1, 2), eps)[0]
        assert Fraction(r.extra["mean_dist_sq"]) == mean == a_vv
        if eps * eps > a_vv:  # every pair hits, the diagonal ones included
            assert r.hits == r.extra["hits_half"] == r.trials

    @pytest.mark.parametrize("N", BOX_SIZES)
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_t5_matches_the_brute_force_law(self, p, N):
        box = BoxSpec(p, N)
        hist = oracles.vertex_pair_histogram(p, N)
        for eps in EPSILONS:
            r = vertex_pair_report(box, eps, SamplerConfig(1, 1), exhaustive=True)
            hits, trials, mean = oracles.histogram_law(hist, p, N, avg_vertex_pairs(box), eps)
            half = oracles.histogram_law(hist, p, N, Fraction(1, 2), eps)[0]
            assert (r.hits, r.extra["hits_half"], r.trials) == (hits, half, trials)
            assert Fraction(r.extra["mean_dist_sq"]) == mean
            assert r.hits == r.trials or eps < 1

    @pytest.mark.parametrize("kind", ALPHA_KINDS)
    @pytest.mark.parametrize("N", BOX_SIZES)
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_t4_matches_the_brute_force_law(self, p, N, kind):
        box = BoxSpec(p, N)
        alpha = CyclotomicInt(p, _alpha(kind, p, N))
        hist = oracles.point_vertex_histogram(p, N, alpha.coeffs)
        center = avg_point_to_vertices(alpha, box)
        for eps in EPSILONS:
            r = theorem4_report(alpha, box, eps, SamplerConfig(1, 1), exhaustive=True)
            hits, trials, _ = oracles.histogram_law(hist, p, N, center, eps)
            assert (r.hits, r.trials) == (hits, trials) == (hits, 2 ** (p - 1))
            assert r.hits == r.trials or eps < 1 or max(map(abs, alpha.coeffs)) > N
        spec = kernels.EdgeSpec(box, 1, kernels.vertex_orbits(box, alpha.coeffs),
                                ((0, kernels.APEX, ()),), apex=alpha.coeffs)
        assert kernels.tally(spec, 0, 1, 1).d2_sum == sum(n * c for n, c in hist.items())

    def test_exhaustive_worker_count_invariance(self):
        for p in (11, 13):
            one, two = (_t5_sweep(p, w) for w in (1, 2))
            assert replace(two, worker_count=1) == one
            one, two = (_t4_sweep(p, w) for w in (1, 2))
            assert replace(two, worker_count=1) == one

    def test_t5_at_p11_is_one_orbit_batch(self, monkeypatch):
        batches = []

        kernel = kernels.vertex_dist_sq

        def recording(box, x, y, pcx, pcy, scratch=None):
            batches.append(len(x))
            return kernel(box, x, y, pcx, pcy, scratch)

        monkeypatch.setattr(kernels, "vertex_dist_sq", recording)
        one = _t5_sweep(11)
        assert batches == [66]  # (n + 1)(n + 2) / 2 orbits of pairs, n = 10
        assert one.trials == 1024 ** 2
        assert replace(_t5_sweep(11, 2), worker_count=1) == one

    def test_orbit_weights_total_every_tuple(self):
        """Each representative is the orbit its docstring names, once, with the orbit's
        size as its weight; the weights total every tuple."""
        for p in (3, 7, 13):
            box, n = BoxSpec(p, 2 ** 62), p - 1
            tuples, total, weights = kernels.vertex_orbits(box)
            assert sum(weights.tolist()) == total == 4 ** n
            orbits = set()
            for (x, y), w in zip(tuples[:, :, 0].tolist(), weights.tolist()):
                a, b = x.bit_count(), y.bit_count()
                assert x == (1 << a) - 1 and y == (1 << a + b) - 1 - x
                assert w == math.comb(n, a + b) * math.comb(a + b, a) * 2 ** (n - a - b)
                orbits.add((a, b))
            assert len(orbits) == len(tuples) == (n + 1) * (n + 2) // 2
            spec = kernels.EdgeSpec(box, 2, (tuples, total, weights), ((0, 1, ()),))
            assert kernels.tally(spec, 0, 1, 1).attempts == 4 ** n
            for kind in ALPHA_KINDS:
                alpha = _alpha(kind, p, box.N)
                tuples, total, weights = kernels.vertex_orbits(box, alpha)
                assert sum(weights.tolist()) == total == 2 ** n
                classes = [[j for j in range(n) if alpha[j] == c] for c in set(alpha)]
                orbits = set()
                for x, w in zip(tuples[:, 0, 0].tolist(), weights.tolist()):
                    ks = tuple(sum(x >> j & 1 for j in idx) for idx in classes)
                    assert x == sum(1 << j for idx, k in zip(classes, ks) for j in idx[:k])
                    assert w == math.prod(math.comb(len(idx), k) for idx, k in zip(classes, ks))
                    orbits.add(ks)
                assert len(orbits) == len(tuples) == math.prod(len(idx) + 1 for idx in classes)

    def test_apex_leg_refuses_box_points(self, monkeypatch):
        """The apex leg is refused when `tally` plans the run, before any slice draws
        its box points, at one worker and at two; so are box-point orbit tuples."""
        def no_slices(*args):
            raise AssertionError("a slice ran")

        monkeypatch.setattr(kernels, "run_chunks", no_slices)
        box = BoxSpec(5, 3)
        leg = (0, kernels.APEX, (IntervalSpec(Fraction(1, 2), Fraction(1, 10)),))
        tuples = kernels.draw_box_points(box, 1, 0, 0, 4)[0]
        for draw in (kernels.draw_box_points, (tuples, 4, np.ones(4, dtype=np.int64))):
            spec = kernels.EdgeSpec(box, 1, draw, (leg,), apex=(1, 0, -2, 3))
            for workers in (1, 2):
                with pytest.raises(ValueError, match="vertex points"):
                    kernels.tally(spec, 0, 10, workers)

    def test_apex_leg_without_an_apex_is_refused_before_any_chunk(self, monkeypatch):
        def no_slices(*args):
            raise AssertionError("a slice ran")

        monkeypatch.setattr(kernels, "run_chunks", no_slices)
        leg = (0, kernels.APEX, (IntervalSpec(Fraction(1, 2), Fraction(1, 10)),))
        for K, edges in ((1, (leg,)), (3, kernels.all_edges(3, leg[2]) + (leg,))):
            spec = kernels.EdgeSpec(BoxSpec(5, 1), K, kernels.draw_vertices, edges)
            with pytest.raises(ValueError, match="apex"):
                kernels.tally(spec, 0, 10, 1)

    def test_box_pair_oracle_over_several_blocks(self):
        box = BoxSpec(5, 3)  # 2401 points: 4 row blocks
        assert box.num_points() == 2401
        assert oracle_mean_box_pair_dist_sq(box) == mean_box_pair_dist_sq(box)


def _moments_of(hist, d2):
    """(mean, fourth moment, central moment) of d^2 / d2 over a d^2 histogram."""
    count = sum(hist.values())
    mean = Fraction(sum(n * c for n, c in hist.items()), count * d2)
    fourth = Fraction(sum(n * n * c for n, c in hist.items()), count * d2 * d2)
    return mean, fourth, fourth - mean * mean


class TestOracleAgainstHistograms:
    """The moment oracle against sums over brute-force d^2 histograms, which visit every
    vertex pair or vertex: no identity checks its d^4 sums any more."""

    @pytest.mark.parametrize("N", BOX_SIZES)
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_pair_moments(self, p, N):
        box = BoxSpec(p, N)
        want = _moments_of(oracles.vertex_pair_histogram(p, N), box.diameter_sq())
        assert tuple(r.oracle_value for r in oracle_moments(box)) == want

    @pytest.mark.parametrize("kind", ALPHA_KINDS)
    @pytest.mark.parametrize("N", BOX_SIZES)
    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_point_moments(self, p, N, kind):
        box = BoxSpec(p, N)
        alpha = CyclotomicInt(p, _alpha(kind, p, N))
        hist = oracles.point_vertex_histogram(p, N, alpha.coeffs)
        mean, _, central = _moments_of(hist, box.diameter_sq())
        assert [r.oracle_value for r in oracle_moments(box, alpha)] == [mean, central]


# row entries: small ones, and ones past 2^31, where Q(x) and the pair totals pass int64
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
        assert got == sum(d2)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_d2_total_equals_the_block_sweep(self, p):
        """The d^2 total of the pair orbits, weighted, is the pair oracle's total."""
        box = BoxSpec(p, 3)
        spec = kernels.EdgeSpec(box, 2, kernels.vertex_orbits(box), ((0, 1, ()),))
        weighted = kernels.tally(spec, 0, 1, 1).d2_sum
        d2 = kernels.pair_totals(p, rng.unpack_signs(kernels.vertex_rows(box.dim), box.dim), 1)
        assert d2 * box.N ** 2 == weighted


PACKED_PRIMES = st.sampled_from([3, 67, 193, 1009])


@st.composite
def _packed_vertices(draw, dim, rows):
    """(rows, nwords) packed sign words and the same rows as Python ints."""
    ints = draw(st.lists(st.integers(0, 2 ** dim - 1), min_size=rows, max_size=rows))
    return _words_of(ints, (dim + 63) // 64), ints


def _words_of(ints, nwords):
    """(len(ints), nwords) packed rows, bit j of a row for bit j of its int."""
    return np.array([[v >> 64 * k & (2 ** 64 - 1) for k in range(nwords)] for v in ints],
                    dtype=np.uint64).reshape(len(ints), nwords)


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


@st.composite
def _word_blocks(draw, nwords, K):
    """A uint64 block of (count, nwords) rows, or (count, K, nwords) if K, and each
    row as a Python int: random rows, all-zero and all-one rows, and rows whose bits
    past some dim are cleared."""
    width = 64 * nwords
    row = st.one_of(st.just(0), st.just((1 << width) - 1), st.integers(0, (1 << width) - 1),
                    st.integers(1, width).flatmap(lambda dim: st.integers(0, (1 << dim) - 1)))
    count = draw(st.integers(0, 6))
    ints = draw(st.lists(row, min_size=count * (K or 1), max_size=count * (K or 1)))
    words = _words_of(ints, nwords)
    return words.reshape((count, K, nwords)) if K else words, ints


class TestPopcount:
    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.sampled_from([1, 2, 16, 32]), st.sampled_from([None, 1, 3]))
    def test_set_bits_of_each_row(self, data, nwords, K):
        words, ints = data.draw(_word_blocks(nwords, K))
        got = kernels.popcount(words)
        assert got.dtype == np.int64 and got.shape == words.shape[:-1]
        assert got.ravel().tolist() == [v.bit_count() for v in ints]

    @pytest.mark.parametrize("p", [5, 67, 1009, 2003])  # 1, 2, 16 and 32 words a row
    def test_rows_cut_to_dim_and_rows_of_zeros_and_ones(self, p):
        dim = p - 1
        nwords = (dim + 63) // 64
        drawn = _row_ints(rng.vertex_words(3, 0, 12, dim))  # bits past dim cleared
        ints = drawn + [0, (1 << dim) - 1, (1 << 64 * nwords) - 1]
        words = _words_of(ints, nwords)
        assert kernels.popcount(words).tolist() == [v.bit_count() for v in ints]
        pairs = kernels.popcount(words[:12].reshape(6, 2, nwords))
        assert pairs.tolist() == [[v.bit_count() for v in ints[i:i + 2]] for i in range(0, 12, 2)]


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
        got = apex.mask_sum(kernels.vertex_rows(box.dim), 7, -4 * box.N)
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

    @pytest.mark.parametrize("kind", ALPHA_KINDS)
    @pytest.mark.parametrize("p,N", [(7, 2), (17, 3), (101, 2 ** 62)])
    def test_setup_reads_alpha_once(self, kind, p, N):
        """The apex setup's one pass by value gives the masks, the bound, q0 and s0 of a
        pass per quantity, and the label is the one read off a built north pole."""
        box, alpha = BoxSpec(p, N), _alpha(kind, p, N)
        apex = kernels.PackedApex(box, alpha)
        got = {(c, frozenset(np.flatnonzero(np.unpackbits(
            mask.astype("<u8").view(np.uint8), bitorder="little")).tolist()))
            for c, mask in apex.terms}
        assert got == _per_coordinate_terms(alpha)
        trace, energy = sum(alpha), sum(c * c for c in alpha)
        assert apex.bound == kernels.dist_sq_bound(p, p - 1, N + max(abs(c) for c in alpha))
        assert (apex.q0, apex.s0) == (N * N * (p - 1) + energy + 2 * N * trace,
                                      N * (p - 1) + trace)
        point = CyclotomicInt(p, alpha)
        top = max(abs(c) for c in alpha)
        if point.is_zero():
            want = "origin"
        elif alpha == core.north_pole_point(BoxSpec(p, top)).coeffs:
            want = "north-pole"
        elif p <= 17:
            want = "coeffs:" + ",".join(map(str, alpha))
        else:
            want = f"custom(trace={point.trace()},eucl_sq={energy})"
        assert concentration._alpha_label(point) == want
        assert (want == "north-pole") == (kind == "north-pole")

    @pytest.mark.parametrize("p,N", [(3, 1), (7, 5), (13, 2 ** 62)])
    def test_sweep_rows_unpack_to_the_vertex_matrix(self, p, N):
        box = BoxSpec(p, N)
        rows = kernels.vertex_rows(box.dim)
        assert rows.dtype == np.uint64 and rows.shape == (2 ** box.dim, 1)
        want = [v.coeffs for v in box.vertices()]
        coords = [tuple(N if int(row) >> j & 1 else -N for j in range(box.dim)) for row in rows[:, 0]]
        assert coords == want
        got = kernels.scaled(rng.unpack_signs(rows, box.dim), N)
        assert [tuple(row) for row in got.tolist()] == want == [
            tuple(row) for row in kernels.vertex_matrix(box.dim, N).tolist()]

    def test_exhaustive_guard_on_packed_rows(self):
        """The oracle's one limit is the orbit batch: pair orbits pass it at p = 521, the
        north pole's at p = 809; p = 19, past the vertex enumeration guard, is in it."""
        with pytest.raises(GuardError):
            oracle_moments(BoxSpec(521, 1))
        with pytest.raises(GuardError):
            oracle_moments(BoxSpec(809, 1), core.north_pole_point(BoxSpec(809, 1)))
        assert all(r.exact_equal for r in oracle_moments(BoxSpec(19, 1), CyclotomicInt.zero(19)))


class TestPairSweepLimit:
    def test_orbit_batch_edge(self):
        budget = kernels._BATCH_ELEMENTS  # tuples x K x words

        def t5(p):  # (n + 1)(n + 2) / 2 pair orbits, n = p - 1
            return p * (p + 1) // 2, 2, p - 1

        def pole(p):  # (n/2 + 1)^2 orbits of one vertex at the north pole
            return ((p - 1) // 2 + 1) ** 2, 1, p - 1

        # the budget at one and two words a vertex, and the reach the README states:
        # T5 to p = 509, T4 at the origin to p = 11579 and at the pole to p = 797
        fits = [(budget, 1, 64), (budget // 2, 2, 64), (budget // 4, 2, 65), t5(509),
                (11579, 1, 11578), pole(797)]
        past = [(budget + 1, 1, 64), (budget // 2 + 1, 2, 64), (budget // 4 + 1, 2, 65),
                t5(521), (11587, 1, 11586), pole(809)]
        for count, K, dim in fits:
            kernels.require_orbit_batch(count, K, dim)
        for count, K, dim in past:
            with pytest.raises(GuardError):
                kernels.require_orbit_batch(count, K, dim)

    def test_orbit_batch_is_refused_before_any_row(self, monkeypatch):
        def no_rows(*args):
            raise AssertionError("a row was formed")

        monkeypatch.setattr(kernels, "_pack", no_rows)
        distinct = CyclotomicInt(101, tuple(range(100)))  # 2^100 apex orbits
        with pytest.raises(GuardError):
            kernels.vertex_orbits(BoxSpec(1009, 1))
        with pytest.raises(GuardError):
            kernels.vertex_orbits(BoxSpec(101, 100), distinct.coeffs)
        with pytest.raises(GuardError):
            theorem4_report(distinct, BoxSpec(101, 100), Fraction(1, 10), SamplerConfig(1, 1),
                            exhaustive=True)
        with pytest.raises(AssertionError, match="a row was formed"):
            kernels.vertex_orbits(BoxSpec(101, 1))

    def test_box_pair_oracle_at_the_edge(self):
        box = BoxSpec(3, 511)  # 1023^2 = 1,046,529 points, the most an enumeration lists
        assert box.num_points() <= core.POINT_ENUM_MAX < BoxSpec(3, 512).num_points()
        assert oracle_mean_box_pair_dist_sq(box) == mean_box_pair_dist_sq(box)
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

    @pytest.mark.parametrize("N", [3, 2 ** 62], ids=["N3", "N2^62"])
    def test_calls_through_a_run_scratch(self, N):
        """With a run's buffers, the kernels leave their inputs and the apex masks as they
        were, equal the call without them, and return new arrays: a result kept from one
        call is unchanged after later calls reuse the same scratch."""
        box, K, count = BoxSpec(67, N), 3, 40
        words, scratch = kernels.run_buffers(count, K, box.dim, packed=True)
        pts, _ = kernels.draw_vertices(box, K, 3, 0, count, words, scratch)
        assert np.shares_memory(pts, words)
        assert np.array_equal(pts, kernels.draw_vertices(box, K, 3, 0, count)[0])
        members = [pts[:, m] for m in range(K)]
        pcs = kernels.popcount(pts)
        apex = kernels.PackedApex(box, core.north_pole_point(box).coeffs)
        masks = [mask.copy() for _, mask in apex.terms]
        assert masks
        calls = [(kernels.vertex_dist_sq, (box, members[0], members[1], pcs[:, 0], pcs[:, 1])),
                 (apex.mask_sum, (members[0], 5, -4 * box.N)),
                 (kernels.vertex_dist_sq, (box, members[1], members[2], pcs[:, 1], pcs[:, 2])),
                 (apex.dist_sq, (members[2], pcs[:, 2]))]
        kept = []
        for fn, args in calls:
            got = _unchanged(partial(fn, scratch=scratch), *args)
            assert not (np.shares_memory(got, scratch) or np.shares_memory(got, words))
            assert got.tolist() == fn(*args).tolist()
            kept.append((got, got.copy()))
        for got, before in kept:
            assert np.array_equal(got, before)
        assert all(np.array_equal(m, before) for (_, m), before in zip(apex.terms, masks))

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

    @pytest.mark.parametrize("N,path", [(3, "int64"), (2 ** 40, "limbs")])
    @pytest.mark.parametrize("rows", [1, 7, 17])  # one short block; one full; 7, 7 and 3
    def test_dist_sq_in_row_blocks(self, monkeypatch, N, path, rows):
        """In row blocks through a scratch, d^2 is `core.dist_sq`, whether the last block
        is full or short, the scratch is new or holds a longer call's rows, and the
        second operand is rows or one broadcast row; the result is a new array."""
        p, dim = 101, 100
        assert kernels.arithmetic_path(p, dim, 2 * N) == path
        monkeypatch.setattr(rng, "_BLOCK_WORDS", 7 * dim + 50)  # blocks of 7 rows
        x = rng.box_offsets(2, 0, rows, dim, N)
        y = rng.box_offsets(2, rows, rows, dim, N)
        members = np.stack([x, y], axis=1)  # operands as strided members, as `tally` reads them
        scratch = np.full(2 * 7 * dim, -1, dtype=np.int64)
        for y_rows in (members[:, 1], y[:1]):
            want = [core.dist_sq(CyclotomicInt(p, tuple(a)), CyclotomicInt(p, tuple(b)))
                    for a, b in zip(x.tolist(), np.broadcast_to(y_rows, x.shape).tolist())]
            for buf in (None, scratch, scratch):
                got = _unchanged(partial(kernels.dist_sq, scratch=buf), p, members[:, 0],
                                 y_rows, 2 * N)
                assert got.shape == (rows,) and [int(v) for v in got] == want
                assert not np.shares_memory(got, scratch)

    @pytest.mark.parametrize("N", [2, 2 ** 40], ids=["N2", "N2^40"])
    def test_pair_totals(self, N):
        rows = rng.box_offsets(6, 0, 20, 6, N)
        first = _unchanged(kernels.pair_totals, 7, rows, N)
        assert _unchanged(kernels.pair_totals, 7, rows, N) == first


@pytest.fixture
def pools(monkeypatch):
    """The worker count of each pool built, counted by a stand-in for
    `kernels.ThreadPoolExecutor`, on two cores: a pool has a thread per core at most."""
    built = []
    monkeypatch.setattr(kernels.os, "cpu_count", lambda: 2)

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(kernels, "ThreadPoolExecutor", CountingPool)
    return built


@pytest.fixture
def slice_counts(monkeypatch):
    """The number of slices, one `fn` call each, of each `run_chunks` call."""
    counts = []

    def counting(fn, total, workers, *shape, run=kernels.run_chunks):
        parts = run(fn, total, workers, *shape)
        counts.append(len(parts))
        return parts

    monkeypatch.setattr(kernels, "run_chunks", counting)
    return counts


def _track_buffer_sets(monkeypatch, pause):
    """Record the buffer set of each box-point slice, from its draw to its last d^2
    call, and assert that no slice draws into a set another slice holds.  The first
    slice sleeps `pause` s after taking its set, so that another worker starts a
    slice meanwhile.  Returns the held sets and each draw's (out, scratch)."""
    held, drawn, lock = set(), [], threading.Lock()

    def drawing(box, K, seed, start, stop, out, scratch, draw=kernels.draw_box_points):
        with lock:
            assert scratch.ctypes.data not in held
            held.add(scratch.ctypes.data)
            drawn.append((out, scratch))
        if start == 0:
            time.sleep(pause)
        return draw(box, K, seed, start, stop, out, scratch)

    def measuring(p, x, y, m, scratch, dist_sq=kernels.dist_sq):
        try:
            return dist_sq(p, x, y, m, scratch)
        finally:
            with lock:
                held.remove(scratch.ctypes.data)

    monkeypatch.setattr(kernels, "draw_box_points", drawing)
    monkeypatch.setattr(kernels, "dist_sq", measuring)
    return held, drawn


_BOX = BoxSpec(1009, 1)
_POLE = core.north_pole_point(_BOX)
# report and sample count, each at three or more slices, so that two workers
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
    """Sampled packed-vertex slices run on the calling thread at any worker count, and
    exhaustive vertex orbits run as one batch there too; box-point draws keep the pool."""

    @pytest.mark.parametrize("name", sorted(VERTEX_REPORTS))
    def test_vertex_reports_build_no_pool(self, pools, slice_counts, name):
        report, samples = VERTEX_REPORTS[name]
        one = report(SamplerConfig(11, samples, 1))
        two = report(SamplerConfig(11, samples, 2))
        assert pools == []
        assert min(slice_counts) >= 3
        assert replace(two, worker_count=1) == one

    # 2100 box pairs at p = 1009 are slices of 130 pairs (2^18 // 2016 words), 16 full
    # and one of 20
    PAIR_SLICES = 17

    def test_box_pair_means_build_a_pool(self, pools, slice_counts):
        box = BoxSpec(1009, 3)
        assert kernels._slice(2, box.dim, False) == 130
        one = box_pair_mean_report(box, SamplerConfig(2, 2100, 1))
        assert pools == []
        assert box_pair_mean_report(box, SamplerConfig(2, 2100, 2)) == one
        assert pools == [2] and slice_counts == [self.PAIR_SLICES] * 2

    def test_a_pool_runs_one_task_per_thread(self, monkeypatch, pools, slice_counts):
        """A pooled run submits one task per pool thread, and each makes one buffer set
        and takes its slices from the run's shared list: 17 slices at two workers are
        2 tasks and 2 sets, and one worker makes 1 set and no pool."""
        submitted, sets = [], []

        def submitting(pool, fn, *args, submit=kernels.ThreadPoolExecutor.submit):
            submitted.append(fn)
            return submit(pool, fn, *args)

        def making(*args, run_buffers=kernels.run_buffers):
            sets.append(args)
            return run_buffers(*args)

        monkeypatch.setattr(kernels.ThreadPoolExecutor, "submit", submitting)
        monkeypatch.setattr(kernels, "run_buffers", making)
        box = BoxSpec(1009, 3)
        one = box_pair_mean_report(box, SamplerConfig(2, 2100, 1))
        assert len(sets) == 1 and submitted == []
        sets.clear()
        assert box_pair_mean_report(box, SamplerConfig(2, 2100, 2)) == one
        assert len(submitted) == 2 and len(sets) == 2
        assert pools == [2] and slice_counts == [self.PAIR_SLICES] * 2

    def test_an_error_in_a_pooled_slice_reaches_the_caller(self, monkeypatch, pools):
        """A slice that raises on a pool thread raises in the caller, and the pool's
        threads have ended when it does."""
        box = BoxSpec(5, 3)  # about a third of the tuples are redrawn
        monkeypatch.setattr(kernels, "_SLICE_WORDS", 10 * 3 * box.dim)
        assert kernels._slice(3, box.dim, False) == 10  # 30 tuples: 3 slices
        before = threading.active_count()
        with pytest.raises(GuardError, match="within 1 attempts"):
            visibility_concentration_report(box, 3, 0.2, SamplerConfig(5, 30, 2), max_attempts=1)
        assert threading.active_count() == before
        assert pools == [2]

    def test_a_failed_slice_ends_the_pooled_run(self, monkeypatch, pools):
        """Once a pooled slice raises, the other threads start no further slice: of
        100 slices, each of which sleeps 1 ms, the first raises before its draw."""
        box, drawn = BoxSpec(5, 3), []

        def drawing(box, K, seed, start, stop, out, scratch, draw=kernels.draw_box_points):
            if start == 0:
                raise GuardError("the first slice fails")
            drawn.append(start)
            time.sleep(1e-3)
            return draw(box, K, seed, start, stop, out, scratch)

        monkeypatch.setattr(kernels, "draw_box_points", drawing)
        monkeypatch.setattr(kernels, "_SLICE_WORDS", 2 * box.dim)  # slices of one pair
        with pytest.raises(GuardError, match="first slice"):
            box_pair_mean_report(box, SamplerConfig(5, 100, 2))
        assert pools == [2] and len(drawn) < 50

    def test_box_pair_chunks_running_at_once_hold_their_own_buffers(self, monkeypatch, pools,
                                                                    slice_counts):
        """A box-pair slice holds a buffer set from its draw to its one kernel call, and
        no other slice draws into a set while it is held: one worker reuses one set for
        all 17 slices, two workers, each running a slice, use two sets, and the mean is
        that of one worker."""
        box, cfg = BoxSpec(1009, 3), SamplerConfig(2, 2100, 1)
        held, drawn = _track_buffer_sets(monkeypatch, pause=0.05)
        results = []
        for workers in (1, 2):
            drawn.clear()
            results.append(box_pair_mean_report(box, replace(cfg, worker_count=workers)))
            sets = list({scratch.ctypes.data: (out, scratch) for out, scratch in drawn}.values())
            assert len(drawn) == self.PAIR_SLICES and len(sets) == workers and not held
            for a, b in combinations([array for pair in sets for array in pair], 2):
                assert not np.shares_memory(a, b)
        assert slice_counts == [self.PAIR_SLICES] * 2 and pools == [2]
        assert results[0] == results[1] == box_pair_mean_report(box, cfg)

    def test_a_pool_has_at_most_one_thread_per_core(self, monkeypatch, pools, slice_counts):
        """A million workers on two cores build a pool of two threads, which hold two
        buffer sets, and the mean is that of one worker."""
        box = BoxSpec(1009, 3)
        one = box_pair_mean_report(box, SamplerConfig(2, 2100, 1))
        held, drawn = _track_buffer_sets(monkeypatch, pause=0.05)
        assert box_pair_mean_report(box, SamplerConfig(2, 2100, 10 ** 6)) == one
        assert len({scratch.ctypes.data for _, scratch in drawn}) == 2 and not held
        assert pools == [2] and slice_counts == [self.PAIR_SLICES] * 2

    def test_exhaustive_reports_build_no_pool(self, pools, slice_counts):
        for sweep, p in ((_t5_sweep, 11), (_t4_sweep, 17)):
            assert replace(sweep(p, 2), worker_count=1) == sweep(p, 1)
        assert pools == [] and slice_counts == []


_SMALL = BoxSpec(67, 3)
_SMALL_POLE = core.north_pole_point(_SMALL)
# report and the K vertices of each of its samples
RAGGED_REPORTS = {
    "T5": (lambda cfg: vertex_pair_report(_SMALL, Fraction(1, 20), cfg), 2),
    "T4": (lambda cfg: theorem4_report(_SMALL_POLE, _SMALL, Fraction(1, 20), cfg), 1),
    "isosceles": (lambda cfg: isosceles_report(_SMALL_POLE, _SMALL, Fraction(1, 20), cfg), 2),
    "polytope": (lambda cfg: polytope_report(_SMALL, 4, 10, cfg), 4),
    "pyramid": (lambda cfg: pyramid_report(_SMALL_POLE, _SMALL, 3, Fraction(1, 10), cfg), 3),
    "right-angle": (lambda cfg: right_angle_report(_SMALL_POLE, _SMALL, 0.1, cfg), 1),
}


class TestRaggedChunks:
    """Every slice of a sampled run writes into the same buffers, so a short last
    slice must read nothing a longer slice left behind: a report is the same as one
    slice, as 3 full slices, and as 3 full slices and a short one.  At these row
    widths the batch budget sets the slice."""

    @staticmethod
    def _ragged(monkeypatch, slice_counts, report, width):
        got = []
        for samples, slices in ((30, 1), (10, 3), (8, 4)):  # 8 + 8 + 8 + 6
            monkeypatch.setattr(kernels, "_BATCH_ELEMENTS", samples * width)
            got.append(report(SamplerConfig(5, 30)))
            assert slice_counts[-1] == slices
        assert got[0] == got[1] == got[2]
        return got[0]

    @pytest.mark.parametrize("name", sorted(RAGGED_REPORTS))
    def test_reports_do_not_depend_on_the_chunks(self, monkeypatch, slice_counts, name):
        report, K = RAGGED_REPORTS[name]
        got = self._ragged(monkeypatch, slice_counts, report, K * _SMALL.dim)
        assert 0 < got.hits < got.trials  # the verdict reads every sample

    def test_box_pair_means_do_not_depend_on_the_chunks(self, monkeypatch, slice_counts):
        box = BoxSpec(67, 2 ** 40)  # "limbs" d^2, and about half the words redrawn
        got = self._ragged(monkeypatch, slice_counts,
                              lambda cfg: box_pair_mean_report(box, cfg), 2 * box.dim)
        stream = CounterStream(5)
        want = sum(core.dist_sq(*(sample_box_point(box, stream) for _ in range(2)))
                   for _ in range(30))
        assert got == Fraction(want, 30 * box.diameter_sq())

    def test_visibility_does_not_depend_on_the_chunks(self, monkeypatch, slice_counts):
        box = BoxSpec(5, 3)  # about a third of the tuples are redrawn
        got = self._ragged(monkeypatch, slice_counts,
                              lambda cfg: visibility_concentration_report(box, 3, 0.2, cfg),
                              3 * box.dim)
        assert 0 < got.visible_fraction < 1 and 0 < got.proportion_near_center < 1


class TestSlices:
    """A run's slices hold at most `_SLICE_WORDS` words and the batch budget, through
    buffers sized for one slice: a report is the same with slices of one sample, with
    a short last slice, and with slices of the whole budget, at one worker and at two."""

    @staticmethod
    def _by_slices(monkeypatch, slice_counts, report, width):
        monkeypatch.setattr(kernels, "_BATCH_ELEMENTS", 10 * width)  # slices of 10 at most
        got = []
        for samples, slices in ((1, 30), (4, 8), (10, 3)):  # 4 x 7 + 2; 10 x 3
            monkeypatch.setattr(kernels, "_SLICE_WORDS", samples * width)
            for workers in (1, 2):
                got.append(report(SamplerConfig(5, 30, workers)))
                assert slice_counts[-1] == slices
        if not isinstance(got[0], Fraction):  # a report, which names its worker count
            got = [replace(g, worker_count=1) for g in got]
        assert all(g == got[0] for g in got)
        return got[0]

    def test_pooled_slices_under_a_short_switch_interval(self, monkeypatch, slice_counts):
        """Four threads, twice what two cores run at once, switching every microsecond,
        over 24 slices of 3 pairs, the last of one: no slice draws into a set another
        holds, and the mean is that of one worker."""
        monkeypatch.setattr(kernels.os, "cpu_count", lambda: 4)  # a pool of four threads
        box = BoxSpec(67, 2 ** 40)
        width = 2 * box.dim
        monkeypatch.setattr(kernels, "_BATCH_ELEMENTS", 10 * width)
        monkeypatch.setattr(kernels, "_SLICE_WORDS", 3 * width)
        want = box_pair_mean_report(box, SamplerConfig(5, 70))
        held, drawn = _track_buffer_sets(monkeypatch, pause=0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                drawn.clear()
                assert box_pair_mean_report(box, SamplerConfig(5, 70, 4)) == want
                assert len({scratch.ctypes.data for _, scratch in drawn}) <= 4 and not held
        finally:
            sys.setswitchinterval(interval)
        assert slice_counts == [24] * 4

    def test_box_pair_means_do_not_depend_on_the_slices(self, monkeypatch, slice_counts):
        box = BoxSpec(67, 2 ** 40)  # "limbs" d^2, and about half the words redrawn
        got = self._by_slices(monkeypatch, slice_counts,
                              lambda cfg: box_pair_mean_report(box, cfg), 2 * box.dim)
        stream = CounterStream(5)
        want = sum(core.dist_sq(*(sample_box_point(box, stream) for _ in range(2)))
                   for _ in range(30))
        assert got == Fraction(want, 30 * box.diameter_sq())

    def test_visibility_does_not_depend_on_the_slices(self, monkeypatch, slice_counts):
        box = BoxSpec(5, 3)  # about a third of the tuples are redrawn
        got = self._by_slices(monkeypatch, slice_counts,
                              lambda cfg: visibility_concentration_report(box, 3, 0.2, cfg),
                              3 * box.dim)
        assert 0 < got.visible_fraction < 1 and 0 < got.proportion_near_center < 1

    @pytest.mark.parametrize("p", [11, 67, 1009])
    def test_packed_vertex_chunks_are_one_slice_from_p11(self, p):
        """From p = 11 the batch budget, not the words limit, sets a packed-vertex slice."""
        for K in (1, 2, 4):
            assert kernels._slice(K, p - 1, True) == kernels._BATCH_ELEMENTS // (K * (p - 1))

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("name", ["T5", "right-angle"])
    def test_small_p_vertex_chunks_run_past_one_slice(self, monkeypatch, slice_counts, p, name):
        """At p <= 7 the words limit sets a packed-vertex slice: a run of two slices, the
        second short, is the same as one slice of the batch budget."""
        box = BoxSpec(p, 2)
        K, report = {"T5": (2, lambda cfg: vertex_pair_report(box, Fraction(1, 3), cfg)),
                     "right-angle": (1, lambda cfg: right_angle_report(
                         core.north_pole_point(box), box, 0.3, cfg))}[name]
        samples = kernels._slice(K, box.dim, True) + 1000
        assert samples < kernels._BATCH_ELEMENTS // (K * box.dim)
        cfg = SamplerConfig(9, samples)
        sliced = report(cfg)
        monkeypatch.setattr(kernels, "_SLICE_WORDS", K * samples)
        whole = report(cfg)
        assert slice_counts == [2, 1]
        assert sliced == whole and 0 < sliced.hits < sliced.trials


class TestSliceMemory:
    """A box-point run holds one set of slice buffers per thread that runs slices: the
    traced peak of a warmed call stays within two slices of int64 words per worker (the
    slice, its scratch of two draw blocks and every temporary), and on the Python-int
    path within that plus one block's words as Python ints."""

    SLICE_BYTES = 8 * kernels._SLICE_WORDS

    @staticmethod
    def _peak(call) -> int:
        call()  # warmed: caches and first-call allocations are not the run's
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_box_pairs(self, workers):
        box = BoxSpec(1009, 10 ** 4)  # 2000 pairs: 16 slices
        peak = self._peak(lambda: box_pair_mean_report(box, SamplerConfig(3, 2000, workers)))
        assert peak <= 2 * self.SLICE_BYTES * workers

    def test_visibility(self):
        box = BoxSpec(101, 10 ** 4)  # 2000 tuples of 3: 3 slices
        peak = self._peak(lambda: visibility_concentration_report(box, 3, 0.05,
                                                                  SamplerConfig(3, 2000)))
        assert peak <= 2 * self.SLICE_BYTES

    def test_right_angles(self):
        """Right angles keep each sample's |cos|, 8 bytes, for their median, and one
        slice's buffers and temporaries: not every slice's |cos| and their concatenation."""
        box, samples = BoxSpec(211, 1), 10 ** 6  # 101 slices of up to 9986 samples
        pole = core.north_pole_point(box)
        peak = self._peak(lambda: right_angle_report(pole, box, 0.125, SamplerConfig(3, samples)))
        assert peak <= 8 * samples + self.SLICE_BYTES

    def test_box_pairs_on_python_ints(self):
        box = BoxSpec(1009, 2 ** 62)  # 300 pairs: 3 slices
        assert kernels.arithmetic_path(box.p, box.dim, 2 * box.N) == "object"
        peak = self._peak(lambda: box_pair_mean_report(box, SamplerConfig(3, 300)))
        # one block of differences lifted at a time, not the slice's 2^18 words: each
        # word of the block two pointers (the scratch has room for two blocks) and an
        # int of up to 2^126, the square of a difference
        as_ints = rng._BLOCK_WORDS * (2 * 8 + sys.getsizeof(2 ** 126))
        assert peak <= 2 * self.SLICE_BYTES + as_ints
