from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclobox import core, kernels
from cyclobox.concentration import (
    CounterStream,
    IntervalSpec,
    SamplerConfig,
    sample_vertex,
    within_sqrt_interval,
)
from cyclobox.core import BoxSpec, CyclotomicInt, GuardError

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
    assert kernels.power_sums(p, x, y, m) == (sum(want), sum(d * d for d in want))


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
        m = N + max(abs(c) for c in alpha)
        _check(p, x, kernels.coeff_array(alpha), m, x.tolist(), [alpha] * rows)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), PRIMES, SIZES, st.integers(1, 8))
    def test_box_box(self, data, p, N, rows):
        coeff = st.integers(-N, N)
        pts = [data.draw(st.lists(coeff, min_size=p - 1, max_size=p - 1)) for _ in range(2 * rows)]
        x = np.array(pts[:rows], dtype=np.int64)
        y = np.array(pts[rows:], dtype=np.int64)
        _check(p, x, y, 2 * N, pts[:rows], pts[rows:])


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
        got = [tuple(int(c) for c in row) for row in kernels.box_vertices(box)]
        assert got == [v.coeffs for v in box.vertices()]

    def test_one_guard(self):
        box = BoxSpec(19, 1)
        with pytest.raises(GuardError):
            kernels.box_vertices(box)
        with pytest.raises(GuardError):
            next(box.vertices())
        assert len(kernels.box_vertices(BoxSpec(core.VERTEX_ENUM_MAX_P, 1))) == 2 ** 16


class TestEngine:
    def test_tally_matches_the_one_point_path(self):
        box = BoxSpec(11, 3)
        apex = CyclotomicInt(11, (3, -2, 0, 1, 3, -3, 2, 0, -1, 1))
        base = IntervalSpec(Fraction(1, 2), Fraction(1, 10))
        lateral = IntervalSpec(Fraction(1, 2), Fraction(1, 5))
        edges = kernels.all_edges(3, (base,)) + ((0, kernels.APEX, (lateral,)),)
        spec = kernels.EdgeSpec(box, 3, kernels.draw_vertices, edges, apex=apex.coeffs,
                                keep_sums=True)
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
