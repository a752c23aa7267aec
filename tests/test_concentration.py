import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclobox.core import BoxSpec, CyclotomicInt, DegenerateAngleError, GuardError, north_pole_point
from cyclobox.concentration import (
    ConcentrationReport,
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
from cyclobox.moments import avg_point_to_vertices, avg_vertex_pairs, variance_vertex_pairs

F = Fraction


def _strip_workers(r: ConcentrationReport):
    return dataclasses.replace(r, worker_count=0)


class TestIntervalMembership:
    def test_examples(self):
        assert within_sqrt_interval(F(5, 18), IntervalSpec(F(5, 18), F(1, 10)))
        assert not within_sqrt_interval(F(823, 1000), IntervalSpec(F(1, 2), F(1, 10)))
        # zero deviation is inside for any positive eps
        assert within_sqrt_interval(F(1, 2), IntervalSpec(F(1, 2), F(3)))

    def test_validation(self):
        with pytest.raises(ValueError):
            IntervalSpec(F(1, 2), F(0))
        with pytest.raises(ValueError):
            IntervalSpec(F(-1, 2), F(1, 2))
        with pytest.raises(ValueError):
            within_sqrt_interval(F(-1), IntervalSpec(F(1, 2), F(1, 2)))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10 ** 6),
        st.integers(min_value=1, max_value=10 ** 6),
        st.fractions(min_value=0, max_value=4),
        st.fractions(min_value=F(1, 1000), max_value=2),
    )
    def test_matches_float_sqrt(self, num, den, center, eps):
        d = F(num, den)
        spec = IntervalSpec(center, eps)
        exact = within_sqrt_interval(d, spec)
        approx = abs(math.sqrt(d) - math.sqrt(center)) <= float(eps)
        # floats can flip only within rounding distance of the boundary
        gap = abs(abs(math.sqrt(d) - math.sqrt(center)) - float(eps))
        if gap > 1e-9:
            assert exact == approx

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=10 ** 9),
        st.fractions(min_value=0, max_value=2),
        st.fractions(min_value=F(1, 100), max_value=1),
    )
    def test_integer_tester_agrees(self, n, center, eps):
        d2 = 4 * 9 * 10 * 9  # any fixed positive denominator
        spec = IntervalSpec(center, eps)
        lo, hi = spec.members(d2)
        assert (lo <= n <= hi) == within_sqrt_interval(F(n, d2), spec)


class TestSamplers:
    def test_vertex_support(self):
        box = BoxSpec(3, 2)
        stream = CounterStream(seed=5)
        seen = {sample_vertex(box, stream).coeffs for _ in range(64)}
        assert seen <= {(2, 2), (2, -2), (-2, 2), (-2, -2)}
        assert len(seen) == 4

    def test_vertex_deterministic_first_sample(self):
        box = BoxSpec(11, 1)
        a = sample_vertex(box, CounterStream(seed=99))
        b = sample_vertex(box, CounterStream(seed=99))
        assert a.coeffs == b.coeffs

    def test_vertex_trace_mean(self):
        from cyclobox import rng

        box = BoxSpec(11, 2)
        n = 100_000
        # the one-at-a-time sampler and the batch path share streams
        stream = CounterStream(seed=17)
        singles = [sample_vertex(box, stream).coeffs for _ in range(20)]
        batch = rng.vertex_signs(17, 0, n, box.dim) * box.N
        assert [tuple(int(v) for v in row) for row in batch[:20]] == singles
        traces = -batch.sum(axis=1)
        sigma = box.N * math.sqrt(box.p - 1)
        assert abs(float(traces.mean())) <= 4 * sigma / math.sqrt(n)

    def test_box_point_range_and_chisquare(self):
        from cyclobox import rng

        box = BoxSpec(3, 1)
        n = 100_000
        stream = CounterStream(seed=3)
        singles = [sample_box_point(box, stream).coeffs for _ in range(20)]
        batch = rng.box_offsets(3, 0, n, box.dim, box.N)
        assert [tuple(int(v) for v in row) for row in batch[:20]] == singles
        assert batch.min() >= -1 and batch.max() <= 1
        cells = (batch[:, 0] + 1) * 3 + (batch[:, 1] + 1)
        counts = np.bincount(cells, minlength=9)
        expected = n / 9
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < 26.125  # chi-square critical value, 8 dof, alpha = 0.001

    def test_box_pair_mean_matches_exhaustive(self):
        from cyclobox.visibility import box_pair_mean_report, oracle_mean_box_pair_dist_sq

        box = BoxSpec(3, 1)
        exact = oracle_mean_box_pair_dist_sq(box)
        assert exact == F(5, 27)
        mc = box_pair_mean_report(box, SamplerConfig(21, 20_000))
        assert abs(float(mc) - float(exact)) < 0.006  # ~3 standard errors


class TestTheorem4:
    def test_exhaustive_p3_counts(self):
        box = BoxSpec(3, 1)
        zero = CyclotomicInt.zero(3)
        cfg = SamplerConfig(1, 10)
        # distances from O: sqrt(1/36) and sqrt(9/36) twice each; A = 5/36
        for eps, expect in ((F(1, 10), 0), (F(3, 20), 2), (F(1, 2), 4)):
            r = theorem4_report(zero, box, eps, cfg, exhaustive=True)
            assert (r.hits, r.trials) == (expect, 4)
            assert r.exhaustive

    def test_exhaustive_guard(self):
        # 100 distinct values make 2^100 orbits, past one batch
        with pytest.raises(GuardError):
            theorem4_report(
                CyclotomicInt(101, tuple(range(100))), BoxSpec(101, 100), F(1, 2),
                SamplerConfig(1, 10), exhaustive=True,
            )

    @pytest.mark.parametrize("N", [1, 2 ** 62])
    def test_exhaustive_origin_at_p19_is_a_binomial_count(self, N):
        # a vertex with k coordinates at +N is at d^2 = N^2 (p^2 n - (p+1) (2k - n)^2)
        p, n = 19, 18
        box = BoxSpec(p, N)
        zero = CyclotomicInt.zero(p)
        for eps in (F(1, 100), F(1, 20), F(1, 5)):
            spec = IntervalSpec(avg_point_to_vertices(zero, box), eps)
            want = sum(math.comb(n, k) for k in range(n + 1) if within_sqrt_interval(
                F(N * N * (p * p * n - (p + 1) * (2 * k - n) ** 2), box.diameter_sq()), spec))
            r = theorem4_report(zero, box, eps, SamplerConfig(1, 10), exhaustive=True)
            assert (r.hits, r.trials) == (want, 2 ** n)
            assert 0 < want < 2 ** n or eps == F(1, 100)

    def test_sampled_north_pole_at_p101_tracks_exhaustive(self):
        box = BoxSpec(101, 1)
        pole = north_pole_point(box)
        eps = F(1, 40)
        exact = theorem4_report(pole, box, eps, SamplerConfig(1, 1), exhaustive=True)
        assert exact.trials == 2 ** 100
        p_true = exact.empirical_proportion
        n = 10_000
        sampled = theorem4_report(pole, box, eps, SamplerConfig(29, n))
        assert abs(sampled.empirical_proportion - p_true) <= 4 * math.sqrt(p_true * (1 - p_true) / n)

    def test_vacuous_bound_flagged(self):
        box = BoxSpec(7, 1)
        r = theorem4_report(CyclotomicInt.zero(7), box, F(1, 2), SamplerConfig(5, 100))
        assert r.bound < 0 and r.vacuous and r.passed

    def test_sampled_tracks_exhaustive(self):
        box = BoxSpec(13, 1)
        zero = CyclotomicInt.zero(13)
        eps = F(1, 20)
        exact = theorem4_report(zero, box, eps, SamplerConfig(1, 10), exhaustive=True)
        p_true = exact.hits / exact.trials
        n = 10_000
        sampled = theorem4_report(zero, box, eps, SamplerConfig(77, n, 2))
        se = math.sqrt(p_true * (1 - p_true) / n)
        assert abs(sampled.empirical_proportion - p_true) <= 4 * se


class TestTheorem5:
    def test_exhaustive_p3_distance_multiset(self):
        box = BoxSpec(3, 1)
        cfg = SamplerConfig(1, 10)
        # ordered-pair d^2 multiset: {0 x4, 5/18 x8, 1/9 x2, 1 x2}
        r_tiny = vertex_pair_report(box, F(1, 100), cfg, exhaustive=True)
        assert (r_tiny.hits, r_tiny.trials) == (8, 16)
        r_mid = vertex_pair_report(box, F(1, 5), cfg, exhaustive=True)
        assert r_mid.hits == 10  # adds the two pairs at 1/9
        assert r_mid.extra["hits_half"] == 8
        assert r_mid.extra["mean_dist_sq"] == "5/18"

    def test_pair_guard(self):
        # (n + 1)(n + 2) / 2 pair orbits of 2 x 16 words at p = 1009, past one batch
        with pytest.raises(GuardError):
            vertex_pair_report(BoxSpec(1009, 1), F(1, 2), SamplerConfig(1, 2), exhaustive=True)

    def test_exhaustive_at_p101(self):
        box = BoxSpec(101, 2 ** 40)
        r = vertex_pair_report(box, F(1, 40), SamplerConfig(1, 1), exhaustive=True)
        assert r.trials == 4 ** 100
        assert Fraction(r.extra["mean_dist_sq"]) == avg_vertex_pairs(box)

    def test_sampled_at_p101_tracks_exhaustive(self):
        box = BoxSpec(101, 1)
        eps = F(1, 40)
        exact = vertex_pair_report(box, eps, SamplerConfig(1, 1), exhaustive=True)
        n = 10_000
        sampled = vertex_pair_report(box, eps, SamplerConfig(37, n))
        for got, want in ((sampled.empirical_proportion, exact.empirical_proportion),
                          (sampled.extra["proportion_half"], exact.extra["proportion_half"])):
            assert abs(got - want) <= 4 * math.sqrt(want * (1 - want) / n)

    @pytest.mark.parametrize("eps", [0, F(-1, 10)])
    def test_eps_at_or_below_zero_is_refused(self, eps):
        with pytest.raises(ValueError, match="eps must be positive"):
            vertex_pair_report(BoxSpec(5, 1), eps, SamplerConfig(1, 2))

    def test_worker_count_invariance(self):
        box = BoxSpec(101, 2)
        eps = F(1, 4)
        reports = [
            vertex_pair_report(box, eps, SamplerConfig(31, 4000, w)) for w in (1, 3, 8)
        ]
        assert _strip_workers(reports[0]) == _strip_workers(reports[1])
        assert _strip_workers(reports[1]) == _strip_workers(reports[2])

    def test_repeat_run_bit_identical(self):
        box = BoxSpec(101, 1)
        cfg = SamplerConfig(9, 3000, 2)
        assert vertex_pair_report(box, F(1, 3), cfg) == vertex_pair_report(box, F(1, 3), cfg)

    def test_mean_estimator_unbiased(self):
        box = BoxSpec(101, 1)
        n = 20_000
        r = vertex_pair_report(box, F(1, 3), SamplerConfig(13, n, 2))
        mean = Fraction(r.extra["mean_dist_sq"])
        se = math.sqrt(float(variance_vertex_pairs(box)) / n)
        assert abs(float(mean) - float(avg_vertex_pairs(box))) <= 4 * se

    def test_center_approaches_half(self):
        for p in (101, 1009):
            a = avg_vertex_pairs(BoxSpec(p, 1))
            assert abs(a - F(1, 2)) <= F(1, p) + F(1, p * p)


class TestIsosceles:
    def test_degenerate_eps_gives_full_proportion(self):
        box = BoxSpec(5, 1)
        r = isosceles_report(CyclotomicInt.zero(5), box, F(1), SamplerConfig(3, 2000))
        assert r.empirical_proportion == 1.0

    def test_bound_doubles_theorem4_deficit(self):
        box = BoxSpec(1009, 1)
        eps = F(501, 1000)
        cfg = SamplerConfig(1, 10)
        t4 = theorem4_report(CyclotomicInt.zero(1009), box, eps, cfg)
        iso = isosceles_report(CyclotomicInt.zero(1009), box, eps, cfg)
        assert (1 - iso.bound) == pytest.approx(2 * (1 - t4.bound), rel=1e-12)


class TestPolytopes:
    def test_validation(self):
        box = BoxSpec(5, 1)
        cfg = SamplerConfig(1, 10)
        with pytest.raises(ValueError):
            polytope_report(box, 1, 2.0, cfg)
        with pytest.raises(ValueError):
            polytope_report(box, 3, 1.0, cfg)

    def test_k2_reduces_to_vertex_pairs_at_half(self):
        box = BoxSpec(31, 1)
        cfg = SamplerConfig(8, 3000, 2)
        k2 = polytope_report(box, 2, 2.0, cfg)
        pairs = vertex_pair_report(box, F(1, 2), cfg)
        assert k2.hits == pairs.extra["hits_half"]

    def test_monotone_in_p(self):
        cfg = SamplerConfig(4, 3000, 2)
        lo = polytope_report(BoxSpec(211, 1), 4, 211 ** 0.1, cfg)
        hi = polytope_report(BoxSpec(2003, 1), 4, 2003 ** 0.1, cfg)
        se = math.sqrt(
            lo.empirical_proportion * (1 - lo.empirical_proportion) / lo.trials
            + hi.empirical_proportion * (1 - hi.empirical_proportion) / hi.trials
        )
        assert hi.empirical_proportion >= lo.empirical_proportion - 3 * se


class TestRightAngles:
    def test_degenerate_alpha(self):
        with pytest.raises(DegenerateAngleError):
            right_angle_report(
                CyclotomicInt.zero(5), BoxSpec(5, 1), 0.1, SamplerConfig(1, 10)
            )

    def test_north_pole_run(self):
        box = BoxSpec(211, 1)
        r = right_angle_report(north_pole_point(box), box, 0.1, SamplerConfig(6, 4000, 2))
        assert r.extra["origin_dist_sq"] == "1/4"
        assert 0 < r.extra["median_abs_cos"] < 0.2
        assert r.empirical_proportion > 0.8

    def test_median_shrinks_with_p(self):
        cfg = SamplerConfig(6, 4000, 2)
        lo = right_angle_report(north_pole_point(BoxSpec(211, 1)), BoxSpec(211, 1), 0.1, cfg)
        hi = right_angle_report(north_pole_point(BoxSpec(2003, 1)), BoxSpec(2003, 1), 0.1, cfg)
        assert hi.extra["median_abs_cos"] < lo.extra["median_abs_cos"]

    @pytest.mark.parametrize("N", [1, 2 ** 62], ids=["N1", "N2^62"])
    @pytest.mark.parametrize("kind", ["pole", "unit", "custom"])
    @pytest.mark.parametrize("p", [5, 7, 211])
    def test_against_the_one_point_path(self, p, kind, N):
        """Hits and the median |cos| equal those of `cos_central_angle` over the same
        vertices, for a vertex, a unit and a non-vertex alpha, in int64 and past it."""
        from cyclobox.core import cos_central_angle

        box = BoxSpec(p, N)
        rnd = random.Random(p)
        alpha = {"pole": north_pole_point(box),
                 "unit": CyclotomicInt(p, (1,) + (0,) * (p - 2)),
                 "custom": CyclotomicInt(p, tuple(rnd.randint(-N, N) for _ in range(p - 1)))}[kind]
        assert (kind == "pole") == all(abs(c) == N for c in alpha.coeffs)
        eps_cos, samples = 0.07 if p == 211 else 0.3, 200  # some samples hit, some miss
        r = right_angle_report(alpha, box, eps_cos, SamplerConfig(8, samples))
        stream = CounterStream(8)
        cos = [cos_central_angle(alpha, sample_vertex(box, stream)) for _ in range(samples)]
        assert 0 < r.hits < samples
        assert r.hits == sum(cos_sq <= F(eps_cos) ** 2 for _, cos_sq, _ in cos)
        want = float(np.median([abs(c) for _, _, c in cos]))
        assert r.extra["median_abs_cos"] == pytest.approx(want, rel=1e-12)


class TestPyramids:
    def test_validation(self):
        box = BoxSpec(5, 1)
        cfg = SamplerConfig(1, 10)
        with pytest.raises(ValueError):
            pyramid_report(CyclotomicInt.zero(5), box, 1, F(1, 10), cfg)
        with pytest.raises(ValueError):
            pyramid_report(CyclotomicInt(5, (3, 0, 0, 0)), box, 3, F(1, 10), cfg)

    def test_origin_apex_annotations(self):
        box = BoxSpec(101, 1)
        r = pyramid_report(CyclotomicInt.zero(101), box, 3, F(1, 10), SamplerConfig(2, 500))
        assert r.extra["apex_near_origin"] is True
        assert r.extra["pythagorean_exact"] is True
        assert r.center_sq == "1/4"

    def test_far_apex_uses_its_average(self):
        box = BoxSpec(101, 1)
        apex = north_pole_point(box)
        r = pyramid_report(apex, box, 3, F(1, 10), SamplerConfig(2, 500))
        assert r.extra["apex_near_origin"] is False
        num, den = r.center_sq.split("/")
        from cyclobox.moments import avg_point_to_vertices

        assert F(int(num), int(den)) == avg_point_to_vertices(apex, box)


class TestWideBoxes:
    """Coefficients at and beyond the int64 range follow the one-point path."""

    def test_right_angle_unit_alpha_at_large_N(self):
        from cyclobox.core import cos_central_angle

        box = BoxSpec(101, 10 ** 7)
        alpha = CyclotomicInt(101, (1,) + (0,) * 99)
        assert right_angle_report(alpha, box, 0.1, SamplerConfig(4, 1000)).trials == 1000
        prefix = right_angle_report(alpha, box, 0.1, SamplerConfig(4, 64))
        stream = CounterStream(4)
        bound = F(0.1) ** 2
        want = sum(cos_central_angle(alpha, sample_vertex(box, stream))[1] <= bound
                   for _ in range(64))
        assert 0 < want < 64
        assert prefix.hits == want

    def test_vertex_pair_differences_past_int64(self):
        from cyclobox.core import dist_sq

        box = BoxSpec(3, 2 ** 62)  # 2N = 2^63 does not fit int64
        r = vertex_pair_report(box, F(1, 10), SamplerConfig(1, 64))
        stream = CounterStream(1)
        total = sum(dist_sq(sample_vertex(box, stream), sample_vertex(box, stream))
                    for _ in range(64))
        mean = F(total, 64 * box.diameter_sq())
        assert r.extra["mean_dist_sq"] == f"{mean.numerator}/{mean.denominator}"

    @pytest.mark.parametrize("N", [2 ** 62, 2 ** 63, 3 ** 50])
    def test_vertex_reports_scale_free_in_N(self, N):
        # normalized vertex distances and angles do not depend on N
        def reports(box):
            pole = north_pole_point(box)
            origin = CyclotomicInt.zero(box.p)
            cfg = SamplerConfig(6, 300, 2)
            return [
                vertex_pair_report(box, F(1, 10), cfg),
                theorem4_report(pole, box, F(1, 10), cfg),
                isosceles_report(pole, box, F(1, 5), cfg),
                polytope_report(box, 3, 4.0, cfg),
                right_angle_report(pole, box, 0.2, cfg),
                pyramid_report(origin, box, 3, F(1, 4), cfg),
            ]

        cos = "median_abs_cos"  # a float, which rounds huge coefficients
        for big, small in zip(reports(BoxSpec(7, N)), reports(BoxSpec(7, 1))):
            assert big.extra.get(cos, 0.0) == pytest.approx(small.extra.get(cos, 0.0), rel=1e-12)
            assert (dataclasses.replace(big, N=1, extra={**big.extra, cos: None})
                    == dataclasses.replace(small, extra={**small.extra, cos: None}))

    @pytest.mark.parametrize("p,samples,eps,exhaustive", [
        (101, 2000, F(1, 100), False),
        (1009, 2000, F(1, 100), False),
        (7, 1, F(1, 10), True),  # at 1/100 no vertex pair of p = 7 hits
    ])
    def test_vertex_hits_identical_at_every_N(self, p, samples, eps, exhaustive):
        # N = 1 runs the int64 kernels, the larger sizes pass int64 into Python ints
        def counts(N):
            box = BoxSpec(p, N)
            pole = north_pole_point(box)
            cfg = SamplerConfig(7, samples)
            t5 = vertex_pair_report(box, eps, cfg, exhaustive=exhaustive)
            out = [t5.hits, t5.extra["hits_half"], t5.extra["mean_dist_sq"],
                   theorem4_report(pole, box, eps, cfg, exhaustive=exhaustive).hits]
            if not exhaustive:
                out.append(isosceles_report(pole, box, F(1, 50), cfg).hits)
            return out

        want = counts(1)
        assert all(want)
        assert [counts(N) for N in (2 ** 31, 2 ** 40, 10 ** 40)] == [want] * 3
