import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cyclobox.core import BoxSpec, CyclotomicInt, FieldMismatchError, galois_apply
from cyclobox.concentration import CounterStream, SamplerConfig
from cyclobox.visibility import (
    box_pair_mean_report,
    is_visible,
    mean_box_pair_dist_sq,
    oracle_mean_box_pair_dist_sq,
    sample_self_visible_polytope,
    visibility_concentration_report,
)

F = Fraction


def C(p, *coeffs):
    return CyclotomicInt(p, coeffs)


pair_strategy = st.tuples(
    st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
).filter(lambda ab: ab[0] != ab[1])


class TestPredicate:
    def test_examples(self):
        assert not is_visible(C(3, 0, 0), C(3, 2, 2))
        assert is_visible(C(3, 0, 0), C(3, 1, 2))
        assert not is_visible(C(5, 1, 1, 1, 1), C(5, -1, -1, -1, -1))

    def test_errors(self):
        with pytest.raises(ValueError):
            is_visible(C(3, 1, 1), C(3, 1, 1))
        with pytest.raises(FieldMismatchError):
            is_visible(C(3, 1, 1), C(5, 1, 1, 1, 1))

    @settings(max_examples=100, deadline=None)
    @given(pair_strategy)
    def test_symmetry(self, ab):
        a, b = (CyclotomicInt(5, tuple(v)) for v in ab)
        assert is_visible(a, b) == is_visible(b, a)

    @settings(max_examples=100, deadline=None)
    @given(pair_strategy, st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4))
    def test_translation_invariance(self, ab, shift):
        a, b = (CyclotomicInt(5, tuple(v)) for v in ab)
        t = CyclotomicInt(5, tuple(shift))
        assert is_visible(a, b) == is_visible(a + t, b + t)

    @settings(max_examples=100, deadline=None)
    @given(pair_strategy, st.integers(min_value=1, max_value=4))
    def test_galois_invariance(self, ab, k):
        a, b = (CyclotomicInt(5, tuple(v)) for v in ab)
        assert is_visible(a, b) == is_visible(galois_apply(a, k), galois_apply(b, k))


class TestSegmentOracle:
    @pytest.mark.parametrize("N", [1, 2])
    def test_gcd_matches_geometry_p3(self, N):
        pts = list(oracles.iter_box_coeffs(3, N))
        matrix = oracles.segment_visibility_matrix(pts)
        for i, a in enumerate(pts):
            for j in range(i + 1, len(pts)):
                got = is_visible(C(3, *a), C(3, *pts[j]))
                assert got == matrix[i, j], (a, pts[j])


class TestClosedFormMean:
    def test_pinned_value(self):
        assert mean_box_pair_dist_sq(BoxSpec(3, 1)) == F(5, 27)

    @pytest.mark.parametrize("p,N", [(3, 1), (3, 2), (5, 1)])
    def test_matches_enumeration(self, p, N):
        box = BoxSpec(p, N)
        assert mean_box_pair_dist_sq(box) == oracle_mean_box_pair_dist_sq(box)

    def test_limit_is_one_sixth(self):
        val = mean_box_pair_dist_sq(BoxSpec(1009, 10 ** 4))
        assert abs(float(val) - 1 / 6) < 1 / 6 * 0.01

    def test_monte_carlo_agrees(self):
        box = BoxSpec(11, 5)
        mc = box_pair_mean_report(box, SamplerConfig(77, 20_000, 2))
        assert abs(float(mc) - float(mean_box_pair_dist_sq(box))) < 0.01


class TestSampler:
    def test_postcondition_replay(self):
        box = BoxSpec(5, 3)
        stream = CounterStream(seed=4)
        for _ in range(20):
            tup = sample_self_visible_polytope(box, 3, stream)
            for i in range(3):
                for j in range(i + 1, 3):
                    assert is_visible(tup[i], tup[j])

    def test_acceptance_rate_matches_exhaustive(self):
        # K=2 acceptance probability = visible ordered pairs / all ordered pairs
        p, N = 3, 1
        pts = list(oracles.iter_box_coeffs(p, N))
        matrix = oracles.segment_visibility_matrix(pts)
        n = len(pts)
        p_true = matrix.sum() / (n * n)
        box = BoxSpec(p, N)
        cfg = SamplerConfig(15, 4000)
        report = visibility_concentration_report(box, 2, 0.3, cfg)
        se = math.sqrt(p_true * (1 - p_true) / (cfg.sample_count / p_true))
        assert abs(report.visible_fraction - p_true) <= 4 * se

    def test_determinism_and_worker_invariance(self):
        box = BoxSpec(11, 20)
        a = visibility_concentration_report(box, 3, 0.1, SamplerConfig(5, 1500, 1))
        b = visibility_concentration_report(box, 3, 0.1, SamplerConfig(5, 1500, 4))
        assert a.proportion_near_center == b.proportion_near_center
        assert a.mean_dist_sq == b.mean_dist_sq
        assert a.visible_fraction == b.visible_fraction

    def test_report_fields(self):
        box = BoxSpec(11, 20)
        r = visibility_concentration_report(box, 3, 0.2, SamplerConfig(5, 800))
        assert 0 <= r.proportion_near_center <= 1
        assert 0 < r.visible_fraction <= 1
        assert r.center == pytest.approx(1 / math.sqrt(6))
        assert r.np_ratio == pytest.approx(20 / 11)
        assert r.np_ratio_warning  # 20/11 < 10
        assert r.target == pytest.approx(0.8)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            sample_self_visible_polytope(BoxSpec(3, 1), 1, CounterStream(0))

    def test_high_dimension_rejection_rate_is_negligible(self):
        # with 100 i.i.d. coefficient differences the gcd is 1 essentially always
        r = visibility_concentration_report(
            BoxSpec(101, 1000), 4, 0.2, SamplerConfig(8, 300)
        )
        assert r.visible_fraction == 1.0


class TestWideBoxes:
    N = 2 ** 63 - 1  # coefficient differences reach 2^64 - 2

    def test_self_visible_tuples_are_visible(self):
        box = BoxSpec(5, self.N)
        for t in range(64):
            pts = sample_self_visible_polytope(box, 3, CounterStream(7, t))
            assert all(is_visible(pts[j], pts[k]) for j in range(3) for k in range(j + 1, 3))

    def test_means_follow_the_one_point_path(self):
        from cyclobox.concentration import sample_box_point
        from cyclobox.core import dist_sq

        box = BoxSpec(5, self.N)
        r = visibility_concentration_report(box, 3, 0.1, SamplerConfig(7, 32))
        total = 0
        for t in range(32):
            pts = sample_self_visible_polytope(box, 3, CounterStream(7, t))
            total += sum(dist_sq(pts[j], pts[k]) for j in range(3) for k in range(j + 1, 3))
        mean = Fraction(total, 32 * 3 * box.diameter_sq())
        assert r.mean_dist_sq == f"{mean.numerator}/{mean.denominator}"

        stream = CounterStream(7)
        total = sum(dist_sq(sample_box_point(box, stream), sample_box_point(box, stream))
                    for _ in range(32))
        got = box_pair_mean_report(box, SamplerConfig(7, 32))
        assert got == Fraction(total, 32 * box.diameter_sq())
