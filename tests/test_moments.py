from fractions import Fraction

import numpy as np
import pytest

import oracles
from cyclobox.core import BoxSpec, CyclotomicInt, FieldMismatchError, GuardError, north_pole_point
from cyclobox.moments import (
    avg_point_to_vertices,
    avg_vertex_pairs,
    fourth_moment_vertex_pairs,
    oracle_cancellation_sums,
    oracle_moments,
    second_moment_point_to_vertices,
    variance_vertex_pairs,
)

F = Fraction


def random_box_points(box, count, seed=0):
    gen = np.random.default_rng(seed + box.p + box.N)
    return [
        CyclotomicInt(box.p, tuple(int(x) for x in gen.integers(-box.N, box.N + 1, box.p - 1)))
        for _ in range(count)
    ]


class TestClosedForms:
    def test_point_average_examples(self):
        box = BoxSpec(3, 1)
        assert avg_point_to_vertices(CyclotomicInt.zero(3), box) == F(5, 36)
        assert avg_point_to_vertices(CyclotomicInt(3, (1, 1)), box) == F(1, 6)
        for p in (3, 7, 31):
            expect = F(1, 4) - F(1, 4 * p) - F(1, 4 * p * p)
            assert avg_point_to_vertices(CyclotomicInt.zero(p), BoxSpec(p, 5)) == expect

    def test_point_second_moment_examples(self):
        box = BoxSpec(3, 1)
        assert second_moment_point_to_vertices(CyclotomicInt.zero(3), box) == F(1, 81)
        assert second_moment_point_to_vertices(CyclotomicInt(3, (1, 1)), box) == F(1, 72)

    def test_pair_examples(self):
        assert avg_vertex_pairs(BoxSpec(3, 1)) == F(5, 18)
        assert avg_vertex_pairs(BoxSpec(5, 1)) == F(19, 50)
        assert fourth_moment_vertex_pairs(BoxSpec(3, 1)) == F(107, 648)
        assert fourth_moment_vertex_pairs(BoxSpec(5, 1)) == F(2021, 10000)
        assert variance_vertex_pairs(BoxSpec(3, 1)) == F(19, 216)
        assert variance_vertex_pairs(BoxSpec(5, 1)) == F(577, 10000)

    def test_pair_values_independent_of_N(self):
        for p in (3, 7, 13):
            for fn in (avg_vertex_pairs, fourth_moment_vertex_pairs, variance_vertex_pairs):
                assert fn(BoxSpec(p, 1)) == fn(BoxSpec(p, 7))

    def test_point_average_offset_depends_only_on_p(self):
        for p in (3, 5, 11):
            offsets = set()
            for N in (1, 2, 5):
                box = BoxSpec(p, N)
                for alpha in random_box_points(box, 5):
                    d0 = F((alpha - CyclotomicInt.zero(p)).norm_sq(), box.diameter_sq())
                    offsets.add(avg_point_to_vertices(alpha, box) - d0)
            assert len(offsets) == 1

    def test_variance_identity_large_p(self):
        for p in (101, 1009, 2003, 9973):
            box = BoxSpec(p, 3)
            a = avg_vertex_pairs(box)
            assert variance_vertex_pairs(box) == fourth_moment_vertex_pairs(box) - a * a
            assert variance_vertex_pairs(box) <= F(1, 4 * (p - 1))

    def test_fourth_at_least_avg_squared(self):
        for p in (3, 5, 17, 101):
            box = BoxSpec(p, 1)
            assert fourth_moment_vertex_pairs(box) >= avg_vertex_pairs(box) ** 2

    def test_second_moment_bounds(self):
        gen = np.random.default_rng(42)
        primes = [p for p in range(3, 102) if all(p % d for d in range(2, p))]
        for _ in range(200):
            p = int(gen.choice(primes))
            n_box = int(gen.integers(1, 11))
            box = BoxSpec(p, n_box)
            alpha = CyclotomicInt(
                p, tuple(int(x) for x in gen.integers(-n_box, n_box + 1, p - 1))
            )
            m = second_moment_point_to_vertices(alpha, box)
            assert 0 <= m <= F(3, p)

    def test_mismatched_p(self):
        with pytest.raises(FieldMismatchError):
            avg_point_to_vertices(CyclotomicInt.zero(3), BoxSpec(5, 1))


class TestOracleAgreement:
    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_small_sweep(self, p, N):
        box = BoxSpec(p, N)
        for r in oracle_moments(box):
            assert r.exact_equal, r
        alphas = [CyclotomicInt.zero(p), north_pole_point(box)] + random_box_points(box, 4)
        for alpha in alphas:
            for r in oracle_moments(box, alpha):
                assert r.exact_equal, r

    def test_medium_primes(self):
        for p, n_values in ((11, (1, 2, 3)), (13, (1, 2))):
            for N in n_values:
                box = BoxSpec(p, N)
                for r in oracle_moments(box):
                    assert r.exact_equal, r
                alphas = [CyclotomicInt.zero(p), north_pole_point(box)]
                alphas += random_box_points(box, 3)
                for alpha in alphas:
                    for r in oracle_moments(box, alpha):
                        assert r.exact_equal, r

    @pytest.mark.parametrize("p,N", [(3, 1), (3, 2), (5, 1)])
    def test_literal_fraction_oracle(self, p, N):
        """Fully independent recomputation: distances from conjugate-sum traces,
        moments as literal deviation sums in Fractions."""
        box = BoxSpec(p, N)
        mean, fourth, var = oracles.exhaustive_pair_moments(p, N)
        assert mean == avg_vertex_pairs(box)
        assert fourth == fourth_moment_vertex_pairs(box)
        assert var == variance_vertex_pairs(box)
        for alpha in (CyclotomicInt.zero(p), north_pole_point(box), *random_box_points(box, 2)):
            a_lit, m_lit = oracles.exhaustive_point_moments(p, N, alpha.coeffs)
            assert a_lit == avg_point_to_vertices(alpha, box)
            assert m_lit == second_moment_point_to_vertices(alpha, box)

    def test_guards(self):
        with pytest.raises(GuardError):
            oracle_moments(BoxSpec(19, 1))
        with pytest.raises(GuardError):
            oracle_moments(BoxSpec(19, 1), CyclotomicInt.zero(19))


class TestCancellationSums:
    def test_examples(self):
        box = BoxSpec(3, 1)
        c = oracle_cancellation_sums(CyclotomicInt(3, (1, 1)), box)
        assert c.linear == (0, 0)
        assert c.quadratic == (8, 8)
        assert c.quartic == (32, 32)
        assert c.all_match

    @pytest.mark.parametrize("p,N", [(3, 1), (3, 2), (5, 1), (7, 2)])
    def test_sweep(self, p, N):
        box = BoxSpec(p, N)
        for alpha in (CyclotomicInt.zero(p), north_pole_point(box), *random_box_points(box, 3)):
            c = oracle_cancellation_sums(alpha, box)
            assert c.all_match, c

    def test_against_dumb_quadruple_loops(self):
        p, N = 3, 1
        for coeffs in ((1, 1), (2, -1), (0, 1)):
            alpha = CyclotomicInt(p, coeffs)
            c = oracle_cancellation_sums(alpha, BoxSpec(p, N))
            dumb = oracles.dumb_cancellation_sums(p, N, coeffs)
            assert c.linear[0] == dumb["linear"]
            assert c.quadratic[0] == dumb["quadratic"]
            assert c.trace_quadratic[0] == dumb["trace_quadratic"]
            assert c.cubic[0] == dumb["cubic"]
            assert c.quartic[0] == dumb["quartic"]


class TestOracleExactAtLargeN:
    @pytest.mark.parametrize("p,N", [(5, 1600), (13, 40)])
    def test_pair_power_sums_do_not_wrap(self, p, N):
        # each d^4 fits in int64 here, but their sum over a block does not
        reports = oracle_moments(BoxSpec(p, N))
        assert [r.kind for r in reports if not r.exact_equal] == []

    def test_cancellation_sums_beyond_int64_row_sums(self):
        # 16 coefficients of 2^60 sum past 2^63
        box = BoxSpec(17, 2 ** 60)
        assert oracle_cancellation_sums(north_pole_point(box), box).all_match
