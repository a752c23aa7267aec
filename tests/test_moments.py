import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from cyclobox import kernels
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

    def test_guards(self, monkeypatch):
        """States past one batch are refused before any state is built: the pair states
        at p = 521, the north pole's at p = 809, and the 2^22 states of an alpha with 22
        distinct values at p = 23."""
        def no_states(*args):
            raise AssertionError("a state was built")

        monkeypatch.setattr(kernels, "comb", no_states)
        monkeypatch.setattr(kernels, "_combine", no_states)
        with pytest.raises(GuardError):
            oracle_moments(BoxSpec(521, 1))
        pole = BoxSpec(809, 1)
        distinct = CyclotomicInt(23, tuple(range(-11, 11)))
        for alpha, box in ((north_pole_point(pole), pole), (distinct, BoxSpec(23, 11))):
            with pytest.raises(GuardError):
                oracle_moments(box, alpha)
            with pytest.raises(GuardError):
                oracle_cancellation_sums(alpha, box)


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

    @pytest.mark.parametrize("N", [1, 2 ** 62])
    @pytest.mark.parametrize("p", [5, 7])
    @pytest.mark.parametrize("kind", ["zero", "north-pole", "past-int64", "per-bit-masks"])
    def test_each_sum_against_a_per_vertex_loop(self, p, N, kind):
        box = BoxSpec(p, N)
        coeffs = {
            "zero": (0,) * (p - 1),  # no masks: <a, s> is one scalar for every row
            "north-pole": north_pole_point(box).coeffs,
            "past-int64": (2 ** 64 + 1, -(2 ** 63) - 1) + (0,) * (p - 3),
            "per-bit-masks": tuple(range(1, p)),  # fewer masks by bit than by value
        }[kind]
        c = oracle_cancellation_sums(CyclotomicInt(p, coeffs), box)
        want = dict.fromkeys(("linear", "quadratic", "trace_quadratic", "cubic", "quartic"), 0)
        for x in box.vertices():
            dot, sx = sum(a * v for a, v in zip(coeffs, x.coeffs)), sum(x.coeffs)
            want["linear"] += dot
            want["quadratic"] += dot * dot
            want["trace_quadratic"] += sum(coeffs) ** 2 * sx * sx
            want["cubic"] += sx ** 3
            want["quartic"] += sx ** 4
        assert {k: getattr(c, k)[0] for k in want} == want
        assert c.all_match


class TestOracleReach:
    def test_pair_moments_at_p17(self):
        # the 2^32-pair sweep this replaces took about 100 s
        start = time.perf_counter()
        reports = oracle_moments(BoxSpec(17, 2))
        elapsed = time.perf_counter() - start
        assert [r.kind for r in reports if not r.exact_equal] == []
        assert len(reports) == 3 and elapsed < 1.0

    @pytest.mark.parametrize("N", [1, 2 ** 31, 2 ** 62], ids=["N1", "N2^31", "N2^62"])
    @pytest.mark.parametrize("p", [19, 23, 101])
    def test_past_the_vertex_enumeration_guard(self, p, N):
        """Exact-equal past p = 17, where no vertex list is formed: the origin, the
        north pole, a seeded in-box point of three values and an alpha past int64."""
        box = BoxSpec(p, N)
        gen = np.random.default_rng(p + N)
        pool = [int(v) for v in gen.integers(-N, N, 3, endpoint=True)]
        alphas = [CyclotomicInt.zero(p), north_pole_point(box),
                  CyclotomicInt(p, tuple(int(c) for c in gen.choice(pool, p - 1))),
                  CyclotomicInt(p, tuple([2 ** 64 + 3, -(2 ** 70), 0] * p)[:p - 1])]
        assert [r.kind for r in oracle_moments(box) if not r.exact_equal] == []
        for alpha in alphas:
            assert [r.kind for r in oracle_moments(box, alpha) if not r.exact_equal] == []
            assert oracle_cancellation_sums(alpha, box).all_match


class TestOracleExactAtLargeN:
    @pytest.mark.parametrize("p,N", [(5, 1600), (13, 40)])
    def test_pair_power_sums_do_not_wrap(self, p, N):
        # each d^4 fits in int64 here, but their sum over a block does not
        reports = oracle_moments(BoxSpec(p, N))
        assert [r.kind for r in reports if not r.exact_equal] == []

    @pytest.mark.parametrize("p,N,coeffs", [
        # each d^2 to the pole fits in int64 at the first two, but its square does not
        pytest.param(5, 10 ** 4, None, id="5-10000"),
        pytest.param(13, 1000, None, id="13-1000"),
        pytest.param(17, 2 ** 62, None, id="17-4611686018427387904"),
        # an alpha past int64, as `verify --alpha` takes it
        pytest.param(17, 2, (2 ** 64 + 1, -(2 ** 63) - 1) + (0,) * 13 + (7,),
                     id="17-2-alpha_past_int64"),
    ])
    def test_point_power_sums_do_not_wrap(self, p, N, coeffs):
        box = BoxSpec(p, N)
        alpha = north_pole_point(box) if coeffs is None else CyclotomicInt(p, coeffs)
        reports = oracle_moments(box, alpha)
        assert [r.kind for r in reports if not r.exact_equal] == []

    def test_cancellation_sums_beyond_int64_row_sums(self):
        # 16 coefficients of 2^60 sum past 2^63
        box = BoxSpec(17, 2 ** 60)
        assert oracle_cancellation_sums(north_pole_point(box), box).all_match
