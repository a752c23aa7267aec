import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cyclobox.core import (
    BoxSpec,
    CyclotomicInt,
    DegenerateAngleError,
    FieldMismatchError,
    GuardError,
    alternating_point,
    cos_central_angle,
    dist_sq,
    east_pole,
    embed_complex,
    embed_rows,
    euclidean_diameter,
    inner_product,
    is_odd_prime,
    normalized_dist_sq,
    north_pole,
    north_pole_point,
)

SMALL_PRIMES = (3, 5, 7, 11)


def C(p, *coeffs):
    return CyclotomicInt(p, coeffs)


def random_elements(p, count, lo=-5, hi=5, seed=0):
    rng = np.random.default_rng(seed + p)
    return [
        CyclotomicInt(p, tuple(int(x) for x in rng.integers(lo, hi + 1, size=p - 1)))
        for _ in range(count)
    ]


coeff_lists = st.integers(min_value=0, max_value=len(SMALL_PRIMES) - 1).flatmap(
    lambda i: st.tuples(
        st.just(SMALL_PRIMES[i]),
        st.lists(
            st.integers(min_value=-20, max_value=20),
            min_size=SMALL_PRIMES[i] - 1,
            max_size=SMALL_PRIMES[i] - 1,
        ),
    )
)

# coefficients past int64; the closed form must stay exact there
wide_coeff_lists = st.sampled_from((3, 5, 7, 13)).flatmap(
    lambda p: st.tuples(
        st.just(p),
        st.lists(st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
                 min_size=p - 1, max_size=p - 1),
    )
)


class TestValidation:
    def test_primality(self):
        assert is_odd_prime(3) and is_odd_prime(101) and is_odd_prime(1009)
        assert not is_odd_prime(2) and not is_odd_prime(9) and not is_odd_prime(1)

    @pytest.mark.parametrize("p", [1, 2, 4, 9, 15])
    def test_rejects_nonprime(self, p):
        with pytest.raises(ValueError):
            CyclotomicInt(p, (0,) * max(p - 1, 1))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            CyclotomicInt(5, (1, 2, 3))

    def test_box_spec(self):
        with pytest.raises(ValueError):
            BoxSpec(3, 0)
        b = BoxSpec(5, 2)
        assert b.num_points() == 5 ** 4
        assert b.num_vertices() == 16


class TestTrace:
    def test_examples(self):
        assert C(3, 1, 0).trace() == -1
        assert C(5, 1, 1, 1, 1).trace() == -4
        assert C(3, 2, -2).trace() == 0

    @settings(max_examples=60, deadline=None)
    @given(coeff_lists)
    def test_matches_conjugate_sum(self, pc):
        p, coeffs = pc
        assert CyclotomicInt(p, tuple(coeffs)).trace() == oracles.trace_by_conjugate_sum(
            p, coeffs
        )


class TestPsi:
    def test_examples(self):
        assert C(3, 1, 0).psi().entries == (-1, 2)
        assert CyclotomicInt.zero(5).psi().entries == (0, 0, 0, 0)
        assert C(3, 1, 1).psi().entries == (1, 1)

    @settings(max_examples=40, deadline=None)
    @given(coeff_lists)
    def test_matches_conjugate_sum(self, pc):
        p, coeffs = pc
        a = CyclotomicInt(p, tuple(coeffs))
        assert a.psi().entries == oracles.psi_by_conjugates(p, coeffs)

    @settings(max_examples=40, deadline=None)
    @given(coeff_lists)
    def test_entry_shift_pattern(self, pc):
        p, coeffs = pc
        a = CyclotomicInt(p, tuple(coeffs))
        t = a.trace()
        entries = a.psi().entries
        for j in range(1, p):
            assert entries[j - 1] - t == p * a.coeffs[p - j - 1]


class TestNorms:
    def test_examples(self):
        assert C(3, 1, 0).norm_sq() == 5
        assert C(3, 1, 1).norm_sq() == 2
        assert CyclotomicInt.zero(3).norm_sq() == 0
        assert C(3, 1, -1).euclid_norm_sq() == 2
        assert C(5, 2, 2, 2, 2).euclid_norm_sq() == 16

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(coeff_lists, wide_coeff_lists))
    def test_norm_equals_psi_square_sum(self, pc):
        p, coeffs = pc
        a = CyclotomicInt(p, tuple(coeffs))
        assert a.norm_sq() == a.psi().norm_sq()

    @settings(max_examples=60, deadline=None)
    @given(coeff_lists)
    def test_euclid_le_norm(self, pc):
        p, coeffs = pc
        a = CyclotomicInt(p, tuple(coeffs))
        assert a.euclid_norm_sq() <= a.norm_sq()

    @settings(max_examples=40, deadline=None)
    @given(coeff_lists, st.integers(min_value=-9, max_value=9))
    def test_homogeneity(self, pc, c):
        p, coeffs = pc
        a = CyclotomicInt(p, tuple(coeffs))
        assert (c * a).norm_sq() == c * c * a.norm_sq()

    def test_positive_definite(self):
        for p in (3, 5):
            for v in oracles.iter_box_coeffs(p, 1):
                a = CyclotomicInt(p, v)
                assert (a.norm_sq() == 0) == a.is_zero()


class TestDistance:
    def test_examples(self):
        assert dist_sq(C(3, 1, 1), C(3, 1, -1)) == 20
        a = C(3, 1, 1)
        assert dist_sq(a, a) == 0
        assert dist_sq(C(3, 1, 1), C(3, -1, -1)) == 8

    def test_symmetry_and_mismatch(self):
        a, b = C(3, 2, -1), C(3, 0, 3)
        assert dist_sq(a, b) == dist_sq(b, a)
        with pytest.raises(FieldMismatchError):
            dist_sq(a, CyclotomicInt.zero(5))

    def test_triangle_inequality_floats(self):
        for p in (5, 11):
            pts = random_elements(p, 30, seed=3)
            for a, b, c in zip(pts, pts[1:], pts[2:]):
                lhs = math.sqrt(dist_sq(a, c))
                rhs = math.sqrt(dist_sq(a, b)) + math.sqrt(dist_sq(b, c))
                assert lhs <= rhs * (1 + 1e-9)

    def test_galois_invariance(self):
        for p in (5, 7):
            pts = random_elements(p, 8, seed=1)
            for a, b in zip(pts, pts[1:]):
                for k in range(1, p):
                    assert dist_sq(a, b) == dist_sq(a.galois(k), b.galois(k))


class TestInnerProduct:
    def test_examples(self):
        assert inner_product(C(3, 1, 1), C(3, 1, -1)) == 0
        a = C(5, 2, -1, 0, 3)
        assert inner_product(a, a) == a.norm_sq()
        assert inner_product(a, CyclotomicInt.zero(5)) == 0

    @settings(max_examples=40, deadline=None)
    @given(coeff_lists)
    def test_bilinear_form(self, pc):
        p, coeffs = pc
        a = CyclotomicInt(p, tuple(coeffs))
        b = CyclotomicInt(p, tuple(reversed(coeffs)))
        dot = sum(x * y for x, y in zip(a.coeffs, b.coeffs))
        assert inner_product(a, b) == p * p * dot - (p + 1) * a.trace() * b.trace()


class TestDiameter:
    @pytest.mark.parametrize(
        "p,N,expect", [(3, 1, 72), (5, 2, 1600), (7, 1, 1176)]
    )
    def test_closed_form(self, p, N, expect):
        assert BoxSpec(p, N).diameter_sq() == expect

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("N", [1, 2])
    def test_exhaustive_vertex_max(self, p, N):
        box = BoxSpec(p, N)
        verts = [CyclotomicInt(p, v) for v in oracles.iter_vertex_coeffs(p, N)]
        best = max(dist_sq(a, b) for a in verts for b in verts)
        assert best == box.diameter_sq()
        a0 = alternating_point(box, 0)
        b0 = alternating_point(box, 1)
        assert b0.coeffs == tuple(-c for c in a0.coeffs)
        assert dist_sq(a0, b0) == box.diameter_sq()

    @pytest.mark.parametrize("p,N", [(3, 1), (5, 2), (13, 7), (101, 1), (1009, 2 ** 40)])
    def test_alternating_points_realize_the_diameter(self, p, N):
        box = BoxSpec(p, N)
        a, b = alternating_point(box, 0), alternating_point(box, 1)
        assert a.trace() == b.trace() == 0
        assert dist_sq(a, b) == box.diameter_sq()

    def test_box_pairs_stay_inside(self):
        box = BoxSpec(3, 2)
        pts = [CyclotomicInt(3, v) for v in oracles.iter_box_coeffs(3, 2)]
        assert max(dist_sq(a, b) for a in pts for b in pts) == box.diameter_sq()


class TestNormalizedDistance:
    def test_examples(self):
        box = BoxSpec(3, 1)
        assert normalized_dist_sq(C(3, 1, -1), C(3, -1, 1), box) == 1
        a = C(3, 1, 1)
        assert normalized_dist_sq(a, a, box) == 0
        assert normalized_dist_sq(C(3, 1, 1), C(3, 1, -1), box) == Fraction(5, 18)

    @pytest.mark.parametrize("p", [3, 5])
    def test_unit_interval_exhaustive(self, p):
        box = BoxSpec(p, 1)
        pts = [CyclotomicInt(p, v) for v in oracles.iter_box_coeffs(p, 1)]
        for a in pts[:: max(1, len(pts) // 40)]:
            for b in pts:
                d = normalized_dist_sq(a, b, box)
                assert 0 <= d <= 1

    def test_unit_interval_exhaustive_p7(self):
        # all 729^2 box pairs at p=7, vectorized on the integer form
        p = 7
        box = BoxSpec(p, 1)
        pts = np.array(list(oracles.iter_box_coeffs(p, 1)), dtype=np.int64)
        top = 0
        for row in pts:
            diff = pts - row[None, :]
            q = np.sum(diff * diff, axis=1)
            s = np.sum(diff, axis=1)
            n = p * p * q - (p + 1) * s * s
            assert n.min() >= 0
            top = max(top, int(n.max()))
        assert top <= box.diameter_sq()

    def test_vertex_norm_range(self):
        for p in (3, 5, 7):
            box = BoxSpec(p, 2)
            lo = (p - 1) * box.N ** 2
            hi = (p - 1) * p * p * box.N ** 2
            for v in oracles.iter_vertex_coeffs(p, box.N):
                n = CyclotomicInt(p, v).norm_sq()
                assert lo <= n <= hi


class TestCosCentralAngle:
    def test_examples(self):
        sign, cos_sq, cos_f = cos_central_angle(C(3, 1, 1), C(3, 1, -1))
        assert (sign, cos_sq) == (0, 0) and cos_f == 0.0
        a = C(3, 2, 1)
        assert cos_central_angle(a, a)[:2] == (1, 1)
        sign, cos_sq, cos_f = cos_central_angle(C(3, 1, 1), C(3, -1, -1))
        assert (sign, cos_sq, cos_f) == (-1, 1, -1.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateAngleError):
            cos_central_angle(CyclotomicInt.zero(3), C(3, 1, 1))


class TestGalois:
    def test_examples(self):
        assert C(5, 1, 0, 0, 0).galois(2).coeffs == (0, 1, 0, 0)
        a = C(5, 3, 1, -2, 0)
        assert a.galois(1).coeffs == a.coeffs
        assert C(3, 1, -1).galois(2).coeffs == (-1, 1)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            C(5, 1, 0, 0, 0).galois(5)

    def test_bijection(self):
        a = C(7, 1, 2, 3, 4, 5, 6)
        for k in range(1, 7):
            assert sorted(a.galois(k).coeffs) == sorted(a.coeffs)

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    def test_keeps_norm_and_refuses_multiples_of_p(self, p):
        a = random_elements(p, 1, lo=-(2 ** 40), hi=2 ** 40)[0]
        for k in range(-2 * p, 2 * p + 1):
            if k % p:
                assert a.galois(k).norm_sq() == a.norm_sq()
            else:
                with pytest.raises(ValueError):
                    a.galois(k)


class TestPoles:
    def test_north_examples(self):
        assert north_pole(3, 1) == (1, -1)
        assert north_pole(5, 1) == (1, 1, -1, -1)
        z = embed_complex(north_pole(3, 1), 3)
        assert abs(z - complex(0, math.sqrt(3))) < 1e-12

    def test_east_examples(self):
        assert east_pole(5, 1) == (1, -1, -1, 1)
        assert abs(embed_complex(east_pole(5, 1), 5) - math.sqrt(5)) < 1e-12
        assert east_pole(3, 1) == (-1, -1)
        assert abs(embed_complex(east_pole(3, 1), 3) - 1.0) < 1e-12

    @pytest.mark.parametrize("q", range(3, 18))
    def test_against_bruteforce(self, q):
        np_signs, np_z = oracles.max_im_vertex(q)
        ours = north_pole(q, 1)
        z = embed_complex(ours, q)
        assert abs(z.imag - np_z.imag) < 1e-9
        if q % 2 == 1:
            assert ours == np_signs
        else:
            assert z.real > 0
            assert ours == np_signs

        ep_signs, ep_z = oracles.max_re_vertex(q)
        ez = embed_complex(east_pole(q, 1), q)
        assert abs(ez.real - ep_z.real) < 1e-9
        assert abs(ez.imag) < 1e-9
        if q % 2 == 1:
            assert east_pole(q, 1) == ep_signs

    def test_runs_match_the_per_coefficient_definitions(self):
        # q in 3..400 covers every residue mod 4, far past the brute force
        for q in range(3, 401):
            for N in (1, 3):
                assert north_pole(q, N) == oracles.north_pole_by_coefficient(q, N)
                assert east_pole(q, N) == oracles.east_pole_by_coefficient(q, N)

    def test_pole_axis_alignment(self):
        for q in range(3, 102, 2):
            assert abs(embed_complex(north_pole(q, 1), q).real) < 1e-9
            assert abs(embed_complex(east_pole(q, 1), q).imag) < 1e-9

    def test_north_pole_point_distance(self):
        box = BoxSpec(11, 3)
        a = north_pole_point(box)
        assert a.trace() == 0
        assert normalized_dist_sq(CyclotomicInt.zero(11), a, box) == Fraction(1, 4)


class TestEmbedding:
    def test_examples(self):
        assert abs(embed_complex(C(3, 1, -1)) - complex(0, math.sqrt(3))) < 1e-12
        assert embed_complex(CyclotomicInt.zero(5)) == 0
        assert abs(embed_complex(C(3, 1, 1)) - (-1)) < 1e-12

    @pytest.mark.parametrize("q", [3, 7, 13, 101])
    def test_rows_match_one_row_and_the_direct_sum(self, q):
        rows = np.random.default_rng(q).integers(-50, 51, size=(20, q - 1)).tolist()
        rows.append([2 ** 70 - j for j in range(1, q)])  # past int64
        edge = int(sys.float_info.max) // (q - 1)  # the largest sum stays under the float limit
        rows.append([(-1) ** j * edge for j in range(1, q)])
        zs = embed_rows(np.array(rows, dtype=object), q)
        assert zs.shape == (len(rows),)
        for row, z in zip(rows, zs):
            # not bit-identical: a matrix product and a one-row product round differently
            tol = 1e-9 * sum(map(abs, row))
            assert abs(z - embed_complex(row, q)) <= tol
            assert abs(z - oracles.embed_by_direct_sum(row, q)) <= tol

    def test_euclidean_diameter(self):
        assert abs(euclidean_diameter(3, 1) - 2 * math.sqrt(3)) < 1e-9
        assert abs(euclidean_diameter(5, 1) - 6.155367) < 1e-6
        for q in (3, 7, 13):
            assert euclidean_diameter(q, 6) == pytest.approx(6 * euclidean_diameter(q, 1))
        with pytest.raises(ValueError):
            euclidean_diameter(4, 1)

    def test_euclidean_diameter_past_the_float_limit(self):
        assert euclidean_diameter(5, 10 ** 300) == pytest.approx(10 ** 300 * euclidean_diameter(5, 1))
        with pytest.raises(GuardError, match="float limit"):
            euclidean_diameter(5, 10 ** 400)
