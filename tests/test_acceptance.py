"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned in this file.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from cyclobox.core import (
    BoxSpec,
    CyclotomicInt,
    alternating_point,
    dist_sq,
    east_pole,
    embed_complex,
    north_pole,
    north_pole_point,
)
from cyclobox.concentration import (
    SamplerConfig,
    polytope_report,
    right_angle_report,
    theorem4_report,
    vertex_pair_report,
)
from cyclobox.moments import (
    avg_point_to_vertices,
    avg_vertex_pairs,
    fourth_moment_vertex_pairs,
    oracle_moments,
    second_moment_point_to_vertices,
    variance_vertex_pairs,
)
from cyclobox.render import SceneSpec, render_scene
from cyclobox.reports import to_json
from cyclobox.visibility import (
    box_pair_mean_report,
    is_visible,
    mean_box_pair_dist_sq,
    oracle_mean_box_pair_dist_sq,
    visibility_concentration_report,
)

F = Fraction
PRIMES_TO_101 = [p for p in range(3, 102) if all(p % d for d in range(2, p))]


def _verdict(n, name, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {n:>2}] {name}: {state} {detail}")
    return ok


def _random_box_points(box, count, seed):
    gen = np.random.default_rng(seed)
    return [
        CyclotomicInt(box.p, tuple(int(x) for x in gen.integers(-box.N, box.N + 1, box.p - 1)))
        for _ in range(count)
    ]


def test_c01_exact_moment_certification():
    t0 = time.perf_counter()
    ok = True
    for p in (3, 5, 7):
        for n_box in (1, 2, 3):
            box = BoxSpec(p, n_box)
            ok &= all(r.exact_equal for r in oracle_moments(box))
            alphas = [CyclotomicInt.zero(p), north_pole_point(box)]
            alphas += _random_box_points(box, 10, seed=100 * p + n_box)
            for alpha in alphas:
                ok &= all(r.exact_equal for r in oracle_moments(box, alpha))
    elapsed = time.perf_counter() - t0
    assert _verdict(1, "exact moment certification (zero tolerance)", ok,
                    f"({elapsed:.2f}s)")
    assert elapsed < 10.0


def test_c02_pinned_exact_values():
    checks = []
    for n_box in (1, 2, 3):
        b3, b5 = BoxSpec(3, n_box), BoxSpec(5, n_box)
        pair3 = {r.kind: r for r in oracle_moments(b3)}
        pair5 = {r.kind: r for r in oracle_moments(b5)}
        checks += [
            pair3["avg_vertex_pairs"].oracle_value == F(5, 18),
            pair3["fourth_vertex_pairs"].oracle_value == F(107, 648),
            pair3["variance_vertex_pairs"].oracle_value == F(19, 216),
            pair5["avg_vertex_pairs"].oracle_value == F(19, 50),
            pair5["fourth_vertex_pairs"].oracle_value == F(2021, 10000),
            pair5["variance_vertex_pairs"].oracle_value == F(577, 10000),
            avg_vertex_pairs(b3) == F(5, 18),
            fourth_moment_vertex_pairs(b3) == F(107, 648),
            variance_vertex_pairs(b3) == F(19, 216),
            avg_vertex_pairs(b5) == F(19, 50),
            fourth_moment_vertex_pairs(b5) == F(2021, 10000),
            variance_vertex_pairs(b5) == F(577, 10000),
        ]
    zero3 = CyclotomicInt.zero(3)
    point = {r.kind: r for r in oracle_moments(BoxSpec(3, 1), zero3)}
    checks += [
        point["avg_point_vertices"].oracle_value == F(5, 36),
        point["second_moment_point_vertices"].oracle_value == F(1, 81),
        avg_point_to_vertices(zero3, BoxSpec(3, 1)) == F(5, 36),
        second_moment_point_to_vertices(zero3, BoxSpec(3, 1)) == F(1, 81),
    ]
    assert _verdict(2, "pinned exact moment values (oracle re-derived)", all(checks))


def test_c03_norm_formula_equivalence():
    t0 = time.perf_counter()
    ok = True
    for p in (3, 5, 13, 101):
        gen = np.random.default_rng(p)
        for _ in range(250):
            coeffs = tuple(int(x) for x in gen.integers(-50, 51, p - 1))
            a = CyclotomicInt(p, coeffs)
            ok &= a.norm_sq() == a.psi().norm_sq()
    elapsed = time.perf_counter() - t0
    assert _verdict(3, "norm formula equals trace-embedding square sum (1000 cases)",
                    ok, f"({elapsed:.2f}s)")
    assert elapsed < 1.0


def test_c04_exhaustive_diameter():
    t0 = time.perf_counter()
    ok = True
    for p in (3, 5, 7):
        for n_box in (1, 2):
            box = BoxSpec(p, n_box)
            verts = [CyclotomicInt(p, v) for v in oracles.iter_vertex_coeffs(p, n_box)]
            best = max(dist_sq(a, b) for a in verts for b in verts)
            ok &= best == box.diameter_sq()
            ok &= dist_sq(alternating_point(box, 0), alternating_point(box, 1)) == box.diameter_sq()
    elapsed = time.perf_counter() - t0
    assert _verdict(4, "exhaustive diameter = 4N^2p^2(p-1), alternating pair attains",
                    ok, f"({elapsed:.2f}s)")
    assert elapsed < 5.0


def test_c05_norm_inequality_and_moment_bound():
    t0 = time.perf_counter()
    ok = True
    gen = np.random.default_rng(5)
    for _ in range(10_000):
        p = int(gen.choice([3, 5, 7, 11, 13]))
        a = CyclotomicInt(p, tuple(int(x) for x in gen.integers(-30, 31, p - 1)))
        ok &= a.euclid_norm_sq() <= a.norm_sq()
    for _ in range(1000):
        p = int(gen.choice(PRIMES_TO_101))
        n_box = int(gen.integers(1, 11))
        box = BoxSpec(p, n_box)
        alpha = CyclotomicInt(p, tuple(int(x) for x in gen.integers(-n_box, n_box + 1, p - 1)))
        m = second_moment_point_to_vertices(alpha, box)
        ok &= 0 <= m <= F(3, p)
    elapsed = time.perf_counter() - t0
    assert _verdict(5, "norm inequality (1e4) and exact moment bound <= 3/p (1e3)",
                    ok, f"({elapsed:.2f}s)")
    assert elapsed < 5.0


def test_c06_theorem5_desk_scale():
    t0 = time.perf_counter()
    box = BoxSpec(1009, 1)
    r = vertex_pair_report(box, F(501, 1000), SamplerConfig(20260101, 10 ** 5, 8))
    elapsed = time.perf_counter() - t0
    ok = r.empirical_proportion >= r.bound and abs(r.bound - 0.9921) < 1e-3
    assert _verdict(
        6, "vertex pairs p=1009: proportion >= 1 - 2/p^0.8", ok,
        f"(proportion={r.empirical_proportion:.5f} bound={r.bound:.5f} {elapsed:.1f}s)",
    )
    assert elapsed < 60.0


def test_c07_theorem4_desk_scale():
    t0 = time.perf_counter()
    box = BoxSpec(1009, 1)
    eps = F(501, 1000)
    cfg = SamplerConfig(20260102, 10 ** 5, 8)
    ok = True
    details = []
    for alpha in (CyclotomicInt.zero(1009), north_pole_point(box)):
        r = theorem4_report(alpha, box, eps, cfg)
        ok &= r.empirical_proportion >= r.bound and abs(r.bound - 0.9127) < 1.2e-3
        details.append(f"{r.alpha}:{r.empirical_proportion:.5f}>= {r.bound:.5f}")
    elapsed = time.perf_counter() - t0
    assert _verdict(7, "point-to-vertex p=1009: proportion >= 1 - 22/p^0.8", ok,
                    f"({'; '.join(details)} {elapsed:.1f}s)")
    assert elapsed < 60.0


def test_c08_polytope_super_regularity():
    t0 = time.perf_counter()
    r = polytope_report(BoxSpec(1009, 1), 4, 1009 ** 0.1, SamplerConfig(20260103, 10 ** 4, 8))
    ok = r.empirical_proportion >= r.bound and abs(r.bound - 0.9526) < 1e-3
    lo = polytope_report(BoxSpec(211, 1), 4, 211 ** 0.1, SamplerConfig(20260104, 10 ** 4, 8))
    hi = polytope_report(BoxSpec(2003, 1), 4, 2003 ** 0.1, SamplerConfig(20260104, 10 ** 4, 8))
    se = math.sqrt(
        lo.empirical_proportion * (1 - lo.empirical_proportion) / lo.trials
        + hi.empirical_proportion * (1 - hi.empirical_proportion) / hi.trials
    )
    monotone = hi.empirical_proportion >= lo.empirical_proportion - 3 * se
    elapsed = time.perf_counter() - t0
    ok &= monotone
    assert _verdict(
        8, "K=4 polytopes p=1009 >= union bound; monotone p=211 -> p=2003", ok,
        f"(proportion={r.empirical_proportion:.5f} bound={r.bound:.5f} "
        f"p211={lo.empirical_proportion:.5f} p2003={hi.empirical_proportion:.5f} {elapsed:.1f}s)",
    )
    assert elapsed < 120.0


def test_c09_right_angles():
    t0 = time.perf_counter()
    box = BoxSpec(1009, 1)
    alpha = north_pole_point(box)
    r = right_angle_report(alpha, box, 0.1, SamplerConfig(20260105, 10 ** 4, 8))
    ok = r.extra["origin_dist_sq"] == "1/4"  # normalized distance exactly 1/2
    ok &= r.empirical_proportion >= 0.95
    lo = right_angle_report(
        north_pole_point(BoxSpec(211, 1)), BoxSpec(211, 1), 0.1,
        SamplerConfig(20260106, 10 ** 4, 8),
    )
    hi = right_angle_report(
        north_pole_point(BoxSpec(2003, 1)), BoxSpec(2003, 1), 0.1,
        SamplerConfig(20260106, 10 ** 4, 8),
    )
    ok &= hi.extra["median_abs_cos"] < lo.extra["median_abs_cos"]
    elapsed = time.perf_counter() - t0
    assert _verdict(
        9, "right central angles: >=95% |cos|<=0.1 at p=1009; median shrinks", ok,
        f"(proportion={r.empirical_proportion:.5f} medians {lo.extra['median_abs_cos']:.4f}"
        f"->{hi.extra['median_abs_cos']:.4f} {elapsed:.1f}s)",
    )
    assert elapsed < 60.0


def test_c10a_visibility_oracles_and_means():
    t0 = time.perf_counter()
    ok = True
    for n_box in (1, 2):
        pts = list(oracles.iter_box_coeffs(3, n_box))
        matrix = oracles.segment_visibility_matrix(pts)
        for i, a in enumerate(pts):
            ai = CyclotomicInt(3, a)
            for j in range(i + 1, len(pts)):
                ok &= is_visible(ai, CyclotomicInt(3, pts[j])) == matrix[i, j]
    box31 = BoxSpec(3, 1)
    ok &= mean_box_pair_dist_sq(box31) == F(5, 27)
    ok &= oracle_mean_box_pair_dist_sq(box31) == F(5, 27)
    mc = box_pair_mean_report(BoxSpec(1009, 10 ** 4), SamplerConfig(20260107, 20_000, 8))
    ok &= abs(float(mc) - 1 / 6) <= 0.01 / 6
    elapsed = time.perf_counter() - t0
    assert _verdict(
        10, "visibility: gcd = segment oracle (p=3, N<=2); means 5/27 exact, 1/6 within 1%",
        ok, f"(mc_mean={float(mc):.6f} {elapsed:.1f}s)",
    )
    assert elapsed < 150.0


def test_c10b_selfvisible_superregularity_target():
    t0 = time.perf_counter()
    r = visibility_concentration_report(
        BoxSpec(101, 10 ** 4), 3, 0.05, SamplerConfig(20260108, 10 ** 4, 8)
    )
    elapsed = time.perf_counter() - t0
    ok = r.proportion_near_center >= 0.95
    _verdict(
        10, "self-visible K=3 tuples at p=101, N=1e4: >=95% within 0.05 of 1/sqrt(6)",
        ok, f"(observed proportion={r.proportion_near_center:.4f} {elapsed:.1f}s)",
    )
    assert elapsed < 180.0
    assert ok, (
        f"proportion of self-visible triples with all edges within 0.05 of "
        f"1/sqrt(6) is {r.proportion_near_center:.4f} < 0.95 at p=101, N=10^4 "
        f"(per-edge std of the normalized distance at p=101 is ~0.024, so the "
        f"0.05 window holds ~0.96 per edge and ~0.886 for all three)"
    )


def test_c11_poles_and_rendering():
    ok = True
    for q in range(3, 102, 2):
        ok &= abs(embed_complex(north_pole(q, 1), q).real) < 1e-9
        ok &= abs(embed_complex(east_pole(q, 1), q).imag) < 1e-9
    ok &= abs(embed_complex(east_pole(5, 1), 5).real - math.sqrt(5)) < 1e-12
    scene = SceneSpec("random_polytopes", q=7, N=2, K=3, count=26, seed=42)
    ok &= render_scene(scene) == render_scene(scene)
    box = BoxSpec(101, 1)
    r1 = vertex_pair_report(box, F(1, 3), SamplerConfig(7, 2000, 2))
    r2 = vertex_pair_report(box, F(1, 3), SamplerConfig(7, 2000, 2))
    ok &= to_json(r1) == to_json(r2)
    assert _verdict(11, "poles on axes (odd q <= 101), EP(5)=sqrt(5), byte-identical outputs", ok)
