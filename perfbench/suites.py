"""The certification suites of the cyclobox benchmark.

A suite is a list of cells.  A cell is one report call into cyclobox's
public API; it runs with either worker count and returns a JSON-ready
payload for `reports.to_json`, as the command line does.  Every report seed
and every sampled alpha derives from the workload seed alone.

Cells call through module attributes (`concentration.theorem4_report`, not
a name bound at import time) so that the tracer's wrappers see every call.

A sampled cell also carries a reference check.  It runs the same report on
a prefix of the sample stream at an epsilon where some samples hit and some
miss, and recomputes that prefix through the public one-point path
(`sample_vertex`, `sample_box_point` or `sample_self_visible_polytope`,
then `core.dist_sq` and `within_sqrt_interval`).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from cyclobox import concentration, core, moments, reports, rng, visibility
from cyclobox.concentration import CounterStream, IntervalSpec, SamplerConfig
from cyclobox.core import BoxSpec, CyclotomicInt, north_pole_point

F = Fraction
WORKER_COUNTS = (1, 2)
REF_PREFIX = 64        # samples recomputed through the one-point path
HALF = F(501, 1000)    # the acceptance suite's epsilon; every sample hits
REF_EPS = F(1, 100)    # vertex-pair legs hit about 63 % of the time
REF_EPS_POINT = F(1, 5000)  # origin-to-vertex legs: about half hit

# Sample counts are the acceptance suite's, scaled uniformly per workload so
# that one pass takes about two seconds at one worker.
SCALE = {"vertex-laws": 0.25, "box-points": 0.5, "exact": 1.0}
WORKLOADS = tuple(SCALE)

REPORT_FUNCTIONS = {
    concentration: ("theorem4_report", "isosceles_report", "vertex_pair_report",
                    "right_angle_report", "polytope_report", "pyramid_report"),
    visibility: ("visibility_concentration_report", "box_pair_mean_report"),
    moments: ("oracle_moments",),
}


def traced_functions():
    """(module, attribute, item count of the result) for every traced call."""
    size = lambda result: int(result.size)  # noqa: E731
    out = [(rng, "words", size), (rng, "vertex_signs", size), (rng, "box_offsets_at", size)]
    for module, names in REPORT_FUNCTIONS.items():
        out += [(module, name, None) for name in names]
    out.append((reports, "to_json", lambda text: len(text.encode("utf-8"))))
    return out


def derive_seed(seed: int, label: str) -> int:
    """64-bit report seed for one cell, a pure function of (seed, label)."""
    digest = hashlib.sha256(f"cyclobox-bench/{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class Cell:
    name: str
    call: Callable[[int], object]  # worker_count -> payload for to_json
    seed: Optional[int] = None     # report seed; None for the oracle cells
    alpha: Optional[tuple] = None  # coefficients of an alpha drawn from the seed
    dist_evals: int = 0            # concentration trials x edges per trial
    enumerated: int = 0            # vertices or ordered pairs an oracle sweeps
    reference: Optional[Callable[[], list]] = None  # -> list of problems


def _configs(seed: int, count: int) -> dict:
    return {w: SamplerConfig(seed, count, w) for w in WORKER_COUNTS}


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


# --- reference checks ---------------------------------------------------------

def _compare(label: str, got: int, want: int, k: int) -> list:
    problems = []
    if got != want:
        problems.append(f"{label}: report has {got} hits in the first {k} samples, "
                        f"the one-point path {want}")
    if not 0 < want < k:
        problems.append(f"{label}: the reference epsilon gives {want}/{k} hits, "
                        "so the check cannot fail")
    return problems


def _within(d_sq: int, box: BoxSpec, center, eps) -> bool:
    return concentration.within_sqrt_interval(
        F(d_sq, box.diameter_sq()), IntervalSpec(center, eps))


def _vertices(box: BoxSpec, stream: CounterStream, count: int) -> list:
    return [concentration.sample_vertex(box, stream) for _ in range(count)]


def _ref_theorem4(alpha, box, seed, eps, k=REF_PREFIX):
    report = concentration.theorem4_report(alpha, box, eps, SamplerConfig(seed, k))
    center = moments.avg_point_to_vertices(alpha, box)
    stream = CounterStream(seed)
    want = sum(_within(core.dist_sq(alpha, x), box, center, eps)
               for x in _vertices(box, stream, k))
    return _compare("T4", report.hits, want, k)


def _ref_isosceles(alpha, box, seed, eps, k=REF_PREFIX):
    report = concentration.isosceles_report(alpha, box, eps, SamplerConfig(seed, k))
    center = moments.avg_point_to_vertices(alpha, box)
    stream = CounterStream(seed)
    want = 0
    for _ in range(k):
        x, y = _vertices(box, stream, 2)
        want += (_within(core.dist_sq(alpha, x), box, center, eps)
                 and _within(core.dist_sq(alpha, y), box, center, eps))
    return _compare("isosceles", report.hits, want, k)


def _ref_vertex_pairs(box, seed, eps, k=REF_PREFIX):
    report = concentration.vertex_pair_report(box, eps, SamplerConfig(seed, k))
    center = moments.avg_vertex_pairs(box)
    stream = CounterStream(seed)
    hits = hits_half = total = 0
    for _ in range(k):
        x, y = _vertices(box, stream, 2)
        d_sq = core.dist_sq(x, y)
        hits += _within(d_sq, box, center, eps)
        hits_half += _within(d_sq, box, F(1, 2), eps)
        total += d_sq
    problems = _compare("T5", report.hits, hits, k)
    problems += _compare("T5 at 1/2", report.extra["hits_half"], hits_half, k)
    mean = _frac(F(total, k * box.diameter_sq()))
    if report.extra["mean_dist_sq"] != mean:
        problems.append(f"T5: exact mean d^2 {report.extra['mean_dist_sq']} != {mean}")
    return problems


def _ref_right_angle(alpha, box, seed, eps_cos, k=REF_PREFIX):
    report = concentration.right_angle_report(alpha, box, eps_cos, SamplerConfig(seed, k))
    bound = F(eps_cos) ** 2
    stream = CounterStream(seed)
    want = sum(core.cos_central_angle(alpha, x)[1] <= bound for x in _vertices(box, stream, k))
    return _compare("right angle", report.hits, want, k)


def _ref_polytope(box, K, T, seed, k=REF_PREFIX):
    report = concentration.polytope_report(box, K, T, SamplerConfig(seed, k))
    eps = 1 / F(T)
    stream = CounterStream(seed)
    want = 0
    for _ in range(k):
        pts = _vertices(box, stream, K)
        want += all(_within(core.dist_sq(pts[j], pts[m]), box, F(1, 2), eps)
                    for j in range(K) for m in range(j + 1, K))
    return _compare("polytope", report.hits, want, k)


def _ref_pyramid(apex, box, K, eps, seed, k=REF_PREFIX):
    report = concentration.pyramid_report(apex, box, K, eps, SamplerConfig(seed, k))
    near_origin = F(apex.norm_sq(), box.diameter_sq()) <= eps * eps
    lateral = F(1, 4) if near_origin else moments.avg_point_to_vertices(apex, box)
    stream = CounterStream(seed)
    want = 0
    for _ in range(k):
        pts = _vertices(box, stream, K)
        base = all(_within(core.dist_sq(pts[j], pts[m]), box, F(1, 2), eps)
                   for j in range(K) for m in range(j + 1, K))
        want += base and all(_within(core.dist_sq(x, apex), box, lateral, eps) for x in pts)
    return _compare("pyramid", report.hits, want, k)


def _ref_visibility(box, K, eps, seed, k=REF_PREFIX):
    report = visibility.visibility_concentration_report(box, K, eps, SamplerConfig(seed, k))
    eps_frac = F(eps)
    want = total = 0
    for t in range(k):
        pts = visibility.sample_self_visible_polytope(box, K, CounterStream(seed, t))
        edges = [core.dist_sq(pts[j], pts[m]) for j in range(K) for m in range(j + 1, K)]
        want += all(_within(d, box, F(1, 6), eps_frac) for d in edges)
        total += sum(edges)
    problems = _compare("visibility", round(report.proportion_near_center * k), want, k)
    mean = _frac(F(total, k * math.comb(K, 2) * box.diameter_sq()))
    if report.mean_dist_sq != mean:
        problems.append(f"visibility: exact mean d^2 {report.mean_dist_sq} != {mean}")
    return problems


def _ref_box_pairs(box, seed, k=REF_PREFIX):
    got = visibility.box_pair_mean_report(box, SamplerConfig(seed, k))
    stream = CounterStream(seed)
    total = 0
    for _ in range(k):
        x = concentration.sample_box_point(box, stream)
        total += core.dist_sq(x, concentration.sample_box_point(box, stream))
    want = F(total, k * box.diameter_sq())
    return [] if got == want else [f"box pairs: exact mean d^2 {got} != {want}"]


# --- cells --------------------------------------------------------------------

def _theorem4(name, alpha, box, eps, seed, count, ref_eps):
    cfg = _configs(seed, count)
    return Cell(name, lambda w: concentration.theorem4_report(alpha, box, eps, cfg[w]),
                seed=seed, dist_evals=count,
                reference=lambda: _ref_theorem4(alpha, box, seed, ref_eps))


def _vertex_pairs(name, box, eps, seed, count):
    cfg = _configs(seed, count)
    return Cell(name, lambda w: concentration.vertex_pair_report(box, eps, cfg[w]),
                seed=seed, dist_evals=count,
                reference=lambda: _ref_vertex_pairs(box, seed, REF_EPS))


def _box_pair_payload(box: BoxSpec, cfg: SamplerConfig) -> dict:
    mean = visibility.box_pair_mean_report(box, cfg)
    return {"type": "box_pair_mean", "p": box.p, "N": box.N, "seed": cfg.seed,
            "sample_count": cfg.sample_count, "worker_count": cfg.worker_count,
            "mean_dist_sq": _frac(mean), "mean_dist_sq_float": float(mean)}


def _box_pairs(name, box, seed, count):
    cfg = _configs(seed, count)
    return Cell(name, lambda w: _box_pair_payload(box, cfg[w]), seed=seed,
                reference=lambda: _ref_box_pairs(box, seed))


def _isosceles(name, alpha, box, eps, seed, count):
    cfg = _configs(seed, count)
    return Cell(name, lambda w: concentration.isosceles_report(alpha, box, eps, cfg[w]),
                seed=seed, dist_evals=2 * count,
                reference=lambda: _ref_isosceles(alpha, box, seed, REF_EPS))


def _pyramid(name, apex, box, K, eps, seed, count):
    cfg = _configs(seed, count)
    return Cell(name, lambda w: concentration.pyramid_report(apex, box, K, eps, cfg[w]),
                seed=seed, dist_evals=(math.comb(K, 2) + K) * count,
                reference=lambda: _ref_pyramid(apex, box, K, REF_EPS, seed))


def _vertex_laws(seed: int, n: Callable[[int], int]) -> list:
    s = lambda label: derive_seed(seed, label)  # noqa: E731
    box = BoxSpec(1009, 1)
    origin, pole = CyclotomicInt.zero(1009), north_pole_point(box)
    cells = [
        _vertex_pairs("t5.p1009", box, HALF, s("t5.p1009"), n(10 ** 5)),
        _theorem4("t4.origin.p1009", origin, box, HALF, s("t4.origin.p1009"), n(10 ** 5),
                  REF_EPS_POINT),
        _theorem4("t4.pole.p1009", pole, box, HALF, s("t4.pole.p1009"), n(10 ** 5), REF_EPS),
        _isosceles("isosceles.pole.p1009", pole, box, HALF, s("isosceles.pole.p1009"),
                   n(5 * 10 ** 4)),
    ]
    cells += [_right_angle(p, s(f"angle.p{p}"), n(10 ** 4)) for p in (211, 1009, 2003)]
    cells += [_polytope(p, s(f"polytope.k4.p{p}"), n(10 ** 4)) for p in (211, 1009, 2003)]
    cells.append(_pyramid("pyramid.k3.origin.p1009", origin, box, 3, HALF,
                          s("pyramid.k3.p1009"), n(10 ** 4)))
    return cells


def _spread(p: int) -> float:
    """Normalized distances and cosines spread as 1/sqrt(p); 1 at p=1009."""
    return math.sqrt(1009 / p)


def _right_angle(p, seed, count):
    box = BoxSpec(p, 1)
    pole = north_pole_point(box)
    cfg = _configs(seed, count)
    return Cell(f"angle.pole.p{p}",
                lambda w: concentration.right_angle_report(pole, box, 0.1, cfg[w]),
                seed=seed, dist_evals=count,
                reference=lambda: _ref_right_angle(pole, box, seed, 0.02 * _spread(p)))


def _polytope(p, seed, count):
    box = BoxSpec(p, 1)
    cfg = _configs(seed, count)
    return Cell(f"polytope.k4.p{p}",
                lambda w: concentration.polytope_report(box, 4, p ** 0.1, cfg[w]),
                seed=seed, dist_evals=6 * count,
                reference=lambda: _ref_polytope(box, 4, 50.0 / _spread(p), seed))


def _box_points(seed: int, n: Callable[[int], int]) -> list:
    s = lambda label: derive_seed(seed, label)  # noqa: E731
    box101 = BoxSpec(101, 10 ** 4)
    vis_seed = s("visibility.k3.p101")
    vis_cfg = _configs(vis_seed, n(10 ** 4))
    return [
        Cell("visibility.k3.p101.N1e4",
             lambda w: visibility.visibility_concentration_report(box101, 3, 0.05, vis_cfg[w]),
             seed=vis_seed,
             reference=lambda: _ref_visibility(box101, 3, 0.02, vis_seed)),
        _box_pairs("box_pairs.p1009.N1e4", BoxSpec(1009, 10 ** 4), s("box_pairs.p1009"),
                   n(2 * 10 ** 4)),
    ]


def _oracle(name, box, alpha=None, drawn=False):
    enumerated = box.num_vertices() ** (1 if alpha is not None else 2)
    return Cell(name, lambda w: moments.oracle_moments(box, alpha), enumerated=enumerated,
                alpha=alpha.coeffs if drawn else None)


def _exact(seed: int, n: Callable[[int], int]) -> list:
    s = lambda label: derive_seed(seed, label)  # noqa: E731
    box17 = BoxSpec(17, 2)
    gen = np.random.default_rng(s("oracle.point.p17"))
    point = CyclotomicInt(17, tuple(int(c) for c in gen.integers(-2, 3, 16)))
    b11, b17 = BoxSpec(11, 1), BoxSpec(17, 1)
    pole17 = north_pole_point(b17)
    t5_cfg = _configs(s("t5.exhaustive.p11"), 1)
    t4_cfg = _configs(s("t4.exhaustive.p17"), 1)
    wide = BoxSpec(1009, 2 ** 31)
    return [
        _oracle("oracle.pairs.p13.N2", BoxSpec(13, 2)),
        _oracle("oracle.pole.p17.N2", box17, north_pole_point(box17)),
        _oracle("oracle.point.p17.N2", box17, point, drawn=True),
        Cell("t5.exhaustive.p11",
             lambda w: concentration.vertex_pair_report(b11, F(1, 10), t5_cfg[w], exhaustive=True),
             seed=t5_cfg[1].seed, dist_evals=b11.num_vertices() ** 2),
        Cell("t4.exhaustive.pole.p17",
             lambda w: concentration.theorem4_report(pole17, b17, F(1, 10), t4_cfg[w],
                                                     exhaustive=True),
             seed=t4_cfg[1].seed, dist_evals=b17.num_vertices()),
        _theorem4("t4.pole.p1009.N2^31", north_pole_point(wide), wide, HALF,
                  s("t4.pole.p1009.wide"), n(2000), REF_EPS),
        _vertex_pairs("t5.p1009.N2^31", wide, HALF, s("t5.p1009.wide"), n(2000)),
        _box_pairs("box_pairs.p101.N2^40", BoxSpec(101, 2 ** 40), s("box_pairs.p101.wide"),
                   n(2000)),
    ]


def build_cells(workload: str, seed: int) -> list:
    """The workload's cells, with every box, config and alpha built."""
    scale = SCALE[workload]
    n = lambda count: max(1, round(count * scale))  # noqa: E731
    build = {"vertex-laws": _vertex_laws, "box-points": _box_points, "exact": _exact}
    return build[workload](seed, n)


# --- payload checks and known-defect probes ------------------------------------

def payload_problems(payload) -> list:
    """Every moment in a serialized payload must be certified exact-equal."""
    entries = payload if isinstance(payload, list) else [payload]
    return [f"{e['kind']} p={e['p']} N={e['N']}: oracle verdict {e['verdict']}"
            for e in entries if e.get("type") == "moment" and e["verdict"] != "exact-equal"]


def _probe_oracle(box: BoxSpec) -> Callable[[], list]:
    def probe():
        return [f"{r.kind}: MISMATCH" for r in moments.oracle_moments(box) if not r.exact_equal]
    return probe


def _probe_right_angle(seed: int) -> Callable[[], list]:
    box = BoxSpec(101, 10 ** 7)
    alpha = CyclotomicInt(101, (1,) + (0,) * 99)

    def probe():
        report = concentration.right_angle_report(alpha, box, 0.1, SamplerConfig(seed, 1000))
        return [] if report.trials == 1000 else [f"right angle: {report.trials} trials"]
    return probe


def probes(workload: str, seed: int) -> list:
    """(name, probe) pairs for the known defects; a probe returns problems or raises."""
    if workload != "exact":
        return []
    return [
        ("oracle.pairs.p5.N1600", _probe_oracle(BoxSpec(5, 1600))),
        ("oracle.pairs.p13.N40", _probe_oracle(BoxSpec(13, 40))),
        ("right_angle.unit.p101.N1e7", _probe_right_angle(derive_seed(seed, "probe.angle"))),
    ]
