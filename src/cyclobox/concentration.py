"""Deterministic Monte Carlo verification of the distance concentration laws.

Each report function samples vertices or box points with counter-based
streams (see `rng`): the randomness of sample i depends only on
(seed, i), so a run gives bit-identical tallies for any worker count, and
workers merge by plain summation.  Every report states its law as a
`kernels.EdgeSpec` and runs it through `kernels.tally`, the one sampling
engine: the interval reports with one `IntervalSpec` per verdict, the
right-angle report with a predicate on d^2(x, alpha) and the popcount of x.

Interval membership |sqrt(d^2) - sqrt(A)| <= eps is decided in exact
rational and integer arithmetic (no float square roots are taken); floats
appear only in the reported proportions, bounds and cosines.

Bound arithmetic: the concentration laws are stated with eps = p^(-eta), so
p^(1-2*eta) = p*eps^2 and the explicit bounds evaluate as

  single distance to a fixed point:   1 - 22 / (p * eps^2)
  pair of distances to a fixed point: 1 - 44 / (p * eps^2)
  vertex-to-vertex distance:          1 -  2 / (p * eps^2)
  K-polytope (all C(K,2) edges):      1 - K(K-1) / (p * eps^2)

A bound <= 0 is vacuous: the report passes but is flagged and should be
excluded from aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import kernels, rng
from .core import (
    BoxSpec,
    CyclotomicInt,
    DegenerateAngleError,
    FieldMismatchError,
    north_pole,
    require_float_range,
)
from .moments import avg_point_to_vertices, avg_vertex_pairs

__all__ = [
    "SamplerConfig",
    "IntervalSpec",
    "ConcentrationReport",
    "CounterStream",
    "within_sqrt_interval",
    "sample_vertex",
    "sample_box_point",
    "theorem4_report",
    "isosceles_report",
    "vertex_pair_report",
    "polytope_report",
    "right_angle_report",
    "pyramid_report",
]

@dataclass(frozen=True)
class SamplerConfig:
    """Reproducible sampling run: same (seed, sample_count, worker_count)
    means bit-identical reports, and tallies do not depend on worker_count."""

    seed: int
    sample_count: int
    worker_count: int = 1

    def __post_init__(self):
        rng.require_seed(self.seed)
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")
        if self.worker_count < 1:
            raise ValueError("worker_count must be positive")


@dataclass(frozen=True)
class IntervalSpec:
    """Membership test |sqrt(d_sq) - sqrt(center_sq)| <= epsilon."""

    center_sq: Fraction
    epsilon: Fraction

    def __post_init__(self):
        object.__setattr__(self, "center_sq", Fraction(self.center_sq))
        object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.center_sq < 0:
            raise ValueError("center_sq must be nonnegative")

    def members(self, d2: int) -> tuple:
        """The integers n >= 0 that pass with d_sq = n / d2, as a range [lo, hi],
        empty if lo > hi.  With A = a/b and eps = e/f the ends are d2 (sqrt(A) -+ eps)^2
        = (u -+ sqrt(v)) / w, v = 4ab (e f d2)^2; for integer k, k w <= u + sqrt(v) iff
        k w <= u + isqrt(v), and likewise at the low end, so both ends are exact.  When
        sqrt(A) <= eps the range starts at 0."""
        a, b = self.center_sq.numerator, self.center_sq.denominator
        e, f = self.epsilon.numerator, self.epsilon.denominator
        w = b * f * f
        u = (a * f * f + e * e * b) * d2
        root = math.isqrt(4 * a * b * (e * f * d2) ** 2)
        lo = 0 if self.center_sq <= self.epsilon ** 2 else -((root - u) // w)
        return lo, (u + root) // w


def within_sqrt_interval(d_sq, spec: IntervalSpec) -> bool:
    """Exact test of |sqrt(d_sq) - sqrt(A)| <= eps, A = spec.center_sq.

    Equivalent to: d + A - eps^2 <= 0, or (d + A - eps^2)^2 <= 4*A*d.
    """
    d = Fraction(d_sq)
    if d < 0:
        raise ValueError("d_sq must be nonnegative")
    lhs = d + spec.center_sq - spec.epsilon * spec.epsilon
    if lhs <= 0:
        return True
    return lhs * lhs <= 4 * spec.center_sq * d


@dataclass(frozen=True)
class ConcentrationReport:
    theorem: str
    p: int
    N: int
    hits: int
    trials: int
    empirical_proportion: float
    bound: Optional[float]
    bound_formula: str
    passed: bool
    vacuous: bool
    seed: int
    sample_count: int
    worker_count: int
    exhaustive: bool = False
    alpha: Optional[str] = None
    K: Optional[int] = None
    T: Optional[float] = None
    epsilon: Optional[str] = None
    epsilon_float: Optional[float] = None
    eta: Optional[float] = None
    center_sq: Optional[str] = None
    extra: dict = field(default_factory=dict)


# --- streams and single-point sampling ---------------------------------------

class CounterStream:
    """Hands out consecutive per-point stream indices for a fixed seed."""

    def __init__(self, seed: int, start: int = 0):
        self.seed = seed
        self.index = start

    def take(self, n: int = 1) -> int:
        first = self.index
        self.index += n
        return first


def sample_vertex(box: BoxSpec, stream: CounterStream) -> CyclotomicInt:
    """Uniform vertex: p-1 independent sign bits scaled by N."""
    signs = rng.vertex_signs(stream.seed, stream.take(), 1, box.dim)[0]
    return CyclotomicInt(box.p, tuple(int(s) * box.N for s in signs))


def sample_box_point(box: BoxSpec, stream: CounterStream) -> CyclotomicInt:
    """Uniform box point: coefficients i.i.d. uniform on {-N, ..., N}."""
    offs = rng.box_offsets(stream.seed, stream.take(), 1, box.dim, box.N)[0]
    return CyclotomicInt(box.p, tuple(int(o) for o in offs))


def _eta_of(p: int, eps: Fraction) -> float:
    return math.log(1.0 / float(eps)) / math.log(p)


def _bound(p: int, eps: Fraction, constant: int) -> float:
    """1 - constant / p^(1-2*eta) with eps = p^(-eta); p^(1-2*eta) = p*eps^2.  The ratio
    is checked exactly: the float p*eps^2 underflows to 0 below eps ~ 1e-162."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    require_float_range(eps, "eps")
    require_float_range(Fraction(constant, p) / eps ** 2, f"{constant}/(p*eps^2)")
    return 1.0 - constant / (p * float(eps) ** 2)


def _alpha_label(alpha: CyclotomicInt) -> str:
    box_n = max(map(abs, alpha.coeffs))
    if not box_n:
        return "origin"
    if alpha.coeffs == north_pole(alpha.p, box_n):
        return "north-pole"
    if len(alpha.coeffs) <= 16:
        return "coeffs:" + ",".join(str(c) for c in alpha.coeffs)
    return f"custom(trace={alpha.trace()},eucl_sq={alpha.euclid_norm_sq()})"


def _finish(theorem, box, cfg, hits, trials, bound, formula, *, eps=None, center_sq=None,
            **fields):
    """The report of a tally; `fields` sets ConcentrationReport's optional fields."""
    proportion = hits / trials if trials else float("nan")
    vacuous = bound is not None and bound <= 0.0
    passed = vacuous or (bound is not None and proportion >= bound)
    return ConcentrationReport(
        theorem=theorem,
        p=box.p,
        N=box.N,
        hits=int(hits),
        trials=int(trials),
        empirical_proportion=proportion,
        bound=bound,
        bound_formula=formula,
        passed=bool(passed),
        vacuous=bool(vacuous),
        seed=cfg.seed,
        sample_count=cfg.sample_count,
        worker_count=cfg.worker_count,
        epsilon=None if eps is None else f"{eps.numerator}/{eps.denominator}",
        epsilon_float=None if eps is None else float(eps),
        center_sq=None if center_sq is None else f"{center_sq.numerator}/{center_sq.denominator}",
        **fields,
    )


# --- theorem reports ----------------------------------------------------------

def _leg_report(theorem: str, alpha: CyclotomicInt, box: BoxSpec, eps, cfg: SamplerConfig,
                K: int, constant: int, exhaustive: bool = False) -> ConcentrationReport:
    """K legs from a fixed point to random vertices, all within eps of sqrt(A(alpha))."""
    eps = Fraction(eps)
    bound = _bound(box.p, eps, constant)
    a_val = avg_point_to_vertices(alpha, box)
    draw = kernels.vertex_orbits(box, alpha.coeffs) if exhaustive else kernels.draw_vertices
    legs = tuple((j, kernels.APEX, (IntervalSpec(a_val, eps),)) for j in range(K))
    spec = kernels.EdgeSpec(box, K, draw, legs, apex=alpha.coeffs)
    result = kernels.tally(spec, cfg.seed, cfg.sample_count, cfg.worker_count)
    return _finish(
        theorem, box, cfg, *result.hits, result.attempts, bound, f"1 - {constant}/p^(1-2*eta)",
        exhaustive=exhaustive, alpha=_alpha_label(alpha),
        eps=eps, eta=_eta_of(box.p, eps), center_sq=a_val,
    )


def theorem4_report(alpha: CyclotomicInt, box: BoxSpec, eps, cfg: SamplerConfig,
                    exhaustive: bool = False) -> ConcentrationReport:
    """Distances from a fixed point to vertices concentrate at sqrt(A(alpha))."""
    return _leg_report("T4", alpha, box, eps, cfg, 1, 22, exhaustive)


def isosceles_report(alpha: CyclotomicInt, box: BoxSpec, eps, cfg: SamplerConfig) -> ConcentrationReport:
    """Both legs from a fixed point to two random vertices share the interval."""
    return _leg_report("isosceles", alpha, box, eps, cfg, 2, 44)


def vertex_pair_report(box: BoxSpec, eps, cfg: SamplerConfig,
                       exhaustive: bool = False) -> ConcentrationReport:
    """Vertex-to-vertex distances concentrate at sqrt(A(V,V)) ~ 1/sqrt(2).

    The report also counts membership in the interval centered at the limit
    value 1/sqrt(2) (`hits_half`), and carries the exact sample mean of the
    normalized squared distance.
    """
    eps = Fraction(eps)
    bound = _bound(box.p, eps, 2)
    a_vv = avg_vertex_pairs(box)
    draw = kernels.vertex_orbits(box) if exhaustive else kernels.draw_vertices
    intervals = (IntervalSpec(a_vv, eps), IntervalSpec(Fraction(1, 2), eps))
    spec = kernels.EdgeSpec(box, 2, draw, ((0, 1, intervals),))
    result = kernels.tally(spec, cfg.seed, cfg.sample_count, cfg.worker_count)
    hits, hits_half = result.hits
    trials = result.attempts
    mean_d2 = Fraction(result.d2_sum, trials * box.diameter_sq())
    return _finish(
        "T5", box, cfg, hits, trials, bound,
        "1 - 2/p^(1-2*eta)", exhaustive=exhaustive,
        eps=eps, eta=_eta_of(box.p, eps), center_sq=a_vv,
        extra={
            "hits_half": hits_half,
            "proportion_half": hits_half / trials,
            "mean_dist_sq": f"{mean_d2.numerator}/{mean_d2.denominator}",
            "mean_dist_sq_float": float(mean_d2),
        },
    )


def polytope_report(box: BoxSpec, K: int, T: float, cfg: SamplerConfig) -> ConcentrationReport:
    """All C(K,2) edges of a random K-polytope land within 1/T of 1/sqrt(2)."""
    if K < 2:
        raise ValueError("a K-polytope needs K >= 2")
    if not 1 < T < math.inf:
        raise ValueError(f"need a finite T > 1, got {T}")
    eps = 1 / Fraction(T)  # exact reciprocal of the given (possibly float) T
    # the float bound below forms K(K-1)T^2 before it divides by p
    require_float_range(K * (K - 1) / eps ** 2, "K(K-1)T^2")
    edges = kernels.all_edges(K, (IntervalSpec(Fraction(1, 2), eps),))
    spec = kernels.EdgeSpec(box, K, kernels.draw_vertices, edges)
    result = kernels.tally(spec, cfg.seed, cfg.sample_count, cfg.worker_count)
    eta = math.log(float(T)) / math.log(box.p)
    bound = 1.0 - K * (K - 1) * float(T) ** 2 / box.p
    return _finish(
        "k_polytope", box, cfg, *result.hits, result.attempts, bound,
        "1 - K(K-1)/p^(1-2*eta) (union bound over C(K,2) edges)",
        K=K, T=float(T), eps=eps, eta=eta, center_sq=Fraction(1, 2),
    )


def right_angle_report(alpha: CyclotomicInt, box: BoxSpec, eps_cos: float,
                       cfg: SamplerConfig, target: float = 0.95) -> ConcentrationReport:
    """Central angles between a fixed point and random vertices are near 90 deg.

    Counts |cos(angle)| <= eps_cos exactly (squared comparison on integers).
    The decay constant of the underlying theorem is not numeric, so `target`
    is a pilot-calibrated acceptance proportion; the report also carries the
    theoretical decay proxy 2*sqrt(3/p) and the median observed |cos|.
    """
    if alpha.p != box.p:
        raise FieldMismatchError("alpha and box disagree on p")
    na = alpha.norm_sq()
    if na == 0:
        raise DegenerateAngleError("alpha must be nonzero")
    if not math.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")
    eps_frac = Fraction(eps_cos)
    if eps_frac <= 0:
        raise ValueError("eps_cos must be positive")
    require_float_range(eps_frac, "eps_cos")
    d_origin = Fraction(na, box.diameter_sq())
    require_float_range(d_origin, "the normalized d^2(0, alpha)")
    en2 = eps_frac.numerator ** 2
    ed2 = eps_frac.denominator ** 2
    # twice = 2<alpha, x> = ||alpha||^2 + ||x||^2 - d^2(alpha, x): ||x||^2 + ||alpha||^2 is
    # at most twice_bound, and so is |twice| <= 2 sqrt(||alpha||^2 ||x||^2) (Cauchy-Schwarz)
    nb_bound = kernels.dist_sq_bound(box.p, box.dim, box.N)
    origin = kernels.PackedApex(box, (0,) * box.dim)
    twice_bound = na + nb_bound
    compare_bound = max(twice_bound ** 2 * ed2, 4 * en2 * na * nb_bound)
    # |cos| = |twice| / (2 sqrt(na nb)) is unchanged by na / 4^a, nb / 4^b, twice / 2^(a+b);
    # a and b bring each norm under 2^500, so their float product cannot overflow, and
    # twice stays below 2^501 by Cauchy-Schwarz.  Below that size a = b = 0 and nothing moves.
    a, b = (max(0, (n.bit_length() - 499) // 2) for n in (na, nb_bound))
    abs_cos = np.empty(cfg.sample_count)  # every sample's |cos|, written slice by slice
    filled = 0  # samples written: packed-vertex slices run in order on the calling thread

    def near_right(d2_alpha, pcx):  # |cos| <= eps_cos, exactly: twice^2 ed2 <= 4 en2 na nb
        nonlocal filled
        nb = origin.dist_sq(None, pcx)
        twice = kernels.lift(nb, twice_bound) + na - d2_alpha
        tw = kernels.lift(twice, compare_bound)
        tw_f = (twice / (1 << (a + b))).astype(np.float64, copy=False)
        nb_f = (nb / (1 << 2 * b)).astype(np.float64, copy=False)
        abs_cos[filled:filled + len(nb_f)] = np.abs(tw_f / 2) / np.sqrt(na / (1 << 2 * a) * nb_f)
        filled += len(nb_f)
        return tw * tw * ed2 <= 4 * en2 * na * kernels.lift(nb, compare_bound)

    leg = ((0, kernels.APEX, (near_right,)),)
    spec = kernels.EdgeSpec(box, 1, kernels.draw_vertices, leg, apex=alpha.coeffs)
    hits = kernels.tally(spec, cfg.seed, cfg.sample_count, cfg.worker_count).hits[0]
    return _finish(
        "right_angle", box, cfg, hits, cfg.sample_count, float(target),
        "pilot-calibrated target (decay proxy 2*sqrt(3/p))",
        alpha=_alpha_label(alpha), eps=eps_frac,
        extra={
            "eps_cos": float(eps_cos),
            "median_abs_cos": float(np.median(abs_cos, overwrite_input=True)),
            "origin_dist_sq": f"{d_origin.numerator}/{d_origin.denominator}",
            "origin_dist": math.sqrt(d_origin),
            "decay_proxy": 2.0 * math.sqrt(3.0 / box.p),
        },
    )


def pyramid_report(apex: CyclotomicInt, box: BoxSpec, K: int, eps,
                   cfg: SamplerConfig) -> ConcentrationReport:
    """Pyramids over random K-polytope bases with a fixed apex in the box.

    A pyramid counts as a hit when every base edge/diagonal is within eps of
    1/sqrt(2) and every lateral edge is within eps of its own center: the
    apex average sqrt(A(apex)) in general, or 1/2 when the apex sits within
    eps of the origin (then (1/2)^2 + (1/2)^2 = (1/sqrt(2))^2 holds exactly,
    and the report annotates the Pythagorean identity).
    """
    if K < 2:
        raise ValueError("a pyramid needs a base polytope with K >= 2")
    if not box.contains(apex):
        raise ValueError("apex must lie inside the box")
    eps = Fraction(eps)
    bound = _bound(box.p, eps, K * (K - 1) + 22 * K)
    d_apex_sq = Fraction(apex.norm_sq(), box.diameter_sq())
    apex_near_origin = d_apex_sq <= eps * eps
    lateral_center = Fraction(1, 4) if apex_near_origin else avg_point_to_vertices(apex, box)
    lateral = (IntervalSpec(lateral_center, eps),)
    edges = (kernels.all_edges(K, (IntervalSpec(Fraction(1, 2), eps),))
             + tuple((j, kernels.APEX, lateral) for j in range(K)))
    spec = kernels.EdgeSpec(box, K, kernels.draw_vertices, edges, apex=apex.coeffs)
    result = kernels.tally(spec, cfg.seed, cfg.sample_count, cfg.worker_count)
    return _finish(
        "pyramid", box, cfg, *result.hits, result.attempts, bound,
        "1 - (K(K-1) + 22K)/p^(1-2*eta) (base union bound + lateral bound)",
        alpha=_alpha_label(apex), K=K, eps=eps, eta=_eta_of(box.p, eps),
        center_sq=lateral_center,
        extra={
            "apex_near_origin": bool(apex_near_origin),
            "pythagorean_exact": Fraction(1, 4) + Fraction(1, 4) == Fraction(1, 2),
            "apex_dist_sq": f"{d_apex_sq.numerator}/{d_apex_sq.denominator}",
        },
    )
