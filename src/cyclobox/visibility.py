"""Lattice-point visibility and concentration of self-visible polytopes.

Two box points see each other when no third lattice point of the box lies
strictly between them on the segment.  In coefficient space that is exactly
primitivity of the difference vector: if g = gcd of the coefficient
differences were larger than 1, the point alpha + (beta - alpha)/g would be
an intervening lattice point (its coefficients sit between the endpoints',
so it stays inside the box); if g = 1 no intermediate integer point exists.

Pairwise distances between uniform box points concentrate at 1/sqrt(6): the
exact mean of the normalized squared distance is

    (N+1) * (p^2 - p - 1) / (6 * N * p^2)  ->  1/6  as p, N -> infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations

import numpy as np

from . import kernels, rng
from .concentration import CounterStream, IntervalSpec, SamplerConfig
from .core import (BoxSpec, CyclotomicInt, FieldMismatchError, GuardError, require_float_range,
                   require_point_enumeration)

__all__ = [
    "VisibilityReport",
    "is_visible",
    "mean_box_pair_dist_sq",
    "oracle_mean_box_pair_dist_sq",
    "box_pair_mean_report",
    "sample_self_visible_polytope",
    "visibility_concentration_report",
]


def is_visible(alpha: CyclotomicInt, beta: CyclotomicInt) -> bool:
    """True iff the coefficient difference vector is primitive (gcd 1)."""
    if alpha.p != beta.p:
        raise FieldMismatchError("points live in different fields")
    diffs = [abs(b - a) for a, b in zip(alpha.coeffs, beta.coeffs)]
    if not any(diffs):
        raise ValueError("visibility undefined for a degenerate (equal) pair")
    return math.gcd(*diffs) == 1


def mean_box_pair_dist_sq(box: BoxSpec) -> Fraction:
    """Exact mean of d^2 over independent uniform box-point pairs."""
    p, N = box.p, box.N
    return Fraction((N + 1) * (p * p - p - 1), 6 * N * p * p)


def oracle_mean_box_pair_dist_sq(box: BoxSpec) -> Fraction:
    """The same mean over all ordered box-point pairs, from per-point sums of the
    enumerated points (`kernels.pair_totals`)."""
    require_point_enumeration(box)
    total = kernels.pair_totals(box.p, kernels.box_matrix(box.dim, box.N), box.N)
    return Fraction(total, box.num_points() ** 2 * box.diameter_sq())


def box_pair_mean_report(box: BoxSpec, cfg: SamplerConfig) -> Fraction:
    """Exact sample mean of d^2 over cfg.sample_count uniform box-point pairs."""
    spec = kernels.EdgeSpec(box, 2, kernels.draw_box_points, ((0, 1, ()),))
    total = kernels.tally(spec, cfg.seed, cfg.sample_count, cfg.worker_count).d2_sum
    return Fraction(total, cfg.sample_count * box.diameter_sq())


def _imprimitive(x: np.ndarray, y: np.ndarray, rows: np.ndarray, limit: int) -> np.ndarray:
    """The entries of `rows` whose difference x - y is not primitive, given |x_j - y_j|
    <= limit.  Each row's running gcd stops at the first column where it is 1, so
    most rows read a few columns; an all-zero row ends at gcd 0, not primitive."""
    g = 0
    for c in range(x.shape[-1]):
        g = np.gcd(g, kernels.lift(x[rows, c], limit) - y[rows, c])
        still = g != 1
        rows, g = rows[still], g[still]
        if not rows.size:
            break
    return rows


def _pairwise_visible(pts: np.ndarray, n_box: int) -> np.ndarray:
    """(count,) mask: all C(K,2) difference vectors of each tuple primitive."""
    count, k, _ = pts.shape
    ok = np.ones(count, dtype=bool)
    for j, m in combinations(range(k), 2):
        ok[_imprimitive(pts[:, j], pts[:, m], np.flatnonzero(ok), 2 * n_box)] = False
    return ok


def _require_tuple_streams(K: int, stop: int, max_attempts: int) -> None:
    """Refuse a layout whose streams (t*max_attempts + a)*K + m, t < stop, pass 2^64."""
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be at least 1, got {max_attempts}")
    if stop * max_attempts * K > 1 << 64:
        raise GuardError(f"tuple streams pass 2^64: {stop} tuples x {max_attempts} attempts "
                         f"x K={K} members")


def _sample_visible_tuples(box: BoxSpec, K: int, seed: int, start: int, stop: int,
                           out=None, scratch=None, *, max_attempts: int):
    """Self-visible K-tuples for tuple indices [start, stop).

    Tuple t, retry a, member m reads stream (t*max_attempts + a)*K + m, so
    the result is a pure function of (seed, t).  Returns the points and the
    number of draw attempts made, in the form of an `EdgeSpec` draw: with the
    `kernels.run_buffers` of the run, the first attempt is drawn straight into
    `out`, through `scratch`, and each retry redraws and scatters only the
    tuples still rejected.
    """
    _require_tuple_streams(K, stop, max_attempts)
    count = stop - start
    dim, n_box = box.dim, box.N
    active = np.arange(count)
    members = np.arange(K, dtype=np.uint64)
    drawn = 0
    for a in range(max_attempts):
        tuple_ids = (np.uint64(start) + active.astype(np.uint64))
        bases = (tuple_ids * np.uint64(max_attempts) + np.uint64(a)) * np.uint64(K)
        streams = (bases[:, None] + members[None, :]).ravel()
        if a == 0:  # every tuple, into the run's buffer
            pts = rng.box_offsets_at(seed, streams, dim, n_box, out, scratch)
            fresh = pts = pts.reshape(count, K, dim)
        else:
            fresh = rng.box_offsets_at(seed, streams, dim, n_box, work=scratch)
            fresh = fresh.reshape(len(active), K, dim)
            pts[active] = fresh
        drawn += len(active)
        active = active[~_pairwise_visible(fresh, n_box)]
        if not active.size:
            return pts, drawn
    raise GuardError(f"no self-visible {K}-tuple within {max_attempts} attempts "
                     f"(p={box.p}, N={box.N})")


def sample_self_visible_polytope(box: BoxSpec, K: int, stream: CounterStream,
                                 max_attempts: int = 64) -> tuple:
    """One self-visible K-tuple of box points, by rejection sampling."""
    if K < 2:
        raise ValueError("need K >= 2")
    t = stream.take()
    pts, _ = _sample_visible_tuples(box, K, stream.seed, t, t + 1, max_attempts=max_attempts)
    return tuple(CyclotomicInt(box.p, tuple(int(c) for c in row)) for row in pts[0])


@dataclass(frozen=True)
class VisibilityReport:
    p: int
    N: int
    K: int
    sample_count: int
    visible_fraction: float
    proportion_near_center: float
    center: float
    center_sq: str
    epsilon: float
    target: float
    passed: bool
    seed: int
    worker_count: int
    np_ratio: float
    np_ratio_warning: bool
    mean_dist_sq: str
    mean_dist_sq_float: float
    extra: dict = field(default_factory=dict)


def visibility_concentration_report(box: BoxSpec, K: int, eps: float,
                                    cfg: SamplerConfig,
                                    max_attempts: int = 64) -> VisibilityReport:
    """Sample self-visible K-tuples and count those with every pairwise
    normalized distance within eps of 1/sqrt(6).

    The acceptance target is the property-style 1 - eps; the constant in the
    underlying limit law is not effective, so small p or small N/p can fall
    short of it, and the report records N/p (with a warning below 10).
    `max_attempts` is part of the stream layout, so it changes the draws.
    """
    if K < 2:
        raise ValueError("need K >= 2")
    eps_frac = Fraction(eps)
    require_float_range(eps_frac, "eps")
    _require_tuple_streams(K, cfg.sample_count, max_attempts)
    draw = partial(_sample_visible_tuples, max_attempts=max_attempts)
    edges = kernels.all_edges(K, (IntervalSpec(Fraction(1, 6), eps_frac),))
    spec = kernels.EdgeSpec(box, K, draw, edges)
    result = kernels.tally(spec, cfg.seed, cfg.sample_count, cfg.worker_count)
    (hits,) = result.hits
    mean_d2 = Fraction(result.d2_sum, cfg.sample_count * len(edges) * box.diameter_sq())
    proportion = hits / cfg.sample_count
    target = 1.0 - float(eps)
    np_ratio = box.N / box.p
    return VisibilityReport(
        p=box.p,
        N=box.N,
        K=K,
        sample_count=cfg.sample_count,
        visible_fraction=cfg.sample_count / result.attempts,
        proportion_near_center=proportion,
        center=1.0 / math.sqrt(6.0),
        center_sq="1/6",
        epsilon=float(eps),
        target=target,
        passed=proportion >= target,
        seed=cfg.seed,
        worker_count=cfg.worker_count,
        np_ratio=np_ratio,
        np_ratio_warning=np_ratio < 10.0,
        mean_dist_sq=f"{mean_d2.numerator}/{mean_d2.denominator}",
        mean_dist_sq_float=float(mean_d2),
    )
