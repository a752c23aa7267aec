"""The arithmetic every report shares: one distance kernel, one overflow
policy, one chunk runner and one edge-spec sampling engine.

Overflow policy: each array step knows a bound on every value it makes;
`exact_dtype` picks int64 when the bound fits and Python ints (object
arrays) when it does not, and `lift` promotes an operand just before the
first step that could wrap.  `exact_sum` adds int64 pieces whose totals
provably fit.  The kernel is d^2 = p^2 sum(d_j^2) - (p+1) (sum d_j)^2 of a
coefficient difference d; `tally` runs an `EdgeSpec` chunk by chunk, and
chunks depend only on the sample count and the row width, so tallies are
the same for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

import numpy as np

from . import rng
from .core import VERTEX_ENUM_MAX_P, BoxSpec, GuardError

INT64_MAX = 2 ** 63 - 1
APEX = -1  # edge endpoint that stands for the spec's fixed apex

_BATCH_ELEMENTS = 1 << 21  # per-batch int64 budget, ~16 MB per temporary


# --- overflow policy ------------------------------------------------------------

def exact_dtype(bound: int):
    """int64 when every value of a step is provably within it, else Python ints."""
    return np.int64 if bound <= INT64_MAX else object


def lift(a: np.ndarray, bound: int) -> np.ndarray:
    """`a`, as Python ints if a step bounded by `bound` could wrap in int64."""
    if a.dtype == object or exact_dtype(bound) is np.int64:
        return a
    return a.astype(object)


def coeff_array(coeffs) -> np.ndarray:
    """A fixed point's coefficients, int64 when every one of them fits."""
    return np.array(coeffs, dtype=exact_dtype(max(abs(c) for c in coeffs)))


def scaled(signs: np.ndarray, N: int) -> np.ndarray:
    """Vertex coefficients N * sign, exact for any N.  Scales `signs` in place
    where it can: a second array of a draw's size costs as much as the draw."""
    signs = lift(signs, N)
    signs *= N
    return signs


# --- distance kernel --------------------------------------------------------------

def dist_sq_bound(p: int, dim: int, m: int) -> int:
    """Bound on d^2 and on each of its intermediates when all |d_j| <= m."""
    return p * p * dim * m * m


def dist_sq(p: int, x: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """Exact d^2(x, y) over the broadcast rows of x and y, given |x_j - y_j| <= m."""
    x = lift(x, m)
    diff = lift(x - y, dist_sq_bound(p, x.shape[-1], m))
    q = np.sum(diff * diff, axis=-1)
    s = np.sum(diff, axis=-1)
    return p * p * q - (p + 1) * s * s


def exact_sum(vals: np.ndarray, bound: int) -> int:
    """Exact total of `vals`, each at most `bound` in absolute value."""
    flat = np.ravel(vals)
    if flat.dtype == object:
        return int(np.sum(flat))
    step = max(1, INT64_MAX // max(bound, 1))
    return sum(int(np.sum(flat[i : i + step])) for i in range(0, flat.size, step))


def power_sums(p: int, x: np.ndarray, y: np.ndarray, m: int) -> tuple:
    """Exact sums of d^2 and d^4 over the broadcast rows of x and y."""
    bound = dist_sq_bound(p, x.shape[-1], m)
    d2 = dist_sq(p, x, y, m)
    sq = lift(d2, bound * bound)
    return exact_sum(d2, bound), exact_sum(sq * sq, bound * bound)


def vertex_matrix(dim: int, N: int) -> np.ndarray:
    """All 2^dim vertices in `BoxSpec.vertices()` order: row i is +N where bit j of i is set."""
    masks = np.arange(1 << dim, dtype=np.int64)[:, None]
    bits = (masks >> np.arange(dim, dtype=np.int64)[None, :]) & 1
    return scaled(bits * 2 - 1, N)


def box_vertices(box: BoxSpec) -> np.ndarray:
    """The vertex matrix of `box`, refused above the enumeration guard."""
    if box.p > VERTEX_ENUM_MAX_P:
        raise GuardError(f"refusing to enumerate 2^{box.dim} vertices "
                         f"(p={box.p} > {VERTEX_ENUM_MAX_P})")
    return vertex_matrix(box.dim, box.N)


class IntervalTester:
    """Integer-only membership test for d^2 = n / d2 with fixed interval."""

    def __init__(self, spec, d2: int):
        a, e2 = spec.center_sq, spec.epsilon * spec.epsilon
        an, ad = a.numerator, a.denominator
        fn, fd = e2.numerator, e2.denominator
        self.c1 = ad * fd
        self.c0 = (an * fd - fn * ad) * d2
        self.c2 = 4 * an * ad * fd * fd * d2

    def member(self, n: int) -> bool:
        lhs = n * self.c1 + self.c0
        return lhs <= 0 or lhs * lhs <= self.c2 * n

    def mask(self, nvals: np.ndarray) -> np.ndarray:
        uniq, inv = np.unique(nvals, return_inverse=True)
        ok = np.array([self.member(int(u)) for u in uniq], dtype=bool)
        return ok[inv]


def run_chunks(fn, total: int, workers: int, unit_dim: int = 1) -> list:
    """[fn(lo, hi)] over batches of [0, total) small enough to keep temporaries bounded.

    The split depends only on `total` and the row width, never on the worker
    count, and tallies are summed, so results are worker-count independent.
    """
    batch = max(1, _BATCH_ELEMENTS // max(unit_dim, 1))
    ranges = [(lo, min(lo + batch, total)) for lo in range(0, total, batch)]
    if workers <= 1 or len(ranges) <= 1:
        return [fn(a, b) for a, b in ranges]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        futures = [ex.submit(fn, a, b) for a, b in ranges]
        return [f.result() for f in futures]


def draw_vertices(box: BoxSpec, K: int, seed: int, start: int, stop: int) -> tuple:
    """Uniform vertices; member m of sample i reads stream K*i + m."""
    count = stop - start
    signs = rng.vertex_signs(seed, K * start, K * count, box.dim)
    return scaled(signs, box.N).reshape(count, K, box.dim), count


def draw_box_points(box: BoxSpec, K: int, seed: int, start: int, stop: int) -> tuple:
    """Uniform box points; member m of sample i reads stream K*i + m."""
    count = stop - start
    pts = rng.box_offsets(seed, K * start, K * count, box.dim, box.N)
    return pts.reshape(count, K, box.dim), count


def draw_every_tuple(rows: np.ndarray) -> Callable:
    """A draw that enumerates K-tuples of `rows`: tuple i is the base-len(rows)
    digits of i, so samples [0, len(rows)^K) visit every tuple once."""
    n = len(rows)

    def draw(box: BoxSpec, K: int, seed: int, start: int, stop: int) -> tuple:
        idx = np.arange(start, stop)
        pts = np.stack([rows[(idx // n ** (K - 1 - m)) % n] for m in range(K)], axis=1)
        return pts, stop - start

    return draw


# --- engine -------------------------------------------------------------------------

def all_edges(K: int, intervals: tuple) -> tuple:
    """The C(K,2) edges of a K-polytope, each with the same intervals."""
    return tuple((j, k, intervals) for j, k in combinations(range(K), 2))


@dataclass(frozen=True)
class EdgeSpec:
    """A distance law.  Each sample draws K points of `box`:
    draw(box, K, seed, start, stop) -> ((count, K, dim) points, tuples drawn).
    Edge (j, k, intervals) joins points j and k (k == APEX: the fixed `apex`)
    and must hit intervals[v] for verdict v; every edge lists one interval
    per verdict.  With `keep_sums`, the exact total of all d^2 is kept."""

    box: BoxSpec
    K: int
    draw: Callable
    edges: tuple
    apex: Optional[tuple] = None
    keep_sums: bool = False


@dataclass(frozen=True)
class Tally:
    hits: tuple    # per verdict: samples whose every edge hits its interval
    attempts: int  # K-tuples drawn, rejected ones included
    d2_sum: int    # exact total of d^2 over all edges of all samples (keep_sums)


def tally(spec: EdgeSpec, seed: int, total: int, workers: int) -> Tally:
    """Run samples [0, total) of `spec` in chunks and merge their counts."""
    box = spec.box
    p, d2 = box.p, box.diameter_sq()
    apex = None if spec.apex is None else coeff_array(spec.apex)
    apex_max = 0 if spec.apex is None else max(abs(c) for c in spec.apex)
    verdicts = len(spec.edges[0][2])
    plan = [(j, k, box.N + (apex_max if k == APEX else box.N),
             [IntervalTester(iv, d2) for iv in ivs]) for j, k, ivs in spec.edges]

    def work(start, stop):
        pts, attempts = spec.draw(box, spec.K, seed, start, stop)
        ok = np.ones((verdicts, stop - start), dtype=bool)
        d2_sum = 0
        for j, k, m, testers in plan:
            vals = dist_sq(p, pts[:, j], apex if k == APEX else pts[:, k], m)
            for row, tester in zip(ok, testers):
                row &= tester.mask(vals)
            if spec.keep_sums:
                d2_sum += exact_sum(vals, dist_sq_bound(p, box.dim, m))
        return [int(h) for h in np.sum(ok, axis=1)], attempts, d2_sum

    hits, attempts, d2_sums = zip(*run_chunks(work, total, workers, spec.K * box.dim))
    return Tally(tuple(map(sum, zip(*hits))), sum(attempts), sum(d2_sums))
