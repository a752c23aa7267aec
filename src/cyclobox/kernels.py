"""The arithmetic every report shares: one distance kernel, one overflow
policy, one chunk runner and one edge-spec sampling engine.

Overflow policy: each array step knows a bound on every value it makes;
`exact_dtype` picks int64 when the bound fits and Python ints (object
arrays) when it does not, and `lift` promotes an operand just before the
first step that could wrap.  `exact_sum` adds int64 pieces whose totals
provably fit.  The kernel is d^2 = p^2 q - (p+1) s^2 with q = sum(d_j^2) and
s = sum(d_j) of a difference d.  Coefficient rows reduce d directly, on the
path `arithmetic_path` picks: all in int64 while d^2 fits; in two int64 limbs
d = h 2^k + l while the limb sums fit, lifting only the row sums; else in
Python ints.  Vertices stay packed sign words (bit j set: coordinate j is +N),
and q and s come from popcounts of whole rows.  `tally` runs an `EdgeSpec`
through `run_chunks`, a draw in chunks of samples and a sweep in slabs of rows
(a pair slab sized so all its per-pair temporaries fit one batch); chunks
depend only on the sample or row count and the row width, so tallies are the
same for any worker count.  Chunks of sampled packed vertices run on the
calling thread: each holds about 1/64 of the words its row width claims, and its
short numpy steps lose more to GIL handoffs between two threads than the
second thread saves.  Kernel steps scale and subtract in place, but only into
temporaries they made (`_combine` into its q and s), never into an argument
or an array `lift` passed through: a fresh temporary per step faults its
pages in again whenever glibc has trimmed the heap since the last one
(`vertex_dist_sq` on one 256 x 1024 exhaustive T5 slab at p = 11 took 2,080
minor faults and 9-10 ms with fresh temporaries, 1,056 and 5.4 ms without, on
a 2-core x86-64 machine).
The oracles visit no pairs: `pair_totals` reads the exact totals
of d^2 and d^4 from per-point sums.  A fixed point meets vertex rows only as a
`PackedApex` and its mask sums, for `tally`'s apex legs (exhaustive T4 among them),
the oracle's point moments, the angles and the cancellation sums; only the
renderer unpacks vertices to coefficients (`vertex_matrix`).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

import numpy as np

from . import rng
from .core import BoxSpec, GuardError, require_vertex_enumeration

INT64_MAX = 2 ** 63 - 1
APEX = -1  # edge endpoint that stands for the spec's fixed apex
PAIR_SWEEP_MAX = 1 << 24  # ordered pairs an exhaustive pair sweep may visit
EDGE_MAX = 1 << 16  # edges of one K-polytope, one kernel pass per chunk each: K <= 362

_BATCH_ELEMENTS = 1 << 21  # per-batch int64 budget, ~16 MB per temporary
_PAIR_TEMPORARIES = 8  # int64 values per pair that a pair slab's kernel pass holds at once


# --- overflow policy ------------------------------------------------------------

def exact_dtype(bound: int):
    """int64 when every value of a step is provably within it, else Python ints."""
    return np.int64 if bound <= INT64_MAX else object


def lift(a: np.ndarray, bound: int) -> np.ndarray:
    """`a`, as Python ints if a step bounded by `bound` could wrap in int64."""
    if a.dtype == object or exact_dtype(bound) is np.int64:
        return a
    return a.astype(object)


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


def _combine(p: int, q, s):
    """d^2 = p^2 q - (p+1) s^2 from q = sum(d_j^2) and s = sum(d_j) of a difference d.
    It scales and subtracts in place, into q and s, so both must be temporaries the
    caller made: never a kernel's argument, nor an array `lift` passed through."""
    q *= p * p
    s *= s
    s *= p + 1
    q -= s
    return q


def _limb_bits(m: int) -> int:
    """k = ceil(bitlen(m) / 2), so d = h 2^k + l with |d| <= m has |h| <= 2^k, 0 <= l < 2^k."""
    return (m.bit_length() + 1) // 2


def arithmetic_path(p: int, dim: int, m: int) -> str:
    """How `dist_sq` reduces `dim` differences with |d_j| <= m: "int64" while d^2 fits
    int64, "limbs" while the int64 sums of h^2, hl and l^2 over the limbs of d do
    (dim 2^(2k) <= INT64_MAX), else "object" (Python ints)."""
    if dist_sq_bound(p, dim, m) <= INT64_MAX:
        return "int64"
    if dim << 2 * _limb_bits(m) <= INT64_MAX:
        return "limbs"
    return "object"


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...j,...j->...", a, b)


def dist_sq(p: int, x: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """Exact d^2(x, y) over the broadcast rows of x and y, given |x_j - y_j| <= m.
    On the "limbs" path q = (sum h^2 << 2k) + (sum hl << k+1) + sum l^2, and only
    these row sums and s become Python ints."""
    dim = x.shape[-1]
    bound = dist_sq_bound(p, dim, m)
    if arithmetic_path(p, dim, m) == "limbs":
        diff = x - y
        k = _limb_bits(m)
        s = lift(np.einsum("...j->...", diff), bound)
        low = diff & ((1 << k) - 1)
        high = diff
        high >>= k  # in place: diff is this call's own, and s is already summed
        hh, hl, ll = (lift(_row_dot(a, b), bound) for a, b in ((high, high), (high, low), (low, low)))
        hh <<= 2 * k
        hl <<= k + 1
        hh += hl
        hh += ll
        return _combine(p, hh, s)
    diff = lift(lift(x, m) - y, bound)
    return _combine(p, _row_dot(diff, diff), np.einsum("...j->...", diff))


def popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each packed row (the last axis), as int64."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


def vertex_dist_sq(box: BoxSpec, x: np.ndarray, y: np.ndarray,
                   pcx: np.ndarray, pcy: np.ndarray) -> np.ndarray:
    """Exact d^2 between the broadcast rows of packed vertices x and y, given their
    popcounts: d_j is 0 or +-2N, so q = 4N^2 pc(x ^ y) and s = 2N (pc(x) - pc(y))."""
    N = box.N
    bound = dist_sq_bound(box.p, box.dim, 2 * N)
    q = lift(popcount(x ^ y), bound)
    q *= 4 * N * N
    s = lift(pcx - pcy, bound)
    s *= 2 * N
    return _combine(box.p, q, s)


def _pack(indices: list, dim: int) -> np.ndarray:
    """The packed row whose set bits are `indices`."""
    bits = np.zeros(64 * ((dim + 63) // 64), dtype=np.uint8)
    bits[indices] = 1
    return np.packbits(bits, bitorder="little").view("<u8").astype(np.uint64)


class PackedApex:
    """A fixed point alpha of `box`, in the one form that meets packed vertices x.  With
    E = sum alpha_j^2, T = sum alpha_j and alpha = sum_c c * 1[M_c] over masks M_c, the
    sum of alpha_j over the set bits of x is L(x) = sum_c c pc(x & M_c), and d = x - alpha
    has q = N^2 dim + E + 2NT - 4N L(x) and s = N (2 pc(x) - dim) - T.
    The masks are one per distinct nonzero alpha_j, or one per sign and bit of
    |alpha_j| when that takes fewer, so no alpha needs more than 2 bitlen(max |alpha_j|);
    the bit masks are read off the distinct values, not every coefficient."""

    def __init__(self, box: BoxSpec, coeffs: tuple):
        N, dim = box.N, box.dim
        self.box = box
        self.bound = dist_sq_bound(box.p, dim, N + max(abs(c) for c in coeffs))
        trace = sum(coeffs)
        self.q0 = N * N * dim + sum(c * c for c in coeffs) + 2 * N * trace
        self.s0 = N * dim + trace
        by_value, by_bit = {}, {}
        for j, c in enumerate(coeffs):
            if c:
                by_value.setdefault(c, []).append(j)
        for c, idx in by_value.items():
            for k in range(abs(c).bit_length()):
                if abs(c) >> k & 1:
                    by_bit.setdefault((1 if c > 0 else -1) << k, []).extend(idx)
        terms = min(by_value, by_bit, key=len)
        self.terms = [(c, _pack(idx, dim)) for c, idx in terms.items()]

    def mask_sum(self, x: np.ndarray, start: int, weight: int):
        """start + weight * L(x) over packed rows x, exact while |start| + |weight| sum_j
        |alpha_j| <= bound; just `start`, a scalar, when alpha = 0 has no masks."""
        total = start
        for c, mask in self.terms:
            term = lift(popcount(x & mask), self.bound)
            term *= weight * c
            term += total
            total = term
        return total

    def dist_sq(self, x: np.ndarray, pcx: np.ndarray) -> np.ndarray:
        """Exact d^2(x, alpha) over packed vertex rows x with popcounts pcx."""
        q = self.mask_sum(x, self.q0, -4 * self.box.N)
        s = lift(pcx, self.bound) * (2 * self.box.N)  # a new array: pcx is the caller's
        s -= self.s0
        return _combine(self.box.p, q, s)


def exact_sum(vals: np.ndarray, bound: int) -> int:
    """Exact total of `vals`, each at most `bound` in absolute value."""
    flat = np.ravel(vals)
    if flat.dtype == object:
        return int(np.sum(flat))
    step = max(1, INT64_MAX // max(bound, 1))
    return sum(int(np.sum(flat[i : i + step])) for i in range(0, flat.size, step))


def pair_totals(p: int, rows: np.ndarray, limit: int) -> tuple:
    """Exact totals of d^2 and d^4 over the n^2 ordered pairs of `rows`, given every
    |x_j| <= limit, from per-point sums in one pass over the rows: S1, S2, m, M and w
    of the identity stated in `moments`."""
    n, dim = rows.shape
    bound = dist_sq_bound(p, dim, limit)  # on Q(x) = d^2(x, 0)
    q = dist_sq(p, rows, 0, limit)
    sq = lift(q, bound * bound)
    s1, s2 = exact_sum(q, bound), exact_sum(sq * sq, bound * bound)
    x = lift(rows, n * bound * limit)  # bounds every entry of m, M and w
    # M by einsum, not x.T @ x: integer matmul has no BLAS path
    sums = (x.sum(axis=0), np.einsum("ij,ik->jk", x, x), lift(q, n * bound * limit) @ x)
    m, M, w = (a.astype(object) for a in sums)

    def form(u, v):  # u^T A v
        return p * p * int(u @ v) - (p + 1) * int(u.sum()) * int(v.sum())

    am = p * p * M - (p + 1) * M.sum(axis=0)  # (AM)_ij = p^2 M_ij - (p+1) sum_k M_kj
    return (2 * n * s1 - 2 * form(m, m),
            2 * n * s2 + 2 * s1 * s1 + 4 * int(np.sum(am * am.T)) - 8 * form(w, m))


def vertex_rows(dim: int) -> np.ndarray:
    """All 2^dim vertices as packed rows, in `BoxSpec.vertices()` order: row i is i,
    so bit j of i set means coordinate j is +N."""
    return np.arange(1 << dim, dtype=np.uint64)[:, None]


def vertex_matrix(dim: int, N: int) -> np.ndarray:
    """All 2^dim vertex coefficient rows, in `vertex_rows` order."""
    return scaled(rng.unpack_signs(vertex_rows(dim), dim), N)


def box_matrix(dim: int, N: int) -> np.ndarray:
    """All (2N+1)^dim box points in `BoxSpec.points()` order: the last coordinate varies fastest."""
    side = 2 * N + 1
    idx = np.arange(side ** dim, dtype=np.int64)[:, None]
    return idx // side ** np.arange(dim - 1, -1, -1, dtype=np.int64) % side - N


def box_vertex_rows(box: BoxSpec) -> np.ndarray:
    """The packed vertex rows of `box`, refused above the enumeration guard."""
    require_vertex_enumeration(box)
    return vertex_rows(box.dim)


def run_chunks(fn, total: int, workers: int, unit_dim: int = 1) -> list:
    """[fn(lo, hi)] over batches of [0, total) small enough to keep temporaries bounded.

    The split depends only on `total` and the row width, never on the worker
    count, and tallies are summed, so results are worker-count independent.
    This is the one place a thread pool is made.  Callers whose chunks are
    sampled packed vertices pass workers = 1: such a chunk is sized by its
    K * dim coefficients but holds K * ceil(dim / 64) words (2080 x 16 words,
    about 256 KB, at p = 1009), about 1/64 of the budget, and its 30-60 us numpy
    steps cost more in GIL handoffs between two threads than the second
    thread saves (the vertex-laws benchmark read 13-27 % slower at two workers
    than at one).
    """
    batch = max(1, _BATCH_ELEMENTS // max(unit_dim, 1))
    tasks = [(lo, min(lo + batch, total)) for lo in range(0, total, batch)]
    if workers <= 1 or len(tasks) <= 1:
        return [fn(*t) for t in tasks]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        futures = [ex.submit(fn, *t) for t in tasks]
        return [f.result() for f in futures]


def ordered_pairs(n: int) -> int:
    """The n^2 ordered pairs of an n-row sweep, refused past PAIR_SWEEP_MAX."""
    if n * n > PAIR_SWEEP_MAX:
        raise GuardError(f"refusing to sweep {n}^2 ordered pairs (limit {PAIR_SWEEP_MAX})")
    return n * n


def draw_vertices(box: BoxSpec, K: int, seed: int, start: int, stop: int) -> tuple:
    """Uniform vertices as packed sign words; member m of sample i reads stream K*i + m."""
    count = stop - start
    words = rng.vertex_words(seed, K * start, K * count, box.dim)
    return words.reshape(count, K, -1), count


def draw_box_points(box: BoxSpec, K: int, seed: int, start: int, stop: int) -> tuple:
    """Uniform box points; member m of sample i reads stream K*i + m."""
    count = stop - start
    pts = rng.box_offsets(seed, K * start, K * count, box.dim, box.N)
    return pts.reshape(count, K, box.dim), count


# --- engine -------------------------------------------------------------------------

def all_edges(K: int, intervals: tuple) -> tuple:
    """The C(K,2) edges of a K-polytope, each with the same intervals, refused past EDGE_MAX."""
    if K * (K - 1) // 2 > EDGE_MAX:
        raise GuardError(f"refusing a {K}-polytope: its C(K,2) edges pass the limit {EDGE_MAX}")
    return tuple((j, k, intervals) for j, k in combinations(range(K), 2))


@dataclass(frozen=True)
class EdgeSpec:
    """A distance law.  Each sample draws K points of `box`:
    draw(box, K, seed, start, stop) -> ((count, K, width) points, tuples drawn),
    where a point is `dim` coefficients, or packed sign words if uint64 (a vertex).
    In place of a draw, an (n, width) row matrix sweeps every ordered K-tuple of
    its rows once, slab by slab (K = 1 or 2; a K = 2 sweep joins only points 0 and 1).
    Edge (j, k, intervals) joins points j and k (k == APEX: the fixed `apex`, met
    as a `PackedApex`, so an apex leg needs the apex and vertex points) and must hit
    intervals[v] for verdict v; every edge lists one interval per verdict."""

    box: BoxSpec
    K: int
    draw: Callable
    edges: tuple
    apex: Optional[tuple] = None


@dataclass(frozen=True)
class Tally:
    hits: tuple    # per verdict: samples whose every edge hits its interval
    attempts: int  # K-tuples drawn or swept, rejected ones included
    d2_sum: int    # exact total of d^2 over all edges of all samples


def tally(spec: EdgeSpec, seed: int, total: int, workers: int) -> Tally:
    """Run samples [0, total) of `spec` in chunks and merge their counts.
    A sweep draws no stream: `total` is its row count n, and its chunks are slabs
    of rows [lo, hi).  A K = 2 slab meets its own rows in both orders and, at
    weight 2 as d^2 is symmetric, the rows [0, lo), so the slabs visit each of the
    n^K ordered tuples once; `attempts` counts them, and PAIR_SWEEP_MAX bounds them.
    With s slabs that evaluates n^2 (s + 1) / (2s) pairs, so smaller slabs do less work.
    Chunks of `draw_vertices` run on the calling thread at any worker count (see
    `run_chunks`); box-point draws and sweep slabs fill the budget and use the pool."""
    box = spec.box
    p, d2 = box.p, box.diameter_sq()
    if spec.apex is None and any(k == APEX for _, k, _ in spec.edges):
        raise ValueError("an apex leg (k == APEX) needs the spec's apex, and it has none")
    apex = None if spec.apex is None else PackedApex(box, spec.apex)
    verdicts = len(spec.edges[0][2])
    plan = [(j, k, apex.bound if k == APEX else dist_sq_bound(p, box.dim, 2 * box.N),
             [iv.members(d2) for iv in ivs]) for j, k, ivs in spec.edges]

    def edge_dist_sq(members, pcs, j, k):
        if k == APEX:
            if pcs is None:
                raise ValueError("an apex leg needs vertex points (packed sign words)")
            return apex.dist_sq(members[j], pcs[j])
        if pcs is None:
            return dist_sq(p, members[j], members[k], 2 * box.N)
        return vertex_dist_sq(box, members[j], members[k], pcs[j], pcs[k])

    def work(members, attempts, weight=1):  # (attempts, d^2 total, *hits), each times weight
        pcs = [popcount(x) for x in members] if members[0].dtype == np.uint64 else None
        ok = [True] * verdicts
        d2_sum = 0
        for j, k, bound, ranges in plan:
            vals = edge_dist_sq(members, pcs, j, k)
            ok = [row & (vals >= lo) & (vals <= hi) for row, (lo, hi) in zip(ok, ranges)]
            d2_sum += exact_sum(vals, bound)
        hits = (int(np.count_nonzero(row)) for row in ok)
        return tuple(weight * n for n in (attempts, d2_sum, *hits))

    rows = spec.draw if isinstance(spec.draw, np.ndarray) else None
    unit_dim = spec.K * box.dim
    if rows is not None:
        if spec.K not in (1, 2):
            raise ValueError(f"a sweep visits single rows or ordered pairs, not K = {spec.K}")
        if spec.K == 2:  # all temporaries of a slab's pairs, together, fit one batch
            ordered_pairs(len(rows))
            unit_dim = _PAIR_TEMPORARIES * len(rows) * rows.shape[1]
        if total != len(rows):
            raise ValueError(f"a sweep runs once over its {len(rows)} rows, not {total}")

    def chunk(lo, hi):
        if rows is None:
            pts, attempts = spec.draw(box, spec.K, seed, lo, hi)
            return work([pts[:, m] for m in range(spec.K)], attempts)
        slab = rows[lo:hi]
        if spec.K == 1:
            return work((slab,), hi - lo)
        own = work((slab[:, None], slab[None, :]), (hi - lo) ** 2)
        if lo == 0:
            return own
        earlier = work((slab[:, None], rows[None, :lo]), (hi - lo) * lo, 2)
        return tuple(map(sum, zip(own, earlier)))

    if spec.draw is draw_vertices:
        workers = 1
    attempts, d2_sum, *hits = map(sum, zip(*run_chunks(chunk, total, workers, unit_dim)))
    return Tally(tuple(hits), attempts, d2_sum)
