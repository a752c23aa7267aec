"""The arithmetic every report shares: one distance kernel, one overflow
policy, one slice runner and one edge-spec sampling engine.

Overflow policy: each array step knows a bound on every value it makes;
`exact_dtype` picks int64 when the bound fits and Python ints (object
arrays) when it does not, and `lift` promotes an operand just before the
first step that could wrap.  `exact_sum` adds int64 pieces whose totals
provably fit.  The kernel is d^2 = p^2 q - (p+1) s^2 with q = sum(d_j^2) and
s = sum(d_j) of a difference d.  Coefficient rows reduce d directly, on the
path `arithmetic_path` picks: all in int64 while d^2 fits; in two int64 limbs
d = h 2^k + l while the limb sums fit, lifting only the row sums; else in
Python ints.  Vertices stay packed sign words (bit j set: coordinate j is +N),
and q and s come from popcounts of whole rows.  `tally`, the engine of every
sampled report, runs an `EdgeSpec` through `run_chunks`, a draw in slices of
samples that depend only on the sample count and the row width, so tallies are
the same for any worker count; an exhaustive law is one batch of
`vertex_orbits`, one tuple per orbit of tuples that share every d^2, weighted by
its size.  Slices of sampled packed vertices run on the calling thread (see
`run_chunks`).  Kernel steps scale and subtract in place, but only
into temporaries they made (`_combine` into its q and s), never into an argument
or an array `lift` passed through: a fresh temporary per step faults its pages
in again whenever glibc has trimmed the heap since the last one (`vertex_dist_sq`
on 2^18 vertex pairs at p = 11 took 2,080 minor faults and 9-10 ms with fresh
temporaries, 1,056 and 5.4 ms without, on a 2-core x86-64 machine).  A sampled
run makes no slice-sized array per slice: it owns `run_buffers`, a points buffer and
a scratch for its largest slice.  A packed-vertex slice draws its words into the
buffer and forms x ^ y and x & M_c in the scratch; a box-point slice draws its points
into the buffer through the scratch (`rng.box_offsets_at`), and `dist_sq` then forms
the differences and low limbs there, a block of `rng.block_rows(dim)` rows at a time.
Only the (count,) results, the uint8 bit counts and the draws' retry rounds are new.
A box-point slice holds 2 MB of points where the batch budget would allow 16 MB.
Buffer and scratch are one allocation: glibc then serves the next run's from the pages
this run frees, where two separate buffers are given back to the system and faulted
in again by every run (per warmed pass of the vertex-laws benchmark: 3,571 minor
faults with per-slice arrays, 1,052 with two buffers, 0 with one; of the exact
benchmark, whose box-pair cell had drawn fresh points: 1,532 before box-point runs
owned theirs, 2 after).  Pooled box-point slices take a set per slice running at
once.  `popcount` contracts the per-word bit counts in one einsum, for all K members
of a slice at once.
Every exact vertex law reads `vertex_orbits` and adds its weighted values with
`weighted_sum`: exhaustive T4 and T5 in `tally`, the moment oracle and the
cancellation sums; only the renderer lists every vertex (`vertex_matrix`).  A
fixed point meets vertex rows only as a `PackedApex` and its mask sums, for apex
legs (the angles' among them), point moments and the cancellation sums.  The
box-pair oracle visits no pairs: `pair_totals` reads the exact d^2 total from
per-point sums.
"""

from __future__ import annotations

import os
from collections import defaultdict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import accumulate, combinations, groupby
from math import comb, prod
from typing import Callable, Optional

import numpy as np

from . import rng
from .core import BoxSpec, GuardError

INT64_MAX = 2 ** 63 - 1
APEX = -1  # edge endpoint that stands for the spec's fixed apex
EDGE_MAX = 1 << 16  # edges of one K-polytope, one kernel pass per slice each: K <= 362

_BATCH_ELEMENTS = 1 << 21  # per-batch int64 budget, ~16 MB per temporary
_SLICE_WORDS = 1 << 18  # words of samples in one slice, 2 MB: an L2's worth


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


def dist_sq(p: int, x: np.ndarray, y, m: int,
            scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact d^2(x, y) over the broadcast rows of x and y, given |x_j - y_j| <= m.
    On the int64 and "limbs" paths the rows are reduced in blocks of
    `rng.block_rows(dim)` rows, each block's difference (and on the "limbs" path its
    low limbs) formed in `scratch`, a contiguous 8-byte array with room for two
    blocks, or in a new one; only the row sums are of the rows' size.  On the "limbs"
    path q = (sum h^2 << 2k) + (sum hl << k+1) + sum l^2, and only these row sums and
    s become Python ints."""
    dim = x.shape[-1]
    bound = dist_sq_bound(p, dim, m)
    path = arithmetic_path(p, dim, m)
    if path == "object":
        diff = lift(lift(x, m) - y, bound)
        return _combine(p, _row_dot(diff, diff), np.einsum("...j->...", diff))
    shape = np.broadcast_shapes(x.shape, np.shape(y))
    x, y = (np.broadcast_to(a, shape).reshape(-1, dim) for a in (x, y))
    count, step = len(x), rng.block_rows(dim)
    if scratch is None:
        scratch = np.empty(2 * min(count, step) * dim, dtype=np.int64)
    limbs, k = path == "limbs", _limb_bits(m)
    sums = np.empty((4 if limbs else 2, count), dtype=np.int64)  # s, then q or hh, hl, ll
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        diff, low = _into(scratch.view(np.int64), (2, hi - lo, dim))
        np.subtract(x[lo:hi], y[lo:hi], out=diff)
        np.einsum("ij->i", diff, out=sums[0, lo:hi])
        if limbs:
            np.bitwise_and(diff, (1 << k) - 1, out=low)
            diff >>= k  # the high limbs, in place: s is already summed
        products = ((diff, diff), (diff, low), (low, low)) if limbs else ((diff, diff),)
        for row, (a, b) in zip(sums[1:], products):
            np.einsum("ij,ij->i", a, b, out=row[lo:hi])
    if limbs:
        s, q, hl, ll = (lift(row, bound) for row in sums)
        q <<= 2 * k
        hl <<= k + 1
        q += hl
        q += ll
    else:
        s, q = sums
    return _combine(p, q, s).reshape(shape[:-1])


def popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each packed row (the last axis), as a new int64 array: one
    contraction of the per-word counts, which beats a `sum` over 1 to 32 words a row."""
    return np.einsum("...j->...", np.bitwise_count(words), dtype=np.int64)


def _into(scratch: Optional[np.ndarray], shape: tuple) -> Optional[np.ndarray]:
    """The first prod(shape) words of `scratch` as an array of `shape`, or None (a
    ufunc's `out` for a new array) when there is no scratch."""
    if scratch is None:
        return None
    return scratch.reshape(-1)[:prod(shape)].reshape(shape)


def vertex_dist_sq(box: BoxSpec, x: np.ndarray, y: np.ndarray,
                   pcx: np.ndarray, pcy: np.ndarray,
                   scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact d^2 between the broadcast rows of packed vertices x and y, given their
    popcounts: d_j is 0 or +-2N, so q = 4N^2 pc(x ^ y) and s = 2N (pc(x) - pc(y)).
    x ^ y is formed in `scratch` (a contiguous uint64 array with room for it) if given."""
    N = box.N
    bound = dist_sq_bound(box.p, box.dim, 2 * N)
    xor = np.bitwise_xor(x, y, out=_into(scratch, np.broadcast_shapes(x.shape, y.shape)))
    q = lift(popcount(xor), bound)
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
    the bit masks are read off the distinct values, not every coefficient.  One pass
    groups the coordinates by value; max |alpha_j|, T and E come from the groups."""

    def __init__(self, box: BoxSpec, coeffs: tuple):
        N, dim = box.N, box.dim
        self.box = box
        by_value = defaultdict(list)  # value c -> the coordinates j with alpha_j = c
        for j, c in enumerate(coeffs):
            by_value[c].append(j)
        self.bound = dist_sq_bound(box.p, dim, N + max(map(abs, by_value)))
        trace = sum(c * len(idx) for c, idx in by_value.items())
        energy = sum(c * c * len(idx) for c, idx in by_value.items())
        self.q0 = N * N * dim + energy + 2 * N * trace
        self.s0 = N * dim + trace
        by_value.pop(0, None)
        by_bit = {}
        for c, idx in by_value.items():
            for k in range(abs(c).bit_length()):
                if abs(c) >> k & 1:
                    by_bit.setdefault((1 if c > 0 else -1) << k, []).extend(idx)
        terms = min(by_value, by_bit, key=len)
        self.terms = [(c, _pack(idx, dim)) for c, idx in terms.items()]

    def mask_sum(self, x: np.ndarray, start: int, weight: int,
                 scratch: Optional[np.ndarray] = None):
        """start + weight * L(x) over packed rows x, exact while |start| + |weight| sum_j
        |alpha_j| <= bound; just `start`, a scalar, with x unread, when alpha = 0 has no
        masks.  Each x & M_c is formed in `scratch` (as for `vertex_dist_sq`) if given."""
        total = start
        for c, mask in self.terms:
            masked = np.bitwise_and(x, mask, out=_into(scratch, x.shape))
            term = lift(popcount(masked), self.bound)
            term *= weight * c
            term += total
            total = term
        return total

    def dist_sq(self, x: np.ndarray, pcx: np.ndarray,
                scratch: Optional[np.ndarray] = None) -> np.ndarray:
        """Exact d^2(x, alpha) over packed vertex rows x with popcounts pcx; `scratch`
        as for `mask_sum`.  For alpha = 0 it reads only pcx: x may be None."""
        q = self.mask_sum(x, self.q0, -4 * self.box.N, scratch)
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


def weighted_sum(vals: np.ndarray, weights: np.ndarray, total: int, bound: int) -> int:
    """Exact sum of w v over `vals` and nonnegative `weights` that total `total`, each
    |v| <= `bound`: no partial sum passes total * bound."""
    return int(np.dot(lift(vals, total * bound), lift(weights, total * bound)))


def pair_totals(p: int, rows: np.ndarray, limit: int) -> int:
    """Exact total of d^2 over the n^2 ordered pairs of `rows`, given every
    |x_j| <= limit, from per-point sums in one pass over the rows: with
    d^2(x, y) = Q(x - y), Q(v) = v^T A v and A = p^2 I - (p+1) J, it is
    2n S1 - 2 m^T A m for S1 = sum Q(x) and m = sum x."""
    n, dim = rows.shape
    s1 = exact_sum(dist_sq(p, rows, 0, limit), dist_sq_bound(p, dim, limit))
    m = lift(rows, n * limit).sum(axis=0).tolist()
    return 2 * n * s1 - 2 * (p * p * sum(v * v for v in m) - (p + 1) * sum(m) ** 2)


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


def _slice(K: int, dim: int, packed: bool) -> int:
    """Samples in a full slice of `run_chunks`: at most _BATCH_ELEMENTS coefficients of
    K dim each and _SLICE_WORDS words, at least one sample.  A box-point sample holds
    K dim int64 words, a packed-vertex sample K ceil(dim/64) uint64 words."""
    width = (dim + 63) // 64 if packed else dim
    return max(1, min(_BATCH_ELEMENTS // max(K * dim, 1), _SLICE_WORDS // max(K * width, 1)))


def run_chunks(fn, total: int, workers: int, K: int, dim: int, packed: bool) -> list:
    """[fn(lo, hi)] over the slices of [0, total), in order.

    Slices, `_slice` samples of K points each but the last, are the pool's tasks, and
    their split depends only on `total` and the row width.  Tallies are exact sums
    over samples that read their own streams, so results do not depend on the worker
    count or the split.  This is the one place a thread pool is made.  Callers whose
    slices are sampled packed vertices pass workers = 1: such a slice is sized by its
    K * dim coefficients but holds K * ceil(dim / 64) words (2080 x 16 words, about
    256 KB, at p = 1009), about 1/64 of the budget, and its 30-60 us numpy steps cost
    more in GIL handoffs between two threads than the second thread saves (the
    vertex-laws benchmark read 13-27 % slower at two workers than at one).  Box-point
    slices hold up to `_SLICE_WORDS` int64 coefficients and keep the pool.  Each
    running slice holds its own set of `run_buffers`, so no slice allocates an array
    of its size.  The pool has at most one thread per core (`os.cpu_count`): a thread
    more gains nothing and holds another set, about 3 MB at p = 1009, so any worker
    count is safe.  At most workers + 1 slices wait to be read, so the pending tasks,
    about 1.5 KB each, do not grow with `total`.
    """
    step = _slice(K, dim, packed)
    spans = ((lo, min(lo + step, total)) for lo in range(0, total, step))
    if workers <= 1 or total <= step:
        return [fn(*span) for span in spans]
    workers = min(workers, os.cpu_count() or 1)
    parts, pending = [], deque()
    with ThreadPoolExecutor(max_workers=workers) as ex:
        for span in spans:
            pending.append(ex.submit(fn, *span))
            if len(pending) > workers:
                parts.append(pending.popleft().result())
        parts += [future.result() for future in pending]
    return parts


def run_buffers(total: int, K: int, dim: int, packed: bool) -> tuple:
    """The points buffer and scratch of a run of samples [0, total) of K points, sized
    for the largest slice `run_chunks` makes of it.  Packed vertices (`packed`) get a
    words buffer and a scratch of a row of ceil(dim/64) words for every vertex of that
    slice; box points get an int64 points buffer of a row of `dim` for every point and
    a scratch of two blocks of `rng.block_rows(dim)` rows, the work area of the draw
    and then of `dist_sq`.  The run makes them when it starts, hands them to every
    slice and drops them when it returns.  Each pair is the two parts of one
    allocation, so that a run reuses the pages the last run freed (see the module
    docstring)."""
    rows = K * min(total, _slice(K, dim, packed))
    if packed:
        words, scratch = np.empty((2, rows, (dim + 63) // 64), dtype=np.uint64)
        return words, scratch
    size = rows * dim
    block = np.empty(size + 2 * min(rows, rng.block_rows(dim)) * dim, dtype=np.uint64)
    return block[:size].view(np.int64).reshape(rows, dim), block[size:]


def draw_vertices(box: BoxSpec, K: int, seed: int, start: int, stop: int,
                  out: Optional[np.ndarray] = None,
                  scratch: Optional[np.ndarray] = None) -> tuple:
    """Uniform vertices as packed sign words; member m of sample i reads stream K*i + m.
    With the `run_buffers` of the run, the words are a view of `out`."""
    count = stop - start
    words = rng.vertex_words(seed, K * start, K * count, box.dim, out, scratch)
    return words.reshape(count, K, -1), count


def draw_box_points(box: BoxSpec, K: int, seed: int, start: int, stop: int,
                    out: Optional[np.ndarray] = None,
                    scratch: Optional[np.ndarray] = None) -> tuple:
    """Uniform box points; member m of sample i reads stream K*i + m.  With the
    `run_buffers` of the run, the points are a view of `out`, drawn through `scratch`."""
    count = stop - start
    pts = rng.box_offsets(seed, K * start, K * count, box.dim, box.N, out, scratch)
    return pts.reshape(count, K, box.dim), count


def require_orbit_batch(count: int, K: int, dim: int) -> None:
    """Refuse `count` orbit tuples of K packed vertices that do not fit one batch."""
    if count * K * ((dim + 63) // 64) > _BATCH_ELEMENTS:
        raise GuardError(f"refusing {count} orbits of {K} vertices (limit {_BATCH_ELEMENTS} words)")


def vertex_orbits(box: BoxSpec, apex: Optional[tuple] = None) -> tuple:
    """Every vertex pair (no apex) or vertex met by `apex`, as (tuples, total, weights):
    a packed (K, words) tuple per orbit of tuples that share every d^2, the 2^(K dim)
    tuples in all, and the orbit sizes, in int64 while that total fits.  Pair orbit
    (a, b), for the a and b coordinates where x alone or y alone is +N, is x = bits
    [0, a), y = bits [a, a+b), of size C(n, a+b) C(a+b, a) 2^(n-a-b), n = dim.  Apex
    orbit (k_c) sets the first k_c of the m_c coordinates where alpha_j = c, for each
    value c, of size prod_c C(m_c, k_c).  `require_orbit_batch` runs before any row."""
    n = box.dim
    if apex is None:
        require_orbit_batch((n + 1) * (n + 2) // 2, 2, n)
        a, t = np.triu_indices(n + 1)  # every 0 <= a <= t = a + b <= n
        weights = [comb(n, j) * comb(j, i) << n - j for i, j in zip(a.tolist(), t.tolist())]
        prefix = np.bitwise_or.accumulate([_pack([], n)] + [_pack([j], n) for j in range(n)])
        tuples = np.stack([prefix[a], prefix[t] ^ prefix[a]], axis=1)
        return tuples, 1 << 2 * n, np.array(weights, dtype=exact_dtype(1 << 2 * n))
    value = apex.__getitem__  # classes: the coordinates of each value of alpha
    classes = [list(idx) for _, idx in groupby(sorted(range(n), key=value), key=value)]
    require_orbit_batch(prod(len(idx) + 1 for idx in classes), 1, n)
    rows, weights = _pack([], n)[None], np.ones(1, dtype=exact_dtype(1 << n))
    for idx in classes:
        prefix = np.bitwise_or.accumulate([_pack([], n)] + [_pack([j], n) for j in idx])
        rows = (rows[:, None] | prefix).reshape(-1, rows.shape[1])
        m = len(idx)  # the sizes C(m, k), k = 0 .. m, one product each
        sizes = list(accumulate(range(m), lambda c, k: c * (m - k) // (k + 1), initial=1))
        weights = np.multiply.outer(weights, sizes).ravel()
    return rows[:, None], 1 << n, weights


# --- engine -------------------------------------------------------------------------

def all_edges(K: int, intervals: tuple) -> tuple:
    """The C(K,2) edges of a K-polytope, each with the same intervals, refused past EDGE_MAX."""
    if K * (K - 1) // 2 > EDGE_MAX:
        raise GuardError(f"refusing a {K}-polytope: its C(K,2) edges pass the limit {EDGE_MAX}")
    return tuple((j, k, intervals) for j, k in combinations(range(K), 2))


@dataclass(frozen=True)
class EdgeSpec:
    """A distance law.  Each sample draws K points of `box`:
    draw(box, K, seed, start, stop, out, scratch) -> ((count, K, width) points,
    tuples drawn), where a point is `dim` coefficients, or packed sign words if
    uint64 (a vertex, drawn only by `draw_vertices`), and out and scratch are the
    run's `run_buffers`.
    In place of a draw, the (tuples, total, weights) of `vertex_orbits` give the exact law.
    Edge (j, k, tests) joins points j and k (k == APEX: the fixed `apex`, met as a
    `PackedApex`, so an apex leg needs the apex and vertex points) and must pass
    tests[v] for verdict v; every edge lists one test per verdict.  A test is an
    interval, anything with the `IntervalSpec.members` of d^2 numerators, or a
    predicate (d^2 values, popcounts of point j or None for box points) -> hit mask."""

    box: BoxSpec
    K: int
    draw: Callable | tuple
    edges: tuple
    apex: Optional[tuple] = None


@dataclass(frozen=True)
class Tally:
    hits: tuple    # per verdict: samples whose every edge hits its interval
    attempts: int  # K-tuples drawn, rejected ones included, or the orbits' weight
    d2_sum: int    # exact total of d^2 over all edges of all samples


def _in_range(lo: int, hi: int) -> Callable:
    """The predicate of an interval whose d^2 numerators are [lo, hi]."""
    return lambda vals, pcs: (vals >= lo) & (vals <= hi)


def tally(spec: EdgeSpec, seed: int, total: int, workers: int) -> Tally:
    """Run samples [0, total) of `spec`, the engine of every sampled report, in the
    slices of `run_chunks` and sum their tallies.  The (tuples, total, weights) of
    `vertex_orbits` run as one batch, so seed, total and workers do not matter, and a
    tuple of weight w counts w hits and w d^2.  Before any draw the plan refuses an
    apex leg without an apex or over box points, and makes each interval a predicate.
    A sampled slice draws into, and its kernels work in, a set of `run_buffers` that
    no other running slice holds: the run makes one, a slice that finds every set
    held makes another.  Slices of `draw_vertices` run on the calling thread (see
    `run_chunks`); box-point slices use the pool."""
    box = spec.box
    p, d2 = box.p, box.diameter_sq()
    drawn = callable(spec.draw)
    packed = spec.draw is draw_vertices if drawn else spec.draw[0].dtype == np.uint64
    if any(k == APEX for _, k, _ in spec.edges):
        if spec.apex is None:
            raise ValueError("an apex leg (k == APEX) needs the spec's apex, and it has none")
        if not packed:
            raise ValueError("an apex leg needs vertex points (packed sign words)")
    apex = None if spec.apex is None else PackedApex(box, spec.apex)
    verdicts = len(spec.edges[0][2])
    plan = [(j, k, apex.bound if k == APEX else dist_sq_bound(p, box.dim, 2 * box.N),
             [test if callable(test) else _in_range(*test.members(d2)) for test in tests])
            for j, k, tests in spec.edges]

    # the run_buffers sets that no running slice holds: the run's own, made here, and
    # one more for each slice that finds them all held
    idle = [run_buffers(total, spec.K, box.dim, packed)] if drawn else []

    def edge_dist_sq(members, pcs, j, k, scratch):
        if k == APEX:
            return apex.dist_sq(members[j], pcs[:, j], scratch)
        if pcs is None:
            return dist_sq(p, members[j], members[k], 2 * box.N, scratch)
        return vertex_dist_sq(box, members[j], members[k], pcs[:, j], pcs[:, k], scratch)

    def work(pts, attempts, weights=None, scratch=None):  # (attempts, d^2 total, *hits)
        members = [pts[:, m] for m in range(pts.shape[1])]
        pcs = popcount(pts) if packed else None  # (count, K)
        ok = [True] * verdicts
        d2_sum = 0
        for j, k, bound, tests in plan:
            vals = edge_dist_sq(members, pcs, j, k, scratch)
            pcj = None if pcs is None else pcs[:, j]
            ok = [row & test(vals, pcj) for row, test in zip(ok, tests)]
            if weights is None:
                d2_sum += exact_sum(vals, bound)
            else:
                d2_sum += weighted_sum(vals, weights, attempts, bound)
        hits = (np.count_nonzero(row) if weights is None else np.sum(weights[row]) for row in ok)
        return (attempts, d2_sum, *map(int, hits))

    def one_slice(lo, hi):
        buffers = idle.pop() if idle else run_buffers(total, spec.K, box.dim, packed)
        try:
            return work(*spec.draw(box, spec.K, seed, lo, hi, *buffers), scratch=buffers[1])
        finally:
            idle.append(buffers)  # list pop and append are atomic: no lock

    if not drawn:
        parts = [work(*spec.draw)]
    else:  # packed-vertex slices run on the calling thread
        parts = run_chunks(one_slice, total, 1 if packed else workers, spec.K, box.dim, packed)
    attempts, d2_sum, *hits = map(sum, zip(*parts))
    return Tally(tuple(hits), attempts, d2_sum)
