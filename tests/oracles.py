"""Independent brute-force oracles for the test suite.

Nothing here reuses the closed forms under test: traces come from literal
Galois-conjugate summation, distances from the trace-embedding definition,
moments from literal deviation sums over full enumerations, and visibility
from a geometric segment walk.  The exhaustive vertex laws enumerate every
vertex pair (numpy int64 rows) or every vertex met by a point (`core.dist_sq`
on Python ints), not the states the reports count; `vertex_orbits` lists one
packed representative of each state, for the packed distance kernels to measure.
"""

import cmath
import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, groupby
from math import comb, prod

import numpy as np

from cyclobox import core, kernels
from cyclobox.concentration import IntervalSpec, within_sqrt_interval


def iter_vertex_coeffs(p, N):
    return itertools.product((-N, N), repeat=p - 1)


def iter_box_coeffs(p, N):
    return itertools.product(range(-N, N + 1), repeat=p - 1)


def trace_by_conjugate_sum(p, coeffs):
    """Tr as the literal sum of Galois conjugates, reduced in Z[x]/Phi_p."""
    counts = [0] * p
    for k in range(1, p):
        for m, c in enumerate(coeffs, start=1):
            counts[(k * m) % p] += c
    t = counts[1]
    # an integer value forces equal weight on every primitive power
    assert all(counts[e] == t for e in range(1, p)), "conjugate sum not rational"
    return counts[0] - t


def trace_entry(p, coeffs, j):
    """Tr(alpha * w^j) via exponent shifting and conjugate summation."""
    shifted = [0] * p
    for m, c in enumerate(coeffs, start=1):
        shifted[(m + j) % p] += c
    c0 = shifted[0]  # w^0 = 1 = -(w + ... + w^(p-1))
    base = [shifted[e] - c0 for e in range(1, p)]
    return trace_by_conjugate_sum(p, base)


def psi_by_conjugates(p, coeffs):
    return tuple(trace_entry(p, coeffs, j) for j in range(1, p))


def norm_sq_by_psi(p, coeffs):
    return sum(e * e for e in psi_by_conjugates(p, coeffs))


def dist_sq_by_psi(p, a, b):
    return norm_sq_by_psi(p, tuple(y - x for x, y in zip(a, b)))


def exhaustive_point_moments(p, N, alpha_coeffs, dist_fn=None):
    """(mean, second moment about the mean) of d^2 over vertices, literal sums."""
    d2 = 4 * N * N * p * p * (p - 1)
    dist_fn = dist_fn or (lambda a, b: dist_sq_by_psi(p, a, b))
    vals = [
        Fraction(dist_fn(alpha_coeffs, v), d2) for v in iter_vertex_coeffs(p, N)
    ]
    mean = sum(vals, Fraction(0)) / len(vals)
    var = sum(((v - mean) ** 2 for v in vals), Fraction(0)) / len(vals)
    return mean, var


def exhaustive_pair_moments(p, N, dist_fn=None):
    """(mean, fourth moment, variance) of d^2 over ordered vertex pairs."""
    d2 = 4 * N * N * p * p * (p - 1)
    dist_fn = dist_fn or (lambda a, b: dist_sq_by_psi(p, a, b))
    verts = list(iter_vertex_coeffs(p, N))
    vals = [Fraction(dist_fn(a, b), d2) for a in verts for b in verts]
    mean = sum(vals, Fraction(0)) / len(vals)
    fourth = sum((v * v for v in vals), Fraction(0)) / len(vals)
    var = sum(((v - mean) ** 2 for v in vals), Fraction(0)) / len(vals)
    return mean, fourth, var


@lru_cache(maxsize=None)
def _pair_histogram_n1(p):
    v = np.array(list(iter_vertex_coeffs(p, 1)), dtype=np.int64)
    hist = Counter()
    for i in range(0, len(v), 64):
        diff = v[i : i + 64, None, :] - v[None, :, :]
        d2 = p * p * np.sum(diff * diff, axis=-1) - (p + 1) * np.sum(diff, axis=-1) ** 2
        vals, counts = np.unique(d2, return_counts=True)
        hist.update(dict(zip(vals.tolist(), counts.tolist())))
    return hist


def vertex_pair_histogram(p, N):
    """d^2 -> number of ordered vertex pairs at that d^2, every pair visited at N = 1
    in numpy row chunks; a vertex pair's difference, so its d^2 / N^2, is N-free."""
    return Counter({d2 * N * N: c for d2, c in _pair_histogram_n1(p).items()})


def point_vertex_histogram(p, N, alpha_coeffs):
    """d^2 -> number of vertices x with d^2(alpha, x) at that value, one
    `core.dist_sq` on Python ints per vertex."""
    alpha = core.CyclotomicInt(p, tuple(alpha_coeffs))
    return Counter(core.dist_sq(alpha, core.CyclotomicInt(p, v)) for v in iter_vertex_coeffs(p, N))


def vertex_orbits(box, apex=None):
    """Every vertex pair (no apex) or vertex met by `apex`, as (tuples, total, weights):
    a packed (K, words) tuple per orbit of tuples that share every d^2, the 2^(K dim)
    tuples in all, and the orbit sizes, in int64 while that total fits.  Pair orbit
    (a, b), for the a and b coordinates where x alone or y alone is +N, is x = bits
    [0, a), y = bits [a, a+b), of size C(n, a+b) C(a+b, a) 2^(n-a-b), n = dim.  Apex
    orbit (k_c) sets the first k_c of the m_c coordinates where alpha_j = c, for each
    value c, of size prod_c C(m_c, k_c).  `require_orbit_batch` runs before any row."""
    n, pack = box.dim, kernels._pack
    if apex is None:
        kernels.require_orbit_batch((n + 1) * (n + 2) // 2, 2, n)
        a, t = np.triu_indices(n + 1)  # every 0 <= a <= t = a + b <= n
        weights = [comb(n, j) * comb(j, i) << n - j for i, j in zip(a.tolist(), t.tolist())]
        prefix = np.bitwise_or.accumulate([pack([], n)] + [pack([j], n) for j in range(n)])
        tuples = np.stack([prefix[a], prefix[t] ^ prefix[a]], axis=1)
        return tuples, 1 << 2 * n, np.array(weights, dtype=kernels.exact_dtype(1 << 2 * n))
    value = apex.__getitem__  # classes: the coordinates of each value of alpha
    classes = [list(idx) for _, idx in groupby(sorted(range(n), key=value), key=value)]
    kernels.require_orbit_batch(prod(len(idx) + 1 for idx in classes), 1, n)
    rows, weights = pack([], n)[None], np.ones(1, dtype=kernels.exact_dtype(1 << n))
    for idx in classes:
        prefix = np.bitwise_or.accumulate([pack([], n)] + [pack([j], n) for j in idx])
        rows = (rows[:, None] | prefix).reshape(-1, rows.shape[1])
        m = len(idx)  # the sizes C(m, k), k = 0 .. m, one product each
        sizes = list(accumulate(range(m), lambda c, k: c * (m - k) // (k + 1), initial=1))
        weights = np.multiply.outer(weights, sizes).ravel()
    return rows[:, None], 1 << n, weights


def histogram_law(hist, p, N, center, eps):
    """(hits, trials, mean of d^2 / D) of a d^2 histogram, the hits within eps of
    sqrt(center) by the exact test `within_sqrt_interval`."""
    d2 = 4 * N * N * p * p * (p - 1)
    spec = IntervalSpec(center, eps)
    hits = sum(c for n, c in hist.items() if within_sqrt_interval(Fraction(n, d2), spec))
    trials = sum(hist.values())
    return hits, trials, Fraction(sum(n * c for n, c in hist.items()), trials * d2)


def dumb_cancellation_sums(p, N, alpha_coeffs):
    """Literal multi-index sums over the vertex set, no factoring at all."""
    verts = list(iter_vertex_coeffs(p, N))
    dim = p - 1
    a = alpha_coeffs
    lin = sum(a[j] * x[j] for x in verts for j in range(dim))
    quad = sum(
        a[j] * a[k] * x[j] * x[k]
        for x in verts
        for j in range(dim)
        for k in range(dim)
    )
    trace_quad = sum(
        a[j] * a[k] * x[m] * x[n]
        for x in verts
        for j in range(dim)
        for k in range(dim)
        for m in range(dim)
        for n in range(dim)
    )
    cubic = sum(
        x[j] * x[m] * x[n]
        for x in verts
        for j in range(dim)
        for m in range(dim)
        for n in range(dim)
    )
    quartic = sum(
        x[j] * x[k] * x[m] * x[n]
        for x in verts
        for j in range(dim)
        for k in range(dim)
        for m in range(dim)
        for n in range(dim)
    )
    return {
        "linear": lin,
        "quadratic": quad,
        "trace_quadratic": trace_quad,
        "cubic": cubic,
        "quartic": quartic,
    }


def segment_visibility_matrix(points):
    """visible[i, j] by walking segments: no third point of the set may be
    collinear with and strictly between points i and j.  Works in any
    dimension via proportionality of coordinates."""
    pts = np.asarray(points, dtype=np.int64)
    n, dim = pts.shape
    visible = np.zeros((n, n), dtype=bool)
    chunk = max(1, (1 << 20) // max(n * dim, 1))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for lo in range(0, len(pairs), chunk):
        block = pairs[lo : lo + chunk]
        ai = np.array([pts[i] for i, _ in block])
        bj = np.array([pts[j] for _, j in block])
        d = bj - ai                                   # (c, dim)
        w = pts[None, :, :] - ai[:, None, :]          # (c, n, dim)
        dot = np.einsum("cnd,cd->cn", w, d)
        dd = np.sum(d * d, axis=1)[:, None]
        between = (dot > 0) & (dot < dd)
        # w parallel to d: all 2x2 minors vanish
        parallel = np.ones(between.shape, dtype=bool)
        for r in range(dim):
            for s in range(r + 1, dim):
                parallel &= w[:, :, r] * d[:, s][:, None] == w[:, :, s] * d[:, r][:, None]
        blocked = np.any(between & parallel, axis=1)
        for (i, j), bad in zip(block, blocked):
            visible[i, j] = visible[j, i] = not bad
    return visible


def max_im_vertex(q, positive_real=True):
    """Brute-force north pole: maximal imaginary part, breaking ties by
    positive real part."""
    roots = np.exp(2j * np.pi * np.arange(1, q) / q)
    best = None
    for signs in itertools.product((-1, 1), repeat=q - 1):
        z = complex(np.dot(signs, roots))
        key = (round(z.imag, 9), round(z.real, 9) if positive_real else 0.0)
        if best is None or key > best[0]:
            best = (key, signs, z)
    return best[1], best[2]


def max_re_vertex(q):
    """Brute-force east pole: maximal real part; among ties, smallest |Im|."""
    roots = np.exp(2j * np.pi * np.arange(1, q) / q)
    best = None
    for signs in itertools.product((-1, 1), repeat=q - 1):
        z = complex(np.dot(signs, roots))
        key = (round(z.real, 9), -abs(round(z.imag, 9)))
        if best is None or key > best[0]:
            best = (key, signs, z)
    return best[1], best[2]


def north_pole_by_coefficient(q, N):
    """North pole signs one coefficient at a time: +N for j <= (q-1)/2 at odd
    q, +N for 2j < q at even q, else -N."""
    if q % 2 == 1:
        return tuple(N if j <= (q - 1) // 2 else -N for j in range(1, q))
    return tuple(N if 2 * j < q else -N for j in range(1, q))


def east_pole_by_coefficient(q, N):
    """East pole signs one coefficient at a time: +N for j <= q/4 or j > 3q/4,
    and +N at j = 3q/4 when 4 divides q, else -N."""
    lo, hi = q // 4, (3 * q) // 4
    signs = [N if j <= lo or j > hi else -N for j in range(1, q)]
    if q % 4 == 0:
        signs[3 * q // 4 - 1] = N
    return tuple(signs)


def embed_by_direct_sum(coeffs, q):
    """sum a_j * exp(2*pi*i*j/q), one Python complex term at a time."""
    return sum(a * cmath.exp(2j * cmath.pi * j / q) for j, a in enumerate(coeffs, start=1))
