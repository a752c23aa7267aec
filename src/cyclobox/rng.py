"""Counter-based deterministic random streams.

Every random word is a pure function of (seed, stream, counter), built from
three chained splitmix64 finalizer rounds.  A sampled point owns one stream
(its global sample index), so a run partitioned across any number of workers
reproduces the same points bit-for-bit: workers only decide who evaluates
which indices.

Rejection sampling for bounded integers burns counters, never state: the
counter of coefficient j at retry t is j + dim*t, so retries stay inside the
point's own stream.
"""

from __future__ import annotations

import numpy as np

from .core import GuardError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

_U = np.uint64


def _mix64(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> _U(30))
    z = z * _MIX1
    z = z ^ (z >> _U(27))
    z = z * _MIX2
    return z ^ (z >> _U(31))


def words(seed: int, stream, counter) -> np.ndarray:
    """64-bit words indexed by (stream, counter); broadcasting applies."""
    stream = np.asarray(stream, dtype=np.uint64)
    counter = np.asarray(counter, dtype=np.uint64)
    with np.errstate(over="ignore"):
        s = _mix64(np.asarray(_U(seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN))
        z = _mix64(s + (stream + _U(1)) * _GOLDEN)
        return _mix64(z + (counter + _U(1)) * _GOLDEN)


def vertex_signs(seed: int, first_stream: int, count: int, dim: int) -> np.ndarray:
    """(count, dim) array of +-1 signs; point i uses stream first_stream+i."""
    nwords = (dim + 63) // 64
    streams = (np.arange(count, dtype=np.uint64) + _U(first_stream))[:, None]
    ctrs = np.arange(nwords, dtype=np.uint64)[None, :]
    w = words(seed, streams, ctrs)
    bytes_le = w.astype("<u8").reshape(count, nwords).view(np.uint8)
    bits = np.unpackbits(bytes_le, axis=1, bitorder="little")[:, :dim]
    return bits.astype(np.int64) * 2 - 1


def box_offsets_at(seed: int, streams, dim: int, N: int) -> np.ndarray:
    """(len(streams), dim) array of integers uniform on [-N, N], unbiased.

    Draws the smallest power-of-two superset of {0, ..., 2N} per coefficient
    and rejects overshoots, retrying with fresh counters within the stream.
    Each draw is one 64-bit word, so 2N + 1 may not exceed 2^64.
    """
    m = 2 * N + 1
    if m > 1 << 64:
        raise GuardError(f"box draws take one 64-bit word per coefficient; 2N+1 = {m} > 2^64")
    streams = np.asarray(streams, dtype=np.uint64)
    count = len(streams)
    nbits = m.bit_length()
    mask = _U((1 << nbits) - 1)
    streams_f = np.repeat(streams, dim)
    coeff = np.tile(np.arange(dim, dtype=np.uint64), count)
    vals = words(seed, streams_f, coeff) & mask
    bad = vals >= _U(m)
    attempt = 1
    while bad.any():
        idx = np.nonzero(bad)[0]
        with np.errstate(over="ignore"):
            ctrs = coeff[idx] + _U(attempt * dim)
        vals[idx] = words(seed, streams_f[idx], ctrs) & mask
        bad[idx] = vals[idx] >= _U(m)
        attempt += 1
    return vals.astype(np.int64).reshape(count, dim) - N


def box_offsets(seed: int, first_stream: int, count: int, dim: int, N: int) -> np.ndarray:
    """(count, dim) array, point i drawn from stream first_stream + i."""
    return box_offsets_at(seed, np.arange(count, dtype=np.uint64) + _U(first_stream), dim, N)
