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

from functools import lru_cache

import numpy as np

from .core import GuardError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

_U = np.uint64

_BLOCK_WORDS = 1 << 16  # words per block of box draws: temporaries stay in cache


def _mix64(z: np.ndarray) -> np.ndarray:
    z = z ^ (z >> _U(30))
    z = z * _MIX1
    z = z ^ (z >> _U(27))
    z = z * _MIX2
    return z ^ (z >> _U(31))


def require_seed(seed: int) -> None:
    """Refuse a seed outside the 64 unsigned bits that key every stream."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")


@lru_cache(maxsize=64)
def _seed_word(seed: int) -> np.uint64:
    """The seed round of `words`, mixed once per seed."""
    require_seed(seed)
    with np.errstate(over="ignore"):
        return _mix64(_U(seed) + _GOLDEN)


def words(seed: int, stream, counter) -> np.ndarray:
    """64-bit words indexed by (stream, counter); broadcasting applies."""
    stream = np.asarray(stream, dtype=np.uint64)
    counter = np.asarray(counter, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = _mix64(_seed_word(seed) + (stream + _U(1)) * _GOLDEN)
        return _mix64(z + (counter + _U(1)) * _GOLDEN)


def vertex_words(seed: int, first_stream: int, count: int, dim: int) -> np.ndarray:
    """(count, ceil(dim/64)) packed sign words; point i uses stream first_stream+i.

    Bit j of a row (bit j % 64 of word j // 64) set means coordinate j is
    positive.  Bits past `dim` are cleared, so a row's popcount counts its
    positive coordinates.
    """
    nwords = (dim + 63) // 64
    streams = (np.arange(count, dtype=np.uint64) + _U(first_stream))[:, None]
    ctrs = np.arange(nwords, dtype=np.uint64)[None, :]
    w = words(seed, streams, ctrs).reshape(count, nwords)
    if dim % 64:
        w[:, -1] &= _U((1 << dim % 64) - 1)
    return w


def unpack_signs(packed: np.ndarray, dim: int) -> np.ndarray:
    """(count, dim) array of +-1 signs of (count, nwords) packed sign words."""
    bytes_le = packed.astype("<u8").view(np.uint8)
    bits = np.unpackbits(bytes_le, axis=1, bitorder="little")[:, :dim]
    return bits.astype(np.int64) * 2 - 1


def vertex_signs(seed: int, first_stream: int, count: int, dim: int) -> np.ndarray:
    """(count, dim) array of +-1 signs; point i uses stream first_stream+i."""
    return unpack_signs(vertex_words(seed, first_stream, count, dim), dim)


def box_offsets_at(seed: int, streams, dim: int, N: int) -> np.ndarray:
    """(len(streams), dim) array of integers uniform on [-N, N], unbiased.

    Draws the smallest power-of-two superset of {0, ..., 2N} per coefficient
    and rejects overshoots: coefficient j of a stream takes the first retry t
    whose word words(seed, stream, j + dim*t) falls in range.  Each draw is
    one 64-bit word, so 2N + 1 may not exceed 2^64.  The rows are evaluated
    in blocks of about _BLOCK_WORDS words, which changes no value.
    """
    m = 2 * N + 1
    if m > 1 << 64:
        raise GuardError(f"box draws take one 64-bit word per coefficient; 2N+1 = {m} > 2^64")
    streams = np.asarray(streams, dtype=np.uint64)
    mask = _U((1 << m.bit_length()) - 1)
    out = np.empty((len(streams), dim), dtype=np.int64)
    coeff = np.arange(dim, dtype=np.uint64)
    rows = max(1, _BLOCK_WORDS // max(dim, 1))
    for lo in range(0, len(streams), rows):
        block = streams[lo : lo + rows]
        vals = words(seed, block[:, None], coeff[None, :]) & mask
        flat = vals.reshape(-1)
        idx = np.flatnonzero(flat >= _U(m))  # the still-rejected coefficients
        t = 1
        while idx.size:
            row, j = np.divmod(idx, dim)
            redrawn = words(seed, block[row], j + t * dim) & mask
            flat[idx] = redrawn
            idx = idx[redrawn >= _U(m)]
            t += 1
        out[lo : lo + rows] = vals.view(np.int64) - N
    return out


def box_offsets(seed: int, first_stream: int, count: int, dim: int, N: int) -> np.ndarray:
    """(count, dim) array, point i drawn from stream first_stream + i."""
    return box_offsets_at(seed, np.arange(count, dtype=np.uint64) + _U(first_stream), dim, N)
