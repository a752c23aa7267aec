"""Counter-based deterministic random streams.

Every random word is a pure function of (seed, stream, counter), built from
three chained splitmix64 finalizer rounds.  A sampled point owns one stream
(its global sample index), so a run partitioned across any number of workers
reproduces the same points bit-for-bit: workers only decide who evaluates
which indices.

The seed round is mixed once per seed.  The stream round keys a stream:
key = mix(seed_word + (stream+1)*G), a pure function of (seed, stream), with G
the golden-ratio constant.  The counter round draws from the key:
word = mix(key + (counter+1)*G).  This is the key/counter split of
counter-based generators (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC 2011); `words` composes the two rounds and stays the one public
definition of a word.

Rejection sampling for bounded integers burns counters, never state: the
counter of coefficient j at retry t is j + dim*t, so retries stay inside the
point's own stream.  Since key + (j + dim*t + 1)*G = base + t*(dim*G) (mod 2^64)
with base = key + (j+1)*G, `box_offsets_at` keys each stream once, and a retry
round adds one constant to the first round's keyed counters and runs the
counter round alone.  Its words are still words(seed, stream, j + dim*t), word
for word, though it does not call `words`.

Every round mixes its argument in place, through one reused shift buffer,
and returns it: a fresh temporary per step of a (count, dim) draw costs a page
fault per 4 KB whenever glibc has trimmed the heap since the last draw.  So
each caller hands the round an array of its own: `words` the sum it has just
formed, `box_offsets_at` a copy of its keyed counters, which the retry rounds
read again.
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
    """The splitmix64 finalizer, mixed into the uint64 array z in place through one
    shift buffer for all three shifts; returns z.  It wraps: callers hold np.errstate."""
    shifted = np.right_shift(z, _U(30), out=np.empty_like(z))  # an array even if z is 0-d
    z ^= shifted
    z *= _MIX1
    np.right_shift(z, _U(27), out=shifted)
    z ^= shifted
    z *= _MIX2
    np.right_shift(z, _U(31), out=shifted)
    z ^= shifted
    return z


def require_seed(seed: int) -> None:
    """Refuse a seed outside the 64 unsigned bits that key every stream."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")


@lru_cache(maxsize=64)
def _seed_word(seed: int) -> np.uint64:
    """The seed round of `words`, mixed once per seed."""
    require_seed(seed)
    with np.errstate(over="ignore"):
        return _mix64(np.asarray(_U(seed) + _GOLDEN))[()]


def _stream_keys(seed: int, stream) -> np.ndarray:
    """The stream round of `words`: the key of each stream, a function of (seed, stream)."""
    stream = np.asarray(stream, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix64(np.asarray(_seed_word(seed) + (stream + _U(1)) * _GOLDEN))


# The counter round of `words` on z = key + (counter+1)*G (mod 2^64), the one
# step every word passes through.  It mixes z in place, so each caller passes an
# array it owns and will not read again: `words` the sum it has just formed,
# `box_offsets_at` a copy of the keyed counters its retry rounds read again.
_counter_round = _mix64


def words(seed: int, stream, counter) -> np.ndarray:
    """64-bit words indexed by (stream, counter); broadcasting applies."""
    counter = np.asarray(counter, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _counter_round(np.asarray(_stream_keys(seed, stream) + (counter + _U(1)) * _GOLDEN))


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
    one 64-bit word, so 2N + 1 may not exceed 2^64.

    The words are those of `words`, word for word, though it is not called:
    each stream is keyed once, base = key + (j+1)*G holds the first round's
    keyed counters, and retry round t runs the counter round on
    base + t*(dim*G) for the still-rejected coefficients only.  The rows are
    evaluated in blocks of about _BLOCK_WORDS words, which changes no value.
    Against a retry round that keyed each redrawn word again through `words`,
    this took 20000 streams x 1008 coefficients at N = 1e4 from 0.88 s to 0.62 s
    on a shared 2-core x86-64 machine.
    """
    m = 2 * N + 1
    if m > 1 << 64:
        raise GuardError(f"box draws take one 64-bit word per coefficient; 2N+1 = {m} > 2^64")
    mask, over = _U((1 << m.bit_length()) - 1), _U(m)
    keys = _stream_keys(seed, streams)
    out = np.empty((len(keys), dim), dtype=np.int64)
    rows = max(1, _BLOCK_WORDS // max(dim, 1))
    with np.errstate(over="ignore"):
        steps = (np.arange(dim, dtype=np.uint64) + _U(1)) * _GOLDEN  # (j+1)*G
        stride = _U(dim) * _GOLDEN  # one retry's counter step, dim*G
        for lo in range(0, len(keys), rows):
            base = keys[lo : lo + rows, None] + steps
            vals = _counter_round(base.copy())  # the retries read base again
            vals &= mask
            base, flat = base.reshape(-1), vals.reshape(-1)
            idx = np.flatnonzero(flat >= over)  # the still-rejected coefficients
            shift = _U(0)
            while idx.size:
                shift += stride
                redrawn = base.take(idx)
                redrawn += shift
                redrawn = _counter_round(redrawn)
                redrawn &= mask
                flat[idx] = redrawn
                idx = idx.compress(redrawn >= over)
            np.subtract(vals.view(np.int64), N, out=out[lo : lo + rows])
    return out


def box_offsets(seed: int, first_stream: int, count: int, dim: int, N: int) -> np.ndarray:
    """(count, dim) array, point i drawn from stream first_stream + i."""
    return box_offsets_at(seed, np.arange(count, dtype=np.uint64) + _U(first_stream), dim, N)
