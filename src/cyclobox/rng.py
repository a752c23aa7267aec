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

Every round mixes its argument in place, through one shift buffer, and
returns it: a fresh temporary per step of a (count, dim) draw costs a page
fault per 4 KB whenever glibc has trimmed the heap since the last draw.  So
each caller hands the round an array of its own: `words` the sum it has just
formed, `box_offsets_at` a copy of its keyed counters, which the retry rounds
read again.  A sampled run goes further: it owns its chunk's buffers, made
once for its largest chunk (`kernels.run_buffers`).  `vertex_words` writes each
chunk's words into the run's words buffer and mixes them there with the scratch
as the shift buffer.  `box_offsets_at` mixes each block's values in the rows of
the run's points buffer they end in, and keeps the keyed counters and the shift
buffer in a work area of two blocks; only its retry rounds, a fraction of a
block, make arrays of their own.  So a chunk allocates nothing of its size.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from .core import GuardError

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

_U = np.uint64

_BLOCK_WORDS = 1 << 16  # words per block of box draws: temporaries stay in cache


def block_rows(dim: int) -> int:
    """Rows of `dim` words in one block of about _BLOCK_WORDS words, at least one."""
    return max(1, _BLOCK_WORDS // max(dim, 1))


def _mix64(z: np.ndarray, shifted: Optional[np.ndarray] = None) -> np.ndarray:
    """The splitmix64 finalizer, mixed into the uint64 array z in place through one
    shift buffer for all three shifts, `shifted` (of z's shape) if given, else a new
    one; returns z.  It wraps: callers hold np.errstate."""
    if shifted is None:
        shifted = np.empty_like(z)  # an array even if z is 0-d
    np.right_shift(z, _U(30), out=shifted)
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


def words(seed: int, stream, counter, out: Optional[np.ndarray] = None,
          scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """64-bit words indexed by (stream, counter); broadcasting applies.  With `out`
    (of the broadcast shape) the words are written there and `out` is returned, and
    `scratch` (of the same shape) is the counter round's shift buffer."""
    counter = np.asarray(counter, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.add(_stream_keys(seed, stream), (counter + _U(1)) * _GOLDEN, out=out)
        return _counter_round(np.asarray(z), scratch)


def vertex_words(seed: int, first_stream: int, count: int, dim: int,
                 out: Optional[np.ndarray] = None,
                 scratch: Optional[np.ndarray] = None) -> np.ndarray:
    """(count, ceil(dim/64)) packed sign words; point i uses stream first_stream+i.

    Bit j of a row (bit j % 64 of word j // 64) set means coordinate j is
    positive.  Bits past `dim` are cleared, so a row's popcount counts its
    positive coordinates.  With `out` and `scratch`, uint64 arrays of at least
    `count` rows of that width, the words are written to the first `count` rows
    of `out` and mixed there through those of `scratch`, and the result is that
    view of `out`; without them it is a new array.
    """
    nwords = (dim + 63) // 64
    streams = (np.arange(count, dtype=np.uint64) + _U(first_stream))[:, None]
    ctrs = np.arange(nwords, dtype=np.uint64)[None, :]
    rows = (None if buf is None else buf[:count] for buf in (out, scratch))
    w = words(seed, streams, ctrs, *rows).reshape(count, nwords)
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


def box_offsets_at(seed: int, streams, dim: int, N: int, out: Optional[np.ndarray] = None,
                   work: Optional[np.ndarray] = None) -> np.ndarray:
    """(len(streams), dim) array of integers uniform on [-N, N], unbiased.

    Draws the smallest power-of-two superset of {0, ..., 2N} per coefficient
    and rejects overshoots: coefficient j of a stream takes the first retry t
    whose word words(seed, stream, j + dim*t) falls in range.  Each draw is
    one 64-bit word, so 2N + 1 may not exceed 2^64.

    The words are those of `words`, word for word, though it is not called:
    each stream is keyed once, base = key + (j+1)*G holds the first round's
    keyed counters, and retry round t runs the counter round on
    base + t*(dim*G) for the still-rejected coefficients only.  The rows are
    evaluated in blocks of `block_rows(dim)` rows, which changes no value; a
    block's values are mixed in the rows of the result they end in.  Against a
    retry round that keyed each redrawn word again through `words`, this took
    20000 streams x 1008 coefficients at N = 1e4 from 0.88 s to 0.62 s on a
    shared 2-core x86-64 machine.

    With `out`, a C-contiguous int64 array of at least len(streams) rows of
    `dim`, the result is its first len(streams) rows; with `work`, a contiguous
    8-byte array of at least 2 * min(len(streams), block_rows(dim)) * dim
    elements, the keyed counters and the shift buffer are formed there.
    Without them both are new arrays.
    """
    m = 2 * N + 1
    if m > 1 << 64:
        raise GuardError(f"box draws take one 64-bit word per coefficient; 2N+1 = {m} > 2^64")
    mask, over = _U((1 << m.bit_length()) - 1), _U(m)
    keys = _stream_keys(seed, streams)
    count = len(keys)
    if out is None:
        out = np.empty((count, dim), dtype=np.int64)
    elif not out.flags.c_contiguous:
        raise ValueError("box draws write into a C-contiguous array")
    out = out[:count]
    rows = block_rows(dim)
    area = min(count, rows) * dim
    if work is None:
        work = np.empty(2 * area, dtype=np.uint64)
    keyed, shifted = work.reshape(-1).view(np.uint64)[:2 * area].reshape(2, area)
    with np.errstate(over="ignore"):
        steps = (np.arange(dim, dtype=np.uint64) + _U(1)) * _GOLDEN  # (j+1)*G
        stride = _U(dim) * _GOLDEN  # one retry's counter step, dim*G
        for lo in range(0, count, rows):
            block = out[lo : lo + rows]
            shape = block.shape
            base = keyed[:block.size].reshape(shape)
            np.add(keys[lo : lo + rows, None], steps, out=base)
            vals = block.view(np.uint64)
            vals[...] = base  # the retries read base again
            _counter_round(vals, shifted[:block.size].reshape(shape))
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
            np.subtract(block, N, out=block)
    return out


def box_offsets(seed: int, first_stream: int, count: int, dim: int, N: int,
                out: Optional[np.ndarray] = None, work: Optional[np.ndarray] = None) -> np.ndarray:
    """(count, dim) array, point i drawn from stream first_stream + i; `out` and `work`
    as for `box_offsets_at`."""
    streams = np.arange(count, dtype=np.uint64) + _U(first_stream)
    return box_offsets_at(seed, streams, dim, N, out, work)
