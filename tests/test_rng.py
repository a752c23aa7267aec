import numpy as np
import pytest

from cyclobox import rng


def test_words_deterministic_and_seed_sensitive():
    a = rng.words(1, np.arange(10), 0)
    b = rng.words(1, np.arange(10), 0)
    c = rng.words(2, np.arange(10), 0)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_every_stream_takes_seeds_in_64_unsigned_bits_only():
    assert rng.words(2 ** 64 - 1, np.arange(3), 0).shape == (3,)
    for seed in (-1, 2 ** 64):  # -1 used to key the same words as 2^64 - 1
        with pytest.raises(ValueError, match="64 unsigned bits"):
            rng.words(seed, np.arange(3), 0)


def test_vertex_signs_support_and_stream_indexing():
    s = rng.vertex_signs(7, 0, 50, 13)
    assert s.shape == (50, 13)
    assert set(np.unique(s)) == {-1, 1}
    # stream indexing is global: a shifted window reproduces the same rows
    tail = rng.vertex_signs(7, 20, 30, 13)
    assert np.array_equal(s[20:], tail)


def test_box_offsets_range_and_window():
    o = rng.box_offsets(11, 0, 200, 6, 3)
    assert o.shape == (200, 6)
    assert o.min() >= -3 and o.max() <= 3
    assert set(np.unique(o)) <= set(range(-3, 4))
    tail = rng.box_offsets(11, 150, 50, 6, 3)
    assert np.array_equal(o[150:], tail)


def test_box_offsets_at_matches_contiguous():
    full = rng.box_offsets(5, 100, 8, 4, 2)
    picked = rng.box_offsets_at(5, [103, 100, 107], 4, 2)
    assert np.array_equal(picked[0], full[3])
    assert np.array_equal(picked[1], full[0])
    assert np.array_equal(picked[2], full[7])


def test_sign_bits_roughly_balanced():
    s = rng.vertex_signs(123, 0, 2000, 64)
    mean = s.mean()
    # 128k fair bits: |mean| ~ 4/sqrt(128000) at 4 sigma
    assert abs(mean) < 4 / np.sqrt(s.size)


def test_offsets_uniform_each_value():
    o = rng.box_offsets(9, 0, 3000, 10, 1)
    counts = np.bincount(o.ravel() + 1, minlength=3)
    expected = o.size / 3
    for c in counts:
        assert abs(c - expected) < 5 * np.sqrt(expected)


def test_box_offsets_cover_one_word_and_refuse_more():
    import pytest

    from cyclobox.core import GuardError

    N = 2 ** 63 - 1  # 2N + 1 = 2^64 - 1: the widest range one word draws
    x = rng.box_offsets(3, 0, 2000, 4, N)
    assert x.dtype == np.int64
    assert x.min() < -(2 ** 61) and x.max() > 2 ** 61
    with pytest.raises(GuardError):
        rng.box_offsets(3, 0, 1, 4, N + 1)


def _as_int(row) -> int:
    return sum(int(word) << 64 * k for k, word in enumerate(row))


@pytest.mark.parametrize("p", [67, 193, 113])  # dim % 64 = 2, 0, 48
def test_vertex_words_are_the_stream_words_cut_to_dim(p):
    dim = p - 1
    nwords = (dim + 63) // 64
    w = rng.vertex_words(5, 40, 300, dim)
    assert w.dtype == np.uint64 and w.shape == (300, nwords)
    raw = rng.words(5, np.arange(40, 340, dtype=np.uint64)[:, None],
                    np.arange(nwords, dtype=np.uint64)[None, :])
    want = [_as_int(row) & ((1 << dim) - 1) for row in raw]
    assert [_as_int(row) for row in w] == want  # bits past dim are zero
    assert any(row >> (dim - 1) for row in want)  # the top coordinate is drawn
    signs = [[1 if row >> j & 1 else -1 for j in range(dim)] for row in want]
    assert rng.unpack_signs(w, dim).tolist() == signs
    assert rng.vertex_signs(5, 40, 300, dim).tolist() == signs


def _reference_box_offsets(seed, streams, dim, N):
    """Box offsets from `rng.words` alone, as exact ints, and the words they need:
    coefficient j of stream s takes the first t whose words(seed, s, j + dim*t)
    & mask is below 2N + 1, so it needs t + 1 words."""
    m = 2 * N + 1
    mask = np.uint64((1 << m.bit_length()) - 1)
    s = np.asarray(streams, dtype=np.uint64)[:, None]
    j = np.arange(dim, dtype=np.uint64)[None, :]
    out = np.zeros((len(s), dim), dtype=object)
    todo = np.ones((len(s), dim), dtype=bool)
    needed, t = 0, 0
    while todo.any():
        needed += int(np.count_nonzero(todo))
        w = rng.words(seed, s, j + np.uint64(t * dim)) & mask
        take = todo & (w < np.uint64(m))
        out[take] = [int(v) - N for v in w[take].tolist()]
        todo &= ~take
        t += 1
    return out.tolist(), needed


def _spanning_streams(dim):
    """Two and a third blocks of rows, so the last block is partial."""
    rows = max(1, rng._BLOCK_WORDS // dim)
    return np.arange(2 * rows + rows // 3, dtype=np.uint64) + np.uint64(900)


@pytest.mark.parametrize("N", [1, 3, 10 ** 4, 2 ** 40, 2 ** 63 - 1])
@pytest.mark.parametrize("dim", [2, 100, 1008])
def test_box_offsets_equal_the_per_coefficient_reference(N, dim):
    streams = _spanning_streams(dim)
    want, _ = _reference_box_offsets(13, streams, dim, N)
    got = rng.box_offsets_at(13, streams, dim, N)
    assert got.dtype == np.int64 and got.shape == (len(streams), dim)
    assert got.tolist() == want


@pytest.mark.parametrize("N", [3, 2 ** 40])
def test_box_offsets_at_unsorted_streams_equal_the_reference(N):
    # as visibility passes them: unsorted, with gaps, up to the last stream 2^64 - 1
    streams = [2 ** 64 - 1, 5, 2 ** 40 + 3, 17, 6, 2 ** 33, 1000, 0]
    want, _ = _reference_box_offsets(4, streams, 100, N)
    assert rng.box_offsets_at(4, streams, 100, N).tolist() == want
    assert rng.box_offsets_at(4, np.array(streams, dtype=np.uint64), 100, N).tolist() == want


@pytest.mark.parametrize("dim", [2, 1008])
def test_box_offsets_at_no_streams(dim):
    got = rng.box_offsets_at(4, [], dim, 10)
    assert got.shape == (0, dim) and got.dtype == np.int64


@pytest.mark.parametrize("N", [1, 10 ** 4, 2 ** 40])
@pytest.mark.parametrize("dim", [2, 1008])
def test_box_offsets_draw_exactly_the_words_they_need(monkeypatch, N, dim):
    """Every word goes through the counter round that `rng.words` ends in:
    coefficients plus rejections, no more, and no call draws more than one block."""
    streams = _spanning_streams(dim)
    _, needed = _reference_box_offsets(21, streams, dim, N)
    sizes = []
    counter_round = rng._counter_round

    def counting(z):
        w = counter_round(z)
        sizes.append(w.size)
        return w

    monkeypatch.setattr(rng, "_counter_round", counting)
    rng.box_offsets_at(21, streams, dim, N)
    assert sum(sizes) == needed > len(streams) * dim
    assert max(sizes) <= max(rng._BLOCK_WORDS, dim)


def test_words_are_the_counter_round_of_the_stream_keys():
    top = 2 ** 64 - 1
    streams = np.array([0, 1, 2 ** 32, 2 ** 63, top - 1, top], dtype=np.uint64)
    counters = np.array([0, 5, 2 ** 40, 2 ** 63 + 7, top - 1, top], dtype=np.uint64)
    for seed in (0, 9, top):
        keys = rng._stream_keys(seed, streams)[:, None]
        with np.errstate(over="ignore"):
            z = keys + (counters[None, :] + np.uint64(1)) * rng._GOLDEN
            want = rng._counter_round(z)
        assert np.array_equal(rng.words(seed, streams[:, None], counters[None, :]), want)
        scalars = [int(rng.words(seed, int(s), int(c))) for s, c in zip(streams, counters)]
        assert scalars == want.diagonal().tolist()


@pytest.mark.parametrize("N", [10 ** 4, 2 ** 40])
def test_stream_functions_leave_their_inputs_as_they_were(N):
    """The counter round mixes in place, into arrays its callers made, never into a
    caller's streams or counters; the words stay those of `rng.words`."""
    dim = 100
    streams = np.array([2 ** 64 - 1, 5, 2 ** 40 + 3, 17, 6, 2 ** 33, 1000, 0] * 3,
                       dtype=np.uint64)
    counters = np.arange(0, 3 * dim, 7, dtype=np.uint64)
    saved = streams.copy(), counters.copy()

    w = rng.words(8, streams[:, None], counters[None, :])
    assert np.array_equal(streams, saved[0]) and np.array_equal(counters, saved[1])
    assert np.array_equal(w, rng.words(8, streams[:, None], counters[None, :]))

    packed = rng.vertex_words(8, 40, 30, 130)
    raw = rng.words(8, np.arange(40, 70, dtype=np.uint64)[:, None],
                    np.arange(3, dtype=np.uint64)[None, :])
    raw[:, -1] &= np.uint64((1 << 130 % 64) - 1)
    assert np.array_equal(packed, raw)

    want, needed = _reference_box_offsets(8, streams, dim, N)
    assert needed > len(streams) * dim  # some coefficients are redrawn
    assert rng.box_offsets_at(8, streams, dim, N).tolist() == want
    assert np.array_equal(streams, saved[0])
    assert rng.box_offsets_at(8, streams, dim, N).tolist() == want
