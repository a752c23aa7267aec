import numpy as np
import pytest

from cyclobox import rng


def test_words_deterministic_and_seed_sensitive():
    a = rng.words(1, np.arange(10), 0)
    b = rng.words(1, np.arange(10), 0)
    c = rng.words(2, np.arange(10), 0)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


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
