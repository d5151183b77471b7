"""The Monte Carlo walk reads raw Philox words against exact integer limits.

`_walk_chunks` tests each raw 64-bit word against `_word_limit` of p,
1/2 and q instead of drawing numpy's uniform doubles and comparing them.
That takes the same steps only while numpy turns a word w into the double
(w >> 11) * 2**-53, which the first test pins: if numpy ever changes that
rule, it fails here rather than moving every seeded result silently.  The
others put crafted words at and around each limit and compare the walk
with the float compares of those words' uniforms.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from bcdexact.simulate import _stream, _walk_chunks, _word_limit

TOP = (1 << 64) - 1


def uniforms(words) -> np.ndarray:
    """numpy's Philox `random()` double of each raw word."""
    return (np.asarray(words, dtype=np.uint64) >> np.uint64(11)) * 2.0**-53


@pytest.mark.parametrize("seed,index", [(0, None), (0, 0), (7, 3), (99, 65535), (2**40, 1)])
def test_random_is_the_top_53_bits_of_a_raw_word(seed, index):
    doubles, words = _stream(seed, index), _stream(seed, index)
    # draws of odd sizes and shapes, so pieces end inside Philox's 4-word blocks
    for shape in [1, 3, (5, 7), 1024, (2, 1023), 4097]:
        want = doubles.random(shape)
        got = uniforms(words.bit_generator.random_raw(shape))
        assert got.shape == want.shape
        assert np.array_equal(got, want), (seed, index, shape)


@pytest.mark.parametrize("x", [0.0, 2.0**-60, 0.1, 0.3, 1 / 3, 0.5, 0.7, 1 - 2.0**-53, 1.0])
def test_the_limit_splits_the_words_at_x(x):
    # 0.1, 0.3 and 1/3 lie between multiples of 2**-53, where the ceiling counts
    limit = _word_limit(x)
    assert limit % 2**11 == 0 and 0 <= limit <= 2**64
    for w in (limit - 2**11, limit - 1, limit, limit + 2**11 - 1):
        if 0 <= w <= TOP:
            assert (uniforms([w])[0] < x) == (w < limit), (x, w)


PS = [0.5, 0.5000001, 0.55, 0.7, 0.713, 0.75, 0.95, 0.999, 1.0]


def crafted_words(p: float) -> list[int]:
    """Words at and around the limits of p, 1/2 and q, the extremes, and a
    word whose uniform is p itself."""
    words = {0, TOP, math.floor(p * 2.0**53) << 11}
    for x in (p, 0.5, 1.0 - p):
        limit = _word_limit(x)
        words.update((limit - 2**11, limit - 1, limit, limit + 2**11))
    return sorted(w for w in words if 0 <= w <= TOP)


def replaying(raw: np.ndarray) -> SimpleNamespace:
    """A generator stand-in whose one draw of raw words is `raw`."""
    def random_raw(shape):
        assert shape == raw.shape
        return raw.copy()

    return SimpleNamespace(bit_generator=SimpleNamespace(random_raw=random_raw))


def float_walk(p: float, words: np.ndarray) -> np.ndarray:
    """Steps of runs whose uniforms are those of `words`, compared as floats."""
    u = uniforms(words)
    t = np.empty(u.shape, dtype=np.int8)
    d = np.zeros(u.shape[0], dtype=np.int64)
    for j in range(u.shape[1]):
        up = np.where(d == 0, 0.5, np.where(d < 0, p, 1.0 - p))
        t[:, j] = np.where(u[:, j] < up, 1, -1)
        d += t[:, j]
    return t


@pytest.mark.parametrize("p", PS)
def test_crafted_words_take_the_float_steps(p):
    words = crafted_words(p)
    if p < 1.0:
        assert uniforms([math.floor(p * 2.0**53) << 11])[0] == p
    # each crafted word c is read at D = 0 (first step), at D = +1 after the
    # up step of word 0 (q's test) and at D = -1 after the down step of the
    # top word (p's test)
    rows = [[c, 0] for c in words] + [[0, c] for c in words] + [[TOP, c] for c in words]
    raw = np.array(rows, dtype=np.uint64)
    (t, d), = _walk_chunks(2, p, replaying(raw), raw.shape[0])  # a single chunk
    want = float_walk(p, raw)
    assert np.array_equal(t, want), p
    assert np.array_equal(d, np.cumsum(want, axis=1))

