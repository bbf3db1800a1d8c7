"""Counter-based substreams: determinism, stream separation, uniformity."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bell_lab import rng


def test_pure_function_of_keys():
    idx = np.arange(1000, dtype=np.uint64)
    a = rng.uniforms(7, "source", idx)
    b = rng.uniforms(7, "source", idx)
    assert np.array_equal(a, b)


def test_streams_differ_by_label_seed_and_draw():
    idx = np.arange(1000, dtype=np.uint64)
    base = rng.uniforms(7, "source", idx)
    assert not np.array_equal(base, rng.uniforms(7, "die", idx))
    assert not np.array_equal(base, rng.uniforms(8, "source", idx))
    assert not np.array_equal(base, rng.uniforms(7, "source", idx, draw=1))


def test_scalar_matches_vector():
    vec = rng.uniforms(3, "ip.s1", np.arange(10, dtype=np.uint64))
    for i in range(10):
        assert rng.uniform(3, "ip.s1", i) == vec[i]


def test_uniform_range_and_mean():
    n = 1_000_000
    u = rng.uniforms(11, "source", np.arange(n, dtype=np.uint64))
    assert u.min() >= 0.0
    assert u.max() < 1.0
    # mean of U[0,1): sd = 1/sqrt(12N)
    sd = 1.0 / math.sqrt(12 * n)
    assert abs(u.mean() - 0.5) < 4 * sd


def test_choice_of_4_uniformity():
    n = 1_000_000
    c = rng.choice_of_4(5, "die", np.arange(n, dtype=np.uint64))
    counts = np.bincount(c, minlength=4)
    sd = math.sqrt(n * 0.25 * 0.75)
    for k in range(4):
        assert abs(counts[k] - n / 4) < 4 * sd, counts


def test_integers_below():
    n = 100_000
    v = rng.integers_below(9, "die", np.arange(n, dtype=np.uint64), 3)
    assert v.min() >= 0 and v.max() <= 2
    counts = np.bincount(v, minlength=3)
    sd = math.sqrt(n * (1 / 3) * (2 / 3))
    for k in range(3):
        assert abs(counts[k] - n / 3) < 4 * sd
    assert np.all(rng.integers_below(9, "die", np.arange(10, dtype=np.uint64), 1) == 0)
    with pytest.raises(ValueError):
        rng.integers_below(9, "die", np.arange(4), 0)


@pytest.mark.parametrize("bound", [1, 3, 5, 1000, *(2**j for j in range(1, 55))])
def test_integers_below_is_the_floor_of_a_uniform(bound):
    # The reference is the floor of a 53-bit uniform times the bound. Powers of two
    # up to 2**53 take the word's top bits, which is the same floor; 2**54 is beyond
    # a uniform's 53 bits, so it keeps the float path.
    idx = np.arange(20_000, dtype=np.uint64)
    floor = np.minimum((rng.uniforms(13, "die", idx) * bound).astype(np.int64), bound - 1)
    assert np.array_equal(rng.integers_below(13, "die", idx, bound), floor)
    assert rng.integers_below(13, "die", 5, bound).shape == ()


def test_choice_of_4_is_integers_below_4():
    idx = np.arange(20_000, dtype=np.uint64)
    assert np.array_equal(rng.choice_of_4(13, "die", idx), rng.integers_below(13, "die", idx, 4))


def test_a_one_faced_die_hashes_no_word(monkeypatch):
    def no_words(*args):
        raise AssertionError("a one-faced die hashed a word")

    monkeypatch.setattr(rng, "hash_words", no_words)
    assert rng.integers_below(13, "die", np.arange(10, dtype=np.uint64), 1).tolist() == [0] * 10


def test_draw_accepts_arrays():
    idx = np.arange(16, dtype=np.uint64)
    per_draw = rng.uniforms(1, "x", idx, draw=np.arange(16, dtype=np.uint64))
    stacked = np.array([rng.uniform(1, "x", int(i), draw=int(i)) for i in idx])
    assert np.array_equal(per_draw, stacked)


def test_frozen_reference_words():
    # Regression pin: these exact outputs define the bitstream. If the mixing
    # constants or key layout change, every seeded artifact changes with them.
    got = rng.hash_words(42, "source", np.arange(3, dtype=np.uint64)).tolist()
    assert got == [15468791892608045549, 7649598349439893535, 11560117808847572821]
    assert [rng.uniform(42, "die", i) for i in range(3)] == [
        0.4808224035067491,
        0.47506164243554716,
        0.5385271118391676,
    ]


# --- hash_words against a pure-Python reference -----------------------------

_MASK = 2**64 - 1


def _splitmix64(x: int) -> int:
    """The splitmix64 finalizer on a Python int, wrapping at 64 bits by masking."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def _reference_word(seed: int, label: str, index: int, draw: int) -> int:
    """One word of the chain: two passes over the index with the label's key and then
    the seed mixed in, and one over that xor the draw's tweak."""
    key = int.from_bytes(hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest(), "little")
    base = _splitmix64(_splitmix64(index ^ key) ^ (seed & _MASK))
    return _splitmix64(base ^ ((draw * 0xD1B54A32D192ED03 + 0x9E3779B97F4A7C15) & _MASK))


def _reference_words(seed: int, label: str, indices, draw) -> list:
    index, draw = np.broadcast_arrays(np.asarray(indices, dtype=np.uint64), np.asarray(draw, dtype=np.uint64))
    return [_reference_word(seed, label, int(i), int(d)) for i, d in zip(index.ravel(), draw.ravel())]


_words = st.integers(0, _MASK)
_labels = st.sampled_from(["source", "die", "ttac.flip", "ip.s1", "x"])


@settings(max_examples=60, deadline=None)
@given(seed=_words, label=_labels, index=_words, draw=_words)
def test_hash_words_of_a_scalar_index_is_the_reference_chain(seed, label, index, draw):
    want = _reference_word(seed, label, index, draw)
    for indices in (index, np.uint64(index), np.array(index, dtype=np.uint64)):
        got = rng.hash_words(seed, label, indices, draw)
        assert got.shape == () and int(got) == want


@settings(max_examples=60, deadline=None)
@given(seed=_words, label=_labels, indices=st.lists(_words, max_size=12), data=st.data())
def test_hash_words_broadcasts_draws_against_indices(seed, label, indices, data):
    idx = np.array(indices, dtype=np.uint64)
    draws = [
        data.draw(_words),
        np.array(data.draw(st.lists(_words, min_size=len(idx), max_size=len(idx))), dtype=np.uint64),
    ]
    for draw in draws:
        got = rng.hash_words(seed, label, idx, draw)
        assert got.shape == idx.shape and got.tolist() == _reference_words(seed, label, idx, draw)
    # A scalar index against an array of draws: one word per draw.
    if len(idx):
        got = rng.hash_words(seed, label, int(idx[0]), draws[1])
        assert got.shape == idx.shape and got.tolist() == _reference_words(seed, label, idx[0], draws[1])


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(st.tuples(_words, _labels), min_size=2, max_size=2, unique=True),
    order=st.lists(st.integers(0, 1), min_size=1, max_size=8),
    indices=st.lists(_words, min_size=1, max_size=12),
    draw=_words,
)
def test_hash_words_of_a_read_only_array_under_alternating_keys(keys, order, indices, draw):
    # hash_words keeps the base of a read-only index array for the next call with the
    # same array, seed and label: a run of equal keys hits it, a change of key misses.
    idx = np.array(indices, dtype=np.uint64)
    idx.flags.writeable = False
    for k in order:
        seed, label = keys[k]
        assert rng.hash_words(seed, label, idx, draw).tolist() == _reference_words(seed, label, idx, draw)
    assert idx.tolist() == indices
