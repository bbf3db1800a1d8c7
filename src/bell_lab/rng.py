"""Counter-based random substreams.

Every draw is a pure function of (seed, stream label, trial index, draw
counter), with no sequential state crossing trials. Trials can therefore be
evaluated in any order, in any number of blocks, and still produce
bit-identical results.

The mixer is the splitmix64 finalizer, applied to xor-combined keys. Each
finalizer pass is a bijection on 64-bit words. A word takes three chained
passes with distinct key material between them: the base, two passes over the
index with the label's key and then the seed mixed in, and the draw pass, one
more over the base xor the draw's tweak. The streams pass the frequency checks
this package needs (everything downstream is tested against 4-sigma
binomial/multinomial bounds).

The base depends only on (seed, label, index), so draws that differ only in
their draw counter can share it. ``hash_words`` keeps the last base it computed
for a read-only index array and reuses it while the same array comes back with
the same seed and label: the runner marks each block's trial indices read-only,
so the instrument draws of one block that share a label share one base.
"""

from __future__ import annotations

from functools import lru_cache

# CPython's built-in blake2b, the object that hashlib.blake2b is: importing hashlib
# maps OpenSSL's libcrypto, 3.7 MB of every command's peak RSS.
from _blake2 import blake2b

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Fixed per-draw tweak so draw=0,1,... index independent words.
_DRAW_SALT = np.uint64(0xD1B54A32D192ED03)


def _finalize(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays.

    Works in place: ``x`` must be a fresh array that the caller owns, a 0-d one for
    a scalar. Array arithmetic wraps around silently, which is the point; numpy
    scalars would warn of the overflow.
    """
    x += _GAMMA
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


@lru_cache(maxsize=None)
def stream_key(label: str) -> int:
    """Stable 64-bit key for a stream label (independent of PYTHONHASHSEED)."""
    digest = blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _base(seed: int, label: str, idx: np.ndarray) -> np.ndarray:
    """The base of each index's words: the first two finalizer passes, which depend
    only on (seed, label, index). A fresh array, 0-d for a 0-d ``idx``."""
    x = np.asarray(idx ^ np.uint64(stream_key(label)))
    _finalize(x)
    x ^= np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    return _finalize(x)


# (indices, (seed, label), base) of the last base computed for a read-only index array.
_last_base: tuple = (None, None, None)


def hash_words(seed: int, label: str, indices, draw=0) -> np.ndarray:
    """Pseudorandom uint64 words, one per index.

    ``indices`` may be a scalar or an integer array; the result always has
    array shape (scalars become shape-() arrays). ``draw`` selects independent
    words for the same index and may itself be an array (broadcast against
    ``indices``). The base of a read-only uint64 index array is kept, and reused while
    the same array comes back with the same seed and label, so no other view of it
    may change it.
    """
    global _last_base
    idx = np.asarray(indices, dtype=np.uint64)
    held, key, base = _last_base
    if idx is not held or key != (seed, label) or idx.flags.writeable:
        base = _base(seed, label, idx)
        if not idx.flags.writeable:
            _last_base = (idx, (seed, label), base)
    tweak = np.array(draw, dtype=np.uint64)  # a copy that the in-place steps may change
    tweak *= _DRAW_SALT
    tweak += _GAMMA
    return _finalize(np.asarray(base ^ tweak))  # a fresh array: the kept base stays as it was


def uniforms(seed: int, label: str, indices, draw=0) -> np.ndarray:
    """float64 uniforms in [0, 1) with 53-bit resolution, one per index."""
    return _unit_floats(hash_words(seed, label, indices, draw))


def _unit_floats(words: np.ndarray) -> np.ndarray:
    """Each word's top 53 bits as a float64 in [0, 1)."""
    return (words >> np.uint64(11)).astype(np.float64) * (2.0**-53)


def uniform(seed: int, label: str, index: int, draw: int = 0) -> float:
    """Single uniform draw in [0, 1)."""
    return float(uniforms(seed, label, index, draw))


def choice_of_4(seed: int, label: str, indices) -> np.ndarray:
    """Uniform integers in {0,1,2,3}: ``integers_below(..., 4)``, a word's top two bits."""
    return integers_below(seed, label, indices, 4)


def integers_below(seed: int, label: str, indices, bound: int) -> np.ndarray:
    """Uniform integers in [0, bound), one per index: ``words_below`` of the hashed
    words. Bound 1 gives zeros and hashes no word."""
    if bound > 1:
        return words_below(hash_words(seed, label, indices), bound)
    return words_below(np.zeros(np.shape(indices), dtype=np.uint64), bound)  # zeros, or the bound's ValueError


def words_below(words: np.ndarray, bound: int) -> np.ndarray:
    """Uniform integers in [0, bound), one per hashed word: floor(u * bound) of the
    word's 53-bit uniform u, with a bias of at most bound * 2**-53 per draw, far below
    every tolerance used here. Bound 1 gives zeros whatever the words; a power of two
    up to 2**53 gives the same floor as the word's top bits. So one word can serve
    several bounds, as the runner's shared die does."""
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if bound == 1:
        return np.zeros(np.shape(words), dtype=np.int64)
    if bound & (bound - 1) == 0 and bound <= 2**53:
        return (words >> np.uint64(65 - int(bound).bit_length())).astype(np.int64)
    return np.minimum((_unit_floats(words) * bound).astype(np.int64), bound - 1)
