"""Counter-based random substreams.

Every draw is a pure function of (seed, stream label, trial index, draw
counter): a 64-bit mix of the four keys, finalized twice, with no sequential
state crossing trials. Trials can therefore be evaluated in any order, in any
number of blocks, and still produce bit-identical results.

The mixer is the splitmix64 finalizer, applied to xor-combined keys. Each
finalizer pass is a bijection on 64-bit words; two chained passes with
distinct key material between them give output streams that pass the
frequency checks this package needs (everything downstream is tested against
4-sigma binomial/multinomial bounds).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# Fixed per-draw tweak so draw=0,1,... index independent words.
_DRAW_SALT = np.uint64(0xD1B54A32D192ED03)


def _finalize(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized over uint64 arrays.

    Works in place: ``x`` must be a fresh array that the caller owns. uint64
    wraparound is the point; errstate silences the scalar-path warning.
    """
    with np.errstate(over="ignore"):
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
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def hash_words(seed: int, label: str, indices, draw=0) -> np.ndarray:
    """Pseudorandom uint64 words, one per index.

    ``indices`` may be a scalar or an integer array; the result always has
    array shape (scalars become shape-() arrays). ``draw`` selects independent
    words for the same index and may itself be an array (broadcast against
    ``indices``).
    """
    idx = np.asarray(indices, dtype=np.uint64)
    x = _finalize(idx ^ np.uint64(stream_key(label)))
    x ^= np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    x = _finalize(x)
    with np.errstate(over="ignore"):
        tweak = np.asarray(draw, dtype=np.uint64) * _DRAW_SALT + _GAMMA
    x = _finalize(x ^ tweak)
    return x


def uniforms(seed: int, label: str, indices, draw=0) -> np.ndarray:
    """float64 uniforms in [0, 1) with 53-bit resolution, one per index."""
    words = hash_words(seed, label, indices, draw)
    return (words >> np.uint64(11)).astype(np.float64) * (2.0**-53)


def uniform(seed: int, label: str, index: int, draw: int = 0) -> float:
    """Single uniform draw in [0, 1)."""
    return float(uniforms(seed, label, index, draw))


def choice_of_4(seed: int, label: str, indices) -> np.ndarray:
    """Uniform integers in {0,1,2,3} from the top two bits (exactly uniform)."""
    return (hash_words(seed, label, indices) >> np.uint64(62)).astype(np.int64)


def integers_below(seed: int, label: str, indices, bound: int) -> np.ndarray:
    """Uniform integers in [0, bound) via 53-bit uniforms.

    The floor construction carries a bias of at most bound * 2**-53 per draw,
    far below every statistical tolerance used here.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    u = uniforms(seed, label, indices)
    return np.minimum((u * bound).astype(np.int64), bound - 1)
