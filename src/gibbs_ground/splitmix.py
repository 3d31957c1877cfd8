"""SplitMix64 (Steele, Lea & Flood, "Fast splittable pseudorandom number
generators", OOPSLA 2014) in numpy uint64 arithmetic: the one random
source of the package, shared by verify and Metropolis, so that no result
depends on numpy's generator streams and no command loads OpenSSL for them.

Output k of the stream with seed s is the SplitMix64 finaliser applied to
s + (k + 1) * 0x9E3779B97F4A7C15 modulo 2^64, the value its sequential
next() returns the (k + 1)-th time: it depends on s and k alone.
"""

from __future__ import annotations

import numpy as np

from .errors import ConstraintError

# SplitMix64's increment (the golden gamma) and its finaliser's multipliers.
_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def check_seed(seed: int):
    """ConstraintError unless seed is one uint64 word, which the stream
    would otherwise wrap."""
    if seed < 0:
        raise ConstraintError(f"seed must be nonnegative, got {seed}")
    if seed >= 1 << 64:
        raise ConstraintError(f"seed must be at most 2^64 - 1, got {seed}")


def bits53(seed: int, start: int, count: int) -> np.ndarray:
    """The top 53 bits of outputs start ... start+count-1 of the stream
    seeded with seed, as uint64, for start + count < 2^64; check_seed's
    ConstraintError on any other seed.  The wrapping arithmetic acts on
    uint64 arrays only, since numpy warns when a uint64 scalar wraps."""
    check_seed(seed)
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= _GOLDEN_GAMMA
    z += np.uint64(seed)
    z ^= z >> np.uint64(30)
    z *= _MIX_1
    z ^= z >> np.uint64(27)
    z *= _MIX_2
    z ^= z >> np.uint64(31)
    return z >> np.uint64(11)


def uniform(seed: int, start: int, count: int) -> np.ndarray:
    """bits53(seed, start, count), each mapped to a double in [-1, 1)."""
    return bits53(seed, start, count).astype(np.float64) * 2.0**-52 - 1.0
