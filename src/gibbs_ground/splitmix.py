"""SplitMix64 (Steele, Lea & Flood, "Fast splittable pseudorandom number
generators", OOPSLA 2014) as uniform doubles, in numpy uint64 arithmetic.

Output k of the stream with seed s is the SplitMix64 finaliser applied to
s + (k + 1) * 0x9E3779B97F4A7C15 modulo 2^64, the value its sequential
next() returns the (k + 1)-th time; its top 53 bits map to a double in
[-1, 1).  verify draws its trial and start vectors here, so it neither
loads numpy.random (which loads OpenSSL through secrets) nor depends on
numpy's generator streams.  The generator is a module of its own because
the CLI imports verify for every command and, where no bytecode is
cached, compiles it: with the generator in it, verify.py passed 4096
tokens, CPython's parser took a twice larger token buffer, and sweep's
peak RSS rose by about 0.4 MB.
"""

from __future__ import annotations

import numpy as np

from .classical import _validate_seed
from .errors import ConstraintError

# SplitMix64's increment (the golden gamma) and its finaliser's multipliers.
_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def check_seed(seed: int):
    """ConstraintError unless seed is one uint64 word, which uniform would
    otherwise wrap."""
    _validate_seed(seed)
    if seed >= 1 << 64:
        raise ConstraintError(f"seed must be at most 2^64 - 1, got {seed}")


def uniform(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start ... start+count-1 of the stream seeded with seed (a
    uint64 word; see check_seed), each mapped from its top 53 bits to a
    double in [-1, 1).  The wrapping arithmetic acts on uint64 arrays only,
    since numpy warns when a uint64 scalar wraps."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= _GOLDEN_GAMMA
    z += np.uint64(seed)
    z ^= z >> np.uint64(30)
    z *= _MIX_1
    z ^= z >> np.uint64(27)
    z *= _MIX_2
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-52 - 1.0
