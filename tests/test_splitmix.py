"""SplitMix64 as gibbs_ground.splitmix computes it, against a plain-Python
reference and the generator's published outputs."""

import warnings

import numpy as np
import pytest

from gibbs_ground import splitmix
from gibbs_ground.errors import ConstraintError

from .oracles import splitmix64


# Outputs 0-4 of SplitMix64 seeded with 1234567, as published with the
# Rosetta Code task "Pseudo-random numbers/Splitmix64".
SPLITMIX64_1234567 = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def _top_53_bits(values: np.ndarray) -> list[int]:
    # inverse of the map z -> (z >> 11) * 2^-52 - 1, exact in doubles
    return [int(v) for v in (values + 1.0) * 2.0**52]


def test_uniform_matches_published_splitmix64_outputs():
    assert splitmix64(1234567, 5) == SPLITMIX64_1234567
    values = splitmix.uniform(1234567, 0, 5)
    assert _top_53_bits(values) == [z >> 11 for z in SPLITMIX64_1234567]


@pytest.mark.parametrize("seed", [0, 11, 2**64 - 1])
@pytest.mark.parametrize("start", [0, 2**32 - 4])
def test_uniform_is_splitmix64_bit_for_bit(seed, start):
    # from 2^32 - 4, the counters cross 2^32; seed 2^64 - 1 wraps the state
    count = 9
    values = splitmix.uniform(seed, start, count)
    reference = splitmix64(seed, count, start)
    assert _top_53_bits(values) == [z >> 11 for z in reference]
    assert values.tolist() == [(z >> 11) * 2.0**-52 - 1.0 for z in reference]


@pytest.mark.parametrize("seed", [0, 11, 2**64 - 1])
def test_uniform_lies_in_minus_one_to_one_without_warnings(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = splitmix.uniform(seed, 2**32 - 50_000, 100_000)
    assert values.dtype == np.float64 and values.shape == (100_000,)
    assert values.min() >= -1.0 and values.max() < 1.0


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_check_seed_takes_one_uint64_word(seed):
    with pytest.raises(ConstraintError, match=f"got {seed}"):
        splitmix.check_seed(seed)
    splitmix.check_seed(0)
    splitmix.check_seed(2**64 - 1)



@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_bits53_reaches_the_last_counter(seed):
    # the last two outputs a draw may ask for: start + count = 2^64 - 1
    assert splitmix.bits53(seed, 2**64 - 3, 2).tolist() == [
        z >> 11 for z in splitmix64(seed, 2, 2**64 - 3)
    ]


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_every_draw_applies_the_seed_rule(seed):
    # reversibility, dirichlet_form and the Metropolis chains rely on it
    with pytest.raises(ConstraintError, match=f"got {seed}"):
        splitmix.bits53(seed, 0, 1)
    with pytest.raises(ConstraintError, match=f"got {seed}"):
        splitmix.uniform(seed, 0, 1)
