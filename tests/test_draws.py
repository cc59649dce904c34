"""The standard-library draws against numpy.random, bit for bit."""

import numpy as np
import pytest

from dwbc import draws
from dwbc.cli import _draw_box, draw_parameters

# the last two have more than four 32-bit words, past SeedSequence's pool
SEEDS = [*range(100), 2**31 - 1, 2**32, 2**64 + 3, 10**23,
         *([s, n] for s in range(20) for n in range(1, 9)),
         2**130 + 5, [2**70, 3, 2**40]]


def _calls(rng) -> list:
    """One fixed sequence: array and scalar `uniform` interleaved with
    `permutation`, so a permutation often follows a 64-bit draw and a
    32-bit half is kept across calls."""
    out = []
    for k in range(1, 7):
        out.append([float(x) for x in rng.uniform(0.1, 0.9, k)])
        out.append(float(rng.uniform(-0.4, 0.4)))
        out.append([int(x) for x in rng.permutation(k)])
    return out


@pytest.mark.parametrize("seed", SEEDS, ids=str)
def test_calls_match_numpy(seed):
    assert _calls(draws.default_rng(seed)) == \
        _calls(np.random.default_rng(seed))


@pytest.mark.parametrize("n", range(1, 9))
def test_draw_parameters_match_numpy(n):
    for seed in (0, 1, 12345):
        rng = np.random.default_rng(seed)
        assert draw_parameters(n, seed) == \
            (_draw_box(rng, n), _draw_box(rng, n))


def test_draw_parameters_bits_are_pinned():
    # fixed here, so the seeded inputs stay put whatever numpy does later
    z = draw_parameters(3, 0)[0][0]
    assert z.real.hex() == "0x1.3819794c8f9dap-1"
    assert z.imag.hex() == "-0x1.8c0f80ec8f29dp-5"
