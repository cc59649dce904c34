"""A standard-library replica of the three `numpy.random` calls the CLI makes.

`default_rng(seed).uniform` and `.permutation` give the bits of numpy's: a
four-word SeedSequence seeds a PCG64 (XSL-RR) stream, consumed as numpy's C
code does.  Nothing else is reproduced: no bounds checks, no other
distributions, no spawning.
"""

from __future__ import annotations

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# SeedSequence's hash and mix constants, and PCG64's 128-bit multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(seed) -> list:
    """The seed's little-endian 32-bit words; a list seed joins its items'."""
    if not isinstance(seed, int):
        return [w for item in seed for w in _words(item)]
    words = [seed & _M32]
    while seed > _M32:
        seed >>= 32
        words.append(seed & _M32)
    return words


def _seed_state(seed) -> tuple:
    """(initstate, seq) from SeedSequence(seed).generate_state(4, uint64)."""
    entropy = _words(seed)
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = (value ^ h) * (h := h * _MULT_A & _M32) & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    # each pool word into the others, then each further entropy word into all
    for src in range(max(4, len(entropy))):
        for dst in range(4):
            if dst != src:
                word = pool[src] if src < 4 else entropy[src]
                pool[dst] = mix(pool[dst], hashmix(word))
    h, out = _INIT_B, []
    for i in range(8):
        value = (pool[i % 4] ^ h) * (h := h * _MULT_B & _M32) & _M32
        out.append(value ^ value >> 16)
    w = [out[k] | out[k + 1] << 32 for k in range(0, 8, 2)]
    return w[0] << 64 | w[1], w[2] << 64 | w[3]


class Generator:
    """A PCG64 stream with numpy Generator's `uniform` and `permutation`."""

    def __init__(self, seed):
        initstate, seq = _seed_state(seed)
        self._inc = (seq << 1 | 1) & _M128
        # from state 0: step, add initstate, step
        self._state = ((self._inc + initstate) * _PCG_MULT + self._inc) & _M128
        self._half = None    # the kept high half of a 64-bit draw

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        half, self._half = self._half, None
        if half is None:
            x = self._next64()
            half, self._half = x & _M32, x >> 32
        return half

    def uniform(self, low: float, high: float, size: int | None = None):
        """One float, or a list of `size` floats, from [low, high)."""
        draws = [low + (high - low) * ((self._next64() >> 11) * 2.0 ** -53)
                 for _ in range(1 if size is None else size)]
        return draws[0] if size is None else draws

    def permutation(self, n: int) -> list:
        """A random ordering of range(n), by numpy's Fisher-Yates shuffle."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while (j := self._next32() & mask) > i:
                pass
            out[i], out[j] = out[j], out[i]
        return out


def default_rng(seed) -> Generator:
    """`numpy.random.default_rng(seed)` for a non-negative int or a list."""
    return Generator(seed)
