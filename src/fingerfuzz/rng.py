"""Deterministic 64-bit generator used for request generation.

Implements splitmix64 (Vigna's public-domain mixing generator): a 64-bit
counter advanced by the golden-gamma constant, output scrambled by two
xor-shift-multiply rounds.  Self-contained so that identical seeds produce
identical collections on every platform and interpreter version.
"""

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Seeded stream of 64-bit words with unbiased bounded draws."""

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValueError("seed must fit in 64 bits")
        self._state = seed
        self._limits: dict[int, int] = {}  # bound -> highest accepted word

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling.  The step of
        next_u64 is inlined: generation draws once per request byte."""
        limit = self._limits.get(bound)
        if limit is None:
            if bound <= 0:
                raise ValueError("bound must be positive")
            limit = self._limits[bound] = _MASK64 - ((_MASK64 + 1) % bound)
        state = self._state
        while True:
            state = (state + _GAMMA) & _MASK64
            z = ((state ^ (state >> 30)) * _MIX1) & _MASK64
            z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
            z ^= z >> 31
            if z <= limit:
                self._state = state
                return z % bound

    def choice(self, seq):
        """Uniform element of a non-empty sequence: one bounded draw."""
        return seq[self.below(len(seq))]
