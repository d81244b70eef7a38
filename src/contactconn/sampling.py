"""Deterministic point sampling.

The generator is splitmix64, written out in full so reports are
reproducible across implementations and languages:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   (mod 2^64)
    z <- (z XOR (z >> 27)) * 0x94D049BB133111EB   (mod 2^64)
    z <- z XOR (z >> 31)

A double in [0, 1) is the top 53 bits: (z >> 11) * 2^-53. Points are
drawn point-major: all coordinates of point 0, then point 1, and so on.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1

# Seeds a user may give are 0 <= seed < SEED_LIMIT: the generator takes
# its seed mod 2^64, so any larger one would alias a smaller one.
SEED_LIMIT = 1 << 64
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def run_bound_violation(points: int | None, seed: int | None) -> tuple[str, str] | None:
    """The first of a run's point count and seed that no run accepts, as
    (its name, what is wrong with it), or None when both are in bounds: a
    run samples at least 1 point, from a seed from 0 to 2^64 - 1. A None
    one, a flag not given, is not checked."""
    if points is not None and points < 1:
        return "points", f"must be at least 1, got {points}"
    if seed is not None and not 0 <= seed < SEED_LIMIT:
        return "seed", f"must be from 0 to 2^64 - 1, got {seed}"
    return None


class SplitMix64:
    """The 64-bit splitmix generator; state is the full generator state."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_uint64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def next_double(self) -> float:
        return (self.next_uint64() >> 11) * 2.0**-53


def sample_box(box, count: int, seed: int) -> list[tuple[float, ...]]:
    """count points uniform in the box, point-major coordinate order."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        out.append(
            tuple(lo + (hi - lo) * rng.next_double() for lo, hi in box)
        )
    return out
