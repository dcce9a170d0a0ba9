"""Deterministic random generation for the law suite.

The generator is SplitMix64 (Steele, Lea, Flood 2014): a 64-bit counter
advanced by the golden-gamma constant and finalized with two xor-multiply
rounds.  It is tiny, has no platform-dependent behavior, and the same seed
yields the same stream everywhere, which is what reproducible law trials
need.  Stream splitting is done by hashing a textual label with BLAKE2b
keyed by the base seed, so every (law, size, trial, symbol) combination gets
an independent, stable seed.  `derive_seeds` and `lane_bits` serve many
streams, the lanes, at once.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1, MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * MIX1) & MASK64
        z = ((z ^ (z >> 27)) * MIX2) & MASK64
        return z ^ (z >> 31)

    def bits(self, n: int) -> int:
        """An n-bit integer, each bit independently fair."""
        out = 0
        filled = 0
        while filled < n:
            out |= self.next_u64() << filled
            filled += 64
        return out & ((1 << n) - 1)


def derive_seed(base: int, label: str) -> int:
    """Stable 64-bit seed for a named substream of `base`."""
    return int.from_bytes(derive_seeds(base, (label,)), "little")


def derive_seeds(base: int, labels: Iterable[str]) -> bytes:
    """`derive_seed(base, label)` of each label, as 8 little-endian bytes
    each, concatenated: one keyed hash, copied for each label."""
    keyed = hashlib.blake2b(digest_size=8, key=(base & MASK64).to_bytes(8, "little"))
    out = bytearray()
    for label in labels:
        h = keyed.copy()
        h.update(label.encode("utf-8"))
        out += h.digest()
    return bytes(out)


def lane_bits(seeds: bytes, n: int, draws: int = 1) -> list[bytes]:
    """`draws` successive `SplitMix64(seed).bits(n)` of every lane, whose
    seed is the lane's 8 little-endian bytes of `seeds`, as bit planes:
    plane d*n + b holds, for each lane in order, b"1" when bit b of the
    lane's d-th draw is set and b"0" when not.  All lanes step at once, as
    one integer holding each lane's state 128 bits apart."""
    lanes = len(seeds) // 8
    spread = bytearray(16 * lanes)
    for k in range(8):
        spread[k::16] = seeds[k::8]
    state = int.from_bytes(spread, "little")
    low = int.from_bytes((b"\xff" * 8 + bytes(8)) * lanes, "little")
    gamma = int.from_bytes(GAMMA.to_bytes(16, "little") * lanes, "little")
    planes = []
    for _ in range(draws):
        for filled in range(0, n, 64):
            state = state + gamma & low
            z = (state ^ state >> 30) & low
            z = z * MIX1 & low
            z = (z ^ z >> 27) & low
            z = z * MIX2 & low
            word = (z ^ z >> 31).to_bytes(16 * lanes, "little")
            planes += [word[b // 8 :: 16].translate(_BIT[b % 8]) for b in range(min(64, n - filled))]
    return planes


_BIT = [(b"0" * (1 << j) + b"1" * (1 << j)) * (128 >> j) for j in range(8)]  # byte -> its bit j, b"0"/b"1"
