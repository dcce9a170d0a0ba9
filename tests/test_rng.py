"""The law suite's random streams: `derive_seed` is pinned, and the
lane-parallel SplitMix64 draws what the one-stream generator draws."""

import random

import pytest

from scalc.rng import SplitMix64, derive_seed, derive_seeds, lane_bits


def test_derive_seed_is_pinned():
    assert derive_seed(1, "a/b") == 2380438829645519064
    assert derive_seed(0x5CA1C0DE, "thm3.5/2/7/P") == 8482816066653665966
    assert derive_seed(-5, "négative/3") == 16078196690211954237


def test_derive_seeds_is_derive_seed_of_each_label():
    labels = [f"law/3/{t}" for t in range(50)]
    out = derive_seeds(99, labels)
    assert [int.from_bytes(out[8 * k : 8 * k + 8], "little") for k in range(50)] == [
        derive_seed(99, label) for label in labels
    ]


@pytest.mark.parametrize("n", [*range(1, 9), 64, 65])
def test_lane_bits_are_splitmix_bits(n):
    rng = random.Random(n)
    seeds = [rng.getrandbits(64) for _ in range(1000)]
    draws = 2
    planes = lane_bits(b"".join(s.to_bytes(8, "little") for s in seeds), n, draws)
    assert len(planes) == draws * n and {len(p) for p in planes} == {1000}
    for t, seed in enumerate(seeds):
        one = SplitMix64(seed)
        for d in range(draws):
            assert sum((planes[d * n + b][t] == ord("1")) << b for b in range(n)) == one.bits(n)
