"""The counter-based generator: keyed_uniform is draw of a keyed_prefix."""

from __future__ import annotations

import numpy as np

from trajkit import rng

_U64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def reference_uniform(seed: int, *key: int) -> float:
    """keyed_uniform of one key in Python integers: SplitMix64's finaliser, chained."""
    def mix(z):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
        return z ^ (z >> 31)

    h = mix(((seed & _U64) + _GAMMA) & _U64)
    for k in key:
        h = mix(((h + _GAMMA) & _U64) ^ k)
    return (h >> 11) * 2.0 ** -53


def test_keyed_uniform_is_draw_of_keyed_prefix():
    g = np.random.default_rng(5)
    frame, ids = (g.integers(0, 2**64, (300, 1), dtype=np.uint64) for _ in "ab")
    for seed in (0, -3, 2**70 + 5):
        draws = rng.keyed_uniform(seed, frame, ids, np.arange(3))
        prefix = rng.keyed_prefix(seed, frame, ids)
        composed = np.column_stack([rng.draw(prefix, k) for k in range(3)])
        assert draws.tobytes() == composed.tobytes()
        for r in (0, 299):
            for k in range(3):
                assert draws[r, k] == reference_uniform(seed, int(frame[r, 0]), int(ids[r, 0]), k)
    assert rng.keyed_uniform(9, rng.WORLD).tolist() == [reference_uniform(9, rng.WORLD)]
