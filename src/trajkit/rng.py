"""Seeded RNG substreams and a counter-based generator.

Every randomized operation takes an explicit integer seed and derives
independent generators via ``substream(seed, *key)``. Keyed substreams
(e.g. one per frame, or one per RANSAC iteration) make results identical
whether the keyed units run serially or concurrently.

``keyed_uniform`` goes one step further: each draw is a pure function of
its key, so a batch of draws needs no generator state at all. It hashes
the key with the SplitMix64 finaliser, in the spirit of the counter-based
generators of Salmon et al., "Parallel Random Numbers: As Easy as 1, 2,
3" (SC'11).
"""

from __future__ import annotations

import numpy as np

_U64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Return the generator for (seed, *key); distinct keys are independent."""
    return np.random.default_rng(np.random.SeedSequence([seed & _U64, *key]))


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser, a bijection on uint64 arrays.

    Only ever applied to arrays: uint64 arithmetic wraps silently on
    arrays, but numpy scalars warn on overflow.
    """
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def keyed_uniform(seed: int, *key) -> np.ndarray:
    """Uniform doubles in [0, 1), one per element of the broadcast ``key`` arrays.

    The draw for (seed, k1, k2, ...) depends on that key alone, never on
    which other keys are drawn with it or in what order. Keys are
    non-negative integers.
    """
    h = _mix(np.array([seed & _U64], dtype=np.uint64) + _GAMMA)
    for k in key:
        h = _mix((h + _GAMMA) ^ np.asarray(k, dtype=np.uint64))
    return (h >> np.uint64(11)) * 2.0 ** -53
