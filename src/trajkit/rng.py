"""Counter-based random numbers: every draw is a pure function of its key.

``keyed_uniform`` is the toolkit's only source of randomness. It hashes
(seed, *key) with the SplitMix64 finaliser, in the spirit of the
counter-based generators of Salmon et al., "Parallel Random Numbers: As
Easy as 1, 2, 3" (SC'11). A draw depends on no other draw, so results
are the same however the work is split, batched or cut short. It is
``draw(keyed_prefix(seed, *head), last)``: a caller that needs several
draws of one key hashes the key once with ``keyed_prefix``.
"""

from __future__ import annotations

import math

import numpy as np

_U64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)

# Capture keys its draws by (seed, frame, landmark, draw). Every other kind
# of draw leads its key with its own stream constant; at 2**63 and above,
# beyond any frame index, so that no two kinds of draw share a key.
WORLD, PERTURB, RECON_NOISE, OUTLIERS, DISPLACEMENT, RANSAC, PREVERIFY = range(
    1 << 63, (1 << 63) + 7
)
# No box_muller draw exceeds sigma * MAX_NORMAL: a uniform is at most 1 - 2**-53.
MAX_NORMAL = math.sqrt(-2.0 * math.log(2.0 ** -53))


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finaliser, a bijection, in place on a uint64 array (which wraps; scalars
    would warn)."""
    shifted = z >> np.uint64(30)
    z ^= shifted
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def keyed_prefix(seed: int, *key) -> np.ndarray:
    """The uint64 hash state after (seed, *key), one per element of the broadcast ``key``.

    ``draw(keyed_prefix(seed, *key), k)`` is ``keyed_uniform(seed, *key, k)``,
    so a caller can hash a shared key once and draw several indices from it.
    """
    h = _mix(np.array([seed & _U64], dtype=np.uint64) + _GAMMA)
    for k in key:
        h = _mix((h + _GAMMA) ^ np.asarray(k, dtype=np.uint64))
    return h


def draw(prefix: np.ndarray, k) -> np.ndarray:
    """Uniform doubles in [0, 1): draw ``k`` of each hash state in ``prefix``."""
    h = _mix((prefix + _GAMMA) ^ np.asarray(k, dtype=np.uint64))
    return (h >> np.uint64(11)) * 2.0 ** -53


def keyed_uniform(seed: int, *key) -> np.ndarray:
    """Uniform doubles in [0, 1), one per element of the broadcast ``key`` arrays.

    The draw for (seed, k1, k2, ...) depends on that key alone. Keys are
    integers in [0, 2**64); any integer is a seed; at least one key is given.
    """
    return draw(keyed_prefix(seed, *key[:-1]), key[-1])


def keyed_subset(seed: int, stream: int, n: int, count: int) -> np.ndarray:
    """Sorted indices of the ``count`` rows in [0, n) with the smallest (stream, row) draws."""
    if not 0 < count < n:
        return np.arange(min(count, n))
    keys = keyed_uniform(seed, stream, np.arange(n))
    cut = np.partition(keys, count - 1)[count - 1]
    # Every row whose draw is below the count-th smallest, then the lowest rows that tie with it.
    taken = keys < cut
    taken[np.flatnonzero(keys == cut)[:count - np.count_nonzero(taken)]] = True
    return np.flatnonzero(taken)


def box_muller(u: np.ndarray, v: np.ndarray, sigma: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Two independent N(0, sigma**2) arrays from two arrays of uniforms in [0, 1)."""
    radius = sigma * np.sqrt(-2.0 * np.log1p(-u))
    angle = 2.0 * math.pi * v
    return radius * np.cos(angle), radius * np.sin(angle)
