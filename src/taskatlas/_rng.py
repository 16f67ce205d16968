"""Counter-style seeded generators: one generator per (master seed, index path).

Every randomized operation derives its generator from the master seed plus a
fixed index path (tree number, bootstrap replicate, stratum, ...), so results
never depend on scheduling or worker counts.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Deterministic generator keyed by (seed, *path)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path)))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx); its output
# is fixed by numpy's stream-compatibility policy (NEP 19)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF


def seed_words(seeds) -> np.ndarray:
    """Row ``i`` is ``np.random.SeedSequence(seeds[i]).generate_state(4,
    np.uint64)``, the words with which ``np.random.PCG64(seeds[i])`` starts,
    for uint64 ``seeds``, all computed at once.

    SeedSequence hashes its entropy words (``[lo]`` below 2**32, ``[lo, hi]``
    otherwise) into a pool of 4 and pads the pool by hashing 0, so both
    entropies equal ``[lo, hi, 0, 0]``; the hash constants run through the
    same sequence whatever the values, so each step is one array operation.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros(len(seeds), np.uint32)
    entropy = ((seeds & np.uint64(_MASK32)).astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32), zero, zero)
    pool = [hashmix(word) for word in entropy]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # generate_state(4, np.uint64): 8 uint32 words cycling over the pool, paired little-endian
    state = np.empty((len(seeds), 8), np.uint32)
    const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _Words(ISeedSequence):
    """A seed sequence whose state is ``words``: PCG64 asks it for 4 uint64
    words and reads them as one C-contiguous array."""

    def __init__(self, words: np.ndarray):
        self.words = np.ascontiguousarray(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


def pcg64_streams(seeds) -> Iterator[np.random.Generator]:
    """``np.random.Generator(np.random.PCG64(seed))`` for each uint64 seed of
    ``seeds`` in order, one at a time, with every seed's state derived up front."""
    for words in seed_words(seeds):
        yield np.random.Generator(np.random.PCG64(_Words(words)))
