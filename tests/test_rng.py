"""``_rng.seed_words`` gives the words numpy's own SeedSequence gives, and
``pcg64_streams`` the generators ``PCG64(seed)`` gives."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from taskatlas._rng import pcg64_streams, seed_words

#: entropy of one 32-bit word, of two words, and the ends of both
BOUNDARY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def numpy_words(seed: int) -> list[int]:
    return np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()


@pytest.mark.parametrize("seed", BOUNDARY_SEEDS)
def test_seed_words_at_the_entropy_boundaries(seed):
    assert seed_words([seed]).tolist() == [numpy_words(seed)]


@settings(max_examples=200, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), max_size=20))
def test_seed_words_of_a_batch(seeds):
    words = seed_words(np.array(seeds, dtype=np.uint64))
    assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
    assert words.tolist() == [numpy_words(seed) for seed in seeds]


def test_streams_draw_what_pcg64_of_the_seed_draws():
    seeds = [*BOUNDARY_SEEDS, 12345, 2**40 + 7]
    got = [generator.standard_normal(5).tobytes() for generator in pcg64_streams(np.array(seeds, dtype=np.uint64))]
    assert got == [np.random.Generator(np.random.PCG64(seed)).standard_normal(5).tobytes() for seed in seeds]
