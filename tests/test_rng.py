"""The pure-Python PCG64 stream against numpy's generator, the oracle."""

import numpy as np
import pytest

from quasiperm import rng as rng_module
from quasiperm.construct import random_permutation
from quasiperm.patterns import build_pattern_matrices, top_eigenvalue
from quasiperm.rng import PCG64

from oracles import numpy_random_permutation

# seeds of one, two, four and more than four 32-bit words; SeedSequence
# pads short seeds to its pool of four and mixes longer ones in after it
SEEDS = [0, 1, 12345, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 96 + 17, 2 ** 128 - 1,
         2 ** 128, 2 ** 200 + 3, 10 ** 40]


class CountingPCG64(PCG64):
    """PCG64 counting the 32-bit halves it hands out."""

    halves = 0

    def next32(self) -> int:
        self.halves += 1
        return super().next32()


@pytest.mark.parametrize("seed", SEEDS)
def test_words_equal_numpy(seed):
    ours = PCG64(seed)
    assert [ours.next64() for _ in range(64)] == np.random.PCG64(seed).random_raw(64).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_bounded_draws_equal_integers(seed):
    # k = 2^32 takes numpy's unbounded 32-bit path, which the draw matches
    ours, gen = PCG64(seed), np.random.Generator(np.random.PCG64(seed))
    for k in (2, 3, 10, 97, 1000, 2 ** 31, 2 ** 32):
        assert [ours.integer_below(k) for _ in range(100)] == gen.integers(0, k, 100).tolist()
    assert [ours.random() for _ in range(10)] == gen.random(10).tolist()


@pytest.mark.parametrize("k", [3 * 2 ** 30, 2 ** 31 + 12345, 4 * 10 ** 9])
def test_rejection_loop_matches_numpy_near_2_to_32(k):
    # a half is drawn again with probability (2^32 mod k) / 2^32: 1/4,
    # about 1/2 and about 7% here
    draws = 2000
    for seed in (0, 2 ** 40 + 1):
        ours = CountingPCG64(seed)
        gen = np.random.Generator(np.random.PCG64(seed))
        assert [ours.integer_below(k) for _ in range(draws)] == [
            int(gen.integers(0, k)) for _ in range(draws)]
        assert ours.halves - draws >= draws * ((1 << 32) % k) / (1 << 32) / 2


def test_random_permutation_equals_the_numpy_shuffle():
    for n, seed in [(1, 0), (2, 5), (3, 1), (16, 7), (48, 2 ** 33 + 9), (97, 10 ** 40),
                    (384, 12345)]:
        assert random_permutation(n, seed) == numpy_random_permutation(n, seed)
    for seed in range(200):
        assert random_permutation(seed % 13 + 1, seed) == numpy_random_permutation(seed % 13 + 1, seed)


def test_negative_seed_is_refused_as_numpy_refuses_it():
    for make in (PCG64, np.random.PCG64, lambda seed: random_permutation(5, seed)):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            make(-1)


@pytest.mark.parametrize("m", range(1, 6))
def test_top_eigenvalue_starts_from_default_rng(monkeypatch, m):
    drawn = []

    class Recording(PCG64):
        def random(self):
            drawn.append(super().random())
            return drawn[-1]

    monkeypatch.setattr(rng_module, "PCG64", Recording)
    a = build_pattern_matrices(m).A
    top_eigenvalue(a)
    assert drawn == np.random.default_rng(12345).random(len(a)).tolist()
