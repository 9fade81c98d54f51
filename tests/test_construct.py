import itertools
import math
import os
import random
import statistics
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasiperm import construct
from quasiperm.core import InputError, Permutation
from quasiperm.construct import (
    InversionDistribution,
    digit_reversal,
    inversion_distribution,
    mc_discrepancy_stats,
    product_bound,
    random_permutation,
    schmidt_floor,
    shift_counterexample,
    tensor,
    tensor_power,
    tensor_product,
)
from quasiperm.patterns import count_pattern
from quasiperm.permdisc import discrepancy_cells, perm_discrepancy, restricted_discrepancies

from fresh import run_fresh
from oracles import brute_inversions, mahonian_rows


def test_tensor_block_structure():
    sigma = Permutation((1, 0))
    tau = Permutation((0, 1, 2))
    prod = tensor(sigma, tau)
    assert prod.n == 6
    # residue x mod 2 is permuted by sigma, digit x div 2 by tau
    for x in range(6):
        assert prod.images[x] == tau.images[x // 2] + 3 * sigma.images[x % 2]


def test_tensor_power_example():
    assert tensor_power(Permutation.identity(2), 3).images == (0, 4, 2, 6, 1, 5, 3, 7)


def test_tensor_power_of_the_one_point_permutation_is_itself_at_once():
    # 1 ** k passes every size limit, so no list of k factors may be built
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert tensor_power(Permutation.identity(1), 10 ** 9) == Permutation((0,))
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0 and peak < 1 << 20
    with pytest.raises(InputError, match="power must be >= 1"):
        tensor_power(Permutation.identity(1), 0)


def test_digit_reversal_reverses_base_digits():
    for base in range(2, 6):
        for k in range(1, 5):
            if base ** k > 1024:
                continue
            expected = tuple(int(np.base_repr(x, base).zfill(k)[::-1], base)
                             for x in range(base ** k))
            assert digit_reversal(base, k).images == expected


def test_digit_reversal_size_guard():
    with pytest.raises(InputError):
        digit_reversal(2, 25)
    with pytest.raises(InputError):
        digit_reversal((1 << 24) + 1, 1)


def test_digit_reversal_equals_identity_power():
    for base in range(2, 6):
        for k in range(1, 5):
            if base ** k > 1024:
                continue
            assert (digit_reversal(base, k).images
                    == tensor_power(Permutation.identity(base), k).images)


def test_tensor_product_associative():
    rng = random.Random(73)
    perms = [random_permutation(rng.randint(2, 4), rng.randrange(10 ** 6))
             for _ in range(3)]
    a = tensor(tensor(perms[0], perms[1]), perms[2])
    b = tensor(perms[0], tensor(perms[1], perms[2]))
    assert a == b == tensor_product(perms)


def test_tensor_overflow_guard():
    big = Permutation.identity(1 << 13)
    with pytest.raises(InputError):
        tensor(big, big)


factor_lists = st.lists(
    st.integers(2, 4).flatmap(lambda m: st.permutations(range(m)).map(Permutation)),
    min_size=1, max_size=3)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(factor_lists)
def test_product_bound_dominates_true_discrepancy(factors):
    prod = tensor_product(factors)
    scaled = perm_discrepancy(prod).scaled_D
    assert scaled <= product_bound([f.n for f in factors]) * prod.n


def test_recursion_inequalities():
    # d(sigma x tau) <= m - 1 + d(sigma); D <= m - 1 + d(sigma) + d'(sigma)
    rng = random.Random(83)
    for _ in range(15):
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        sigma = random_permutation(m, rng.randrange(10 ** 6))
        tau = random_permutation(n, rng.randrange(10 ** 6))
        prod = tensor(sigma, tau)
        big = m * n
        d_s, dp_s = restricted_discrepancies(sigma)
        rep = perm_discrepancy(prod)
        assert Fraction(rep.scaled_d, big) <= m - 1 + Fraction(d_s, m)
        assert Fraction(rep.scaled_D, big) <= m - 1 + Fraction(d_s + dp_s, m)


def test_schmidt_floor():
    assert schmidt_floor(1024) == pytest.approx(math.log(1024) / 100 - 1)


def test_shift_counterexample_counts():
    for half in (2, 3, 5, 8):
        sigma = shift_counterexample(half)
        assert sigma.n == 2 * half
        assert count_pattern(sigma, Permutation((0, 2, 1))) == 0
        assert count_pattern(sigma, Permutation((0, 1))) == half * (half - 1)
        assert count_pattern(sigma, Permutation((1, 0))) == half * half


def test_random_permutation_deterministic_and_uniformish():
    a = random_permutation(20, 7)
    assert a == random_permutation(20, 7)
    assert a != random_permutation(20, 8)
    seen = {random_permutation(3, s).images for s in range(200)}
    assert len(seen) == 6  # all of S_3 shows up quickly


def test_inversion_distribution_small_exact():
    assert inversion_distribution(3).counts == (1, 2, 2, 1)
    for n in (1, 2, 3, 4, 5, 6):
        counts = [0] * (n * (n - 1) // 2 + 1)
        for images in itertools.permutations(range(n)):
            counts[brute_inversions(images)] += 1
        assert inversion_distribution(n).counts == tuple(counts)


def test_inversion_distribution_halves_equal_the_full_recurrence():
    # the mirrored lower half changes with the parity of each step's degree
    for n, counts in enumerate(mahonian_rows(200), start=1):
        assert inversion_distribution(n).counts == tuple(counts), n


def test_inversion_distribution_moments():
    for n in (5, 12, 30, 120, 200):
        # the closed forms against the moments of the counts themselves
        dist = inversion_distribution(n)
        total = sum(dist.counts)
        assert total == math.factorial(n)
        mean = Fraction(sum(i * c for i, c in enumerate(dist.counts)), total)
        second = Fraction(sum(i * i * c for i, c in enumerate(dist.counts)), total)
        assert dist.mean == mean == Fraction(n * (n - 1), 4)
        assert dist.variance == second - mean * mean == Fraction(n * (n - 1) * (2 * n + 5), 72)


def test_inversion_distribution_symmetric_unimodal():
    for n in (4, 9, 25):
        counts = inversion_distribution(n).counts
        assert counts == counts[::-1]
        mid = len(counts) // 2
        assert all(counts[i] <= counts[i + 1] for i in range(mid))


def test_mc_discrepancy_stats_reproducible_and_thread_invariant(monkeypatch):
    # a zero threshold sends any input with two or more workers to the pool
    monkeypatch.setattr(construct, "POOL_MIN_WORK", 0)
    a = mc_discrepancy_stats(12, 6, seed=3)
    b = mc_discrepancy_stats(12, 6, seed=3, threads=3)
    assert a == b
    assert len(a.scaled_values) == 6
    for scaled, ratio in zip(a.scaled_values, a.ratios):
        assert ratio == pytest.approx((scaled / 12) / math.sqrt(12 * math.log(12)))


def test_mc_median_ratio_is_the_statistics_median():
    for trials in range(1, 9):
        sample = mc_discrepancy_stats(24, trials, seed=11)
        assert sample.median_ratio == statistics.median(sample.ratios)
    assert len(set(sample.ratios)) > 2


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace ProcessPoolExecutor by a serial stand-in on a 4-core host;
    returns the list of (max_workers, chunksize) of each constructed pool,
    chunksize as its map was given it."""
    import concurrent.futures

    constructed = []

    class SerialPool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            constructed.append((self.max_workers, chunksize))
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    return constructed


def test_mc_discrepancy_stats_caps_the_worker_count(monkeypatch, serial_pool):
    monkeypatch.setattr(construct, "POOL_MIN_WORK", 0)
    capped = mc_discrepancy_stats(12, 2, seed=5, threads=10 ** 5)
    assert serial_pool == [(2, 1)]
    assert capped == mc_discrepancy_stats(12, 2, seed=5, threads=1)
    mc_discrepancy_stats(12, 6, seed=5, threads=None)
    # each worker gets one batch: ceil(trials / workers) trials
    assert serial_pool == [(2, 1), (4, 2)]
    assert mc_discrepancy_stats(12, 9, seed=5, threads=2) == \
        mc_discrepancy_stats(12, 9, seed=5, threads=1)
    assert serial_pool == [(2, 1), (4, 2), (2, 5)]


def test_mc_discrepancy_stats_size_limit_raises_before_drawing():
    # a size D cannot take is refused before the first permutation of that
    # size, about 45 bytes per element, is drawn
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="exceeds the discrepancy limit"):
            mc_discrepancy_stats(2 * 10 ** 5, 1, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_mc_discrepancy_stats_work_guard_admits_its_limit(monkeypatch):
    # the trials are stubbed out, as in the pool test: only the guard is
    # under test
    monkeypatch.setattr(construct, "_trial_discrepancy", lambda task: task[0])
    n = 4096
    trials = construct.MAX_MC_CELLS // discrepancy_cells(n)
    assert mc_discrepancy_stats(n, trials, seed=0).trials == trials
    with pytest.raises(InputError, match="cells of D, beyond the limit"):
        mc_discrepancy_stats(n, trials + 1, seed=0)
    # reaching it exactly is admitted
    monkeypatch.setattr(construct, "MAX_MC_CELLS", 3 * discrepancy_cells(12))
    assert mc_discrepancy_stats(12, 3, seed=0).trials == 3
    with pytest.raises(InputError, match=f"4 trials at size 12 take {4 * discrepancy_cells(12)}"):
        mc_discrepancy_stats(12, 4, seed=0)


def test_mc_discrepancy_stats_trial_guard_admits_its_limit(monkeypatch):
    # n = 1 has no cells, so only the trial count bounds it
    monkeypatch.setattr(construct, "_trial_discrepancy", lambda task: 0)
    monkeypatch.setattr(construct, "MAX_TRIALS", 5)
    assert mc_discrepancy_stats(1, 5, seed=0).trials == 5
    with pytest.raises(InputError, match="^6 trials exceed the limit 5$"):
        mc_discrepancy_stats(1, 6, seed=0)


def test_mc_discrepancy_stats_refuses_huge_trials_before_listing_them():
    tracemalloc.start()
    try:
        for n in (1, 2, 4096):
            with pytest.raises(InputError, match="trials exceed the limit"):
                mc_discrepancy_stats(n, 10 ** 30, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("threads", [0, -1])
def test_mc_discrepancy_stats_rejects_threads_below_one(threads):
    with pytest.raises(InputError, match=f"threads must be at least 1, got {threads}"):
        mc_discrepancy_stats(12, 2, seed=5, threads=threads)


def test_mc_discrepancy_stats_pools_from_pool_min_work_cells(monkeypatch, serial_pool):
    # the trials are stubbed out: only the pool decision is under test
    monkeypatch.setattr(construct, "_trial_discrepancy", lambda task: task[0])

    def pools(n, trials, threads):
        serial_pool.clear()
        mc_discrepancy_stats(n, trials, seed=0, threads=threads)
        return serial_pool != []

    # around the first trial count whose cells reach POOL_MIN_WORK
    for n in (64, 100, 300):
        trials = -(-construct.POOL_MIN_WORK // discrepancy_cells(n))
        assert (trials - 1) * discrepancy_cells(n) < construct.POOL_MIN_WORK
        assert not pools(n, trials - 1, 2) and pools(n, trials, 2)
    # the benchmark's Monte Carlo questions run in one process
    assert not pools(16, 8, 2) and not pools(48, 64, 1)
    # reaching it exactly asks for a pool
    monkeypatch.setattr(construct, "POOL_MIN_WORK", 3 * discrepancy_cells(12))
    assert not pools(12, 2, 2) and pools(12, 3, 2)


def test_mc_discrepancy_stats_small_work_starts_no_pool(serial_pool):
    serial = mc_discrepancy_stats(12, 6, seed=5, threads=1)
    for threads in (8, None):
        assert mc_discrepancy_stats(12, 6, seed=5, threads=threads) == serial
    assert serial_pool == []


def test_mc_discrepancy_stats_workers_inherit_numpy():
    # A serial fake pool in a fresh interpreter: by the time the pool starts,
    # permdisc and numpy are loaded, so forked workers inherit them instead
    # of each importing them again.
    script = """
import concurrent.futures
import os
import sys

from quasiperm import construct

loaded = []


class SerialPool:
    def __init__(self, max_workers):
        loaded.append({"quasiperm.permdisc", "numpy"} <= set(sys.modules))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


assert "numpy" not in sys.modules
concurrent.futures.ProcessPoolExecutor = SerialPool
os.cpu_count = lambda: 2
construct.POOL_MIN_WORK = 0
construct.mc_discrepancy_stats(12, 2, seed=5, threads=2)
assert loaded == [True], loaded
"""
    proc = run_fresh(script)
    assert proc.returncode == 0, proc.stderr


def test_size_one_edges():
    # n = 1 has D = 0 and log n = 0, so its ratio is taken against 1
    assert random_permutation(1, 7) == Permutation((0,))
    sample = mc_discrepancy_stats(1, 3, seed=0)
    assert sample.scaled_values == (0, 0, 0) and sample.ratios == (0.0, 0.0, 0.0)
    assert shift_counterexample(1) == Permutation((1, 0))


def test_power_size_guard_admits_its_limit():
    # on the guard alone: 2^24 is MAX_PRODUCT_SIZE, and nothing is built
    construct._check_power_size(2, 24)
    with pytest.raises(InputError, match="25-fold product of size 2 exceeds"):
        construct._check_power_size(2, 25)
