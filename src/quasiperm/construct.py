"""Product constructions, digit-reversal permutations and random baselines.

The block product glues a size-n and a size-m permutation into one of size
n*m; iterated on the identity it yields the digit-reversal (van der Corput)
permutations, whose discrepancy grows only logarithmically.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import factorial
from operator import sub
from typing import Optional, Sequence

from .core import InputError, Permutation, Record, _cut

MAX_PRODUCT_SIZE = 1 << 24

# Least trials * permdisc.discrepancy_cells(n) at which mc_discrepancy_stats
# starts a process pool.  Below it, starting the workers costs more than the
# second core saves.  On a 2-core x86-64 machine the pool, sent one batch of
# trials per worker, took 0.50-0.80x as long as the trials in-process at
# 3e7 cells for n = 16-96 (1.18x at n = 192, 8 trials) and 0.45-0.79x at
# 1e8 cells for n = 16-192, but 1.3-2.8x at n = 96 and 192 from 1e7 cells
# down (medians of 3).
POOL_MIN_WORK = 25 * 10 ** 6

# Largest trials * permdisc.discrepancy_cells(n) that mc_discrepancy_stats
# takes.  D scanned 0.82 ns a cell at n = 1024 and 2048 on a 2-core x86-64
# host, so this is about 80 s of D on one core: 2 trials at n = 4096, 186
# at 1024.
MAX_MC_CELLS = 10 ** 11

# Most trials that mc_discrepancy_stats takes at any size: each keeps its
# value and ratio, and n = 1 has no cells at all.  On the same host 10^5
# trials at n = 1 took 3.1 s and 14 MB of traced memory, and 10^6 took 40 s
# and raised peak RSS by 157 MB.
MAX_TRIALS = 10 ** 5


def tensor(sigma: Permutation, tau: Permutation) -> Permutation:
    """Block product: x -> tau(x div n) + m * sigma(x mod n)."""
    n, m = sigma.n, tau.n
    if n * m > MAX_PRODUCT_SIZE:
        raise InputError(f"product size {n * m} too large")
    return Permutation([tau.images[x // n] + m * sigma.images[x % n] for x in range(n * m)])


def _check_power_size(base: int, factors: int) -> None:
    # base >= 2^(bits - 1): bit lengths refuse before a power is taken
    if ((base.bit_length() - 1) * factors >= MAX_PRODUCT_SIZE.bit_length()
            or base ** factors > MAX_PRODUCT_SIZE):
        raise InputError(f"{_cut(str(factors))}-fold product of size {_cut(str(base))} "
                         f"exceeds the product size limit {MAX_PRODUCT_SIZE}")


def tensor_power(sigma: Permutation, k: int) -> Permutation:
    """k-fold block product of sigma with itself (left fold; associative)."""
    if k < 1:
        raise InputError("power must be >= 1")
    if sigma.n == 1:  # every power of the one-point permutation is itself
        return sigma
    _check_power_size(sigma.n, k)
    return tensor_product([sigma] * k)


def tensor_product(factors: Sequence[Permutation]) -> Permutation:
    if not factors:
        raise InputError("need at least one factor")
    return reduce(tensor, factors)


def digit_reversal(base: int, digits: int) -> Permutation:
    """x -> the number whose base-n expansion is x's read backwards: the
    digits-fold block product of the identity on Z_base."""
    if base < 2 or digits < 1:
        raise InputError("need base >= 2 and digits >= 1")
    _check_power_size(base, digits)  # before the identity is built
    return tensor_power(Permutation.identity(base), digits)


def product_bound(sizes: Sequence[int]) -> int:
    """Unscaled discrepancy bound n_k + 2 * sum(n_1..n_{k-1}) - 2k + 1 for a
    k-fold block product with the given factor sizes."""
    if not sizes:
        raise InputError("need at least one size")
    if min(sizes) < 2:
        raise InputError("factor sizes must be >= 2")
    return sizes[-1] + 2 * sum(sizes[:-1]) - 2 * len(sizes) + 1


def schmidt_floor(n: int) -> float:
    """ln(N)/100 - 1; every permutation's discrepancy strictly exceeds it."""
    if n < 1:
        raise InputError("size must be positive")
    return math.log(n) / 100.0 - 1.0


def shift_counterexample(half: int) -> Permutation:
    """x -> x + n mod 2n; pairwise balanced yet it never contains (0,2,1)."""
    if half < 1:
        raise InputError("half-size must be >= 1")
    n2 = 2 * half
    return Permutation(tuple((x + half) % n2 for x in range(n2)))


def random_permutation(n: int, seed: int) -> Permutation:
    """Uniform permutation from a Fisher-Yates shuffle driven by PCG64.

    Position i, from n - 1 down to 1, swaps with the draw
    integers(0, i + 1) of numpy.random.Generator(numpy.random.PCG64(seed)),
    whose stream rng.PCG64 reproduces in pure Python; tests/test_rng.py
    checks the two agree.  So identical seeds give identical permutations
    on every platform, with or without numpy.
    """
    if n < 1:
        raise InputError("size must be positive")
    from .rng import PCG64

    rng = PCG64(seed)
    images = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.integer_below(i + 1)
        images[i], images[j] = images[j], images[i]
    return Permutation(images)


class InversionDistribution(Record):
    """Exact inversion-count distribution over S_n.

    counts[i] is the number of permutations with exactly i inversions: the
    coefficients of the iterated convolution (1)(1+q)...(1+q+...+q^(n-1)).
    """

    __slots__ = ("n", "counts", "mean", "variance")
    n: int
    counts: tuple
    mean: Fraction
    variance: Fraction


def inversion_distribution(n: int) -> InversionDistribution:
    """The Mahonian numbers are palindromic, counts[i] = counts[d - i] at
    degree d = n (n - 1) / 2, so each step keeps only its lower half.
    Step i multiplies by 1 + q + ... + q^(i-1) = (1 - q^i) / (1 - q) and
    takes the degree from d to d + i - 1.  The new lower half, up to index
    (d + i - 1) // 2 <= d, reads the old coefficients only up to that
    index; those past the old half are its mirror image."""
    if not 1 <= n <= 200:
        raise InputError("size must be in 1..200")
    half, degree = [1], 0
    for i in range(2, n + 1):
        low = (half + half[:(degree + 1) // 2][::-1])[:(degree + i - 1) // 2 + 1]
        half = list(accumulate(map(sub, low, [0] * i + low)))
        degree += i - 1
    coeffs = half + half[:(degree + 1) // 2][::-1]
    total = factorial(n)
    mean = Fraction(sum(i * c for i, c in enumerate(coeffs)), total)
    second = Fraction(sum(i * i * c for i, c in enumerate(coeffs)), total)
    return InversionDistribution(n, tuple(coeffs), mean, second - mean * mean)


class DiscrepancySample(Record):
    """Exact discrepancies of random permutations, normalized by sqrt(n ln n)."""

    __slots__ = ("n", "trials", "seed", "scaled_values", "ratios",
                 "median_ratio", "max_ratio")
    n: int
    trials: int
    seed: int
    scaled_values: tuple
    ratios: tuple
    median_ratio: float
    max_ratio: float


def mc_discrepancy_stats(n: int, trials: int, seed: int,
                         threads: Optional[int] = 1) -> DiscrepancySample:
    """Draw random permutations and report exact D(sigma) / sqrt(n ln n).

    Trial t draws its permutation from seed ^ t, so the result does not
    depend on where the trials run.  threads caps the worker processes at
    min(threads, trials, cores), and None means every core.  A process pool
    is started only when that cap exceeds 1 and trials * discrepancy_cells(n)
    of permdisc reaches POOL_MIN_WORK; otherwise the trials run in this
    process.  The pool sends the trials to its workers in one batch each.
    A size that D cannot take, more than MAX_TRIALS trials or more than
    MAX_MC_CELLS cells of D in all are refused before anything is drawn.
    """
    from . import permdisc

    permdisc._check_size(n)
    if trials < 1:
        raise InputError("need at least one trial")
    if trials > MAX_TRIALS:
        raise InputError(f"{_cut(str(trials))} trials exceed the limit {MAX_TRIALS}")
    cells = trials * permdisc.discrepancy_cells(n)
    if cells > MAX_MC_CELLS:
        raise InputError(f"{trials} trials at size {n} take {cells} cells of D, "
                         f"beyond the limit {MAX_MC_CELLS}")
    if threads is not None and threads < 1:
        raise InputError(f"threads must be at least 1, got {_cut(str(threads))}")
    cores = os.cpu_count() or 1
    workers = min(cores if threads is None else threads, trials, cores)
    tasks = [(n, seed ^ t) for t in range(trials)]
    if workers > 1 and cells >= POOL_MIN_WORK:
        from concurrent.futures import ProcessPoolExecutor

        # Loaded before the pool starts, as permdisc is, so forked workers
        # inherit both; workers started by spawn or forkserver import them again.
        import numpy  # noqa: F401

        with ProcessPoolExecutor(max_workers=workers) as pool:
            scaled = list(pool.map(_trial_discrepancy, tasks, chunksize=-(-trials // workers)))
    else:
        scaled = list(map(_trial_discrepancy, tasks))
    norm = math.sqrt(n * math.log(n)) if n > 1 else 1.0
    ratios = tuple((v / n) / norm for v in scaled)
    # the middle one or two, as statistics.median averages them
    mid = sorted(ratios)[(trials - 1) // 2:trials // 2 + 1]
    return DiscrepancySample(n, trials, seed, tuple(scaled), ratios,
                             sum(mid) / len(mid), max(ratios))


def _trial_discrepancy(args: tuple) -> int:
    from .permdisc import perm_discrepancy

    n, trial_seed = args
    sigma = random_permutation(n, trial_seed)
    return perm_discrepancy(sigma).scaled_D
