"""Interval-to-interval discrepancy of a permutation and related statistics.

D(sigma) is the maximum over all cyclic intervals I, J of the discrepancy
of sigma(I) in J.  Everything is exact and n-scaled: the integers reported
here are n times the usual quantities.

D, the restricted variants d and d' and the sampled lower bound all read
one prefix table over the doubled positions,

    q[t, j] = n * #{x < t : sigma(x mod n) <= j} - t * (j + 1),  0 <= t <= 2n.

Row L-1 of q[s+1 : s+n+1] - q[s] is the prefix profile of sigma(I) for the
interval I = (s, L) of length L starting at s.  Its range (max - min),
r[s, L-1], is n * max_J D_J(sigma(I)); `balance.profile_discrepancy` gives
the J.  As D_J(sigma(I)) = D_J(sigma(complement(I))), the exact scan
computes r for the lengths L <= n/2 only.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import numpy as np

from .core import (
    CyclicInterval,
    ModulusMismatchError,
    Permutation,
    ZnSubset,
    image_of_interval,
)
from .balance import profile_discrepancy, scaled_discrepancy_in
from .patterns import count_pattern, standardize


# Largest n the exact scans accept: the prefix table then takes about 268 MB.
MAX_DISCREPANCY_SIZE = 4096


@dataclass(frozen=True)
class PermDiscrepancyReport:
    """n-scaled discrepancy maxima with the intervals attaining them."""

    n: int
    scaled_D: int
    witness_I: CyclicInterval
    witness_J: CyclicInterval
    scaled_d: int
    witness_d: tuple
    scaled_d_prime: int
    witness_d_prime: tuple


def discrepancy_of_pair(sigma: Permutation, i: CyclicInterval,
                        j: CyclicInterval) -> int:
    """n * D_J(sigma(I)); used to re-check reported witnesses."""
    return scaled_discrepancy_in(image_of_interval(sigma, i), j.to_subset())


def _prefix_table(sigma: Permutation) -> np.ndarray:
    """The (2n+1) x n table q of the module docstring, built in place."""
    n = sigma.n
    if n > MAX_DISCREPANCY_SIZE:
        raise ValueError(f"permutation size {n} exceeds the discrepancy "
                         f"limit {MAX_DISCREPANCY_SIZE}")
    q = np.full((2 * n + 1, n), -1, dtype=np.int64)
    q[0] = 0
    x = np.arange(2 * n)
    q[x + 1, np.asarray(sigma.images)[x % n]] += n
    np.cumsum(q, axis=1, out=q)
    np.cumsum(q, axis=0, out=q)
    return q


def _ranges(q: np.ndarray, s: int, count: int, out=None) -> np.ndarray:
    """r[s, L-1] for L = 1..count."""
    g = np.subtract(q[s + 1:s + count + 1], q[s], out=out)
    return g.max(axis=1) - g.min(axis=1)


def _witness(q: np.ndarray, start: int, length: int) -> tuple:
    """(n * D_J(sigma(I)), (I, J)) for I = (start, length) and its best J;
    both intervals are empty when the value is 0."""
    n = q.shape[1]
    value, j = profile_discrepancy(q[start + length] - q[start])
    i = CyclicInterval(n, start, length) if value else CyclicInterval.empty(n)
    return value, (i, j)


def perm_discrepancy(sigma: Permutation) -> PermDiscrepancyReport:
    """Exact maximum of n * D_J(sigma(I)) over all cyclic intervals I, J.

    O(n^3) time and O(n^2) memory: one n x n range table r, of which each
    start computes the lengths up to n/2 and copies them to the
    complements (s + L, n - L); the full circle has range 0.  The first
    maximum in row-major order (first start, then shortest length) is the
    witness of D, the shortest initial and final intervals attaining the
    maximum are those of d and d'.
    """
    q = _prefix_table(sigma)
    n = sigma.n
    half = np.arange(1, n // 2 + 1)
    r = np.zeros((n, n), dtype=np.int32)  # ranges <= 2 n^2 < 2^31 at the cap
    g = np.empty((len(half), n), dtype=np.int64)
    for s in range(n):
        ranges = _ranges(q, s, len(half), out=g)
        r[s, :len(half)] = ranges
        r[(s + half) % n, n - 1 - half] = ranges
    start, row = divmod(int(np.argmax(r)), n)
    best, (best_i, best_j) = _witness(q, start, row + 1)
    d, wit_d = _witness(q, 0, int(np.argmax(r[0])) + 1)
    lengths = np.arange(1, n + 1)
    final = int(np.argmax(r[(n - lengths) % n, lengths - 1])) + 1
    dp, wit_dp = _witness(q, (n - final) % n, final)
    return PermDiscrepancyReport(n, best, best_i, best_j, d, wit_d, dp, wit_dp)


def restricted_discrepancies(sigma: Permutation) -> tuple:
    """(n*d, n*d') with the preimage interval restricted to initial
    respectively final intervals and J free; restricting J instead would
    break the block-product recursion inequalities.  The final intervals
    are the complements of the initial ones, so d' = d."""
    d = int(_ranges(_prefix_table(sigma), 0, sigma.n).max())
    return d, d


def separability_statistic(sigma: Permutation, i: CyclicInterval,
                           j: CyclicInterval, k: CyclicInterval,
                           kp: CyclicInterval) -> int:
    """n-scaled separability defect for the interval quadruple (I, J, K, K').

    |n * sum_{x in K, sigma(x) in K'} I(x) J(sigma(x)) - |I & K| |J & K'||,
    an exact integer.
    """
    n = sigma.n
    for iv in (i, j, k, kp):
        if iv.n != n:
            raise ModulusMismatchError(f"moduli differ: {iv.n} vs {n}")
    joint = sum(1 for x in range(n)
                if x in k and sigma.images[x] in kp
                and x in i and sigma.images[x] in j)
    ik = sum(1 for x in range(n) if x in i and x in k)
    jkp = sum(1 for y in range(n) if y in j and y in kp)
    return abs(n * joint - ik * jkp)


def _window_values(sigma: Permutation, i: CyclicInterval,
                   j: CyclicInterval) -> list:
    """sigma(x) for the positions x of the window I & sigma^-1(J), in
    natural position order."""
    return [v for x, v in enumerate(sigma.images) if x in i and v in j]


def _count_in(values: list, tau: Permutation) -> int:
    """Occurrences of tau in the one-line sequence `values`."""
    if len(values) < tau.n:
        return 0
    return count_pattern(Permutation(standardize(values)), tau)


def windowed_pattern_count(sigma: Permutation, tau: Permutation,
                           i: CyclicInterval, j: CyclicInterval) -> int:
    """Occurrences of tau in sigma restricted to the window I & sigma^-1(J)."""
    return _count_in(_window_values(sigma, i, j), tau)


def windowed_pattern_deviation(sigma: Permutation, tau: Permutation,
                               i: CyclicInterval, j: CyclicInterval) -> Fraction:
    """|X^tau(restriction) - C(w, m)/m!| with w the window size; exact."""
    if tau.n < 2:
        raise ValueError("pattern order must be at least 2")
    values = _window_values(sigma, i, j)
    expected = Fraction(comb(len(values), tau.n), factorial(tau.n))
    return abs(_count_in(values, tau) - expected)


def two_pattern_balance(sigma: Permutation, i: CyclicInterval,
                        j: CyclicInterval) -> int:
    """Ascending minus descending pair count on the window I & sigma^-1(J):
    C(w, 2) - 2 * inversions."""
    values = _window_values(sigma, i, j)
    return comb(len(values), 2) - 2 * _count_in(values, Permutation((1, 0)))


def ascent_pairs_across(sigma: Permutation, s: ZnSubset, t: ZnSubset) -> int:
    """Pairs x in S, y in T with x < y and sigma(x) < sigma(y)."""
    return sum(1 for x in s.members for y in t.members
               if x < y and sigma.images[x] < sigma.images[y])


def exclusion_lower_bound(n: int, m: int) -> float:
    """Discrepancy floor forced on any permutation that omits some order-m
    pattern entirely: n * C(n,m) / (4 e^(2m) m! n^m)."""
    if not n > m >= 2:
        raise ValueError("need n > m >= 2")
    return n * comb(n, m) / (4 * math.exp(2 * m) * factorial(m) * n ** m)


def sampled_discrepancy_lower_bound(sigma: Permutation, samples: int,
                                    seed: int = 0) -> int:
    """Lower bound on n * D(sigma) from randomly sampled preimage interval
    starts; 0 when samples <= 0."""
    n = sigma.n
    rng = random.Random(seed)
    q = _prefix_table(sigma)
    starts = (rng.randrange(n) for _ in range(samples))
    return max((int(_ranges(q, s, n).max()) for s in starts), default=0)
