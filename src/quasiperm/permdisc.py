"""Interval-to-interval discrepancy of a permutation and related statistics.

D(sigma) is the maximum over all cyclic intervals I, J of the discrepancy
of sigma(I) in J.  Everything is exact and n-scaled: the integers reported
here are n times the usual quantities.

D, the restricted variants d and d' and the sampled lower bound all read
one prefix table over the doubled positions,

    q[t, j] = n * #{x < t : sigma(x mod n) <= j} - t * (j + 1),  0 <= t <= 2n.

Row L-1 of q[s+1 : s+n+1] - q[s] is the prefix profile of sigma(I) for the
interval I of length L starting at s, and row L-1 of q[n] - q[n-1::-1] the
one for the final interval of length L.  Each profile row gives the best J
through `balance.profile_discrepancy`.
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


def _scan(g: np.ndarray) -> tuple:
    """(max over rows of n * D, first row attaining it, witness J)."""
    per_len = g.max(axis=1) - g.min(axis=1)
    row = int(np.argmax(per_len))
    value, j_wit = profile_discrepancy(g[row])
    return value, row, j_wit


def perm_discrepancy(sigma: Permutation) -> PermDiscrepancyReport:
    """Exact maximum of n * D_J(sigma(I)) over all cyclic intervals I, J.

    O(n^3) time and O(n^2) memory: one prefix table, then for each start
    of I one subtraction of a table row gives the profiles of all n
    lengths.  Wrapping J come for free through the complement identity
    D_J = D_{complement(J)}.  The first start and the shortest length
    attaining the maximum give the witness.
    """
    q = _prefix_table(sigma)
    n = sigma.n
    g = np.empty((n, n), dtype=np.int64)
    best = 0
    best_i = CyclicInterval.empty(n)
    best_j = CyclicInterval.empty(n)
    for start in range(n):
        np.subtract(q[start + 1:start + n + 1], q[start], out=g)
        value, row, j_wit = _scan(g)
        if value > best:
            best, best_i, best_j = value, CyclicInterval(n, start, row + 1), j_wit
    (d, wit_d), (dp, wit_dp) = _restricted_max(q)
    return PermDiscrepancyReport(n, best, best_i, best_j, d, wit_d, dp, wit_dp)


def _restricted_max(q: np.ndarray) -> tuple:
    """((n*d, (I, J)), (n*d', (I, J))): max of n * D_J(sigma(I)) with I over
    initial respectively final intervals.

    The preimage interval is the restricted one; J ranges over everything.
    Restricting J instead would be a different statistic, and only this
    convention satisfies the block-product recursion inequalities.
    """
    n = q.shape[1]
    d, row, j_d = _scan(q[1:n + 1])
    dp, row_p, j_dp = _scan(q[n] - q[n - 1::-1])
    i_d = CyclicInterval(n, 0, row + 1) if d else CyclicInterval.empty(n)
    i_dp = (CyclicInterval(n, n - 1 - row_p, row_p + 1) if dp
            else CyclicInterval.empty(n))
    return (d, (i_d, j_d)), (dp, (i_dp, j_dp))


def restricted_discrepancies(sigma: Permutation) -> tuple:
    """(n*d, n*d') with the preimage interval restricted to initial
    respectively final intervals."""
    (d, _), (dp, _) = _restricted_max(_prefix_table(sigma))
    return d, dp


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
    return max((_scan(q[s + 1:s + n + 1] - q[s])[0] for s in starts), default=0)
