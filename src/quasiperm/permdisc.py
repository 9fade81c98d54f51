"""Interval-to-interval discrepancy of a permutation and related statistics.

D(sigma) is the maximum over all cyclic intervals I, J of the discrepancy
of sigma(I) in J.  Everything is exact and n-scaled: the integers reported
here are n times the usual quantities.

D, the restricted variants d and d' and the sampled lower bound all read
one n x n prefix table over the positions,

    q[t, j] = n * #{x < t : sigma(x) <= j} - t * (j + 1),  0 <= t < n.

At t = n the formula gives 0 = q[0], so q is periodic, q[t + n] = q[t].
For positions a < b, q[b] - q[a] is then the prefix profile of sigma(I)
for I = (a, b - a), starting at a with length b - a, and its negation that
of the complement (b, n - b + a).  The range (max - min) of the profile is
n * max_J D_J(sigma(I)) for both, and core.profile_witness gives it and
the J.  So D is the largest range over the row pairs (a, b).

D and the sampled bound have two scans of the same table, with the same
answers and witnesses.  A cell is one row pair and one column, so D
takes discrepancy_cells(n) and the sampled bound n^2 per start, plus n^2
for the rows.  The list scan keeps q as n Python lists and costs 70-115
ns a cell; the array scan keeps q in numpy, which costs loading numpy
(about 130 ms in a fresh process) and then 1-5 ns a cell.  So a process
scans on lists while numpy is not loaded and its list cells, this call's
included, stay within _LIST_CELLS, about one load's worth; any other call
loads numpy and takes the array scan.  That is rent-or-buy (Karlin,
Manasse, Rudolph & Sleator 1988): a process never pays much more than
twice the better of the two.  Only the time differs, never the answer.

Every entry of q and every row difference is n * c - L * (j + 1) with
max(0, L + j + 1 - n) <= c <= min(L, j + 1), so |q| <= n^2 / 4.  The
array table is int16 while n^2 < 2^17 (n <= 362) and int32 above; ranges
are taken in int32.  With an int16 table D is scanned by columns, over
blocks of starts; with an int32 table, by rows, one start at a time.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from math import comb, factorial
from operator import add, sub
from typing import TYPE_CHECKING

from .core import (CyclicInterval, InputError, Permutation, Record, _check_moduli,
                   image_of_interval, profile_witness, scaled_discrepancy_in)

if TYPE_CHECKING:
    import numpy as np


# Largest n the exact scans accept: the prefix table and the scan buffer
# then take about 67 MB each.
MAX_DISCREPANCY_SIZE = 4096

# Elements in one block of the column scan, 1 MB of int16.
_BLOCK = 1 << 19

# List cells worth loading numpy once, per process.  On a 2-core x86-64
# host a fresh `quasiperm analyze-perm` at n = 32 took 211-216 ms on the
# array scan and 81 ms on lists (medians of 15 calls), and the list scan
# of D took 70-115 ns a cell from n = 32 to 144: 1.5 * 10^6 cells is
# 105-170 ms.  One D up to n = 144 fits.
_LIST_CELLS = 1_500_000
_list_cells_left = _LIST_CELLS


class PermDiscrepancyReport(Record):
    """n-scaled discrepancy maxima with the intervals attaining them."""

    __slots__ = ("n", "scaled_D", "witness_I", "witness_J", "scaled_d",
                 "witness_d", "scaled_d_prime", "witness_d_prime")
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
    """n * D_J(sigma(I)), the count of sigma(I) in J; used to re-check
    reported witnesses."""
    for iv in (i, j):
        _check_moduli(iv.n, sigma.n)
    return scaled_discrepancy_in(image_of_interval(sigma, i), j.to_subset())


def _lists_pay(cells: int) -> bool:
    """Whether a scan of `cells` cells runs on lists: only while numpy is
    not loaded and the process's list cells stay within _LIST_CELLS."""
    global _list_cells_left
    if "numpy" in sys.modules or cells > _list_cells_left:
        return False
    _list_cells_left -= cells
    return True


def discrepancy_cells(n: int) -> int:
    """Cells of one D scan at size n: n columns for each row pair a < b."""
    return n * n * (n - 1) // 2


def _check_size(n: int) -> None:
    if n > MAX_DISCREPANCY_SIZE:
        raise InputError(f"permutation size {n} exceeds the discrepancy "
                         f"limit {MAX_DISCREPANCY_SIZE}")


def _list_rows(sigma: Permutation):
    """The rows of the table q of the module docstring as lists, in
    order: row t + 1 is row t minus j + 1, plus n from column sigma(t) on."""
    n = sigma.n
    _check_size(n)
    row = [0] * n
    yield row
    down = list(range(-1, -n - 1, -1))
    up = [v + n for v in down]
    for s in sigma.images[:-1]:
        row = list(map(add, row, down[:s] + up[s:]))
        yield row


def _list_ranges(rows: list, base: list) -> list:
    """Ranges of the profiles row - base for each of rows."""
    ranges = []
    for row in rows:
        g = list(map(sub, row, base))
        ranges.append(max(g) - min(g))
    return ranges


def _prefix_table(sigma: Permutation) -> np.ndarray:
    """The n x n table q of the module docstring in numpy, built in place."""
    import numpy as np

    n = sigma.n
    _check_size(n)
    # An entry or row difference n * c - L * (j + 1), with c in
    # [max(0, L + j + 1 - n), min(L, j + 1)], is at most L (n - L) <= n^2 / 4
    # in size, and both cumsums pass only through such values.  numpy wraps
    # int16 silently, so int16 is taken only while n^2 / 4 < 2^15, that is
    # n^2 < 2^17 (n <= 362).  A range, one interval's n c - L m, obeys the
    # same bound, but ranges are taken in int32 so that only the table
    # rests on it.
    dtype = np.int16 if n * n < 1 << 17 else np.int32
    q = np.full((n, n), -1, dtype=dtype)
    q[0] = 0
    q[np.arange(1, n), np.asarray(sigma.images[:-1], dtype=np.intp)] += n
    np.cumsum(q, axis=1, dtype=dtype, out=q)
    np.cumsum(q, axis=0, dtype=dtype, out=q)
    return q


def _ranges(rows: np.ndarray, base: np.ndarray, out: np.ndarray) -> np.ndarray:
    """int32 ranges of the profiles rows[i] - base, computed in out."""
    import numpy as np

    g = np.subtract(rows, base, out=out[:len(rows)])
    return np.subtract(g.max(axis=1), g.min(axis=1), dtype=np.int32)


def _witness(row, a: int, b: int) -> tuple:
    """(n * D_J(sigma(I)), (I, J)) for I = (a, (b - a) mod n) and the J of
    core.profile_witness, from the table's rows as lists, row(t) for row t;
    both intervals are empty when the value is 0."""
    value, j = profile_witness(list(map(sub, row(b), row(a))))
    return value, (CyclicInterval(j.n, a, (b - a) % j.n) if value else j, j)


def _list_scan(sigma: Permutation) -> tuple:
    """(row, pair, row0) for D by the list scan: the rows of q, the first
    maximal pair (a, b) and the ranges of row 0."""
    q = list(_list_rows(sigma))
    best, pair = 0, (0, 0)
    for a, base in enumerate(q):
        ranges = _list_ranges(q[a:], base)
        top = max(ranges)
        if top > best:
            best, pair = top, (a, a + ranges.index(top))
        if a == 0:
            row0 = ranges
    return q.__getitem__, pair, row0


def _array_scan(sigma: Permutation) -> tuple:
    """(row, pair, row0) for D by the array scan, as for _list_scan.

    An int16 table (n <= 362) is scanned by columns: the s starts from a0
    on make one (n, s, n - a0) buffer of profiles, reduced along the
    values, and later blocks fit in the first one's buffer.  A block also
    holds the pairs b < a, negations of the earlier pairs (b, a), so its
    first maximum is never one of them.  An int32 table is scanned by
    rows, one start at a time, where columns measured slower.
    """
    import numpy as np

    q = _prefix_table(sigma)
    n = sigma.n
    best, pair = 0, (0, 0)
    if q.dtype == np.int16:
        qt = np.ascontiguousarray(q.T)
        buf = np.empty(n * n * min(n, _BLOCK // (n * n)), np.int16)
        a0 = 0
        while a0 < n:
            w = n - a0
            s = min(w, len(buf) // (n * w))
            g = np.subtract(qt[:, None, a0:], qt[:, a0:a0 + s, None],
                            out=buf[:n * s * w].reshape(n, s, w))
            ranges = np.subtract(g.max(axis=0), g.min(axis=0), dtype=np.int32)
            k = int(np.argmax(ranges))
            if ranges.flat[k] > best:
                best, pair = int(ranges.flat[k]), (a0 + k // w, a0 + k % w)
            if a0 == 0:
                row0 = ranges[0]
            a0 += s
    else:
        g = np.empty_like(q)
        for a in range(n):
            ranges = _ranges(q[a:], q[a], g)
            b = int(np.argmax(ranges))
            if ranges[b] > best:
                best, pair = int(ranges[b]), (a, a + b)
            if a == 0:
                row0 = ranges
    return lambda t: q[t].tolist(), pair, row0.tolist()


def _report(sigma: Permutation, scan) -> PermDiscrepancyReport:
    """The report of perm_discrepancy from one of the two scans."""
    n = sigma.n
    row, pair, row0 = scan(sigma)
    big, (big_i, big_j) = _witness(row, *pair)
    top = max(row0)
    d, wit_d = _witness(row, 0, row0.index(top))
    dp, wit_dp = _witness(row, n - 1 - row0[::-1].index(top), 0)
    return PermDiscrepancyReport(n, big, big_i, big_j, d, wit_d, dp, wit_dp)


def perm_discrepancy(sigma: Permutation) -> PermDiscrepancyReport:
    """Exact maximum of n * D_J(sigma(I)) over all cyclic intervals I, J.

    O(n^3) time and O(n^2) memory: one range per row pair a <= b, where
    a = b (range 0) keeps n = 1 in the scan.  The first maximal pair in
    (a, b) order is the witness (a, b - a) of D: the first start, then the
    shortest length.  Row 0 holds the initial intervals (0, b) and,
    negated, the final ones (b, n - b); its first and last maxima are the
    shortest witnesses of d and d'.  The scan is on lists or arrays, as
    the module docstring says.
    """
    return _report(sigma, _list_scan if _lists_pay(discrepancy_cells(sigma.n))
                   else _array_scan)


def restricted_discrepancies(sigma: Permutation) -> tuple:
    """(n*d, n*d') with the preimage interval restricted to initial
    respectively final intervals and J free; restricting J instead would
    break the block-product recursion inequalities.  The final intervals
    are the complements of the initial ones, so d' = d.  Row 0 of q is 0,
    so the rows of q are the profiles of the initial intervals."""
    import numpy as np

    q = _prefix_table(sigma)
    d = int(np.subtract(q.max(axis=1), q.min(axis=1), dtype=np.int32).max())
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
        _check_moduli(iv.n, n)
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
    from .patterns import count_pattern, standardize

    return count_pattern(Permutation(standardize(values)), tau)


def windowed_pattern_count(sigma: Permutation, tau: Permutation,
                           i: CyclicInterval, j: CyclicInterval) -> int:
    """Occurrences of tau in sigma restricted to the window I & sigma^-1(J)."""
    return _count_in(_window_values(sigma, i, j), tau)


def windowed_pattern_deviation(sigma: Permutation, tau: Permutation,
                               i: CyclicInterval, j: CyclicInterval) -> Fraction:
    """|X^tau(restriction) - C(w, m)/m!| with w the window size; exact."""
    if tau.n < 2:
        raise InputError("pattern order must be at least 2")
    values = _window_values(sigma, i, j)
    expected = Fraction(comb(len(values), tau.n), factorial(tau.n))
    return abs(_count_in(values, tau) - expected)


def two_pattern_balance(sigma: Permutation, i: CyclicInterval,
                        j: CyclicInterval) -> int:
    """Ascending minus descending pair count on the window I & sigma^-1(J):
    C(w, 2) - 2 * inversions."""
    values = _window_values(sigma, i, j)
    return comb(len(values), 2) - 2 * _count_in(values, Permutation((1, 0)))


def exclusion_lower_bound(n: int, m: int) -> float:
    """Discrepancy floor forced on any permutation that omits some order-m
    pattern entirely: n * C(n,m) / (4 e^(2m) m! n^m).  The rational part
    is exact, so large m underflows to 0.0 instead of overflowing."""
    if not n > m >= 2:
        raise InputError("need n > m >= 2")
    return float(Fraction(n * comb(n, m), 4 * factorial(m) * n ** m)) * math.exp(-2 * m)


def sampled_discrepancy_lower_bound(sigma: Permutation, samples: int,
                                    seed: int = 0) -> int:
    """Lower bound on n * D(sigma) from randomly sampled preimage interval
    starts; 0 when samples <= 0.  Each distinct start is scanned once, and
    drawing stops once every start has been seen: the maximum over the same
    starts is the same, so the work is at most n scans of n rows.  The
    scan is on lists or arrays, as the module docstring says."""
    n = sigma.n
    _check_size(n)
    rng = random.Random(seed)
    starts = set()
    for _ in range(samples):
        starts.add(rng.randrange(n))
        if len(starts) == n:
            break
    if not starts:
        return 0
    # making the rows twice costs about one more start
    scan = _list_sampled if _lists_pay((len(starts) + 1) * n * n) else _array_sampled
    return scan(sigma, starts)


def _list_sampled(sigma: Permutation, starts: set) -> int:
    """The sampled bound over `starts` by the list scan, which keeps only
    the rows of the starts: each row is taken against all of them."""
    bases = [row for t, row in enumerate(_list_rows(sigma)) if t in starts]
    return max(max(_list_ranges(bases, row)) for row in _list_rows(sigma))


def _array_sampled(sigma: Permutation, starts: set) -> int:
    """The sampled bound over `starts` by the array scan."""
    import numpy as np

    q = _prefix_table(sigma)
    g = np.empty_like(q)
    return max(int(_ranges(q, q[s], g).max()) for s in starts)
