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

D and the sampled bound scan one table on lists or on arrays, with the same
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

The array scan of D has one loop.  It takes row 0 exactly, which d and
d' need anyway, as its first best, and then blocks of starts, each block
the profiles of its pairs (a, b) on the kept columns of q, about 1 MB.
On an int16 table (n <= 362) every column is kept, so a block's ranges
are exact and its first maximum is compared with the best.  On an int32
table D, and the sampled bound at every n, are pruned coarse to fine.
The profile g of I = (a, L) moves by -L or n - L from one column to the
next, and it is 0 at j = n - 1 and, as the empty prefix, at j = -1.  The
coarse table keeps the columns B - 1, 2B - 1, ... and n - 1 of q,
B = _COARSE, so two kept columns c < c' (or -1 and B - 1) are k <= B
steps apart.  Between them g(c + i) <= g(c) + i (n - L) and
g(c + i) <= g(c') + (k - i) L, so g rises above the larger end by at most
the two lines' crossing, k L (n - L) / n, and falls below the smaller end
by as much.  The range over all columns is therefore at most the range
over the kept columns plus 2 B L (n - L) / n, and, both being integers,
plus that value's floor, slack(L).  The coarse range is a range over some
columns, so it is also at most the true range.

So on an int32 table a block's coarse ranges plus slack bound its pairs,
and only the pairs whose bound beats the best so far are rescanned
exactly, in (a, b) order; no other pair can beat it, so in either case
the first maximal pair stays the witness.  On a random sigma at
n = 1024 fewer than 0.2% of the pairs are rescanned.  The pruned scan
holds q, its coarse columns, a block of 1 MB of coarse cells (or one
start's, if more) and the rows of _ROW_CELLS rescanned cells: 6.6 MB at
n = 1024 and 101 MB at 4096, where an unpruned scan held q and a scan
buffer as large, 8.4 and 134 MB.

d and the sampled bound hold no n x n array: they read q in blocks of
about _ROW_CELLS cells, each block made from the row before it.  The
sampled bound bounds every pair of a start and a row from the coarse
rows, made the same way on the kept columns only, and so learns the best
coarse range, a lower bound on its answer.  It then makes the rows of the
pairs whose bound beats the best so far straight from their counts,
largest bound first, until no bound does.  With 8 starts it holds
1.2 MB at n = 1024 and 1.4 MB at 4096, where q alone takes 4 and 67 MB.

Every entry of q and every row difference is n * c - L * (j + 1) with
max(0, L + j + 1 - n) <= c <= min(L, j + 1), so |q| <= n^2 / 4.  The
array table is int16 while n^2 < 2^17 (n <= 362) and int32 above; ranges
are taken in int32.  The table's type decides D's case: exact on int16,
pruned on int32.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from math import comb, factorial
from operator import add, sub
from typing import TYPE_CHECKING

from .core import (CyclicInterval, InputError, Permutation, Record, _check_moduli, _cut,
                   image_of_interval, profile_witness, scaled_discrepancy_in)

if TYPE_CHECKING:
    import numpy as np


# Largest n the exact scans accept: the prefix table then takes about 67 MB.
MAX_DISCREPANCY_SIZE = 4096

# Bytes in one block of D's profiles, of either table type.
_BLOCK = 1 << 20

# Steps between two kept columns of the coarse table.  On a 2-core x86-64
# host, D of a random sigma took 11, 170 and 1180 ms at n = 384, 1024 and
# 2048 with B = 4.  B = 2 was 1.3-2x slower at each size.  B = 8 was faster
# on a random sigma from n = 1024 on, but took 1.6-2x as long on the digit
# reversal 2^10, whose D is of the order of the slack.
_COARSE = 4

# Cells in one block of rows of q that d and the sampled bound read: 256 KB
# of int32, so that a block and its scan buffer stay within a 2 MB L2
# cache.  On a 2-core x86-64 host the array scan of the sampled bound over
# 8 starts took 13.5 ms at n = 1024 with blocks of 2^16 cells, 14-17 ms
# with 2^18 and 16-21 ms with 2^14 (medians of 15 calls); at n = 4096,
# 212-220, 222-233 and 415-524 ms.
_ROW_CELLS = 1 << 16

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
        raise InputError(f"permutation size {_cut(str(n))} exceeds the discrepancy "
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


def _table_dtype(n: int):
    """The dtype of the table q at size n, as _row_blocks proves it safe."""
    import numpy as np

    return np.int16 if n * n < 1 << 17 else np.int32


def _block_rows(n: int) -> int:
    """Rows in one block of q of about _ROW_CELLS cells."""
    return max(1, _ROW_CELLS // n)


def _row_blocks(sigma: Permutation, rows: int, cols: np.ndarray | None = None):
    """The rows of the table q of the module docstring in numpy, in blocks
    of `rows` rows, on the increasing columns `cols`, which end at n - 1
    (all columns by default).  Each block is built in place in one buffer,
    which the next block overwrites, from the row before it: row t + 1 is
    row t minus j + 1 in column j, plus n from column sigma(t) on."""
    import numpy as np

    n = sigma.n
    _check_size(n)
    if cols is None:
        cols = np.arange(n)
    # An entry or row difference n * c - L * (j + 1), with c in
    # [max(0, L + j + 1 - n), min(L, j + 1)], is at most L (n - L) <= n^2 / 4
    # in size, and both cumsums pass only through such values.  numpy wraps
    # int16 silently, so int16 is taken only while n^2 / 4 < 2^15, that is
    # n^2 < 2^17 (n <= 362).  A range, one interval's n c - L m, obeys the
    # same bound, but ranges are taken in int32 so that only the table
    # rests on it.
    dtype = _table_dtype(n)
    # a step adds n from the first kept column at or above sigma(t) on and
    # takes from each kept column the columns since the one before it
    images = np.searchsorted(cols, sigma.images)
    steps = -np.diff(cols, prepend=-1)
    buf = np.empty((min(rows, n), len(cols)), dtype=dtype)
    for t0 in range(0, n, rows):
        block = buf[:min(rows, n - t0)]
        block[:] = steps
        # row i of the block is row t0 - 1 plus the steps from t0 - 1 to
        # t0 + i - 1, and row 0 of q is 0
        first = 1 if t0 == 0 else 0
        block[np.arange(first, len(block)),
              images[t0 + first - 1:t0 + len(block) - 1]] += n
        np.cumsum(block, axis=1, dtype=dtype, out=block)
        block[0] = 0 if t0 == 0 else block[0] + last
        np.cumsum(block, axis=0, dtype=dtype, out=block)
        yield block
        last = block[-1].copy()


def _ranges(rows: np.ndarray, base: np.ndarray, out: np.ndarray) -> np.ndarray:
    """int32 ranges of the profiles rows[i] - base, or rows[i] - base[i]
    for a base of one row each, computed in out."""
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


def _coarse_columns(n: int) -> np.ndarray:
    """The kept columns of the coarse table: B - 1, 2B - 1, ... and n - 1."""
    import numpy as np

    return np.append(np.arange(_COARSE - 1, n - 1, _COARSE), n - 1)


def _slack_table(n: int) -> np.ndarray:
    """The read-only n x n view slack[a, b] = slack((b - a) mod n), the
    module docstring's bound on the range of a profile above its coarse
    range, for the pair of rows (a, b)."""
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    length = np.arange(n, dtype=np.int64)
    slack = (2 * _COARSE * length * (n - length) // n).astype(np.int32)
    # row a of the reversed windows starts at slack((-a) mod n)
    return sliding_window_view(slack[np.arange(1 - n, n) % n], n)[::-1]


def _pair_ranges(q: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """int32 ranges of the profiles q[b[i]] - q[a[i]], for at least one
    pair, gathered a block of _ROW_CELLS cells at a time."""
    import numpy as np

    rows = _block_rows(q.shape[1])
    g = np.empty((min(rows, len(a)), q.shape[1]), q.dtype)
    return np.concatenate([_ranges(q[b[i:i + rows]], q[a[i:i + rows]], g)
                           for i in range(0, len(a), rows)])


def _array_scan(sigma: Permutation) -> tuple:
    """(row, pair, row0) for D by the array scan, as for _list_scan.

    Row 0 of q is 0, so the profiles of row 0 are the rows of q.  The
    s starts from a0 on make one (columns, s, n - a0) buffer of profiles
    on the kept columns, reduced along the values.  A block also holds the
    pairs b < a, negations of the earlier pairs (b, a), so its first
    maximum, exact or rescanned, is never one of them.
    """
    import numpy as np

    n = sigma.n
    q = next(_row_blocks(sigma, n))
    row0 = np.subtract(q.max(axis=1), q.min(axis=1), dtype=np.int32)
    b = int(np.argmax(row0))
    best, pair = int(row0[b]), (0, b)
    exact = q.dtype == np.int16
    cols = np.arange(n) if exact else _coarse_columns(n)
    qct = q.T[cols]
    if not exact:
        slack = _slack_table(n)
    # one start's profiles at least, and no more than all starts' at once
    buf = np.empty(min(max(_BLOCK // q.itemsize, len(cols) * n), len(cols) * n * n), q.dtype)
    a0 = 1
    while a0 < n:
        w = n - a0
        s = min(w, len(buf) // (len(cols) * w))
        g = np.subtract(qct[:, None, a0:], qct[:, a0:a0 + s, None],
                        out=buf[:len(cols) * s * w].reshape(len(cols), s, w))
        ranges = np.subtract(g.max(axis=0), g.min(axis=0), dtype=np.int32)
        if exact:
            i, k = divmod(int(np.argmax(ranges)), w)
            top = ranges[i, k]
        else:
            ranges += slack[a0:a0 + s, a0:]
            i, k = np.nonzero(ranges > best)
            top = best
            if len(i):
                rescanned = _pair_ranges(q, a0 + i, a0 + k)
                m = int(np.argmax(rescanned))
                i, k, top = i[m], k[m], rescanned[m]
        if top > best:
            best, pair = int(top), (a0 + int(i), a0 + int(k))
        a0 += s
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
    so the rows of q are the profiles of the initial intervals; they are
    read in blocks of rows."""
    import numpy as np

    d = 0
    for block in _row_blocks(sigma, _block_rows(sigma.n)):
        ranges = np.subtract(block.max(axis=1), block.min(axis=1), dtype=np.int32)
        d = max(d, int(ranges.max()))
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
    scan is on lists or arrays, as the module docstring says; the array
    scan bounds each row against each start on the coarse columns and
    rescans only the rows whose bound beats the best so far."""
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
    """The sampled bound over `starts` by the pruned array scan of the
    module docstring, for a block's worth of starts at a time."""
    import numpy as np

    n = sigma.n
    rows = _block_rows(n)
    cols = _coarse_columns(n)
    coarse_rows = _block_rows(len(cols))
    slack = _slack_table(n)
    g = np.empty((min(coarse_rows, n), len(cols)), dtype=_table_dtype(n))
    order = sorted(starts)
    best = 0
    for i in range(0, len(order), rows):
        group = order[i:i + rows]
        bases = _start_rows(sigma, group)
        bounds = np.empty((len(group), n), dtype=np.int32)
        t = 0
        for block in _row_blocks(sigma, coarse_rows, cols):
            for bound, base in zip(bounds, bases[:, cols]):
                bound[t:t + len(block)] = _ranges(block, base, g)
            t += len(block)
        best = max(best, int(bounds.max()))
        bounds += slack[group]
        pairs = np.flatnonzero(bounds > best)
        pairs = pairs[np.argsort(bounds.flat[pairs], kind="stable")[::-1]]
        for j in range(0, len(pairs), rows):
            chunk = pairs[j:j + rows]
            chunk = chunk[bounds.flat[chunk] > best]
            if not len(chunk):
                break
            k, t = np.divmod(chunk, n)
            exact = _start_rows(sigma, t)
            best = max(best, int(_ranges(exact, bases[k], exact).max()))
    return best


def _start_rows(sigma: Permutation, starts) -> np.ndarray:
    """Rows `starts` of q in the dtype of _row_blocks, straight from their
    counts: row s is the cumsum over j of n [sigma^-1(j) < s] - s, whose
    terms are at most n and whose partial sums are entries of q in size."""
    import numpy as np

    n = sigma.n
    dtype = _table_dtype(n)
    where = np.empty(n, dtype=np.intp)
    where[np.asarray(sigma.images, dtype=np.intp)] = np.arange(n)
    starts = np.asarray(starts, dtype=dtype)[:, None]
    out = np.less(where, starts).astype(dtype)
    out *= n
    out -= starts
    return np.cumsum(out, axis=1, out=out)
