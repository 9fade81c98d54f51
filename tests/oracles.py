"""Independent brute-force reference implementations used by the tests.

Everything here recomputes quantities from first principles (explicit
window enumeration, explicit subsequence enumeration) and deliberately
shares no algorithmic structure with the library's fast paths.
"""

import cmath
import functools
import itertools
import math
from fractions import Fraction
from operator import mul, sub
from typing import NamedTuple

import numpy as np

from quasiperm import patterns
from quasiperm.core import CyclicInterval, Permutation, ZnSubset
from quasiperm.patterns import standardize
from quasiperm.permdisc import PermDiscrepancyReport


def window_count_table(indicator: np.ndarray) -> np.ndarray:
    """counts[L-1, t] = number of members in the window of length L at t."""
    n = len(indicator)
    ext = np.concatenate([indicator, indicator])
    cs = np.concatenate([[0], np.cumsum(ext)])
    ts = np.arange(n)
    ls = np.arange(1, n + 1)
    return cs[ts[None, :] + ls[:, None]] - cs[ts[None, :]]


def brute_interval_max(s: ZnSubset) -> int:
    """max over every cyclic window J of |n |S∩J| - |S||J||."""
    return brute_weighted_interval_max(s.indicator())


def brute_weighted_interval_max(weights) -> int:
    """max over every cyclic window J of |n w(J) - w(Z_n) |J|| for the
    multiplicities w of a multiset over Z_n, such as kS."""
    n = len(weights)
    counts = window_count_table(np.array(weights, dtype=np.int64))
    ls = np.arange(1, n + 1)
    return int(np.abs(n * counts - sum(weights) * ls[:, None]).max(initial=0))


def interval_witness_by_counting(s: ZnSubset) -> tuple:
    """(n D(S), witness J) from g(j) = n |S ∩ [0, j]| - |S| (j + 1), each
    g(j) counted member by member: J runs from just after g's first minimum
    to its first maximum, and is empty when g is constant."""
    n = s.n
    g = [n * sum(1 for x in s.members if x <= j) - s.size * (j + 1)
         for j in range(n)]
    top = bottom = 0
    for j in range(n):
        if g[j] > g[top]:
            top = j
        if g[j] < g[bottom]:
            bottom = j
    if g[top] == g[bottom]:
        return 0, CyclicInterval.empty(n)
    return g[top] - g[bottom], CyclicInterval(n, (bottom + 1) % n, (top - bottom) % n)


def brute_piecewise_balance(n: int, s_mask: int) -> Fraction:
    """max over every nonempty proper T ⊆ Z_n of n D_T(S) / (n^2 c(T)), with
    S and T as bit masks and c(T) the number of cyclic runs of T, counted
    as the members x of T with x - 1 not in T."""
    size = bin(s_mask).count("1")
    best = Fraction(0)
    for t in range(1, (1 << n) - 1):
        runs = sum(1 for x in range(n)
                   if t >> x & 1 and not t >> ((x - 1) % n) & 1)
        hit = bin(s_mask & t).count("1")
        dev = abs(n * hit - size * bin(t).count("1"))
        best = max(best, Fraction(dev, n * n * runs))
    return best


def brute_components(s: ZnSubset) -> list:
    """The maximal cyclic intervals contained in s, listed by start: every
    window lying in s that no window one longer lying in s contains, with
    the full circle once, starting at 0."""
    n = s.n

    def inside(start, length):
        return all((start + i) % n in s.members for i in range(length))

    parts = {}
    for start in range(n):
        for length in range(1, n + 1):
            if not inside(start, length):
                break
            if length < n and (inside(start - 1, length + 1)
                               or inside(start, length + 1)):
                continue
            window = frozenset((start + i) % n for i in range(length))
            parts.setdefault(window, CyclicInterval(n, start, length))
    return sorted(parts.values(), key=lambda iv: iv.start)


def brute_perm_discrepancy(sigma: Permutation) -> int:
    """max over all interval pairs (I, J) of |n |sigma(I)∩J| - |I||J||.

    O(n^4): every preimage window I grows one element at a time, and each
    new element y moves n |sigma(I)∩J| - |I||J| by n [y ∈ J] - |J| for
    every value window J at once.
    """
    n = sigma.n
    # step[y, J] = n [y ∈ J] - |J| over the windows J = (start t, length L)
    ts, ls = np.meshgrid(np.arange(n), np.arange(1, n + 1))
    ys = np.arange(n)[:, None]
    step = n * ((ys - ts.ravel()) % n < ls.ravel()) - ls.ravel()
    best = 0
    for start in range(n):
        dev = np.zeros(n * n, dtype=np.int64)
        for li in range(n):
            dev += step[sigma.images[(start + li) % n]]
            best = max(best, int(np.abs(dev).max()))
    return best


def brute_restricted_max(sigma: Permutation, prefix: bool) -> int:
    """Like brute_perm_discrepancy but I ranges over initial (or final)
    segments of Z_n only."""
    n = sigma.n
    ls = np.arange(1, n + 1)
    best = 0
    for li in range(1, n + 1):
        xs = range(li) if prefix else range(n - li, n)
        ind = np.zeros(n, dtype=np.int64)
        for x in xs:
            ind[sigma.images[x]] = 1
        counts = window_count_table(ind)
        val = int(np.abs(n * counts - li * ls[:, None]).max())
        if val > best:
            best = val
    return best


def brute_interval_ranges(sigma: Permutation) -> np.ndarray:
    """table[s, L-1] = max over every window J of |n |sigma(I)∩J| - |I||J||
    for the preimage window I of length L starting at s."""
    n = sigma.n
    ls = np.arange(1, n + 1)
    table = np.zeros((n, n), dtype=np.int64)
    for start in range(n):
        ind = np.zeros(n, dtype=np.int64)
        for li in range(1, n + 1):
            ind[sigma.images[(start + li - 1) % n]] = 1
            counts = window_count_table(ind)
            table[start, li - 1] = np.abs(n * counts - li * ls[:, None]).max()
    return table


def int64_prefix_table(sigma: Permutation) -> np.ndarray:
    """q[t, j] = n #{x < t : sigma(x) <= j} - t (j + 1) for 0 <= t < n, in
    int64, one row of counts at a time."""
    n = sigma.n
    below = np.zeros((n, n), dtype=np.int64)
    for t in range(1, n):
        below[t] = below[t - 1]
        below[t, sigma.images[t - 1]:] += 1
    return n * below - np.arange(n)[:, None] * np.arange(1, n + 1)


def table_sampled_bound(sigma: Permutation, starts) -> int:
    """The largest range of q[t] - q[s] over every row t and every start s,
    from the whole int64 table."""
    q = int64_prefix_table(sigma)
    best = 0
    for s in starts:
        g = q - q[s]
        best = max(best, int((g.max(axis=1) - g.min(axis=1)).max()))
    return best


def whole_text_integers(text: str) -> list:
    """The integers of a permutation or set text, split as a whole, or the
    message of the first token that is not one."""
    tokens = text.replace(",", " ").split()
    for i, tok in enumerate(tokens):
        try:
            int(tok)
        except ValueError:
            return f"token {tok[:40]!r}{'...' if len(tok) > 40 else ''} at index {i} " \
                   "is not an integer"
    return [int(tok) for tok in tokens]


def row_scan_perm_discrepancy(sigma: Permutation) -> PermDiscrepancyReport:
    """The full report of D, d and d' by one row scan per start over an
    int64 prefix table, for sizes where brute_perm_discrepancy is too slow.

    q[t, j] = n #{x < t : sigma(x) <= j} - t (j + 1).  For a <= b the
    profile q[b] - q[a] belongs to I = (a, b - a), and its range is
    n max_J D_J(sigma(I)).  D takes the first maximal pair in (a, b) order,
    d the first maximal b of row 0, and d' the last, as the complement
    (b, n - b) with profile q[0] - q[b].  Each J runs from just after the
    profile's first minimum to its first maximum.
    """
    n = sigma.n
    q = int64_prefix_table(sigma)

    def witness(a, b):
        g = [int(v) for v in q[b] - q[a]]
        hi, lo = g.index(max(g)), g.index(min(g))
        if g[hi] == g[lo]:
            return 0, (CyclicInterval.empty(n), CyclicInterval.empty(n))
        return g[hi] - g[lo], (CyclicInterval(n, a, (b - a) % n),
                               CyclicInterval(n, (lo + 1) % n, (hi - lo) % n))

    best, pair = 0, (0, 0)
    for a in range(n):
        g = q[a:] - q[a]
        ranges = [int(v) for v in g.max(axis=1) - g.min(axis=1)]
        top = max(ranges)
        if top > best:
            best, pair = top, (a, a + ranges.index(top))
        if a == 0:
            row0 = ranges
    big, (big_i, big_j) = witness(*pair)
    d, wit_d = witness(0, row0.index(max(row0)))
    last = n - 1 - row0[::-1].index(max(row0))
    dp, wit_dp = witness(last, 0)
    return PermDiscrepancyReport(n, big, big_i, big_j, d, wit_d, dp, wit_dp)


def brute_count_pattern(sigma: Permutation, tau: Permutation) -> int:
    """Occurrences of tau in sigma by direct subsequence comparison."""
    m = tau.n
    order = sorted(range(m), key=lambda i: tau.images[i])
    total = 0
    for pos in itertools.combinations(range(sigma.n), m):
        vals = [sigma.images[p] for p in pos]
        ranked = [vals[i] for i in order]
        if all(ranked[i] < ranked[i + 1] for i in range(m - 1)):
            total += 1
    return total


def count_pattern_enumerated(sigma: Permutation, tau: Permutation) -> int:
    """Plain enumeration over all index subsets."""
    target = tau.images
    return sum(1 for a in itertools.combinations(range(sigma.n), tau.n)
               if standardize([sigma.images[x] for x in a]) == target)


def brute_profile(sigma: Permutation, m: int) -> tuple:
    """Occurrences of every order-m pattern, the patterns in lexicographic
    order, by ranking the values of every index subset."""
    counts = dict.fromkeys(itertools.permutations(range(m)), 0)
    for pos in itertools.combinations(range(sigma.n), m):
        vals = [sigma.images[p] for p in pos]
        ranked = sorted(vals)
        counts[tuple(ranked.index(v) for v in vals)] += 1
    return tuple(counts.values())


def occurrence_moves(width: int, vals) -> tuple:
    """(unit, moves in order of position) of an occurrence with values vals
    in the packed counts of patterns.layout at this field width.  Appending
    a value v with r of vals below it adds one occurrence of the pattern of
    vals with rank r appended, whose field is unit(r); as v passes the
    value of a position, r passes that position's rank, and its move is
    the difference of the two units."""
    k = len(vals) + 1
    index = {p: i for i, p in enumerate(itertools.permutations(range(k)))}
    offset = sum(math.factorial(j) for j in range(2, k))
    tau = standardize(vals)

    def unit(r):
        return 1 << width * (offset + index[tuple(t + (t >= r) for t in tau) + (r,)])

    return unit(0), tuple(unit(t + 1) - unit(t) for t in tau)


def six_class_push(diff: list, prefix: list, a: int, width: int) -> None:
    """patterns.push at order 4, with the triples ending at a counted per
    prefix value x and class of its partner y: y before or after x, and
    below, between or above x and a.  The singleton and the pairs are
    patterns.push at order 3 with the same field width."""
    classes = [(x, y, z) for x, z in ((1, 3), (3, 1)) for y in (0, 2, 4)]
    x_before = [occurrence_moves(width, (y, x, z))[1][1] for x, y, z in classes]
    after_steps = [occurrence_moves(width, (x, y, z)) for x, y, z in classes]
    units = [unit for unit, _ in after_steps]
    x_after = [moves[0] for _, moves in after_steps]
    a_moves = [moves[2] for _, moves in after_steps]
    x_moves = (x_before[:3] + x_after[:3], x_before[3:] + x_after[3:])
    held, seen, seen_a, last = sum(1 << x for x in prefix), 0, 0, len(prefix) - 1
    lt = sum(1 for x in prefix if x < a)
    after = [0] * 6
    for i, x in enumerate(prefix):
        below = (1 << x) - 1
        rank, seen_rank = (held & below).bit_count(), (seen & below).bit_count()
        seen |= 1 << x
        if x < a:
            side, lo, hi, lo_all, hi_all = 0, seen_rank, seen_a, rank, lt - 1
            seen_a += 1
        else:
            side, lo, hi, lo_all, hi_all = 1, seen_a, seen_rank, lt, rank
        c = (lo, hi - lo, i - hi,
             lo_all - lo, hi_all - lo_all - hi + lo, last - i - hi_all + hi)
        diff[x + 1] += sum(map(mul, c, x_moves[side]))
        after[3 * side] += c[3]
        after[3 * side + 1] += c[4]
        after[3 * side + 2] += c[5]
    diff[0] += sum(map(mul, after, units))
    diff[a + 1] += sum(map(mul, after, a_moves))
    patterns.push(diff, prefix, a, patterns._step_tables(width, 3)[1])


def brute_B(m: int) -> tuple:
    """B_m as integer rows: the entry of order-m pattern p (row, in
    lexicographic order) and order-(m+1) pattern tau (column, likewise)
    counts the m-subsets of tau's positions that standardize to p."""
    rows = list(itertools.permutations(range(m)))
    cols = list(itertools.permutations(range(m + 1)))
    row_index = {p: i for i, p in enumerate(rows)}
    b = [[0] * len(cols) for _ in rows]
    for j, tau in enumerate(cols):
        for a in itertools.combinations(range(m + 1), m):
            b[row_index[standardize([tau[x] for x in a])]][j] += 1
    return tuple(map(tuple, b))


def dilation_discrepancies_by_k(s: ZnSubset) -> list:
    """n D(kS) for k = 1..n/2, one bincount and one prefix profile of kS
    per k."""
    n = s.n
    members = np.fromiter(s.members, dtype=np.int64, count=s.size)
    out = []
    for k in range(1, n // 2 + 1):
        g = (n * np.cumsum(np.bincount(k * members % n, minlength=n))
             - s.size * np.arange(1, n + 1, dtype=np.int64))
        out.append(int(g.max() - g.min()))
    return out


def translation_sums_by_length(s: ZnSubset) -> list:
    """sum_{k!=0} |S~(k)|^2 |J~(k)|^2 / n for an interval J of each length
    1..n-1, one FFT of J's indicator per length."""
    n = s.n
    smags2 = np.abs(np.fft.fft(np.asarray(s.indicator(), dtype=np.float64)))[1:] ** 2
    sums = []
    for length in range(1, n):
        w = np.zeros(n)
        w[:length] = 1.0
        sums.append(float(np.sum(smags2 * np.abs(np.fft.fft(w))[1:] ** 2) / n))
    return sums


def brute_translation(s: ZnSubset, j: CyclicInterval) -> float:
    """Sum over shifts a of (|S∩(J+a)| - |S||J|/n)^2."""
    n = s.n
    expect = s.size * j.length / n
    total = 0.0
    for a in range(n):
        hits = sum(1 for x in j.elements() if (x + a) % n in s.members)
        total += (hits - expect) ** 2
    return total


def translation_statistic_direct(s: ZnSubset, j: CyclicInterval) -> float:
    """Sum over k of (|S & (J+k)| - |S||J|/n)^2 from window sums of the
    indicator over every translate of J."""
    n = s.n
    ind = np.asarray(s.indicator(), dtype=np.int64)
    L = j.length
    if L == 0:
        return 0.0
    ext = np.concatenate([ind, ind])
    csum = np.concatenate([[0], np.cumsum(ext)])
    starts = (j.start + np.arange(n)) % n
    counts = csum[starts + L] - csum[starts]
    mean = s.size * L / n
    return float(np.sum((counts - mean) ** 2))


def fourier_spectrum_direct(s: ZnSubset) -> np.ndarray:
    """All n coefficients by O(n^2) summation straight from the definition."""
    n = s.n
    coeffs = np.zeros(n, dtype=complex)
    for k in range(n):
        for x in s.members:
            coeffs[k] += cmath.exp(-2j * cmath.pi * k * x / n)
    return coeffs


def brute_fourier(s: ZnSubset, k: int) -> complex:
    return sum(complex(math.cos(-2 * math.pi * k * x / s.n),
                       math.sin(-2 * math.pi * k * x / s.n))
               for x in s.members)


def mahonian_rows(n_max: int):
    """The inversion counts over S_n for n = 1..n_max, in turn, each whole:
    step i multiplies by 1 + q + ... + q^(i-1) = (1 - q^i) / (1 - q)."""
    coeffs = [1]
    yield coeffs
    for i in range(2, n_max + 1):
        coeffs = list(itertools.accumulate(map(sub, coeffs + [0] * (i - 1), [0] * i + coeffs[:-1])))
        yield coeffs


def numpy_random_permutation(n: int, seed: int) -> Permutation:
    """The Fisher-Yates shuffle of random_permutation, drawing from
    numpy's own Generator(PCG64(seed))."""
    rng = np.random.Generator(np.random.PCG64(seed))
    images = list(range(n))
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        images[i], images[j] = images[j], images[i]
    return Permutation(tuple(images))


def brute_inversions(images) -> int:
    return sum(1 for i in range(len(images)) for j in range(i + 1, len(images))
               if images[i] > images[j])


def row_inversions(images) -> int:
    """brute_inversions with each position's later images compared in one
    numpy step, for sizes in the thousands."""
    values = np.asarray(images, dtype=np.int64)
    return sum(int(np.count_nonzero(values[i] > values[i + 1:])) for i in range(len(values)))


def brute_fixed_counts(prefix, n: int, k: int) -> tuple:
    """The order-k occurrences, per pattern, that every permutation of size
    n starting with `prefix` has with at least k-1 positions in the prefix,
    for k >= 2: each (k-1)-subset of the prefix with an unused value or a
    later prefix value appended, standardized."""
    counts = dict.fromkeys(itertools.permutations(range(k)), 0)
    unused = [v for v in range(n) if v not in prefix]
    for pos in itertools.combinations(range(len(prefix)), k - 1):
        head = [prefix[p] for p in pos]
        for v in unused:
            counts[standardize(head + [v])] += 1
        for p in range(pos[-1] + 1, len(prefix)):
            counts[standardize(head + [prefix[p]])] += 1
    return tuple(counts.values())


def brute_first_rank_counts(prefix, n: int) -> tuple:
    """G_r for r = 0, 1, 2: the order-3 occurrences of one prefix value x
    and two unused values after it, counted by how many of the two lie
    below x."""
    counts = [0, 0, 0]
    unused = [v for v in range(n) if v not in prefix]
    for x in prefix:
        for pair in itertools.combinations(unused, 2):
            counts[sum(v < x for v in pair)] += 1
    return tuple(counts)


def push_work(m: int, length: int) -> int:
    """Occurrence steps of a push onto a prefix of this length at orders
    3..m: the length itself at orders 3 and 4, C(length, k-2) at k >= 5."""
    return sum(length if k <= 4 else math.comb(length, k - 2) for k in range(3, m + 1))


class SearchTrace(NamedTuple):
    total: int          # nodes of the whole tree
    hits: list          # (node index at which it is reached, images), in DFS order
    root_starts: list   # node index of each value tried at the root
    work: list          # work counted at each node, node 1 first


def brute_search_trace(n: int, m: int) -> SearchTrace:
    """The node order of search_perfect(n, m), replayed by a plain DFS.

    Values are tried in increasing order after the prefix, and each value
    tried is one node, numbered from 1.  A prefix of length L is kept
    when every order-k count (2 <= k <= m) of its standardized pattern,
    recounted by brute_profile, lies in [C(n,k)/k! - C(n,k) + C(L,k),
    C(n,k)/k!].  At m >= 3 a kept prefix is pushed and then searched only
    when every count of brute_fixed_counts lies in [C(n,k)/k! - free,
    C(n,k)/k!], free being the occurrences with at least two positions
    after the prefix, and 2 C(n,3)/6 - F_p - F_q - G_r lies in
    [0, C(n-L,3)] for the two order-3 patterns p, q that start with rank r.
    A node counts one unit of work and a push `push_work`.  With budget B
    the search stops at the first node whose work exceeds B, which it
    reports as nodes_explored, with the hits of the nodes before it; at
    m = 2 that is the hits of index <= B, min(total, B + 1) nodes, and
    exhaustive = (B >= total).
    """
    targets = {k: math.comb(n, k) // math.factorial(k) for k in range(2, m + 1)}
    if any(math.comb(n, k) % math.factorial(k) for k in targets):
        return SearchTrace(0, [], [], [])
    nodes, spent, hits, root_starts, work = 0, 0, [], [], []

    @functools.cache  # the verdict depends on the standardized pattern only
    def kept(pattern):
        for k, target in targets.items():
            floor = target - math.comb(n, k) + math.comb(len(pattern), k)
            counts = brute_profile(Permutation(pattern), k)
            if not all(floor <= c <= target for c in counts):
                return False
        return True

    def fixed_counts_fit(prefix):
        L = len(prefix)
        for k, target in targets.items():
            free = math.comb(n, k) - math.comb(L, k) - math.comb(L, k - 1) * (n - L)
            if not all(target - free <= c <= target for c in brute_fixed_counts(prefix, n, k)):
                return False
        f3 = brute_fixed_counts(prefix, n, 3)
        classes = brute_first_rank_counts(prefix, n)
        return all(0 <= 2 * targets[3] - f3[2 * r] - f3[2 * r + 1] - classes[r]
                   <= math.comb(n - L, 3) for r in range(3))

    def dfs(prefix):
        nonlocal nodes, spent
        if len(prefix) == n:
            hits.append((nodes, tuple(prefix)))
            return
        if m >= 3 and not fixed_counts_fit(prefix):
            return
        for v in range(n):
            if v in prefix:
                continue
            nodes += 1
            spent += 1
            work.append(spent)
            if not prefix:
                root_starts.append(nodes)
            if kept(standardize(prefix + [v])):
                spent += push_work(m, len(prefix))
                dfs(prefix + [v])

    dfs([])
    return SearchTrace(nodes, hits, root_starts, work)
