"""Pattern occurrence counting and the inclusion matrices between orders.

Patterns are permutations of small order m; a pattern occurs in sigma at an
index set A when sigma restricted to A is order-isomorphic to it.  All
counts are exact integers.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .core import InputError, Permutation, Record, _cut

if TYPE_CHECKING:
    import numpy as np

MAX_PROFILE_ORDER = 6
MAX_PROFILE_STEPS = 5_000_000
MAX_MATRIX_ORDER = 5
# top_eigenvalue stops when two Rayleigh quotients agree to POWER_TOL
POWER_TOL = 1e-12
POWER_MAX_ITER = 100_000


class ConvergenceError(RuntimeError):
    """Power iteration failed to settle within the iteration cap."""


def patterns_of_order(m: int) -> list:
    """All patterns of order m in lexicographic one-line order."""
    if m < 1:
        raise InputError(f"pattern order {m} is below 1")
    return [Permutation(p) for p in itertools.permutations(range(m))]


def standardize(values: Sequence[int]) -> tuple:
    """Replace each value by its rank among the values."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0] * len(values)
    for r, i in enumerate(order):
        ranks[i] = r
    return tuple(ranks)


def pattern_index(images: Sequence[int]) -> int:
    """Lexicographic rank of a one-line pattern among S_m (Lehmer code)."""
    m = len(images)
    idx = 0
    for i, v in enumerate(images):
        smaller = sum(1 for w in images[i + 1:] if w < v)
        idx += smaller * factorial(m - 1 - i)
    return idx


def _inversions(values: Sequence[int]) -> int:
    """Number of descending pairs, counted by a bottom-up merge over values.

    Every pair of values u < w first meets at the level where their
    blocks of values are the lower and upper halves of one block, and it
    is inverted when w comes before u.  Values are padded to a power of
    two with increasing positions past the end, which invert nothing.
    The first three levels are one step on rows of 8 values, in which
    each column of positions is compared with the later columns.  Each
    later level packs each position and the half of its block it lies in
    into one key, 2 * position + half bit, and sorts the keys of every
    block in place, as the rows of a view with one row per block.  Keys
    are distinct, so a sorted row is the merged block, and its half bits
    say which half each position came from.  The upper-half positions
    before a lower-half one are then its column in the merged block minus
    its rank in its own half.  Keys are below 2 * size, so int32 holds
    them up to size 2^30.
    """
    import numpy as np

    n = len(values)
    bits = max(n - 1, 0).bit_length()
    size = 1 << bits
    dtype = np.int32 if bits < 31 else np.int64
    keys = np.arange(size, dtype=dtype)
    keys[np.fromiter(values, dtype=np.intp, count=n)] = np.arange(n, dtype=dtype)
    base = min(bits, 3)
    by_column = np.ascontiguousarray(keys.reshape(-1, 1 << base).T)
    inv = int(sum(np.count_nonzero(by_column[c] > by_column[c + 1:])
                  for c in range(len(by_column) - 1)))
    del by_column
    keys <<= 1
    for level in range(base, bits):
        half = 1 << level
        blocks = keys.reshape(-1, 2 * half)
        blocks[:, half:] |= 1
        blocks.sort(axis=1)
        columns = np.flatnonzero((keys & 1) == 0)
        columns &= 2 * half - 1
        inv += int(columns.sum()) - (size >> (level + 1)) * half * (half - 1) // 2
        keys &= ~1
    return inv


def count_pattern(sigma: Permutation, tau: Permutation) -> int:
    """Exact number of occurrences of tau in sigma over all index sets."""
    return profile(sigma, tau.n).counts[pattern_index(tau.images)]


class ProfileVector(Record):
    """Occurrence counts of every order-m pattern, lexicographically indexed."""

    __slots__ = ("m", "n", "counts")
    m: int
    n: int
    counts: tuple

    def centered(self) -> tuple:
        """counts - C(n,m)/m! per coordinate, as exact rationals."""
        mean = Fraction(comb(self.n, self.m), factorial(self.m))
        return tuple(Fraction(c) - mean for c in self.counts)

    def centered_norm_sq(self) -> Fraction:
        return sum(x * x for x in self.centered())


def profile(sigma: Permutation, m: int) -> ProfileVector:
    """Counts for all m! patterns, lexicographically indexed.

    Order 2 counts inversions, and order 3 takes one pass of corner counts
    (`_corner_counts`).  Orders m >= 4 push sigma's values one by one onto
    the packed counts of `layout`.  Every order from 3 on is refused unless
    its push steps, the push_work of the n pushes or, at order 3, a bit
    count of ceil(n / 64) words per value, are at most MAX_PROFILE_STEPS."""
    n = sigma.n
    if m < 0:
        raise InputError(f"order {_cut(str(m))} is negative")
    if m > n:
        raise InputError(f"order {_cut(str(m))} exceeds host size {n}")
    if m > MAX_PROFILE_ORDER:
        raise InputError(f"order {_cut(str(m))} beyond supported maximum {MAX_PROFILE_ORDER}")
    if m <= 1:
        return ProfileVector(m, n, (comb(n, m),))
    if m == 2:
        inv = _inversions(sigma.images)
        return ProfileVector(m, n, (comb(n, 2) - inv, inv))
    # push_work summed over the lengths L < n, as sum(C(L, j)) = C(n, j + 1)
    work = n * -(-n // 64) if m == 3 else sum(
        comb(n, 2) if k <= 4 else comb(n, k - 1) for k in range(3, m + 1))
    if work > MAX_PROFILE_STEPS:
        raise InputError(f"order-{m} profile of size {n} takes {work} push steps, "
                         f"beyond the limit {MAX_PROFILE_STEPS}")
    if m == 3:
        return ProfileVector(m, n, _corner_counts(sigma.images))
    width, _, steps = layout(n, m)
    diff, prefix, packed = [0] * (n + 1), [], 0
    for a in sigma.images:
        packed += sum(diff[:a + 1])
        push(diff, prefix, a, steps)
    return ProfileVector(m, n, unpack(packed, width, m))


def _corner_counts(images: Sequence[int]) -> tuple:
    """The six order-3 pattern counts, lexicographically indexed, in one
    pass over the values (Even-Zohar & Leng, "Counting small permutation
    patterns", SODA 2021).

    At position j with value v, l = #{i < j : sigma(i) < v} is a bit count
    on the mask of the values seen so far.  Of the values before v, g = j - l
    are above it; of those after it, lo = v - l are below and hi =
    n - 1 - v - g above.  Counted at its middle position, an occurrence is
    012 in l*hi ways, 210 in g*lo, 021 or 120 in l*lo and 102 or 201 in
    g*hi; counted at its first position, it is 012 or 021 in C(hi, 2) ways
    and 201 or 210 in C(lo, 2)."""
    n, seen = len(images), 0
    l_hi = g_lo = l_lo = g_hi = hi_pairs = lo_pairs = 0
    for j, v in enumerate(images):
        l = (seen & ((1 << v) - 1)).bit_count()
        seen |= 1 << v
        g, lo = j - l, v - l
        hi = n - 1 - v - g
        l_hi += l * hi
        g_lo += g * lo
        l_lo += l * lo
        g_hi += g * hi
        hi_pairs += hi * (hi - 1)
        lo_pairs += lo * (lo - 1)
    c021, c201 = hi_pairs // 2 - l_hi, lo_pairs // 2 - g_lo
    return l_hi, c021, g_hi - c201, l_lo - c021, c201, g_lo


@lru_cache(maxsize=None)
def _field_offset(k: int) -> int:
    """Index of the first order-k field in the packed counts of `layout`."""
    return sum(factorial(j) for j in range(2, k))


@lru_cache(maxsize=64)
def _step_tables(width: int, m: int) -> tuple:
    """The guard bits and the steps of `push` at order m for every n with
    this field width.  Built once per (width, m) and only read afterwards,
    so every prefix of that shape shares them."""

    def unit(k, pattern):
        return 1 << (width * (_field_offset(k) + pattern_index(pattern)))

    # per order k, keyed by the argsort of an order-(k-1) occurrence τ:
    # the unit of τ with rank 0 appended, then (position of the j-th
    # smallest value, unit of rank j+1 - unit of rank j) for each j
    tables = []
    for k in range(2, m + 1):
        table = {}
        for tau in itertools.permutations(range(k - 1)):
            units = [unit(k, tuple(t + (t >= r) for t in tau) + (r,)) for r in range(k)]
            order = tuple(sorted(range(k - 1), key=tau.__getitem__))
            table[order] = (units[0], tuple(
                (order[j], units[j + 1] - units[j]) for j in range(k - 1)))
        tables.append(table)
    guards = pack(width, m, lambda k: 1 << (width - 1))

    # orders 2..4 are unpacked for the flat loops in push: the unit of an
    # occurrence with values vals, then its moves in order of position
    def unit_and_moves(vals):
        order = tuple(sorted(range(len(vals)), key=vals.__getitem__))
        start, steps = tables[len(vals) - 1][order]
        return (start,) + tuple(move for _, move in sorted(steps))

    first, step = unit_and_moves((0,))
    pairs = unit_and_moves((0, 1)) + unit_and_moves((1, 0)) if m >= 3 else None
    triples = None
    if m >= 4:
        # per side of a (x < a, x > a) and class of y (below, between and
        # above x and a): the move of x in (y, x, a), and the unit and the
        # moves of x and a in (x, y, a)
        classes = [(x, y, a) for x, a in ((1, 3), (3, 1)) for y in (0, 2, 4)]
        _, _, x_before, _ = zip(*(unit_and_moves((y, x, a)) for x, y, a in classes))
        units, x_after, _, a_moves = zip(*(unit_and_moves((x, y, a)) for x, y, a in classes))
        # x's step is the sum of its partners times its moves, plus its move
        # in the pair (x, a).  `_partners` is linear in its seven arguments,
        # so per side the step is their dot product with its values at the
        # unit arguments, the pair move joining that of `one`
        coefs = []
        for side in (0, 1):
            moves = x_before[3 * side:3 * side + 3] + x_after[3 * side:3 * side + 3]
            c = [sum(map(mul, _partners(side, *(int(j == k) for j in range(7))), moves))
                 for k in range(7)]
            c[6] += pairs[1 + 3 * side]
            coefs.append(tuple(c))
        triples = (tuple(coefs), units, a_moves)
    return guards, (first, step, pairs, triples, tuple(tables[3:]))


def layout(n: int, m: int) -> tuple:
    """(width, guards, steps) of the pattern counts of every order 2..m in
    a prefix of a one-line permutation of size n, kept as values are
    appended.

    All counts live in one packed integer: one field of `width` bits per
    pattern, ordered by k and then by lexicographic rank, each below the
    guard bit of its field in `guards`.  The occurrences that appending an
    unused value v would add are packed the same way in
    diff[0] + ... + diff[v].  An order-k occurrence ending at v is an
    order-(k-1) occurrence τ of the prefix with exactly r of its values
    below v, and its pattern is τ with rank r appended, so `diff` holds the
    per-rank, per-value counts of the order-(k-1) occurrences as a
    difference array over v.  The empty prefix has packed counts 0 and
    diff [0] * (n + 1).
    """
    # two spare bits: counts stay below the guard bit of `guards`
    width = max(comb(n, k) for k in range(2, m + 1)).bit_length() + 2
    return (width,) + _step_tables(width, m)


def _partners(side: int, seen_rank: int, seen_a: int, i: int, rank: int, lt: int,
              last: int, one: int) -> tuple:
    """The partners y of the prefix value x at position i in the triples
    ending at a pushed value a, per class of y: before x and below, between
    or above x and a, then after x likewise.  side is 0 when x < a and 1
    when x > a.  x has rank prefix values below it, seen_rank of them
    before it; seen_a values below a lie before x, lt prefix values lie
    below a and last is the prefix's last position.  The classes are
    linear in the arguments, `one` standing for 1, so the partners summed
    over several x are this of the summed arguments."""
    if side == 0:
        lo, hi, lo_all, hi_all = seen_rank, seen_a, rank, lt - one
    else:
        lo, hi, lo_all, hi_all = seen_a, seen_rank, lt, rank
    return (lo, hi - lo, i - hi, lo_all - lo, hi_all - lo_all - hi + lo, last - i - hi_all + hi)


def push_work(length: int, m: int) -> int:
    """Occurrence steps of one `push` at orders 3..m onto a prefix of this
    length: the length at orders 3 and 4, C(length, k-2) at order k >= 5."""
    return sum(length if k <= 4 else comb(length, k - 2) for k in range(3, m + 1))


def push(diff: list, prefix: list, a: int, steps: tuple) -> None:
    """Append the unused value a to prefix, updating its `diff` in place
    with the steps of every occurrence that ends at a, push_work in all.

    Orders 2..4 take O(L) steps: the singleton (a), the pairs (x, a) by
    whether x < a, and per x the triples ending at a by class of partner.
    The order-4 step of x, its partners per class times its moves, is
    affine in four small counts: x's position, its rank among the prefix
    and among the values before it, by bit counts on masks of values, and
    the values below a before it.  So it is a per-side constant of each
    push plus four products, and it adds the same integer to diff[x + 1]
    as the sum over the six classes.  Each higher order k enumerates its
    C(L, k-2) occurrences."""
    first, step, pairs, triples, higher = steps
    diff[0] += first
    diff[a + 1] += step
    if pairs is not None:
        asc_first, asc_x, asc_a, desc_first, desc_x, desc_a = pairs
        if triples is None:
            lt = 0
            for x in prefix:
                if x < a:
                    diff[x + 1] += asc_x
                    lt += 1
                else:
                    diff[x + 1] += desc_x
        else:
            # the order-4 step below adds the pair moves of every x
            held = sum(1 << x for x in prefix)
            lt = (held & ((1 << a) - 1)).bit_count()
        gt = len(prefix) - lt
        diff[0] += lt * asc_first + gt * desc_first
        diff[a + 1] += lt * asc_a + gt * desc_a
    if triples is not None:
        # x at position i has rank prefix values below it, seen_rank of them
        # before it, and seen_a values below a before it; its step is the
        # dot product of (seen_rank, seen_a, i, rank, lt, last, 1) with the
        # coefficients of its side of a, 0 for x < a and 1 for x > a.
        # `after` counts the triples (x, y, a) per side and class of y: it
        # is `_partners` of those arguments summed over the side.  The sums
        # not kept follow from the rest: on side 0, seen_a and the rank
        # each run through 0..lt-1, and the ranks on side 1 through
        # lt..last.  The positions on side 0 sum to C(lt, 2) plus the pairs
        # of a side-1 value before a side-0 value, and the seen_a of side 1
        # to the lt*gt pairs less those.
        coefs, units, a_moves = triples
        (lo_sr, lo_sa, lo_i, lo_rank, lo_lt, lo_last, lo_one), \
            (hi_sr, hi_sa, hi_i, hi_rank, hi_lt, hi_last, hi_one) = coefs
        seen, seen_a, last = 0, 0, len(prefix) - 1
        lo_base = lt * lo_lt + last * lo_last + lo_one
        hi_base = lt * hi_lt + last * hi_last + hi_one
        lo_sr_sum = hi_sr_sum = lo_i_sum = 0
        for i, x in enumerate(prefix):
            below = (1 << x) - 1
            rank, seen_rank = (held & below).bit_count(), (seen & below).bit_count()
            seen |= 1 << x
            if x < a:
                diff[x + 1] += (lo_base + seen_rank * lo_sr + seen_a * lo_sa + i * lo_i
                                + rank * lo_rank)
                lo_sr_sum += seen_rank
                lo_i_sum += i
                seen_a += 1
            else:
                diff[x + 1] += (hi_base + seen_rank * hi_sr + seen_a * hi_sa + i * hi_i
                                + rank * hi_rank)
                hi_sr_sum += seen_rank
        lt_pairs, all_pairs = lt * (lt - 1) // 2, len(prefix) * last // 2
        after = (_partners(0, lo_sr_sum, lt_pairs, lo_i_sum, lt_pairs, lt * lt, lt * last, lt)[3:]
                 + _partners(1, hi_sr_sum, lt_pairs + lt * gt - lo_i_sum, all_pairs - lo_i_sum,
                             all_pairs - lt_pairs, gt * lt, gt * last, gt)[3:])
        diff[0] += sum(map(mul, after, units))
        diff[a + 1] += sum(map(mul, after, a_moves))
    for k, table in enumerate(higher, start=5):
        for c in itertools.combinations(prefix, k - 2):
            vals = c + (a,)
            unit, moves = table[tuple(sorted(range(k - 1), key=vals.__getitem__))]
            diff[0] += unit
            for i, move in moves:
                diff[vals[i] + 1] += move
    prefix.append(a)


def pack(width: int, m: int, value) -> int:
    """Packed counts with value(k) in every order-k field, for orders 2..m;
    `unpack` reads value(k) back from each of them."""
    fields = (v for k in range(2, m + 1) for v in [value(k)] * factorial(k))
    return sum(v << (width * i) for i, v in enumerate(fields))


def unpack(packed: int, width: int, k: int) -> tuple:
    """Order-k pattern counts in packed counts, lexicographically indexed."""
    mask = (1 << width) - 1
    first = _field_offset(k)
    return tuple((packed >> (width * (first + i))) & mask for i in range(factorial(k)))


class PatternMatrix(Record):
    """The m! x (m+1)! occurrence-count matrix B and its Gram matrix A = B^T B."""

    __slots__ = ("m", "B", "A")
    m: int
    B: np.ndarray
    A: np.ndarray


@lru_cache(maxsize=None)
def _rows_of_B(m: int) -> tuple:
    """B_m as integer rows, built once per order: each value d of the j-th
    (m+1)-pattern tau adds 1 in column j at the row of tau without d."""
    if not 1 <= m <= MAX_MATRIX_ORDER:
        raise InputError(f"order {_cut(str(m))} outside supported range 1..{MAX_MATRIX_ORDER}")
    rows = [[0] * factorial(m + 1) for _ in range(factorial(m))]
    for j, tau in enumerate(itertools.permutations(range(m + 1))):
        for d in tau:
            rows[pattern_index([t - (t > d) for t in tau if t != d])][j] += 1
    return tuple(map(tuple, rows))


def build_pattern_matrices(m: int) -> PatternMatrix:
    """Exact integer B_m (entry = count of row pattern in column pattern),
    in fresh arrays on every call.  A = B^T B is taken in float64, where
    numpy uses BLAS and int64 it does not, and is exact: a column of B sums
    to m + 1, so every partial sum of an entry of A is an integer at most
    (m + 1)^2, far below 2^53."""
    rows = _rows_of_B(m)
    import numpy as np

    b = np.array(rows, dtype=np.int64)
    f = b.astype(np.float64)
    return PatternMatrix(m, b, (f.T @ f).astype(np.int64))


def top_eigenvalue(a) -> float:
    """Largest eigenvalue of a symmetric nonnegative matrix by power
    iteration with a Rayleigh quotient, from the start vector
    numpy.random.default_rng(12345).random(k) + 1."""
    import numpy as np

    from .rng import PCG64

    a = np.asarray(a, dtype=np.float64)
    rng = PCG64(12345)
    v = np.array([rng.random() for _ in range(a.shape[0])]) + 1.0
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(POWER_MAX_ITER):
        w = a @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        new_lam = float(v @ (a @ v))
        if abs(new_lam - lam) <= POWER_TOL * max(1.0, abs(new_lam)):
            return new_lam
        lam = new_lam
    raise ConvergenceError(f"power iteration did not converge in {POWER_MAX_ITER} steps")


def rank_of_B(m: int) -> int:
    """Exact rank of B_m by fraction-free elimination over the integers."""
    b = list(_rows_of_B(m))
    rows = len(b)
    rank = 0
    for col in range(len(b[0])):
        pivot = next((i for i in range(rank, rows) if b[i][col]), None)
        if pivot is None:
            continue
        b[rank], b[pivot] = b[pivot], b[rank]
        for i in range(rank + 1, rows):
            if b[i][col]:
                factor_i, factor_r = b[i][col], b[rank][col]
                b[i] = [factor_r * x - factor_i * y for x, y in zip(b[i], b[rank])]
        rank += 1
    return rank


def circ(tau: Permutation) -> Permutation:
    """The order-(m+1) pattern fixing 0 with tau shifted up by one elsewhere."""
    return Permutation((0,) + tuple(v + 1 for v in tau.images))


def occurrence_graph_connected(m: int) -> bool:
    """Connectivity of the bipartite graph on S_m and S_{m+1} whose edges
    join a pattern to the longer patterns containing it."""
    # a search over the nonzeros of B: side 0 holds the rows, side 1 the columns
    lines = (_rows_of_B(m), tuple(zip(*_rows_of_B(m))))
    seen, stack = (set(), set()), [(0, 0)]
    while stack:
        side, i = stack.pop()
        if i not in seen[side]:
            seen[side].add(i)
            stack += ((1 - side, j) for j in itertools.compress(itertools.count(), lines[side][i]))
    return all(len(s) == len(ls) for s, ls in zip(seen, lines))


def lex_first_container(tau: Permutation) -> Permutation:
    """Scan S_{m+1} in lexicographic order for the first pattern containing tau."""
    for images in itertools.permutations(range(tau.n + 1)):
        cand = Permutation(images)
        if count_pattern(cand, tau) > 0:
            return cand
    raise RuntimeError("unreachable: every pattern is contained in some extension")
