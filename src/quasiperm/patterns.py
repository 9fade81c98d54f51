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

from .core import InputError, Permutation, Record

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
    Each block's positions are sorted at the level below, so one stable
    sort by (block, position) merges them, and the upper-half positions
    before a lower-half one are its column in the merged block minus its
    rank in its own half.
    """
    import numpy as np

    n = len(values)
    bits = max(n - 1, 0).bit_length()
    size = 1 << bits
    positions = np.arange(size)
    positions[np.asarray(values, dtype=np.intp)] = np.arange(n)
    index = np.arange(size)
    inv = 0
    for level in range(bits):
        half = 1 << level
        order = np.argsort(positions | (index >> (level + 1) << bits), kind="stable")
        positions = positions[order]
        columns = np.nonzero((order & half) == 0)[0] & (2 * half - 1)
        inv += int(columns.sum()) - (size >> (level + 1)) * half * (half - 1) // 2
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

    Order 2 counts inversions.  Orders m >= 3 push sigma's values one by
    one onto the packed counts of `layout`, if the push_work of the n
    pushes is at most MAX_PROFILE_STEPS."""
    n = sigma.n
    if m < 0:
        raise InputError(f"order {m} is negative")
    if m > n:
        raise InputError(f"order {m} exceeds host size {n}")
    if m > MAX_PROFILE_ORDER:
        raise InputError(f"order {m} beyond supported maximum {MAX_PROFILE_ORDER}")
    if m <= 1:
        return ProfileVector(m, n, (comb(n, m),))
    if m == 2:
        inv = _inversions(sigma.images)
        return ProfileVector(m, n, (comb(n, 2) - inv, inv))
    # push_work summed over the lengths L < n, as sum(C(L, j)) = C(n, j + 1)
    work = sum(comb(n, 2) if k <= 4 else comb(n, k - 1) for k in range(3, m + 1))
    if work > MAX_PROFILE_STEPS:
        raise InputError(f"order-{m} profile of size {n} takes {work} push steps, "
                         f"beyond the limit {MAX_PROFILE_STEPS}")
    width, _, steps = layout(n, m)
    diff, prefix, packed = [0] * (n + 1), [], 0
    for a in sigma.images:
        packed += sum(diff[:a + 1])
        push(diff, prefix, a, steps)
    return ProfileVector(m, n, unpack(packed, width, m))


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
        triples = ((x_before[:3] + x_after[:3], x_before[3:] + x_after[3:]), units, a_moves)
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


def push_work(length: int, m: int) -> int:
    """Occurrence steps of one `push` at orders 3..m onto a prefix of this
    length: the length at orders 3 and 4, C(length, k-2) at order k >= 5."""
    return sum(length if k <= 4 else comb(length, k - 2) for k in range(3, m + 1))


def push(diff: list, prefix: list, a: int, steps: tuple) -> None:
    """Append the unused value a to prefix, updating its `diff` in place
    with the steps of every occurrence that ends at a, push_work in all.

    Orders 2..4 take O(L) steps: the singleton (a), the pairs (x, a) by
    whether x < a, and per x the triples ending at a by class of partner,
    counted by bit counts on masks of values.  Each higher order k
    enumerates its C(L, k-2) occurrences."""
    first, step, pairs, triples, higher = steps
    diff[0] += first
    diff[a + 1] += step
    if pairs is not None:
        asc_first, asc_x, asc_a, desc_first, desc_x, desc_a = pairs
        lt = 0
        for x in prefix:
            if x < a:
                diff[x + 1] += asc_x
                lt += 1
            else:
                diff[x + 1] += desc_x
        gt = len(prefix) - lt
        diff[0] += lt * asc_first + gt * desc_first
        diff[a + 1] += lt * asc_a + gt * desc_a
    if triples is not None:
        # x's partners y below min(x, a) and max(x, a), among the values before
        # it (bits of `seen`) and all prefix values (bits of `held`), give its
        # counts per class of y; a has lt prefix values below it; `after`
        # counts the triples (x, y, a) per side of a and class of y
        x_moves, units, a_moves = triples
        held, seen, seen_a, last = sum(1 << x for x in prefix), 0, 0, len(prefix) - 1
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
        raise InputError(f"order {m} outside supported range 1..{MAX_MATRIX_ORDER}")
    rows = [[0] * factorial(m + 1) for _ in range(factorial(m))]
    for j, tau in enumerate(itertools.permutations(range(m + 1))):
        for d in tau:
            rows[pattern_index([t - (t > d) for t in tau if t != d])][j] += 1
    return tuple(map(tuple, rows))


def build_pattern_matrices(m: int) -> PatternMatrix:
    """Exact integer B_m (entry = count of row pattern in column pattern),
    in fresh arrays on every call."""
    rows = _rows_of_B(m)
    import numpy as np

    b = np.array(rows, dtype=np.int64)
    return PatternMatrix(m, b, b.T @ b)


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
