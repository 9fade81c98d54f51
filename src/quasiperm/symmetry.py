"""Perfect pattern symmetry: testing, divisibility prerequisites, search.

A permutation is perfectly m-symmetric when every order-m pattern occurs
exactly C(n,m)/m! times.  That forces perfect m'-symmetry for all m' <= m,
so m'! must divide C(n,m') for every such m'.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, factorial, inf
from typing import Optional

from .core import Permutation
from .patterns import pattern_index, profile

EXHAUSTIVE_SIZE_LIMIT = 10
MAX_SEARCH_SIZE = 512


class SearchBudgetRequired(ValueError):
    """Search space too large without an explicit node budget."""


class SearchCapExceeded(RuntimeError):
    """The documented search cap was reached before an answer was found."""


def divisibility_D(n: int, m: int) -> bool:
    """Whether m! divides C(n, m)."""
    if m > n:
        raise ValueError("need m <= n")
    return comb(n, m) % factorial(m) == 0


def h(m: int, *, cap: int = 1_000_000) -> int:
    """Least n >= m passing the divisibility prerequisite for all orders
    from 2 up to m."""
    if not 2 <= m <= 8:
        raise ValueError("supported orders are 2..8")
    for n in range(m, cap + 1):
        if all(divisibility_D(n, mp) for mp in range(2, m + 1)):
            return n
    raise SearchCapExceeded(f"no admissible n found up to {cap}")


def is_perfect_m_symmetric(sigma: Permutation, m: int) -> bool:
    """Every order-m' pattern count equals C(n, m')/m'! for all m' <= m."""
    n = sigma.n
    if not 2 <= m <= n:
        raise ValueError("need 2 <= m <= n")
    for mp in range(2, m + 1):
        total = comb(n, mp)
        fact = factorial(mp)
        if total % fact:
            return False
        target = total // fact
        if any(c != target for c in profile(sigma, mp).counts):
            return False
    return True


@dataclass
class SymmetrySearchResult:
    n: int
    m: int
    found: list
    nodes_explored: int
    exhaustive: bool


def search_perfect(n: int, m: int, budget: Optional[int] = None) -> SymmetrySearchResult:
    """Backtracking search for all perfectly m-symmetric permutations in S_n.

    Values are tried in increasing order after the prefix; each value
    tried is one node.  A prefix is pruned as soon as some pattern count
    of some order k <= m exceeds its target, or can no longer reach it
    with the C(n,k) - C(L,k) index sets that remain.  Counts only ever
    grow with the prefix, so the prune is sound.
    """
    if not 2 <= m <= n:
        raise ValueError("need 2 <= m <= n")
    if n > MAX_SEARCH_SIZE:
        raise ValueError(f"n={n} exceeds the search limit {MAX_SEARCH_SIZE}")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    if n > EXHAUSTIVE_SIZE_LIMIT and budget is None:
        raise SearchBudgetRequired(
            f"n={n} exceeds the exhaustive limit {EXHAUSTIVE_SIZE_LIMIT}; "
            "pass an explicit node budget")

    targets = {}
    for mp in range(2, m + 1):
        total = comb(n, mp)
        q, r = divmod(total, factorial(mp))
        if r:
            return SymmetrySearchResult(n, m, [], 0, True)
        targets[mp] = q

    found, nodes, exhaustive = _Search(n, targets, budget).run()
    found.sort(key=lambda p: p.images)
    return SymmetrySearchResult(n, m, found, nodes, exhaustive)


class PrefixCounts:
    """Pattern counts of every order 2..m in a prefix of a one-line
    permutation of size n, kept incrementally as values are appended.

    All counts live in one packed integer, `packed`: one field of `width`
    bits per pattern, ordered by k and then by lexicographic rank.  The
    occurrences that appending an unused value v would add are packed the
    same way in ext(v) = diff[0] + ... + diff[v].  An order-k occurrence
    ending at v is an order-(k-1) occurrence τ of the prefix with exactly
    r of its values below v, and its pattern is τ with rank r appended, so
    `diff` holds the per-rank, per-value counts of the order-(k-1)
    occurrences as a difference array over v.  Appending a adds only the
    occurrences that end at a: the C(L, k-2) subsets of the prefix
    followed by a, for each order k.  Removing a subtracts them again.
    """

    def __init__(self, n: int, m: int):
        # two spare bits: counts stay below the guard bit of `guards`
        self.width = max(comb(n, k) for k in range(2, m + 1)).bit_length() + 2
        self.offsets = {}
        fields = 0
        for k in range(2, m + 1):
            self.offsets[k] = fields
            fields += factorial(k)
        self.guards = self.pack([1 << (self.width - 1)] * fields)
        # per order k, keyed by the argsort of an order-(k-1) occurrence τ:
        # the unit of τ with rank 0 appended, then (position of the j-th
        # smallest value, unit of rank j+1 - unit of rank j) for each j
        tables = []
        for k in range(2, m + 1):
            table = {}
            for tau in itertools.permutations(range(k - 1)):
                units = [self._unit(k, tuple(t + (t >= r) for t in tau) + (r,))
                         for r in range(k)]
                order = tuple(sorted(range(k - 1), key=tau.__getitem__))
                table[order] = (units[0], tuple(
                    (order[j], units[j + 1] - units[j]) for j in range(k - 1)))
            tables.append(table)
        self._add = self._signed_steps(tables, 1)
        self._remove = self._signed_steps(tables, -1)
        self.prefix = []
        self.packed = 0
        self.diff = [0] * (n + 1)

    def _unit(self, k: int, pattern: tuple) -> int:
        return 1 << (self.width * (self.offsets[k] + pattern_index(pattern)))

    def pack(self, fields) -> int:
        """Fields, in the layout of `packed`, as one integer."""
        return sum(f << (self.width * i) for i, f in enumerate(fields))

    def counts(self, k: int) -> tuple:
        """Order-k pattern counts of the prefix, lexicographically indexed."""
        mask = (1 << self.width) - 1
        first = self.offsets[k]
        return tuple((self.packed >> (self.width * (first + i))) & mask
                     for i in range(factorial(k)))

    def ext(self, v: int) -> int:
        """The packed counts that appending the unused value v would add."""
        return sum(self.diff[:v + 1])

    def push(self, a: int, ext_a: int) -> None:
        """Append the unused value a; ext_a must equal ext(a)."""
        self.packed += ext_a
        self._shift(a, self._add)
        self.prefix.append(a)

    def pop(self, ext_a: int) -> None:
        """Undo the last push, given the ext_a it was passed."""
        a = self.prefix.pop()
        self._shift(a, self._remove)
        self.packed -= ext_a

    @staticmethod
    def _signed_steps(tables: list, sign: int) -> tuple:
        """The steps of `tables` times sign: 1 adds occurrences, -1 removes
        them.  Orders 2 and 3 are unpacked for the flat loop in _shift."""
        signed = [{key: (sign * first, tuple((i, sign * step) for i, step in steps))
                   for key, (first, steps) in table.items()} for table in tables]
        first, ((_, step),) = signed[0][(0,)]
        pairs = None
        if len(signed) > 1:
            asc_first, ((_, asc_x), (_, asc_a)) = signed[1][(0, 1)]
            desc_first, ((_, desc_a), (_, desc_x)) = signed[1][(1, 0)]
            pairs = (asc_first, asc_x, asc_a, desc_first, desc_x, desc_a)
        return first, step, pairs, signed[2:]

    def _shift(self, a: int, steps: tuple) -> None:
        """Apply the steps of every occurrence that ends at a.

        Orders 2 and 3 take O(L) steps: the singleton (a) and the pairs
        (x, a), grouped by whether x < a.  Each higher order k enumerates
        its C(L, k-2) occurrences."""
        diff, prefix = self.diff, self.prefix
        first, step, pairs, higher = steps
        diff[0] += first
        diff[a + 1] += step
        if pairs is None:
            return
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
        for k, table in enumerate(higher, start=4):
            for c in itertools.combinations(prefix, k - 2):
                vals = c + (a,)
                first, steps = table[tuple(sorted(range(k - 1), key=vals.__getitem__))]
                diff[0] += first
                for i, step in steps:
                    diff[vals[i] + 1] += step


class _BudgetExceeded(Exception):
    pass


class _Search:
    """Depth-first search over one-line prefixes with a PrefixCounts state.

    The prune is one test on packed integers: with counts `y`, the guard
    bit of every field survives in (high - y) & (y + low) exactly when
    every field lies in its [floor, target] window.
    """

    def __init__(self, n: int, targets: dict, budget: Optional[int]):
        self.n = n
        self.limit = inf if budget is None else budget
        self.nodes = 0
        self.found = []
        self.used = [False] * n
        state = self.state = PrefixCounts(n, max(targets))
        guard = 1 << (state.width - 1)

        def per_pattern(bound):
            return state.pack([bound(k) for k in targets for _ in range(factorial(k))])

        self.high = per_pattern(lambda k: guard + targets[k])
        # low[L]: the floors at prefix length L, clamped at zero
        self.low = [per_pattern(
            lambda k: guard - max(0, targets[k] - comb(n, k) + comb(L, k)))
            for L in range(n + 1)]

    def run(self) -> tuple:
        try:
            self._extend(0)
            return self.found, self.nodes, True
        except _BudgetExceeded:
            return self.found, self.nodes, False

    def _extend(self, depth: int) -> None:
        n, state, used = self.n, self.state, self.used
        if depth == n:
            self.found.append(Permutation(tuple(state.prefix)))
            return
        packed, diff = state.packed, state.diff
        high, low, guards = self.high, self.low[depth + 1], state.guards
        limit = self.limit
        ext = 0
        for v in range(n):
            ext += diff[v]
            if used[v]:
                continue
            self.nodes += 1
            if self.nodes > limit:
                raise _BudgetExceeded
            y = packed + ext
            if ((high - y) & (y + low) & guards) != guards:
                continue
            used[v] = True
            state.push(v, ext)
            self._extend(depth + 1)
            state.pop(ext)
            used[v] = False
