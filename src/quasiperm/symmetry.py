"""Perfect pattern symmetry: testing, divisibility prerequisites, search.

A permutation is perfectly m-symmetric when every order-m pattern occurs
exactly C(n,m)/m! times.  That forces perfect m'-symmetry for all m' <= m,
so m'! must divide C(n,m') for every such m'.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, inf
from typing import Optional

from .core import Permutation
from .patterns import layout, profile, push

EXHAUSTIVE_SIZE_LIMIT = 10
MAX_SEARCH_SIZE = 512
# entries of the order-2 subtree table; (9, 2) has at most 2**9 * 37 states
ORDER2_TABLE_CAP = 1 << 16


class SearchBudgetRequired(ValueError):
    """Search space too large without an explicit node budget."""


def divisibility_D(n: int, m: int) -> bool:
    """Whether m! divides C(n, m)."""
    if m > n:
        raise ValueError("need m <= n")
    return comb(n, m) % factorial(m) == 0


def h(m: int) -> int:
    """Least n >= m passing the divisibility prerequisite for all orders
    from 2 up to m."""
    if not 2 <= m <= 8:
        raise ValueError("supported orders are 2..8")
    n = m
    while not all(divisibility_D(n, mp) for mp in range(2, m + 1)):
        n += 1
    return n


def is_perfect_m_symmetric(sigma: Permutation, m: int) -> bool:
    """Every order-m' pattern count equals C(n, m')/m'! for all m' <= m.

    Uniform order-m counts make every lower order uniform as well (the
    transfer identity (n-m) v_m = B_m v_{m+1} with constant row sums of
    B_m), so once the divisibility prerequisites hold, one order-m
    profile decides.
    """
    n = sigma.n
    if not 2 <= m <= n:
        raise ValueError("need 2 <= m <= n")
    if not all(divisibility_D(n, mp) for mp in range(2, m + 1)):
        return False
    target = comb(n, m) // factorial(m)
    return all(c == target for c in profile(sigma, m).counts)


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

    The complement x -> n-1-x maps solutions to solutions.  Under the
    empty prefix, and under [(n-1)/2] at odd n, the subtree of a value
    v > n-1-v is the mirror image of one already searched, so its nodes
    are counted without being visited and its solutions are the mirror's
    complements.  At m = 2 a subtree is fixed by the prefix's value set
    and inversion count, so each such state is searched once and its node
    count and solutions are reused for every other prefix that reaches
    it.  A budget that would run out inside a mirrored or reused subtree
    has it searched for real, so the search stops at exactly the node it
    would stop at without either shortcut, with the same solutions found.
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
    return SymmetrySearchResult(n, m, [Permutation(p) for p in found], nodes, exhaustive)


class _BudgetExceeded(Exception):
    pass


class _Search:
    """Depth-first search over one-line prefixes, each with its packed
    pattern counts and `diff` in the layout of patterns.layout.

    The prune is one test on packed integers: with counts `y`, the guard
    bit of every field survives in (high - y) & (y + low) exactly when
    every field lies in its [floor, target] window.

    At m = 2, the counts a value adds depend only on the set of values in
    the prefix and the prune reads only the inversion count, so two
    prefixes with the same value set and the same packed counts have the
    same subtree, node for node.  `merged` maps each such (value-set
    bitmask, packed) searched to the node count of its subtree and the
    suffixes of its solutions.  It stops taking entries at
    ORDER2_TABLE_CAP, which bounds its memory at large n; orders m >= 3
    keep no table, since their prefixes rarely share a state.
    """

    def __init__(self, n: int, targets: dict, budget: Optional[int]):
        self.n = n
        self.limit = inf if budget is None else budget
        self.found = []
        self.prefix = []
        self.merged = {} if max(targets) == 2 else None
        width, self.guards, self.steps = layout(n, max(targets))
        guard = 1 << (width - 1)
        orders = [k for k in targets for _ in range(factorial(k))]

        def per_pattern(bound):
            return sum(bound(k) << (width * i) for i, k in enumerate(orders))

        self.high = per_pattern(lambda k: guard + targets[k])
        # low[L]: the floors at prefix length L, clamped at zero
        self.low = [per_pattern(
            lambda k: guard - max(0, targets[k] - comb(n, k) + comb(L, k)))
            for L in range(n + 1)]

    def run(self) -> tuple:
        """(solutions as sorted one-line tuples, nodes, exhaustive)."""
        try:
            nodes = self._extend(0, True, 0, 0, [0] * (self.n + 1), 0)
            exhaustive = True
        except _BudgetExceeded:
            # raised at the first node past the budget
            nodes, exhaustive = self.limit + 1, False
        return sorted(self.found), nodes, exhaustive

    def _extend(self, depth: int, fixed: bool, mask: int, packed: int,
                diff: list, nodes: int) -> int:
        """Try every unused value after the prefix of length `depth`, whose
        value set is the bitmask `mask` and whose counts are `packed` and
        `diff`, with `nodes` nodes counted so far; return the count after
        its subtree.  Each child is pushed onto its own copy of `diff`.

        `fixed` says the prefix is its own complement, so the complement
        maps the subtree of v onto that of n-1-v node for node: the prune
        windows are the same for all patterns of one order.  A child whose
        mirror n-1-v < v is done takes the mirror's node count and
        complemented solutions, and a child whose order-2 state is in
        `merged` takes that entry's node count and solutions, unless that
        count would cross the budget; then the subtree is searched for
        real, so the budget stops at the same node either way.
        """
        n, prefix, found = self.n, self.prefix, self.found
        if depth == n:
            found.append(tuple(prefix))
            return nodes
        high, low, guards = self.high, self.low[depth + 1], self.guards
        limit, merged, steps = self.limit, self.merged, self.steps
        mirror = {}
        ext = 0
        for v in range(n):
            ext += diff[v]
            if mask >> v & 1:
                continue
            if fixed:
                if n - 1 - v in mirror:
                    size, solutions = mirror[n - 1 - v]
                    if nodes + size <= limit:
                        nodes += size
                        found.extend(_complements(n, solutions))
                        continue
                start, first = nodes, len(found)
            nodes += 1
            if nodes > limit:
                raise _BudgetExceeded
            y = packed + ext
            if ((high - y) & (y + low) & guards) == guards:
                key = entry = None
                if merged is not None:
                    key = (mask | 1 << v, y)
                    entry = merged.get(key)
                if entry is not None and nodes + entry[0] <= limit:
                    nodes += entry[0]
                    if entry[1]:
                        found.extend(_completions(prefix, v, entry[1]))
                else:
                    before, count = nodes, len(found)
                    child = diff.copy()
                    push(child, prefix, v, steps)
                    nodes = self._extend(depth + 1, fixed and 2 * v == n - 1,
                                         mask | 1 << v, y, child, nodes)
                    prefix.pop()
                    if key is not None and len(merged) < ORDER2_TABLE_CAP:
                        merged[key] = (nodes - before, _suffixes(found, count, depth + 1))
            if fixed:
                mirror[v] = (nodes - start, found[first:])
        return nodes


# Module-level, not comprehensions in _extend: a comprehension there would
# turn the locals it reads into cells and slow the whole node loop.
def _complements(n: int, solutions: list) -> list:
    return [tuple(n - 1 - x for x in p) for p in solutions]


def _completions(prefix: list, v: int, suffixes: tuple) -> list:
    head = tuple(prefix) + (v,)
    return [head + s for s in suffixes]


def _suffixes(found: list, first: int, cut: int) -> tuple:
    return tuple(p[cut:] for p in found[first:])
