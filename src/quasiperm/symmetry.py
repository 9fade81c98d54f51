"""Perfect pattern symmetry: testing, divisibility prerequisites, search.

A permutation is perfectly m-symmetric when every order-m pattern occurs
exactly C(n,m)/m! times.  That forces perfect m'-symmetry for all m' <= m,
so m'! must divide C(n,m') for every such m'.
"""

from __future__ import annotations

from math import comb, factorial, inf
from typing import Optional

from .core import InputError, Permutation, Record
from .patterns import layout, pack, profile, push, push_work, unpack

EXHAUSTIVE_SIZE_LIMIT = 10
MAX_SEARCH_SIZE = 512
# entries of the order-2 subtree table; (9, 2) has at most 2**9 * 37 states
ORDER2_TABLE_CAP = 1 << 16


def divisibility_D(n: int, m: int) -> bool:
    """Whether m! divides C(n, m)."""
    if m > n:
        raise InputError("need m <= n")
    return comb(n, m) % factorial(m) == 0


def h(m: int) -> int:
    """Least n >= m passing the divisibility prerequisite for all orders
    from 2 up to m."""
    if not 2 <= m <= 8:
        raise InputError("supported orders are 2..8")
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
        raise InputError("need 2 <= m <= n")
    if not all(divisibility_D(n, mp) for mp in range(2, m + 1)):
        return False
    target = comb(n, m) // factorial(m)
    return all(c == target for c in profile(sigma, m).counts)


class SymmetrySearchResult(Record):
    __slots__ = ("n", "m", "found", "nodes_explored", "exhaustive")
    n: int
    m: int
    found: list
    nodes_explored: int
    exhaustive: bool


def search_perfect(n: int, m: int, budget: Optional[int] = None) -> SymmetrySearchResult:
    """Backtracking search for all perfectly m-symmetric permutations in S_n.

    Depth-first over one-line prefixes: values are tried in increasing
    order after the prefix, and each value tried is one node.  A prefix
    keeps its pattern counts of every order k <= m packed in one integer,
    with its `diff` in the layout of patterns.layout, and each child is
    pushed onto its own copy of `diff`.  A prefix is pruned as soon as some
    count exceeds its target.  Counts only ever grow with the prefix, so
    the prune is sound.  It is one test on packed integers: with guard +
    target in each field of `high`, the guard bit of every field survives
    in high - y exactly when every count of y is at most its target.  No
    floor is tested, because none can decide: the C(n,k) - C(L,k) index
    sets that remain to a prefix of length L could only leave a count
    short of its target t_k if it were below t_k - C(n,k) + C(L,k).  But
    the k! counts of order k sum to C(L,k) and their targets to C(n,k), so
    once each count is at most t_k, each is at least C(L,k) - (k! - 1) t_k,
    which is that floor.

    At m >= 3 a pushed prefix of length L must also pass two prunes on
    the counts that its value set already fixes (`fixed_counts`).  Every
    count ends in [F, F + C(n,k) - C(L,k) - C(L,k-1)(n-L)], and the
    occurrences wholly in the suffix of the two order-3 patterns p, q that
    start with rank r number 2 t_3 - F_p - F_q - G_r, which must lie in
    [0, C(n-L, 3)].  Only the upper ends of these windows are tested: the
    F of one order sum to C(L,k) + C(L,k-1)(n-L) and the targets to
    C(n,k), and the three class slacks sum to C(n-L, 3), so once every
    value is at most its bound none can fall below its floor.  The prunes
    are left out at m = 2, where every node count stays as it was, the
    CLI's (5, 2) report among them.

    A budget counts one unit per node plus the patterns.push_work of each
    push, 0 at m = 2; a search that runs out reports the nodes counted then.

    The complement x -> n-1-x maps solutions to solutions, and the windows
    are the same for all patterns of one order.  So under the empty prefix,
    and under [(n-1)/2] at odd n, the subtree of a value v > n-1-v is the
    mirror image of one already searched: its nodes and work are counted
    without being visited and its solutions are the mirror's complements.

    At m = 2 the counts a value adds depend only on the prefix's value set,
    and the prune reads only the inversion count, so a subtree is fixed by
    that (value set, inversion count) state.  `merged` maps each state
    searched to its subtree's node count and the suffixes of its
    solutions, which every other prefix that reaches the state reuses.  It
    stops taking entries at ORDER2_TABLE_CAP, which bounds its memory at
    large n; orders m >= 3 keep no table, since their prefixes rarely share
    a state.

    A budget that would run out inside a mirrored or reused subtree has it
    searched for real, so the search stops at exactly the node it would
    stop at without either shortcut, with the same solutions found.
    """
    if not 2 <= m <= n:
        raise InputError("need 2 <= m <= n")
    if n > MAX_SEARCH_SIZE:
        raise InputError(f"n={n} exceeds the search limit {MAX_SEARCH_SIZE}")
    if budget is not None and budget < 0:
        raise InputError(f"budget must be nonnegative, got {budget}")
    if n > EXHAUSTIVE_SIZE_LIMIT and budget is None:
        raise InputError(
            f"n={n} exceeds the exhaustive limit {EXHAUSTIVE_SIZE_LIMIT}; "
            "pass an explicit node budget")

    targets = {}
    for mp in range(2, m + 1):
        q, r = divmod(comb(n, mp), factorial(mp))
        if r:
            return SymmetrySearchResult(n, m, [], 0, True)
        targets[mp] = q

    width, guards, steps = layout(n, m)
    high = guards + pack(width, m, targets.get)
    cost = [push_work(L, m) for L in range(n)]
    limit = inf if budget is None else budget
    merged = {} if m == 2 else None
    found, prefix = [], []
    pushed = 0  # the work of every push so far

    def fits(packed: int, diff: list) -> bool:
        """The m >= 3 prunes on the pushed `prefix`: every count of F is at
        most its target, and F_p + F_q + G_r at most 2 t_3."""
        fixed, (g0, g1, g2) = fixed_counts(n, prefix, packed, diff)
        if ((high - fixed) & guards) != guards:
            return False
        c = unpack(fixed, width, 3)
        return max(c[0] + c[1] + g0, c[2] + c[3] + g1, c[4] + c[5] + g2) <= 2 * targets[3]

    def extend(depth: int, mask: int, packed: int, diff: list, work: int) -> int:
        """Try every unused value after `prefix`, of length `depth`, value
        set `mask` and counts `packed` and `diff`, with `work` units counted
        so far; return the count after its subtree."""
        nonlocal pushed
        if depth == n:
            found.append(tuple(prefix))
            return work
        if m > 2 and not fits(packed, diff):
            return work
        fixed = depth == 0 or depth == 1 and 2 * prefix[0] == n - 1
        mirror = {}
        ext = 0
        for v in range(n):
            ext += diff[v]
            if mask >> v & 1:
                continue
            if fixed:
                if n - 1 - v in mirror:
                    size, push_size, solutions = mirror[n - 1 - v]
                    if work + size <= limit:
                        work += size
                        pushed += push_size
                        found.extend(_complements(n, solutions))
                        continue
                start, start_pushed, first = work, pushed, len(found)
            work += 1
            if work > limit:
                raise _BudgetExceeded(work - pushed)
            y = packed + ext
            if ((high - y) & guards) == guards:
                key = entry = None
                if merged is not None:
                    # pushes cost no work at m = 2, so work counts nodes
                    key = (mask | 1 << v, y)
                    entry = merged.get(key)
                if entry is not None and work + entry[0] <= limit:
                    work += entry[0]
                    if entry[1]:
                        found.extend(_completions(prefix, v, entry[1]))
                else:
                    before, count = work, len(found)
                    child = diff.copy()
                    push(child, prefix, v, steps)
                    pushed += cost[depth]
                    work = extend(depth + 1, mask | 1 << v, y, child, work + cost[depth])
                    prefix.pop()
                    if key is not None and len(merged) < ORDER2_TABLE_CAP:
                        merged[key] = (work - before, _suffixes(found, count, depth + 1))
            if fixed:
                mirror[v] = (work - start, pushed - start_pushed, found[first:])
        return work

    try:
        nodes, exhaustive = extend(0, 0, 0, [0] * (n + 1), 0) - pushed, True
    except _BudgetExceeded as stop:
        (nodes,), exhaustive = stop.args, False
    finally:
        # extend holds itself in its closure: break the cycle, and free the
        # tables before the solutions are copied
        del extend, merged
    found.sort()
    return SymmetrySearchResult(n, m, [Permutation(p) for p in found], nodes, exhaustive)


def fixed_counts(n: int, values: list, packed: int, diff: list) -> tuple:
    """(F, (G_0, G_1, G_2)) of a prefix of a permutation of size n with
    the given values and the packed counts `packed` and `diff` of
    patterns.layout.

    F counts, for every pattern of every order k, the occurrences with at
    least k-1 positions in the prefix, packed like `packed`: an occurrence
    with its last position in the suffix has the same pattern wherever
    that position is, so those of each unused value v are the ext_v of
    `diff`, whatever order the suffix takes.  ext_v changes only where v
    passes a prefix value, so one step per prefix value adds it over each
    run of unused values.  G_r counts the order-3 occurrences with only
    their first position x in the prefix whose first rank is r: C(a, 2),
    a*b and C(b, 2) for r = 0, 1, 2, with a and b the unused values above
    and below x, which only need the sums of b and b^2.
    """
    held = len(values)
    free = n - held
    fixed, ext, last, s1, s2 = packed, diff[0], -1, 0, 0
    for rank, x in enumerate(sorted(values)):
        fixed += ext * (x - last - 1)
        ext += diff[x + 1]
        below = x - rank
        s1 += below
        s2 += below * below
        last = x
    fixed += ext * (n - 1 - last)
    return fixed, ((held * free * (free - 1) - (2 * free - 1) * s1 + s2) // 2,
                   free * s1 - s2, (s2 - s1) // 2)


class _BudgetExceeded(Exception):
    """Raised at the first node past the budget, with the nodes counted."""


# Module-level, not comprehensions in extend: a comprehension there would
# turn the locals it reads into cells and slow the whole node loop.
def _complements(n: int, solutions: list) -> list:
    return [tuple(n - 1 - x for x in p) for p in solutions]


def _completions(prefix: list, v: int, suffixes: tuple) -> list:
    head = tuple(prefix) + (v,)
    return [head + s for s in suffixes]


def _suffixes(found: list, first: int, cut: int) -> tuple:
    return tuple(p[cut:] for p in found[first:])
