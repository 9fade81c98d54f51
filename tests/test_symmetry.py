import functools
import itertools
import math
import random
import tracemalloc

import pytest

from oracles import (brute_first_rank_counts, brute_fixed_counts, brute_inversions,
                     brute_profile, brute_search_trace)
from quasiperm.construct import inversion_distribution
from quasiperm.core import InputError, Permutation
from quasiperm import symmetry
from quasiperm.patterns import layout, patterns_of_order, push, standardize, unpack
from quasiperm.symmetry import (
    MAX_SEARCH_SIZE,
    SymmetrySearchResult,
    divisibility_D,
    fixed_counts,
    h,
    is_perfect_m_symmetric,
    search_perfect,
)


def brute_is_symmetric(images, m):
    n = len(images)
    for mp in range(2, m + 1):
        total = math.comb(n, mp)
        if total % math.factorial(mp):
            return False
        target = total // math.factorial(mp)
        if any(c != target for c in brute_profile(Permutation(images), mp)):
            return False
    return True


def test_divisibility():
    assert divisibility_D(4, 2)
    assert not divisibility_D(6, 2)  # C(6,2) = 15 is odd
    assert divisibility_D(9, 3)


def test_h_table():
    assert h(2) == 4
    assert h(3) == 9
    assert h(4) == 64
    assert h(5) == 128


def test_is_perfect_m_symmetric_known_cases():
    assert is_perfect_m_symmetric(Permutation((3, 0, 1, 2)), 2)
    assert not is_perfect_m_symmetric(Permutation.identity(4), 2)
    # 650147832 is one of the two perfectly 3-symmetric permutations of size 9
    assert is_perfect_m_symmetric(Permutation((6, 5, 0, 1, 4, 7, 8, 3, 2)), 3)


def test_is_perfect_matches_every_order_oracle():
    # every permutation of S_5 at m = 2, and at n = 9 the two perfectly
    # 3-symmetric permutations, every transposition of one of them and
    # seeded draws, at m = 2 and 3
    for p in itertools.permutations(range(5)):
        assert is_perfect_m_symmetric(Permutation(p), 2) == brute_is_symmetric(p, 2)
    solution = [2, 3, 8, 7, 4, 1, 0, 5, 6]
    cases = [solution, solution[::-1]]
    for i, j in itertools.combinations(range(9), 2):
        swapped = solution[:]
        swapped[i], swapped[j] = swapped[j], swapped[i]
        cases.append(swapped)
    rng = random.Random(31)
    cases += [rng.sample(range(9), 9) for _ in range(100)]
    verdicts = set()
    for images in cases:
        for m in (2, 3):
            verdict = is_perfect_m_symmetric(Permutation(tuple(images)), m)
            assert verdict == brute_is_symmetric(images, m), (images, m)
            verdicts.add((m, verdict))
    assert verdicts == {(2, False), (2, True), (3, False), (3, True)}


def test_is_perfect_rejects_bad_modulus():
    # C(6,2) = 15 is odd, so no permutation of size 6 can qualify
    assert not any(is_perfect_m_symmetric(Permutation(p), 2)
                   for p in itertools.permutations(range(6)))


def test_search_matches_brute_force_small():
    for n in (4, 5):
        res = search_perfect(n, 2)
        expected = sorted(p for p in itertools.permutations(range(n))
                          if brute_is_symmetric(p, 2))
        assert [q.images for q in res.found] == expected
        assert res.exhaustive


def test_search_n4_contains_3012():
    res = search_perfect(4, 2)
    assert Permutation((3, 0, 1, 2)) in res.found
    assert all(is_perfect_m_symmetric(p, 2) for p in res.found)


def test_search_m3_small():
    # 6 divides no C(n, 3) for n = 3..8, so every order-3 search below
    # n = 9 returns at the divisibility test, before its first node
    for n in range(3, 9):
        assert not divisibility_D(n, 3)
        res = search_perfect(n, 3)
        assert (res.found, res.nodes_explored, res.exhaustive) == ([], 0, True)
        if n in (6, 7):
            assert not any(brute_is_symmetric(p, 3)
                           for p in itertools.permutations(range(n)))


def test_search_generic_order_agrees():
    # divisibility fails at n=6, m=4, so the answer is empty without search
    res = search_perfect(6, 4)
    assert res.found == []
    assert res.exhaustive and res.nodes_explored == 0
    # the backtracker at order 4, capped (full m=4 search needs n >= 64);
    # the budget counts 2L units of work for each push onto L values
    res = search_perfect(64, 4, budget=500)
    assert not res.exhaustive
    assert res.found == [] and res.nodes_explored == 35


def test_budget_semantics():
    with pytest.raises(InputError):
        search_perfect(12, 2)
    res = search_perfect(12, 2, budget=1000)
    assert not res.exhaustive
    assert res.nodes_explored >= 1000


def test_bad_order():
    with pytest.raises(InputError):
        search_perfect(4, 1)


def test_search_tree_is_pinned():
    # node counts of the exhaustive searches; the CLI reports them
    assert search_perfect(5, 2).nodes_explored == 315
    res = search_perfect(9, 3)
    assert res.nodes_explored == 2_965 and res.exhaustive
    assert [p.images for p in res.found] == [(2, 3, 8, 7, 4, 1, 0, 5, 6),
                                             (6, 5, 0, 1, 4, 7, 8, 3, 2)]
    for n, m, budget in ((12, 2, 20_000), (13, 2, 200_000)):
        res = search_perfect(n, m, budget)
        assert res.nodes_explored == budget + 1
        assert res.found == [] and not res.exhaustive
    # at m = 3 the budget also counts L units for each push onto L values
    res = search_perfect(20, 3, 20_000)
    assert res.nodes_explored == 2_535
    assert res.found == [] and not res.exhaustive


def test_search_n8_matches_inversion_oracle():
    # perfect 2-symmetry at n = 8 means exactly C(8,2)/2 = 14 inversions
    res = search_perfect(8, 2)
    assert res.nodes_explored == 99_856 and res.exhaustive
    expected = [p for p in itertools.permutations(range(8))
                if brute_inversions(p) == 14]
    assert len(expected) == 3836
    assert [q.images for q in res.found] == expected


def check_counts(prefix, packed, width):
    """The packed counts of orders 2..5 of `prefix` against brute_profile."""
    for k in range(2, 6):
        expected = (brute_profile(Permutation(standardize(prefix)), k) if len(prefix) >= k
                    else (0,) * math.factorial(k))
        assert unpack(packed, width, k) == expected, (prefix, k)


def push_checked(values, diff, prefix, packed, width, steps):
    """Push each value onto `diff` and `prefix`, checking the counts after
    each; return the packed counts at the end."""
    for a in values:
        packed += sum(diff[:a + 1])
        push(diff, prefix, a, steps)
        check_counts(prefix, packed, width)
    return packed


def test_prefix_counts_match_profile_at_every_depth():
    rng = random.Random(2024)
    for _ in range(25):
        n = rng.randint(1, 12)
        images = rng.sample(range(n), n)
        width, _, steps = layout(n, 5)
        check_counts([], 0, width)
        push_checked(images, [0] * (n + 1), [], 0, width, steps)


def test_children_pushed_onto_copies_leave_the_parent_unchanged():
    # the search pushes each child onto a copy of its parent's diff and
    # pops only the prefix afterwards, so siblings must not see each other
    rng = random.Random(15)
    for _ in range(25):
        n = rng.randint(2, 12)
        images = rng.sample(range(n), n)
        depth = rng.randrange(n - 1)
        width, _, steps = layout(n, 5)
        diff, prefix = [0] * (n + 1), []
        packed = push_checked(images[:depth], diff, prefix, 0, width, steps)
        parent = diff.copy()
        for v in rng.sample(images[depth:], 2):
            rest = [x for x in images[depth:] if x != v]
            rng.shuffle(rest)
            push_checked([v] + rest, diff.copy(), prefix, packed, width, steps)
            del prefix[depth:]
            assert diff == parent and prefix == images[:depth], (images, depth, v)


def test_search_size_limit_raises_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="search limit"):
            search_perfect(MAX_SEARCH_SIZE + 1, 2, budget=10)
        with pytest.raises(InputError, match="search limit"):
            search_perfect(2000, 2, budget=5000)
        with pytest.raises(InputError, match="nonnegative"):
            search_perfect(9, 3, budget=-5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_search_at_size_limit_completes():
    n = MAX_SEARCH_SIZE
    for m in (2, 3):
        res = search_perfect(n, m, budget=2000)
        assert res.found == []
        # C(512,3) is not divisible by 6, so m = 3 ends before the search
        assert res.nodes_explored == (2001 if m == 2 else 0)
    # the largest n <= 512 that admits m = 3 runs the order-3 state
    res = search_perfect(505, 3, budget=2000)
    assert res.nodes_explored == 64 and not res.exhaustive
    # h(5) = 128 is in reach
    res = search_perfect(h(5), 5, budget=50)
    assert res.nodes_explored == 7 and not res.exhaustive


def expected_stop(trace, budget):
    """(found, nodes_explored, exhaustive) of a search with this budget,
    read off the brute-force trace of the whole tree."""
    found = sorted(images for index, images in trace.hits if index <= budget)
    return found, min(trace.total, budget + 1), budget >= trace.total


def search_stop(n, m, budget):
    res = search_perfect(n, m, budget)
    return [p.images for p in res.found], res.nodes_explored, res.exhaustive


cached_trace = functools.cache(brute_search_trace)


@functools.cache
def counted_search(n, m, budget=None):
    """search_perfect(n, m, budget) and the number of push calls it made."""
    calls = 0

    def counting_push(diff, prefix, a, steps):
        nonlocal calls
        calls += 1
        push(diff, prefix, a, steps)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(symmetry, "push", counting_push)
        res = search_perfect(n, m, budget)
    return res, calls


def test_every_budget_stops_like_the_trace_oracle():
    for n in (4, 5):
        t = cached_trace(n, 2)
        assert t.total == search_perfect(n, 2).nodes_explored
        for budget in range(t.total + 2):
            assert search_stop(n, 2, budget) == expected_stop(t, budget), (n, budget)


def test_budget_at_root_subtree_boundaries_stops_like_the_trace_oracle():
    # the root children 4..7 of n = 8 mirror 3..0; a budget just below,
    # at or above the end of a subtree stops before, at or after its last node
    t = cached_trace(8, 2)
    ends = [start - 1 for start in t.root_starts[1:]] + [t.total]
    assert len(ends) == 8
    for end in ends:
        for budget in (end - 1, end, end + 1):
            assert search_stop(8, 2, budget) == expected_stop(t, budget), budget


def test_seeded_budgets_stop_like_the_trace_oracle():
    t = cached_trace(8, 2)
    rng = random.Random(9)
    for budget in [rng.randrange(t.total + 2) for _ in range(20)]:
        assert search_stop(8, 2, budget) == expected_stop(t, budget), budget


def test_budget_stops_in_the_mirrored_half_are_pinned():
    # (9, 3): the root children 5..8 mirror 3..0 and start at node 1651,
    # whose work is 7753, so a budget of 7752 stops at the first node of a
    # mirrored child; the second solution, the complement of the first, is
    # reached at node 2391, of work 11285, inside the subtree of 6
    first = (2, 3, 8, 7, 4, 1, 0, 5, 6)
    second = (6, 5, 0, 1, 4, 7, 8, 3, 2)
    for budget, found, nodes in ((7_752, [first], 1_651),
                                 (11_285, [first, second], 2_392)):
        assert search_stop(9, 3, budget) == (found, nodes, False), budget


def test_mirrored_subtrees_are_counted_not_searched():
    # the complement maps the subtree of v onto that of n-1-v under the
    # empty prefix and [(n-1)/2], so half of each tree is never pushed
    res, pushes = counted_search(9, 3)
    assert res.nodes_explored == 2_965 and pushes == 1_483
    # at m = 2 each (value set, inversion count) state is also pushed once
    res, pushes = counted_search(8, 2)
    assert res.nodes_explored == 99_856 and pushes == 1_392
    # a budget that ends inside the root child 0 never reaches a mirror
    res, pushes = counted_search(13, 2, 200_000)
    assert res.nodes_explored == 200_001 and pushes == 3_389


def mahonian(n, k):
    """Permutations of size n with k inversions: the last value of an
    (i+1)-prefix adds 0..i inversions over the first i values."""
    counts = [1]
    for i in range(n):
        counts = [sum(counts[j - d] for d in range(i + 1) if 0 <= j - d < len(counts))
                  for j in range(len(counts) + i)]
    return counts[k] if k < len(counts) else 0


def test_exhaustive_n9_m2_is_every_permutation_with_18_inversions():
    # C(9,2)/2 = 18; the node count was measured before subtrees with
    # equal order-2 states were merged
    res, pushes = counted_search(9, 2)
    assert res.nodes_explored == 882_693 and res.exhaustive
    assert mahonian(4, 3) == 6 and mahonian(9, 18) == 29_228
    images = [p.images for p in res.found]
    assert len(set(images)) == len(images) == mahonian(9, 18)
    assert all(brute_inversions(p) == 18 for p in images)
    assert pushes == 3_545


def test_order2_table_at_its_cap_stops_like_the_trace_oracle(monkeypatch):
    # with room for two entries, almost every subtree is searched for real
    # and the table's entries are reused only while they fit the budget
    monkeypatch.setattr(symmetry, "ORDER2_TABLE_CAP", 2)
    # the two entries are taken: 31 714 pushes without a table
    assert counted_search.__wrapped__(8, 2)[1] == 31_710
    t = cached_trace(5, 2)
    for budget in range(t.total + 2):
        assert search_stop(5, 2, budget) == expected_stop(t, budget), budget
    t = cached_trace(8, 2)
    rng = random.Random(12)
    for budget in [rng.randrange(t.total + 2) for _ in range(100)]:
        assert search_stop(8, 2, budget) == expected_stop(t, budget), budget


def symmetry_images(images):
    """The images of a one-line permutation under the 8 maps generated by
    reversal, complement and inverse: each of the identity and the inverse,
    then reversed or not, then complemented or not."""
    n = len(images)
    out = []
    for p in (images, Permutation(images).inverse().images):
        for q in (p, p[::-1]):
            out += [q, tuple(n - 1 - x for x in q)]
    return out


def test_the_symmetry_maps_are_eight():
    assert len(set(symmetry_images((0, 2, 3, 1)))) == 8


@pytest.mark.parametrize("n, m", [(4, 2), (5, 2), (6, 2), (7, 2), (8, 2), (9, 2), (9, 3)])
def test_exhaustive_found_is_closed_under_the_symmetry_group(n, m):
    # perfect m-symmetry is invariant under complement, reverse and inverse,
    # which permute the patterns of every order, so each exhaustive found
    # list is closed under the 8 maps they generate, whatever the node order
    res, _ = counted_search(n, m)
    assert res.exhaustive
    assert bool(res.found) == all(divisibility_D(n, k) for k in range(2, m + 1))
    found = {p.images for p in res.found}
    images = [symmetry_images(p) for p in found]
    for j in range(8):
        assert {g[j] for g in images} == found, j


def expected_work_stop(trace, budget):
    """(found, nodes_explored, exhaustive) of a search with this budget of
    work, read off the brute-force trace: it stops at the first node whose
    work exceeds the budget, with the solutions reached before that node."""
    stop = next((i for i, w in enumerate(trace.work, 1) if w > budget), None)
    found = sorted(images for index, images in trace.hits if stop is None or index < stop)
    return found, stop or trace.total, stop is None


def test_order3_budgets_stop_like_the_trace_oracle():
    # (9, 3) is the only order-3 tree below n = 10 that passes divisibility;
    # the budgets fall around the work of the first node of each root child,
    # mirrored or not, and of the node of each solution, and at random
    t = cached_trace(9, 3)
    assert t.total == search_perfect(9, 3).nodes_explored
    marks = [t.work[i - 1] for i in t.root_starts + [index for index, _ in t.hits]]
    rng = random.Random(22)
    budgets = ({w + d for w in marks for d in (-1, 0, 1)} | set(range(12))
               | {rng.randrange(t.work[-1] + 20) for _ in range(40)})
    for budget in sorted(budgets):
        assert search_stop(9, 3, budget) == expected_work_stop(t, budget), budget
    # at m = 2 the work of each node is its index
    t = cached_trace(8, 2)
    assert t.work == list(range(1, t.total + 1))


def test_fixed_counts_match_the_prune_oracle():
    # F and G_r of every prefix of seeded permutations, symmetric or not,
    # and the bounds they put on every final count; the search only meets
    # them at n = 9, since no other order-3 tree below n = 10 passes
    # divisibility
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(3, 10)
        m = min(n, 5)
        images = rng.sample(range(n), n)
        width, _, steps = layout(n, m)
        final = {k: brute_profile(Permutation(images), k) for k in range(2, m + 1)}
        diff, prefix, packed = [0] * (n + 1), [], 0
        for L in range(n + 1):
            fixed, classes = fixed_counts(n, prefix, packed, diff)
            assert classes == brute_first_rank_counts(prefix, n), (images, L)
            for k in range(2, m + 1):
                counts = unpack(fixed, width, k)
                assert counts == brute_fixed_counts(prefix, n, k), (images, L, k)
                free = math.comb(n, k) - math.comb(L, k) - math.comb(L, k - 1) * (n - L)
                assert all(f <= v <= f + free for f, v in zip(counts, final[k])), (images, L, k)
            f, v = unpack(fixed, width, 3), final[3]
            for r, g in enumerate(classes):
                assert 0 <= v[2 * r] + v[2 * r + 1] - f[2 * r] - f[2 * r + 1] - g \
                    <= math.comb(n - L, 3), (images, L, r)
            if L < n:
                packed += sum(diff[:images[L] + 1])
                push(diff, prefix, images[L], steps)


@pytest.mark.parametrize("n", [4, 5, 8, 9])
def test_order2_search_finds_every_permutation_with_half_the_inversions(n):
    # two independent kernels: perfect 2-symmetry is C(n, 2) / 2 inversions
    half = math.comb(n, 2) // 2
    assert len(search_perfect(n, 2).found) == inversion_distribution(n).counts[half]


def test_perfect_symmetry_at_order_n_is_decided():
    # one occurrence of order n cannot cover n! >= 2 patterns evenly
    for n in (2, 3, 4):
        assert not is_perfect_m_symmetric(Permutation.identity(n), n)


def test_exhaustive_size_limit_is_admitted_at_its_value():
    # C(10, 2) = 45 is odd, so the admitted search ends at its first test
    assert search_perfect(10, 2) == SymmetrySearchResult(10, 2, [], 0, True)
    with pytest.raises(InputError, match="n=11 exceeds the exhaustive limit 10"):
        search_perfect(11, 2)


def test_order2_search_keeps_each_solution_once():
    # the mirror and the order-2 table keep index ranges into the found
    # list, not copies of their subtrees' solutions (traced peak 4.9 MiB on
    # CPython 3.11)
    tracemalloc.start()
    try:
        res = search_perfect(9, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(res.found) == 29_228
    assert peak < 6 << 20
