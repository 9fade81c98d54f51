import itertools
import math
import operator
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasiperm import patterns
from quasiperm.core import InputError, Permutation
from quasiperm.patterns import (
    MAX_PROFILE_STEPS,
    build_pattern_matrices,
    circ,
    count_pattern,
    layout,
    lex_first_container,
    occurrence_graph_connected,
    pack,
    pattern_index,
    patterns_of_order,
    profile,
    push,
    rank_of_B,
    standardize,
    top_eigenvalue,
    unpack,
)
from quasiperm.construct import random_permutation

from fresh import run_fresh
import oracles
from oracles import brute_B, brute_count_pattern, brute_profile, count_pattern_enumerated


def first_refused_size(m):
    """The least n whose n pushes at order m, push_work summed over the
    prefix lengths 0..n-1, pass MAX_PROFILE_STEPS."""
    work = itertools.accumulate(oracles.push_work(m, length) for length in itertools.count())
    return next(n for n, total in enumerate(work, start=1) if total > MAX_PROFILE_STEPS)


def test_patterns_of_order_is_lex_sorted():
    for m in (1, 2, 3, 4):
        pats = patterns_of_order(m)
        assert len(pats) == math.factorial(m)
        assert [p.images for p in pats] == sorted(p.images for p in pats)


def test_standardize():
    assert standardize([5, 1, 9]) == (1, 0, 2)
    assert standardize([3]) == (0,)
    assert standardize([2, 7, 8, 0]) == (1, 2, 3, 0)


def test_pattern_index_matches_lex_position():
    for m in (1, 2, 3, 4):
        for i, p in enumerate(patterns_of_order(m)):
            assert pattern_index(p.images) == i


def test_count_pattern_matches_enumeration():
    rng = random.Random(41)
    for _ in range(15):
        n = rng.randint(4, 9)
        sigma = random_permutation(n, rng.randrange(10 ** 6))
        for m in (1, 2, 3, 4):
            for tau in patterns_of_order(m):
                fast = count_pattern(sigma, tau)
                assert fast == count_pattern_enumerated(sigma, tau)
                assert fast == brute_count_pattern(sigma, tau)


def test_profile_matches_brute_profile_exhaustive():
    for n in range(1, 8):
        for images in itertools.permutations(range(n)):
            sigma = Permutation(images)
            for m in range(min(n, 6) + 1):
                assert profile(sigma, m).counts == brute_profile(sigma, m), (images, m)


def test_profile_matches_brute_profile_seeded():
    for n, m, seed in ((96, 3, 51), (40, 4, 52)):
        sigma = random_permutation(n, seed)
        assert profile(sigma, m).counts == brute_profile(sigma, m)


def test_order4_profile_past_the_exhaustive_sizes():
    # prefixes longer than the exhaustive and push tests reach; at n = 66
    # the value masks of the order-4 step pass one 64-bit word
    rng = random.Random(53)
    for n in (*range(13, 25), 66):
        sigma = random_permutation(n, rng.randrange(10 ** 6))
        assert profile(sigma, 4).counts == brute_profile(sigma, 4), n
    # (n - 3) v_3 = B_3 v_4 exactly, at a size brute force cannot reach
    n = 200
    sigma = random_permutation(n, 54)
    v3 = np.array(profile(sigma, 3).counts, dtype=object)
    v4 = np.array(profile(sigma, 4).counts, dtype=object)
    assert ((n - 3) * v3 == build_pattern_matrices(3).B.astype(object) @ v4).all()


def test_affine_order4_step_matches_the_six_class_oracle():
    # every push of the affine step adds the integers of the per-class
    # step, which keeps the search's prunes, node counts and budget stops;
    # at n = 66 the value masks pass one 64-bit word
    rng = random.Random(55)
    for n in (*range(5, 25), 66):
        images = rng.sample(range(n), n)
        width, _, steps = layout(n, 4)
        diff, prefix, expected_diff, expected_prefix = [0] * (n + 1), [], [0] * (n + 1), []
        for a in images:
            push(diff, prefix, a, steps)
            oracles.six_class_push(expected_diff, expected_prefix, a, width)
            assert diff == expected_diff and prefix == expected_prefix, (images, len(prefix))


def test_order3_corner_counts_match_brute_profile():
    rng = random.Random(56)
    for n in range(3, 41):
        sigma = Permutation(rng.sample(range(n), n))
        assert profile(sigma, 3).counts == brute_profile(sigma, 3), sigma.images


def test_order3_corner_counts_match_the_order3_fields_of_a_push_pass():
    for n, seed in ((96, 57), (500, 58)):
        sigma = random_permutation(n, seed)
        width, _, steps = layout(n, 4)
        diff, prefix, packed = [0] * (n + 1), [], 0
        for a in sigma.images:
            packed += sum(diff[:a + 1])
            push(diff, prefix, a, steps)
        assert profile(sigma, 3).counts == unpack(packed, width, 3), n


def test_order3_corner_counts_at_the_largest_admitted_size():
    # (n - 2) v_2 = B_2 v_3, with v_2 from the inversion count
    n = first_refused_size(3) - 1
    sigma = random_permutation(n, 59)
    v3 = profile(sigma, 3).counts
    inv = patterns._inversions(sigma.images)
    v2 = (math.comb(n, 2) - inv, inv)
    assert sum(v3) == math.comb(n, 3)
    assert [(n - 2) * c for c in v2] == [sum(map(operator.mul, row, v3)) for row in brute_B(2)]


def test_profile_step_limit_raises_before_allocating():
    # the smallest size at each order whose pushes pass the limit, refused
    # with one message form at every order
    big = {m: Permutation.identity(first_refused_size(m)) for m in range(3, 7)}
    tracemalloc.start()
    try:
        for sigma, m in (*((big[m], m) for m in big), (big[3], 4), (big[4], 6)):
            with pytest.raises(InputError, match=rf"order-{m} profile of size {sigma.n} "
                                                 r"takes \d+ push steps, beyond the limit"):
                profile(sigma, m)
        with pytest.raises(InputError, match="beyond the limit"):
            count_pattern(big[3], Permutation((0, 2, 1)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # one size smaller is admitted; order 2 has no step limit
    n3 = big[3].n
    sigma = Permutation.identity(n3 - 1)
    assert profile(sigma, 3).counts == (math.comb(n3 - 1, 3), 0, 0, 0, 0, 0)
    assert profile(big[4], 2).counts == (math.comb(big[4].n, 2), 0)


def test_order4_profile_at_a_size_the_old_rule_refused():
    # the rule C(n, 3) <= MAX_PROFILE_STEPS refused order 4 from n = 312 on;
    # its pushes take 2 C(n, 2) steps, which are admitted up to n = 2236
    n = 312
    sigma = random_permutation(n, 312)
    v3 = np.array(profile(sigma, 3).counts, dtype=object)
    v4 = np.array(profile(sigma, 4).counts, dtype=object)
    assert sum(v4) == math.comb(n, 4)
    assert ((n - 3) * v3 == build_pattern_matrices(3).B.astype(object) @ v4).all()


def test_push_work_matches_the_oracle():
    for m in range(2, 7):
        for length in range(31):
            assert patterns.push_work(length, m) == oracles.push_work(m, length), (m, length)


def test_unpack_reads_back_every_field_of_pack():
    rng = random.Random(5)
    for n, m in ((4, 2), (9, 3), (12, 4), (20, 5)):
        width, guards, _ = layout(n, m)
        values = {k: rng.randrange(1 << (width - 1)) for k in range(2, m + 1)}
        packed = pack(width, m, values.get)
        for k in range(2, m + 1):
            assert unpack(packed, width, k) == (values[k],) * math.factorial(k), (n, m, k)
        assert packed < 1 << (width * sum(map(math.factorial, range(2, m + 1))))
        # the guard bits are the top bit of every field
        for k in range(2, m + 1):
            assert unpack(guards, width, k) == (1 << (width - 1),) * math.factorial(k)


def test_profile_negative_order_names_the_order():
    with pytest.raises(InputError, match="order -1"):
        profile(Permutation((1, 0, 2)), -1)


def test_profile_sums_to_binomial():
    rng = random.Random(43)
    for n, m in ((8, 2), (9, 3), (10, 4)):
        sigma = random_permutation(n, rng.randrange(10 ** 6))
        prof = profile(sigma, m)
        assert sum(prof.counts) == math.comb(n, m)


def test_profile_centered_norm():
    sigma = Permutation((3, 0, 1, 2))
    prof = profile(sigma, 2)
    # X^{01} = 3, X^{10} = 3, expectation 3 each
    assert prof.centered() == (Fraction(0), Fraction(0))
    assert prof.centered_norm_sq() == 0


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(5, 12).flatmap(lambda n: st.permutations(range(n)).map(Permutation)),
       st.integers(2, 4))
def test_transfer_identity(sigma, m):
    # (n - m) v_m = B_m v_{m+1}, exact integers
    n = sigma.n
    vm = np.array(profile(sigma, m).counts, dtype=object)
    vm1 = np.array(profile(sigma, m + 1).counts, dtype=object)
    b = build_pattern_matrices(m).B.astype(object)
    assert ((n - m) * vm == b @ vm1).all()


def test_rows_of_B_match_the_subset_oracle():
    for m in range(1, 6):
        assert patterns._rows_of_B(m) == brute_B(m), m


def test_build_pattern_matrices_returns_fresh_arrays():
    first, second = build_pattern_matrices(4).B, build_pattern_matrices(4).B
    assert first is not second
    first[:] = -1
    assert build_pattern_matrices(4).B.tolist() == [list(row) for row in brute_B(4)]


def test_gram_matrix_equals_the_integer_product():
    for m in range(1, 6):
        mats = build_pattern_matrices(m)
        assert mats.A.dtype == np.int64
        assert (mats.A == mats.B.T @ mats.B).all(), m


def test_inversions_match_the_pair_count():
    for n in range(8):
        for images in itertools.permutations(range(n)):
            assert patterns._inversions(images) == oracles.brute_inversions(images)
    # sizes on both sides of the 8-value rows and of every power of two
    rng = random.Random(37)
    sizes = [*range(71), *(n for k in range(13) for n in (2 ** k - 1, 2 ** k, 2 ** k + 1)), 1000]
    for n in sizes:
        images = list(range(n))
        rng.shuffle(images)
        assert patterns._inversions(images) == oracles.row_inversions(images), n
    assert type(patterns._inversions((1, 0, 2))) is int
    assert patterns._inversions(tuple(range(999, -1, -1))) == 1000 * 999 // 2


def test_inversions_at_1e5_stay_within_4_mb():
    # the int32 keys of 2^17 slots take 0.5 MB; the values as one intp array
    # take 0.8 MB
    sigma = random_permutation(10 ** 5, 41)
    tracemalloc.start()
    try:
        patterns._inversions(sigma.images)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 10 ** 6, peak


def test_rank_and_connectivity_do_not_import_numpy():
    script = ("import sys\n"
              "from quasiperm.patterns import occurrence_graph_connected, rank_of_B\n"
              "assert rank_of_B(4) == 24 and occurrence_graph_connected(4)\n"
              "sys.exit('numpy' in sys.modules)")
    proc = run_fresh(script)
    assert proc.returncode == 0, proc.stderr


def test_matrix_example_m1():
    mats = build_pattern_matrices(1)
    assert mats.B.tolist() == [[2, 2]]
    assert mats.A.tolist() == [[4, 4], [4, 4]]


def test_matrix_row_and_column_sums():
    for m in (1, 2, 3, 4):
        mats = build_pattern_matrices(m)
        assert set(mats.B.sum(axis=0).tolist()) == {m + 1}
        assert set(mats.B.sum(axis=1).tolist()) == {(m + 1) ** 2}
        assert set(mats.A.sum(axis=1).tolist()) == {(m + 1) ** 3}


def test_top_eigenvalue_is_cubed():
    for m in (1, 2, 3, 4):
        lam = top_eigenvalue(build_pattern_matrices(m).A)
        assert lam == pytest.approx((m + 1) ** 3, rel=1e-8)


def test_rank_of_B_is_m_factorial():
    for m in (1, 2, 3, 4, 5):
        assert rank_of_B(m) == math.factorial(m)


def test_occurrence_graph_connected():
    for m in (1, 2, 3, 4):
        assert occurrence_graph_connected(m)


def _use_matrix(monkeypatch, rows):
    monkeypatch.setattr(patterns, "_rows_of_B", lambda m: tuple(map(tuple, rows)))


@pytest.mark.parametrize("rows", [[[1, 1, 0, 0], [0, 0, 1, 1]],
                                  [[1, 1, 0], [1, 1, 0]]])
def test_occurrence_graph_disconnected(monkeypatch, rows):
    _use_matrix(monkeypatch, rows)
    assert occurrence_graph_connected(2) is False


def test_rank_of_B_below_the_row_count(monkeypatch):
    _use_matrix(monkeypatch, [[1, 2, 0], [2, 4, 0], [0, 1, 3]])
    assert rank_of_B(2) == 2


def test_circ_examples():
    assert circ(Permutation((0, 1))).images == (0, 1, 2)
    assert circ(Permutation((1, 0))).images == (0, 2, 1)
    assert circ(Permutation((0, 2, 1))).images == (0, 1, 3, 2)


def test_lex_first_container_is_circ():
    for m in (1, 2, 3):
        for tau in patterns_of_order(m):
            assert lex_first_container(tau) == circ(tau)


def test_every_pattern_occurs_in_circ():
    for m in (2, 3, 4):
        for tau in patterns_of_order(m):
            assert count_pattern(circ(tau), tau) >= 1


@pytest.mark.parametrize("m", [0, -1])
def test_patterns_of_order_below_one_names_the_order(m):
    with pytest.raises(InputError, match=f"pattern order {m} is below 1"):
        patterns_of_order(m)


def test_profile_step_limit_admits_its_value(monkeypatch):
    # at order 4 the pushes onto n = 8 values take C(8, 2) + C(8, 2) = 56 steps
    sigma = Permutation((3, 6, 0, 7, 2, 5, 1, 4))
    monkeypatch.setattr(patterns, "MAX_PROFILE_STEPS", 56)
    assert profile(sigma, 4).counts == brute_profile(sigma, 4)
    monkeypatch.setattr(patterns, "MAX_PROFILE_STEPS", 55)
    with pytest.raises(InputError, match="takes 56 push steps, beyond the limit 55"):
        profile(sigma, 4)
