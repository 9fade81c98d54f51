import itertools
import random
import tracemalloc
from fractions import Fraction
from math import comb, exp, factorial

import pytest
from hypothesis import given, settings, strategies as st

from quasiperm import permdisc
from quasiperm.balance import scaled_discrepancy_in
from quasiperm.core import CyclicInterval, InputError, Permutation, image_of_interval
from quasiperm.permdisc import (
    MAX_DISCREPANCY_SIZE,
    PermDiscrepancyReport,
    discrepancy_of_pair,
    exclusion_lower_bound,
    perm_discrepancy,
    restricted_discrepancies,
    sampled_discrepancy_lower_bound,
    separability_statistic,
    two_pattern_balance,
    windowed_pattern_count,
    windowed_pattern_deviation,
)
from quasiperm.construct import (
    digit_reversal,
    random_permutation,
    tensor_product,
)
from quasiperm.patterns import patterns_of_order, standardize

from oracles import (
    brute_count_pattern,
    brute_interval_ranges,
    brute_perm_discrepancy,
    brute_restricted_max,
    row_scan_perm_discrepancy,
)
from fresh import run_fresh


def test_identity_example():
    rep = perm_discrepancy(Permutation.identity(4))
    assert rep.scaled_D == 4
    assert rep.scaled_d == 4
    assert rep.scaled_d_prime == 4
    assert discrepancy_of_pair(Permutation.identity(4),
                               rep.witness_I, rep.witness_J) == 4


def test_discrepancy_of_pair_counts_the_image_exhaustive():
    for n in range(1, 6):
        intervals = [CyclicInterval(n, start, length)
                     for start in range(n) for length in range(n + 1)]
        for images in itertools.permutations(range(n)):
            sigma = Permutation(images)
            for i in intervals:
                image = image_of_interval(sigma, i)
                for j in intervals:
                    assert discrepancy_of_pair(sigma, i, j) \
                        == scaled_discrepancy_in(image, j.to_subset())


def test_discrepancy_of_pair_does_not_load_numpy():
    script = """
import sys

from quasiperm.core import CyclicInterval, Permutation
from quasiperm.permdisc import discrepancy_of_pair

sigma = Permutation((2, 0, 1))
assert discrepancy_of_pair(sigma, CyclicInterval(3, 0, 2), CyclicInterval(3, 1, 1)) == 2
assert "numpy" not in sys.modules
"""
    proc = run_fresh(script)
    assert proc.returncode == 0, proc.stderr


def test_perm_discrepancy_matches_brute_force_exhaustive():
    for n in (2, 3, 4):
        for images in itertools.permutations(range(n)):
            sigma = Permutation(images)
            assert perm_discrepancy(sigma).scaled_D == brute_perm_discrepancy(sigma)


def test_perm_discrepancy_matches_brute_force_random():
    rng = random.Random(53)
    for n in (7, 12, 20):
        for _ in range(10):
            sigma = random_permutation(n, rng.randrange(10 ** 6))
            rep = perm_discrepancy(sigma)
            assert rep.scaled_D == brute_perm_discrepancy(sigma)
            assert discrepancy_of_pair(sigma, rep.witness_I,
                                       rep.witness_J) == rep.scaled_D


def test_restricted_matches_brute_force():
    rng = random.Random(59)
    for n in (4, 7, 11):
        for _ in range(10):
            sigma = random_permutation(n, rng.randrange(10 ** 6))
            d, dp = restricted_discrepancies(sigma)
            assert d == brute_restricted_max(sigma, prefix=True)
            assert dp == brute_restricted_max(sigma, prefix=False)
            rep = perm_discrepancy(sigma)
            assert (rep.scaled_d, rep.scaled_d_prime) == (d, dp)
            i_d, j_d = rep.witness_d
            assert discrepancy_of_pair(sigma, i_d, j_d) == d
            assert i_d.start == 0
            i_dp, j_dp = rep.witness_d_prime
            assert discrepancy_of_pair(sigma, i_dp, j_dp) == dp
            assert i_dp.length == 0 or i_dp.start + i_dp.length == n


def _tie_break_corpus():
    for n in range(1, 7):
        for images in itertools.permutations(range(n)):
            yield Permutation(images)
    rng = random.Random(67)
    for n in range(7, 25):
        for _ in range(2):
            yield random_permutation(n, rng.randrange(10 ** 6))
    yield digit_reversal(2, 4)
    yield digit_reversal(3, 2)
    yield digit_reversal(2, 6)
    yield tensor_product([Permutation((1, 0)), Permutation((0, 2, 1)),
                          Permutation((2, 0, 3, 1))])
    yield tensor_product([Permutation((0, 2, 1)), Permutation((1, 0)),
                          Permutation((0, 2, 1))])


def test_witnesses_follow_the_tie_breaks():
    # D: first start, then shortest length; d and d': shortest initial and
    # final interval.  Every interval ties with its complement, so these
    # rules pick one of at least two maximal intervals.
    for sigma in _tie_break_corpus():
        n = sigma.n
        table = brute_interval_ranges(sigma)

        def first(cells):
            best = max(int(table[s, li - 1]) for s, li in cells)
            s, li = next((s, li) for s, li in cells if table[s, li - 1] == best)
            return best, (CyclicInterval(n, s, li) if best
                          else CyclicInterval.empty(n))

        every = [(s, li) for s in range(n) for li in range(1, n + 1)]
        initial = [(0, li) for li in range(1, n + 1)]
        final = [((n - li) % n, li) for li in range(1, n + 1)]
        rep = perm_discrepancy(sigma)
        assert (rep.scaled_D, rep.witness_I) == first(every)
        assert (rep.scaled_d, rep.witness_d[0]) == first(initial)
        assert (rep.scaled_d_prime, rep.witness_d_prime[0]) == first(final)
        for value, (i, j) in ((rep.scaled_D, (rep.witness_I, rep.witness_J)),
                              (rep.scaled_d, rep.witness_d),
                              (rep.scaled_d_prime, rep.witness_d_prime)):
            assert discrepancy_of_pair(sigma, i, j) == value


def _assert_reports_equal(got, expected):
    for field in PermDiscrepancyReport.__slots__:
        assert getattr(got, field) == getattr(expected, field), (expected.n, field)


def test_perm_discrepancy_matches_the_row_scan_oracle():
    # the column scan takes several blocks of starts from n = 97 on, so
    # the first-maximum tie-break is checked across block edges
    rng = random.Random(89)
    corpus = [random_permutation(n, rng.randrange(10 ** 6))
              for n in (50, 97, 128, 200, 256)]
    corpus += [digit_reversal(2, k) for k in range(5, 9)]
    for sigma in corpus:
        _assert_reports_equal(perm_discrepancy(sigma),
                              row_scan_perm_discrepancy(sigma))


def _scans_agree(sigma):
    lists = permdisc._report(sigma, permdisc._list_scan)
    _assert_reports_equal(lists, permdisc._report(sigma, permdisc._array_scan))


def test_list_scan_matches_the_array_scan_exhaustive():
    for n in range(1, 8):
        for images in itertools.permutations(range(n)):
            _scans_agree(Permutation(images))


def test_list_scan_matches_the_array_scan_up_to_its_allowance():
    # the largest n whose D fits the allowance in one call
    top = max(n for n in range(1, 1000)
              if n * n * (n - 1) // 2 <= permdisc._LIST_CELLS)
    for n in (8, 13, 31, 32, 47, 64, 97, top):
        for seed in range(3):
            _scans_agree(random_permutation(n, 1000 * n + seed))
    _scans_agree(digit_reversal(2, 7))


@pytest.mark.parametrize("samples", [0, 1, 5, 40, 1000])
def test_list_sampled_bound_matches_the_array_scan(monkeypatch, samples):
    corpus = [(random_permutation(n, 7 * n + seed), seed)
              for n in (1, 5, 17, 40) for seed in range(4)]
    bounds = []
    for lists in (True, False):
        monkeypatch.setattr(permdisc, "_lists_pay", lambda cells: lists)
        bounds.append([sampled_discrepancy_lower_bound(sigma, samples, seed)
                       for sigma, seed in corpus])
    assert bounds[0] == bounds[1]


def test_list_scan_gives_way_to_numpy_once_its_allowance_is_spent():
    script = """
import random
import sys

from quasiperm import permdisc
from quasiperm.core import Permutation

n = 64
calls = permdisc._LIST_CELLS // (n * n * (n - 1) // 2)
sigmas = []
for seed in range(calls + 2):
    images = list(range(n))
    random.Random(seed).shuffle(images)
    sigmas.append(Permutation(tuple(images)))
loaded, reports = [], []
for sigma in sigmas:
    reports.append(permdisc.perm_discrepancy(sigma))
    loaded.append("numpy" in sys.modules)
assert calls > 1 and loaded == [False] * calls + [True] * 2, loaded
# numpy is loaded now, so every call takes the array scan
assert reports == [permdisc.perm_discrepancy(sigma) for sigma in sigmas]
"""
    proc = run_fresh(script)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("n", [361, 362, 363])
def test_discrepancy_at_the_int16_table_limit(n):
    # n <= 362 takes the int16 table and the column scan, n = 363 the
    # int32 table and the row scan; the identity and the reversal reach
    # |q| = n^2 / 4, 32 761 at n = 362
    corpus = [Permutation.identity(n),
              Permutation(tuple(range(n - 1, -1, -1))),
              Permutation(tuple((x + n // 2) % n for x in range(n))),
              random_permutation(n, 97)]
    for k, sigma in enumerate(corpus):
        rep = perm_discrepancy(sigma)
        if k < 2:
            assert rep.scaled_D == n * n // 4
        for value, (i, j) in ((rep.scaled_D, (rep.witness_I, rep.witness_J)),
                              (rep.scaled_d, rep.witness_d),
                              (rep.scaled_d_prime, rep.witness_d_prime)):
            assert discrepancy_of_pair(sigma, i, j) == value
        assert perm_discrepancy(sigma.inverse()).scaled_D == rep.scaled_D
        # every start is drawn, so the row scan gives D exactly
        assert (sampled_discrepancy_lower_bound(sigma, 10 ** 6)
                == rep.scaled_D)


# (images, (D, I, J, d, (I, J), d', (I, J))) with intervals as (start, length)
PINNED_REPORTS = [
    ((0, 1, 2, 3, 4, 5),
     (9, (0, 3), (0, 3), 9, ((0, 3), (0, 3)), 9, ((3, 3), (3, 3)))),
    ((6, 5, 4, 3, 2, 1, 0),
     (12, (0, 3), (4, 3), 12, ((0, 3), (4, 3)), 12, ((4, 3), (0, 3)))),
    ((0, 4, 2, 6, 1, 5, 3, 7),
     (12, (1, 6), (1, 6), 9, ((0, 3), (0, 5)), 9, ((5, 3), (3, 5)))),
    ((0, 3, 1, 4, 2, 5),
     (8, (1, 4), (1, 4), 6, ((0, 3), (0, 2)), 6, ((3, 3), (2, 4)))),
    ((0, 3, 1, 5, 2, 4),
     (6, (0, 3), (0, 2), 6, ((0, 3), (0, 2)), 6, ((4, 2), (2, 3)))),
    ((3, 1, 2, 7, 0, 6, 5, 8, 4),
     (20, (3, 5), (5, 5), 18, ((0, 3), (1, 3)), 18, ((3, 6), (4, 6)))),
]


@pytest.mark.parametrize("images, expected", PINNED_REPORTS)
def test_perm_discrepancy_reports_are_pinned(images, expected):
    # the identity, the reversal, digit reversal 2^3, two permutations
    # whose witness profiles have tied extrema (so the J tie-break shows)
    # and one whose d' witness is not the complement of its d witness
    n = len(images)

    def iv(pair):
        return CyclicInterval(n, *pair)

    big, i, j, d, wit_d, dp, wit_dp = expected
    assert perm_discrepancy(Permutation(images)) == PermDiscrepancyReport(
        n, big, iv(i), iv(j), d, tuple(map(iv, wit_d)),
        dp, tuple(map(iv, wit_dp)))


def test_restricted_never_exceeds_full():
    rng = random.Random(61)
    for _ in range(25):
        n = rng.randint(2, 16)
        sigma = random_permutation(n, rng.randrange(10 ** 6))
        rep = perm_discrepancy(sigma)
        assert rep.scaled_d <= rep.scaled_D
        assert rep.scaled_d_prime <= rep.scaled_D


def test_separability_statistic_quadruples():
    sigma = Permutation((1, 3, 0, 2))
    full = CyclicInterval.full(4)
    # with K = K' = full circle, the statistic reduces to |n|I∩σ^-1(J)| - |I||J||
    for si, li in itertools.product(range(4), range(1, 5)):
        for sj, lj in itertools.product(range(4), range(1, 5)):
            i = CyclicInterval(4, si, li)
            j = CyclicInterval(4, sj, lj)
            assert (separability_statistic(sigma, i, j, full, full)
                    == discrepancy_of_pair(sigma, i, j))


def test_windowed_pattern_count_full_window():
    sigma = Permutation((3, 0, 1, 2))
    full = CyclicInterval.full(4)
    assert windowed_pattern_count(sigma, Permutation((0, 1)), full, full) == 3
    assert windowed_pattern_count(sigma, Permutation((1, 0)), full, full) == 3


def test_windowed_pattern_deviation_exact_zero():
    sigma = Permutation((3, 0, 1, 2))
    full = CyclicInterval.full(4)
    assert windowed_pattern_deviation(sigma, Permutation((0, 1)), full, full) == 0
    # small window: 2 positions, expected C(2,2)/2 = 1/2
    i = CyclicInterval(4, 0, 2)
    dev = windowed_pattern_deviation(sigma, Permutation((0, 1)), i, full)
    assert dev == Fraction(1, 2)


def test_two_pattern_balance():
    sigma = Permutation((3, 0, 1, 2))
    full = CyclicInterval.full(4)
    assert two_pattern_balance(sigma, full, full) == 0
    asc = Permutation.identity(4)
    assert two_pattern_balance(asc, full, full) == 6


def test_exclusion_lower_bound_example():
    assert exclusion_lower_bound(10, 2) == pytest.approx(0.01030, abs=5e-6)
    # the identity omits the descending pattern and indeed exceeds the floor
    d = perm_discrepancy(Permutation.identity(10)).scaled_D / 10
    assert d >= exclusion_lower_bound(10, 2)
    with pytest.raises(InputError):
        exclusion_lower_bound(3, 3)


def test_exclusion_lower_bound_underflows_instead_of_overflowing():
    # m! n^m and e^(2m) overflow a float here, and the bound is below the
    # smallest positive one
    for n, m in ((200, 171), (400, 200), (1000, 360)):
        assert exclusion_lower_bound(n, m) == 0.0
    for n, m in ((10, 3), (50, 7), (4096, 5)):
        exact = Fraction(n * comb(n, m), 4 * factorial(m) * n ** m)
        assert exclusion_lower_bound(n, m) == pytest.approx(float(exact) / exp(2 * m),
                                                            rel=1e-15)


def test_sampled_lower_bound_is_a_lower_bound():
    rng = random.Random(71)
    for _ in range(10):
        n = rng.randint(4, 16)
        sigma = random_permutation(n, rng.randrange(10 ** 6))
        low = sampled_discrepancy_lower_bound(sigma, samples=8, seed=1)
        assert 0 <= low <= perm_discrepancy(sigma).scaled_D
        assert sampled_discrepancy_lower_bound(sigma, samples=0) == 0
        assert sampled_discrepancy_lower_bound(sigma, samples=-3) == 0
        # sampling every start makes it exact
        assert (sampled_discrepancy_lower_bound(sigma, samples=50 * n, seed=2)
                == perm_discrepancy(sigma).scaled_D)


def test_sampled_bound_work_is_bounded_by_the_starts():
    # drawing stops once every start is seen, so a huge sample count is
    # one scan per start and gives the exact value
    sigma = random_permutation(12, 79)
    assert (sampled_discrepancy_lower_bound(sigma, samples=10 ** 9, seed=4)
            == perm_discrepancy(sigma).scaled_D)


def test_exact_scans_stay_within_two_int32_tables():
    # the n x n int32 prefix table and one scan buffer of the same size:
    # about 8.4 MB at n = 1024
    sigma = random_permutation(1024, 83)
    for call in (perm_discrepancy, restricted_discrepancies):
        tracemalloc.start()
        try:
            call(sigma)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 10 ** 6, (call.__name__, peak)


def test_restricted_discrepancies_stay_within_one_int32_table():
    # the n x n int32 prefix table and two length-n vectors: about 4.2 MB
    # at n = 1024
    sigma = random_permutation(1024, 83)
    tracemalloc.start()
    try:
        restricted_discrepancies(sigma)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 10 ** 6, peak


def test_column_scan_stays_within_two_int16_tables_and_a_block():
    # two 262 KB int16 tables at n = 362 and one block of at most 1 MB
    sigma = random_permutation(362, 101)
    tracemalloc.start()
    try:
        perm_discrepancy(sigma)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10 ** 6, peak


def test_size_limit_raises_before_allocating():
    sigma = Permutation.identity(MAX_DISCREPANCY_SIZE + 1)
    tracemalloc.start()
    try:
        for call in (perm_discrepancy, restricted_discrepancies,
                     lambda s: sampled_discrepancy_lower_bound(s, 1)):
            with pytest.raises(InputError, match="exceeds"):
                call(sigma)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


small_perms = st.integers(1, 8).flatmap(
    lambda n: st.permutations(range(n)).map(Permutation))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_perms)
def test_discrepancy_invariant_under_inverse(sigma):
    expected = brute_perm_discrepancy(sigma)
    assert perm_discrepancy(sigma).scaled_D == expected
    assert perm_discrepancy(sigma.inverse()).scaled_D == expected
    assert brute_perm_discrepancy(sigma.inverse()) == expected


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_perms, st.integers(0, 7), st.integers(0, 7))
def test_discrepancy_invariant_under_rotation(sigma, a, b):
    n = sigma.n
    rotated = Permutation(tuple((sigma((x + a) % n) + b) % n for x in range(n)))
    scaled = perm_discrepancy(sigma).scaled_D
    assert scaled == brute_perm_discrepancy(sigma)
    assert perm_discrepancy(rotated).scaled_D == scaled


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_perms)
def test_initial_and_final_restrictions_agree(sigma):
    # the final intervals are the complements of the initial ones, and
    # D_J(sigma(I)) = D_J(sigma(complement(I)))
    d, dp = restricted_discrepancies(sigma)
    assert d == dp == brute_restricted_max(sigma, prefix=True)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_perms, st.integers(0, 20), st.integers(0, 10 ** 6))
def test_sampled_bound_never_exceeds_discrepancy(sigma, samples, seed):
    low = sampled_discrepancy_lower_bound(sigma, samples, seed)
    assert 0 <= low <= brute_perm_discrepancy(sigma)


def _random_interval(rng, n):
    length = rng.choice([0, 1, n, rng.randint(0, n)])
    return CyclicInterval(n, rng.randrange(n), length)


def test_window_statistics_match_brute_force_seeded():
    rng = random.Random(2024)
    seen = {"empty": False, "single": False, "wrapping": False}
    for _ in range(150):
        n = rng.randint(1, 24)
        sigma = random_permutation(n, rng.randrange(10 ** 6))
        i, j = _random_interval(rng, n), _random_interval(rng, n)
        members_i, members_j = set(i.elements()), set(j.elements())
        values = [sigma(x) for x in sorted(members_i) if sigma(x) in members_j]
        w = len(values)
        window = Permutation(standardize(values)) if values else None
        seen["empty"] |= w == 0
        seen["single"] |= w == 1
        seen["wrapping"] |= i.wraps() or j.wraps()

        def brute(tau):
            return brute_count_pattern(window, tau) if w >= tau.n else 0

        for m in (2, 3):
            for tau in patterns_of_order(m):
                expected = brute(tau)
                assert windowed_pattern_count(sigma, tau, i, j) == expected
                assert (windowed_pattern_deviation(sigma, tau, i, j)
                        == abs(expected - Fraction(comb(w, m), factorial(m))))
        assert (two_pattern_balance(sigma, i, j)
                == brute(Permutation((0, 1))) - brute(Permutation((1, 0))))
    assert all(seen.values())


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 24).flatmap(
    lambda n: st.permutations(range(n)).map(Permutation)))
def test_complement_identities(sigma):
    # r(x) = n-1-x; sigma o r reads sigma right to left, r o sigma
    # complements its values
    r = Permutation.identity(sigma.n).reversed_one_line()
    rep = perm_discrepancy(sigma)
    after_r = perm_discrepancy(sigma.reversed_one_line())
    before_r = perm_discrepancy(r.compose(sigma))
    assert after_r.scaled_D == before_r.scaled_D == rep.scaled_D
    assert after_r.scaled_d == rep.scaled_d_prime
    assert after_r.scaled_d_prime == rep.scaled_d
    assert (before_r.scaled_d, before_r.scaled_d_prime) == (rep.scaled_d,
                                                            rep.scaled_d_prime)


def test_discrepancy_size_guard_admits_its_limit():
    permdisc._check_size(MAX_DISCREPANCY_SIZE)
    with pytest.raises(InputError, match=f"size {MAX_DISCREPANCY_SIZE + 1} exceeds"):
        permdisc._check_size(MAX_DISCREPANCY_SIZE + 1)
