import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from quasiperm.balance import (
    MAX_CERTIFICATE_SIZE,
    BalanceCertificate,
    balance_certificate,
    eigenvalue_bound_profile,
    fourier_spectrum,
    interval_spectrum_magnitudes,
    max_interval_discrepancy,
    multiple_discrepancy,
    scaled_discrepancy_in,
    sum_statistic,
    translation_statistic,
)
from quasiperm.core import CyclicInterval, InputError, ZnSubset, sym_abs

from oracles import (
    brute_fourier,
    brute_interval_max,
    brute_piecewise_balance,
    brute_translation,
    brute_weighted_interval_max,
    fourier_spectrum_direct,
    interval_witness_by_counting,
    translation_statistic_direct,
)


def random_subset(n, rng):
    return ZnSubset(n, frozenset(x for x in range(n) if rng.random() < 0.5))


def test_scaled_discrepancy_examples():
    evens = ZnSubset.from_elements(10, range(0, 10, 2))
    assert scaled_discrepancy_in(evens, ZnSubset.from_elements(10, [0, 1])) == 0
    assert scaled_discrepancy_in(evens, ZnSubset.from_elements(10, [0, 2])) == 10


def test_max_interval_discrepancy_examples():
    evens = ZnSubset.from_elements(10, range(0, 10, 2))
    value, witness = max_interval_discrepancy(evens)
    assert value == 5
    assert scaled_discrepancy_in(evens, witness.to_subset()) == 5

    single = ZnSubset.from_elements(4, [0])
    value, witness = max_interval_discrepancy(single)
    assert value == 3
    assert scaled_discrepancy_in(single, witness.to_subset()) == 3


def test_max_interval_discrepancy_matches_brute_force():
    rng = random.Random(11)
    for n in (5, 8, 13, 17, 32):
        for _ in range(20):
            s = random_subset(n, rng)
            value, witness = max_interval_discrepancy(s)
            assert value == brute_interval_max(s)
            assert scaled_discrepancy_in(s, witness.to_subset()) == value


def test_max_interval_discrepancy_witness_is_first_min_to_first_max():
    # the tie-break, not only the value: every subset up to n = 8, then
    # seeded sets of three sizes
    sets = [ZnSubset(n, frozenset(x for x in range(n) if mask >> x & 1))
            for n in range(1, 9) for mask in range(1 << n)]
    rng = random.Random(19)
    sets += [random_subset(n, rng) for n in (16, 100, 512) for _ in range(5)]
    for s in sets:
        assert max_interval_discrepancy(s) == interval_witness_by_counting(s), s


def test_discrepancy_complement_identities():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(2, 20)
        s = random_subset(n, rng)
        t = random_subset(n, rng)
        assert scaled_discrepancy_in(s, t) == scaled_discrepancy_in(s.complement(), t)
        assert scaled_discrepancy_in(s, t) == scaled_discrepancy_in(s, t.complement())


def test_multiple_discrepancy_examples():
    evens = ZnSubset.from_elements(10, range(0, 10, 2))
    # 5S collapses to five copies of 0
    assert multiple_discrepancy(evens, 5) == 45
    # unit multiplier leaves the set unchanged
    assert multiple_discrepancy(evens, 1) == max_interval_discrepancy(evens)[0]
    with pytest.raises(InputError):
        multiple_discrepancy(evens, 0)


def dilation_weights(s, k):
    """Multiplicities of the multiset kS = {k*x mod n : x in S}."""
    weights = [0] * s.n
    for x in s.members:
        weights[k * x % s.n] += 1
    return weights


def test_multiple_discrepancy_is_symmetric_under_negation_exhaustive():
    # balance_certificate scans only k <= n/2 because D(kS) = D((n-k)S)
    for n in range(2, 11):
        for mask in range(1 << n):
            s = ZnSubset(n, frozenset(x for x in range(n) if mask >> x & 1))
            for k in range(1, n):
                value = multiple_discrepancy(s, k)
                assert value == multiple_discrepancy(s, n - k), (n, mask, k)
                assert value == brute_weighted_interval_max(dilation_weights(s, k))


def test_fourier_fft_matches_direct():
    rng = random.Random(17)
    for n in (2, 3, 7, 16, 31):
        s = random_subset(n, rng)
        fast = fourier_spectrum(s)
        slow = fourier_spectrum_direct(s)
        assert np.allclose(fast, slow, atol=1e-9)
        for k in (1, n // 2, n - 1):
            assert abs(fast[k] - brute_fourier(s, k)) < 1e-9


def test_fourier_zero_coefficient_is_size():
    s = ZnSubset.from_elements(12, [0, 3, 4, 7])
    assert fourier_spectrum(s)[0] == pytest.approx(4)


def test_eigenvalue_bound_profile_monotone_in_alpha():
    # |k| >= 1 for every k != 0, so raising alpha never raises a ratio
    rng = random.Random(17)
    sets = [ZnSubset.from_elements(16, [0, 1, 2, 5, 9, 11])]
    for n in (7, 12, 25, 64):
        sets.append(ZnSubset.from_elements(n, rng.sample(range(n), rng.randint(1, n - 1))))
    for s in sets:
        stats = [eigenvalue_bound_profile(s, alpha)[0] for alpha in (0.25, 0.5, 1, 2)]
        assert all(a >= b for a, b in zip(stats, stats[1:])), (s, stats)
        # the witness k attains the reported statistic
        stat_half, k_half = eigenvalue_bound_profile(s, 0.5)
        mags = np.abs(fourier_spectrum(s))
        assert stat_half == pytest.approx(mags[k_half] / sym_abs(k_half, s.n) ** 0.5)


def test_sum_statistic_example():
    assert sum_statistic(ZnSubset.from_elements(4, [0])) == pytest.approx(2.25)


def test_interval_spectrum_bound():
    # |J~(k)| <= n / (2|k|) for every proper interval, exhaustive small n
    from quasiperm.core import sym_abs
    for n in (3, 8, 17, 32):
        for length in range(1, n):
            mags = interval_spectrum_magnitudes(n, length)
            for k in range(1, n):
                assert mags[k] <= n / (2 * sym_abs(k, n)) + 1e-9


def test_translation_statistic_example():
    s = ZnSubset.from_elements(4, [0])
    assert translation_statistic(s, CyclicInterval(4, 0, 1)) == pytest.approx(0.75)


def test_translation_paths_agree_and_match_brute_force():
    rng = random.Random(19)
    for n in (4, 9, 16, 25):
        s = random_subset(n, rng)
        for _ in range(8):
            j = CyclicInterval(n, rng.randrange(n), rng.randint(1, n))
            direct = translation_statistic_direct(s, j)
            spectral = translation_statistic(s, j)
            assert direct == pytest.approx(spectral, rel=1e-6, abs=1e-9)
            assert direct == pytest.approx(brute_translation(s, j), abs=1e-9)


def test_translation_dominated_by_sum_statistic():
    rng = random.Random(23)
    for n in (8, 16, 32):
        for _ in range(10):
            s = random_subset(n, rng)
            bound = (n / 4) * sum_statistic(s)
            for length in range(1, n + 1):
                j = CyclicInterval(n, 0, length)
                assert translation_statistic(s, j) <= bound + 1e-9


def test_certificate_example_and_internal_consistency():
    evens = ZnSubset.from_elements(10, range(0, 10, 2))
    cert = balance_certificate(evens)
    assert cert.eps_B == Fraction(1, 20)
    assert cert.eps_PB >= cert.eps_B  # intervals are one-component sets
    assert all(cert.implication_checks.values())


def test_certificate_sampled_policy_deterministic():
    rng = random.Random(29)
    s = random_subset(64, rng)
    a = balance_certificate(s)
    b = balance_certificate(s)
    assert a == b


def test_certificate_implications_hold_on_random_sets():
    rng = random.Random(31)
    for n in (24, 40):
        for _ in range(5):
            s = random_subset(n, rng)
            if s.size in (0, n):
                continue
            cert = balance_certificate(s)
            assert all(cert.implication_checks.values()), cert.implication_checks


def test_certificate_implications_hold_exhaustive_and_on_full_sets():
    for n in range(1, 11):
        for mask in range(1 << n):
            s = ZnSubset(n, frozenset(x for x in range(n) if mask >> x & 1))
            checks = balance_certificate(s).implication_checks
            assert all(checks.values()), (n, mask, checks)
    for n in range(4, 65):
        if all(n % p for p in range(2, n)):
            continue
        full = ZnSubset.full(n)
        # the pb_implies_mb bound takes n * D(kZ_n) to be n * (gcd(k, n) - 1)
        for k in range(1, n):
            assert multiple_discrepancy(full, k) == n * (math.gcd(k, n) - 1)
        checks = balance_certificate(full).implication_checks
        assert all(checks.values()), (n, checks)


def test_certificate_size_limit_raises_before_allocating():
    s = ZnSubset.empty(MAX_CERTIFICATE_SIZE + 1)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="exceeds"):
            balance_certificate(s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_piecewise_balance_matches_oracle_exhaustive():
    for n in range(1, 9):
        for mask in range(1 << n):
            s = ZnSubset(n, frozenset(x for x in range(n) if mask >> x & 1))
            cert = balance_certificate(s)
            assert cert.eps_PB == brute_piecewise_balance(n, mask), (n, mask)
            assert cert.witness_PB == tuple(sorted(cert.witness_B.elements()))


def test_multiple_balance_matches_oracle():
    rng = random.Random(37)
    cases = [ZnSubset.full(12), ZnSubset.from_elements(10, range(0, 10, 2))]
    cases += [random_subset(n, rng) for n in (1, 2, 7, 12, 30, 48) for _ in range(3)]
    for s in cases:
        n = s.n
        eps, witness = Fraction(0), 0
        for k in range(1, n):
            val = Fraction(brute_weighted_interval_max(dilation_weights(s, k)),
                           n * n * sym_abs(k, n))
            if val > eps:
                eps, witness = val, k
        cert = balance_certificate(s)
        assert (cert.eps_MB, cert.witness_MB) == (eps, witness), sorted(s.members)


def test_multiple_balance_never_exceeds_a_quarter():
    # the bound n*D(kS) <= ((n + k - 1)/2)^2 of _implication_checks, which keeps
    # eps_MB below pi/8; the largest eps_MB for n <= 12 is 1/4, at n = 2
    largest = Fraction(0)
    for n in range(1, 13):
        for mask in range(1 << n):
            s = ZnSubset(n, frozenset(x for x in range(n) if mask >> x & 1))
            for k in range(1, n // 2 + 1):
                d = multiple_discrepancy(s, k)
                assert 4 * d <= (n + k - 1) ** 2, (n, mask, k)
                largest = max(largest, Fraction(d, n * n * k))
    assert largest == Fraction(1, 4) < math.pi / 8
    assert balance_certificate(ZnSubset(2, frozenset({0}))).eps_MB == Fraction(1, 4)


ALL_CHECKS_HOLD = {"pb_implies_mb": True, "mb_implies_e_half": True,
                   "e0.5_implies_e0.25": True, "e1.0_implies_e0.5": True,
                   "s_implies_t": True}

# recorded before the piecewise-balance candidate search was removed;
# floats are compared with ==
PINNED_CERTIFICATES = [
    (ZnSubset.from_elements(16, [6, 7, 11, 12, 13]), BalanceCertificate(
        n=16, size=5, eps_B=Fraction(5, 32),
        witness_B=CyclicInterval(16, 6, 8),
        eps_PB=Fraction(5, 32), witness_PB=(6, 7, 8, 9, 10, 11, 12, 13),
        eps_MB=Fraction(5, 32), witness_MB=1,
        eps_E_half=0.14987717416859858, witness_E_half=1,
        eps_S=0.06759890304032913, eps_T=0.005859375000000003,
        witness_T_length=8, implication_checks=ALL_CHECKS_HOLD)),
    (ZnSubset.from_elements(40, [0, 1, 2, 5, 7, 9, 10, 12, 13, 16, 20, 25, 26,
                                 27, 28, 29, 30, 32, 34, 35, 38]),
     BalanceCertificate(
        n=40, size=21, eps_B=Fraction(151, 1600),
        witness_B=CyclicInterval(40, 25, 29),
        eps_PB=Fraction(151, 1600),
        witness_PB=tuple(range(14)) + tuple(range(25, 40)),
        eps_MB=Fraction(151, 1600), witness_MB=1,
        eps_E_half=0.07097753814110333, witness_E_half=38,
        eps_S=0.017488205343594698, eps_T=0.0012027343749999998,
        witness_T_length=11, implication_checks=ALL_CHECKS_HOLD)),
    (ZnSubset.empty(12), BalanceCertificate(
        n=12, size=0, eps_B=Fraction(0), witness_B=CyclicInterval.empty(12),
        eps_PB=Fraction(0), witness_PB=(),
        eps_MB=Fraction(0), witness_MB=0,
        eps_E_half=0.0, witness_E_half=1, eps_S=0.0, eps_T=0.0,
        witness_T_length=0, implication_checks=ALL_CHECKS_HOLD)),
    # kS of the full set is unbalanced when gcd(k, n) > 1, so eps_MB > 0
    (ZnSubset.full(12), BalanceCertificate(
        n=12, size=12, eps_B=Fraction(0), witness_B=CyclicInterval.empty(12),
        eps_PB=Fraction(0), witness_PB=(),
        eps_MB=Fraction(5, 72), witness_MB=6,
        eps_E_half=0.0, witness_E_half=1, eps_S=0.0, eps_T=0.0,
        witness_T_length=0, implication_checks=ALL_CHECKS_HOLD)),
    (ZnSubset.full(1), BalanceCertificate(
        n=1, size=1, eps_B=Fraction(0), witness_B=CyclicInterval.empty(1),
        eps_PB=Fraction(0), witness_PB=(),
        eps_MB=Fraction(0), witness_MB=0,
        eps_E_half=0.0, witness_E_half=0, eps_S=0.0, eps_T=0.0,
        witness_T_length=0, implication_checks=ALL_CHECKS_HOLD)),
]


@pytest.mark.parametrize("s, expected", PINNED_CERTIFICATES,
                         ids=["n16", "n40-sampled-label", "empty", "full", "n1"])
def test_certificate_is_pinned(s, expected):
    assert balance_certificate(s) == expected
