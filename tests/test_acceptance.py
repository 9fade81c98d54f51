"""Acceptance gate: twelve criteria, one printed verdict line each.

Verdict lines bypass pytest capture so they always reach the terminal.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from quasiperm.balance import (
    balance_certificate,
    fourier_spectrum,
    interval_spectrum_magnitudes,
    max_interval_discrepancy,
    multiple_discrepancy,
    sum_statistic,
    translation_statistic,
)
from quasiperm.core import CyclicInterval, Permutation, ZnSubset, sym_abs
from quasiperm.construct import (
    digit_reversal,
    inversion_distribution,
    mc_discrepancy_stats,
    random_permutation,
    schmidt_floor,
    shift_counterexample,
    tensor_power,
    tensor_product,
    product_bound,
)
from quasiperm.patterns import (
    build_pattern_matrices,
    circ,
    count_pattern,
    lex_first_container,
    occurrence_graph_connected,
    patterns_of_order,
    profile,
    rank_of_B,
    top_eigenvalue,
)
from quasiperm.permdisc import perm_discrepancy, windowed_pattern_deviation
from quasiperm.symmetry import h, search_perfect

from oracles import (
    brute_interval_max,
    brute_perm_discrepancy,
    translation_statistic_direct,
)


import pytest

_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_verdicts(capsys):
    global _CAPTURE
    _CAPTURE = capsys
    yield
    _CAPTURE = None


def verdict(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def random_subset(n, rng):
    return ZnSubset(n, frozenset(x for x in range(n) if rng.random() < 0.5))


def test_criterion_01_perfect_symmetry_search():
    start = time.monotonic()
    r4 = search_perfect(4, 2)
    ok = Permutation((3, 0, 1, 2)) in r4.found
    r9 = search_perfect(9, 3)
    elapsed = time.monotonic() - start
    found = {"".join(map(str, p.images)) for p in r9.found}
    ok = ok and found == {"650147832", "238741056"} and r9.exhaustive
    ok = ok and elapsed < 120
    verdict(1, ok, f"n=9 search found {sorted(found)} in {elapsed:.1f}s")


def test_criterion_02_h_table():
    table = {m: h(m) for m in (2, 3, 4, 5)}
    ok = table == {2: 4, 3: 9, 4: 64, 5: 128}
    verdict(2, ok, f"h = {table}")


def test_criterion_03_matrix_facts():
    ok = True
    notes = []
    for m in (1, 2, 3, 4):
        mats = build_pattern_matrices(m)
        ok &= set(mats.B.sum(axis=0).tolist()) == {m + 1}
        ok &= set(mats.B.sum(axis=1).tolist()) == {(m + 1) ** 2}
        ok &= set(mats.A.sum(axis=1).tolist()) == {(m + 1) ** 3}
        lam = top_eigenvalue(mats.A)
        ok &= abs(lam - (m + 1) ** 3) <= 1e-8 * (m + 1) ** 3
        ok &= rank_of_B(m) == math.factorial(m)
        ok &= occurrence_graph_connected(m)
        notes.append(f"m={m} lam={lam:.6f}")
    verdict(3, ok, "; ".join(notes))


def test_criterion_04_transfer_identity_and_down_inequality():
    rng = random.Random(101)
    ok = True
    for n, m in ((10, 2), (12, 3), (14, 3)):
        b = build_pattern_matrices(m).B.astype(object)
        for _ in range(100):
            sigma = random_permutation(n, rng.randrange(10 ** 9))
            vm = profile(sigma, m)
            vm1 = profile(sigma, m + 1)
            lhs = [(n - m) * c for c in vm.counts]
            rhs = (b @ np.array(vm1.counts, dtype=object)).tolist()
            ok &= lhs == rhs
            # |centered v_m|^2 <= (m+1)^3/(n-m)^2 |centered v_{m+1}|^2
            ok &= (vm.centered_norm_sq()
                   <= Fraction((m + 1) ** 3, (n - m) ** 2) * vm1.centered_norm_sq())
    verdict(4, ok, "exact transfer identity and down-inequality on 300 draws")


def test_criterion_05_lex_first_container():
    ok = True
    for m in (1, 2, 3, 4):
        for tau in patterns_of_order(m):
            first = lex_first_container(tau)
            ok &= first == circ(tau)
            ok &= count_pattern(first, tau) >= 1
    verdict(5, ok, "first lex container equals the circ extension for all m <= 4")


def test_criterion_06_product_bounds():
    rng = random.Random(103)
    ok = True
    worst = 0.0
    for k in range(1, 5):
        for sizes in itertools.product((2, 3, 4), repeat=k):
            bound = product_bound(sizes)
            big = math.prod(sizes)
            for _ in range(2):
                factors = [random_permutation(s, rng.randrange(10 ** 9))
                           for s in sizes]
                scaled = perm_discrepancy(tensor_product(factors)).scaled_D
                ok &= scaled <= bound * big
                worst = max(worst, scaled / (bound * big))
    for key in range(1, 11):
        sigma = digit_reversal(2, key)
        d = perm_discrepancy(sigma).scaled_D / sigma.n
        ok &= d <= 2 * key * 2
    for base in range(2, 6):
        for key in range(1, 6):
            ok &= (digit_reversal(base, key).images
                   == tensor_power(Permutation.identity(base), key).images)
    verdict(6, ok, f"all products within bound (worst ratio {worst:.3f}); "
                   "digit reversal = identity power")


def test_criterion_07_discrepancy_oracles():
    ok = True
    for n in (2, 3, 4, 5, 6):
        for images in itertools.permutations(range(n)):
            sigma = Permutation(images)
            ok &= perm_discrepancy(sigma).scaled_D == brute_perm_discrepancy(sigma)
    rng = random.Random(107)
    for n in (16, 32, 64):
        for _ in range(100):
            sigma = random_permutation(n, rng.randrange(10 ** 9))
            ok &= perm_discrepancy(sigma).scaled_D == brute_perm_discrepancy(sigma)
    for n in (16, 64, 256):
        for _ in range(100):
            s = random_subset(n, rng)
            ok &= max_interval_discrepancy(s)[0] == brute_interval_max(s)
    verdict(7, ok, "fast paths equal brute force on 873 exhaustive and 600 random cases")


def test_criterion_08_balance_inequality_suite():
    rng = random.Random(109)
    ok = True
    for n in (64, 256):
        for _ in range(100):
            s = random_subset(n, rng)
            if s.size in (0, n):
                continue
            cert = balance_certificate(s)
            # multiple balance from piecewise balance
            for k in range(1, n):
                ok &= (Fraction(multiple_discrepancy(s, k))
                       <= 2 * cert.eps_PB * n * n * sym_abs(k, n))
            # coefficient bound from multiple balance; it needs
            # eps_MB <= pi/8, which always holds (eps_MB <= 9/32)
            mags = np.abs(fourier_spectrum(s))
            for k in range(1, n):
                bound = n * math.sqrt(18 * math.pi * float(cert.eps_MB)
                                      * sym_abs(k, n))
                ok &= mags[k] <= bound + 1e-9
            # translation dominated by the sum statistic, every length
            cap = (n / 4) * sum_statistic(s)
            for length in range(1, n + 1):
                j = CyclicInterval(n, 0, length)
                ok &= translation_statistic(s, j) <= cap + 1e-9
            # direct and spectral translation paths agree
            for _ in range(3):
                j = CyclicInterval(n, rng.randrange(n), rng.randint(1, n))
                a = translation_statistic_direct(s, j)
                b = translation_statistic(s, j)
                ok &= abs(a - b) <= 1e-6 * max(1.0, abs(a))
    # interval spectrum bound, exhaustive for n <= 64
    for n in range(2, 65):
        for length in range(1, n):
            mags = interval_spectrum_magnitudes(n, length)
            for k in range(1, n):
                ok &= mags[k] <= n / (2 * sym_abs(k, n)) + 1e-9
    verdict(8, ok, "balance inequalities hold on 200 random sets at n in {64, 256}")


def test_criterion_09_shift_counterexample():
    ok = True
    for half in range(2, 65):
        sigma = shift_counterexample(half)
        ok &= count_pattern(sigma, Permutation((0, 2, 1))) == 0
        diff = abs(count_pattern(sigma, Permutation((0, 1)))
                   - count_pattern(sigma, Permutation((1, 0))))
        ok &= diff == half
    verdict(9, ok, "shift permutation omits 021 and |X01 - X10| = n for n <= 64")


def test_criterion_10_inversion_distribution():
    ok = True
    for n in range(1, 9):
        counts = [0] * (n * (n - 1) // 2 + 1)
        for images in itertools.permutations(range(n)):
            inv = sum(1 for i in range(n) for j in range(i + 1, n)
                      if images[i] > images[j])
            counts[inv] += 1
        ok &= inversion_distribution(n).counts == tuple(counts)
    for n in range(2, 51):
        c = inversion_distribution(n).counts
        ok &= c == c[::-1]
        mid = len(c) // 2
        ok &= all(c[i] <= c[i + 1] for i in range(mid))
    ratio = float(inversion_distribution(100).variance / Fraction(100 ** 3, 36))
    ok &= 0.9 <= ratio <= 1.1
    verdict(10, ok, f"counts exact to n=8, symmetric unimodal to n=50, "
                    f"variance ratio {ratio:.4f}")


def test_criterion_11_random_scaling():
    ok = True
    medians = {}
    for n in (64, 128, 256):
        stats = mc_discrepancy_stats(n, trials=50, seed=2026)
        ok &= stats.max_ratio <= 3
        medians[n] = stats.median_ratio
        floor = schmidt_floor(n)
        ok &= all(v / n > floor for v in stats.scaled_values)
    ok &= medians[256] <= 1.1 * medians[64]
    verdict(11, ok, f"median ratios {medians[64]:.3f} -> {medians[256]:.3f}, "
                    f"all below 3")


def test_criterion_12_windowed_deviation_of_symmetric_perms():
    full4 = CyclicInterval.full(4)
    full9 = CyclicInterval.full(9)
    dev2 = windowed_pattern_deviation(Permutation((3, 0, 1, 2)),
                                      Permutation((0, 1)), full4, full4)
    dev3 = windowed_pattern_deviation(Permutation((6, 5, 0, 1, 4, 7, 8, 3, 2)),
                                      Permutation((0, 1, 2)), full9, full9)
    ok = dev2 == 0 and dev3 == 0
    verdict(12, ok, f"full-window deviations {dev2} and {dev3}")
