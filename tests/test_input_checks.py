"""Input checks of the library that no other test reaches, and the edge
cases of the small value types."""

import numpy as np
import pytest

from quasiperm import balance, construct, core, patterns, permdisc, symmetry
from quasiperm.cli import dispatch
from quasiperm.core import CyclicInterval, InputError, Permutation, ZnSubset, parse_set

SIGMA = Permutation((2, 0, 3, 1))
WHOLE = CyclicInterval.full(4)

BAD_INPUTS = {
    "interval modulus": (lambda: CyclicInterval(0, 0, 0), "modulus must be positive"),
    "subset modulus": (lambda: ZnSubset(0, frozenset()), "modulus must be positive"),
    "subset member": (lambda: ZnSubset(5, frozenset({5})), "element 5 not a residue mod 5"),
    "empty permutation": (lambda: Permutation(()), "permutation must be nonempty"),
    "set modulus not an integer": (lambda: parse_set("x: 1"), "modulus 'x' is not an integer"),
    "set modulus zero": (lambda: parse_set("0: "), "modulus must be positive"),
    "set token": (lambda: parse_set("5: 1 y"), "token 'y' at index 1 is not an integer"),
    "power 0": (lambda: construct.tensor_power(SIGMA, 0), "power must be >= 1"),
    "no factors": (lambda: construct.tensor_product([]), "need at least one factor"),
    "digit base 1": (lambda: construct.digit_reversal(1, 3), "need base >= 2 and digits >= 1"),
    "no digits": (lambda: construct.digit_reversal(2, 0), "need base >= 2 and digits >= 1"),
    "no sizes": (lambda: construct.product_bound([]), "need at least one size"),
    "factor size 1": (lambda: construct.product_bound([1, 3]), "factor sizes must be >= 2"),
    "schmidt size 0": (lambda: construct.schmidt_floor(0), "size must be positive"),
    "shift half 0": (lambda: construct.shift_counterexample(0), "half-size must be >= 1"),
    "random size 0": (lambda: construct.random_permutation(0, 1), "size must be positive"),
    "inversions size 0": (lambda: construct.inversion_distribution(0), "size must be in 1..200"),
    "inversions size 201": (lambda: construct.inversion_distribution(201),
                            "size must be in 1..200"),
    "no trials": (lambda: construct.mc_discrepancy_stats(8, 0, 1), "need at least one trial"),
    "profile order above size": (lambda: patterns.profile(SIGMA, 5),
                                 "order 5 exceeds host size 4"),
    "profile order 7": (
        lambda: patterns.profile(Permutation.identity(7), 7),
        "order 7 beyond supported maximum 6"),
    "matrix order 0": (
        lambda: patterns.build_pattern_matrices(0),
        "order 0 outside supported range 1..5"),
    "matrix order 6": (
        lambda: patterns.build_pattern_matrices(6),
        "order 6 outside supported range 1..5"),
    "discrepancy in across moduli": (
        lambda: core.scaled_discrepancy_in(ZnSubset.empty(4), ZnSubset.empty(5)),
        "moduli differ: 4 vs 5"),
    "translation across moduli": (
        lambda: balance.translation_statistic(ZnSubset.empty(4), CyclicInterval(5, 0, 1)),
        "moduli differ: 4 vs 5"),
    "spectrum length above n": (
        lambda: balance.interval_spectrum_magnitudes(4, 5),
        "length 5 outside [0, 4]"),
    "pair across moduli, I": (
        lambda: permdisc.discrepancy_of_pair(SIGMA, CyclicInterval(5, 0, 2), WHOLE),
        "moduli differ: 5 vs 4"),
    "pair across moduli, J": (
        lambda: permdisc.discrepancy_of_pair(SIGMA, WHOLE, CyclicInterval(5, 0, 2)),
        "moduli differ: 5 vs 4"),
    "separability across moduli": (
        lambda: permdisc.separability_statistic(SIGMA, WHOLE, WHOLE, WHOLE,
                                                CyclicInterval(5, 0, 2)),
        "moduli differ: 5 vs 4"),
    "window pattern of order 1": (
        lambda: permdisc.windowed_pattern_deviation(SIGMA, Permutation((0,)), WHOLE, WHOLE),
        "pattern order must be at least 2"),
    "divisibility m above n": (lambda: symmetry.divisibility_D(3, 4), "need m <= n"),
    "h order 1": (lambda: symmetry.h(1), "supported orders are 2..8"),
    "h order 9": (lambda: symmetry.h(9), "supported orders are 2..8"),
    "symmetry order 1": (lambda: symmetry.is_perfect_m_symmetric(SIGMA, 1), "need 2 <= m <= n"),
}


@pytest.mark.parametrize("call, fragment", BAD_INPUTS.values(), ids=BAD_INPUTS)
def test_bad_input_raises(call, fragment):
    with pytest.raises(InputError) as info:
        call()
    assert fragment in str(info.value)


def test_pattern_of_another_order_is_invalid_input(capsys, tmp_path):
    perm = tmp_path / "perm.txt"
    perm.write_text("3 6 0 7 2 5 1 4\n")
    assert dispatch(["pattern-count", "--perm", str(perm), "--m", "3",
                     "--pattern", "0 1"]) == 2
    assert "pattern has order 2, expected 3" in capsys.readouterr().err


def test_edge_values_of_the_small_types():
    assert len(CyclicInterval(7, 5, 4)) == 4
    assert CyclicInterval.full(5).complement() == CyclicInterval.empty(5)
    s = ZnSubset(5, frozenset({2}))
    assert 7 in s and 8 not in s  # membership is mod n
    assert patterns.top_eigenvalue(np.zeros((3, 3))) == 0.0
