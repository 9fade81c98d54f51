"""The package namespace: every exported name, served lazily from its module."""

import importlib

import pytest

import quasiperm

from fresh import run_fresh

# Every public name of the package, by the module it comes from.
EXPORTS = {
    "core": {
        "CyclicInterval", "InputError", "Permutation", "ZnSubset", "classify_interval",
        "components", "image_of_interval", "parse_permutation", "parse_set",
        "serialize_permutation", "serialize_set", "sym_abs",
    },
    "balance": {
        "BalanceCertificate", "balance_certificate",
        "eigenvalue_bound_profile", "fourier_spectrum", "interval_spectrum_magnitudes",
        "max_interval_discrepancy", "multiple_discrepancy", "scaled_discrepancy_in",
        "sum_statistic", "translation_statistic",
    },
    "patterns": {
        "ConvergenceError", "PatternMatrix", "ProfileVector", "build_pattern_matrices",
        "circ", "count_pattern", "lex_first_container", "occurrence_graph_connected",
        "pattern_index", "patterns_of_order", "profile", "rank_of_B", "standardize",
        "top_eigenvalue",
    },
    "permdisc": {
        "PermDiscrepancyReport", "discrepancy_of_pair", "exclusion_lower_bound",
        "perm_discrepancy", "restricted_discrepancies",
        "sampled_discrepancy_lower_bound", "separability_statistic",
        "two_pattern_balance", "windowed_pattern_count", "windowed_pattern_deviation",
    },
    "construct": {
        "InversionDistribution", "digit_reversal",
        "inversion_distribution", "mc_discrepancy_stats", "product_bound",
        "random_permutation", "schmidt_floor", "shift_counterexample", "tensor",
        "tensor_power", "tensor_product",
    },
    "symmetry": {
        "SymmetrySearchResult", "divisibility_D", "h",
        "is_perfect_m_symmetric", "search_perfect",
    },
}
ALL_NAMES = set().union(*EXPORTS.values())


def test_all_lists_exactly_the_exported_names():
    assert len(quasiperm.__all__) == len(set(quasiperm.__all__))
    assert set(quasiperm.__all__) == ALL_NAMES


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_submodule_object(module):
    mod = importlib.import_module(f"quasiperm.{module}")
    assert getattr(quasiperm, module) is mod
    for name in EXPORTS[module]:
        assert getattr(quasiperm, name) is getattr(mod, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from quasiperm import *", namespace)
    assert ALL_NAMES <= set(namespace)
    assert all(namespace[name] is getattr(quasiperm, name) for name in ALL_NAMES)


def test_dir_lists_every_name():
    assert ALL_NAMES | set(EXPORTS) <= set(dir(quasiperm))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        quasiperm.no_such_name
    assert not hasattr(quasiperm, "image_of_subset")


def test_import_is_lazy_and_names_are_cached_on_first_use():
    script = ("import sys\n"
              "import quasiperm\n"
              "loaded = sorted(m for m in sys.modules if m.startswith('quasiperm.'))\n"
              "assert loaded == [] and 'numpy' not in sys.modules, loaded\n"
              "assert 'profile' not in vars(quasiperm)\n"
              "profile = quasiperm.profile\n"
              "assert vars(quasiperm)['profile'] is profile\n"
              "assert 'numpy' not in sys.modules\n"
              "quasiperm.perm_discrepancy\n"
              "assert 'numpy' not in sys.modules\n"
              "quasiperm.balance_certificate\n"
              "assert 'numpy' in sys.modules\n")
    proc = run_fresh(script)
    assert proc.returncode == 0, proc.stderr
