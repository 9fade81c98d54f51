"""Exact discrepancy, pattern balance, and symmetry tools for Z_n.

Names are served from their submodules on first use (PEP 562), so
``import quasiperm`` loads no submodule and numpy is imported only by the
code that computes with it.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "CyclicInterval",
        "InputError",
        "Permutation",
        "ZnSubset",
        "classify_interval",
        "components",
        "image_of_interval",
        "parse_permutation",
        "parse_set",
        "scaled_discrepancy_in",
        "serialize_permutation",
        "serialize_set",
        "sym_abs",
    ),
    "balance": (
        "BalanceCertificate",
        "balance_certificate",
        "eigenvalue_bound_profile",
        "fourier_spectrum",
        "interval_spectrum_magnitudes",
        "max_interval_discrepancy",
        "multiple_discrepancy",
        "sum_statistic",
        "translation_statistic",
    ),
    "patterns": (
        "ConvergenceError",
        "PatternMatrix",
        "ProfileVector",
        "build_pattern_matrices",
        "circ",
        "count_pattern",
        "lex_first_container",
        "occurrence_graph_connected",
        "pattern_index",
        "patterns_of_order",
        "profile",
        "rank_of_B",
        "standardize",
        "top_eigenvalue",
    ),
    "permdisc": (
        "PermDiscrepancyReport",
        "discrepancy_of_pair",
        "exclusion_lower_bound",
        "perm_discrepancy",
        "restricted_discrepancies",
        "sampled_discrepancy_lower_bound",
        "separability_statistic",
        "two_pattern_balance",
        "windowed_pattern_count",
        "windowed_pattern_deviation",
    ),
    "construct": (
        "InversionDistribution",
        "digit_reversal",
        "inversion_distribution",
        "mc_discrepancy_stats",
        "product_bound",
        "random_permutation",
        "schmidt_floor",
        "shift_counterexample",
        "tensor",
        "tensor_power",
        "tensor_product",
    ),
    "symmetry": (
        "SymmetrySearchResult",
        "divisibility_D",
        "h",
        "is_perfect_m_symmetric",
        "search_perfect",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    # Submodules are served too, so quasiperm.construct works without an import.
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
