"""Exact discrepancy, pattern balance, and symmetry tools for Z_n."""

from .core import (
    CyclicInterval,
    DegenerateIntervalError,
    ModulusMismatchError,
    ParseError,
    Permutation,
    ZnMultiset,
    ZnSubset,
    classify_interval,
    components,
    image_of_interval,
    parse_permutation,
    parse_set,
    serialize_permutation,
    serialize_set,
    sym_abs,
)
from .balance import (
    BalanceCertificate,
    FourierSpectrum,
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
from .patterns import (
    ConvergenceError,
    PatternMatrix,
    ProfileVector,
    build_pattern_matrices,
    circ,
    count_pattern,
    lex_first_container,
    occurrence_graph_connected,
    pattern_index,
    patterns_of_order,
    profile,
    rank_of_B,
    standardize,
    top_eigenvalue,
)
from .permdisc import (
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
from .construct import (
    InversionDistribution,
    ProductOverflowError,
    digit_reversal,
    inversion_distribution,
    mc_discrepancy_stats,
    product_bound,
    random_permutation,
    schmidt_floor,
    shift_counterexample,
    tensor,
    tensor_power,
    tensor_product,
)
from .symmetry import (
    SearchBudgetRequired,
    SymmetrySearchResult,
    divisibility_D,
    h,
    is_perfect_m_symmetric,
    search_perfect,
)

__version__ = "0.1.0"
