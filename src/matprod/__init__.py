"""Nonasymptotic growth and concentration bounds for products of random matrices.

The library evaluates closed-form moment, expectation, and tail bounds for
products Z_n = Y_n ... Y_1 Z_0 of independent (or adapted) random factors,
simulates such products with reproducible counter-based streams, enumerates
finite-support products exactly, and certifies every inequality empirically.
"""

from .bounds import (
    DISPLAYS,
    BoundResult,
    Condition,
    Display,
    PerturbationStats,
    ProductStats,
    ScenarioLT,
    SchattenParams,
    concentration_moment_bound,
    expectation_concentration_bound,
    expectation_growth_bound,
    growth_moment_bound,
    inverse_perturbation_stats,
    scalar_reference_bounds,
    scenario_lt_bounds,
    tail_concentration_bound,
    tail_growth_bound,
)
from .ensembles import (
    FactorEnsemble,
    FactorStats,
    ensemble_from_config,
    householder_direction,
    make_bounded_perturbation,
    make_rademacher_rank_one,
    make_random_projector_contraction,
    projected_deviation_stat,
    support_stats,
)
from .errors import (
    EnumerationInfeasibleError,
    InvalidConstructionError,
    InvalidInputError,
    InvalidParameterError,
    MatprodError,
    MissingUniformBoundsError,
    NothingToCheckError,
    UnsupportedEnsembleError,
)
from .schatten import (
    matrix_from_json,
    matrix_to_json,
    moment_norm,
    schatten_norm,
    singular_values,
    spectral_norm,
    spectral_radii,
    spectral_radius,
    stack_norms,
)
from .simulate import (
    EnumerationReport,
    MCEstimate,
    NormBiasedTwoPointHook,
    ProductSpec,
    SimulationResult,
    TailEstimate,
    clopper_pearson,
    conjugated_spec,
    enumerate_product,
    expected_product,
    simulate_product,
    spec_from_config,
    summarize_simulation,
    triangular_array_run,
)
from .streams import DEFAULT_SEED, substream, substreams
from .verify import (
    CheckReport,
    CompareRow,
    check_bound_dominance,
    check_factor_contraction,
    check_martingale_bound,
    check_number_inequality,
    check_subquadratic,
    check_uniform_smoothness,
    comparison_rows,
    default_suite,
    projected_product_stats,
)

__version__ = "0.1.0"
