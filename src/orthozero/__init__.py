"""Expected real zeros of random orthogonal polynomials for exponential
weights: recurrence tables, Kac-type zero densities, equilibrium measures,
and seeded Monte Carlo verification of the limit laws."""

from .errors import (
    BracketError,
    BudgetError,
    DegenerateInputError,
    DegenerateSampleError,
    DiscretizationError,
    DomainError,
    NonEvenWeightError,
    SingularityError,
)
from .kac import (
    ZeroDensityProfile,
    expected_zeros,
    expected_zeros_full,
    expected_zeros_monomial,
    kac_density,
    monomial_density,
    scaled_expected_zeros,
)
from .montecarlo import (
    CoeffDist,
    CountResult,
    EmpiricalMeasure,
    McResult,
    all_zeros,
    comrade_matrix,
    count_real_zeros,
    eigen_measures,
    empirical_measure,
    ks_to_ullman,
    make_count_grid,
    mc_expected_zeros,
    parse_dist,
    sample_coeffs,
)
from .orthopoly import (
    RecurrenceTable,
    build_recurrence,
    get_table,
    kernel_triple_many,
    load_table,
    poly_matrix,
    save_table,
    universality_ratios,
)
from .scaling import (
    DensityCurve,
    ScalingInfo,
    equilibrium_density_many,
    freud_constants,
    normalized_density_many,
    sigma_curve,
    sigma_star_curve,
    solve_mrs,
    ullman_cdf,
    ullman_cdf_many,
    ullman_density,
    ullman_density_alt,
)
from .weights import (
    ClassReport,
    WeightSpec,
    eval_T,
    make_custom,
    make_freud,
    parse_weight,
    validate_class,
)

__version__ = "0.1.0"
