"""Gibbs-posterior inference for the Levy density of a discretely sampled Levy process.

Pipeline: simulate increments (`processes`), expand the density in an
orthonormal system on a window (`basis`), estimate coefficients and risks
(`estimator`), sample the hierarchical Gibbs posterior over (K, theta)
(`posterior`), and run seeded end-to-end studies (`experiment`).  The
`levy-gibbs` console script exposes the same steps as subcommands.
"""

from .basis import (
    BasisFeatures,
    BasisSystem,
    CoefficientVector,
    Window,
    gram_matrix,
    project_density,
    quadrature_rule,
    synthesize,
)
from .errors import (
    BasisIndexError,
    DimensionError,
    DomainError,
    EmptyDrawsError,
    InputParseError,
    IntegrationError,
    LevyGibbsError,
    ParameterError,
    RangeError,
    ResourceGuardError,
    WindowError,
)
from .estimator import (
    empirical_coefficients,
    empirical_risk,
    l2_error_on_D,
)
from .experiment import (
    DEFAULT_VG_PARAMS,
    DeltaDiagnostics,
    ExperimentReport,
    NoOverfitRow,
    RateRow,
    RegimeSpec,
    contraction_rate,
    delta_condition,
    no_overfit_diagnostic,
    oracle_dimension,
    rate_table,
    run_regime,
    write_band_csv,
    write_errors_csv,
    write_k_posterior_csv,
    write_report_json,
)
from .posterior import (
    BandResult,
    ConditionalPosterior,
    ConfigDiagnostics,
    GibbsConfig,
    MarginalK,
    PosteriorDraws,
    concentration_probability,
    conditional_posterior,
    credible_band,
    marginal_k,
    posterior_mean_function,
    sample_posterior,
    validate_config,
)
from .processes import (
    BLOCK,
    CompoundPoissonParams,
    IncrementSeries,
    JumpDistribution,
    SamplingScheme,
    TrueLevyDensity,
    VarianceGammaParams,
    read_increments,
    simulate,
    write_increments,
)
from .util import derive_seed, snap_ceil

__version__ = "0.1.0"
