"""Desk-scale toolkit for concave operators, their semigroups, and shift models.

The package turns a handful of operator-theoretic constructions into small,
checkable computations:

* Cayley cogenerators of matrix semigroups and growth bounds (``semigroup``);
* concavity / 2-isometry / 2-contraction classification with explicit
  margins (``classify``);
* analytic (reproducing-kernel) models of pure bounded-below shifts,
  their kernels, and the multiplier semigroup of the coordinate shift
  (``shimorin``);
* Wold-type splittings into unitary and wandering parts (``shimorin``);
* Blaschke products, inner symbols, model-space ladders, and
  surjectivity-plus-kernel certificates on truncations (``hardy``);
* an acceptance suite that pins every check to a tolerance (``acceptance``).

All numerics are numpy-based and deterministic; every report carries the
residuals behind its verdicts.
"""

from .config import DEFAULT_TOL, Check, ToleranceConfig
from .errors import (
    AmbientMismatch,
    NonFinite,
    NotConcave,
    OneInSpectrum,
    OutsideDisc,
    SymbolSingularAtOrigin,
    TailNotConvergent,
    ToolkitError,
    TruncationTooSmall,
    UnsupportedRegime,
    ZeroConstantTerm,
    ZeroOnBoundary,
)
from .numkit import ComplexMatrix, hermitian_max_eig, spectral_radius
from .operators import (
    Dense,
    DirectSum,
    DirichletWeights,
    EventuallyConstantWeights,
    FiniteSupportVector,
    Shift,
    StructuredOperator,
    dirichlet_shift,
    isometric_shift,
    to_dense_matrix,
)
from .classify import (
    ClassificationReport,
    classify_operator,
    concave_power_growth_check,
)
from .semigroup import (
    EquivalenceSuiteReport,
    GrowthBound,
    SemigroupSpec,
    cogenerator,
    concavity_equivalence_suite,
    evolve,
    growth_bound,
    growth_bound_consistency,
    inverse_cayley,
    quasicontractive_rescale,
)
from .series import (
    PowerSeries,
    series_add,
    series_eval,
    series_exp,
    series_inv,
    series_mul,
    series_scale,
)
from .shimorin import (
    MULTIPLIER_SIGN_NOTE,
    RADIUS_CONVENTION_NOTE,
    AnalyticModel,
    IntertwiningReport,
    ModelCoefficients,
    ReproducingReport,
    SemigroupModelReport,
    WoldReport,
    build_model,
    cauchy_dual,
    coefficients,
    defect_projection,
    kernel_eval,
    left_inverse_apply,
    semigroup_multiplier,
    verify_intertwining,
    verify_reproducing,
    verify_semigroup_model,
    wold_decompose,
)
from .hardy import (
    BlaschkeSeries,
    BlaschkeSpec,
    CaradusReport,
    InnerCheckReport,
    LadderReport,
    ToeplitzTrunc,
    analytic_toeplitz_trunc,
    blaschke_eval,
    blaschke_series,
    block_backward_shift_trunc,
    block_forward_shift_trunc,
    caradus_certificate,
    inner_check,
    inner_semigroup_symbol,
    model_space_basis,
    verify_ladder_decomposition,
)

__version__ = "0.1.0"
