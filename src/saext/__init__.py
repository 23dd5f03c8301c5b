"""saext: spectra and observables for self-adjoint boundary conditions.

Covers the momentum operator -iD and the Hamiltonian -D^2 on the line, the
half line, and a finite box: deficiency-index classification, the U(2)
family of box boundary conditions with full spectra and eigenfunctions, the
momentum-phase expansions, the half-line reflection/bound-state/deuteron
model, and the infinite-well paradox with its finite-well resolution.
"""

from .box_spectrum import (
    BoxEigenfunction,
    BoxSpectrumRequest,
    SpectralRoot,
    SpectrumResult,
    boundary_form,
    char_negative,
    char_positive,
    char_zero,
    degeneracy,
    eigenfunction,
    expanded_values,
    lm_matrices,
    solve_spectrum,
    to_physical_energy,
)
from .errors import (
    AccuracyError,
    ConvergenceError,
    DiagnosticError,
    EvaluationError,
    IncompleteSpectrumError,
    InvalidParameterError,
    InvalidRootError,
    ModelInconsistencyError,
    SaextError,
)
from .extensions import (
    DeficiencyReport,
    ExtensionU2,
    HalflineExtension,
    IntervalKind,
    MomentumExtension,
    OperatorKind,
    SimpleFamily,
    classify_simple_family,
    deficiency_indices,
    from_matrix,
    is_parity_preserving,
    is_time_reversal,
    named_extension,
    parse_extension,
    to_matrix,
    verify_deficiency,
)
from .halfline import (
    BoundState,
    DeuteronParams,
    DeuteronSolution,
    alpha_to_lambda,
    bound_state,
    deuteron_sweep,
    deuteron_v0,
    lambda_to_alpha,
    reflection,
)
from .momentum import (
    ExpansionTable,
    MomentumEigenstate,
    UncertaintyReport,
    expansion_coeff,
    expansion_coeff_quadrature,
    expansion_table,
    p_spectrum,
    uncertainty_product,
)
from .numerics import (
    Bracket,
    RootReport,
    integrate,
    refine_root,
    scan_brackets,
)
from .wells import (
    FiniteWellLevel,
    ParadoxReport,
    WellLimitStudy,
    finite_well_levels,
    infinite_limit_study,
    paradox_report,
    well_coefficients,
)

__version__ = "0.1.0"
