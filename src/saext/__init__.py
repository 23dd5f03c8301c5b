"""saext: spectra and observables for self-adjoint boundary conditions.

Covers the momentum operator -iD and the Hamiltonian -D^2 on the line, the
half line, and a finite box: deficiency-index classification, the U(2)
family of box boundary conditions with full spectra and eigenfunctions, the
momentum-phase expansions, the half-line reflection/bound-state/deuteron
model, and the infinite-well paradox with its finite-well resolution.

The public names resolve on first use (PEP 562): ``import saext`` loads no
submodule, and ``saext.reflection`` loads only ``halfline`` and what it
imports.
"""

import importlib

_EXPORTS = {
    "box_spectrum": (
        "BoxEigenfunction", "BoxSpectrumRequest", "SpectralRoot", "SpectrumResult",
        "char_zero", "degeneracy", "eigenfunction", "expanded_values", "solve_spectrum",
        "to_physical_energy",
    ),
    "errors": (
        "AccuracyError", "ConvergenceError", "DiagnosticError", "EvaluationError",
        "IncompleteSpectrumError", "InvalidParameterError", "InvalidRootError", "SaextError",
    ),
    "extensions": (
        "DeficiencyReport", "ExtensionU2", "HalflineExtension", "IntervalKind",
        "MomentumExtension", "OperatorKind", "SimpleFamily", "classify_simple_family",
        "deficiency_indices", "from_matrix", "is_parity_preserving", "is_time_reversal",
        "named_extension", "parse_extension", "to_matrix", "verify_deficiency",
    ),
    "halfline": (
        "BoundState", "DeuteronParams", "DeuteronSolution", "bound_state", "deuteron_sweep",
        "deuteron_v0", "reflection",
    ),
    "momentum": (
        "ExpansionTable", "MomentumEigenstate", "UncertaintyReport", "expansion_coeff",
        "expansion_coeff_quadrature", "expansion_table", "p_spectrum", "uncertainty_product",
    ),
    "numerics": ("Bracket", "RootReport", "integrate", "refine_root"),
    "wells": (
        "FiniteWellLevel", "ParadoxReport", "WellLimitStudy", "finite_well_levels",
        "infinite_limit_study", "paradox_report", "well_coefficients",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

# the public names, then the submodules, which a star import also bound when
# this package imported every module eagerly
__all__ = [*_HOME, *_EXPORTS]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
