"""A command loads only the modules it runs; the lazy package keeps every public name.

Each check runs in a fresh interpreter, because this test process has long
since imported every module.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import saext

SRC = str(pathlib.Path(saext.__file__).resolve().parents[1])

# what ``from saext import *`` bound when the package imported every module eagerly:
# the 60 public names and the seven submodules
STAR_NAMES = {
    "AccuracyError", "BoundState", "BoxEigenfunction", "BoxSpectrumRequest", "Bracket",
    "ConvergenceError", "DeficiencyReport", "DeuteronParams", "DeuteronSolution",
    "DiagnosticError", "EvaluationError", "ExpansionTable", "ExtensionU2", "FiniteWellLevel",
    "HalflineExtension", "IncompleteSpectrumError", "IntervalKind", "InvalidParameterError",
    "InvalidRootError", "MomentumEigenstate", "MomentumExtension", "OperatorKind",
    "ParadoxReport", "RootReport", "SaextError", "SimpleFamily", "SpectralRoot",
    "SpectrumResult", "UncertaintyReport", "WellLimitStudy", "bound_state", "char_zero",
    "classify_simple_family", "deficiency_indices", "degeneracy", "deuteron_sweep",
    "deuteron_v0", "eigenfunction", "expanded_values", "expansion_coeff",
    "expansion_coeff_quadrature", "expansion_table", "finite_well_levels", "from_matrix",
    "infinite_limit_study", "integrate", "is_parity_preserving", "is_time_reversal",
    "named_extension", "p_spectrum", "paradox_report", "parse_extension",
    "refine_root", "reflection", "solve_spectrum", "to_matrix",
    "to_physical_energy", "uncertainty_product", "verify_deficiency", "well_coefficients",
    "box_spectrum", "errors", "extensions", "halfline", "momentum", "numerics", "wells",
}
SUBMODULES = {"box_spectrum", "errors", "extensions", "halfline", "momentum", "numerics", "wells"}

# the modules a command runs; each command loads at most its own
COMMAND_MODULES = {"saext.box_spectrum", "saext.halfline", "saext.momentum", "saext.wells"}


def fresh(code: str, *argv: str):
    """Run ``code`` in a new interpreter; it prints one JSON value, which is returned."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def modules_after_command(*argv: str) -> set[str]:
    code, modules = fresh(
        "import contextlib, io, json, sys\n"
        "from saext.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = run(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(sys.modules)]))\n", *argv)
    assert code == 0
    return set(modules)


@pytest.mark.parametrize("argv, home", [
    (("reflect", "--lambda", "1", "--k", "2"), {"saext.halfline"}),
    (("bound-state", "--lambda=-1"), {"saext.halfline"}),
    (("deficiency", "--operator", "momentum", "--interval", "halfline"), set()),
    (("deuteron", "--sweep", "0,1,inf"), {"saext.halfline"}),
    (("well-limit", "--v0-list", "100,1000", "--level", "2"), {"saext.wells"}),
    (("momentum-spectrum", "--theta", "3.14159", "--range=-5:5"), {"saext.momentum"}),
    (("paradox", "--terms", "1000000"), {"saext.wells"}),
    (("spectrum", "--u", "dirichlet", "--count", "3"), {"saext.box_spectrum"}),
    (("spectrum", "--u", "psi=0.4,m=(0.5,0.5,0.5,0.5)", "--count", "5", "--include-negative"),
     {"saext.box_spectrum"}),
    (("spectrum", "--u", "quasiperiodic:1.57", "--count", "4", "--eigenfunctions",
      "--format", "csv"), {"saext.box_spectrum"}),
    (("classify", "--u", "psi=0.3,m=(0.6,0.8,0,0)"), set()),
], ids=["reflect", "bound-state", "deficiency", "deuteron", "well-limit", "momentum-spectrum",
        "paradox", "spectrum-dirichlet", "spectrum-negative", "spectrum-eigenfunctions",
        "classify"])
def test_scalar_commands_load_no_numpy(argv, home):
    loaded = modules_after_command(*argv)
    assert not loaded & {"numpy", "saext.numerics"}
    assert loaded & COMMAND_MODULES == home


# the 12 README commands, as perfbench/workloads.py's README_COMMANDS lists them
README_COMMANDS = [
    ["spectrum", "--u", "dirichlet", "--count", "3"],
    ["spectrum", "--u", "psi=0.4,m=(0.5,0.5,0.5,0.5)", "--count", "5", "--include-negative"],
    ["spectrum", "--u", "quasiperiodic:1.57", "--count", "4", "--eigenfunctions",
     "--format", "csv"],
    ["classify", "--u", "psi=0.3,m=(0.6,0.8,0,0)"],
    ["deficiency", "--operator", "momentum", "--interval", "halfline"],
    ["momentum-spectrum", "--theta", "3.14159", "--range=-5:5"],
    ["expand", "--theta", "0", "--range=-50:50", "--format", "json"],
    ["paradox", "--terms", "1000000"],
    ["deuteron", "--sweep", "0,0.1,0.2,0.5,1,2,5,10,100,inf"],
    ["well-limit", "--v0-list", "100,1000,10000", "--level", "1"],
    ["reflect", "--lambda", "1", "--k", "2"],
    ["bound-state", "--lambda=-1"],
]
NUMPY_FREE = {"spectrum", "classify", "deficiency", "momentum-spectrum", "paradox", "deuteron",
              "well-limit", "reflect", "bound-state"}


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_commands_skip_dataclasses_and_inspect(argv):
    """Value types are NamedTuples: no command pays for dataclasses (and its inspect)."""
    loaded = modules_after_command(*argv)
    assert "dataclasses" not in loaded
    if argv[0] in NUMPY_FREE:
        assert "inspect" not in loaded  # numpy imports inspect itself


def test_spectrum_loads_only_the_box():
    loaded = modules_after_command("spectrum", "--u", "dirichlet", "--count", "3")
    assert loaded & COMMAND_MODULES == {"saext.box_spectrum"}


def test_box_spectrum_imports_no_numpy():
    loaded = fresh("import json, sys, saext.box_spectrum\nprint(json.dumps(sorted(sys.modules)))")
    assert not {"numpy", "saext.numerics"} & set(loaded)


def test_scalar_quadratures_load_no_numpy():
    # integrate calls its integrand on Python floats, so these run on math and cmath alone;
    # verify_deficiency is closed form, so it loads no quadrature at all
    closed_form, loaded = fresh(
        "import json, sys\n"
        "from saext import IntervalKind, OperatorKind, verify_deficiency\n"
        "for op in OperatorKind:\n"
        "    for iv in IntervalKind:\n"
        "        verify_deficiency(op, iv, 1.0, 10.0)\n"
        "closed_form = sorted(sys.modules)\n"
        "from saext import p_spectrum, uncertainty_product, wells\n"
        "uncertainty_product(p_spectrum(1.0, (-3, 3))[0])\n"
        "wells.well_coefficient_quadrature(3)\n"
        "print(json.dumps([closed_form, sorted(sys.modules)]))")
    assert not {"numpy", "saext.numerics"} & set(closed_form)
    assert "saext.numerics" in loaded and "numpy" not in loaded


def test_import_saext_loads_no_submodule():
    loaded = fresh("import json, sys, saext\nprint(json.dumps(sorted(sys.modules)))")
    assert not [name for name in loaded if name.startswith("saext.") or name == "numpy"]


def test_star_import_binds_the_eager_name_set():
    names = fresh("import json\nnamespace = {}\nexec('from saext import *', namespace)\n"
                  "print(json.dumps(sorted(set(namespace) - {'__builtins__'})))")
    assert set(names) == STAR_NAMES
    assert set(saext.__all__) == STAR_NAMES


def test_public_names_are_their_home_module_objects():
    for name in saext.__all__:
        value = getattr(saext, name)
        if name in SUBMODULES:
            assert value is sys.modules[f"saext.{name}"]
        else:
            home = sys.modules[f"saext.{saext._HOME[name]}"]
            assert value is getattr(home, name), name


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        saext.no_such_name  # noqa: B018
