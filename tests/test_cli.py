import csv
import io
import json
import math

import pytest

from saext.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestSpectrumCommand:
    def test_dirichlet_energies(self, capsys):
        code, out, _ = invoke(capsys, "spectrum", "--u", "dirichlet", "--count", "3",
                              "--format", "csv")
        assert code == 0
        rows = read_csv(out)
        values = [float(r["value"]) for r in rows]
        expected = [math.pi ** 2, 4 * math.pi ** 2, 9 * math.pi ** 2]
        assert all(abs(a - b) < 1e-6 for a, b in zip(values, expected))

    def test_periodic_with_zero_mode(self, capsys):
        code, out, _ = invoke(capsys, "spectrum", "--u", "periodic", "--count", "2",
                              "--include-negative", "--format", "csv")
        rows = read_csv(out)
        assert rows[0]["sector"] == "zero"
        assert all(r["sector"] != "negative" for r in rows)
        assert int(rows[1]["multiplicity"]) == 2

    def test_eigenfunction_columns(self, capsys):
        code, out, _ = invoke(capsys, "spectrum", "--u", "dirichlet", "--count", "1",
                              "--eigenfunctions", "--format", "csv")
        (row,) = read_csv(out)
        a = complex(float(row["re_a"]), float(row["im_a"]))
        b = complex(float(row["re_b"]), float(row["im_b"]))
        assert abs(a + b) < 1e-9          # Dirichlet: A = -B
        assert row["re_a2"] == ""

    def test_raw_extension_syntax(self, capsys):
        code, out, _ = invoke(capsys, "spectrum", "--u", "psi=0,m=(1,0,0,0)",
                              "--count", "1", "--format", "csv")
        (row,) = read_csv(out)
        assert abs(float(row["value"]) - math.pi ** 2) < 1e-6

    def test_bad_extension_is_usage_error(self, capsys):
        code, _, err = invoke(capsys, "spectrum", "--u", "garbage")
        assert code == 2
        assert "--u" in err

    def test_exhausted_scan_is_numerical_failure(self, capsys):
        code, _, err = invoke(capsys, "spectrum", "--u", "dirichlet", "--count", "50",
                              "--s-max", "10")
        assert code == 3
        assert "numerical failure" in err


class TestDeficiencyCommand:
    def test_momentum_halfline(self, capsys):
        code, out, _ = invoke(capsys, "deficiency", "--operator", "momentum",
                              "--interval", "halfline")
        assert code == 0
        assert "(1,0): no self-adjoint extension" in out

    def test_csv_quotes_summary(self, capsys):
        _, out, _ = invoke(capsys, "--format", "csv", "deficiency",
                           "--operator", "hamiltonian", "--interval", "box")
        assert '"(2,2): U(2) family (4 real parameters)"' in out


class TestClassifyCommand:
    def test_flags(self, capsys):
        code, out, _ = invoke(capsys, "classify", "--u", "psi=0.3,m=(0.6,0.8,0,0)",
                              "--format", "csv")
        (row,) = read_csv(out)
        assert row["time_reversal"] == "true"
        assert row["parity_preserving"] == "true"
        assert row["simple_family"] == "generic"


class TestMomentumCommands:
    def test_spectrum_rows(self, capsys):
        code, out, _ = invoke(capsys, "momentum-spectrum", "--theta", "3.14159",
                              "--range=-2:2", "--format", "csv")
        rows = read_csv(out)
        assert len(rows) == 5
        assert all("eigenvalue" in r for r in rows)

    def test_expand_schema_and_parseval(self, capsys):
        code, out, _ = invoke(capsys, "--format", "json", "expand", "--theta", "0",
                              "--range=-10:10")
        payload = json.loads(out)
        assert set(payload["results"][0]) == {"n", "nu", "re_c", "im_c", "prob"}
        assert payload["parseval_defect"] < 1e-2
        assert payload["inputs"]["theta"] == 0


class TestScalarCommands:
    def test_paradox(self, capsys):
        code, out, _ = invoke(capsys, "paradox", "--terms", "100", "--format", "json")
        payload = json.loads(out)
        row = payload["results"][0]
        assert abs(row["mean_E_direct"] - 5.0) < 1e-8
        assert row["naive_E2"] == 0.0

    def test_deuteron_sweep(self, capsys):
        code, out, _ = invoke(capsys, "deuteron", "--sweep", "0,1,inf", "--format", "csv")
        rows = read_csv(out)
        assert [r["lam_over_a"] for r in rows] == ["0", "1", "inf"]
        assert abs(float(rows[0]["V0_MeV"]) - 36.8) / 36.8 < 0.02

    def test_deuteron_requires_exactly_one_mode(self, capsys):
        code, _, err = invoke(capsys, "deuteron")
        assert code == 2

    def test_reflect(self, capsys):
        code, out, _ = invoke(capsys, "reflect", "--lambda", "1", "--k", "2",
                              "--format", "csv")
        (row,) = read_csv(out)
        assert abs(float(row["R"]) - 1.0) < 1e-12
        assert abs(float(row["re_r"]) - 0.6) < 1e-9

    def test_bound_state_none(self, capsys):
        code, out, _ = invoke(capsys, "bound-state", "--lambda", "2", "--format", "csv")
        (row,) = read_csv(out)
        assert row["exists"] == "false"

    def test_bound_state_inf_lambda(self, capsys):
        code, out, _ = invoke(capsys, "bound-state", "--lambda", "inf", "--format", "csv")
        (row,) = read_csv(out)
        assert row["exists"] == "false"

    def test_well_limit(self, capsys):
        code, out, _ = invoke(capsys, "--format", "json", "well-limit",
                              "--v0-list", "100,1000", "--level", "1")
        payload = json.loads(out)
        assert len(payload["results"]) == 2
        assert abs(payload["energy_order"] - 1.0) < 0.2


class TestOutputDiscipline:
    def test_deterministic_bytes(self, capsys):
        args = ("spectrum", "--u", "quasiperiodic:1.3", "--count", "4", "--format", "csv")
        _, first, _ = invoke(capsys, *args)
        _, second, _ = invoke(capsys, *args)
        assert first == second

    def test_csv_round_trip_to_printed_precision(self, capsys):
        _, out, _ = invoke(capsys, "spectrum", "--u", "dirichlet", "--count", "3",
                           "--format", "csv", "--precision", "12")
        rows = read_csv(out)
        for i, row in enumerate(rows, start=1):
            reparsed = float(row["value"])
            assert abs(reparsed - (i * math.pi) ** 2) <= 1e-9

    def test_precision_flag(self, capsys):
        _, out, _ = invoke(capsys, "reflect", "--lambda", "1", "--k", "3",
                           "--format", "csv", "--precision", "3")
        (row,) = read_csv(out)
        assert row["re_r"] == "0.8"

    def test_precision_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SAEXT_PRECISION", "4")
        _, out, _ = invoke(capsys, "paradox", "--terms", "1", "--format", "csv")
        (row,) = read_csv(out)
        assert row["mean_E_series"] == "4.928"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "spec.csv"
        code, out, _ = invoke(capsys, "spectrum", "--u", "dirichlet", "--count", "1",
                              "--format", "csv", "--output", str(target))
        assert code == 0 and out == ""
        assert "sector" in target.read_text()

    def test_unknown_flag_exit_two(self, capsys):
        code, _, _ = invoke(capsys, "spectrum", "--u", "dirichlet", "--bogus")
        assert code == 2

    def test_json_inputs_echo(self, capsys):
        _, out, _ = invoke(capsys, "--format", "json", "deficiency",
                           "--operator", "momentum", "--interval", "line")
        payload = json.loads(out)
        assert payload["inputs"] == {"operator": "momentum", "interval": "line"}


README_COMMANDS = [
    ("spectrum", "--u", "dirichlet", "--count", "3"),
    ("spectrum", "--u", "psi=0.4,m=(0.5,0.5,0.5,0.5)", "--count", "5", "--include-negative"),
    ("spectrum", "--u", "quasiperiodic:1.57", "--count", "4", "--eigenfunctions",
     "--format", "csv"),
    ("classify", "--u", "psi=0.3,m=(0.6,0.8,0,0)"),
    ("deficiency", "--operator", "momentum", "--interval", "halfline"),
    ("momentum-spectrum", "--theta", "3.14159", "--range=-5:5"),
    ("expand", "--theta", "0", "--range=-50:50", "--format", "json"),
    ("paradox", "--terms", "1000000"),
    ("deuteron", "--sweep", "0,0.1,0.2,0.5,1,2,5,10,100,inf"),
    ("well-limit", "--v0-list", "100,1000,10000", "--level", "1"),
    ("reflect", "--lambda", "1", "--k", "2"),
    ("bound-state", "--lambda=-1"),
]


class TestInputHygiene:
    @pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: " ".join(argv))
    def test_readme_examples_accepted(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 0, err
        assert out

    @pytest.mark.parametrize("argv", [
        ("reflect", "--lambda", "1", "--k", "nan"),
        ("reflect", "--lambda", "1", "--k", "inf"),
        ("spectrum", "--u", "psi=nan,m=(1,0,0,0)"),
        ("spectrum", "--u", "dirichlet", "--tol", "nan"),
        ("spectrum", "--u", "dirichlet", "--s-max", "inf"),
        ("well-limit", "--v0-list", "nan,10"),
        ("deuteron", "--sweep", "1", "--hbarc", "inf"),
    ], ids=lambda argv: " ".join(argv))
    def test_non_finite_is_usage_error(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "numerical failure" not in err

    @pytest.mark.parametrize("n_range", ["--range=1500:1500", "--range=-9000:-8999"])
    def test_expand_large_n_accepted(self, capsys, n_range):
        # the cap counts rows, not |n|
        code, out, err = invoke(capsys, "--format", "csv", "expand", "--theta", "1", n_range)
        assert code == 0, err
        assert len(read_csv(out)) >= 1

    @pytest.mark.parametrize("argv", [
        ("paradox", "--terms", str(10 ** 7 + 1)),
        ("paradox", "--terms", str(10 ** 8)),
        ("spectrum", "--u", "dirichlet", "--count", "5001"),
        ("expand", "--theta", "0", "--range=-1000:1001"),
        ("expand", "--theta", "0", "--range=0:2000000"),
    ], ids=lambda argv: " ".join(argv))
    def test_size_above_cap_is_usage_error(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "at most" in err
