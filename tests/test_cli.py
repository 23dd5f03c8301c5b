import csv
import io
import json
import math
import shlex
from pathlib import Path

import pytest

from saext import DeuteronParams, DeuteronSolution, cli, deuteron_v0, halfline, momentum
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

    def test_s_max_short_of_count_is_numerical_failure(self, capsys):
        code, _, err = invoke(capsys, "spectrum", "--u", "dirichlet", "--count", "50",
                              "--s-max", "10")
        assert code == 3
        assert "numerical failure" in err and "caps the spectrum at 3 of 50" in err

    def test_tol_is_not_an_option(self, capsys):
        code, out, err = invoke(capsys, "spectrum", "--u", "dirichlet", "--tol", "1e-6")
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err

    def test_s_max_below_one_scan_step(self, capsys):
        code, out, _ = invoke(capsys, "spectrum", "--u", "quasiperiodic:0.2", "--count", "1",
                              "--s-max", "0.3", "--format", "csv")
        assert code == 0
        (row,) = read_csv(out)
        assert abs(float(row["value"]) - 0.04) < 1e-12

    @pytest.mark.parametrize("s_max", ["0.01", "1e-9"])
    def test_s_max_below_the_level_is_numerical_failure(self, capsys, s_max):
        code, _, err = invoke(capsys, "spectrum", "--u", "quasiperiodic:0.2", "--count", "1",
                              "--s-max", s_max)
        assert code == 3
        assert f"s_max = {float(s_max)} caps the spectrum at 0 of 1" in err

    def test_close_pairs_print_both_levels(self, capsys):
        # the pairs 2 pi n +- 1.05e-8 come back as two simple levels each, E = s^2
        code, out, err = invoke(capsys, "spectrum", "--u", "quasiperiodic:1.05e-8",
                                "--count", "20", "--format", "csv")
        assert code == 0 and err == ""
        rows = read_csv(out)
        assert rows[0]["sector"] == "zero"
        positive = rows[1:]
        assert [int(r["multiplicity"]) for r in positive] == [1] * 20
        expected = [(2 * math.pi * n + sign * 1.05e-8) ** 2 for n in range(1, 11) for sign in (-1, 1)]
        for row, energy in zip(positive, expected):
            assert abs(float(row["value"]) - energy) <= 1e-9 * energy, (row, energy)

    @pytest.mark.parametrize("ulps", [-3, -1, 1, 3])
    @pytest.mark.parametrize("argv", [
        "spectrum --u dirichlet --count 3",
        "spectrum --u psi=0.4,m=(0.5,0.5,0.5,0.5) --count 5 --include-negative",
        "spectrum --u quasiperiodic:1.57 --count 4 --eigenfunctions --format csv",
    ])
    def test_root_moved_by_ulps_prints_the_same_bytes(self, capsys, monkeypatch, argv, ulps):
        from saext import box_spectrum
        from saext.roots import RootReport

        refine = box_spectrum.refine_root

        def moved(bracket, f, tol):
            x = refine(bracket, f, tol).root
            for _ in range(abs(ulps)):
                x = math.nextafter(x, math.copysign(math.inf, ulps))
            return RootReport(x, f(x), 0)

        monkeypatch.setattr(box_spectrum, "refine_root", moved)
        code, out, err = invoke(capsys, *shlex.split(argv))
        assert code == 0, err
        assert out == README_GOLDEN[argv]


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

    @pytest.mark.parametrize("ell", ["0", "1", "inf"])
    def test_deuteron_single_lambda_matches_library(self, capsys, ell):
        code, out, _ = invoke(capsys, "--format", "json", "--precision", "17",
                              "deuteron", "--lambda-over-a", ell)
        assert code == 0
        sol = deuteron_v0(DeuteronParams(lam_over_a=float(ell)))
        row = json.loads(out)["results"][0]
        assert (row["X"], row["Y"], row["V0_MeV"]) == (sol.X, sol.Y, sol.V0)
        # the residual prints as a one-digit bound, at least the floor
        bound = cli._residual_bound(sol.residual, cli._DEUTERON_RESIDUAL_FLOOR)
        assert row["residual"] == bound >= max(sol.residual, cli._DEUTERON_RESIDUAL_FLOOR)

    @pytest.mark.parametrize("ulps", [-2, -1, 1, 2])
    def test_deuteron_root_moved_by_ulps_prints_the_same_bytes(self, capsys, monkeypatch, ulps):
        argv = "deuteron --sweep 0,0.1,0.2,0.5,1,2,5,10,100,inf"
        solve = halfline.deuteron_v0

        def moved(p):
            x = solve(p).X
            for _ in range(abs(ulps)):
                x = math.nextafter(x, math.copysign(math.inf, ulps))
            return DeuteronSolution(X=x, Y=p.y, V0=p.binding_energy * (1.0 + (x / p.y) ** 2),
                                    residual=halfline._equation_residual(x, p.y, p.lam_over_a))

        monkeypatch.setattr(halfline, "deuteron_v0", moved)
        code, out, err = invoke(capsys, *argv.split())
        assert code == 0, err
        assert out == README_GOLDEN[argv]

    @pytest.mark.parametrize("residual, bound", [
        (0.0, 4e-15), (4e-15, 4e-15), (4.000000000000001e-15, 5e-15), (6.1e-15, 7e-15),
        (9.99e-15, 1e-14), (1e-14, 1e-14), (math.nextafter(1e-14, 1.0), 2e-14), (0.3, 0.3)])
    def test_residual_bound_rounds_up_to_one_digit(self, residual, bound):
        assert cli._residual_bound(residual, cli._DEUTERON_RESIDUAL_FLOOR) == bound

    @pytest.mark.parametrize("residual, bound", [
        (0.0, 1e-13), (9.2e-17, 1e-13), (1e-13, 1e-13), (1.02e-13, 2e-13), (3.3e-9, 4e-9)])
    def test_spectrum_residual_bound(self, residual, bound):
        assert cli._residual_bound(residual, cli._SPECTRUM_FLOOR) == bound

    def test_deuteron_requires_exactly_one_mode(self, capsys):
        code, _, err = invoke(capsys, "deuteron")
        assert code == 2

    def test_reflect(self, capsys):
        code, out, _ = invoke(capsys, "reflect", "--lambda", "1", "--k", "2",
                              "--format", "csv")
        (row,) = read_csv(out)
        assert abs(float(row["R"]) - 1.0) < 1e-12
        assert abs(float(row["re_r"]) - 0.6) < 1e-9

    @pytest.mark.parametrize("lam, k", [("1e300", "1e300"), ("-1e300", "1e10")])
    def test_reflect_overflowing_lambda_k(self, capsys, lam, k):
        code, out, err = invoke(capsys, "reflect", f"--lambda={lam}", "--k", k,
                                "--format", "csv")
        assert code == 0, err
        (row,) = read_csv(out)
        assert (row["re_r"], row["im_r"], row["R"]) == ("1", "0", "1")

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

    @pytest.mark.parametrize("argv, reason", [
        (("well-limit", "--v0-list", "100,inf"), "positive and finite"),
        (("well-limit", "--v0-list", "100,1000", "--level", "0"), "level must be >= 1"),
        (("well-limit", "--v0-list", "100,1000", "--level", "-1"), "level must be >= 1"),
        (("well-limit", "--v0-list", "1e6", "--level", "1000000"), "level 1000000 is not bound"),
    ], ids=["v0-inf", "level-0", "level-minus-1", "level-unbound"])
    def test_well_limit_bad_input_is_usage_error(self, capsys, argv, reason):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and reason in err

    def test_well_limit_accepts_any_finite_depth(self, capsys):
        code, out, err = invoke(capsys, "--format", "csv", "well-limit",
                                "--v0-list", "100,1e13,1e200")
        assert code == 0, err
        rows = read_csv(out)
        assert [row["v0"] for row in rows] == ["100", "1e+13", "1e+200"]
        assert all(abs(float(row["kL"]) - math.pi) < 1e-9 for row in rows[1:])

    def test_well_limit_energy_order_at_extreme_depths(self, capsys):
        code, out, err = invoke(capsys, "well-limit", "--v0-list", "100,1e300", "--level", "7")
        assert code == 0, err
        (order,) = [line for line in out.splitlines() if line.startswith("# energy_order")]
        assert "nan" not in out and abs(float(order.split("=")[1]) - 1.0) < 0.01


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

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "spec.csv"
        code, out, err = invoke(capsys, "spectrum", "--u", "dirichlet", "--count", "3",
                                "--output", str(target))
        assert code == 2 and out == ""
        assert err.startswith("error: --output: ") and err.count("\n") == 1
        assert not target.exists()

    def test_unknown_flag_exit_two(self, capsys):
        code, _, _ = invoke(capsys, "spectrum", "--u", "dirichlet", "--bogus")
        assert code == 2

    def test_json_inputs_echo(self, capsys):
        _, out, _ = invoke(capsys, "--format", "json", "deficiency",
                           "--operator", "momentum", "--interval", "line")
        payload = json.loads(out)
        assert payload["inputs"] == {"operator": "momentum", "interval": "line"}


def _readme_commands():
    """argv of every `saext ...` line in README.md's sh blocks, in order."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [block.split("```")[0] for block in readme.split("```sh\n")[1:]]
    lines = [line for block in blocks for line in block.splitlines()]
    return [tuple(shlex.split(line, comments=True)[1:]) for line in lines
            if line.startswith("saext ")]


README_COMMANDS = _readme_commands()


# stdout of each README command, recorded once; any library change that moves
# a printed digit must update this file on purpose
README_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "readme_cli.json").read_text(encoding="utf-8")
)


class TestInputHygiene:
    def test_readme_commands_match_golden(self):
        assert [" ".join(argv) for argv in README_COMMANDS] == list(README_GOLDEN)

    @pytest.mark.parametrize("argv", README_COMMANDS, ids=lambda argv: " ".join(argv))
    def test_readme_examples_accepted(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 0, err
        assert out == README_GOLDEN[" ".join(argv)]

    @pytest.mark.parametrize("argv", [
        ("reflect", "--lambda", "1", "--k", "nan"),
        ("reflect", "--lambda", "1", "--k", "inf"),
        ("spectrum", "--u", "psi=nan,m=(1,0,0,0)"),
        ("spectrum", "--u", "dirichlet", "--s-max", "inf"),
        ("well-limit", "--v0-list", "nan,10"),
        ("deuteron", "--sweep", "1", "--hbarc", "inf"),
    ], ids=lambda argv: " ".join(argv))
    def test_non_finite_is_usage_error(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "numerical failure" not in err

    @pytest.mark.parametrize("argv, reason", [
        (("deuteron", "--sweep", ","), "--sweep: no values"),
        (("well-limit", "--v0-list", ","), "--v0-list: no values"),
        (("well-limit", "--v0-list", "100"), "at least two depths"),
        (("spectrum", "--u", "dirichlet", "--s-max", "-5"), "--s-max must be positive"),
        (("spectrum", "--u", "dirichlet", "--s-max", "0"), "--s-max must be positive"),
        (("bound-state", "--lambda=-1e-160"), "overflows"),
        (("bound-state", "--lambda=-1e-320"), "overflows"),
    ], ids=["sweep-empty", "v0-list-empty", "v0-list-one-depth", "s-max-negative", "s-max-zero",
            "lambda-1e-160", "lambda-1e-320"])
    def test_empty_or_degenerate_input_is_usage_error(self, capsys, argv, reason):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and reason in err

    def test_well_limit_at_level_cap_accepted(self, capsys):
        code, out, err = invoke(capsys, "--format", "csv", "well-limit",
                                "--v0-list", "1e10,1e11", "--level", "5000")
        assert code == 0, err
        assert len(read_csv(out)) == 2

    @pytest.mark.parametrize("level", ["5001", "1000000"])
    def test_well_limit_high_level_accepted(self, capsys, level):
        # a study refines one bracket per depth, so --level has no cap of its own
        code, out, err = invoke(capsys, "--format", "csv", "well-limit",
                                "--v0-list", "1e10,1e11", "--level", level)
        assert code == 0, err
        assert len(read_csv(out)) == 2

    @pytest.mark.parametrize("n_range", ["--range=1500:1500", "--range=-9000:-8999",
                                         "--range=1000:2000", "--range=100000:102000"])
    def test_expand_large_n_accepted(self, capsys, n_range):
        # the cap is the quadrature grid, not the rows' |n| summed
        code, out, err = invoke(capsys, "--format", "csv", "expand", "--theta", "1", n_range)
        assert code == 0, err
        assert len(read_csv(out)) >= 1

    @pytest.mark.parametrize("theta, n", [("0", 1048576), ("0", -1048576), ("6.2", 1048575)])
    def test_expand_at_grid_cap_accepted(self, capsys, monkeypatch, theta, n):
        # |n + theta/2pi| <= 2^20 needs 2^21 panels; the table itself (~4 s) is stubbed
        tables = []
        real = momentum.expansion_table
        monkeypatch.setattr(momentum, "expansion_table",
                            lambda t, lo, hi: tables.append((lo, hi)) or real(t, 0, 0))
        code, _, err = invoke(capsys, "expand", "--theta", theta, f"--range={n}:{n}")
        assert code == 0, err
        assert tables == [(n, n)]

    @pytest.mark.parametrize("argv", [
        ("paradox", "--terms", str(10 ** 7 + 1)),
        ("paradox", "--terms", str(10 ** 8)),
        ("spectrum", "--u", "dirichlet", "--count", "5001"),
        ("spectrum", "--u", "dirichlet", "--s-max", "100001"),
        ("spectrum", "--u", "dirichlet", "--s-max", "1e9"),
        ("spectrum", "--u", "dirichlet", "--s-max", "1e300"),
        ("expand", "--theta", "0", "--range=-1000:1001"),
        ("expand", "--theta", "0", "--range=0:2000000"),
        ("expand", "--theta", "0", "--range=1048577:1048577"),
        ("expand", "--theta", "1", "--range=1048576:1048576"),
        ("momentum-spectrum", "--theta", "1", "--range=0:100000"),
        ("deuteron", "--sweep", ",".join(["1"] * 10001)),
        ("well-limit", "--v0-list", ",".join(str(10 + k) for k in range(10001))),
    ], ids=lambda argv: " ".join(argv)[:60])
    def test_size_above_cap_is_usage_error(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "at most" in err
