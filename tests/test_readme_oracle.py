"""Every printed digit of the README `deuteron`, `well-limit`, `reflect`,
`bound-state`, `paradox`, `expand` and `momentum-spectrum` lines and of the
`spectrum` value column, at 50 digits.

The golden file pins the bytes the CLI prints; this module checks that those
bytes are true.  Each value is derived again with mpmath from its defining
equation, not from the library's phase equations: the deuteron from the tan
form of its matching condition, the finite well from its parity condition
and a quadrature of its norm, box levels from their closed forms or the
characteristic functions F and G, reflection and the bound state from their
closed forms, the paradox series from Hurwitz zeta and its direct values
from the exact 5, 30, 0 and 30, the expansion coefficients from their
defining integral (integrated by parts, and spot-checked by mpmath's own
quadrature), and the momentum levels from e^{ik} = e^{i theta}.  A printed
token must equal the value rounded correctly to the printed precision; where
the value lies within 1e-3 units in the last printed place of a rounding
boundary, either neighbour passes.  The spectrum residuals and eigenfunction
coefficients are round-off and stay out.
"""

import csv
import io
import json
from decimal import ROUND_FLOOR, Decimal
from pathlib import Path

import pytest

from conftest import deuteron_tan_form, well_parity_condition

mpmath = pytest.importorskip("mpmath")

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "readme_cli.json").read_text(encoding="utf-8"))
DIGITS = 10  # the CLI's default precision
DEUTERON = "deuteron --sweep 0,0.1,0.2,0.5,1,2,5,10,100,inf"
WELL_LIMIT = "well-limit --v0-list 100,1000,10000 --level 1"
DIRICHLET = "spectrum --u dirichlet --count 3"
GENERIC = "spectrum --u psi=0.4,m=(0.5,0.5,0.5,0.5) --count 5 --include-negative"
QUASI = "spectrum --u quasiperiodic:1.57 --count 4 --eigenfunctions --format csv"
REFLECT = "reflect --lambda 1 --k 2"
BOUND_STATE = "bound-state --lambda=-1"
PARADOX = "paradox --terms 1000000"
EXPAND = "expand --theta 0 --range=-50:50 --format json"
MOMENTUM = "momentum-spectrum --theta 3.14159 --range=-5:5"


def table(command):
    if "--format csv" in command:
        return list(csv.DictReader(io.StringIO(GOLDEN[command])))
    header, *rows = [line.split() for line in GOLDEN[command].splitlines()
                     if not line.startswith("#")]
    return [dict(zip(header, row)) for row in rows]


def assert_correctly_rounded(token, value, digits=DIGITS):
    exact = Decimal(mpmath.nstr(value, 45, min_fixed=1, max_fixed=0))
    unit = Decimal(1).scaleb(exact.adjusted() - digits + 1)
    scaled = exact / unit
    low = scaled.to_integral_value(ROUND_FLOOR)
    nearest = low if scaled - low < Decimal("0.5") else low + 1
    allowed = {nearest}
    if abs(scaled - low - Decimal("0.5")) < Decimal("1e-3"):
        allowed |= {low, low + 1}
    assert Decimal(token) in {n * unit for n in allowed}, (token, mpmath.nstr(value, 20))


@pytest.mark.parametrize("row", table(DEUTERON), ids=lambda row: row["lam_over_a"])
def test_deuteron_row(row):
    with mpmath.workdps(50):
        binding, range_a, hbar_c, mass_c2 = map(mpmath.mpf, (2.2, 2.0, 197.3269804, 938.919))
        y = range_a * mpmath.sqrt(mass_c2 * binding) / hbar_c
        tan_form = deuteron_tan_form(y, mpmath.mpf(float(row["lam_over_a"])), mpmath)
        x = mpmath.findroot(tan_form, mpmath.mpf(row["X"]))
        assert 0 < x < mpmath.pi
        for name, value in (("X", x), ("Y", y), ("V0_MeV", binding * (1 + (x / y) ** 2))):
            assert_correctly_rounded(row[name], value)


@pytest.mark.parametrize("row", table(WELL_LIMIT), ids=lambda row: row["v0"])
def test_well_limit_row(row):
    n = 1  # --level 1: the even ground state
    with mpmath.workdps(50):
        v0 = mpmath.mpf(float(row["v0"]))
        k = mpmath.findroot(well_parity_condition(v0, True, mpmath), mpmath.mpf(row["kL"]))
        assert 0 < k < n * mpmath.pi
        rho = mpmath.sqrt(v0 * v0 - k * k)
        # phi = d (cos kx + (rho/k) sin kx) inside and d e^{-rho |x|} outside: norm 1 fixes d
        inside = mpmath.quad(lambda x: (mpmath.cos(k * x) + rho / k * mpmath.sin(k * x)) ** 2,
                             [0, 1])
        d = 1 / mpmath.sqrt(inside + 1 / rho)
        values = {
            "kL": k,
            "kL_deviation": k - n * mpmath.pi * (1 - 2 / v0),
            "energy": k * k,
            "energy_ratio": (k / (n * mpmath.pi)) ** 2,
            "wall_value": d,
            "wall_derivative": d * rho,
        }
        for name, value in values.items():
            assert_correctly_rounded(row[name], value)


def test_well_limit_energy_order():
    # the mean of the fitted orders log(gap_a / gap_b) / log(v0_b / v0_a) of E_inf - E
    (token,) = [line.split("=")[1].strip() for line in GOLDEN[WELL_LIMIT].splitlines()
                if line.startswith("# energy_order")]
    with mpmath.workdps(50):
        v0s = [mpmath.mpf(float(row["v0"])) for row in table(WELL_LIMIT)]
        gaps = [mpmath.pi ** 2 - mpmath.findroot(well_parity_condition(v0, True, mpmath),
                                                 mpmath.pi * (1 - 2 / v0)) ** 2
                for v0 in v0s]
        orders = [mpmath.log(ga / gb) / mpmath.log(vb / va)
                  for ga, gb, va, vb in zip(gaps, gaps[1:], v0s, v0s[1:])]
        assert_correctly_rounded(token, sum(orders) / len(orders))


def test_dirichlet_levels():
    rows = table(DIRICHLET)
    assert len(rows) == 3
    with mpmath.workdps(50):
        for n, row in enumerate(rows, start=1):
            assert_correctly_rounded(row["value"], (n * mpmath.pi) ** 2)


def test_quasi_periodic_levels():
    # phi(1) = e^{i theta} phi(0), phi'(1) = e^{i theta} phi'(0): s = |2 pi n + theta|
    rows = table(QUASI)
    assert len(rows) == 4
    with mpmath.workdps(50):
        theta = mpmath.mpf(1.57)
        levels = sorted(abs(2 * mpmath.pi * n + theta) for n in range(-2, 2))
        for row, s in zip(rows, levels):
            assert_correctly_rounded(row["value"], s * s)


def test_generic_levels():
    # F(s) = 2 s [sin(psi) cos(s) - m1] - sin(s) [cos(psi)(s^2+1) - m0(s^2-1)] for E = s^2,
    # G(r) = 2 r [sin(psi) cosh(r) - m1] - sinh(r) [m0(r^2+1) - cos(psi)(r^2-1)] for E = -r^2
    rows = table(GENERIC)
    assert [row["sector"] for row in rows] == ["negative"] + ["positive"] * 5
    with mpmath.workdps(50):
        psi, m0, m1 = mpmath.mpf(0.4), mpmath.mpf(0.5), mpmath.mpf(0.5)
        sp, cp = mpmath.sin(psi), mpmath.cos(psi)

        def f(s):
            return 2 * s * (sp * mpmath.cos(s) - m1) - mpmath.sin(s) * (
                cp * (s * s + 1) - m0 * (s * s - 1))

        def g(r):
            return 2 * r * (sp * mpmath.cosh(r) - m1) - mpmath.sinh(r) * (
                m0 * (r * r + 1) - cp * (r * r - 1))

        for row in rows:
            printed = mpmath.mpf(row["value"])
            if row["sector"] == "negative":
                seed = mpmath.sqrt(-printed)
                root = mpmath.findroot(g, seed)
                value = -root * root
            else:
                seed = mpmath.sqrt(printed)
                root = mpmath.findroot(f, seed)
                value = root * root
            assert abs(root - seed) < 1e-8 * seed
            assert_correctly_rounded(row["value"], value)


def test_reflect_row():
    (row,) = table(REFLECT)
    with mpmath.workdps(50):
        lam, k = mpmath.mpf(1), mpmath.mpf(2)
        r = -(1 + 1j * lam * k) / (1 - 1j * lam * k)
        for name, value in (("re_r", r.real), ("im_r", r.imag), ("R", abs(r) ** 2)):
            assert_correctly_rounded(row[name], value)


def test_bound_state_row():
    # phi = sqrt(2/|lambda|) e^{-x/|lambda|} at E = -1/lambda^2, for lambda < 0
    (row,) = table(BOUND_STATE)
    assert row["exists"] == "true"
    with mpmath.workdps(50):
        lam = mpmath.mpf(-1)
        assert_correctly_rounded(row["energy"], -1 / lam ** 2)
        assert_correctly_rounded(row["amplitude"], mpmath.sqrt(2 / abs(lam)))


def test_paradox_row():
    # sum over n <= N of (2n-1)^-s = (1 - 2^-s) zeta(s) - 2^-s zeta(s, N + 1/2)
    (row,) = table(PARADOX)
    terms = int(row["terms_used"])
    assert terms == 1000000
    with mpmath.workdps(50):
        def odd_sum(s):
            return (1 - mpmath.mpf(2) ** -s) * mpmath.zeta(s) \
                - mpmath.mpf(2) ** -s * mpmath.zeta(s, terms + mpmath.mpf(0.5))

        mean_e = 480 / mpmath.pi ** 4 * odd_sum(4)
        mean_e2 = 240 / mpmath.pi ** 2 * odd_sum(2)
        values = {
            "mean_E_series": mean_e,
            "mean_E_direct": 5,
            "mean_E2_series": mean_e2,
            "mean_E2_direct": 30,
            "naive_E2": 0,
            "boundary_term": 30,
            "delta_E": mpmath.sqrt(mean_e2 - mean_e ** 2),
        }
        for name, value in values.items():
            assert_correctly_rounded(row[name], mpmath.mpf(value))


def parabola_coefficient(theta, n):
    """c_n = integral over [0, 1] of sqrt(30) x (1 - x) e^{-2 pi i nu x} dx, nu = n + theta/2 pi.

    For nu != 0, integrating by parts until p = sqrt(30) x (1 - x) is used up, the
    antiderivative of p(x) e^{-i w x} (w = 2 pi nu) is -e^{-i w x} sum_k p^(k)(x) / (i w)^(k+1);
    at x = 1 the phase is e^{-i w} = e^{-i theta}.  For nu = 0 the integral is sqrt(30) / 6.
    """
    root30 = mpmath.sqrt(30)
    nu = n + theta / (2 * mpmath.pi)
    if nu == 0:
        return root30 / 6
    iw = mpmath.mpc(0, 2 * mpmath.pi * nu)

    def antiderivative(x, phase):
        derivatives = (root30 * x * (1 - x), root30 * (1 - 2 * x), -2 * root30)
        return -phase * sum(d / iw ** (k + 1) for k, d in enumerate(derivatives))

    return antiderivative(1, mpmath.expj(-theta)) - antiderivative(0, 1)


@pytest.mark.parametrize("theta, n", [(0, 0), (0, 1), (0, -2), (0, 7), (1, 3), (5, -4)])
def test_parabola_coefficient_against_quadrature(theta, n):
    # the by-parts value against mpmath's tanh-sinh quadrature of the same integral
    with mpmath.workdps(50):
        theta = mpmath.mpf(theta)
        nu = n + theta / (2 * mpmath.pi)
        quad = mpmath.quad(
            lambda x: mpmath.sqrt(30) * x * (1 - x) * mpmath.expj(-2 * mpmath.pi * nu * x),
            mpmath.linspace(0, 1, 2 * abs(n) + 2))
        assert abs(quad - parabola_coefficient(theta, n)) < mpmath.mpf(10) ** -45


def expand_rows():
    # the JSON tokens as printed: parse numbers as strings
    return json.loads(GOLDEN[EXPAND], parse_float=str, parse_int=str)


def test_expand_inputs():
    payload = expand_rows()
    assert payload["inputs"] == {"theta": "0.0", "range": "-50:50"}
    assert [int(row["n"]) for row in payload["results"]] == list(range(-50, 51))


@pytest.mark.parametrize("row", expand_rows()["results"], ids=lambda row: row["n"])
def test_expand_row(row):
    with mpmath.workdps(50):
        theta, n = mpmath.mpf(0), int(row["n"])
        c = parabola_coefficient(theta, n)
        values = {
            "nu": n + theta / (2 * mpmath.pi),
            "re_c": c.real,
            "im_c": c.imag,
            "prob": abs(c) ** 2,
        }
        for name, value in values.items():
            assert_correctly_rounded(row[name], value)


@pytest.mark.parametrize("row", table(MOMENTUM), ids=lambda row: row["n"])
def test_momentum_spectrum_row(row):
    # -i d/dx with phi(1) = e^{i theta} phi(0): phi = e^{ikx}, e^{ik} = e^{i theta}, so
    # k = theta + 2 pi n, and nu = k / 2 pi (hbar = L = 1)
    with mpmath.workdps(50):
        theta, n = mpmath.mpf(3.14159), int(row["n"])
        k = theta + 2 * mpmath.pi * n
        assert_correctly_rounded(row["nu"], k / (2 * mpmath.pi))
        assert_correctly_rounded(row["eigenvalue"], k)
