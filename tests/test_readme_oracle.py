"""Every printed digit of the README `deuteron` and `well-limit` lines, at 50 digits.

The golden file pins the bytes the CLI prints; this module checks that those
bytes are true.  Each value is derived again with mpmath from its defining
equation, not from the library's phase equations: the deuteron from the tan
form of its matching condition, the finite well from its parity condition
and a quadrature of its norm.  A printed token must equal the value rounded
correctly to the printed precision; where the value lies within 1e-3 units
in the last printed place of a rounding boundary, either neighbour passes.
"""

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


def table(command):
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
