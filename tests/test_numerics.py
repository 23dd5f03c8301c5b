import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq

from saext import (
    AccuracyError,
    EvaluationError,
    InvalidParameterError,
    integrate,
    refine_root,
    scan_brackets,
)


def test_scan_finds_sine_roots():
    brackets = scan_brackets(math.sin, 0.1, 7.0, 0.5)
    plain = [b for b in brackets if not b.double_root]
    assert len(plain) == 2
    assert plain[0].lo < math.pi < plain[0].hi
    assert plain[1].lo < 2 * math.pi < plain[1].hi


def test_scan_quadratic_single_bracket():
    brackets = scan_brackets(lambda s: s * s - 2.0, 0.0, 2.0, 0.25)
    assert len(brackets) == 1
    assert brackets[0].lo < math.sqrt(2) < brackets[0].hi


def test_scan_flags_double_root_without_sign_change():
    brackets = scan_brackets(lambda s: (s - math.pi) ** 2, 2.0, 4.0, 0.1)
    assert all(b.double_root for b in brackets)
    assert len(brackets) == 1
    assert abs(brackets[0].x_min - math.pi) < 1e-6


def test_scan_splits_close_pair_hidden_in_one_cell():
    # two roots 0.02 apart straddling 1.0, far tighter than the 0.5 grid
    f = lambda s: (s - 0.99) * (s - 1.01)
    brackets = scan_brackets(f, 0.1, 2.0, 0.5)
    assert len(brackets) == 2
    roots = [refine_root(b, f, tol=1e-12).root for b in brackets]
    assert abs(roots[0] - 0.99) < 1e-10 and abs(roots[1] - 1.01) < 1e-10


def test_scan_rejects_bad_step():
    with pytest.raises(InvalidParameterError):
        scan_brackets(math.sin, 0.0, 1.0, 2.0)


def test_scan_propagates_non_finite_values():
    with pytest.raises(EvaluationError) as err:
        scan_brackets(lambda s: 1.0 / (s - 0.5), 0.0, 1.0, 0.25)
    assert err.value.abscissa == 0.5


@given(k=st.floats(min_value=0.5, max_value=6.0))
def test_scan_finds_all_separated_roots(k):
    hi = 10.0
    brackets = scan_brackets(lambda s: math.sin(k * s), 0.05, hi, step=min(0.4, 2.0 / k))
    expected = [n * math.pi / k for n in range(1, int(hi * k / math.pi) + 1) if n * math.pi / k < hi - 1e-9]
    hits = [any(b.lo <= r <= b.hi for b in brackets) for r in expected]
    assert all(hits)


def test_refine_sine_root_to_pi():
    (bracket,) = scan_brackets(math.sin, 3.0, 3.4, 0.2)
    report = refine_root(bracket, math.sin, tol=1e-12)
    assert abs(report.root - math.pi) <= 1e-12
    assert report.multiplicity_hint == 1


def test_refine_sqrt2():
    (bracket,) = scan_brackets(lambda s: s * s - 2.0, 1.0, 2.0, 1.0)
    report = refine_root(bracket, lambda s: s * s - 2.0, tol=1e-13)
    assert abs(report.root - 1.41421356237) <= 1e-11


def test_refine_dirichlet_characteristic_near_pi():
    from saext import char_positive, named_extension

    ext = named_extension("dirichlet")
    f = lambda s: float(char_positive(ext, s))
    (bracket,) = scan_brackets(f, 2.8, 3.5, 0.7)
    report = refine_root(bracket, f, tol=1e-12)
    assert abs(report.root - math.pi) <= 1e-11


def test_refine_matches_brentq_oracle():
    cases = [
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0),
        (lambda x: math.exp(x) - 3.0, 0.0, 2.0),
    ]
    for f, lo, hi in cases:
        (bracket,) = scan_brackets(f, lo, hi, hi - lo)
        mine = refine_root(bracket, f, tol=1e-13).root
        ref = brentq(f, lo, hi, xtol=1e-14)
        assert abs(mine - ref) < 1e-11


def test_refine_residual_scales_with_tolerance():
    f = lambda s: math.sin(s)
    (bracket,) = scan_brackets(f, 3.0, 3.3, 0.15)
    tol = 1e-10
    report = refine_root(bracket, f, tol=tol)
    assert abs(report.residual) <= 10.0 * tol * 1.0  # |f'| = 1 at the root


def test_refine_double_root_hint():
    f = lambda s: (s - 1.5) ** 2
    (bracket,) = scan_brackets(f, 1.0, 2.0, 0.2)
    report = refine_root(bracket, f, tol=1e-12)
    assert report.multiplicity_hint == 2
    assert abs(report.root - 1.5) < 1e-8


def test_integrate_normalized_sine():
    val = integrate(lambda x: 2.0 * math.sin(math.pi * x) ** 2, 0.0, 1.0, 1e-12)
    assert abs(val - 1.0) < 1e-12


def test_integrate_parabola_normalization():
    val = integrate(lambda x: 30.0 * x ** 2 * (1 - x) ** 2, 0.0, 1.0, 1e-12)
    assert abs(val - 1.0) < 1e-12


def test_integrate_first_moment():
    val = integrate(lambda x: x * 30.0 * x ** 2 * (1 - x) ** 2, 0.0, 1.0, 1e-12)
    assert abs(val - 0.5) < 1e-12


@given(coeffs=st.lists(st.floats(min_value=-3, max_value=3), min_size=6, max_size=6))
def test_integrate_exact_on_degree_five_polynomials(coeffs):
    poly = np.polynomial.Polynomial(coeffs)
    exact = poly.integ()(1.0) - poly.integ()(0.0)
    val = integrate(lambda x: poly(x), 0.0, 1.0, 1e-9)
    assert abs(val - exact) <= 1e-9 + 1e-12 * abs(exact)


def test_integrate_with_breakpoints():
    f = lambda x: abs(x - 0.3)
    val = integrate(f, 0.0, 1.0, 1e-12, breakpoints=(0.3,))
    assert abs(val - (0.3 ** 2 / 2 + 0.7 ** 2 / 2)) < 1e-12


def test_integrate_complex_integrand():
    val = integrate(lambda x: np.exp(2j * math.pi * x), 0.0, 1.0, 1e-12)
    assert abs(val) < 1e-12


@pytest.mark.parametrize("f", [
    lambda x: np.where(x > 0.7, np.nan, x),
    lambda x: math.nan if x > 0.7 else x,
])
def test_integrate_reports_non_finite_integrand(f):
    with pytest.raises(EvaluationError) as err:
        integrate(f, 0.0, 1.0, 1e-12)
    assert 0.7 < err.value.abscissa < 1.0


@pytest.mark.parametrize("value", [30.0, -0.0])
def test_integrate_constant_integrand(value):
    # paradox_report passes integrands that ignore x and return one float
    val = integrate(lambda x: value, -0.5, 0.5, 1e-12)
    assert abs(val - value) <= 1e-12
    assert math.copysign(1.0, val) == 1.0   # a zero integral is +0, never -0


def test_integrate_high_frequency_complex():
    # nu = 340.5: 340 oscillations; a = pi nu has sin a = 1, cos a = 0, so the
    # integral of exp(-2 pi i nu x) sqrt(30) x (1 - x) is -i sqrt(30) / (2 a^3)
    nu = 340.5
    exact = -1j * math.sqrt(30.0) / (2.0 * (math.pi * nu) ** 3)
    val = integrate(lambda x: np.exp(-2j * math.pi * nu * x) * math.sqrt(30.0) * x * (1 - x),
                    0.0, 1.0, 1e-12)
    assert abs(val - exact) < 1e-12


def test_integrate_budget_counts_refinement_beyond_seed_panels():
    # 20000 seed panels exceed the refinement budget; only [0, 5e-5] needs bisection
    val = integrate(np.sqrt, 0.0, 1.0, 1e-12, breakpoints=[k / 20000 for k in range(1, 20000)])
    assert abs(val - 2.0 / 3.0) <= 1e-12


def test_integrate_reports_accuracy_failure():
    jump = lambda x: 0.0 if x < 0.37151 else 1.0
    with pytest.raises(AccuracyError) as err:
        integrate(jump, 0.0, 1.0, 1e-30)
    assert err.value.achieved_error > 1e-30
