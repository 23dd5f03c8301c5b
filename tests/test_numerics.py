import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq

from saext import (
    AccuracyError,
    Bracket,
    EvaluationError,
    InvalidParameterError,
    integrate,
    named_extension,
    refine_root,
)
from saext.box_spectrum import _rcoth, _rcsch, _reduced_positive
from saext.numerics import fourier_coefficients

from conftest import random_extension


def bracket(f, lo, hi):
    return Bracket(lo, hi, f(lo), f(hi))


def test_refine_sine_root_to_pi():
    report = refine_root(bracket(math.sin, 3.0, 3.4), math.sin, tol=1e-12)
    assert abs(report.root - math.pi) <= 1e-12


def test_refine_sqrt2():
    f = lambda s: s * s - 2.0
    report = refine_root(bracket(f, 1.0, 2.0), f, tol=1e-13)
    assert abs(report.root - 1.41421356237) <= 1e-11


def test_refine_dirichlet_characteristic_near_pi():
    from saext import named_extension

    from conftest import char_positive

    f = char_positive(named_extension("dirichlet"))
    report = refine_root(bracket(f, 2.8, 3.5), f, tol=1e-12)
    assert abs(report.root - math.pi) <= 1e-11


def test_refine_matches_brentq_oracle():
    cases = [
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0),
        (lambda x: math.exp(x) - 3.0, 0.0, 2.0),
    ]
    for f, lo, hi in cases:
        mine = refine_root(bracket(f, lo, hi), f, tol=1e-13).root
        ref = brentq(f, lo, hi, xtol=1e-14)
        assert abs(mine - ref) < 1e-11


def test_refine_residual_scales_with_tolerance():
    f = lambda s: math.sin(s)
    tol = 1e-10
    report = refine_root(bracket(f, 3.0, 3.3), f, tol=tol)
    assert abs(report.residual) <= 10.0 * tol * 1.0  # |f'| = 1 at the root


def test_refine_stops_at_float_resolution():
    # the root lies between two adjacent floats and tol is below their spacing
    f = lambda x: x - 64.5 - 1e-15
    report = refine_root(Bracket(64.0, 65.0, f(64.0), f(65.0)), f, tol=1e-16)
    assert report.root in (64.5, math.nextafter(64.5, math.inf))
    edge = refine_root(Bracket(64.5, math.nextafter(64.5, math.inf), -1e-15, 1.3e-14), f, 1e-16)
    assert edge.root == 64.5 and edge.iterations == 0


@pytest.mark.parametrize("bracket, tol", [
    (Bracket(1.0, 0.0, -1.0, 1.0), 1e-12),
    (Bracket(1.0, 1.0, -1.0, 1.0), 1e-12),
    (Bracket(0.0, math.inf, -1.0, 1.0), 1e-12),
    (Bracket(-math.inf, 1.0, -1.0, 1.0), 1e-12),
    (Bracket(0.0, 1.0, math.nan, 1.0), 1e-12),
    (Bracket(0.0, 1.0, -1.0, math.inf), 1e-12),
    (Bracket(0.0, 1.0, -1.0, 1.0), math.nan),
    (Bracket(0.0, 1.0, -1.0, 1.0), math.inf),
    (Bracket(0.0, 1.0, -1.0, 1.0), 0.0),
    (Bracket(0.0, 1.0, -1.0, 1.0), -1e-12),
])
def test_refine_root_rejects_malformed_input(bracket, tol):
    with pytest.raises(InvalidParameterError):
        refine_root(bracket, math.sin, tol)


def test_refine_root_on_mixed_brackets():
    f = lambda s: np.sin(s) * (s - 1.5) ** 2
    brackets = [
        Bracket(6.0, 6.5, f(6.0), f(6.5)),
        Bracket(0.0, 1.0, 0.0, f(1.0)),
        Bracket(3.0, 3.3, f(3.0), f(3.3)),
    ]
    reports = [refine_root(br, f, 1e-12) for br in brackets]
    assert reports[1].root == 0.0 and reports[1].iterations == 0
    for rep, root in zip(reports, [2 * math.pi, 0.0, math.pi]):
        assert abs(rep.root - root) < 1e-8


def test_refine_root_reports_non_finite_value_at_its_abscissa():
    f = lambda s: math.nan if 6.0 < s < 6.5 else math.sin(s)
    a, b, fa, fb = 6.0, 6.5, math.sin(6.0), math.sin(6.5)
    with pytest.raises(EvaluationError) as err:
        refine_root(Bracket(a, b, fa, fb), f, 1e-12)
    assert err.value.abscissa == b - fb * (b - a) / (fb - fa)  # the first secant step


def test_integrate_normalized_sine():
    val = integrate(lambda x: 2.0 * math.sin(math.pi * x) ** 2, 0.0, 1.0, 1e-12)
    assert abs(val - 1.0) < 1e-12


def test_integrate_parabola_normalization():
    val = integrate(lambda x: 30.0 * x ** 2 * (1 - x) ** 2, 0.0, 1.0, 1e-12)
    assert abs(val - 1.0) < 1e-12


def test_integrate_first_moment():
    val = integrate(lambda x: x * 30.0 * x ** 2 * (1 - x) ** 2, 0.0, 1.0, 1e-12)
    assert abs(val - 0.5) < 1e-12


@given(coeffs=st.lists(st.floats(min_value=-3, max_value=3), min_size=14, max_size=14))
def test_integrate_takes_one_panel_of_python_floats_on_degree_thirteen(coeffs):
    # G7 is exact through degree 13 and K15 beyond: |K15 - G7| is round-off, one panel, 15 calls
    calls = []

    def poly(x):
        calls.append(x)
        return math.fsum(c * x ** k for k, c in enumerate(coeffs))

    exact = math.fsum(c * (1.0 - (-1.0) ** (k + 1)) / (k + 1) for k, c in enumerate(coeffs))
    val = integrate(poly, -1.0, 1.0, 1e-9)
    assert abs(val - exact) <= 1e-9 + 1e-12 * abs(exact)
    assert len(calls) == 15 and all(type(x) is float for x in calls)
    assert type(val) is float


@pytest.mark.parametrize("f, kind", [
    (lambda x: 1, float),                # an int-valued integrand still gives a float
    (np.exp, float),                     # numpy scalars come back as Python numbers
    (lambda x: np.exp(1j * x), complex),
    (lambda x: complex(x, -x), complex),
])
def test_integrate_returns_python_float_or_complex(f, kind):
    assert type(integrate(f, 0.0, 1.0, 1e-12)) is kind


def test_integrate_refines_a_kink():
    f = lambda x: abs(x - 0.3)
    val = integrate(f, 0.0, 1.0, 1e-12)
    assert abs(val - (0.3 ** 2 / 2 + 0.7 ** 2 / 2)) < 1e-12


def test_integrate_blind_spot_and_split_calls():
    # every node of the seed panel [0, 1e4] lies beyond x = 40, where exp(-2x) < 1e-34:
    # K15 and G7 agree there, so the decay near 0 is never seen; split calls expose it
    f = lambda x: math.exp(-2.0 * x)
    assert integrate(f, 0.0, 1e4, tol=1e-9) < 1e-30
    parts = [integrate(f, lo, hi, tol=1e-9) for lo, hi in ((0.0, 1.0), (1.0, 10.0), (10.0, 1e4))]
    assert abs(sum(parts) - 0.5) <= 1e-8


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


def test_integrate_reports_accuracy_failure():
    jump = lambda x: 0.0 if x < 0.37151 else 1.0
    with pytest.raises(AccuracyError) as err:
        integrate(jump, 0.0, 1.0, 1e-30)
    assert err.value.achieved_error > 1e-30


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf),
                                  (math.nan, 1.0), (0.0, math.nan)])
def test_integrate_rejects_non_finite_limits(a, b):
    # (0, inf) used to return nan with a RuntimeWarning
    with pytest.raises(InvalidParameterError):
        integrate(lambda x: np.exp(-x), a, b, 1e-12)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-12])
def test_integrate_rejects_tol_not_positive_and_finite(tol):
    # nan used to spend the whole panel budget and end in AccuracyError; inf took the first pass
    with pytest.raises(InvalidParameterError):
        integrate(math.cos, 0.0, 1.0, tol)


def test_fourier_coefficients_of_a_line_at_every_integer():
    # integral of x e^{-2 pi i n x} over [0, 1]: 1/2 at n = 0, i / (2 pi n) otherwise;
    # rows far beyond P/2 alias onto the same FFT bins and stay exact
    ns = [-300, -37, -1, 0, 1, 5, 37, 300]
    vals = fourier_coefficients(lambda x: x, ns, 1e-13)
    exact = [0.5 if n == 0 else 1j / (2.0 * math.pi * n) for n in ns]
    assert np.abs(vals - exact).max() <= 1e-15


def test_fourier_coefficients_with_a_shift():
    # integral of e^{-2 pi i (n + s) x} = (1 - e^{-2 pi i (n + s)}) / (2 pi i (n + s))
    shift = 0.3
    ns = np.arange(-20, 21)
    nus = ns + shift
    exact = (1.0 - np.exp(-2j * math.pi * nus)) / (2j * math.pi * nus)
    vals = fourier_coefficients(lambda x: np.ones_like(x), ns, 1e-13, shift=shift)
    assert np.abs(vals - exact).max() <= 1e-14


def test_fourier_coefficients_doubles_a_grid_that_misses_tol():
    # the parabola's n = 1 row has |K15 - G7| = 3.5e-12 on the first grid (P = 2)
    sizes = []

    def parabola(x):
        sizes.append(x.size)
        return math.sqrt(30.0) * x * (1.0 - x)

    (val,) = fourier_coefficients(parabola, [1], 1e-12)
    assert sizes == [15 * 2, 15 * 4]
    assert abs(val + math.sqrt(30.0) / (2.0 * math.pi ** 2)) <= 1e-15


def test_fourier_coefficients_reports_accuracy_failure():
    kink = lambda x: np.abs(x - 0.37151)
    with pytest.raises(AccuracyError, match="n = 3") as err:
        fourier_coefficients(kink, [0, 3], [1.0, 1e-12])
    assert err.value.achieved_error > 1e-12


@pytest.mark.parametrize("ns, tol", [([], 1e-12), ([1.5], 1e-12), ([1, 2], 0.0), ([1], math.nan),
                                     ([1, 2], [1e-12, -1.0]), ([1, 2], [1e-12] * 3)])
def test_fourier_coefficients_rejects_bad_input(ns, tol):
    with pytest.raises(InvalidParameterError):
        fourier_coefficients(lambda x: x, ns, tol)


def agreement_extensions():
    return [named_extension(name) for name in ("dirichlet", "neumann", "periodic")] + [
        random_extension(np.random.default_rng(seed)) for seed in range(4)]


def test_reduced_positive_at_zero_is_the_np_sinc_limit():
    for ext in agreement_extensions():
        sp, cp = math.sin(ext.psi), math.cos(ext.psi)
        limit = 2.0 * (sp - ext.m1) - (cp + ext.m0)  # F/s at s = 0 with sinc(0) = 1
        f = _reduced_positive(ext)
        assert f(0.0) == limit and type(f(0.0)) is float


def test_rcoth_rcsch_far_range_and_zero():
    # r coth(r) and r csch(r) switch to r and 0 at r = 350, where both are exact in double
    # precision: the closed forms agree with them on either side of the switch
    for r in (25.0, 349.9, 350.0, 354.9, 700.0):
        assert type(_rcoth(r)) is float and type(_rcsch(r)) is float
        assert _rcoth(r) == r, r  # r + 2 r / (e^{2r} - 1): the second term is below ulp(r)
        tail = 2.0 * r * math.exp(-r)  # r csch(r) to 1 + e^{-2r}
        assert _rcsch(r) == 0.0 if r >= 350.0 else abs(_rcsch(r) - tail) <= 1e-15 * tail, r
    assert math.isnan(_rcoth(0.0)) and math.isnan(_rcsch(0.0))  # 0/0 at r = 0
