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
    scan_brackets,
)
from saext.box_spectrum import SCAN_STEP, _reduced_negative, _reduced_positive
from saext.numerics import fourier_coefficients
from saext.roots import TANGENCY_RTOL, _refine_extremum

from conftest import random_extension


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


@pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
                                    (0.0, math.nan)])
def test_scan_rejects_non_finite_ends(lo, hi):
    with pytest.raises(InvalidParameterError):
        scan_brackets(math.sin, lo, hi, 0.5)


def reference_scan(f, lo, hi, step, grid=None):
    """scan_brackets over an np.linspace grid, its values from grid(xs) (default f(xs))."""
    n = max(1, math.ceil((hi - lo) / step))
    xs = np.linspace(lo, hi, n + 1)
    ys = np.asarray((grid or f)(xs), dtype=float)
    brackets = []
    signs = np.sign(ys)
    for i in range(n):
        if signs[i] * signs[i + 1] < 0:
            brackets.append(Bracket(float(xs[i]), float(xs[i + 1]), float(ys[i]), float(ys[i + 1])))
        elif ys[i] == 0.0 and i > 0:
            h = (xs[i + 1] - xs[i]) * 1e-6
            fl, fr = float(f(xs[i] - h)), float(f(xs[i] + h))
            if fl * fr < 0:
                brackets.append(Bracket(float(xs[i] - h), float(xs[i] + h), fl, fr))
            else:
                brackets.append(Bracket(float(xs[i] - h), float(xs[i] + h), fl, fr,
                                        double_root=True, x_min=float(xs[i])))
    handled = []
    for i in range(1, n):
        if signs[i - 1] == signs[i] == signs[i + 1] != 0 and (
            abs(ys[i]) <= abs(ys[i - 1]) and abs(ys[i]) <= abs(ys[i + 1])
        ):
            a, b = float(xs[i - 1]), float(xs[i + 1])
            x_star = _refine_extremum(f, a, b, 1e-11 * max(1.0, abs(xs[i])))
            if x_star is None:
                continue
            if any(abs(x_star - seen) <= 1e-3 * step for seen in handled):
                continue
            handled.append(x_star)
            f_star = float(f(x_star))
            scale = max(abs(ys[i - 1]), abs(ys[i + 1]), 1e-300)
            if abs(f_star) <= TANGENCY_RTOL * scale:
                w = max(1e-9, 1e-7 * abs(x_star))
                brackets.append(Bracket(x_star - w, x_star + w, float(f(x_star - w)),
                                        float(f(x_star + w)), double_root=True, x_min=x_star))
            elif np.sign(f_star) != 0 and np.sign(f_star) != signs[i]:
                brackets.append(Bracket(a, x_star, float(ys[i - 1]), f_star))
                brackets.append(Bracket(x_star, b, f_star, float(ys[i + 1])))
    brackets.sort(key=lambda br: br.lo)
    return brackets


def assert_scan_matches_reference(f, lo, hi, step, grid=None):
    """Same brackets in the same order, every end, value, flag and x_min to the bit."""
    brackets = scan_brackets(f, lo, hi, step)
    reference = reference_scan(f, lo, hi, step, grid)
    assert [repr(br) for br in brackets] == [repr(br) for br in reference]
    return brackets


def grid_reduced_positive(ext):
    """F/s on an array through numpy's sin and sinc: the scan's grid values, to the bit."""
    sp, cp = math.sin(ext.psi), math.cos(ext.psi)
    at_zero, curvature = 2.0 * (sp - ext.m1), 4.0 * sp
    quadratic, constant = cp - ext.m0, cp + ext.m0
    return lambda s: (at_zero - curvature * np.sin(0.5 * s) * np.sin(0.5 * s)
                      - np.sinc(s / math.pi) * (quadratic * s * s + constant))


def pointwise(f):
    return lambda xs: [f(x) for x in xs.tolist()]


def test_scan_matches_cell_loops_on_random_u2_scans():
    rng = np.random.default_rng(20241019)
    exts = [random_extension(rng) for _ in range(300)] + [
        named_extension(name) for name in ("dirichlet", "neumann", "periodic", "antiperiodic")] + [
        named_extension("quasi_periodic", theta=theta) for theta in (1e-5, 1e-3, 2 * math.pi - 1e-5)]
    kinds = {"sign change": 0, "double root": 0}
    for ext in exts:
        for f, hi, grid in [(_reduced_positive(ext), 25 * math.pi, grid_reduced_positive(ext)),
                            (_reduced_negative(ext), 30.0, pointwise(_reduced_negative(ext)))]:
            for br in assert_scan_matches_reference(f, 1e-8, hi, SCAN_STEP, grid):
                kinds["double root" if br.double_root else "sign change"] += 1
    assert kinds["sign change"] >= 300 * 20 and kinds["double root"] >= 20


@pytest.mark.parametrize("name, theta", [("periodic", None), ("antiperiodic", None),
                                         ("quasi_periodic", 1e-3)])
def test_scan_matches_cell_loops_on_long_tangency_scans(name, theta):
    # a double level or a close pair every pi: hundreds of polished dips in one scan
    ext = named_extension(name) if theta is None else named_extension(name, theta=theta)
    brackets = assert_scan_matches_reference(_reduced_positive(ext), 1e-8, 1000.0, SCAN_STEP,
                                             grid_reduced_positive(ext))
    assert len(brackets) >= 150


@pytest.mark.parametrize("f, lo, hi, step, kinds", [
    # exact grid-node zeros, crossing and touching (nodes 0, 0.5, ..., 2)
    (lambda s: s - 1.0, 0.0, 2.0, 0.5, [False]),
    (lambda s: (s - 1.0) ** 2, 0.0, 2.0, 0.5, [True]),
    (lambda s: -((s - 1.0) ** 2), 0.0, 2.0, 0.5, [True]),
    # zeros at lo and at hi themselves are not bracketed
    (lambda s: s * (s - 2.0), 0.0, 2.0, 0.5, []),
    # a tangency between nodes
    (lambda s: (s - math.pi) ** 2, 2.0, 4.0, 0.1, [True]),
    # two crossings hidden inside one cell
    (lambda s: (s - 0.99) * (s - 1.01), 0.1, 2.0, 0.5, [False, False]),
    (lambda s: -(s - 0.99) * (s - 1.01), 0.1, 2.0, 0.5, [False, False]),
    # equal |f| at the adjacent nodes 1.0 and 1.5: both are dips of one extremum
    (lambda s: (s - 1.25) ** 2, 0.0, 2.0, 0.5, [True]),
    (lambda s: (s - 1.25) ** 2 - 0.01, 0.0, 2.0, 0.5, [False, False]),
    (lambda s: (s - 1.25) ** 2 + 0.01, 0.0, 2.0, 0.5, []),
    # one cell
    (lambda s: s - 0.3, 0.0, 1.0, 1.0, [False]),
])
def test_scan_matches_cell_loops_on_fixtures(f, lo, hi, step, kinds):
    brackets = assert_scan_matches_reference(f, lo, hi, step)
    assert [br.double_root for br in brackets] == kinds


def test_refine_sine_root_to_pi():
    (bracket,) = scan_brackets(math.sin, 3.0, 3.4, 0.2)
    report = refine_root(bracket, math.sin, tol=1e-12)
    assert abs(report.root - math.pi) <= 1e-12


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


def test_refine_stops_at_float_resolution():
    # the root lies between two adjacent floats and tol is below their spacing
    f = lambda x: x - 64.5 - 1e-15
    report = refine_root(Bracket(64.0, 65.0, f(64.0), f(65.0)), f, tol=1e-16)
    assert report.root in (64.5, math.nextafter(64.5, math.inf))
    edge = refine_root(Bracket(64.5, math.nextafter(64.5, math.inf), -1e-15, 1.3e-14), f, 1e-16)
    assert edge.root == 64.5 and edge.iterations == 0


def test_refine_double_root_at_the_extremum():
    f = lambda s: (s - 1.5) ** 2
    (bracket,) = scan_brackets(f, 1.0, 2.0, 0.2)
    assert bracket.double_root
    report = refine_root(bracket, f, tol=1e-12)
    assert abs(report.root - 1.5) < 1e-8
    assert report.residual == f(report.root) and report.iterations == 0


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
    (double,) = [br for br in scan_brackets(f, 1.0, 2.0, 0.2) if br.double_root]
    brackets = [
        Bracket(6.0, 6.5, f(6.0), f(6.5)),
        double,
        Bracket(0.0, 1.0, 0.0, f(1.0)),
        Bracket(3.0, 3.3, f(3.0), f(3.3)),
    ]
    reports = [refine_root(br, f, 1e-12) for br in brackets]
    assert reports[2].root == 0.0 and reports[2].iterations == 0
    for rep, root in zip(reports, [2 * math.pi, 1.5, 0.0, math.pi]):
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


def test_integrate_with_breakpoints():
    f = lambda x: abs(x - 0.3)
    val = integrate(f, 0.0, 1.0, 1e-12, breakpoints=(0.3,))
    assert abs(val - (0.3 ** 2 / 2 + 0.7 ** 2 / 2)) < 1e-12


def test_integrate_blind_spot_and_breakpoints():
    # every node of the seed panel [0, 1e4] lies beyond x = 40, where exp(-2x) < 1e-34:
    # K15 and G7 agree there, so the decay near 0 is never seen; breakpoints expose it
    f = lambda x: np.exp(-2.0 * x)
    assert integrate(f, 0.0, 1e4, tol=1e-9) < 1e-30
    assert abs(integrate(f, 0.0, 1e4, tol=1e-9, breakpoints=(1.0, 10.0)) - 0.5) <= 1e-8


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


def test_integrate_budget_counts_refinement_beyond_seed_panels():
    # 20000 seed panels exceed the refinement budget; only [0, 5e-5] needs bisection
    val = integrate(np.sqrt, 0.0, 1.0, 1e-12, breakpoints=[k / 20000 for k in range(1, 20000)])
    assert abs(val - 2.0 / 3.0) <= 1e-12


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


def test_reduced_negative_far_range_and_zero():
    # r coth(r) and r csch(r) switch to r and 0 at r = 350, where both are exact in double
    # precision, so G/sinh is the plain quadratic on either side of the switch
    for ext in agreement_extensions():
        sp, cp = math.sin(ext.psi), math.cos(ext.psi)
        g = _reduced_negative(ext)
        for r in (25.0, 349.9, 350.0, 354.9, 700.0):
            quadratic = (cp - ext.m0) * r * r + 2.0 * sp * r - (cp + ext.m0)
            assert type(g(r)) is float
            assert abs(g(r) - quadratic) <= 1e-9 * (1.0 + abs(quadratic)), r
        assert math.isnan(g(0.0))  # 0/0 in r coth(r) and r csch(r)
