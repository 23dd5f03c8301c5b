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
    refine_brackets,
    refine_root,
    scan_brackets,
)
from saext.box_spectrum import SCAN_STEP, _reduced_negative, _reduced_positive
from saext.numerics import TANGENCY_RTOL, _GRID_MIN_LIVE, fourier_coefficients
from saext.roots import _refine_extremum

from conftest import random_extension, well_parity_condition


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


def reference_scan(f, lo, hi, step):
    """scan_brackets as two Python loops over the grid cells, the form the masks replaced."""
    n = max(1, math.ceil((hi - lo) / step))
    xs = np.linspace(lo, hi, n + 1)
    ys = np.asarray(f(xs), dtype=float)
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


def assert_scan_matches_reference(f, lo, hi, step):
    """Same brackets in the same order, every end, value, flag and x_min to the bit."""
    brackets = scan_brackets(f, lo, hi, step)
    assert [repr(br) for br in brackets] == [repr(br) for br in reference_scan(f, lo, hi, step)]
    return brackets


def test_scan_matches_cell_loops_on_random_u2_scans():
    rng = np.random.default_rng(20241019)
    exts = [random_extension(rng) for _ in range(300)] + [
        named_extension(name) for name in ("dirichlet", "neumann", "periodic", "antiperiodic")] + [
        named_extension("quasi_periodic", theta=theta) for theta in (1e-5, 1e-3, 2 * math.pi - 1e-5)]
    kinds = {"sign change": 0, "double root": 0}
    for ext in exts:
        for f, hi in [(_reduced_positive(ext), 25 * math.pi), (_reduced_negative(ext), 30.0)]:
            for br in assert_scan_matches_reference(f, 1e-8, hi, SCAN_STEP):
                kinds["double root" if br.double_root else "sign change"] += 1
    assert kinds["sign change"] >= 300 * 20 and kinds["double root"] >= 20


@pytest.mark.parametrize("name, theta", [("periodic", None), ("antiperiodic", None),
                                         ("quasi_periodic", 1e-3)])
def test_scan_matches_cell_loops_on_long_tangency_scans(name, theta):
    # a double level or a close pair every pi: hundreds of polished dips in one scan
    ext = named_extension(name) if theta is None else named_extension(name, theta=theta)
    brackets = assert_scan_matches_reference(_reduced_positive(ext), 1e-8, 1000.0, SCAN_STEP)
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


def test_refine_stops_at_float_resolution():
    # the root lies between two adjacent floats and tol is below their spacing
    f = lambda x: x - 64.5 - 1e-15
    report = refine_root(Bracket(64.0, 65.0, f(64.0), f(65.0)), f, tol=1e-16)
    assert report.root in (64.5, math.nextafter(64.5, math.inf))
    edge = refine_root(Bracket(64.5, math.nextafter(64.5, math.inf), -1e-15, 1.3e-14), f, 1e-16)
    assert edge.root == 64.5 and edge.iterations == 0


def test_refine_double_root_hint():
    f = lambda s: (s - 1.5) ** 2
    (bracket,) = scan_brackets(f, 1.0, 2.0, 0.2)
    report = refine_root(bracket, f, tol=1e-12)
    assert report.multiplicity_hint == 2
    assert abs(report.root - 1.5) < 1e-8


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
def test_refiners_reject_malformed_input(bracket, tol):
    with pytest.raises(InvalidParameterError):
        refine_root(bracket, math.sin, tol)
    with pytest.raises(InvalidParameterError):
        refine_brackets([bracket], math.sin, [tol])


def test_refine_brackets_rejects_mismatched_tolerances():
    bracket = Bracket(3.0, 3.3, math.sin(3.0), math.sin(3.3))
    with pytest.raises(InvalidParameterError):
        refine_brackets([bracket, bracket], math.sin, [1e-12])


def assert_lockstep_matches_one_at_a_time(brackets, f, tols):
    together = refine_brackets(brackets, f, tols)
    assert together == [refine_root(br, f, tol) for br, tol in zip(brackets, tols)]
    return together


def merge_tols(brackets):
    """The per-bracket tolerances _merge_roots asks for."""
    return [1e-13 * max(1.0, abs(0.5 * (br.lo + br.hi))) for br in brackets]


def test_refine_brackets_matches_refine_root_on_random_u2_scans(rng):
    counts = [0, 0]
    for _ in range(50):
        ext = random_extension(rng)
        for i, (f, hi) in enumerate([(_reduced_positive(ext), 15 * math.pi),
                                     (_reduced_negative(ext), 30.0)]):
            brackets = scan_brackets(f, 1e-8, hi, SCAN_STEP)
            assert_lockstep_matches_one_at_a_time(brackets, f, merge_tols(brackets))
            counts[i] += len(brackets)
    assert counts[0] >= 50 * 12 and counts[1] >= 10


def test_refine_brackets_matches_refine_root_on_dirichlet_count_200():
    f = _reduced_positive(named_extension("dirichlet"))
    brackets = scan_brackets(f, 1e-8, 205 * math.pi, SCAN_STEP)
    reports = assert_lockstep_matches_one_at_a_time(brackets, f, merge_tols(brackets))
    assert [round(rep.root / math.pi) for rep in reports] == list(range(1, 205))


def test_refine_brackets_matches_refine_root_on_finite_well_levels():
    v0 = 1e3
    for even in (True, False):
        g = well_parity_condition(v0, even)
        brackets = []
        for n in range(1 if even else 2, int(v0 / math.pi) + 1, 2):
            eps = 1e-12 * (1.0 + n * math.pi)
            lo, hi = (n - 1) * math.pi + eps, n * math.pi - eps
            brackets.append(Bracket(lo, hi, g(lo), g(hi)))
        assert len(brackets) > 150
        assert_lockstep_matches_one_at_a_time(brackets, g, [1e-14] * len(brackets))


def test_refine_brackets_keeps_input_order_for_mixed_brackets():
    f = lambda s: np.sin(s) * (s - 1.5) ** 2
    (double,) = [br for br in scan_brackets(f, 1.0, 2.0, 0.2) if br.double_root]
    brackets = [
        Bracket(6.0, 6.5, f(6.0), f(6.5)),
        double,
        Bracket(0.0, 1.0, 0.0, f(1.0)),
        Bracket(3.0, 3.3, f(3.0), f(3.3)),
    ]
    reports = assert_lockstep_matches_one_at_a_time(brackets, f, [1e-12] * 4)
    assert [rep.multiplicity_hint for rep in reports] == [1, 2, 1, 1]
    assert reports[2].root == 0.0 and reports[2].iterations == 0
    for rep, root in zip(reports, [2 * math.pi, 1.5, 0.0, math.pi]):
        assert abs(rep.root - root) < 1e-8


def test_refine_brackets_accepts_scalar_only_callables():
    brackets = [Bracket(k * math.pi - 0.2, k * math.pi + 0.3, math.sin(k * math.pi - 0.2),
                        math.sin(k * math.pi + 0.3)) for k in (1, 2, 3)]
    reports = assert_lockstep_matches_one_at_a_time(brackets, math.sin, [1e-12] * 3)
    assert all(abs(rep.root - k * math.pi) <= 1e-12 for rep, k in zip(reports, (1, 2, 3)))


# with fewer than _GRID_MIN_LIVE brackets every one runs on scalar calls; with that many
# they share a grid, and the first grid call meets the NaN
@pytest.mark.parametrize("others", [0, 1, _GRID_MIN_LIVE - 1])
def test_refine_brackets_reports_non_finite_value_at_its_abscissa(others):
    f = lambda s: np.where((s > 6.0) & (s < 6.5), np.nan, np.sin(s))
    a, b, fa, fb = 6.0, 6.5, math.sin(6.0), math.sin(6.5)
    brackets = [Bracket(3.0, 3.3, math.sin(3.0), math.sin(3.3))] * others + [Bracket(a, b, fa, fb)]
    with pytest.raises(EvaluationError) as err:
        refine_brackets(brackets, f, [1e-12] * len(brackets))
    secant = b - fb * (b - a) / (fb - fa)  # the first abscissa the second bracket asks for
    assert err.value.abscissa == secant


class CountedCalls:
    """Wrap f; record the size of every grid call and count the scalar calls."""

    def __init__(self, f):
        self.f, self.grid, self.scalar = f, [], 0

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            self.grid.append(x.size)
        else:
            self.scalar += 1
        return self.f(x)


@pytest.mark.parametrize("size", [_GRID_MIN_LIVE - 1, _GRID_MIN_LIVE, _GRID_MIN_LIVE + 1, 205])
def test_refine_brackets_matches_refine_root_around_the_grid_threshold(size):
    ext = random_extension(np.random.default_rng(size))
    f = _reduced_positive(ext)
    brackets = [br for br in scan_brackets(f, 1e-8, 215 * math.pi, SCAN_STEP)
                if not br.double_root][:size]
    assert len(brackets) == size
    counted = CountedCalls(f)
    reports = refine_brackets(brackets, counted, merge_tols(brackets))
    assert reports == [refine_root(br, f, tol) for br, tol in zip(brackets, merge_tols(brackets))]
    assert sum(counted.grid) + counted.scalar == sum(rep.iterations for rep in reports)
    assert all(n >= _GRID_MIN_LIVE for n in counted.grid)
    assert bool(counted.grid) == (size >= _GRID_MIN_LIVE)

    sines = [Bracket(k * math.pi - 0.2, k * math.pi + 0.3, math.sin(k * math.pi - 0.2),
                     math.sin(k * math.pi + 0.3)) for k in range(1, size + 1)]
    reports = assert_lockstep_matches_one_at_a_time(sines, math.sin, [1e-12] * size)
    assert all(abs(rep.root - k * math.pi) <= 1e-12 * k for k, rep in enumerate(reports, 1))


def test_refine_brackets_of_nothing_is_empty():
    assert refine_brackets([], math.sin, []) == []


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


# Characteristic functions take a float or an array through the same IEEE
# operations; refine_brackets finishes its last live brackets on scalar calls
# after grid steps, so the two must agree to the bit.
def assert_scalar_matches_grid(f, xs):
    grid = f(np.array(xs))
    for x, in_grid in zip(xs, grid):
        scalar = f(x)
        assert type(scalar) is float
        assert scalar.hex() == float(f(np.array([x]))[0]).hex() == float(in_grid).hex(), x


def spread(lo, hi, count=200, seed=11):
    """Seeded points on [lo, hi]; libm and numpy round exp and expm1 apart on 5-10% of them."""
    return np.random.default_rng(seed).uniform(lo, hi, count).tolist()


def agreement_extensions():
    return [named_extension(name) for name in ("dirichlet", "neumann", "periodic")] + [
        random_extension(np.random.default_rng(seed)) for seed in range(4)]


def test_reduced_positive_scalar_matches_grid():
    for ext in agreement_extensions():
        assert_scalar_matches_grid(_reduced_positive(ext),
                                   [1e-8, 0.5, 3 * math.pi, 400.0] + spread(0.0, 60.0))


def test_reduced_positive_at_zero_is_the_np_sinc_limit():
    for ext in agreement_extensions():
        sp, cp = math.sin(ext.psi), math.cos(ext.psi)
        limit = 2.0 * (sp - ext.m1) - (cp + ext.m0)  # F/s at s = 0 with sinc(0) = 1
        f = _reduced_positive(ext)
        assert f(0.0) == limit and type(f(0.0)) is float
        assert f(np.array([0.0, 1.0]))[0] == limit


def test_reduced_positive_keeps_np_sinc_rounding():
    ext = random_extension(np.random.default_rng(7))
    sp, cp, m0, m1 = math.sin(ext.psi), math.cos(ext.psi), ext.m0, ext.m1
    s = np.random.default_rng(8).uniform(0.0, 200.0, 2000)
    sinc = np.sinc(s / math.pi)
    ref = 2.0 * (sp * np.cos(s) - m1) - sinc * (cp * (s * s + 1.0) - m0 * (s * s - 1.0))
    assert np.array_equal(_reduced_positive(ext)(s), ref)


def test_reduced_negative_scalar_matches_grid():
    rs = [1e-8, 1.0, 25.0, 349.9, 350.0, 354.9, 355.0, 700.0]  # 350: the far-range switch
    rs += spread(0.0, 1.0, 400) + spread(0.0, 30.0) + spread(340.0, 360.0, 20)
    rs += [0.0]  # 0/0 in coth and csch: nan on both paths
    for ext in agreement_extensions():
        with np.errstate(invalid="ignore"):
            assert_scalar_matches_grid(_reduced_negative(ext), rs)
