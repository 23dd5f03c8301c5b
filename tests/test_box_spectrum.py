import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from saext import (
    BoxSpectrumRequest,
    DiagnosticError,
    ExtensionU2,
    IncompleteSpectrumError,
    InvalidParameterError,
    InvalidRootError,
    boundary_form,
    char_negative,
    char_positive,
    char_zero,
    degeneracy,
    eigenfunction,
    expanded_values,
    from_matrix,
    integrate,
    lm_matrices,
    named_extension,
    parse_extension,
    solve_spectrum,
    to_matrix,
    to_physical_energy,
)
from conftest import TAU1, gl_inner, random_extension


def solve(ext, count=10, **kwargs) -> "SpectrumResult":
    return solve_spectrum(BoxSpectrumRequest(ext=ext, count=count, **kwargs))


def modes_of(ext, result, max_modes=8):
    """First eigenfunctions ordered by eigenvalue, degenerate pairs expanded."""
    out = []
    for root in result.negative:
        fn = eigenfunction(ext, ("negative", root.value))
        out.append(fn)
        if fn.degenerate_partner is not None:
            out.append(fn.partner_function())
    if result.has_zero_mode:
        fn = eigenfunction(ext, ("zero", 0.0))
        out.append(fn)
        if fn.degenerate_partner is not None:
            out.append(fn.partner_function())
    for root in result.positive:
        fn = eigenfunction(ext, ("positive", root.value))
        out.append(fn)
        if fn.degenerate_partner is not None:
            out.append(fn.partner_function())
    return out[:max_modes]


def double_negative_extension(r, dm1=0.0):
    """U = L(ir) M(ir)^{-1}, so L - U M vanishes at s = ir: a double level E = -r^2.

    A nonzero dm1 shifts m1 (then renormalizes), splitting it into a close pair.
    """
    l_m, m_m = lm_matrices(1j * r)
    ext = from_matrix(l_m @ np.linalg.inv(m_m))
    if not dm1:
        return ext
    vec = np.array([ext.m0, ext.m[0] + dm1, ext.m[1], ext.m[2]])
    vec /= np.linalg.norm(vec)
    return ExtensionU2(psi=ext.psi, m0=float(vec[0]), m=tuple(float(x) for x in vec[1:]))


class TestBoundaryMatrices:
    def test_entries_at_pi(self):
        _, m_mat = lm_matrices(math.pi)
        expected = np.array(
            [[math.pi + 1, 1 - math.pi], [-(math.pi - 1), math.pi + 1]], dtype=complex
        )
        assert np.max(np.abs(m_mat - expected)) < 1e-12

    def test_determinant_formula(self):
        for s in (0.37, 1.3, 5.2):
            l_mat, m_mat = lm_matrices(s)
            det_m = np.linalg.det(m_mat)
            formula = 2 * (1j * (s * s + 1) * math.sin(s) - 2 * s * math.cos(s))
            assert abs(det_m - formula) < 1e-10
            assert abs(np.linalg.det(l_mat) + np.conj(det_m)) < 1e-10

    def test_determinant_vanishes_only_at_zero(self):
        _, m_mat = lm_matrices(1e-8)
        assert abs(np.linalg.det(m_mat)) < 1e-7
        for s in np.linspace(0.3, 20.0, 40):
            _, m_mat = lm_matrices(float(s))
            assert abs(np.linalg.det(m_mat)) > 1e-3


class TestCharacteristics:
    def test_dirichlet_reduces_to_sine(self):
        ext = named_extension("dirichlet")
        for s in (0.7, 2.0, 4.4):
            assert abs(char_positive(ext, s) - (-2.0 * math.sin(s))) < 1e-12

    def test_family2_form(self):
        ext = from_matrix(TAU1)
        for s in (0.7, 2.0, 4.4):
            assert abs(char_positive(ext, s) - 2.0 * s * (math.cos(s) - 1.0)) < 1e-12

    def test_char_matches_boundary_determinant(self, rng):
        # det(L - U M) = -4 i e^{i psi} F(s): same zeros, fixed nonvanishing factor
        for _ in range(20):
            ext = random_extension(rng)
            u = to_matrix(ext)
            for s in rng.uniform(0.2, 15.0, size=6):
                l_mat, m_mat = lm_matrices(float(s))
                det = np.linalg.det(l_mat - u @ m_mat)
                predicted = -4j * cmath.exp(1j * ext.psi) * char_positive(ext, float(s))
                assert abs(det - predicted) <= 1e-9 * (1.0 + abs(det))

    def test_zero_mode_indicator(self):
        assert abs(char_zero(named_extension("neumann"))) < 1e-14
        assert abs(char_zero(named_extension("dirichlet")) + 2.0) < 1e-14
        assert abs(char_zero(from_matrix(TAU1))) < 1e-14

    def test_zero_indicator_matches_zero_sector_determinant(self, rng):
        from saext.box_spectrum import _ZERO_LM

        l0, m0 = (np.reshape(entries, (2, 2)) for entries in _ZERO_LM)
        for _ in range(50):
            ext = random_extension(rng)
            det = np.linalg.det(l0 - to_matrix(ext) @ m0)
            predicted = -2.0 * cmath.exp(1j * ext.psi) * char_zero(ext)
            assert abs(det - predicted) <= 1e-10 * (1.0 + abs(det))

    def test_negative_family1_closed_form(self):
        for m0 in (-0.5, 0.0, 0.5):
            ext = ExtensionU2(psi=0.0, m0=m0, m=(0.0, math.sqrt(1 - m0 * m0), 0.0))
            r = math.sqrt((1 + m0) / (1 - m0))
            assert abs(char_negative(ext, r)) < 1e-10

    def test_negative_family2_has_no_roots(self):
        ext = from_matrix(TAU1)
        rs = np.linspace(0.01, 20.0, 100)
        assert np.all(char_negative(ext, rs) > 0)


class TestSolveSpectrum:
    def test_dirichlet(self):
        res = solve(named_extension("dirichlet"), count=3)
        assert not res.has_zero_mode and not res.negative
        values = expanded_values(res.positive)
        assert np.allclose(values, [math.pi, 2 * math.pi, 3 * math.pi], atol=1e-10)

    def test_neumann(self):
        res = solve(named_extension("neumann"), count=3)
        assert res.has_zero_mode and not res.negative
        assert np.allclose(
            expanded_values(res.positive), [math.pi, 2 * math.pi, 3 * math.pi], atol=1e-10
        )

    def test_periodic(self):
        res = solve(named_extension("periodic"), count=3)
        assert res.has_zero_mode
        assert [(round(r.value / math.pi, 8), r.multiplicity) for r in res.positive] == [
            (2.0, 2),
            (4.0, 2),
        ]

    def test_antiperiodic(self):
        res = solve(named_extension("antiperiodic"), count=4)
        assert not res.has_zero_mode and not res.negative
        assert [(round(r.value / math.pi, 8), r.multiplicity) for r in res.positive] == [
            (1.0, 2),
            (3.0, 2),
        ]

    def test_quasi_periodic_quarter(self):
        res = solve(named_extension("quasi_periodic", theta=math.pi / 2), count=4)
        expected = [math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2, 7 * math.pi / 2]
        assert np.allclose(expanded_values(res.positive), expected, atol=1e-10)

    def test_close_pair_quasi_periodic(self):
        res = solve(named_extension("quasi_periodic", theta=0.05), count=5)
        expected = [0.05, 2 * math.pi - 0.05, 2 * math.pi + 0.05,
                    4 * math.pi - 0.05, 4 * math.pi + 0.05]
        assert np.allclose(expanded_values(res.positive), expected, atol=1e-9)

    @pytest.mark.parametrize("theta", [1e-5, 2 * math.pi - 1e-5])
    def test_quasi_periodic_level_next_to_zero_is_kept(self, theta):
        # |Z| ~ 1.0e-10 is just above ZERO_MODE_TOL: E = 1e-10 is a level, not the zero mode
        res = solve(named_extension("quasi_periodic", theta=theta), count=8)
        assert not res.has_zero_mode
        expected = sorted(abs(2 * math.pi * n + theta) for n in range(-5, 5))[:8]
        values = expanded_values(res.positive)
        assert len(values) == 8
        for s, ref in zip(values, expected):
            assert abs(s - ref) <= 1e-9 * (1.0 + s)

    @pytest.mark.parametrize("field", [
        {"tol": math.nan}, {"tol": math.inf}, {"s_max_hint": math.inf},
        {"s_max_hint": math.nan}, {"s_max_cap": math.nan}, {"s_max_cap": math.inf},
    ])
    def test_request_rejects_non_finite(self, field):
        with pytest.raises(InvalidParameterError):
            BoxSpectrumRequest(ext=named_extension("dirichlet"), **field)

    @pytest.mark.parametrize("count", [2.5, math.nan, math.inf, "3"])
    def test_request_rejects_non_integer_count(self, count):
        with pytest.raises(InvalidParameterError):
            BoxSpectrumRequest(ext=named_extension("dirichlet"), count=count)

    def test_request_numpy_integer_count(self):
        req = BoxSpectrumRequest(ext=named_extension("dirichlet"), count=np.int64(3))
        assert req.count == 3 and type(req.count) is int

    def test_family1_negative_root(self):
        ext = ExtensionU2(psi=0.0, m0=0.0, m=(0.0, 1.0, 0.0))
        res = solve(ext, count=2)
        assert len(res.negative) == 1
        assert abs(res.negative[0].value - 1.0) < 1e-10

    def test_family1_near_boundary_m0_gives_large_root(self):
        m0 = 1.0 - 1e-5
        ext = ExtensionU2(psi=0.0, m0=m0, m=(0.0, math.sqrt(1 - m0 * m0), 0.0))
        res = solve(ext, count=1)
        expected = math.sqrt((1 + m0) / (1 - m0))
        assert len(res.negative) == 1
        assert abs(res.negative[0].value - expected) <= 1e-7 * expected

    @pytest.mark.parametrize("r", [29.9, 31.0, 40.0, 100.0, 500.0])
    def test_double_negative_level_in_the_tail(self, r):
        res = solve(double_negative_extension(r), count=1)
        assert [root.multiplicity for root in res.negative] == [2]
        assert abs(res.negative[0].value - r) <= 1e-8 * r

    @pytest.mark.parametrize("r", [40.0, 100.0])
    def test_close_negative_pair_in_the_tail(self, r):
        ext = double_negative_extension(r, dm1=1e-4)
        res = solve(ext, count=1)
        assert [root.multiplicity for root in res.negative] == [1, 1]
        # beyond r ~ 25 G(r)/sinh(r) is the quadratic c2 r^2 + c1 r + c0 to rounding
        c2 = math.cos(ext.psi) - ext.m0
        c1 = 2.0 * math.sin(ext.psi)
        c0 = -(math.cos(ext.psi) + ext.m0)
        q = -0.5 * (c1 + math.copysign(math.sqrt(c1 * c1 - 4.0 * c2 * c0), c1))
        roots = sorted((q / c2, c0 / q))
        for root, ref in zip(res.negative, roots):
            assert abs(root.value - ref) <= 1e-9 * ref


    def test_unresolved_tail_pair_is_reported(self):
        # |m| = 2e-8 splits the double level at r = 400 by ~3e-3, below what the
        # rounded quadratic resolves, while the rank test sees the split
        ext = ExtensionU2(psi=2.0 * math.atan(1.0 / 400.0), m0=1.0, m=(2e-8, 0.0, 0.0))
        with pytest.raises(DiagnosticError):
            solve(ext, count=1)

    def test_negative_count_bound(self, rng):
        for _ in range(200):
            ext = random_extension(rng)
            res = solve(ext, count=1)
            assert sum(r.multiplicity for r in res.negative) <= 2

    def test_m2_m3_spectral_invariance(self, rng):
        for _ in range(10):
            psi = rng.uniform(0, math.pi)
            vec = rng.normal(size=4)
            vec /= np.linalg.norm(vec)
            m0, m1 = vec[0], vec[1]
            rest = math.sqrt(max(1.0 - m0 * m0 - m1 * m1, 0.0))
            phis = rng.uniform(0, 2 * math.pi, size=2)
            spectra = []
            for phi in phis:
                ext = ExtensionU2(
                    psi=psi, m0=float(m0),
                    m=(float(m1), rest * math.cos(phi), rest * math.sin(phi)),
                )
                res = solve(ext, count=10)
                spectra.append(expanded_values(res.positive)[:10])
            assert np.allclose(spectra[0], spectra[1], atol=1e-9)

    def test_incomplete_spectrum_error(self):
        with pytest.raises(IncompleteSpectrumError) as err:
            solve(named_extension("dirichlet"), count=50, s_max_hint=10.0, s_max_cap=10.0)
        assert len(err.value.roots_found) == 3

    @pytest.mark.parametrize("name, kwargs", [
        ("quasiperiodic:0.2", {}), ("psi=0.4,m=(0.5,0.5,0.5,0.5)", {"count": 50}),
        ("periodic", {"s_max_hint": 1.0, "s_max_cap": 40.0}), ("dirichlet", {"s_max_cap": 3.5}),
    ])
    def test_plain_solves_scan_whole_steps(self, monkeypatch, name, kwargs):
        # the step is shortened only below one SCAN_STEP of span, so other roots keep their bits
        from saext import box_spectrum

        steps, scan = [], box_spectrum.scan_brackets
        monkeypatch.setattr(box_spectrum, "scan_brackets",
                            lambda f, lo, hi, step: steps.append(step) or scan(f, lo, hi, step))
        solve(parse_extension(name), **{"count": 1, **kwargs})
        assert steps and set(steps) == {box_spectrum.SCAN_STEP}

    def test_generic_branch_equations(self, rng):
        # roots obey tan(s/2) = [Q(s) +/- sqrt(D(s))] / (2 s (m1 + sin psi)) with
        # D = Q^2 + 4 s^2 (sin^2 psi - m1^2), Q = (m0 - cos psi) s^2 - (m0 + cos psi)
        for _ in range(10):
            ext = random_extension(rng)
            psi, m0, m1 = ext.psi, ext.m0, ext.m1
            res = solve(ext, count=8)
            for s in expanded_values(res.positive):
                q = (m0 - math.cos(psi)) * s * s - (m0 + math.cos(psi))
                disc = q * q + 4 * s * s * (math.sin(psi) ** 2 - m1 * m1)
                assert disc >= -1e-9 * (1 + q * q)
                sq = math.sqrt(max(disc, 0.0))
                scale = (1 + s * s) * 4
                best = min(
                    abs(2 * s * (m1 + math.sin(psi)) * math.sin(s / 2)
                        - (q + sign * sq) * math.cos(s / 2))
                    for sign in (+1.0, -1.0)
                )
                assert best <= 1e-7 * scale

    def test_half_angle_special_families(self):
        # m1 = -sin(psi) != 0: roots are odd multiples of pi or solve the cot form
        psi = 0.8
        m1 = -math.sin(psi)
        m0 = 0.3
        rest = math.sqrt(1 - m0 * m0 - m1 * m1)
        ext = ExtensionU2(psi=psi, m0=m0, m=(m1, rest, 0.0))
        res = solve(ext, count=8)
        for s in expanded_values(res.positive):
            q = (m0 - math.cos(psi)) * s * s - (m0 + math.cos(psi))
            cot_form = abs(2 * s * math.sin(psi) * math.cos(s / 2) + q * math.sin(s / 2))
            odd_pi = abs(math.cos(s / 2))
            assert min(odd_pi, cot_form / (4 * (1 + s * s))) <= 1e-8

        # m1 = +sin(psi) != 0: roots are even multiples of pi or solve the tan form
        m1 = math.sin(psi)
        ext = ExtensionU2(psi=psi, m0=m0, m=(m1, rest, 0.0))
        res = solve(ext, count=8)
        for s in expanded_values(res.positive):
            q = (m0 - math.cos(psi)) * s * s - (m0 + math.cos(psi))
            tan_form = abs(2 * s * math.sin(psi) * math.sin(s / 2) - q * math.cos(s / 2))
            even_pi = abs(math.sin(s / 2))
            assert min(even_pi, tan_form / (4 * (1 + s * s))) <= 1e-8


    def test_refinement_takes_one_batched_call_per_step(self, monkeypatch):
        """Dirichlet at count 200: one batched call per step while many brackets are live.

        Each refinement step evaluates f once per live bracket, so the points of all
        calls sum to the iterations.  A grid call serves at least _GRID_MIN_LIVE
        brackets; fewer finish on scalar calls, so there are at most max(iterations)
        grid calls.
        """
        from saext import box_spectrum
        from saext.numerics import _GRID_MIN_LIVE

        calls = []  # (grid call?, points) of every call of F/s
        reduced, refine = box_spectrum._reduced_positive, box_spectrum.refine_brackets

        def counted_reduced(ext):
            f = reduced(ext)
            return lambda s: calls.append((isinstance(s, np.ndarray), np.size(s))) or f(s)

        refined = []

        def counted_refine(brackets, f, tols):
            before = len(calls)
            reports = refine(brackets, f, tols)
            refined.append((calls[before:], reports))
            return reports

        monkeypatch.setattr(box_spectrum, "_reduced_positive", counted_reduced)
        monkeypatch.setattr(box_spectrum, "refine_brackets", counted_refine, raising=False)
        result = solve(named_extension("dirichlet"), count=200)

        assert len(result.positive) == 200
        positive = [(refine_calls, reports) for refine_calls, reports in refined if refine_calls]
        assert len(positive) == 1
        refine_calls, reports = positive[0]
        iterations = [rep.iterations for rep in reports]
        assert len(reports) >= 200 and min(iterations) >= 10
        assert sum(points for _, points in refine_calls) == sum(iterations)
        grid = [points for is_grid, points in refine_calls if is_grid]
        assert all(points >= _GRID_MIN_LIVE for points in grid)
        assert 0 < len(grid) <= max(iterations)


class TestLevelCountGuard:
    """0 <= N_U(E) - N_D(E) <= 2 against the Dirichlet count N_D(s^2) = floor(s / pi)."""

    @pytest.mark.parametrize("theta", [1.05e-8, 1.5e-8])
    def test_collapsed_quasi_periodic_pairs_raise(self, theta):
        # pairs 2 pi n +- theta closer than the merge distance come back as one level
        with pytest.raises(DiagnosticError, match="level count"):
            solve(named_extension("quasi_periodic", theta=theta), count=20)

    def test_theta_sweep_is_right_or_raises(self):
        """Near theta = 0 each returned spectrum is 2 pi n +- theta, or the solve raises."""
        raised = 0
        for theta in np.geomspace(1e-9, 1e-2, 100):
            theta = float(theta)
            levels = sorted([theta] + [2 * math.pi * n + sign * theta
                                       for n in range(1, 12) for sign in (-1, 1)])
            try:
                res = solve(named_extension("quasi_periodic", theta=theta), count=20)
            except DiagnosticError:
                raised += 1
                continue
            expected = levels[1:21] if res.has_zero_mode else levels[:20]
            values = expanded_values(res.positive)
            assert len(values) == 20, theta
            # below theta ~ 1e-8 a pair may come back as the double level 2 pi n
            assert np.allclose(values, expected, rtol=1e-9, atol=1e-9 + theta), theta
        assert 0 < raised < 10

    @pytest.mark.parametrize("name", ["dirichlet", "periodic", "antiperiodic"])
    def test_dropped_level_raises(self, monkeypatch, name):
        from saext import box_spectrum

        solve_positive = box_spectrum._solve_positive

        def drop_third(req):
            roots, ceiling = solve_positive(req)
            return roots[:2] + roots[3:], ceiling

        monkeypatch.setattr(box_spectrum, "_solve_positive", drop_third)
        with pytest.raises(DiagnosticError, match="level count"):
            solve(named_extension(name), count=8)


class TestEigenfunctions:
    def test_dirichlet_modes_are_sines(self):
        ext = named_extension("dirichlet")
        xs = np.linspace(0, 1, 101)
        for n in (1, 2, 3):
            fn = eigenfunction(ext, ("positive", n * math.pi))
            ref = math.sqrt(2.0) * np.sin(n * math.pi * xs)
            ratio = fn.value(xs[1:-1]) / ref[1:-1]
            phase = ratio[0]
            assert abs(abs(phase) - 1.0) < 1e-9
            assert np.max(np.abs(fn.value(xs) - phase * ref)) < 1e-9

    def test_neumann_modes_are_cosines(self):
        ext = named_extension("neumann")
        xs = np.linspace(0, 1, 101)
        fn0 = eigenfunction(ext, ("zero", 0.0))
        assert np.max(np.abs(np.abs(fn0.value(xs)) - 1.0)) < 1e-10
        for n in (1, 2):
            fn = eigenfunction(ext, ("positive", n * math.pi))
            ref = math.sqrt(2.0) * np.cos(n * math.pi * xs)
            phase = fn.value(xs[0]) / ref[0]
            assert np.max(np.abs(fn.value(xs) - phase * ref)) < 1e-9

    def test_quasi_periodic_modes_are_plane_waves(self):
        theta = 1.1
        ext = named_extension("quasi_periodic", theta=theta)
        xs = np.linspace(0, 1, 61)
        res = solve(ext, count=3)
        for root in res.positive:
            fn = eigenfunction(ext, ("positive", root.value))
            # the mode must be one of e^{+i s x}, e^{-i s x} up to a phase
            best = min(
                np.max(np.abs(fn.value(xs) - fn.value(xs[:1]) * np.exp(sign * 1j * root.value * xs)))
                for sign in (+1.0, -1.0)
            )
            assert best < 1e-9

    def test_normalization_by_quadrature(self, rng):
        for _ in range(10):
            ext = random_extension(rng)
            res = solve(ext, count=4)
            for fn in modes_of(ext, res, max_modes=6):
                norm = gl_inner(fn.value, fn.value).real
                assert abs(norm - 1.0) < 1e-10

    def test_boundary_conditions_hold(self, rng):
        for _ in range(10):
            ext = random_extension(rng)
            u = to_matrix(ext)
            res = solve(ext, count=4)
            for fn in modes_of(ext, res, max_modes=6):
                p0, dp0, p1, dp1 = fn.boundary_values()
                v_minus = np.array([dp0 - 1j * p0, dp1 + 1j * p1])
                v_plus = np.array([dp0 + 1j * p0, dp1 - 1j * p1])
                assert np.max(np.abs(v_minus - u @ v_plus)) < 1e-8

    def test_gram_matrix_identity(self, rng):
        for _ in range(8):
            ext = random_extension(rng)
            res = solve(ext, count=8)
            modes = modes_of(ext, res, max_modes=8)
            gram = np.array([[gl_inner(f.value, g.value) for g in modes] for f in modes])
            assert np.max(np.abs(gram - np.eye(len(modes)))) < 1e-8

    def test_parity_of_density_for_m3_zero(self, rng):
        xs = np.linspace(0.0, 1.0, 50)
        for _ in range(6):
            ext = random_extension(rng, m3=0.0)
            res = solve(ext, count=4)
            for fn in modes_of(ext, res, max_modes=4):
                left = np.abs(fn.value(xs)) ** 2
                right = np.abs(fn.value(1.0 - xs)) ** 2
                assert np.max(np.abs(left - right)) < 1e-8

    def test_reality_up_to_phase_for_m2_zero(self, rng):
        xs = np.linspace(0.0, 1.0, 50)
        for _ in range(6):
            ext = random_extension(rng, m2=0.0)
            res = solve(ext, count=4)
            for root in res.positive:
                if root.multiplicity > 1:
                    continue
                fn = eigenfunction(ext, ("positive", root.value))
                a, b = fn.coeffs
                assert abs(abs(a) - abs(b)) < 1e-8
                alpha = 0.5 * np.angle(a / np.conj(b)) if abs(b) > 0 else np.angle(a)
                vals = np.exp(-1j * alpha) * fn.value(xs)
                assert np.max(np.abs(vals.imag)) < 1e-8

    def test_invalid_root_rejected(self):
        ext = named_extension("dirichlet")
        with pytest.raises(InvalidRootError):
            eigenfunction(ext, ("positive", 3.0))
        with pytest.raises(InvalidRootError):
            eigenfunction(ext, ("zero", 0.0))
        # |Z| ~ 9e-10 > ZERO_MODE_TOL: solve_spectrum reports no zero mode either
        quasi = named_extension("quasi_periodic", theta=3e-5)
        assert not solve(quasi, count=1).has_zero_mode
        with pytest.raises(InvalidRootError):
            eigenfunction(quasi, ("zero", 0.0))

    @pytest.mark.parametrize("name,count", [
        ("periodic", 300), ("periodic", 5000), ("antiperiodic", 1000),
    ])
    def test_double_levels_at_large_s(self, name, count):
        ext = named_extension(name)
        res = solve(ext, count=count)
        assert all(root.multiplicity == 2 for root in res.positive)
        for root in res.positive:
            fn = eigenfunction(ext, ("positive", root.value))
            assert fn.degenerate_partner is not None

    @pytest.mark.parametrize("r", [5.0, 301.0, 650.0])
    def test_double_negative_modes(self, r):
        ext = double_negative_extension(r)
        r = solve(ext, count=1).negative[0].value
        fn = eigenfunction(ext, ("negative", r))
        assert fn.degenerate_partner is not None
        u = to_matrix(ext)
        decay = -math.expm1(-2.0 * r) / (2.0 * r)

        def inner(c1, c2):
            """<phi1, phi2> on [0, 1] for phi = A e^{rx} + B e^{-rx}, via the finite A e^{r}."""
            (a1, b1), (a2, b2) = c1, c2
            up1, up2 = a1 * math.exp(r), a2 * math.exp(r)
            cross = np.conj(a1) * b2 + np.conj(b1) * a2
            return (np.conj(up1) * up2 + np.conj(b1) * b2) * decay + cross

        pairs = [fn.coeffs, fn.degenerate_partner]
        for a, b in pairs:
            a_r, b_r = a * math.exp(r), b * math.exp(-r)
            p0, dp0, p1, dp1 = a + b, r * (a - b), a_r + b_r, r * (a_r - b_r)
            v_minus = np.array([dp0 - 1j * p0, dp1 + 1j * p1])
            v_plus = np.array([dp0 + 1j * p0, dp1 - 1j * p1])
            assert np.max(np.abs(v_minus - u @ v_plus)) < 1e-8
        gram = np.array([[inner(c1, c2) for c2 in pairs] for c1 in pairs])
        assert np.max(np.abs(gram - np.eye(2))) < 1e-10

    def test_no_svd_call(self, monkeypatch):
        negative = ExtensionU2(psi=0.0, m0=0.0, m=(0.0, 1.0, 0.0))
        cases = [
            (named_extension("dirichlet"), ("positive", math.pi)),
            (named_extension("periodic"), ("positive", 2.0 * math.pi)),
            (named_extension("neumann"), ("zero", 0.0)),
            (negative, ("negative", solve(negative, count=1).negative[0].value)),
            (double_negative_extension(5.0), ("negative", 5.0)),
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        for ext, (sector, value) in cases:
            fn = eigenfunction(ext, (sector, value))
            assert degeneracy(ext, sector, value) == (1 if fn.degenerate_partner is None else 2)

    def test_shifted_double_level_rejected(self):
        ext = named_extension("periodic")
        with pytest.raises(DiagnosticError):
            eigenfunction(ext, ("positive", 40 * math.pi * (1 + 1e-9)))


def extension_set(rng):
    """321 extensions: 300 random U(2) points, the four named conditions,
    quasi-periodic near its doubles and zero mode, m0 -> 1, exact double negative levels."""
    exts = [random_extension(rng) for _ in range(300)]
    exts += [named_extension(name) for name in ("dirichlet", "neumann", "periodic", "antiperiodic")]
    exts += [named_extension("quasi_periodic", theta=theta) for theta in
             (1e-5, 3e-5, 1e-4, 0.5, math.pi - 1e-3, math.pi, 2 * math.pi - 1e-5)]
    for k in range(2, 9):
        m0 = 1.0 - 10.0 ** -k
        exts.append(ExtensionU2(psi=0.0, m0=m0, m=(0.0, math.sqrt(1 - m0 * m0), 0.0)))
    exts += [double_negative_extension(r) for r in (5.0, 301.0, 650.0)]
    return exts


def svd_rule(ext, sector, value):
    """The rank-0 rule on np.linalg.svd: 2 when sigma_max(L - U M) <= 1e-8 max(|L|, |M|, 1).

    L and M are written out afresh: (A, B) of A e^{isx} + B e^{-isx}, the columns
    (e^{-rx}, e^{r(x-1)}) for E = -r^2, and (a, b) of a + b x for E = 0.
    """
    if sector == "positive":
        e_pos, e_neg = np.exp(1j * value), np.exp(-1j * value)
        l_m = [[value - 1, -value - 1], [(value + 1) * e_pos, -(value - 1) * e_neg]]
        m_m = [[value + 1, -value + 1], [(value - 1) * e_pos, -(value + 1) * e_neg]]
    elif sector == "negative":
        ir, em = 1j * value, math.exp(-value)
        l_m = [[ir - 1, (-ir - 1) * em], [(ir + 1) * em, -(ir - 1)]]
        m_m = [[ir + 1, (-ir + 1) * em], [(ir - 1) * em, -(ir + 1)]]
    else:
        l_m, m_m = [[-1j, 1], [1j, 1 + 1j]], [[1j, 1], [-1j, 1 - 1j]]
    l_m, m_m = np.array(l_m, dtype=complex), np.array(m_m, dtype=complex)
    scale = max(np.linalg.norm(l_m), np.linalg.norm(m_m), 1.0)
    sigma = np.linalg.svd(l_m - to_matrix(ext) @ m_m, compute_uv=False)[0]
    return 2 if sigma <= 1e-8 * scale else 1


def sample_matrices(rng):
    """Complex 2x2 matrices: random over six decades, rank 0 and near rank 1."""
    def normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    out = [normal(2, 2) * 10.0 ** rng.uniform(-3.0, 3.0) for _ in range(300)]
    out += [np.zeros((2, 2), dtype=complex)] + [1e-12 * normal(2, 2) for _ in range(20)]
    out += [np.outer(normal(2), normal(2)) + 10.0 ** rng.uniform(-14.0, -6.0) * normal(2, 2)
            for _ in range(100)]
    return out


class TestClosedFormRank:
    """The closed-form rank test and null vector, with np.linalg.svd as the reference."""

    def test_sigma_max_matches_svd(self, rng):
        from saext.box_spectrum import _sigma_max

        for mat in sample_matrices(rng):
            ref = np.linalg.svd(mat, compute_uv=False)[0]
            assert abs(_sigma_max(tuple(mat.ravel())) - ref) <= 1e-12 * ref

    def test_null_vector_residual(self, rng):
        from saext.box_spectrum import _null_vector

        for mat in sample_matrices(rng):
            sigma = np.linalg.svd(mat, compute_uv=False)
            vec = np.array(_null_vector(tuple(mat.ravel())))
            norm = np.linalg.norm(vec)
            assert norm >= sigma[0] / math.sqrt(2) * (1 - 1e-15)
            bound = (math.sqrt(2) * sigma[1] + 4 * np.finfo(float).eps * sigma[0]) * norm
            assert np.linalg.norm(mat @ vec) <= bound

    def test_degeneracy_matches_svd_rule_on_extension_set(self, rng):
        doubles = 0
        for ext in extension_set(rng):
            res = solve(ext, count=12)
            roots = [("negative", root) for root in res.negative]
            roots += [("positive", root) for root in res.positive]
            for sector, root in roots:
                assert root.multiplicity == svd_rule(ext, sector, root.value), (ext, root)
                assert degeneracy(ext, sector, root.value) == root.multiplicity
                doubles += root.multiplicity == 2
            if res.has_zero_mode:
                assert degeneracy(ext, "zero", 0.0) == svd_rule(ext, "zero", 0.0)
        assert doubles >= 20  # periodic, antiperiodic and the three double negative levels

    @pytest.mark.parametrize("r", [1e200, 1e300])
    def test_defect_stays_finite_at_huge_r(self, rng, r):
        from saext.box_spectrum import _defect, _sigma_max

        for _ in range(20):
            ext = random_extension(rng)
            entries = _defect(ext, "negative", r)
            assert all(cmath.isfinite(x) for x in entries)
            assert 0.0 < _sigma_max(entries) <= 2.0
            assert degeneracy(ext, "negative", r) == 1


def collocation_levels(ext, n=80):
    """Eigenvalues of -d^2/dx^2 on [0, 1] by Chebyshev collocation, sorted.

    Shares no code with the characteristic functions: n + 1 Chebyshev points
    and the differentiation matrix of Trefethen, Spectral Methods in MATLAB
    (2000), ch. 6-7, with the U(2) condition of Asorey, Ibort and Marmo
    (2005), (phi'(0) - i phi(0), phi'(1) + i phi(1)) = U (phi'(0) + i phi(0),
    phi'(1) - i phi(1)), as the two boundary rows of A phi = E B phi.
    """
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.where(np.arange(n + 1) % 2, -1.0, 1.0)
    c[[0, n]] *= 2.0
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    d *= 2.0                      # t = (x + 1)/2: row 0 is t = 1, row n is t = 0
    eye = np.eye(n + 1)
    pauli = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
             np.array([[1, 0], [0, -1]]))
    u = np.exp(1j * ext.psi) * (ext.m0 * np.eye(2) - 1j * sum(m * p for m, p in zip(ext.m, pauli)))
    a = -(d @ d).astype(complex)
    b = eye.astype(complex)
    a[[n, 0]] = (np.array([d[n] - 1j * eye[n], d[0] + 1j * eye[0]])
                 - u @ np.array([d[n] + 1j * eye[n], d[0] - 1j * eye[0]]))
    b[[n, 0]] = 0.0
    w = scipy.linalg.eig(a, b, right=False)
    return np.sort(w[np.isfinite(w)].real)


def solver_levels(ext, k=10):
    res = solve(ext, count=k)
    levels = [-root.value ** 2 for root in res.negative for _ in range(root.multiplicity)]
    if res.has_zero_mode:
        levels += [0.0] * degeneracy(ext, "zero", 0.0)
    levels += [s * s for s in expanded_values(res.positive)]
    return np.array(sorted(levels)[:k])


class TestCollocationOracle:
    def assert_matches(self, ext):
        mine = solver_levels(ext)
        ref = collocation_levels(ext)[: len(mine)]
        assert np.all(np.abs(mine - ref) <= 1e-7 * (1.0 + np.abs(mine))), (mine, ref)

    def test_random_extensions(self, rng):
        for _ in range(50):
            self.assert_matches(random_extension(rng))

    @pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-4])
    def test_large_negative_level_as_m0_tends_to_one(self, delta):
        m0 = 1.0 - delta
        self.assert_matches(ExtensionU2(psi=0.0, m0=m0, m=(0.0, math.sqrt(1 - m0 * m0), 0.0)))

    @pytest.mark.parametrize("theta", [
        0.0, 1e-5, 3e-5, math.pi - 1e-3, math.pi, math.pi + 1e-6, 2 * math.pi - 1e-5,
    ])
    def test_quasi_periodic_near_doubles_and_zero(self, theta):
        self.assert_matches(named_extension("quasi_periodic", theta=theta))

    def test_close_negative_pair_in_the_tail(self):
        self.assert_matches(double_negative_extension(40.0, dm1=1e-4))


class TestBoundaryForm:
    def test_dirichlet_pair_vanishes(self):
        ext = named_extension("dirichlet")
        f1 = eigenfunction(ext, ("positive", math.pi))
        f2 = eigenfunction(ext, ("positive", 2 * math.pi))
        assert abs(boundary_form(f1, f2)) < 1e-12

    def test_same_extension_pair_vanishes(self, rng):
        for _ in range(6):
            ext = random_extension(rng)
            res = solve(ext, count=3)
            modes = modes_of(ext, res, max_modes=3)
            for f1 in modes:
                for f2 in modes:
                    assert abs(boundary_form(f1, f2)) < 1e-10

    def test_against_direct_integration_by_parts(self):
        # psi = 3x^2 - 2x^3 has psi(0)=psi'(0)=psi'(1)=0, psi(1)=1
        ext = named_extension("dirichlet")
        phi = eigenfunction(ext, ("positive", math.pi))
        psi = SimpleNamespace(boundary_values=lambda: (0.0, 0.0, 1.0, 0.0))
        value = boundary_form(phi, psi)

        phi_dd = lambda x: -math.pi ** 2 * phi.value(x)      # -phi'' = E phi
        psi_val = lambda x: 3 * x ** 2 - 2 * x ** 3
        psi_dd = lambda x: 6.0 - 12.0 * x
        term1 = integrate(lambda x: np.conj(-phi_dd(x)) * psi_val(x), 0, 1, 1e-12)
        term2 = integrate(lambda x: np.conj(phi.value(x)) * (-psi_dd(x)), 0, 1, 1e-12)
        direct = (term1 - term2) / 2j
        assert abs(value - direct) < 1e-9
        _, _, _, dphi_l = phi.boundary_values()
        assert abs(value - (-np.conj(dphi_l) / 2j)) < 1e-12


class TestPhysicalEnergy:
    def test_positive(self):
        assert abs(to_physical_energy(math.pi, "positive", 1.0, 1.0, 0.5) - math.pi ** 2) < 1e-12

    def test_negative(self):
        assert abs(to_physical_energy(1.0, "negative", 1.0, 1.0, 0.5) + 1.0) < 1e-12

    def test_zero(self):
        assert to_physical_energy(0.0, "zero", 2.0, 1.0, 1.0) == 0.0

    def test_scaling(self):
        val = to_physical_energy(2.0, "positive", 3.0, 2.0, 5.0)
        assert abs(val - (4.0 / (2.0 * 5.0)) * (2.0 / 3.0) ** 2 * 5.0) < 1e-12 or val > 0
        assert abs(val - (2.0 ** 2 / (2 * 5.0)) * (2.0 / 3.0) ** 2) < 1e-12
