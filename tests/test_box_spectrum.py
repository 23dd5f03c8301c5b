import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest

from saext import (
    BoxSpectrumRequest,
    ExtensionU2,
    IncompleteSpectrumError,
    InvalidRootError,
    boundary_form,
    char_negative,
    char_positive,
    char_zero,
    eigenfunction,
    expanded_values,
    from_matrix,
    integrate,
    lm_matrices,
    named_extension,
    solve_spectrum,
    to_matrix,
    to_physical_energy,
)
from saext.extensions import TAU1

from conftest import gl_inner, random_extension


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
        from saext.box_spectrum import _zero_matrices

        l0, m0 = _zero_matrices()
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
