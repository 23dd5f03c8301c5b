import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from saext import (
    InvalidParameterError,
    expansion_coeff,
    expansion_coeff_quadrature,
    expansion_table,
    p_spectrum,
    uncertainty_product,
)

from conftest import gl_inner

SQRT30 = math.sqrt(30.0)


class TestSpectrum:
    def test_periodic_first_level(self):
        (state,) = p_spectrum(0.0, (1, 1))
        assert abs(state.eigenvalue - 2 * math.pi) < 1e-14

    def test_antiperiodic_half_integer(self):
        (state,) = p_spectrum(math.pi, (0, 0))
        assert abs(state.nu - 0.5) < 1e-14
        assert abs(state.eigenvalue - math.pi) < 1e-14

    def test_periodic_spectrum_symmetric(self):
        states = p_spectrum(0.0, (-5, 5))
        values = sorted(s.eigenvalue for s in states)
        assert np.allclose(values, -np.array(values[::-1]), atol=1e-12)

    def test_physical_units(self):
        (state,) = p_spectrum(0.0, (2, 2), hbar=3.0, length=2.0)
        assert abs(state.eigenvalue - 2 * math.pi * 3.0 * 2 / 2.0) < 1e-12

    def test_orthonormality_closed_form(self):
        # (phi_m, phi_n) = (e^{2 pi i (nu_n - nu_m)} - 1) / (2 pi i (nu_n - nu_m))
        for theta in (0.0, 1.0, math.pi, 5.0):
            states = p_spectrum(theta, (-10, 10))
            for a in states:
                for b in states:
                    d_nu = b.nu - a.nu
                    if a.n == b.n:
                        ip = 1.0 + 0j
                    else:
                        ip = (np.exp(2j * math.pi * d_nu) - 1.0) / (2j * math.pi * d_nu)
                    expected = 1.0 if a.n == b.n else 0.0
                    assert abs(ip - expected) < 1e-12

    def test_orthonormality_quadrature(self):
        for theta in (0.0, math.pi):
            states = p_spectrum(theta, (-3, 3))
            for a in states:
                for b in states:
                    ip = gl_inner(a.wavefunction, b.wavefunction)
                    expected = 1.0 if a.n == b.n else 0.0
                    assert abs(ip - expected) < 1e-12

    def test_empty_range_rejected(self):
        with pytest.raises(InvalidParameterError):
            p_spectrum(0.0, (3, 1))


class TestCoefficients:
    def test_c0_at_theta_zero(self):
        assert abs(expansion_coeff(0.0, 0) - SQRT30 / 6.0) < 1e-14

    def test_c1_at_theta_zero(self):
        assert abs(expansion_coeff(0.0, 1) + SQRT30 / (2 * math.pi ** 2)) < 1e-14

    def test_negative_n_at_theta_zero_matches_quadrature(self):
        for n in (-1, -2, -5):
            closed = expansion_coeff(0.0, n)
            quad = expansion_coeff_quadrature(0.0, n)
            assert abs(closed - quad) < 1e-10
            assert abs(closed - expansion_coeff(0.0, -n)) < 1e-14

    def test_theta_pi_n0_against_quadrature(self):
        closed = expansion_coeff(math.pi, 0)
        quad = expansion_coeff_quadrature(math.pi, 0)
        assert abs(closed - quad) < 1e-10

    @pytest.mark.parametrize("theta", [0.1, 1.0, math.pi, 5.0])
    def test_formula_vs_quadrature_grid(self, theta):
        # spot checks; the acceptance suite runs the full [-20, 20] grid
        for n in (-20, -13, -5, -1, 0, 1, 4, 11, 20):
            closed = expansion_coeff(theta, n, validate=False)
            quad = expansion_coeff_quadrature(theta, n)
            assert abs(closed - quad) <= 1e-9

    @pytest.mark.parametrize("theta", [1e-8, 2e-4, 1e-3, 2.4e-3, 2 * math.pi - 1e-2,
                                       2 * math.pi - 1e-3, 2 * math.pi - 1e-8])
    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_small_phase_no_cancellation(self, theta, n):
        # n = 0 near theta = 0 and n = -1 near theta = 2 pi have a = pi nu -> 0
        closed = expansion_coeff(theta, n, validate=True)
        (state,) = p_spectrum(theta, (n, n))
        ref = gl_inner(state.wavefunction, lambda x: SQRT30 * x * (1.0 - x))
        assert abs(closed - ref) <= 1e-12

    @pytest.mark.parametrize("n", [5000, 20000, -20000])
    def test_validated_at_large_n(self, n):
        # 2 |nu| seed panels exceed the refinement budget, and the phase round-off
        # (~eps |nu|) exceeds tol = 1e-12: the reference must still converge
        closed = expansion_coeff(1.0, n, validate=True)
        assert abs(closed - expansion_coeff_quadrature(1.0, n)) <= 1e-12

    def test_theta_dependence_is_physical(self):
        p0 = abs(expansion_coeff(0.0, 0)) ** 2
        p_pi = abs(expansion_coeff(math.pi, 0)) ** 2
        assert abs(p0 - p_pi) > 0.01


class TestExpansionTable:
    def test_parseval_defect_at_50(self):
        table = expansion_table(0.0, -50, 50)
        assert table.parseval_defect <= 1e-4

    def test_defect_decreases_like_cubed(self):
        defects = [expansion_table(0.7, -n, n).parseval_defect for n in (10, 20, 40)]
        assert defects[0] > defects[1] > defects[2]
        order1 = math.log(defects[0] / defects[1]) / math.log(2.0)
        order2 = math.log(defects[1] / defects[2]) / math.log(2.0)
        assert 2.5 <= order1 <= 3.5
        assert 2.5 <= order2 <= 3.5

    @given(theta=st.floats(min_value=0.0, max_value=6.28))
    def test_probabilities_nonnegative(self, theta):
        table = expansion_table(theta, -4, 4, validate=False)
        assert all(prob >= 0.0 for _, _, prob in table.entries)
        assert table.parseval_defect >= 0.0


class TestUncertainty:
    def test_eigenstate_product_evades_bound(self):
        for theta, n in ((0.0, 1), (math.pi, 0), (2.5, -3)):
            (state,) = p_spectrum(theta, (n, n))
            rep = uncertainty_product(state)
            assert rep.dP == 0.0
            assert abs(rep.dX - 1.0 / math.sqrt(12.0)) < 1e-10
            assert rep.product == 0.0 < 0.5
