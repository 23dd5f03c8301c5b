import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import IntegrationWarning, quad

from saext import (
    DiagnosticError,
    InvalidParameterError,
    expansion_coeff,
    expansion_coeff_quadrature,
    expansion_table,
    momentum,
    numerics,
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

    @pytest.mark.parametrize("n_range", [(0.5, 2), (0, 2.0), ("0", 2)])
    def test_non_integer_range_rejected(self, n_range):
        with pytest.raises(InvalidParameterError, match="integers"):
            p_spectrum(0.0, n_range)

    @pytest.mark.parametrize("name", ["hbar", "length"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_non_positive_scale_rejected(self, name, value):
        with pytest.raises(InvalidParameterError, match=name):
            p_spectrum(0.0, (-2, 2), **{name: value})


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


def adaptive_quadrature(theta, n):
    """(phi_n, Psi) row by row by QUADPACK's QAWO (scipy), independent of both saext kernels.

    The cos and sin parts are each held to 2e-14 absolute: 1e-14 raises an
    IntegrationWarning (round-off) near nu = 0, and here a warning fails the test.
    """
    omega = 2.0 * math.pi * (n + theta / (2.0 * math.pi))
    parabola = lambda x: SQRT30 * x * (1.0 - x)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        re, _ = quad(parabola, 0.0, 1.0, weight="cos", wvar=omega, epsabs=2e-14, epsrel=0.0)
        im, _ = quad(parabola, 0.0, 1.0, weight="sin", wvar=omega, epsabs=2e-14, epsrel=0.0)
    return complex(re, -im)


class TestBatchedQuadrature:
    @pytest.mark.parametrize("theta", [0.0, 1e-3, 1.0, math.pi, 2 * math.pi - 0.01])
    def test_table_rows_agree_with_adaptive_quadrature(self, theta):
        ns = list(range(-2000, 2001))
        rows = momentum._quadrature_rows(theta, ns)
        for n in (-2000, -1999, -1000, -21, -1, 0, 1, 2, 20, 999, 1999, 2000):
            assert abs(rows[n + 2000] - adaptive_quadrature(theta, n)) <= 1e-13
        closed = [expansion_coeff(theta, n, validate=False) for n in ns]
        assert np.abs(rows - closed).max() <= 1e-13

    @pytest.mark.parametrize("theta", [0.0, 1.0, 2 * math.pi - 0.01])
    @pytest.mark.parametrize("n", [-20000, 20000])
    def test_single_row_agrees_with_adaptive_quadrature(self, theta, n):
        assert abs(expansion_coeff_quadrature(theta, n) - adaptive_quadrature(theta, n)) <= 1e-13

    def test_table_names_the_row_that_disagrees(self, monkeypatch):
        exact = momentum._coeff_row

        def wrong_at_seven(n, shift, sin_half, cos_half):
            return exact(n, shift, sin_half, cos_half) + (1e-9 if n == 7 else 0.0)

        monkeypatch.setattr(momentum, "_coeff_row", wrong_at_seven)
        with pytest.raises(DiagnosticError, match=r"n=7\)"):
            expansion_table(1.0, -10, 10)
        assert len(expansion_table(1.0, -10, 10, validate=False).entries) == 21

    @pytest.mark.parametrize("panels", [512, 1024, 2048, 8192])
    def test_fft_blocks_agree_with_one_block(self, monkeypatch, panels):
        # rows reaching |nu| ~ panels / 2 - 1 give a grid of `panels` panels, which
        # _FFT_BLOCK splits into node blocks (4 + 4 + 4 + 3 at P = 1024); one block
        # of all 15 nodes is the reference
        half = panels // 2 - 1
        ns = list(range(-half, half + 1, max(1, half // 200)))
        blocked = momentum._quadrature_rows(1.0, ns)
        monkeypatch.setattr(numerics, "_FFT_BLOCK", 15 * panels)
        single = momentum._quadrature_rows(1.0, ns)
        assert np.abs(blocked - single).max() <= 1e-15

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_quadrature_tol_must_be_positive_and_finite(self, tol):
        # the phase floor 8 eps |nu| used to replace a tol of 0 or -1 and return a value
        with pytest.raises(InvalidParameterError, match="tol"):
            expansion_coeff_quadrature(1.0, 3, tol)

    def test_large_row_memory(self):
        # one grid of P = 2^18 panels, a node at a time (the row-by-row route took 130 MB)
        tracemalloc.start()
        try:
            expansion_coeff_quadrature(1.0, 10 ** 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40e6

    def test_large_table_memory(self):
        # the heaviest table of the quadrature benchmark: 681 rows on a 1024-panel grid
        expansion_table(1.3, -340, 340)
        tracemalloc.start()
        try:
            expansion_table(1.3, -340, 340)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 640 * 1024


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

    @pytest.mark.parametrize("length", [0.01, 1.0, 2.5, 100.0])
    def test_one_pass_per_state(self, monkeypatch, length):
        calls = []
        exact = numerics.integrate

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return exact(*args, **kwargs)

        monkeypatch.setattr(numerics, "integrate", counted)
        for theta in (0.0, 1.0, math.pi, 5.0, 6.28):
            for state in p_spectrum(theta, (-300, 300)):
                del calls[:]
                rep = uncertainty_product(state, length)
                assert calls == [(0.0, length)]
                assert abs(rep.dX - length / math.sqrt(12.0)) <= 1e-15 * length

    @pytest.mark.parametrize("length", [0.0, -1.0, math.nan, math.inf])
    def test_bad_length_named(self, length):
        (state,) = p_spectrum(0.0, (1, 1))
        with pytest.raises(InvalidParameterError, match="length"):
            uncertainty_product(state, length)
