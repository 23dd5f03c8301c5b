import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from saext import (
    InvalidParameterError,
    finite_well_levels,
    infinite_limit_study,
    paradox_report,
    well_coefficients,
    wells,
)
from saext.wells import _HURWITZ_FROM, well_coefficient_quadrature

from conftest import well_parity_condition

SQRT15 = math.sqrt(15.0)


class TestCoefficients:
    def test_b1(self):
        assert abs(well_coefficients(1) - 8 * SQRT15 / math.pi ** 3) < 1e-14
        assert abs(well_coefficients(1) - 0.9992772459953) < 1e-12

    def test_b2(self):
        assert abs(well_coefficients(2) + 8 * SQRT15 / (27 * math.pi ** 3)) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_quadrature_oracle(self, n):
        assert abs(well_coefficients(n) - well_coefficient_quadrature(n)) < 1e-11
        assert type(well_coefficient_quadrature(n)) is float

    @pytest.mark.parametrize("n", [0, -2, 2.5, math.nan, math.inf])
    @pytest.mark.parametrize("coefficient", [well_coefficients, well_coefficient_quadrature])
    def test_level_index_must_be_a_positive_integer(self, coefficient, n):
        # 2.5 used to give a complex b_n, and the quadrature returned numbers for 0, -2 and 2.5
        with pytest.raises(InvalidParameterError, match="n must be"):
            coefficient(n)

    def test_parseval(self):
        n = np.arange(1, 10_001)
        total = np.sum((960.0 / math.pi ** 6) / (2 * n - 1) ** 6)
        assert abs(total - 1.0) <= 1e-9

    def test_parseval_tail_order(self):
        # 1 - sum_{n<=N} b_n^2 falls off like N^-5
        def defect(limit):
            n = np.arange(1, limit + 1)
            return 1.0 - float(np.sum((960.0 / math.pi ** 6) / (2 * n - 1) ** 6))

        defects = [defect(N) for N in (4, 8, 16, 32)]
        assert all(a > b > 0 for a, b in zip(defects, defects[1:]))
        orders = [math.log(a / b) / math.log(2.0) for a, b in zip(defects, defects[1:])]
        assert all(4.5 <= p <= 5.5 for p in orders)


class TestParadox:
    def test_single_term(self):
        rep = paradox_report(1)
        assert abs(rep.mean_E_series - 480.0 / math.pi ** 4) < 1e-12

    def test_converged_values(self):
        rep = paradox_report(10_000)
        assert abs(rep.mean_E_series - 5.0) < 1e-12
        assert abs(rep.mean_E2_series - 30.0) < 1e-3
        assert abs(rep.mean_E_direct - 5.0) < 1e-11
        assert abs(rep.mean_E2_direct - 30.0) < 1e-11

    def test_naive_value_is_exactly_zero(self):
        assert paradox_report(100).naive_E2 == 0.0

    def test_boundary_term_restores_the_balance(self):
        rep = paradox_report(100)
        assert abs(rep.mean_E2_direct - rep.naive_E2 - rep.boundary_term) <= 1e-10

    def test_series_within_tail_bound_of_direct(self):
        for terms in (10, 100, 1000):
            rep = paradox_report(terms)
            tail_e = (480.0 / math.pi ** 4) / (6.0 * (2 * terms - 1) ** 3)
            tail_e2 = (240.0 / math.pi ** 2) / (2.0 * (2 * terms - 1))
            assert abs(rep.mean_E_series - rep.mean_E_direct) <= tail_e
            assert abs(rep.mean_E2_series - rep.mean_E2_direct) <= tail_e2

    def test_delta_e(self):
        rep = paradox_report(100_000)
        assert abs(rep.delta_E - math.sqrt(5.0)) < 1e-4

    @pytest.mark.parametrize("terms", [2.5, float("nan"), float("inf"), 0, -3])
    def test_rejects_bad_terms(self, terms):
        with pytest.raises(InvalidParameterError):
            paradox_report(terms)

    def test_numpy_integer_terms(self):
        rep = paradox_report(np.int64(10))
        assert rep.terms_used == 10 and type(rep.terms_used) is int
        assert rep == paradox_report(10)

    # either side of the switch to the closed form, and far beyond any count a loop could add
    @pytest.mark.parametrize("terms", [1, 2, _HURWITZ_FROM - 1, _HURWITZ_FROM, _HURWITZ_FROM + 1,
                                       2 ** 15 - 1, 2 ** 15, 2 ** 15 + 1, 3 * 2 ** 15 + 7,
                                       10 ** 6, 10 ** 7, 10 ** 12, 2 ** 53])
    def test_series_match_hurwitz_partial_sums(self, terms):
        # sum_{n<=N} (2n-1)^-s = (1 - 2^-s) zeta(s) - 2^-s zeta(s, N + 1/2), to 40 digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            def odd_sum(s):
                return (1 - mpmath.mpf(2) ** -s) * mpmath.zeta(s) \
                    - mpmath.mpf(2) ** -s * mpmath.zeta(s, terms + mpmath.mpf(0.5))
            want_e = 480 / mpmath.pi ** 4 * odd_sum(4)
            want_e2 = 240 / mpmath.pi ** 2 * odd_sum(2)
            rep = paradox_report(terms)
            assert abs(rep.mean_E_series - want_e) <= 1e-14 * want_e
            assert abs(rep.mean_E2_series - want_e2) <= 1e-14 * want_e2

    def test_series_increase_across_the_switch(self):
        reps = [paradox_report(n) for n in range(_HURWITZ_FROM - 3, _HURWITZ_FROM + 4)]
        for a, b in zip(reps, reps[1:]):
            assert a.mean_E_series < b.mean_E_series
            assert a.mean_E2_series < b.mean_E2_series

    def test_series_memory_is_constant(self):
        tracemalloc.start()
        try:
            paradox_report(10 ** 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20


class TestFiniteWell:
    def test_deep_well_ground_state(self):
        v0 = 1000.0
        (level,) = finite_well_levels(v0, 1)
        # true deviation from the first-order law is 4 pi / v0^2 + O(v0^-3)
        deviation = level.kL - math.pi * (1 - 2.0 / v0)
        assert 3.9 * math.pi / v0 ** 2 <= deviation <= 4.05 * math.pi / v0 ** 2
        ratio = level.E / math.pi ** 2
        assert abs(ratio - (1.0 - 4.0 / v0)) <= 15.0 / v0 ** 2

    def test_transcendental_relation(self):
        for level in finite_well_levels(30.0, 6):
            k, r = level.kL, level.rhoL
            assert abs(math.tan(k) - 2 * k * r / (k * k - r * r)) < 1e-10

    def test_parity_relation(self):
        for level in finite_well_levels(30.0, 6):
            k, r = level.kL, level.rhoL
            assert abs(math.cos(k) + (r / k) * math.sin(k) - level.parity) < 1e-8

    def test_shallow_well_single_even_state(self):
        levels = finite_well_levels(1.0, 5)
        assert len(levels) == 1
        assert levels[0].parity == +1

    def test_level_count_oracle(self):
        # graphical count: dense sign-change scan of both parity conditions in their
        # original matching form, which the library no longer evaluates
        for v0 in (1.0, 4.0, 10.0, 25.0):
            grid = np.linspace(1e-9, v0 - 1e-9, 200_000)
            count = 0
            for even in (True, False):
                vals = well_parity_condition(v0, even)(grid)
                count += int(np.sum(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0))
            levels = finite_well_levels(v0, 50)
            assert len(levels) == count

    def test_wavefunction_continuity_at_walls(self):
        for level in finite_well_levels(12.0, 3):
            eps = 1e-9
            for wall in (0.0, 1.0):
                inside = level.wavefunction(np.clip(wall, eps, 1 - eps))
                left = level.wavefunction(wall - eps)
                right = level.wavefunction(wall + eps)
                assert abs(left - right) < 1e-6
                d_left = level.wavefunction_derivative(wall - eps)
                d_right = level.wavefunction_derivative(wall + eps)
                assert abs(d_left - d_right) < 1e-5

    def test_energy_monotone_toward_asymptote(self):
        v0s = [20.0, 50.0, 100.0, 500.0, 2000.0]
        energies = [finite_well_levels(v, 1)[0].E for v in v0s]
        assert all(a < b for a, b in zip(energies, energies[1:]))
        for v0, e in zip(v0s, energies):
            assert e < math.pi ** 2 * (1 - 4.0 / v0) + math.pi ** 2 * 20.0 / v0 ** 2

    @pytest.mark.parametrize("v0", [1e2, 1e3, 1e4])
    def test_high_levels_solve_the_exact_relation(self, v0):
        # levels >= 21 have kL > 64, where the float spacing exceeds refine_root's tol
        levels = finite_well_levels(v0, 25)
        assert len(levels) == 25
        for n, level in enumerate(levels, start=1):
            k = level.kL
            assert abs(k - (n * math.pi - 2.0 * math.asin(k / v0))) <= 1e-12 * k

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(InvalidParameterError):
            finite_well_levels(0.0, 3)

    @pytest.mark.parametrize("v0", [math.inf, math.nan])
    def test_rejects_non_finite_depth(self, v0):
        with pytest.raises(InvalidParameterError, match="positive and finite"):
            finite_well_levels(v0, 3)

    def test_deepest_well_still_resolves_every_level(self):
        # level n sits 2 n pi / v0 below n pi; rhoL = sqrt(v0 - k) sqrt(v0 + k) stays
        # finite at any finite v0, and the wall slope tends to the box's n pi sqrt(2)
        for v0 in (1e12, 1e13, 1e200, 1e300):
            levels = finite_well_levels(v0, 5)
            assert [lv.n for lv in levels] == [1, 2, 3, 4, 5]
            for lv in levels:
                n_pi = lv.n * math.pi
                assert n_pi - 2.0 * n_pi / v0 - 4 * math.ulp(n_pi) <= lv.kL <= n_pi
                slope = abs(lv.norm_const * lv.rhoL)
                assert abs(slope - n_pi * math.sqrt(2.0)) <= n_pi * math.sqrt(2.0) * (
                    4.0 / v0 + 1e-15)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_level_at_its_binding_threshold_is_returned(self, n):
        # v0 one float, or 1e-12, above the threshold (n-1) pi: level n is bound, with
        # kL between (n-1) pi and v0
        for v0 in (math.nextafter((n - 1) * math.pi, math.inf), (n - 1) * math.pi + 1e-12):
            levels = finite_well_levels(v0, n + 3)
            assert [lv.n for lv in levels] == list(range(1, n + 1))
            assert (n - 1) * math.pi <= levels[-1].kL <= v0

    @pytest.mark.parametrize("delta", [1e-10, 1e-8, 1e-7, 1e-6])
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_near_threshold_level_is_resolved(self, n, delta):
        # with delta = v0 - (n-1) pi, kL = (n-1) pi + 2 acos(kL/v0) puts the root
        # (n-1) pi delta^2 / 8 + O(v0^2 delta^3) below v0; roots are refined to a
        # bracket width of 1e-14
        v0 = (n - 1) * math.pi + delta
        levels = finite_well_levels(v0, n + 3)
        assert [lv.n for lv in levels] == list(range(1, n + 1))
        level = levels[-1]
        expected = v0 - (n - 1) * math.pi * delta ** 2 / 8.0
        assert abs(level.kL - expected) <= 1e-14 + 4 * math.ulp(v0) + v0 ** 2 * delta ** 3
        assert level.kL <= v0 and math.isfinite(level.norm_const)
        assert 0.0 <= level.norm_const <= math.sqrt(2.0 * level.rhoL)

    def test_level_count_just_off_threshold(self):
        assert len(finite_well_levels(2 * math.pi + 1e-3, 10)) == 3
        assert len(finite_well_levels(2 * math.pi, 10)) == 2

    @pytest.mark.parametrize("max_n", [2.5, math.nan, math.inf, 0, -1])
    def test_rejects_bad_max_n(self, max_n):
        with pytest.raises(InvalidParameterError):
            finite_well_levels(10.0, max_n)

    def test_numpy_integer_max_n(self):
        assert len(finite_well_levels(50.0, np.int64(7))) == 7


class TestInfiniteLimit:
    def test_deviation_second_order(self):
        study = infinite_limit_study([100.0, 1000.0, 10000.0], 1)
        assert all(1.9 <= p <= 2.1 for p in study.deviation_orders)

    def test_energy_first_order(self):
        study = infinite_limit_study([100.0, 1000.0, 10000.0], 1)
        assert abs(study.energy_order - 1.0) <= 0.1

    def test_energy_order_holds_in_deep_wells(self):
        # the gap (n pi)^2 - kL^2 is a few ulps of (n pi)^2 above v0 ~ 1e12 and 0 once
        # kL rounds to n pi; it is taken as 2 asin(kL/v0) (n pi + kL) instead
        study = infinite_limit_study([1e12, 1e13, 1e14, 1e15, 1e16], 3)
        assert all(abs(p - 1.0) < 1e-3 for p in study.energy_orders), study.energy_orders
        assert abs(infinite_limit_study([100.0, 1e300], 7).energy_order - 1.0) < 0.01

    def test_wall_value_scaling(self):
        study = infinite_limit_study([100.0, 1000.0, 10000.0], 1)
        for row in study.rows:
            ratio = row.wall_value * row.v0 / (math.pi * math.sqrt(2.0))
            assert abs(ratio - 1.0) < 20.0 / row.v0

    def test_wall_derivative_does_not_vanish(self):
        study = infinite_limit_study([100.0, 1000.0, 10000.0], 1)
        target = math.sqrt(2.0) * math.pi   # the Dirichlet-mode slope at the wall
        for row in study.rows:
            assert abs(row.wall_derivative - target) < 20.0 / row.v0

    def test_rejects_unordered_input(self):
        with pytest.raises(InvalidParameterError):
            infinite_limit_study([100.0, 50.0], 1)

    @pytest.mark.parametrize("n", [0, -2, 2.5])
    def test_rejects_bad_level(self, n):
        with pytest.raises(InvalidParameterError):
            infinite_limit_study([100.0, 1000.0], n)

    def test_rejects_non_finite_depth(self):
        with pytest.raises(InvalidParameterError, match="positive and finite"):
            infinite_limit_study([100.0, math.inf], 1)

    def test_deviation_matches_a_50_digit_solve(self):
        # kL - n pi (1 - 2/v0) from the parity condition at 50 digits; the plain
        # difference of two numbers near n pi loses up to all of its digits
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(400)
        with mpmath.workdps(50):
            for _ in range(400):
                v0 = float(10.0 ** rng.uniform(1.0, 11.0))
                n = int(rng.integers(1, min(30, math.ceil(v0 / math.pi)) + 1))
                (row,) = infinite_limit_study([v0], n).rows
                v = mpmath.mpf(v0)
                k = mpmath.findroot(well_parity_condition(v, n % 2 == 1, mpmath),
                                    mpmath.mpf(row.kL))
                want = k - n * mpmath.pi * (1 - 2 / v)
                assert abs(row.kL_deviation - want) <= 1e-12 * abs(want), (v0, n)

    @given(n=st.integers(min_value=1, max_value=60),
           log_v0s=st.lists(st.floats(min_value=2.3, max_value=11.0), min_size=1, max_size=4,
                            unique=True))
    def test_rows_equal_the_full_spectrum_bitwise(self, n, log_v0s):
        v0s = sorted(10.0 ** x for x in log_v0s)  # from 200 > 59 pi: level n is bound
        for v0, row in zip(v0s, infinite_limit_study(v0s, n).rows):
            level = finite_well_levels(v0, n)[n - 1]
            assert (row.kL, row.energy, row.wall_value, row.wall_derivative) == (
                level.kL, level.E, abs(level.norm_const), abs(level.norm_const * level.rhoL))

    @pytest.mark.parametrize("n", [1, 2, 30, 1000])
    def test_one_bracket_per_depth(self, monkeypatch, n):
        refine = wells.refine_root
        calls = []
        monkeypatch.setattr(wells, "refine_root",
                            lambda br, f, tol: calls.append(br) or refine(br, f, tol))
        infinite_limit_study([1e4, 1e5, 1e6], n)
        assert len(calls) == 3
