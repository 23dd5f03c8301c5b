import cmath
import math

import pytest
from hypothesis import given, strategies as st

from saext import (
    DeuteronParams,
    HalflineExtension,
    InvalidParameterError,
    bound_state,
    deuteron_sweep,
    deuteron_v0,
    integrate,
    reflection,
)

from conftest import deuteron_tan_form


class TestReflection:
    def test_lambda_zero_full_flip(self):
        r, big_r = reflection(0.0, 1.7)
        assert r == -1.0 and big_r == 1.0

    def test_lambda_one_k_two(self):
        r, big_r = reflection(1.0, 2.0)
        assert abs(r - (-(1 + 2j) / (1 - 2j))) < 1e-14
        assert abs(big_r - 1.0) < 1e-14

    def test_lambda_infinite(self):
        r, big_r = reflection(math.inf, 3.0)
        assert r == 1.0 and big_r == 1.0

    def test_unitarity_seeded(self, rng):
        lams = rng.standard_cauchy(1000) * 3.0
        lams[0], lams[1] = 0.0, math.inf
        ks = rng.uniform(1e-3, 50.0, size=1000)
        for lam, k in zip(lams, ks):
            _, big_r = reflection(float(lam), float(k))
            assert abs(big_r - 1.0) <= 1e-12

    @given(lam=st.floats(min_value=-1e6, max_value=1e6),
           k=st.floats(min_value=1e-6, max_value=1e6))
    def test_unitarity_hypothesis(self, lam, k):
        _, big_r = reflection(lam, k)
        assert abs(big_r - 1.0) <= 1e-12

    def test_rejects_nonpositive_k(self):
        with pytest.raises(InvalidParameterError):
            reflection(1.0, 0.0)

    @pytest.mark.parametrize("k", [math.nan, math.inf])
    def test_rejects_non_finite_k(self, k):
        with pytest.raises(InvalidParameterError):
            reflection(1.0, k)

    @pytest.mark.parametrize("lam, k", [(1e300, 1e300), (-1e300, 1e10)])
    def test_overflowing_lambda_k_takes_the_infinite_limit(self, lam, k):
        assert reflection(lam, k) == (complex(1.0), 1.0)

    @pytest.mark.parametrize("lam, k", [(1e154, 1e154), (-1.7e308, 1.0), (1e150, 3.0)])
    def test_large_finite_lambda_k_uses_the_formula(self, lam, k):
        assert reflection(lam, k)[0] == -(1.0 + 1j * lam * k) / (1.0 - 1j * lam * k)


class TestBoundState:
    def test_lambda_minus_one(self):
        state = bound_state(-1.0)
        assert abs(state.energy + 1.0) < 1e-14
        assert abs(state.amplitude - math.sqrt(2.0)) < 1e-14

    @pytest.mark.parametrize("lam", [-1e-160, -1e-320])
    def test_overflowing_energy_rejected(self, lam):
        with pytest.raises(InvalidParameterError, match="overflows"):
            bound_state(lam)

    def test_tiny_lambda_with_a_finite_energy_accepted(self):
        assert bound_state(-1e-154).energy == -1.0 / 1e-154 ** 2

    def test_absent_for_nonnegative_lambda(self):
        assert bound_state(1.0) is None
        assert bound_state(0.0) is None
        assert bound_state(math.inf) is None

    def test_normalized_by_quadrature(self):
        state = bound_state(-2.0)
        norm = integrate(lambda x: state.wavefunction(x) ** 2, 0.0, 60.0, 1e-12)
        assert abs(norm - 1.0) < 1e-10

    def test_boundary_condition_satisfied(self):
        for lam in (-0.5, -1.0, -7.3):
            state = bound_state(lam)
            phi0 = state.amplitude
            dphi0 = -state.amplitude / abs(lam)
            assert abs(phi0 - lam * dphi0) < 1e-12 * state.amplitude


class TestAlphaMap:
    """lambda = -tan(alpha/2) is the U(1) condition phi' - i phi = e^{i alpha} (phi' + i phi) at 0.

    For phi = e^{-ikx} + r e^{ikx} at k = 1 that condition reads e^{i alpha} = -1/r.
    """

    @staticmethod
    def reflection_at_alpha(alpha):
        lam = math.inf if alpha == math.pi else -math.tan(alpha / 2.0)
        return reflection(HalflineExtension(lam), 1.0)[0]

    def test_examples(self):
        assert self.reflection_at_alpha(0.0) == -1.0                 # Dirichlet, lambda = 0
        assert self.reflection_at_alpha(math.pi) == 1.0              # Neumann, lambda = inf
        r = self.reflection_at_alpha(3 * math.pi / 2)                # lambda = 1
        assert abs(r - reflection(1.0, 1.0)[0]) < 1e-15
        assert abs(r + 1j) < 1e-12

    def test_round_trip(self):
        for alpha in (0.0, 0.7, math.pi, 4.0, 5.9):
            back = cmath.phase(-1.0 / self.reflection_at_alpha(alpha)) % (2 * math.pi)
            assert abs(back - alpha) < 1e-9 or abs(back - alpha - 2 * math.pi) < 1e-9


class TestDeuteron:
    @pytest.mark.parametrize("name", ["binding_energy", "range_a", "hbar_c", "nucleon_mass_c2"])
    @pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
    def test_rejects_non_finite_constants(self, name, value):
        with pytest.raises(InvalidParameterError):
            DeuteronParams(**{name: value})

    def test_decay_parameter(self):
        p = DeuteronParams()
        assert abs(p.y - 0.4606477240) < 1e-9

    def test_wall_branch(self):
        sol = deuteron_v0(DeuteronParams(lam_over_a=0.0))
        assert math.pi / 2 < sol.X < math.pi
        assert abs(sol.V0 - 36.8) / 36.8 < 0.02

    def test_infinite_branch(self):
        sol = deuteron_v0(DeuteronParams(lam_over_a=math.inf))
        assert 0.0 < sol.X < math.pi / 2
        assert abs(sol.V0 - 6.34) / 6.34 < 0.02

    def test_residuals_and_identity(self):
        for ell in (0.0, 0.5, 2.0, 100.0, math.inf):
            sol = deuteron_v0(DeuteronParams(lam_over_a=ell))
            assert sol.residual <= 1e-10
            assert abs(sol.V0 / 2.2 - (1.0 + (sol.X / sol.Y) ** 2)) < 1e-12

    def test_sweep_monotone_decreasing(self):
        sols = deuteron_sweep(DeuteronParams(), [0, 0.1, 0.2, 0.5, 1, 2, 5, 10, 100, math.inf])
        v0s = [s.V0 for s in sols]
        assert all(a > b for a, b in zip(v0s, v0s[1:]))

    def test_sweep_matches_cold_start(self):
        ells = [0, 0.3, 1.0, 4.0, 50.0]
        swept = deuteron_sweep(DeuteronParams(), ells)
        cold = [deuteron_v0(DeuteronParams(lam_over_a=e)) for e in ells]
        for a, b in zip(swept, cold):
            assert abs(a.X - b.X) < 1e-12

    @pytest.mark.parametrize("ell", [0.0, 1e-300, 1e300, math.inf])
    def test_extreme_wall_parameters(self, ell):
        # atan(ell X) is 0 or pi/2 to the bit at these ell, and h(0) = -pi is given
        # outright, as ell * 0 is NaN at ell = inf; X is the tan-form root at 50 digits
        mpmath = pytest.importorskip("mpmath")
        sol = deuteron_v0(DeuteronParams(lam_over_a=ell))
        limit = deuteron_v0(DeuteronParams(lam_over_a=0.0 if ell < 1.0 else math.inf))
        assert sol.X == limit.X and 0.0 < sol.X < math.pi and sol.residual <= 4e-15
        with mpmath.workdps(50):
            tan_form = deuteron_tan_form(mpmath.mpf(sol.Y), mpmath.mpf(ell), mpmath)
            x = mpmath.findroot(tan_form, mpmath.mpf(sol.X))
            assert abs(sol.X - x) <= 4 * math.ulp(sol.X)

    def test_wall_matching(self):
        """phi_in = A sin(k x) + B cos(k x) meets C e^{-rho x} smoothly at x = a.

        The wall gives B = (lambda/a) X A (A = 0, B = 1 at lambda = inf); C
        matches the values, so the log-derivatives X phi_in'/phi_in and -Y must agree.
        """
        for ell in (0.0, 1.0, 10.0, math.inf):
            sol = deuteron_v0(DeuteronParams(lam_over_a=ell))
            x, y = sol.X, sol.Y
            a_c, b_c = (0.0, 1.0) if math.isinf(ell) else (1.0, ell * x)
            inside = a_c * math.sin(x) + b_c * math.cos(x)
            d_inside = x * (a_c * math.cos(x) - b_c * math.sin(x))   # d/d(x/a) at the wall
            assert abs(d_inside + y * inside) <= 1e-10

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            DeuteronParams(binding_energy=-1.0)
        with pytest.raises(InvalidParameterError):
            DeuteronParams(lam_over_a=-0.5)

    @pytest.mark.parametrize("ell", [math.nan, -1.0])
    def test_sweep_validates_each_lambda(self, ell):
        with pytest.raises(InvalidParameterError):
            deuteron_sweep(DeuteronParams(), [1.0, ell])


class TestHalflineExtensionType:
    def test_accepts_infinity(self):
        assert HalflineExtension(math.inf).is_infinite

    def test_rejects_nan(self):
        with pytest.raises(InvalidParameterError):
            HalflineExtension(math.nan)
