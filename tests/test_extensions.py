import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from saext import (
    DiagnosticError,
    ExtensionU2,
    IntervalKind,
    InvalidParameterError,
    OperatorKind,
    SimpleFamily,
    classify_simple_family,
    deficiency_indices,
    from_matrix,
    is_parity_preserving,
    is_time_reversal,
    named_extension,
    parse_extension,
    to_matrix,
    verify_deficiency,
)
from saext.extensions import CLASSIFY_TOL, _log_integral
from conftest import TAU1, TAU2, TAU3, random_extension


class TestMatrixMaps:
    def test_identity(self):
        e = ExtensionU2(psi=0.0, m0=1.0, m=(0, 0, 0))
        assert np.allclose(to_matrix(e), np.eye(2), atol=1e-14)

    def test_minus_identity(self):
        e = ExtensionU2(psi=0.0, m0=-1.0, m=(0, 0, 0))
        assert np.allclose(to_matrix(e), -np.eye(2), atol=1e-14)

    def test_tau1(self):
        e = ExtensionU2(psi=math.pi / 2, m0=0.0, m=(1, 0, 0))
        assert np.allclose(to_matrix(e), TAU1, atol=1e-14)

    def test_matches_pauli_sum(self, rng):
        # the defining sum U = e^{i psi} (m0 I - i m.tau), entry by entry
        for _ in range(200):
            e = random_extension(rng)
            m_dot_tau = e.m1 * TAU1 + e.m2 * TAU2 + e.m3 * TAU3
            u = cmath.exp(1j * e.psi) * (e.m0 * np.eye(2) - 1j * m_dot_tau)
            assert np.max(np.abs(to_matrix(e) - u)) <= 4e-16

    def test_from_identity(self):
        e = from_matrix(np.eye(2, dtype=complex))
        assert abs(e.psi) < 1e-14 and abs(e.m0 - 1.0) < 1e-14

    def test_from_tau1(self):
        e = from_matrix(TAU1)
        assert abs(e.psi - math.pi / 2) < 1e-14
        assert abs(e.m1 - 1.0) < 1e-14 and abs(e.m0) < 1e-14

    @pytest.mark.parametrize("theta", [0.3, 1.0, 2.5, 4.0])
    def test_from_antidiagonal(self, theta):
        u = np.array([[0, cmath.exp(-1j * theta)], [cmath.exp(1j * theta), 0]])
        e = from_matrix(u)
        assert abs(e.psi - math.pi / 2) < 1e-12
        assert abs(e.m0) < 1e-12 and abs(e.m3) < 1e-12
        assert abs(e.m1 - math.cos(theta)) < 1e-12
        assert abs(e.m2 - math.sin(theta)) < 1e-12

    def test_round_trip_seeded(self, rng):
        for _ in range(1000):
            e = random_extension(rng)
            u = to_matrix(e)
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) <= 1e-12
            u2 = to_matrix(from_matrix(u))
            assert np.max(np.abs(u2 - u)) <= 1e-10

    @given(
        psi=st.floats(min_value=0.05, max_value=math.pi - 0.05),
        raw=st.tuples(*(st.floats(min_value=-1, max_value=1) for _ in range(4))),
    )
    def test_round_trip_hypothesis(self, psi, raw):
        vec = np.array(raw)
        norm = np.linalg.norm(vec)
        if norm < 1e-3:
            return
        vec = vec / norm
        e = ExtensionU2(psi=psi, m0=float(vec[0]), m=tuple(float(v) for v in vec[1:]))
        u2 = to_matrix(from_matrix(to_matrix(e)))
        assert np.max(np.abs(u2 - to_matrix(e))) <= 1e-10

    def test_antipodal_canonicalization(self, rng):
        for _ in range(50):
            e = random_extension(rng)
            flipped = ExtensionU2(
                psi=e.psi + math.pi, m0=-e.m0, m=(-e.m1, -e.m2, -e.m3)
            )
            assert np.max(np.abs(to_matrix(flipped) - to_matrix(e))) <= 1e-12
            assert 0.0 <= flipped.psi < math.pi

    def test_sphere_violation_rejected(self):
        with pytest.raises(InvalidParameterError):
            ExtensionU2(psi=0.0, m0=1.0, m=(1e-4, 0, 0))
        # within 1e-9 is renormalized silently
        e = ExtensionU2(psi=0.0, m0=1.0 + 5e-10, m=(0, 0, 0))
        assert abs(e.m0 - 1.0) < 1e-12

    def test_from_matrix_rejects_non_unitary(self):
        with pytest.raises(InvalidParameterError):
            from_matrix(np.array([[1.0, 0.1], [0.0, 1.0]], dtype=complex))

    def test_m_with_two_components_rejected(self):
        with pytest.raises(InvalidParameterError, match="three components"):
            ExtensionU2(psi=0, m0=1, m=(0, 0))

    def test_non_numeric_m0_rejected(self):
        with pytest.raises(InvalidParameterError, match="m0 must be a real number"):
            ExtensionU2(psi=0, m0="x", m=(0, 0, 0))

    def test_from_matrix_rejects_nan_entries(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="finite"):
                from_matrix(np.full((2, 2), np.nan, dtype=complex))

    def test_from_matrix_accepts_rows(self):
        assert from_matrix(((0, 1), (1, 0))) == from_matrix(TAU1)
        with pytest.raises(InvalidParameterError, match="2x2"):
            from_matrix(((1, 0), (0, 1), (0, 0)))


class TestDeficiency:
    TABLE = {
        (OperatorKind.MOMENTUM, IntervalKind.FULL_LINE): ((0, 0), "unique"),
        (OperatorKind.MOMENTUM, IntervalKind.SEMI_AXIS): ((1, 0), "none"),
        (OperatorKind.MOMENTUM, IntervalKind.FINITE_BOX): ((1, 1), "unitary"),
        (OperatorKind.HAMILTONIAN, IntervalKind.FULL_LINE): ((0, 0), "unique"),
        (OperatorKind.HAMILTONIAN, IntervalKind.SEMI_AXIS): ((1, 1), "unitary"),
        (OperatorKind.HAMILTONIAN, IntervalKind.FINITE_BOX): ((2, 2), "unitary"),
    }

    @pytest.mark.parametrize("op,iv", sorted(TABLE, key=str))
    def test_table(self, op, iv):
        (n_plus, n_minus), kind = self.TABLE[(op, iv)]
        rep = deficiency_indices(op, iv)
        assert (rep.n_plus, rep.n_minus) == (n_plus, n_minus)
        assert rep.family.kind == kind
        if kind == "unitary":
            assert rep.family.real_parameters == n_plus ** 2

    def test_momentum_semi_axis_has_no_extension(self):
        rep = deficiency_indices(OperatorKind.MOMENTUM, IntervalKind.SEMI_AXIS)
        assert rep.family.describe() == "no self-adjoint extension"

    def test_box_hamiltonian_is_u2(self):
        rep = deficiency_indices(OperatorKind.HAMILTONIAN, IntervalKind.FINITE_BOX)
        assert rep.family.describe() == "U(2) family (4 real parameters)"

    @pytest.mark.parametrize("op,iv", sorted(TABLE, key=str))
    def test_numerical_verification_matches_table(self, op, iv):
        (n_plus, n_minus), _ = self.TABLE[(op, iv)]
        assert verify_deficiency(op, iv, d_or_k0=1.0, cutoff=10.0) == (n_plus, n_minus)

    @pytest.mark.parametrize("iv", [IntervalKind.SEMI_AXIS, IntervalKind.FULL_LINE])
    def test_numerical_verification_near_float_overflow(self, iv):
        # at cutoff 250, |psi|^2 = e^(sqrt(2) x) reaches 1.3e307 on the doubled window
        want, _ = self.TABLE[(OperatorKind.HAMILTONIAN, iv)]
        assert verify_deficiency(OperatorKind.HAMILTONIAN, iv, d_or_k0=1.0, cutoff=250.0) == want

    @pytest.mark.parametrize("cutoff", [10.0, 200.0, 260.0, 1e6, 1e300])
    @pytest.mark.parametrize("op,iv", sorted(TABLE, key=str))
    def test_large_cutoff_decides(self, op, iv, cutoff):
        # |psi|^2 would overflow on the doubled window from cutoff 178 (momentum, d = 1) and
        # 251 (-D^2, k0 = 1), and the decaying integrals underflow at 1e6; their logs do not
        rep = deficiency_indices(op, iv)
        assert verify_deficiency(op, iv, d_or_k0=1.0, cutoff=cutoff) == (rep.n_plus, rep.n_minus)

    @pytest.mark.parametrize("op,iv", sorted(TABLE, key=str))
    def test_strings_and_enums_agree(self, op, iv):
        (n_plus, n_minus), _ = self.TABLE[(op, iv)]
        for args in ((op, iv), (op.value, iv.value), (op.value, iv), (op, iv.value)):
            rep = deficiency_indices(*args)
            assert (rep.n_plus, rep.n_minus) == (n_plus, n_minus), args
            assert verify_deficiency(*args, 1.0, 10.0) == (n_plus, n_minus), args

    @pytest.mark.parametrize("op, iv", [("momentum", "halfline"), ("position", "semi_axis"),
                                        (None, IntervalKind.FINITE_BOX), (OperatorKind.MOMENTUM, 3)])
    def test_unknown_kinds_rejected(self, op, iv):
        with pytest.raises(InvalidParameterError, match="is not a valid"):
            deficiency_indices(op, iv)
        with pytest.raises(InvalidParameterError, match="is not a valid"):
            verify_deficiency(op, iv, 1.0, 10.0)

    def test_ratio_near_two_is_inconclusive(self):
        # |psi|^2 = e^(-2x/d) on [0, 1] and [0, 2]: the ratio is 1 + e^(-2/d) = 1.999999999998
        with pytest.raises(DiagnosticError, match="inconclusive"):
            verify_deficiency(OperatorKind.MOMENTUM, IntervalKind.SEMI_AXIS, 1e12, 1.0)

    @pytest.mark.parametrize("rate", [-1e3, -1.0, -1e-12, 0.0, 1e-12, 1.0, 1e3])
    @pytest.mark.parametrize("cutoff", [1.0, 10.0, 1e6, 1e300])
    def test_log_integral_matches_mpmath(self, rate, cutoff):
        mpmath = pytest.importorskip("mpmath")
        for lo, hi in ((0.0, cutoff), (0.0, 2.0 * cutoff), (-cutoff, cutoff),
                       (-2.0 * cutoff, 2.0 * cutoff)):
            c, a, b = (mpmath.mpf(x) for x in (rate, lo, hi))
            with mpmath.workdps(50):
                if abs(rate) * (hi - lo) <= 50.0 and hi - lo <= 40.0:
                    exact = mpmath.log(mpmath.quad(lambda x: mpmath.exp(c * x), [a, b]))
                elif rate == 0.0:
                    exact = mpmath.log(b - a)
                else:    # the exact antiderivative, where quad cannot resolve e^(cx)
                    exact = mpmath.log((mpmath.exp(c * b) - mpmath.exp(c * a)) / c)
                got = _log_integral(rate, lo, hi)
                # an error in log I is a relative error in I
                assert abs(got - exact) <= 8 * math.ulp(1.0) * max(1.0, abs(got)), (lo, hi)

    @pytest.mark.parametrize("iv, d_or_k0, cutoff, name", [
        (IntervalKind.FULL_LINE, math.nan, 10.0, "d_or_k0"),
        (IntervalKind.FINITE_BOX, math.nan, 10.0, "d_or_k0"),
        (IntervalKind.SEMI_AXIS, math.inf, 10.0, "d_or_k0"),
        (IntervalKind.FINITE_BOX, 1.0, math.nan, "cutoff"),
        (IntervalKind.FINITE_BOX, 1.0, math.inf, "cutoff"),
        (IntervalKind.FULL_LINE, 1j, 10.0, "d_or_k0"),
    ])
    @pytest.mark.parametrize("op", list(OperatorKind))
    def test_verify_rejects_non_finite_or_non_real_input(self, op, iv, d_or_k0, cutoff, name):
        with pytest.raises(InvalidParameterError, match=name):
            verify_deficiency(op, iv, d_or_k0, cutoff)

    def test_verify_rejects_bad_inputs(self):
        for d_or_k0, cutoff in ((-1.0, 10.0), (0.0, 10.0), (1.0, -10.0)):
            with pytest.raises(InvalidParameterError, match="positive"):
                verify_deficiency(OperatorKind.MOMENTUM, IntervalKind.FULL_LINE, d_or_k0, cutoff)

    def test_rate_beyond_float_range_is_a_usage_error(self):
        # d = 1e-320 gives the rate 2/d = inf, where both log-integrals are undefined
        with pytest.raises(InvalidParameterError, match="float range"):
            verify_deficiency(OperatorKind.MOMENTUM, IntervalKind.SEMI_AXIS, 1e-320, 1.0)


class TestClassifiers:
    def test_time_reversal_examples(self):
        assert is_time_reversal(ExtensionU2(psi=0.3, m0=0.6, m=(0.8, 0, 0)))
        assert not is_time_reversal(ExtensionU2(psi=0.3, m0=0.6, m=(0, 0.8, 0)))
        assert is_time_reversal(from_matrix(TAU1))

    def test_time_reversal_determinant_criterion(self, rng):
        for _ in range(1000):
            e = random_extension(rng)
            u = to_matrix(e)
            det = np.linalg.det(np.eye(2) - u.conj() @ u)
            assert is_time_reversal(e) == (abs(det) <= 1e-9)

    def test_parity_examples(self):
        assert is_parity_preserving(ExtensionU2(psi=math.pi / 2, m0=0.0, m=(0.6, 0.8, 0)))
        assert not is_parity_preserving(ExtensionU2(psi=0.2, m0=0.6, m=(0, 0, 0.8)))
        assert is_parity_preserving(named_extension("dirichlet"))

    def test_simple_family_examples(self):
        assert classify_simple_family(named_extension("dirichlet")) is SimpleFamily.FAMILY1
        assert classify_simple_family(from_matrix(TAU1)) is SimpleFamily.FAMILY2
        generic = ExtensionU2(psi=0.4, m0=0.5, m=(0.5, 0.5, 0.5))
        assert classify_simple_family(generic) is SimpleFamily.GENERIC

    def test_classifiers_share_classify_tol(self):
        # no per-call tolerance: a component within CLASSIFY_TOL of zero counts as zero
        for small, expected in ((0.5 * CLASSIFY_TOL, True), (10 * CLASSIFY_TOL, False)):
            rest = math.sqrt(1.0 - small * small)
            assert is_time_reversal(ExtensionU2(psi=0.3, m0=0.0, m=(rest, small, 0.0))) is expected
            assert is_parity_preserving(ExtensionU2(psi=0.3, m0=0.0, m=(rest, 0.0, small))) is expected
            family1 = ExtensionU2(psi=0.0, m0=rest, m=(small, 0.0, 0.0))
            assert (classify_simple_family(family1) is SimpleFamily.FAMILY1) is expected


class TestNamedExtensions:
    def test_dirichlet(self):
        e = named_extension("dirichlet")
        assert (e.psi, e.m0) == (0.0, 1.0) and e.m == (0.0, 0.0, 0.0)

    def test_neumann_is_minus_identity(self):
        e = named_extension("neumann")
        assert np.allclose(to_matrix(e), -np.eye(2), atol=1e-12)

    def test_quasi_periodic_zero_is_tau1(self):
        e = named_extension("quasi_periodic", theta=0.0)
        assert np.allclose(to_matrix(e), TAU1, atol=1e-12)

    def test_periodic_antiperiodic_aliases(self):
        assert np.allclose(to_matrix(named_extension("periodic")), TAU1, atol=1e-12)
        assert np.allclose(to_matrix(named_extension("antiperiodic")), -TAU1, atol=1e-12)

    def test_unknown_name(self):
        with pytest.raises(InvalidParameterError):
            named_extension("robin")


class TestParse:
    def test_named(self):
        assert parse_extension("dirichlet") == named_extension("dirichlet")
        assert parse_extension("quasiperiodic:1.5") == named_extension("quasi_periodic", theta=1.5)

    def test_raw_quadruple(self):
        e = parse_extension("psi=0.4,m=(0.5,0.5,0.5,0.5)")
        assert abs(e.psi - 0.4) < 1e-12
        assert abs(e.m0 - 0.5) < 1e-12

    def test_renormalizes_small_drift(self):
        e = parse_extension("psi=0,m=(1.0000004,0,0,0)")
        assert abs(e.m0 - 1.0) < 1e-12

    def test_rejects_large_drift(self):
        with pytest.raises(InvalidParameterError):
            parse_extension("psi=0,m=(1.01,0,0,0)")

    def test_rejects_garbage(self):
        with pytest.raises(InvalidParameterError):
            parse_extension("psi=0.4")
