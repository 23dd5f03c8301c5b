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
    char_zero,
    degeneracy,
    eigenfunction,
    expanded_values,
    from_matrix,
    integrate,
    named_extension,
    parse_extension,
    solve_spectrum,
    to_matrix,
    to_physical_energy,
)
from saext.cli import run

from conftest import TAU1, boundary_form, char_positive, gl_inner, lm_matrices, random_extension


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
    """The L, M oracle of conftest, which double_negative_extension and the det(L - U M) check use."""

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
        from saext.box_spectrum import _reduced_positive

        f = _reduced_positive(named_extension("dirichlet"))
        for s in (0.7, 2.0, 4.4):
            assert abs(s * f(s) - (-2.0 * math.sin(s))) < 1e-12

    def test_family2_form(self):
        from saext.box_spectrum import _reduced_positive

        f = _reduced_positive(from_matrix(TAU1))
        for s in (0.7, 2.0, 4.4):
            assert abs(f(s) - 2.0 * (math.cos(s) - 1.0)) < 1e-12

    def test_char_matches_boundary_determinant(self, rng):
        # det(L - U M) = -4 i e^{i psi} F(s) = -4 i e^{i psi} s (F/s): same zeros
        from saext.box_spectrum import _reduced_positive

        for _ in range(20):
            ext = random_extension(rng)
            u, f = to_matrix(ext), _reduced_positive(ext)
            for s in rng.uniform(0.2, 15.0, size=6):
                l_mat, m_mat = lm_matrices(float(s))
                det = np.linalg.det(l_mat - u @ m_mat)
                predicted = -4j * cmath.exp(1j * ext.psi) * s * f(float(s))
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
        from saext.box_spectrum import _negative_branches

        for m0 in (-0.5, 0.0, 0.5):
            ext = ExtensionU2(psi=0.0, m0=m0, m=(0.0, math.sqrt(1 - m0 * m0), 0.0))
            r = math.sqrt((1 + m0) / (1 - m0))
            assert min(abs(branch(r)) for branch, _ in _negative_branches(ext)) < 1e-10

    def test_negative_family2_has_no_roots(self):
        # each branch rises strictly with r, so none that starts at or above 0 has a root
        from saext.box_spectrum import _negative_branches

        branches = _negative_branches(from_matrix(TAU1))
        assert all(branch(1e-8) >= 0.0 for branch, _ in branches)
        assert all(branch(float(r)) > 0.0 for branch, _ in branches
                   for r in np.linspace(0.01, 20.0, 100))


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
        # |Z| ~ 1.0e-10 is far above Z's rounding bound: E = 1e-10 is a level, not the zero mode
        res = solve(named_extension("quasi_periodic", theta=theta), count=8)
        assert not res.has_zero_mode
        expected = sorted(abs(2 * math.pi * n + theta) for n in range(-5, 5))[:8]
        values = expanded_values(res.positive)
        assert len(values) == 8
        for s, ref in zip(values, expected):
            assert abs(s - ref) <= 1e-9 * (1.0 + s)

    @pytest.mark.parametrize("field", [
        {"s_max": math.inf}, {"s_max": math.nan}, {"s_max": -math.inf}, {"s_max": np.float64(math.nan)},
    ])
    def test_request_rejects_non_finite(self, field):
        with pytest.raises(InvalidParameterError):
            BoxSpectrumRequest(ext=named_extension("dirichlet"), **field)

    def test_request_has_no_tol(self):
        # the residual gate is the constant 1e-9 in both sectors: nothing to set
        assert BoxSpectrumRequest._fields == ("ext", "count", "s_max")
        with pytest.raises(TypeError, match="tol"):
            BoxSpectrumRequest(ext=named_extension("dirichlet"), tol=1e-6)

    @pytest.mark.parametrize("s_max", [0.0, -5.0])
    def test_request_rejects_non_positive_s_max(self, s_max):
        with pytest.raises(InvalidParameterError, match="s_max"):
            BoxSpectrumRequest(ext=named_extension("dirichlet"), s_max=s_max)

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

    @pytest.mark.parametrize("m", [
        (-0.11197001050609023, -0.583497542479925, -0.8043589588406127),
        (-0.05664552918792898, 0.768383162316465, -0.6374783132715723),
        (0.5, math.sqrt(0.75), 0.0), (-0.9, 0.0, math.sqrt(0.19)),
    ])
    def test_family2_has_no_negative_level(self, m):
        # psi = pi/2 and m0 = 0 put psi = alpha, a Dirichlet direction, up to rounding;
        # the first two store |m| one ulp below 1, where cos psi - m0 and sin psi - |m| are
        # both round-off
        assert solve(ExtensionU2(psi=math.pi / 2, m0=0.0, m=m), count=3).negative == ()

    def test_family1_near_boundary_m0_gives_large_root(self):
        m0 = 1.0 - 1e-5
        ext = ExtensionU2(psi=0.0, m0=m0, m=(0.0, math.sqrt(1 - m0 * m0), 0.0))
        res = solve(ext, count=1)
        expected = math.sqrt((1 + m0) / (1 - m0))
        assert len(res.negative) == 1
        assert abs(res.negative[0].value - expected) <= 1e-7 * expected

    @pytest.mark.parametrize("r", [0.5, 5.0, 29.9, 31.0, 40.0, 100.0, 500.0, 650.0])
    def test_double_negative_level_in_the_tail(self, r):
        res = solve(double_negative_extension(r), count=1)
        assert [root.multiplicity for root in res.negative] == [2]
        assert abs(res.negative[0].value - r) <= 1e-13 * r

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


    def test_tail_pair_split_by_tiny_m(self):
        # |m| = 2e-8 splits the double level at r = 400 into 400 +- 1.6e-3: Theta's
        # eigenvalues are about -400.0016 and -399.9984, and beyond r ~ 40 the branches
        # of Theta - M(-r^2) are r + theta to e^{-r}
        ext = ExtensionU2(psi=2.0 * math.atan(1.0 / 400.0), m0=1.0, m=(2e-8, 0.0, 0.0))
        res = solve(ext, count=1)
        assert [root.multiplicity for root in res.negative] == [1, 1]
        for root, ref in zip(res.negative, (400.0 - 1.6e-3, 400.0 + 1.6e-3)):
            assert abs(root.value - ref) <= 1e-7

    def test_close_negative_pair_below_the_old_tail(self):
        # G/sinh is +3.9e-13 at the pair's midpoint and -9.1e-14 at +-1e-5: two levels
        ext = ExtensionU2(psi=0.09835167523818683, m0=0.9999999999999991,
                          m=(-2.27573096614128e-08, -2.9058812515910843e-08,
                             2.2940860787232145e-08))
        res = solve(ext, count=1)
        assert [root.multiplicity for root in res.negative] == [1, 1]
        for root, ref in zip(res.negative, (20.318786357869758, 20.31880440716522)):
            assert abs(root.value - ref) <= 1e-13 * ref

    def test_level_beyond_the_square_root_of_the_largest_float(self):
        # |m| = 3e-200 squares to 0, and theta_+- = 1e200, -5e199 multiply past the largest float
        ext = ExtensionU2(psi=1e-200, m0=1.0, m=(3e-200, 0.0, 0.0))
        (root,) = solve(ext, count=1).negative
        assert root.multiplicity == 1 and abs(root.value - 5e199) <= 1e-13 * 5e199

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
            solve(named_extension("dirichlet"), count=50, s_max=10.0)
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


    def test_refinement_makes_one_scalar_call_per_iteration(self, monkeypatch):
        """Dirichlet at count 200: refinement calls F/s on scalars only, once per iteration.

        Dirichlet has no negative levels, so every refinement is one of F/s.
        """
        from saext import box_spectrum

        calls = []  # is each call of F/s on an array?
        reduced, refine = box_spectrum._reduced_positive, box_spectrum.refine_root

        def counted_reduced(ext):
            f = reduced(ext)
            return lambda s: calls.append(isinstance(s, np.ndarray)) or f(s)

        refined = []  # (calls of F/s, report) per refine_root call

        def counted_refine(bracket, f, tol):
            before = len(calls)
            report = refine(bracket, f, tol)
            refined.append((calls[before:], report))
            return report

        monkeypatch.setattr(box_spectrum, "_reduced_positive", counted_reduced)
        monkeypatch.setattr(box_spectrum, "refine_root", counted_refine)
        result = solve(named_extension("dirichlet"), count=200)

        assert len(result.positive) == 200
        assert len(refined) == 200  # the brackets past the 200th level stay unrefined
        refine_calls = [is_grid for f_calls, _ in refined for is_grid in f_calls]
        iterations = [report.iterations for _, report in refined]
        assert not any(refine_calls)
        assert len(refine_calls) == sum(iterations)
        assert min(iterations) >= 10


def argument_count(ext, lo, hi, height):
    """Zeros of F(s)/s in the rectangle lo < Re s < hi, |Im s| < height: the argument principle.

    F/s is even in s and an entire function of E = s^2: a level E > 0 is a zero at
    s = +-sqrt(E), E = -r^2 at +-i r, and the zero mode a double zero at 0, each
    with the level's multiplicity.  The contour is sampled at 32 points per unit
    length, doubled until no step turns the argument by more than 0.5 rad; the
    factor e^{-|Im s|} keeps the values finite and leaves the argument alone.
    """
    sp, cp = math.sin(ext.psi), math.cos(ext.psi)
    corners = [complex(lo, -height), complex(hi, -height), complex(hi, height),
               complex(lo, height), complex(lo, -height)]

    def scaled(s):
        damp = np.abs(s.imag)
        e_plus, e_minus = np.exp(1j * s - damp), np.exp(-1j * s - damp)
        cos, sin = 0.5 * (e_plus + e_minus), (e_plus - e_minus) / 2j
        return (2.0 * (sp * cos - ext.m1 * np.exp(-damp))
                - sin / s * (cp * (s * s + 1) - ext.m0 * (s * s - 1)))

    density = 32
    while True:
        points = np.concatenate([
            a + (b - a) * np.linspace(0.0, 1.0, max(2, int(density * abs(b - a))), endpoint=False)
            for a, b in zip(corners, corners[1:])] + [np.array(corners[:1])])
        values = scaled(points)
        steps = np.angle(values[1:] / values[:-1])
        if np.max(np.abs(steps)) <= 0.5:
            return round(float(np.sum(steps)) / (2.0 * math.pi))
        density *= 2
        assert density <= 32 << 10, (ext, lo, hi)


def negative_bound(ext):
    """An upper bound on r over the levels E = -r^2, from G(r)/sinh(r) = 0.

    For r >= 1, G/sinh = a r^2 + b r + R with a = cos psi - m0, b = 2 sin psi and
    |R| <= 2 |sin psi| (coth 1 - 1) + 2 |m1| / sinh 1 + |cos psi + m0| < 4.4.
    """
    a, b = math.cos(ext.psi) - ext.m0, 2.0 * math.sin(ext.psi)
    if a * b < 0.0:    # a r (r - r0) with r0 = -b/a: a level lies within 4.4/|b| above r0
        return -b / a + 4.4 / abs(b)
    bounds = ([math.sqrt(4.4 / abs(a))] if a else []) + ([4.4 / abs(b)] if b else [])
    return max(1.0, min(bounds, default=1.0))


def gap_probes(ext, res):
    """(s, N(s)) below the first positive level and between each pair of distinct levels."""
    from saext.box_spectrum import _level_count, _probe

    count = _level_count(ext)
    values = [0.0] + [root.value for root in res.positive]
    return [_probe(count, max(lo, 1e-3 * hi), hi) for lo, hi in zip(values, values[1:])]


class TestLevelCount:
    """N(s) = floor(s / pi) + kappa_-(Theta - M(s^2)) against the argument principle on F/s."""

    def assert_matches_argument_count(self, ext, count=20):
        res = solve(ext, count=count)
        probes = gap_probes(ext, res)
        first, n_first = probes[0]
        oracle = argument_count(ext, -first, first, 1.0 + negative_bound(ext))
        assert oracle % 2 == 0 and oracle // 2 == n_first, (ext, first)
        total = n_first
        for (lo, _), (hi, n_hi) in zip(probes, probes[1:]):
            total += argument_count(ext, lo, hi, 0.5)
            assert total == n_hi, (ext, hi)
        assert n_first == sum(r.multiplicity for r in res.negative) + res.has_zero_mode

    def test_random_extensions(self, rng):
        for _ in range(300):
            self.assert_matches_argument_count(random_extension(rng))

    @pytest.mark.parametrize("name", ["dirichlet", "neumann", "periodic", "antiperiodic",
                                      "quasiperiodic:1.57", "quasiperiodic:0.05",
                                      "psi=0.4,m=(0.5,0.5,0.5,0.5)"])
    def test_named_conditions(self, name):
        self.assert_matches_argument_count(parse_extension(name))

    @pytest.mark.parametrize("name, zero, pair", [("dirichlet", 0, None), ("neumann", 1, None),
                                                   ("periodic", 1, 0), ("antiperiodic", 0, 1)])
    def test_count_next_to_n_pi(self, name, zero, pair):
        """Beside n pi, where T or C is huge, the count is right; within 1e-13, right or undecided."""
        from saext.box_spectrum import _level_count

        count = _level_count(parse_extension(name))
        for n in range(1, 41):
            for x, decided in ((n * math.pi + 1e-8, True), (n * math.pi - 1e-8, True),
                               (n * math.pi * (1 + 5e-10), True), (n * math.pi * (1 - 5e-10), True),
                               (n * math.pi * (1 + 1e-13), False), (n * math.pi * (1 - 1e-13), False)):
                k = n if x > n * math.pi else n - 1    # Dirichlet levels at or below x
                # periodic and antiperiodic: double levels at the n pi of one parity
                want = zero + (k if pair is None else 2 * ((k + pair) // 2))
                got = count(x)
                assert got == want if decided else got in (None, want), (n, x, got, want)

    def test_undecided_band_next_to_levels_at_n_pi(self, rng, monkeypatch):
        """m1 = +-sin(psi) puts levels at n pi: there the count is right or undecided.

        Without the band (a zero rounding bound) some of the same counts are wrong.
        """
        from saext import box_spectrum

        cases = []
        for _ in range(100):
            psi, sign = rng.uniform(0.0, math.pi), rng.choice([-1.0, 1.0])
            m1 = sign * math.sin(psi)
            rest = rng.normal(size=3)
            rest *= math.sqrt(1.0 - m1 * m1) / np.linalg.norm(rest)
            ext = ExtensionU2(psi=psi, m0=float(rest[0]), m=(m1, float(rest[1]), float(rest[2])))
            res = solve(ext, count=12)
            below = sum(r.multiplicity for r in res.negative) + res.has_zero_mode
            levels = expanded_values(res.positive)
            for n in range(1, 12):
                for d in (1e-8, -1e-8, 1e-10, -1e-10, 1e-12, -1e-12):
                    x = n * math.pi * (1.0 + d)
                    if min(abs(level - x) for level in levels) > 1e-13 * x:
                        cases.append((ext, x, below + sum(level <= x for level in levels)))
        assert all(box_spectrum._level_count(ext)(x) in (None, want) for ext, x, want in cases)
        monkeypatch.setattr(box_spectrum, "_COUNT_RTOL", 0.0)
        assert any(box_spectrum._level_count(ext)(x) not in (None, want) for ext, x, want in cases)

    @pytest.mark.parametrize("theta", [1.05e-8, 1.5e-8, 3e-8, 2 * math.pi - 1.5e-8])
    def test_close_quasi_periodic_pairs_are_resolved(self, theta):
        """The pairs 2 pi n +- theta come back as two simple levels each."""
        ext = named_extension("quasi_periodic", theta=theta)
        res = solve(ext, count=20)
        assert res.has_zero_mode  # the level s ~ theta lies below the zero-mode floor
        expected = sorted(abs(2 * math.pi * n + theta) for n in range(-12, 12))[1:21]
        assert [r.multiplicity for r in res.positive] == [1] * 20
        for root, ref in zip(res.positive, expected):
            assert abs(root.value - ref) <= 1e-10 * ref, (root, ref)
            assert root.residual <= 1e-12

    def test_theta_sweep_is_right(self):
        """Near theta = 0 each spectrum is 2 pi n +- theta for the stored theta.

        Below theta ~ 1e-7, cos(theta) rounds within about theta^2 of 1, so the
        stored floats give theta in two readings that differ by up to 1.4e-9:
        atan2(m2, m1), which the level count sees, and acos(m1), the angle of
        F/s = 2 (cos s - m1) + ...  Each level from 2 pi - theta on is within
        1e-10 of one of them.  Neither reading is a reference for s ~ theta
        itself, which one ulp of m1 moves by up to about 1e-6 relative: where it
        is a level and not the zero mode, it is held to the 50-digit root of F.
        """
        for theta in np.geomspace(1e-9, 1e-2, 100):
            ext = named_extension("quasi_periodic", theta=float(theta))
            res = solve(ext, count=20)
            values = expanded_values(res.positive)
            assert len(values) == 20, theta
            if not res.has_zero_mode:
                first, *values = values
                assert small_level_error(ext, first) <= 1e-13, (theta, first)
            readings = []
            for stored in (math.atan2(ext.m2, ext.m1), math.acos(ext.m1)):
                levels = sorted(2 * math.pi * n + sign * stored
                                for n in range(1, 12) for sign in (-1, 1))
                readings.append(levels[:len(values)])
            for value, *refs in zip(values, *readings):
                assert min(abs(value - ref) for ref in refs) <= 1e-10 * value, (theta, value, refs)

    def test_periodic_cost_does_not_grow_with_s_max(self, monkeypatch):
        from saext import box_spectrum

        calls = {"F/s": 0, "N": 0}
        reduced, level_count = box_spectrum._reduced_positive, box_spectrum._level_count

        def counted(make, key):
            def wrapped(ext):
                f = make(ext)
                return lambda s: calls.__setitem__(key, calls[key] + 1) or f(s)
            return wrapped

        monkeypatch.setattr(box_spectrum, "_reduced_positive", counted(reduced, "F/s"))
        monkeypatch.setattr(box_spectrum, "_level_count", counted(level_count, "N"))
        made = []
        for s_max in (None, 1e5):
            calls.update({"F/s": 0, "N": 0})
            res = solve(named_extension("periodic"), count=10, s_max=s_max)
            made.append((dict(calls), res))
        assert made[0] == made[1] and made[0][0]["N"] > 0

    @pytest.mark.parametrize("name", ["dirichlet", "periodic", "antiperiodic"])
    def test_dropped_level_raises(self, monkeypatch, name):
        from saext import box_spectrum

        solve_positive = box_spectrum._solve_positive

        def drop_third(req):
            roots, ends = solve_positive(req)
            return roots[:2] + roots[3:], ends

        monkeypatch.setattr(box_spectrum, "_solve_positive", drop_third)
        with pytest.raises(DiagnosticError, match="level count"):
            solve(named_extension(name), count=8)

    @pytest.mark.parametrize("name", ["dirichlet", "neumann", "psi=0.4,m=(0.5,0.5,0.5,0.5)"])
    def test_added_level_raises(self, monkeypatch, name):
        from saext import box_spectrum

        solve_positive = box_spectrum._solve_positive

        def add_one(req):
            roots, ends = solve_positive(req)
            return roots[:2] + [roots[1]] + roots[2:], ends  # a root kept twice

        monkeypatch.setattr(box_spectrum, "_solve_positive", add_one)
        with pytest.raises(DiagnosticError, match="level count"):
            solve(parse_extension(name), count=8)

    @pytest.mark.parametrize("ext", [
        ExtensionU2(psi=0.0, m0=0.0, m=(0.0, 1.0, 0.0)),
        double_negative_extension(5.0),
        double_negative_extension(40.0, dm1=1e-4),
    ], ids=["one", "double", "close pair"])
    def test_dropped_negative_level_raises(self, monkeypatch, ext):
        from saext import box_spectrum

        solve_negative = box_spectrum._solve_negative

        def drop_first(e):
            roots = solve_negative(e)
            assert roots
            if roots[0].multiplicity == 2:
                return [roots[0]._replace(multiplicity=1)]
            return roots[1:]

        monkeypatch.setattr(box_spectrum, "_solve_negative", drop_first)
        with pytest.raises(DiagnosticError, match="level count"):
            solve(ext, count=3)

    def test_residual_gate_refuses_a_moved_root(self, monkeypatch):
        from saext import box_spectrum
        from saext.roots import RootReport

        refine = box_spectrum.refine_root

        def moved(bracket, f, tol):
            x = refine(bracket, f, tol).root * (1.0 + 1e-7)
            return RootReport(x, f(x), 0)

        monkeypatch.setattr(box_spectrum, "refine_root", moved)
        with pytest.raises(DiagnosticError, match="root residual"):
            solve(parse_extension("psi=0.4,m=(0.5,0.5,0.5,0.5)"), count=5)


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
        # |Z| ~ 9e-10, far above Z's rounding bound: solve_spectrum reports no zero mode either
        quasi = named_extension("quasi_periodic", theta=3e-5)
        assert not solve(quasi, count=1).has_zero_mode
        with pytest.raises(InvalidRootError):
            eigenfunction(quasi, ("zero", 0.0))
        # the negative sector checks min |lambda_j(r)| against the bracket scale
        for ext in (ExtensionU2(psi=0.0, m0=0.0, m=(0.0, 1.0, 0.0)), double_negative_extension(40.0)):
            r = solve(ext, count=1).negative[0].value
            eigenfunction(ext, ("negative", r))
            for moved in (r * (1.0 + 1e-5), r * (1.0 - 1e-5), 2.0 * r):
                with pytest.raises(InvalidRootError, match="does not solve"):
                    eigenfunction(ext, ("negative", moved))
        with pytest.raises(InvalidRootError, match="does not solve"):
            eigenfunction(named_extension("dirichlet"), ("negative", 1.0))  # no negative branch

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

    @pytest.mark.parametrize("sector, value", [
        ("bogus", 3.0), ("Positive", 3.0), ("positive", math.nan), ("negative", math.inf),
    ])
    def test_degeneracy_rejects_unknown_sector_and_non_finite_value(self, sector, value):
        with pytest.raises(InvalidParameterError):
            degeneracy(named_extension("dirichlet"), sector, value)


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


class TestNegativeSectorOracle:
    """Negative levels against 50-digit roots of G(r)/sinh(r).

    G/sinh shares no algebra with the branches of Theta - M(-r^2) that the solver
    refines; only their product identity links the two.
    """

    @staticmethod
    def reduced_g(ext, mpmath):
        """G(r)/sinh(r) for ext with (m0, m) normalized at the working precision."""
        psi, m0, m1, m2, m3 = (mpmath.mpf(x) for x in (ext.psi, ext.m0, *ext.m))
        norm = mpmath.sqrt(m0 * m0 + m1 * m1 + m2 * m2 + m3 * m3)
        m0, m1 = m0 / norm, m1 / norm
        sp, cp = mpmath.sin(psi), mpmath.cos(psi)
        return lambda r: (2 * sp * r * mpmath.coth(r) - 2 * m1 * r / mpmath.sinh(r)
                          + (cp - m0) * r * r - (cp + m0))

    def oracle_errors(self, ext):
        """Each negative level's distance to the nearest root of G/sinh, over max(1, r)."""
        mpmath = pytest.importorskip("mpmath")
        res = solve(ext, count=1)
        with mpmath.workdps(50):
            g = self.reduced_g(ext, mpmath)
            return [float(abs(mpmath.findroot(g, mpmath.mpf(root.value)) - root.value))
                    / max(1.0, root.value) for root in res.negative]

    def test_random_extensions(self, rng):
        errors = [err for _ in range(200) for err in self.oracle_errors(random_extension(rng))]
        assert len(errors) > 100
        assert max(errors) <= 1e-13

    @pytest.mark.parametrize("ext", [
        ExtensionU2(psi=0.09835167523818683, m0=0.9999999999999991,
                    m=(-2.27573096614128e-08, -2.9058812515910843e-08, 2.2940860787232145e-08)),
        ExtensionU2(psi=2.0 * math.atan(1.0 / 400.0), m0=1.0, m=(2e-8, 0.0, 0.0)),
    ], ids=["close-pair", "tail-pair"])
    def test_close_pairs(self, ext):
        errors = self.oracle_errors(ext)
        assert len(errors) == 2 and max(errors) <= 1e-13

    @pytest.mark.parametrize("delta", ["1e-3", "1e-9", "1e-15"])
    def test_near_a_dirichlet_direction(self, delta):
        """psi - alpha = delta, with theta_- = -cot((psi + alpha)/2) = -3.

        theta_+ = -cot(delta/2) puts a level near r = 2/delta, which one rounding
        of psi or m0 moves by eps/delta relative: the near level must hold to the
        oracle, and the far one only at delta = 1e-3.
        """
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            half_sum, d = mpmath.acot(3), mpmath.mpf(delta)
            alpha = half_sum - d / 2
            size = mpmath.sin(alpha)
            ext = ExtensionU2(psi=float(half_sum + d / 2), m0=float(mpmath.cos(alpha)),
                              m=(float(0.6 * size), float(0.8 * size), 0.0))
        near, far = self.oracle_errors(ext)
        assert near <= 1e-13
        assert far <= (1e-13 if delta == "1e-3" else 1.0)
        assert solve(ext, count=1).negative[1].value > 1e3

    def test_product_identity(self, rng):
        """(cos psi - m0) lambda_1 lambda_2 = G(r)/sinh(r) at 50 values of r."""
        from saext.box_spectrum import _negative_branches

        mpmath = pytest.importorskip("mpmath")
        for _ in range(10):
            ext = random_extension(rng)
            (low, _), (high, _) = _negative_branches(ext)
            with mpmath.workdps(50):
                g = self.reduced_g(ext, mpmath)
                for r in np.geomspace(1e-3, 1e3, 50):
                    r = float(r)
                    product = (math.cos(ext.psi) - ext.m0) * low(r) * high(r)
                    assert low(r) <= high(r)
                    assert abs(product - float(g(mpmath.mpf(r)))) <= 1e-13 * (1.0 + r * r)


def small_level_error(ext, s):
    """|s - root| / root for the 50-digit root of F near s, for ext's stored floats."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        char = char_positive(ext, mpmath)
        root = mpmath.findroot(lambda x: char(x) / x, (0.9 * s, 1.1 * s), solver="anderson")
        return float(abs(s - root) / root)


class TestSmallPositiveLevel:
    """E = theta^2 of quasi-periodic theta against 50-digit roots of F for the stored floats.

    2 (sin(psi) cos(s) - m1) cancels at small s, where cos(s) rounds with an absolute
    error of about 1e-16 against its distance s^2/2 from 1: taken that way, F/s put
    the level of theta = 1e-5 at 9.999989729e-11, against the root's 9.99999470425e-11.
    Z = 2 (1 - m1) is about theta^2: a level down to theta ~ 2e-7, where Z reaches
    the rounding bound of its terms and the level is the zero mode.
    """

    @pytest.mark.parametrize("theta", [3e-7, 1e-6, 3e-6, 1e-5, 1e-4, 1e-3, 2.0 * math.pi - 1e-5])
    def test_against_a_50_digit_root(self, theta):
        ext = named_extension("quasi_periodic", theta=theta)
        res = solve(ext, count=3)
        assert not res.has_zero_mode
        assert small_level_error(ext, res.positive[0].value) <= 1e-13

    @pytest.mark.parametrize("name", ["quasiperiodic:1e-7", "quasiperiodic:6.2831852"])
    def test_zero_mode_where_z_is_rounding(self, name):
        ext = parse_extension(name)
        res = solve(ext, count=3)
        assert res.has_zero_mode
        assert res.positive[0].value > 1.0
        eigenfunction(ext, ("zero", 0.0))

    @pytest.mark.parametrize("name, digits", [("quasiperiodic:1e-5", "9.999994704e-11"),
                                              ("quasiperiodic:1e-6", "9.998056236e-13")])
    def test_cli_prints_the_root_digits(self, capsys, name, digits):
        assert run(["spectrum", "--u", name, "--count", "3"]) == 0
        out = capsys.readouterr().out
        assert digits in out and "zero" not in out


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

    @pytest.mark.parametrize("args", [
        (2.0, "postive", 1.0, 1.0, 1.0),
        (math.nan, "positive", 1.0, 1.0, 1.0),
        (math.inf, "negative", 1.0, 1.0, 1.0),
        (2.0, "positive", math.nan, 1.0, 1.0),
        (2.0, "positive", 1.0, math.nan, 1.0),
        (2.0, "positive", 1.0, 1.0, math.nan),
        (2.0, "positive", math.inf, 1.0, 1.0),
    ])
    def test_rejects_unknown_sector_and_non_finite_input(self, args):
        with pytest.raises(InvalidParameterError):
            to_physical_energy(*args)
