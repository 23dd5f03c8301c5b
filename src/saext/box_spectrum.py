"""Full spectrum and eigenfunctions of -D^2 on [0, L] for a U(2) boundary condition.

All spectral work is dimensionless (L = 1): positive eigenvalues are E = s^2
with s > 0, a possible zero mode, and negative eigenvalues E = -r^2 with
r > 0.  Physical units enter only through ``to_physical_energy``.

The s > 0 eigenvalues solve the real characteristic equation

    F(s) = 2 s [sin(psi) cos(s) - m1] - sin(s) [cos(psi)(s^2+1) - m0(s^2-1)] = 0,

the zero mode exists iff Z = 2 sin(psi) - cos(psi) - 2 m1 - m0 = 0, and the
negative sector follows from the substitution s -> i r.  The production
solver scans F/s (which tends to Z at s -> 0) with a uniform step and
refines every bracket; closed forms for the two simple families are used as
cross-checks only.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DiagnosticError,
    IncompleteSpectrumError,
    InvalidParameterError,
    InvalidRootError,
)
from .extensions import ExtensionU2, SimpleFamily, classify_simple_family, to_matrix
from .numerics import Bracket, RootReport, refine_root, scan_brackets

SCAN_STEP = math.pi / 8.0          # roots of F interlace no tighter than ~pi/2
ZERO_MODE_TOL = 1e-10              # |Z| threshold for an exact zero mode
_RANK_RTOL = 1e-8                  # singular-value ratio declaring rank deficiency
_NEG_SCAN_MAX = 30.0               # beyond ~25 the scaled equation is a pure quadratic
_QUAD_REGIME = 25.0

POSITIVE = "positive"
ZERO = "zero"
NEGATIVE = "negative"


# ---------------------------------------------------------------------------
# characteristic functions and boundary matrices


def lm_matrices(s: complex) -> tuple[np.ndarray, np.ndarray]:
    """Boundary-value matrices L(s), M(s) for phi = A e^{isx} + B e^{-isx}.

    (phi'(0) - i phi(0), phi'(1) + i phi(1)) = i L(s) (A, B)
    (phi'(0) + i phi(0), phi'(1) - i phi(1)) = i M(s) (A, B)

    det M(s) = 2[i(s^2+1) sin s - 2 s cos s]; both determinants vanish only
    at s = 0.  Accepts complex s (the negative sector uses s = i r).
    """
    e_pos = np.exp(1j * s)
    e_neg = np.exp(-1j * s)
    l_matrix = np.array(
        [[s - 1.0, -s - 1.0], [(s + 1.0) * e_pos, -(s - 1.0) * e_neg]], dtype=complex
    )
    m_matrix = np.array(
        [[s + 1.0, -s + 1.0], [(s - 1.0) * e_pos, -(s + 1.0) * e_neg]], dtype=complex
    )
    return l_matrix, m_matrix


def _zero_matrices() -> tuple[np.ndarray, np.ndarray]:
    """Boundary matrices for the zero sector phi = a + b x (acting on (a, b))."""
    l0 = np.array([[-1j, 1.0], [1j, 1.0 + 1j]], dtype=complex)
    m0 = np.array([[1j, 1.0], [-1j, 1.0 - 1j]], dtype=complex)
    return l0, m0


def char_positive(e: ExtensionU2, s):
    """F(s); vanishes exactly at the positive eigenvalues E = s^2."""
    s = np.asarray(s, dtype=float) if np.ndim(s) else float(s)
    sp, cp = math.sin(e.psi), math.cos(e.psi)
    return 2.0 * s * (sp * np.cos(s) - e.m1) - np.sin(s) * (
        cp * (s * s + 1.0) - e.m0 * (s * s - 1.0)
    )


def char_zero(e: ExtensionU2) -> float:
    """Z = 2 sin(psi) - cos(psi) - 2 m1 - m0; a zero mode exists iff Z = 0."""
    return 2.0 * math.sin(e.psi) - math.cos(e.psi) - 2.0 * e.m1 - e.m0


def char_negative(e: ExtensionU2, r):
    """G(r); vanishes exactly at the negative eigenvalues E = -r^2."""
    r = np.asarray(r, dtype=float) if np.ndim(r) else float(r)
    sp, cp = math.sin(e.psi), math.cos(e.psi)
    return 2.0 * r * (sp * np.cosh(r) - e.m1) - np.sinh(r) * (
        -cp * (r * r - 1.0) + e.m0 * (r * r + 1.0)
    )


def _reduced_positive(e: ExtensionU2):
    """F(s)/s, continuous at 0 with limit Z; kills the trivial root at s = 0."""
    sp, cp = math.sin(e.psi), math.cos(e.psi)
    m0, m1 = e.m0, e.m1

    def f(s):
        s = np.asarray(s, dtype=float)
        sinc = np.sinc(s / math.pi)  # sin(s)/s, stable at 0
        out = 2.0 * (sp * np.cos(s) - m1) - sinc * (cp * (s * s + 1.0) - m0 * (s * s - 1.0))
        return out if out.ndim else float(out)

    return f


def _rcoth(r):
    r = np.asarray(r, dtype=float)
    small = r < 350.0
    safe = np.where(small, r, 1.0)
    return np.where(small, safe + 2.0 * safe / np.expm1(2.0 * safe), r)


def _rcsch(r):
    r = np.asarray(r, dtype=float)
    small = r < 350.0
    safe = np.where(small, r, 1.0)
    return np.where(small, -2.0 * safe * np.exp(-safe) / np.expm1(-2.0 * safe), 0.0)


def _reduced_negative(e: ExtensionU2):
    """G(r)/sinh(r), overflow-free for every r > 0, limit Z at r -> 0.

    Equals (cos psi - m0) r^2 + 2 sin(psi) r coth(r) - 2 m1 r/sinh(r)
    - (cos psi + m0); beyond r ~ 25 it is the plain quadratic to 1e-9.
    """
    sp, cp = math.sin(e.psi), math.cos(e.psi)
    m0, m1 = e.m0, e.m1

    def g(r):
        r = np.asarray(r, dtype=float)
        out = (
            2.0 * sp * _rcoth(r)
            - 2.0 * m1 * _rcsch(r)
            + (cp - m0) * r * r
            - (cp + m0)
        )
        return out if out.ndim else float(out)

    return g


# ---------------------------------------------------------------------------
# request / result containers


@dataclass(frozen=True)
class BoxSpectrumRequest:
    ext: ExtensionU2
    count: int = 10
    s_max_hint: float | None = None
    tol: float = 1e-9
    s_max_cap: float | None = None

    def __post_init__(self):
        if self.count < 1:
            raise InvalidParameterError("count must be >= 1")
        if self.tol <= 0:
            raise InvalidParameterError("tol must be positive")


@dataclass(frozen=True)
class SpectralRoot:
    value: float          # s (positive sector) or r (negative sector), both > 0
    multiplicity: int
    residual: float       # |reduced characteristic| at the root, locally rescaled
    iterations: int = 0


@dataclass(frozen=True)
class SolveDiagnostics:
    zero_value: float     # Z, the zero-mode indicator
    scan_ceiling: float   # final s ceiling used by the positive scan
    residuals: tuple[tuple[str, float, float], ...]  # (sector, value, residual)


@dataclass(frozen=True)
class SpectrumResult:
    negative: tuple[SpectralRoot, ...]
    has_zero_mode: bool
    positive: tuple[SpectralRoot, ...]
    diagnostics: SolveDiagnostics


def expanded_values(roots) -> list[float]:
    """Flatten (value, multiplicity) roots into a value-per-eigenvalue list."""
    out: list[float] = []
    for root in roots:
        out.extend([root.value] * root.multiplicity)
    return out


# ---------------------------------------------------------------------------
# solver


def _lm_negative_scaled(r: float) -> tuple[np.ndarray, np.ndarray]:
    """L(ir) and M(ir) with the second column scaled by e^{-r}.

    Column scaling leaves rank and null-space structure intact while keeping
    every entry finite for arbitrarily large r (the raw matrices contain
    e^{+r}).  A null vector v of the scaled defect matrix corresponds to the
    coefficient vector (v0, e^{-r} v1) of the raw one.
    """
    ir = 1j * r
    em = math.exp(-r) if r < 700 else 0.0
    l_s = np.array([[ir - 1.0, (-ir - 1.0) * em], [(ir + 1.0) * em, -(ir - 1.0)]], dtype=complex)
    m_s = np.array([[ir + 1.0, (-ir + 1.0) * em], [(ir - 1.0) * em, -(ir + 1.0)]], dtype=complex)
    return l_s, m_s


def _boundary_defect_matrix(e: ExtensionU2, sector: str, value: float) -> np.ndarray:
    u = to_matrix(e)
    if sector == POSITIVE:
        l_m, m_m = lm_matrices(value)
    elif sector == NEGATIVE:
        l_m, m_m = lm_matrices(1j * value)
    else:
        l_m, m_m = _zero_matrices()
    return l_m - u @ m_m


def _is_degenerate(e: ExtensionU2, sector: str, value: float) -> bool:
    """Rank-0 test of L - U M at a root: both singular values ~ 0."""
    if sector == NEGATIVE:
        l_m, m_m = _lm_negative_scaled(value)
        d = l_m - to_matrix(e) @ m_m
        scale = max(np.linalg.norm(l_m), np.linalg.norm(m_m), 1.0)
    elif sector == POSITIVE:
        d = _boundary_defect_matrix(e, sector, value)
        l_m, m_m = lm_matrices(value)
        scale = max(np.linalg.norm(l_m), np.linalg.norm(m_m), 1.0)
    else:
        d = _boundary_defect_matrix(e, sector, value)
        scale = 4.0
    smax = np.linalg.svd(d, compute_uv=False)[0]
    return bool(smax <= _RANK_RTOL * scale)


def degeneracy(e: ExtensionU2, sector: str, value: float) -> int:
    """Multiplicity (1 or 2) of a verified eigenvalue of the given sector."""
    return 2 if _is_degenerate(e, sector, value) else 1


def _refine_brackets(f, brackets: list[Bracket], tol_gate: float) -> list[SpectralRoot]:
    roots: list[SpectralRoot] = []
    for br in brackets:
        mid = 0.5 * (br.lo + br.hi)
        report: RootReport = refine_root(br, f, tol=1e-13 * max(1.0, abs(mid)))
        scale = max(abs(br.f_lo), abs(br.f_hi), 1e-30)
        residual = abs(report.residual) / scale
        if residual > tol_gate and not br.double_root:
            raise DiagnosticError(
                f"root residual {residual:.3e} above tolerance {tol_gate:.3e} at {report.root!r}"
            )
        roots.append(
            SpectralRoot(report.root, report.multiplicity_hint, residual, report.iterations)
        )
    # merge duplicates from overlapping brackets
    roots.sort(key=lambda root: root.value)
    merged: list[SpectralRoot] = []
    for root in roots:
        if merged and abs(root.value - merged[-1].value) <= 1e-9 * (1.0 + abs(root.value)):
            continue
        merged.append(root)
    return merged


def _drop_zero_leak(e: ExtensionU2, roots: list[SpectralRoot]) -> list[SpectralRoot]:
    """Discard scan artifacts at the origin when the extension has a zero mode.

    With Z = 0 the reduced characteristics vanish at 0 and their values near
    the origin are pure rounding noise, which can fabricate a root with
    |value| ~ 1e-8; such a root is the zero mode itself, not a new level.
    """
    if abs(char_zero(e)) >= 1e-8:
        return roots
    return [root for root in roots if root.value >= 1e-5]


def _solve_negative(e: ExtensionU2, tol: float) -> list[SpectralRoot]:
    g = _reduced_negative(e)
    brackets = scan_brackets(g, 1e-8, _NEG_SCAN_MAX, SCAN_STEP)

    # beyond the scan window the scaled equation is the exact quadratic
    # (cos psi - m0) r^2 + 2 sin(psi) r - (cos psi + m0)
    c2 = math.cos(e.psi) - e.m0
    c1 = 2.0 * math.sin(e.psi)
    c0 = -(math.cos(e.psi) + e.m0)
    tail_candidates: list[float] = []
    if c2 != 0.0:
        disc = c1 * c1 - 4.0 * c2 * c0
        if disc >= 0.0:
            sq = math.sqrt(disc)
            tail_candidates = [(-c1 + sq) / (2.0 * c2), (-c1 - sq) / (2.0 * c2)]
    elif c1 != 0.0:
        tail_candidates = [-c0 / c1]
    for cand in tail_candidates:
        if cand > _QUAD_REGIME:
            lo, hi = 0.8 * cand, 1.25 * cand + 1.0
            g_lo, g_hi = g(lo), g(hi)
            if g_lo * g_hi < 0:
                brackets.append(Bracket(lo, hi, g_lo, g_hi))

    roots = _drop_zero_leak(e, _refine_brackets(g, brackets, tol_gate=max(tol, 1e-9)))
    out = []
    for root in roots:
        mult = 2 if _is_degenerate(e, NEGATIVE, root.value) else 1
        out.append(SpectralRoot(root.value, mult, root.residual, root.iterations))
    total = sum(root.multiplicity for root in out)
    if total > 2:
        raise DiagnosticError(
            f"found {total} negative eigenvalues (counting multiplicity); at most 2 can exist"
        )
    return out


def _solve_positive(req: BoxSpectrumRequest) -> tuple[list[SpectralRoot], float]:
    e = req.ext
    f = _reduced_positive(e)
    start = max(
        req.s_max_hint if req.s_max_hint else 0.0,
        (req.count + 5) * math.pi,
    )
    cap = req.s_max_cap if req.s_max_cap else max(16.0 * start, 1000.0)

    roots: list[SpectralRoot] = []
    lo = 1e-8
    ceiling = min(start, cap)
    while True:
        brackets = scan_brackets(f, lo, ceiling, SCAN_STEP)
        roots.extend(
            _drop_zero_leak(e, _refine_brackets(f, brackets, tol_gate=max(req.tol, 1e-9)))
        )
        roots = _dedupe(roots)
        resolved: list[SpectralRoot] = []
        for root in roots:
            mult = 2 if _is_degenerate(e, POSITIVE, root.value) else 1
            resolved.append(SpectralRoot(root.value, mult, root.residual, root.iterations))
        roots = resolved
        if sum(root.multiplicity for root in roots) >= req.count:
            break
        if ceiling >= cap:
            raise IncompleteSpectrumError(
                f"scan ceiling {cap} exhausted before {req.count} positive eigenvalues",
                [root.value for root in roots],
            )
        lo = ceiling - SCAN_STEP  # overlap so boundary roots cannot fall in a seam
        ceiling = min(ceiling + 8.0 * math.pi, cap)

    # truncate to the minimal prefix reaching the requested count
    kept: list[SpectralRoot] = []
    acc = 0
    for root in roots:
        kept.append(root)
        acc += root.multiplicity
        if acc >= req.count:
            break
    return kept, ceiling


def _dedupe(roots: list[SpectralRoot]) -> list[SpectralRoot]:
    roots = sorted(roots, key=lambda root: root.value)
    out: list[SpectralRoot] = []
    for root in roots:
        if out and abs(root.value - out[-1].value) <= 1e-9 * (1.0 + abs(root.value)):
            continue
        out.append(root)
    return out


def _cross_validate_family(e: ExtensionU2, roots: list[SpectralRoot]) -> None:
    family = classify_simple_family(e)
    if family is SimpleFamily.FAMILY1:
        for root in roots:
            n = round(root.value / math.pi)
            if n < 1 or abs(root.value - n * math.pi) > 1e-7 * (1.0 + root.value):
                raise DiagnosticError(
                    f"family-1 cross-check failed: root {root.value!r} is not a multiple of pi"
                )
    elif family is SimpleFamily.FAMILY2:
        for root in roots:
            if abs(math.cos(root.value) - e.m1) > 1e-8:
                raise DiagnosticError(
                    f"family-2 cross-check failed: cos({root.value!r}) != m1 = {e.m1!r}"
                )


def solve_spectrum(req: BoxSpectrumRequest) -> SpectrumResult:
    """Negative, zero, and positive spectrum of the boxed Hamiltonian for req.ext.

    Scans the reduced characteristic functions with step pi/8, refines every
    bracket, detects double eigenvalues through the rank of L - U M at the
    root, and cross-validates against the closed forms whenever the boundary
    condition belongs to one of the two simple families.
    """
    e = req.ext
    z = char_zero(e)
    has_zero = abs(z) <= ZERO_MODE_TOL

    negative = _solve_negative(e, req.tol)
    positive, ceiling = _solve_positive(req)
    _cross_validate_family(e, positive)

    residuals = tuple(
        (sector, root.value, root.residual)
        for sector, roots in ((NEGATIVE, negative), (POSITIVE, positive))
        for root in roots
    )
    return SpectrumResult(
        negative=tuple(negative),
        has_zero_mode=has_zero,
        positive=tuple(positive),
        diagnostics=SolveDiagnostics(zero_value=z, scan_ceiling=ceiling, residuals=residuals),
    )


# ---------------------------------------------------------------------------
# eigenfunctions


@dataclass(frozen=True)
class BoxEigenfunction:
    """Normalized eigenfunction of the box Hamiltonian on [0, 1].

    positive sector: phi = A e^{isx} + B e^{-isx}
    zero sector:     phi = A + B x
    negative sector: phi = A e^{rx} + B e^{-rx}

    ``norm`` records the L^2 norm of the raw coefficient solution that was
    divided out.  Doubly degenerate eigenvalues carry the second orthonormal
    coefficient pair in ``degenerate_partner``.
    """

    sector: str
    s_or_r: float
    coeffs: tuple[complex, complex]
    norm: float
    degenerate_partner: tuple[complex, complex] | None = None

    def _basis(self, x):
        x = np.asarray(x, dtype=float)
        if self.sector == POSITIVE:
            return np.exp(1j * self.s_or_r * x), np.exp(-1j * self.s_or_r * x)
        if self.sector == NEGATIVE:
            return np.exp(self.s_or_r * x), np.exp(-self.s_or_r * x)
        return np.ones_like(x, dtype=complex), x.astype(complex)

    def value(self, x):
        b1, b2 = self._basis(x)
        a, b = self.coeffs
        return a * b1 + b * b2

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        a, b = self.coeffs
        if self.sector == POSITIVE:
            k = 1j * self.s_or_r
            return a * k * np.exp(k * x) - b * k * np.exp(-k * x)
        if self.sector == NEGATIVE:
            r = self.s_or_r
            return a * r * np.exp(r * x) - b * r * np.exp(-r * x)
        return np.full_like(x, b, dtype=complex)

    def boundary_values(self) -> tuple[complex, complex, complex, complex]:
        return (
            complex(self.value(0.0)),
            complex(self.derivative(0.0)),
            complex(self.value(1.0)),
            complex(self.derivative(1.0)),
        )

    def partner_function(self) -> "BoxEigenfunction | None":
        if self.degenerate_partner is None:
            return None
        return BoxEigenfunction(self.sector, self.s_or_r, self.degenerate_partner, self.norm)


def _inner_closed(sector: str, value: float, c1, c2) -> complex:
    """<phi1, phi2> on [0, 1] for two coefficient pairs at the same eigenvalue."""
    a1, b1 = c1
    a2, b2 = c2
    if sector == POSITIVE:
        s = value
        i2s = (cmath.exp(2j * s) - 1.0) / (2j * s) if s != 0 else 1.0
        return (
            np.conj(a1) * a2
            + np.conj(b1) * b2
            + np.conj(a1) * b2 * np.conj(i2s)
            + np.conj(b1) * a2 * i2s
        )
    if sector == NEGATIVE:
        r = value
        up = (math.exp(2.0 * r) - 1.0) / (2.0 * r)
        dn = -math.expm1(-2.0 * r) / (2.0 * r)
        return np.conj(a1) * a2 * up + np.conj(b1) * b2 * dn + np.conj(a1) * b2 + np.conj(b1) * a2
    return np.conj(a1) * a2 + (np.conj(a1) * b2 + np.conj(b1) * a2) / 2.0 + np.conj(b1) * b2 / 3.0


def _normalize(sector: str, value: float, coeffs) -> tuple[tuple[complex, complex], float]:
    norm_sq = _inner_closed(sector, value, coeffs, coeffs).real
    if not norm_sq > 0.0:
        raise DiagnosticError("eigenfunction has vanishing norm")
    norm = math.sqrt(norm_sq)
    return (complex(coeffs[0]) / norm, complex(coeffs[1]) / norm), norm


def _null_vector(d: np.ndarray) -> np.ndarray:
    _, _, vh = np.linalg.svd(d)
    return vh[-1].conj()


def _check_boundary(e: ExtensionU2, sector: str, value: float, coeffs) -> None:
    d = _boundary_defect_matrix(e, sector, value)
    if sector == NEGATIVE:
        phi_vec = np.array([coeffs[1], coeffs[0]], dtype=complex)  # continued (A', B')
    else:
        phi_vec = np.array(coeffs, dtype=complex)
    scale = max(1.0, float(np.linalg.norm(d)))
    defect = float(np.linalg.norm(d @ phi_vec))
    if defect > 1e-9 * scale * float(np.linalg.norm(phi_vec)):
        raise DiagnosticError(f"boundary-condition residual {defect:.3e} too large at {value!r}")


def _gram_schmidt_pair(sector: str, value: float, c1, c2):
    c1n, _ = _normalize(sector, value, c1)
    overlap = _inner_closed(sector, value, c1n, c2)
    c2o = (c2[0] - overlap * c1n[0], c2[1] - overlap * c1n[1])
    c2n, _ = _normalize(sector, value, c2o)
    return c1n, c2n


def eigenfunction(e: ExtensionU2, root: tuple[str, float]) -> BoxEigenfunction:
    """Normalized eigenfunction(s) for a verified root of the spectrum.

    ``root`` is a (sector, value) pair as produced by solve_spectrum.  For a
    doubly degenerate eigenvalue the returned object carries the second
    orthonormal coefficient pair in ``degenerate_partner``.
    """
    sector, value = root
    if sector not in (POSITIVE, ZERO, NEGATIVE):
        raise InvalidParameterError(f"unknown sector {sector!r}")

    if sector == POSITIVE:
        if value <= 0:
            raise InvalidRootError(f"positive-sector value must be > 0, got {value!r}")
        res = abs(_reduced_positive(e)(value))
        if res > 1e-6 * (1.0 + value * value):
            raise InvalidRootError(f"s = {value!r} does not solve the eigenvalue equation")
    elif sector == NEGATIVE:
        if value <= 0:
            raise InvalidRootError(f"negative-sector value must be > 0, got {value!r}")
        if value > 690.0:
            raise InvalidRootError(
                f"r = {value!r} too stiff to normalize in double precision (r <= 690)"
            )
        res = abs(_reduced_negative(e)(value))
        if res > 1e-6 * (1.0 + value * value):
            raise InvalidRootError(f"r = {value!r} does not solve the eigenvalue equation")
    else:
        if abs(char_zero(e)) > 1e-8:
            raise InvalidRootError("this extension has no zero mode")
        value = 0.0

    degenerate = _is_degenerate(e, sector, value)
    u = to_matrix(e)

    if degenerate:
        if sector == NEGATIVE and value > 300.0:
            raise InvalidRootError(
                f"degenerate negative mode at r = {value!r} exceeds the double-precision range"
            )
        raw1, raw2 = (1.0 + 0j, 0j), (0j, 1.0 + 0j)
        c1, c2 = _gram_schmidt_pair(sector, value, raw1, raw2)
        c1, norm = _normalize(sector, value, c1)
        c2, _ = _normalize(sector, value, c2)
        fn = BoxEigenfunction(sector, value, c1, norm, degenerate_partner=c2)
        _check_boundary(e, sector, value, c1)
        _check_boundary(e, sector, value, c2)
        return fn

    if sector == POSITIVE:
        s = value
        alpha, gamma = u[0, 0], u[0, 1]
        a_coef = alpha * (s - 1.0) + (gamma * cmath.exp(-1j * s) - 1.0) * (s + 1.0)
        b_coef = alpha * (s + 1.0) + (gamma * cmath.exp(1j * s) - 1.0) * (s - 1.0)
        scale_ab = 4.0 * (1.0 + s)
        if abs(a_coef) + abs(b_coef) <= 1e-9 * scale_ab:
            vec = _null_vector(_boundary_defect_matrix(e, POSITIVE, s))
            coeffs = (vec[0], vec[1])
        else:
            coeffs = (a_coef, b_coef)
    elif sector == NEGATIVE:
        return _negative_mode(e, value)
    else:
        vec = _null_vector(_boundary_defect_matrix(e, ZERO, 0.0))
        coeffs = (vec[0], vec[1])

    coeffs, norm = _normalize(sector, value, coeffs)
    _check_boundary(e, sector, value, coeffs)
    return BoxEigenfunction(sector, value, coeffs, norm)


def _negative_mode(e: ExtensionU2, r: float) -> BoxEigenfunction:
    """Negative-sector eigenfunction via the column-scaled boundary matrices.

    The raw matrices at s = i r contain e^{+r}; the scaled null vector v maps
    to the coefficients (A, B) = (e^{-r} v1, v0) of (e^{rx}, e^{-rx}), and
    the norm is computed in a form with no e^{+r} factor, so the whole
    construction stays exact up to r ~ 690.
    """
    u = to_matrix(e)
    l_s, m_s = _lm_negative_scaled(r)
    d_scaled = l_s - u @ m_s
    emr = math.exp(-r)
    vec = _null_vector(d_scaled)
    a_coef = vec[1] * emr      # coefficient of e^{rx}
    b_coef = vec[0]            # coefficient of e^{-rx}
    # |A|^2 (e^{2r}-1)/(2r) + |B|^2 (1-e^{-2r})/(2r) + 2 Re(A conj B), scaled
    decay = -math.expm1(-2.0 * r) / (2.0 * r)
    norm_sq = (
        (abs(vec[1]) ** 2 + abs(vec[0]) ** 2) * decay
        + 2.0 * emr * (vec[1] * np.conj(vec[0])).real
    )
    if not norm_sq > 0.0:
        raise DiagnosticError("negative-sector eigenfunction has vanishing norm")
    norm = math.sqrt(norm_sq)
    coeffs = (complex(a_coef) / norm, complex(b_coef) / norm)
    # boundary residual in the scaled basis: w = (B, e^{r} A)
    w = np.array([coeffs[1], vec[1] / norm], dtype=complex)
    scale = max(1.0, float(np.linalg.norm(d_scaled)))
    defect = float(np.linalg.norm(d_scaled @ w))
    if defect > 1e-9 * scale * float(np.linalg.norm(w)):
        raise DiagnosticError(f"boundary-condition residual {defect:.3e} too large at r={r!r}")
    return BoxEigenfunction(NEGATIVE, r, coeffs, norm)


def boundary_form(phi, psi_fn) -> complex:
    """Sesquilinear surface term B(phi, psi) of the Hamiltonian on [0, 1].

    B(phi, psi) = (1/2i) [ (H phi, psi) - (phi, H psi) ] depends only on the
    boundary values; it vanishes identically when both functions belong to
    the domain of one self-adjoint extension.  Inner products are
    conjugate-linear in the first slot.
    """
    p0, dp0, p_l, dp_l = phi.boundary_values()
    q0, dq0, q_l, dq_l = psi_fn.boundary_values()
    num = (
        np.conj(p_l) * dq_l - np.conj(dp_l) * q_l - np.conj(p0) * dq0 + np.conj(dp0) * q0
    )
    return complex(num / 2j)


def to_physical_energy(
    s_or_r: float, sector: str, length: float, hbar: float, mass: float
) -> float:
    """E = +/- (hbar^2 / 2m) (s/L)^2 by sector; the zero sector maps to 0."""
    if length <= 0 or hbar <= 0 or mass <= 0:
        raise InvalidParameterError("length, hbar, and mass must be positive")
    if sector == ZERO:
        return 0.0
    sign = 1.0 if sector == POSITIVE else -1.0
    return sign * (hbar * hbar / (2.0 * mass)) * (s_or_r / length) ** 2
