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
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DiagnosticError,
    IncompleteSpectrumError,
    InvalidParameterError,
    InvalidRootError,
)
from .extensions import ExtensionU2, SimpleFamily, classify_simple_family, to_matrix
from .numerics import Bracket, refine_brackets, scan_brackets

SCAN_STEP = math.pi / 8.0          # roots of F interlace no tighter than ~pi/2
ZERO_MODE_TOL = 1e-10              # |Z| threshold for an exact zero mode
_BC_RTOL = 1e-9                    # boundary defect |(L - U M) c| relative to scale |c|
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
    """F(s)/s, continuous at 0 with limit Z; kills the trivial root at s = 0.

    sin(t)/t at t = pi (s/pi + 1e-300) is np.sinc(s/pi) to the bit, finite at 0.
    """
    sp, cp = math.sin(e.psi), math.cos(e.psi)
    m0, m1 = e.m0, e.m1

    def f(s):
        t = math.pi * (s / math.pi + 1e-300)
        ss = s * s
        out = 2.0 * (sp * np.cos(s) - m1) - np.sin(t) / t * (cp * (ss + 1.0) - m0 * (ss - 1.0))
        return out if isinstance(out, np.ndarray) else float(out)

    return f


def _rcoth(r):
    if not isinstance(r, np.ndarray):
        return r + 2.0 * r / np.expm1(2.0 * r) if r < 350.0 else r
    small = r < 350.0
    safe = np.where(small, r, 1.0)
    return np.where(small, safe + 2.0 * safe / np.expm1(2.0 * safe), r)


def _rcsch(r):
    if not isinstance(r, np.ndarray):
        return -2.0 * r * np.exp(-r) / np.expm1(-2.0 * r) if r < 350.0 else 0.0
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
        out = 2.0 * sp * _rcoth(r) - 2.0 * m1 * _rcsch(r) + (cp - m0) * r * r - (cp + m0)
        return out if isinstance(out, np.ndarray) else float(out)

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
        try:
            object.__setattr__(self, "count", operator.index(self.count))
        except TypeError:
            raise InvalidParameterError(f"count must be an integer, got {self.count!r}") from None
        if self.count < 1:
            raise InvalidParameterError("count must be >= 1")
        if not 0 < self.tol < math.inf:
            raise InvalidParameterError("tol must be positive and finite")
        for name in ("s_max_hint", "s_max_cap"):
            if getattr(self, name) is not None and not math.isfinite(getattr(self, name)):
                raise InvalidParameterError(f"{name} must be finite")


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


def _defect(e: ExtensionU2, sector: str, value: float) -> tuple[np.ndarray, float]:
    """Defect matrix L - U M at a sector value and its scale max(|L|, |M|, 1).

    The negative sector uses the column-scaled matrices of _lm_negative_scaled,
    which act on (B, e^{r} A) for phi = A e^{rx} + B e^{-rx}.
    """
    if sector == POSITIVE:
        l_m, m_m = lm_matrices(value)
    elif sector == NEGATIVE:
        l_m, m_m = _lm_negative_scaled(value)
    else:
        l_m, m_m = _zero_matrices()
    scale = max(np.linalg.norm(l_m), np.linalg.norm(m_m), 1.0)
    return l_m - to_matrix(e) @ m_m, float(scale)


def degeneracy(e: ExtensionU2, sector: str, value: float) -> int:
    """Multiplicity (1 or 2) of a verified eigenvalue: 2 when L - U M has rank 0."""
    d, scale = _defect(e, sector, value)
    return 2 if np.linalg.svd(d, compute_uv=False)[0] <= _RANK_RTOL * scale else 1


def _merge_roots(
    e: ExtensionU2, sector: str, f, brackets: list[Bracket],
    known: list[SpectralRoot], tol_gate: float,
) -> list[SpectralRoot]:
    """Refine brackets and merge the roots into the sorted, classified known roots.

    Roots within 1e-9 relative of a kept one are duplicates from overlapping
    brackets.  A root below sqrt(ZERO_MODE_TOL) is dropped only when the zero
    mode is reported (|Z| <= ZERO_MODE_TOL): it is that zero mode, since the
    reduced characteristic is Z + O(value^2) at the origin.  New roots carry
    multiplicity 0 until kept; each kept one gets one degeneracy SVD.
    """
    fresh = []
    tols = [1e-13 * max(1.0, abs(0.5 * (br.lo + br.hi))) for br in brackets]
    for br, report in zip(brackets, refine_brackets(brackets, f, tols)):
        scale = max(abs(br.f_lo), abs(br.f_hi), 1e-30)
        residual = abs(report.residual) / scale
        if residual > tol_gate and not br.double_root:
            raise DiagnosticError(
                f"root residual {residual:.3e} above tolerance {tol_gate:.3e} at {report.root!r}"
            )
        fresh.append(SpectralRoot(report.root, 0, residual, report.iterations))
    floor = math.sqrt(ZERO_MODE_TOL) if abs(char_zero(e)) <= ZERO_MODE_TOL else 0.0
    merged: list[SpectralRoot] = []
    for root in sorted(known + fresh, key=lambda root: root.value):
        if root.value < floor or (
            merged and abs(root.value - merged[-1].value) <= 1e-9 * (1.0 + abs(root.value))
        ):
            continue
        if not root.multiplicity:
            root = replace(root, multiplicity=degeneracy(e, sector, root.value))
        merged.append(root)
    return merged


def _solve_negative(e: ExtensionU2, tol: float) -> list[SpectralRoot]:
    g = _reduced_negative(e)
    brackets = scan_brackets(g, 1e-8, _NEG_SCAN_MAX, SCAN_STEP)

    # beyond the scan window the scaled equation is the exact quadratic
    # c2 r^2 + c1 r + c0 = (cos psi - m0) r^2 + 2 sin(psi) r - (cos psi + m0)
    c2 = math.cos(e.psi) - e.m0
    c1 = 2.0 * math.sin(e.psi)
    c0 = -(math.cos(e.psi) + e.m0)
    disc = c1 * c1 - 4.0 * c2 * c0
    vertex = -c1 / (2.0 * c2) if c2 != 0.0 else math.nan
    tail: list[float] = []
    # disc = 4 (1 - m0^2) >= 0; the rounded coefficients move it by a few eps,
    # and within that the vertex is a double root
    if abs(disc) <= 8.0 * np.finfo(float).eps * (abs(c0) + abs(c1) + abs(c2)):
        tail = [vertex, vertex]
    elif c2 != 0.0 and disc > 0.0:
        sq = math.sqrt(disc)
        tail = [(-c1 + sq) / (2.0 * c2), (-c1 - sq) / (2.0 * c2)]
    elif c2 == 0.0:
        tail = [-c0 / c1]
    tail = [cand for cand in tail if cand > _QUAD_REGIME]
    for cand in set(tail):
        if cand == vertex:
            w = max(1e-9, 1e-7 * cand)
            brackets.append(Bracket(cand - w, cand + w, g(cand - w), g(cand + w),
                                    double_root=True, x_min=cand))
            continue
        # one bracket on each side of the vertex, so a close pair splits
        lo = max(0.8 * cand, vertex) if cand > vertex else 0.8 * cand
        hi = min(1.25 * cand + 1.0, vertex) if cand < vertex else 1.25 * cand + 1.0
        g_lo, g_hi = g(lo), g(hi)
        if g_lo * g_hi < 0:
            brackets.append(Bracket(lo, hi, g_lo, g_hi))

    out = _merge_roots(e, NEGATIVE, g, brackets, [], tol_gate=max(tol, 1e-9))
    total = sum(root.multiplicity for root in out)
    if total > 2:
        raise DiagnosticError(
            f"found {total} negative eigenvalues (counting multiplicity); at most 2 can exist"
        )
    found = sum(root.multiplicity for root in out if root.value > _QUAD_REGIME * (1.0 - 1e-9))
    if found < len(tail):
        raise DiagnosticError(f"found {found} negative eigenvalues beyond r = {_QUAD_REGIME}, "
                              f"where the quadratic tail has {len(tail)}")
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
        roots = _merge_roots(e, POSITIVE, f, brackets, roots, tol_gate=max(req.tol, 1e-9))
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
    return SpectrumResult(
        negative=tuple(negative),
        has_zero_mode=has_zero,
        positive=tuple(positive),
        diagnostics=SolveDiagnostics(zero_value=z, scan_ceiling=ceiling),
    )


# ---------------------------------------------------------------------------
# eigenfunctions


@dataclass(frozen=True)
class BoxEigenfunction:
    """Normalized eigenfunction of the box Hamiltonian on [0, 1].

    positive sector: phi = A e^{isx} + B e^{-isx}
    zero sector:     phi = A + B x
    negative sector: phi = A e^{rx} + B e^{-rx}

    ``coeffs`` is (A, B).  Doubly degenerate eigenvalues carry the second
    orthonormal coefficient pair in ``degenerate_partner``.
    """

    sector: str
    s_or_r: float
    coeffs: tuple[complex, complex]
    degenerate_partner: tuple[complex, complex] | None = None

    @property
    def _k(self):
        """Exponent k of phi = A e^{kx} + B e^{-kx}: i s or r."""
        return 1j * self.s_or_r if self.sector == POSITIVE else self.s_or_r

    def value(self, x):
        x = np.asarray(x, dtype=float)
        a, b = self.coeffs
        if self.sector == ZERO:
            return a + b * x
        return a * np.exp(self._k * x) + b * np.exp(-self._k * x)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        a, b = self.coeffs
        if self.sector == ZERO:
            return np.full_like(x, b, dtype=complex)
        k = self._k
        return a * k * np.exp(k * x) - b * k * np.exp(-k * x)

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
        return BoxEigenfunction(self.sector, self.s_or_r, self.degenerate_partner)


def _inner(sector: str, value: float, c1, c2) -> complex:
    """<phi1, phi2> on [0, 1] for two coefficient pairs in the coordinates _defect acts on.

    The negative sector's pairs weight the bounded basis (e^{-rx}, e^{r(x-1)}),
    whose Gram matrix holds no e^{+r}.
    """
    a1, b1 = c1
    a2, b2 = c2
    if sector == POSITIVE:
        s = value
        i2s = (cmath.exp(2j * s) - 1.0) / (2j * s)
        return (
            np.conj(a1) * a2
            + np.conj(b1) * b2
            + np.conj(a1) * b2 * np.conj(i2s)
            + np.conj(b1) * a2 * i2s
        )
    if sector == NEGATIVE:
        diag = -math.expm1(-2.0 * value) / (2.0 * value)
        off = math.exp(-value)
        cross = np.conj(a1) * b2 + np.conj(b1) * a2
        return (np.conj(a1) * a2 + np.conj(b1) * b2) * diag + cross * off
    return np.conj(a1) * a2 + (np.conj(a1) * b2 + np.conj(b1) * a2) / 2.0 + np.conj(b1) * b2 / 3.0


def _normalize(sector: str, value: float, coeffs) -> tuple[complex, complex]:
    norm_sq = _inner(sector, value, coeffs, coeffs).real
    if not norm_sq > 0.0:
        raise DiagnosticError("eigenfunction has vanishing norm")
    norm = math.sqrt(norm_sq)
    return complex(coeffs[0]) / norm, complex(coeffs[1]) / norm


def eigenfunction(e: ExtensionU2, root: tuple[str, float]) -> BoxEigenfunction:
    """Normalized eigenfunction(s) for a verified root of the spectrum.

    ``root`` is a (sector, value) pair as produced by solve_spectrum.  One SVD
    of the defect matrix L - U M decides the multiplicity and gives the null
    vector.  A non-degenerate positive mode takes the gauge of the first-row
    closed form instead; a doubly degenerate eigenvalue carries the second
    orthonormal coefficient pair in ``degenerate_partner``.
    """
    sector, value = root
    if sector not in (POSITIVE, ZERO, NEGATIVE):
        raise InvalidParameterError(f"unknown sector {sector!r}")

    if sector == ZERO:
        if abs(char_zero(e)) > ZERO_MODE_TOL:
            raise InvalidRootError("this extension has no zero mode")
        value = 0.0
    else:
        if value <= 0:
            raise InvalidRootError(f"{sector}-sector value must be > 0, got {value!r}")
        if sector == NEGATIVE and value > 690.0:
            raise InvalidRootError(
                f"r = {value!r} too stiff to normalize in double precision (r <= 690)"
            )
        reduced = _reduced_positive(e) if sector == POSITIVE else _reduced_negative(e)
        if abs(reduced(value)) > 1e-6 * (1.0 + value * value):
            name = "s" if sector == POSITIVE else "r"
            raise InvalidRootError(f"{name} = {value!r} does not solve the eigenvalue equation")

    d, scale = _defect(e, sector, value)
    _, sing, vh = np.linalg.svd(d)
    if sing[0] <= _RANK_RTOL * scale:
        # rank 0: orthonormalize the unit vectors, e^{isx}, 1 or e^{rx} first
        unit = [(1.0 + 0j, 0j), (0j, 1.0 + 0j)]
        first, second = unit[::-1] if sector == NEGATIVE else unit
        c1 = _normalize(sector, value, first)
        overlap = _inner(sector, value, c1, second)
        c2 = (second[0] - overlap * c1[0], second[1] - overlap * c1[1])
        modes = [c1, _normalize(sector, value, c2)]
    else:
        coeffs = vh[-1].conj()
        if sector == POSITIVE:
            s = value
            alpha, gamma = to_matrix(e)[0]
            a_coef = alpha * (s - 1.0) + (gamma * cmath.exp(-1j * s) - 1.0) * (s + 1.0)
            b_coef = alpha * (s + 1.0) + (gamma * cmath.exp(1j * s) - 1.0) * (s - 1.0)
            if abs(a_coef) + abs(b_coef) > 1e-9 * 4.0 * (1.0 + s):
                coeffs = (a_coef, b_coef)
        modes = [_normalize(sector, value, coeffs)]

    for vec in modes:
        residual = float(np.linalg.norm(d @ np.array(vec)))
        if residual > _BC_RTOL * scale * float(np.linalg.norm(vec)):
            raise DiagnosticError(
                f"boundary-condition residual {residual:.3e} too large at {value!r}"
            )
    if sector == NEGATIVE:
        # (B, e^{r} A) -> (A, B)
        modes = [(v1 * math.exp(-value), v0) for v0, v1 in modes]
    return BoxEigenfunction(sector, value, modes[0], modes[1] if len(modes) == 2 else None)


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
