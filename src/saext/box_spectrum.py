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
from .extensions import ExtensionU2, SimpleFamily, classify_simple_family, unitary_entries
from .numerics import Bracket, refine_brackets, scan_brackets

SCAN_STEP = math.pi / 8.0          # roots of F interlace no tighter than ~pi/2
ZERO_MODE_TOL = 1e-10              # |Z| threshold for an exact zero mode
_BC_RTOL = 1e-9                    # boundary defect |(L - U M) c| relative to scale |c|
_RANK_RTOL = 1e-8                  # sigma_max(L - U M) / scale at or below which a level is double
_MERGE_RTOL = 1e-9                 # roots closer than this times (1 + value) are one level
_NEG_SCAN_MAX = 30.0               # beyond ~25 the scaled equation is a pure quadratic
_QUAD_REGIME = 25.0

POSITIVE = "positive"
ZERO = "zero"
NEGATIVE = "negative"


# ---------------------------------------------------------------------------
# characteristic functions and boundary matrices


def _lm_entries(sa, wa0, wa1, sb, wb0, wb1):
    """L and M, each as row-major entries, on a basis pair f_a, f_b of solutions.

    Each f solves -i f' = sigma f with f(0) = w0 and f(1) = w1, so for
    phi = c_a f_a + c_b f_b

    (phi'(0) - i phi(0), phi'(1) + i phi(1)) = i L (c_a, c_b)
    (phi'(0) + i phi(0), phi'(1) - i phi(1)) = i M (c_a, c_b)

    and the column of f is ((sigma - 1) w0, (sigma + 1) w1) in L and
    ((sigma + 1) w0, (sigma - 1) w1) in M.
    """
    return (
        ((sa - 1.0) * wa0, (sb - 1.0) * wb0, (sa + 1.0) * wa1, (sb + 1.0) * wb1),
        ((sa + 1.0) * wa0, (sb + 1.0) * wb0, (sa - 1.0) * wa1, (sb - 1.0) * wb1),
    )


def _lm_exponential(s: complex):
    """L(s), M(s) entries for phi = A e^{isx} + B e^{-isx}, acting on (A, B)."""
    return _lm_entries(s, 1.0, cmath.exp(1j * s), -s, 1.0, cmath.exp(-1j * s))


def lm_matrices(s: complex) -> tuple[np.ndarray, np.ndarray]:
    """Boundary-value matrices L(s), M(s) for phi = A e^{isx} + B e^{-isx}.

    (phi'(0) - i phi(0), phi'(1) + i phi(1)) = i L(s) (A, B)
    (phi'(0) + i phi(0), phi'(1) - i phi(1)) = i M(s) (A, B)

    det M(s) = 2[i(s^2+1) sin s - 2 s cos s]; both determinants vanish only
    at s = 0.  Accepts complex s (the negative sector uses s = i r).
    """
    return tuple(np.array(entries, dtype=complex).reshape(2, 2)
                 for entries in _lm_exponential(s))


# L and M for the zero sector phi = a + b x, acting on (a, b), without the factor i
_ZERO_LM = ((-1j, 1.0, 1j, 1.0 + 1j), (1j, 1.0, -1j, 1.0 - 1j))


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
    A scalar s takes numpy's cos and sin as Python floats: the same IEEE
    operations, without the slower numpy scalar arithmetic.
    """
    sp, cp = math.sin(e.psi), math.cos(e.psi)
    m0, m1 = e.m0, e.m1

    def f(s):
        t = math.pi * (s / math.pi + 1e-300)
        ss = s * s
        c, st = np.cos(s), np.sin(t)
        if not isinstance(s, np.ndarray):
            c, st = float(c), float(st)
        out = 2.0 * (sp * c - m1) - st / t * (cp * (ss + 1.0) - m0 * (ss - 1.0))
        return out if isinstance(out, np.ndarray) else float(out)

    return f


# The scalar branches of _rcoth and _rcsch take numpy's exp and expm1 as Python
# floats (as _reduced_positive does) and give the nan of 0/0 at r = 0.
def _rcoth(r):
    if not isinstance(r, np.ndarray):
        if r >= 350.0:
            return r
        em1 = float(np.expm1(2.0 * r))
        return r + 2.0 * r / em1 if em1 else math.nan
    small = r < 350.0
    safe = np.where(small, r, 1.0)
    return np.where(small, safe + 2.0 * safe / np.expm1(2.0 * safe), r)


def _rcsch(r):
    if not isinstance(r, np.ndarray):
        if r >= 350.0:
            return 0.0
        em1 = float(np.expm1(-2.0 * r))
        return -2.0 * r * float(np.exp(-r)) / em1 if em1 else math.nan
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


def _defect(e: ExtensionU2, sector: str, value: float) -> tuple[complex, complex, complex, complex]:
    """Row-major entries of (L - U M) / scale at a sector value, scale = max(|L|, |M|, 1).

    The negative sector works in the basis (e^{-rx}, e^{r(x-1)}), whose L and
    M hold no e^{+r}, so every entry stays finite for any r; its coordinates
    are (B, e^{r} A) for phi = A e^{rx} + B e^{-rx}.  Dividing by the scale
    keeps the entries at order 1, so det D stays finite in _sigma_max.
    """
    if sector == POSITIVE:
        l_m, m_m = _lm_exponential(value)
    elif sector == NEGATIVE:
        ir, em = 1j * value, math.exp(-value)
        l_m, m_m = _lm_entries(ir, 1.0, em, -ir, em, 1.0)
    else:
        l_m, m_m = _ZERO_LM
    scale = max(math.hypot(*map(abs, l_m)), math.hypot(*map(abs, m_m)), 1.0)
    u00, u01, u10, u11 = unitary_entries(e)
    l00, l01, l10, l11 = l_m
    m00, m01, m10, m11 = m_m
    return (
        (l00 - u00 * m00 - u01 * m10) / scale, (l01 - u00 * m01 - u01 * m11) / scale,
        (l10 - u10 * m00 - u11 * m10) / scale, (l11 - u10 * m01 - u11 * m11) / scale,
    )


def _sigma_max(entries) -> float:
    """Largest singular value of the 2x2 matrix D with row-major entries (a, b, c, d).

    (sigma_1 +- sigma_2)^2 = |D|_F^2 +- 2 |det D|.  With w = det D / |det D|
    each side is a sum of two squared moduli, |a +- w conj(d)|^2 + |b -+ w conj(c)|^2,
    so no difference of squares loses the smaller singular value.
    """
    a, b, c, d = entries
    det = a * d - b * c
    w = det / abs(det) if det else 1.0
    wd, wc = w * d.conjugate(), w * c.conjugate()
    return 0.5 * (math.hypot(abs(a + wd), abs(b - wc)) + math.hypot(abs(a - wd), abs(b + wc)))


def _null_vector(entries) -> tuple[complex, complex]:
    """(q, -p) for the row (p, q) of larger norm: a null vector of a rank-1 2x2 matrix.

    It annihilates that row exactly, and the other row up to det / |(p, q)|,
    at most sqrt(2) sigma_min relative to its own norm.
    """
    a, b, c, d = entries
    p, q = (a, b) if math.hypot(abs(a), abs(b)) >= math.hypot(abs(c), abs(d)) else (c, d)
    return q, -p


def degeneracy(e: ExtensionU2, sector: str, value: float) -> int:
    """Multiplicity (1 or 2) of a verified eigenvalue: 2 when L - U M has rank 0."""
    return 2 if _sigma_max(_defect(e, sector, value)) <= _RANK_RTOL else 1


def _merge_roots(
    e: ExtensionU2, sector: str, f, brackets: list[Bracket],
    known: list[SpectralRoot], tol_gate: float,
) -> list[SpectralRoot]:
    """Refine brackets and merge the roots into the sorted, classified known roots.

    Roots within the merge distance of a kept one are duplicates from overlapping
    brackets.  A root below sqrt(ZERO_MODE_TOL) is dropped only when the zero
    mode is reported (|Z| <= ZERO_MODE_TOL): it is that zero mode, since the
    reduced characteristic is Z + O(value^2) at the origin.  New roots carry
    multiplicity 0 until kept; each kept one gets one rank test (degeneracy).
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
            merged and abs(root.value - merged[-1].value) <= _MERGE_RTOL * (1.0 + abs(root.value))
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
        # a cap below lo + SCAN_STEP scans one shorter step; a cap at or below lo, nothing
        step = min(SCAN_STEP, ceiling - lo)
        brackets = scan_brackets(f, lo, ceiling, step) if step > 0 else []
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


def _check_level_count(below: int, positive: list[SpectralRoot]) -> None:
    """Raise unless 0 <= N_U(E) - N_D(E) <= 2 up to the last positive level.

    N_U counts the levels at or below E with multiplicity; ``below`` is the
    count at E = 0 (negative levels and the zero mode), and the Dirichlet
    count is N_D(s^2) = floor(s / pi).  Every U(2) extension and the
    Dirichlet one extend the same minimal operator, of deficiency (2, 2), so
    the bound holds for every E.  N_U - N_D peaks at a level and dips at an
    n pi, so those are the points checked, with the merge distance as slack
    on either side in favour of the bound.
    """
    def slack(s):
        return _MERGE_RTOL * (1.0 + s)

    def breach(s, n_u, n_d):
        return DiagnosticError(f"level count N_U = {n_u} against Dirichlet N_D = {n_d} "
                               f"at s = {s!r} breaks 0 <= N_U - N_D <= 2")

    if below > 2:
        raise breach(0.0, below, 0)
    n_u = below
    for root in positive:
        n_u += root.multiplicity
        n_d = math.floor((root.value + slack(root.value)) / math.pi)
        if n_u > n_d + 2:
            raise breach(root.value, n_u, n_d)
    n_u, i = below, 0
    for n in range(1, math.floor(positive[-1].value / math.pi) + 1):
        s = n * math.pi
        while i < len(positive) and positive[i].value <= s + slack(s):
            n_u += positive[i].multiplicity
            i += 1
        if n_u < n:
            raise breach(s, n_u, n)


def solve_spectrum(req: BoxSpectrumRequest) -> SpectrumResult:
    """Negative, zero, and positive spectrum of the boxed Hamiltonian for req.ext.

    Scans the reduced characteristic functions with step pi/8, refines every
    bracket, detects double eigenvalues through the rank of L - U M at the
    root, and cross-validates against the closed forms whenever the boundary
    condition belongs to one of the two simple families.  The level count is
    checked against the Dirichlet count (_check_level_count); a breach
    raises DiagnosticError.
    """
    e = req.ext
    z = char_zero(e)
    has_zero = abs(z) <= ZERO_MODE_TOL

    negative = _solve_negative(e, req.tol)
    positive, ceiling = _solve_positive(req)
    _cross_validate_family(e, positive)
    below = sum(root.multiplicity for root in negative)
    if has_zero:
        below += degeneracy(e, ZERO, 0.0)
    _check_level_count(below, positive)
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
    a1, b1 = (z.conjugate() for z in c1)  # conjugate-linear in the first pair
    a2, b2 = c2
    if sector == POSITIVE:
        s = value
        i2s = (cmath.exp(2j * s) - 1.0) / (2j * s)
        return a1 * a2 + b1 * b2 + a1 * b2 * i2s.conjugate() + b1 * a2 * i2s
    if sector == NEGATIVE:
        diag = -math.expm1(-2.0 * value) / (2.0 * value)
        off = math.exp(-value)
        return (a1 * a2 + b1 * b2) * diag + (a1 * b2 + b1 * a2) * off
    return a1 * a2 + (a1 * b2 + b1 * a2) / 2.0 + b1 * b2 / 3.0


def _normalize(sector: str, value: float, coeffs) -> tuple[complex, complex]:
    norm_sq = _inner(sector, value, coeffs, coeffs).real
    if not norm_sq > 0.0:
        raise DiagnosticError("eigenfunction has vanishing norm")
    norm = math.sqrt(norm_sq)
    return complex(coeffs[0]) / norm, complex(coeffs[1]) / norm


def eigenfunction(e: ExtensionU2, root: tuple[str, float]) -> BoxEigenfunction:
    """Normalized eigenfunction(s) for a verified root of the spectrum.

    ``root`` is a (sector, value) pair as produced by solve_spectrum.  The
    defect matrix L - U M is formed in scalar arithmetic: its largest singular
    value, in closed form, decides the multiplicity.  A simple level's null
    vector is (q, -p) for the row (p, q) of larger norm; a non-degenerate
    positive mode takes the gauge of the first-row closed form instead.  A
    doubly degenerate eigenvalue carries the second orthonormal coefficient
    pair in ``degenerate_partner``.  Every mode must satisfy the boundary
    condition to _BC_RTOL, or DiagnosticError is raised.
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

    d = _defect(e, sector, value)
    if _sigma_max(d) <= _RANK_RTOL:
        # rank 0: orthonormalize the unit vectors, e^{isx}, 1 or e^{rx} first
        unit = [(1.0 + 0j, 0j), (0j, 1.0 + 0j)]
        first, second = unit[::-1] if sector == NEGATIVE else unit
        c1 = _normalize(sector, value, first)
        overlap = _inner(sector, value, c1, second)
        c2 = (second[0] - overlap * c1[0], second[1] - overlap * c1[1])
        modes = [c1, _normalize(sector, value, c2)]
    else:
        coeffs = _null_vector(d)
        if sector == POSITIVE:
            s = value
            alpha, gamma = unitary_entries(e)[:2]
            a_coef = alpha * (s - 1.0) + (gamma * cmath.exp(-1j * s) - 1.0) * (s + 1.0)
            b_coef = alpha * (s + 1.0) + (gamma * cmath.exp(1j * s) - 1.0) * (s - 1.0)
            if abs(a_coef) + abs(b_coef) > 1e-9 * 4.0 * (1.0 + s):
                coeffs = (a_coef, b_coef)
        modes = [_normalize(sector, value, coeffs)]

    d00, d01, d10, d11 = d
    for v0, v1 in modes:
        residual = math.hypot(abs(d00 * v0 + d01 * v1), abs(d10 * v0 + d11 * v1))
        if residual > _BC_RTOL * math.hypot(abs(v0), abs(v1)):
            raise DiagnosticError(
                f"boundary-condition residual {residual:.3e} (relative) too large at {value!r}"
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
