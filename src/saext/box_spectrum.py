"""Full spectrum and eigenfunctions of -D^2 on [0, L] for a U(2) boundary condition.

All spectral work is dimensionless (L = 1): positive eigenvalues are E = s^2
with s > 0, a possible zero mode, and negative eigenvalues E = -r^2 with
r > 0.  Physical units enter only through ``to_physical_energy``.

The s > 0 eigenvalues solve the real characteristic equation

    F(s) = 2 s [sin(psi) cos(s) - m1] - sin(s) [cos(psi)(s^2+1) - m0(s^2-1)] = 0,

the zero mode exists iff Z = 2 sin(psi) - cos(psi) - 2 m1 - m0 = 0, and the
negative sector follows from s -> i r.  The boundary triple (_chart) gives the
exact count N(s) of the levels at or below s^2 (_level_count); the solver
bisects it until each interval holds one level, which is refined on F/s (which
tends to Z at s -> 0), or a jump of 2, a double level.  Each of the at most two
negative levels is one bracketed root of a branch of Theta - M(-r^2)
(_negative_branches).  Closed forms for the two simple families are
cross-checks only.

The solver and the eigenfunction construction run on Python floats and
complex numbers, through ``math`` and ``cmath``.  numpy loads only in
``BoxEigenfunction.value`` and ``derivative``, which accept arrays.
"""

from __future__ import annotations

import cmath
import math
import operator
from typing import NamedTuple

from .errors import (
    DiagnosticError,
    IncompleteSpectrumError,
    InvalidParameterError,
    InvalidRootError,
)
from .extensions import ExtensionU2, SimpleFamily, classify_simple_family, unitary_entries
from .roots import Bracket, refine_root

_RESIDUAL_RTOL = 1e-9              # a root's residual gate, both sectors
_BC_RTOL = 1e-9                    # boundary defect |(L - U M) c| relative to scale |c|
_RANK_RTOL = 1e-8                  # sigma_max(L - U M) / scale at or below which a level is double
_MERGE_RTOL = 1e-9                 # roots closer than this times (1 + value) are one level

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


# L and M for the zero sector phi = a + b x, acting on (a, b), without the factor i
_ZERO_LM = ((-1j, 1.0, 1j, 1.0 + 1j), (1j, 1.0, -1j, 1.0 - 1j))


def char_zero(e: ExtensionU2) -> float:
    """Z = 2 sin(psi) - cos(psi) - 2 m1 - m0; a zero mode exists iff Z = 0."""
    return 2.0 * math.sin(e.psi) - math.cos(e.psi) - 2.0 * e.m1 - e.m0


def _reduced_positive(e: ExtensionU2):
    """F(s)/s, continuous at 0 with limit Z; kills the trivial root at s = 0.

    sin(t)/t at t = pi (s/pi + 1e-300) rounds as np.sinc(s/pi) does and is
    finite at 0.  2 (sin(psi) cos(s) - m1) is taken as 2 (sin(psi) - m1)
    - 4 sin(psi) sin^2(s/2): cos(s) rounds with an absolute error of about
    1e-16, which at small s swamps its distance s^2/2 from 1.
    """
    sp, cp = math.sin(e.psi), math.cos(e.psi)
    at_zero, curvature = 2.0 * (sp - e.m1), 4.0 * sp
    quadratic, constant = cp - e.m0, cp + e.m0   # cos(psi) (s^2 + 1) - m0 (s^2 - 1)

    def f(s):
        t = math.pi * (s / math.pi + 1e-300)
        h = math.sin(0.5 * s)
        return at_zero - curvature * h * h - math.sin(t) / t * (quadratic * s * s + constant)

    return f


# r coth(r) and r csch(r), the nan of 0/0 at r = 0
def _rcoth(r: float) -> float:
    if r >= 350.0:
        return r
    em1 = math.expm1(2.0 * r)
    return r + 2.0 * r / em1 if em1 else math.nan


def _rcsch(r: float) -> float:
    if r >= 350.0:
        return 0.0
    em1 = math.expm1(-2.0 * r)
    return -2.0 * r * math.exp(-r) / em1 if em1 else math.nan


# ---------------------------------------------------------------------------
# request / result containers


class _BoxSpectrumFields(NamedTuple):
    ext: ExtensionU2
    count: int = 10
    s_max: float | None = None     # a cap on the positive levels' s; None for no cap


class BoxSpectrumRequest(_BoxSpectrumFields):
    """A validated solve_spectrum request; ``count`` is stored as an int."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        try:
            count = operator.index(self.count)
        except TypeError:
            raise InvalidParameterError(f"count must be an integer, got {self.count!r}") from None
        if count < 1:
            raise InvalidParameterError("count must be >= 1")
        if self.s_max is not None and not 0 < self.s_max < math.inf:
            raise InvalidParameterError(f"s_max must be positive and finite, got {self.s_max!r}")
        return self._replace(count=count)


class SpectralRoot(NamedTuple):
    value: float          # s (positive sector) or r (negative sector), both > 0
    multiplicity: int
    residual: float       # |F/s| over its terms' scale, or |lambda_j| over its bracket ends
    iterations: int = 0


class SolveDiagnostics(NamedTuple):
    zero_value: float     # Z, the zero-mode indicator


class SpectrumResult(NamedTuple):
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
        # phi = A e^{isx} + B e^{-isx}, acting on (A, B)
        l_m, m_m = _lm_entries(value, 1.0, cmath.exp(1j * value),
                               -value, 1.0, cmath.exp(-1j * value))
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


def _check_sector(sector: str) -> None:
    if sector not in (POSITIVE, ZERO, NEGATIVE):
        raise InvalidParameterError(f"unknown sector {sector!r}")


def degeneracy(e: ExtensionU2, sector: str, value: float) -> int:
    """Multiplicity (1 or 2) of a verified eigenvalue: 2 when L - U M has rank 0.

    An unknown sector or a non-finite value raises InvalidParameterError.
    """
    _check_sector(sector)
    if not math.isfinite(value):
        raise InvalidParameterError(f"value must be finite, got {value!r}")
    return 2 if _sigma_max(_defect(e, sector, value)) <= _RANK_RTOL else 1


def _gate(residual: float, root: float) -> None:
    if residual > _RESIDUAL_RTOL:
        raise DiagnosticError(
            f"root residual {residual:.3e} above tolerance {_RESIDUAL_RTOL:.3e} at {root!r}"
        )


# Relative rounding bound of each term of Z and of the level count's matrix entries: a
# few roundings each in theta, tan(s/2), 1 +- n and the sums, with a margin.
_COUNT_RTOL = 64.0 * 2.0 ** -53


def _zero_bound(e: ExtensionU2) -> float:
    """The rounding bound of Z's own terms: |Z| at or below it is an exact zero mode."""
    sp, cp = math.sin(e.psi), math.cos(e.psi)
    return _COUNT_RTOL * (2.0 * abs(sp) + abs(cp) + 2.0 * abs(e.m1) + abs(e.m0))


def _zero_floor(e: ExtensionU2) -> float:
    """The value below which a root is the zero mode (Z + O(value^2)), if that is reported."""
    bound = _zero_bound(e)
    return math.sqrt(bound) if abs(char_zero(e)) <= bound else 0.0


def _chart(e: ExtensionU2):
    """(theta_+, theta_-, n, 1 + n, 1 - n, n_perp): Theta and M's coupling in Theta's eigenbasis.

    With Gamma_0 f = (f(0), f(1)) and Gamma_1 f = (f'(0), -f'(1)) the condition
    reads Gamma_1 = Theta Gamma_0, theta_+- = -cot((psi -+ alpha)/2), alpha =
    atan2(|m|, m0); a Dirichlet direction, the limit theta -> +inf, is held as
    1e300.  n = -m1/|m| and n_perp = hypot(m2, m3)/|m|.  1 +- n = (|m| -+ m1)/|m|
    takes the smaller of the two as n_perp^2 over the larger, without cancellation.
    """
    m1, m2, m3 = e.m
    size = math.hypot(m1, m2, m3)
    n, n_perp = (-m1 / size, math.hypot(m2, m3) / size) if size else (1.0, 0.0)
    large = 1.0 + abs(n)
    plus, minus = (large, n_perp * n_perp / large) if n >= 0.0 else (n_perp * n_perp / large, large)
    sp, cp = math.sin(e.psi), math.cos(e.psi)
    thetas = []
    # -cot((psi - a)/2) = (sin psi + sin a)/(cos psi - cos a) = (cos psi + cos a)/(sin a - sin psi)
    # at a = +-alpha (cos a = m0): the forms divide out sin((psi + a)/2) and cos((psi + a)/2),
    # so each is taken where its factor is the larger, by the sign of cos(psi + a)
    for sa in (size, -size):
        if cp * e.m0 - sp * sa <= 0.0:
            num, den = sp + sa, cp - e.m0
        else:
            num, den = cp + e.m0, sa - sp
        theta = num / den if den else math.inf
        thetas.append(theta if abs(theta) < 1e300 else 1e300)
    return thetas[0], thetas[1], n, plus, minus, n_perp


def _level_count(e: ExtensionU2):
    """N(s): the levels of U at or below E = s^2, with multiplicity, in every sector.

    N_U(s^2) = floor(s / pi) + kappa_-(Theta - M(s^2)), the Krein-formula index
    count (Derkach & Malamud, J. Funct. Anal. 95, 1991): every U(2) extension
    and the Dirichlet one (N_D(s^2) = floor(s / pi)) extend one minimal operator.
    In Theta's eigenbasis, with the half-angle entries T = -s tan(s/2) and
    C = s cot(s/2), which do not cancel near n pi,

        Theta - M(s^2) = [[theta_+ + (T (1 + n) + C (1 - n))/2, (C - T) n_perp/2],
                          [(C - T) n_perp/2, theta_- + (T (1 - n) + C (1 + n))/2]],

    and kappa_- comes from Haynsworth inertia: the pivot a of larger modulus and
    the Schur complement b - c^2/a.  floor(s / pi) takes its side of n pi from
    the sign of tan(s/2), as T and C do.  N is None (undecided) where the pivot
    or the Schur complement lies within the rounding bound of the terms that
    form it; a clamped Dirichlet direction decides its entry's sign on its own
    and stays out of that bound.
    """
    theta_p, theta_m, _, plus, minus, n_perp = _chart(e)
    size_p, size_m = (abs(t) if abs(t) < 1e300 else 0.0 for t in (theta_p, theta_m))

    def count(s):
        t = math.tan(0.5 * s)
        big_t, big_c = -s * t, s / t
        a = theta_p + 0.5 * (big_t * plus + big_c * minus)
        b = theta_m + 0.5 * (big_t * minus + big_c * plus)
        c = 0.5 * (big_c - big_t) * n_perp
        err_a = _COUNT_RTOL * (size_p + 0.5 * (abs(big_t) * plus + abs(big_c) * minus))
        err_b = _COUNT_RTOL * (size_m + 0.5 * (abs(big_t) * minus + abs(big_c) * plus))
        if abs(b) > abs(a):
            a, b, err_a, err_b = b, a, err_b, err_a
        if abs(a) <= err_a:
            return None
        cc = c / a * c
        schur = b - cc
        if abs(schur) <= err_b + abs(cc) * (_COUNT_RTOL + err_a / abs(a)):
            return None
        n = round(s / math.pi)
        below = n if (t > 0.0) == (n % 2 == 0) else n - 1
        return below + (a < 0.0) + (schur < 0.0)

    return count


# Where the count is undecided, the probe moves to the next of these fractions of its interval.
_FRACTIONS = (0.5, 0.3, 0.7, 0.2, 0.8, 0.1, 0.9, 0.4, 0.6)


def _probe(count, lo: float, hi: float, fractions=_FRACTIONS, ratio=False) -> tuple[float, int]:
    """(x, N(x)) at the first x = lo + f (hi - lo), f in fractions, where the count is decided.

    With ratio, x = lo (hi / lo)^f instead.
    """
    for frac in fractions:
        x = lo * (hi / lo) ** frac if ratio else lo + frac * (hi - lo)
        n = count(x)
        if n is not None:
            return x, n
    raise DiagnosticError(f"level count undecided throughout [{lo!r}, {hi!r}]")


def _negative_branches(e: ExtensionU2):
    """(lambda_j(r), theta_(j)) for the sorted eigenvalues of Theta - M(-r^2), smallest first.

    With p = r coth r and q = r csch r, in Theta's eigenbasis (_chart)
    Theta - M(-r^2) = [[theta_+ + p - q n, q n_perp], [q n_perp, theta_- + p + q n]].
    Each lambda_j rises strictly with r, lies within [r tanh(r/2), r coth(r/2)] of
    theta_(j) (Weyl), and E = -r^2 is a level where one vanishes (Derkach &
    Malamud 1991; Behrndt, Hassi & de Snoo 2020, ch. 3).
    (cos psi - m0) lambda_1 lambda_2 = G(r)/sinh(r).
    """
    theta_p, theta_m, n, _, _, n_perp = _chart(e)

    def entries(r):
        p, q = _rcoth(r), _rcsch(r)
        a, b, c = theta_p + p - q * n, theta_m + p + q * n, q * n_perp
        mean, radius = 0.5 * (a + b), math.hypot(0.5 * (a - b), c)
        big = mean + radius if mean >= 0.0 else mean - radius
        # the eigenvalue of smaller modulus as det / big, without cancellation or overflow
        return big, (a / big * b - c / big * c) if big else 0.0

    low, high = sorted((theta_p, theta_m))
    return [(lambda r: min(entries(r)), low), (lambda r: max(entries(r)), high)]


def _negative_brackets(e: ExtensionU2):
    """(bracket, lambda_j) for each branch of Theta - M(-r^2) that starts negative.

    Since r - 0.557 <= r tanh(r/2) and r coth(r/2) <= r + 2, branch j has its
    root in [-theta_(j) - 2, -theta_(j) + 0.557], widened by a margin over the
    round-off of lambda_j.
    """
    out = []
    for branch, theta in _negative_branches(e):
        if not branch(1e-8) < 0.0:
            continue
        margin = 1e-12 * (1.0 + abs(theta))
        lo, hi = max(-theta - 2.0 - margin, 1e-8), -theta + 0.56 + margin
        out.append((Bracket(lo, hi, branch(lo), branch(hi)), branch))
    return out


def _solve_negative(e: ExtensionU2) -> list[SpectralRoot]:
    """The levels E = -r^2: one root per branch of Theta - M(-r^2) that starts negative.

    Its residual is |lambda_j| at the root relative to the bracket's end values.
    Two roots within the merge distance are one level of multiplicity 2, the
    jump of the negative count there.
    """
    floor, roots = _zero_floor(e), []
    for br, branch in _negative_brackets(e):
        report = refine_root(br, branch, 1e-13 * max(1.0, 0.5 * (br.lo + br.hi)))
        residual = abs(report.residual) / max(abs(br.f_lo), abs(br.f_hi), 1e-30)
        _gate(residual, report.root)
        if report.root >= floor:
            roots.append(SpectralRoot(report.root, 1, residual, report.iterations))
    roots.sort()
    if len(roots) == 2 and roots[1].value - roots[0].value <= _MERGE_RTOL * (1.0 + roots[1].value):
        return [roots[0]._replace(multiplicity=2)]
    return roots


def _solve_positive(req: BoxSpectrumRequest):
    """The first positive levels of multiplicity sum >= req.count, or all up to req.s_max.

    Returns them with ((x0, N(x0)), (x1, N(x1))): the count at the zero-mode
    floor and just above the last level (or at the ceiling).  The count is
    bisected from the floor; N >= floor(s / pi) puts the count-th level below
    the first point past (N(x0) + count) pi.  An interval holding exactly one
    level is refined on F/s where F/s changes sign across it; any other jump is
    bisected on the count down to 1e-13 s, and the jump is the level's
    multiplicity (a double cross-checked by degeneracy).  The residual is |F/s|
    relative to the sum of its terms' moduli with |sin| taken as 1, a scale
    that does not shrink with the interval.
    """
    e = req.ext
    f = _reduced_positive(e)
    count = _level_count(e)
    sp, cp = math.sin(e.psi), math.cos(e.psi)
    fixed, quadratic, constant = abs(2.0 * (sp - e.m1)) + abs(4.0 * sp), abs(cp - e.m0), abs(cp + e.m0)

    floor = max(_zero_floor(e), 1e-8)
    start = _probe(count, floor, 2.0 * floor, (0.0,) + _FRACTIONS)
    target = start[1] + req.count
    if req.s_max is None or req.s_max >= (target + 1) * math.pi:
        end = _probe(count, target * math.pi, (target + 1) * math.pi)
    elif req.s_max > start[0]:
        end = _probe(count, req.s_max * (1.0 - 1e-9), req.s_max, (1.0,) + _FRACTIONS)
    else:
        return [], (start, start)

    levels, top = [], start
    stack = [(start, end)]    # intervals, the lowest last
    while stack and top[1] < target:
        (lo, n_lo), (hi, n_hi) = stack.pop()
        jump = n_hi - n_lo
        if jump < 0:
            raise DiagnosticError(f"level count falls from {n_lo} to {n_hi} on [{lo!r}, {hi!r}]")
        # within a factor 2, 1e-13 of the interval's midpoint is 1e-13 of the level
        f_lo, f_hi = (f(lo), f(hi)) if jump == 1 and hi <= 2.0 * lo else (0.0, 0.0)
        if f_lo * f_hi < 0.0:
            report = refine_root(Bracket(lo, hi, f_lo, f_hi), f, 1e-13 * 0.5 * (lo + hi))
            root, iterations = report.root, report.iterations
        elif jump and hi - lo <= 1e-13 * hi:
            root, iterations = 0.5 * (lo + hi), 0
        elif jump:
            mid = _probe(count, lo, hi, ratio=hi > 2.0 * lo)
            stack += [(mid, (hi, n_hi)), ((lo, n_lo), mid)]
            continue
        top = hi, n_hi
        if not jump:
            continue
        if levels and root - levels[-1].value <= 1e-13 * root:
            # a probe fell between two levels closer than the count's resolution: one level
            previous = levels.pop()
            root, jump = 0.5 * (previous.value + root), previous.multiplicity + jump
        if jump > 1 and degeneracy(e, POSITIVE, root) != jump:
            raise DiagnosticError(f"level count jumps by {jump} at {root!r}, where the "
                                  "boundary matrix is not of rank 0")
        residual = abs(f(root)) / (fixed + (quadratic * root * root + constant) / max(1.0, root))
        _gate(residual, root)
        levels.append(SpectralRoot(root, jump, residual, iterations))
    return levels, (start, top)


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

    Negative levels are roots of the branches of Theta - M(-r^2) (_solve_negative);
    positive ones come from bisecting the exact level count (_solve_positive),
    cross-validated against the two simple families' closed forms.  The count
    at the zero-mode floor must equal the negative levels and the zero mode, and
    the count just above the last level every level returned: a mismatch raises
    DiagnosticError, and an s_max that caps the window short of count levels
    IncompleteSpectrumError.
    """
    e = req.ext
    z = char_zero(e)
    has_zero = abs(z) <= _zero_bound(e)

    negative = _solve_negative(e)
    positive, ends = _solve_positive(req)
    _cross_validate_family(e, positive)
    below = sum(root.multiplicity for root in negative)
    if has_zero:
        below += degeneracy(e, ZERO, 0.0)
    found = sum(root.multiplicity for root in positive)
    for (s, n), levels in zip(ends, (below, below + found)):
        if n != levels:
            raise DiagnosticError(f"level count N = {n} at s = {s!r} against {levels} levels "
                                  "returned at or below it")
    if found < req.count:
        # only the cap can do this: without s_max the count guarantees req.count levels
        raise IncompleteSpectrumError(f"s_max = {req.s_max} caps the spectrum at {found} of "
                                      f"{req.count} positive eigenvalues",
                                      [root.value for root in positive])
    return SpectrumResult(
        negative=tuple(negative),
        has_zero_mode=has_zero,
        positive=tuple(positive),
        diagnostics=SolveDiagnostics(zero_value=z),
    )


# ---------------------------------------------------------------------------
# eigenfunctions


class BoxEigenfunction(NamedTuple):
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
        import numpy as np

        x = np.asarray(x, dtype=float)
        a, b = self.coeffs
        if self.sector == ZERO:
            return a + b * x
        return a * np.exp(self._k * x) + b * np.exp(-self._k * x)

    def derivative(self, x):
        import numpy as np

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
    _check_sector(sector)

    if sector == ZERO:
        if abs(char_zero(e)) > _zero_bound(e):
            raise InvalidRootError("this extension has no zero mode")
        value = 0.0
    else:
        if value <= 0:
            raise InvalidRootError(f"{sector}-sector value must be > 0, got {value!r}")
        if sector == NEGATIVE and value > 690.0:
            raise InvalidRootError(
                f"r = {value!r} too stiff to normalize in double precision (r <= 690)"
            )
        if sector == POSITIVE:
            solves = abs(_reduced_positive(e)(value)) <= 1e-6 * (1.0 + value * value)
        else:
            solves = any(abs(branch(value)) <= 1e-6 * max(abs(br.f_lo), abs(br.f_hi))
                         for br, branch in _negative_brackets(e))
        if not solves:
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


def to_physical_energy(
    s_or_r: float, sector: str, length: float, hbar: float, mass: float
) -> float:
    """E = +/- (hbar^2 / 2m) (s/L)^2 by sector; the zero sector maps to 0.

    An unknown sector, a non-finite input, or a length, hbar or mass that is
    not positive raises InvalidParameterError.
    """
    _check_sector(sector)
    if not all(map(math.isfinite, (s_or_r, length, hbar, mass))):
        raise InvalidParameterError("s_or_r, length, hbar and mass must be finite")
    if length <= 0 or hbar <= 0 or mass <= 0:
        raise InvalidParameterError("length, hbar, and mass must be positive")
    if sector == ZERO:
        return 0.0
    sign = 1.0 if sector == POSITIVE else -1.0
    return sign * (hbar * hbar / (2.0 * mass)) * (s_or_r / length) ** 2
