"""Infinite-well expansion paradox and the finite-well limit.

The paradox: expand the normalized parabola Psi on the even eigenfunctions
of the infinite well on [-1/2, 1/2] (hbar = m = L = 1, energies in units
hbar^2 / m L^2).  The mean energy is 5 both by series and directly, the mean
square energy is 30 by series and as (H Psi, H Psi) -- yet (Psi, H^2 Psi)
evaluates to 0, because H Psi does not vanish at the walls and the
integration-by-parts surface term survives.  ``paradox_report`` carries the
full accounting, including the surface term that exactly restores 30.

The finite well of dimensionless depth v0 = sqrt(2 m V0 L^2 / hbar^2)
approaches the Dirichlet box as v0 -> infinity.  Both parity matching
conditions reduce exactly to the monotone phase equation
k_n = n pi - 2 asin(k_n / v0), one per level, so
k_n L = n pi (1 - 2/v0) to first order with remainder 4 n pi / v0^2 +
O(v0^-3).  Wall values decay like n pi / v0 while the derivative at the wall
stays finite (so first-derivative continuity is lost in the limit).
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .errors import InvalidParameterError
from .roots import Bracket, refine_root

# numpy and the quadrature load inside the functions that use them, so the
# paradox report, the finite-well levels and the limit study import without them

SQRT2 = math.sqrt(2.0)
SQRT15 = math.sqrt(15.0)
SQRT30 = math.sqrt(30.0)


def _count(value, name: str) -> int:
    """``value`` as an int >= 1; InvalidParameterError for 2.5, NaN, inf or 0."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}") from None
    if value < 1:
        raise InvalidParameterError(f"{name} must be >= 1")
    return value


# ---------------------------------------------------------------------------
# infinite well on [-1/2, 1/2]


def well_coefficients(n: int) -> float:
    """b_n = (Psi_n, Psi) = (-1)^(n-1) / (2n-1)^3 * 8 sqrt(15) / pi^3."""
    n = _count(n, "n")
    odd = 2 * n - 1
    return ((-1) ** (n - 1)) * 8.0 * SQRT15 / (math.pi ** 3 * odd ** 3)


def well_coefficient_quadrature(n: int) -> float:
    """The same overlap by direct quadrature on ``math.cos``; the independent route."""
    from .numerics import integrate

    k = (2 * _count(n, "n") - 1) * math.pi
    # the even mode sqrt(2) cos(k x) times Psi(x) = -sqrt(30) (x^2 - 1/4)
    return integrate(lambda x: SQRT2 * math.cos(k * x) * -SQRT30 * (x * x - 0.25), -0.5, 0.5, 1e-12)


class ParadoxReport(NamedTuple):
    """Energy accounting for the parabola state (units hbar^2/m L^2).

    ``mean_E2_direct`` is (H Psi, H Psi); ``naive_E2`` is (Psi, H H Psi)
    evaluated blindly (the second derivative of a constant: exactly 0);
    ``boundary_term`` is the surface term from integration by parts and
    satisfies mean_E2_direct - naive_E2 = boundary_term.
    """

    terms_used: int
    mean_E_series: float
    mean_E_direct: float
    mean_E2_series: float
    mean_E2_direct: float
    naive_E2: float
    boundary_term: float
    delta_E: float


_HURWITZ_FROM = 32    # below this many terms the paradox sums are added term by term
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)    # B_2, B_4, ..., B_12


def _hurwitz_zeta(s: int, a: float) -> float:
    """zeta(s, a) = sum over k >= 0 of (k + a)^-s, for s = 2 or 4 and a >= 32.5.

    Euler-Maclaurin (DLMF 25.11.43): a^(1-s)/(s-1) + a^-s/2 + sum over j <= 6
    of B_2j (s)_(2j-1)/(2j)! a^(1-s-2j).  The remainder is below the first
    omitted term, 140 a^-14 of the leading one for s = 4: under 1e-19 relative.
    """
    x, power, rising, total = 1.0 / (a * a), 1.0, s / 2.0, 1.0 / (s - 1) + 0.5 / a
    for j, b in enumerate(_BERNOULLI, 1):
        power *= x
        total += b * rising * power    # rising = (s)_(2j-1) / (2j)!
        rising *= (s + 2 * j - 1) * (s + 2 * j) / ((2 * j + 1) * (2 * j + 2))
    return a ** (1 - s) * total


def _odd_inverse_power_sums(terms: int) -> tuple[float, float]:
    """(sum k^-4, sum k^-2) over odd k = 1, 3, ..., 2 terms - 1, in O(1) time.

    Below ``_HURWITZ_FROM`` terms they are added smallest first; from there on
    sum over n <= N of (2n-1)^-s = (1 - 2^-s) zeta(s) - 2^-s zeta(s, N + 1/2),
    where (1 - 2^-s) zeta(s) is pi^4/96 or pi^2/8.  The tail beyond 2^60 terms
    is below 1e-18, so it is taken there.
    """
    if terms < _HURWITZ_FROM:
        odd = range(2 * terms - 1, 0, -2)
        return sum(1.0 / k ** 4 for k in odd), sum(1.0 / (k * k) for k in odd)
    a = min(terms, 1 << 60) + 0.5
    return (math.pi ** 4 / 96.0 - _hurwitz_zeta(4, a) / 16.0,
            math.pi ** 2 / 8.0 - _hurwitz_zeta(2, a) / 4.0)


def paradox_report(terms: int) -> ParadoxReport:
    """Energy accounting of the parabola state from ``terms`` even modes.

    With b_n^2 = 960 / (pi^6 (2n-1)^6) and E'_n = pi^2 (2n-1)^2 / 2, the series
    terms are b_n^2 E'_n = 480 / (pi^4 (2n-1)^4) and b_n^2 E'_n^2 =
    240 / (pi^2 (2n-1)^2); their partial sums come from the Hurwitz zeta
    closed form (``_odd_inverse_power_sums``) in constant time, whatever
    ``terms`` is.  ``terms`` must be an integer >= 1.

    The direct values are exact polynomial moments: H Psi is the constant
    sqrt(30) inside the well, so (Psi, H Psi) = 30 times the integral of
    1/4 - x^2 over [-1/2, 1/2] = 5, (H Psi, H Psi) = 30, and the blind
    (Psi, H H Psi) = 0, since H of a constant vanishes.
    """
    terms = _count(terms, "terms")
    sum4, sum2 = _odd_inverse_power_sums(terms)
    mean_e_series = (480.0 / math.pi ** 4) * sum4
    mean_e2_series = (240.0 / math.pi ** 2) * sum2

    psi_tilde = SQRT30  # H Psi inside the well: the constant sqrt(30)
    # surface term -(1/2) [Psi' psi_tilde] at the walls
    d_psi = lambda x: -2.0 * SQRT30 * x
    boundary = -0.5 * psi_tilde * (d_psi(0.5) - d_psi(-0.5))

    return ParadoxReport(
        terms_used=terms,
        mean_E_series=mean_e_series,
        mean_E_direct=5.0,
        mean_E2_series=mean_e2_series,
        mean_E2_direct=30.0,
        naive_E2=0.0,
        boundary_term=boundary,
        delta_E=math.sqrt(mean_e2_series - mean_e_series ** 2),
    )


# ---------------------------------------------------------------------------
# finite square well on [0, 1] with depth v0^2 (units hbar^2 / 2 m L^2)


class FiniteWellLevel(NamedTuple):
    """Bound level n of the finite well; E and v0^2 in units hbar^2 / 2 m L^2.

    Inside the well phi = d_n [cos(k x) + (rho/k) sin(k x)] (L = 1), outside
    it decays with rate rho L = sqrt(v0^2 - (kL)^2); parity is about the well
    midpoint.
    """

    n: int
    kL: float
    E: float
    parity: int
    norm_const: float
    rhoL: float

    def wavefunction(self, x):
        import numpy as np

        x = np.asarray(x, dtype=float)
        k, rho, d = self.kL, self.rhoL, self.norm_const
        inside = d * (np.cos(k * x) + (rho / k) * np.sin(k * x))
        left = d * np.exp(rho * np.minimum(x, 0.0))
        right = self.parity * d * np.exp(-rho * (np.maximum(x, 1.0) - 1.0))
        return np.where(x < 0.0, left, np.where(x > 1.0, right, inside))

    def wavefunction_derivative(self, x):
        import numpy as np

        x = np.asarray(x, dtype=float)
        k, rho, d = self.kL, self.rhoL, self.norm_const
        inside = d * (-k * np.sin(k * x) + rho * np.cos(k * x))
        left = rho * d * np.exp(rho * np.minimum(x, 0.0))
        right = -rho * self.parity * d * np.exp(-rho * (np.maximum(x, 1.0) - 1.0))
        return np.where(x < 0.0, left, np.where(x > 1.0, right, inside))


def finite_well_levels(v0: float, max_n: int) -> list[FiniteWellLevel]:
    """All bound levels (kL < v0) up to max_n, one monotone phase equation each.

    Both parity conditions are exactly h_n(k) = k + 2 asin(k/v0) - n pi = 0, with
    h_n strictly increasing, negative at (n-1) pi exactly when level n is bound
    and >= 0 at min(n pi, v0): that interval brackets level n with no margin.
    Odd n are even states about the midpoint, even n odd states.  ``v0`` must be
    positive and finite, ``max_n`` an integer >= 1.
    """
    return _well_levels(v0, range(1, _count(max_n, "max_n") + 1))


def _well_levels(v0: float, ns) -> list[FiniteWellLevel]:
    """The bound levels among the increasing ``ns``, one ``refine_root`` call each."""
    if not 0 < v0 < math.inf:  # also rejects NaN
        raise InvalidParameterError(f"v0 must be positive and finite, got {v0!r}")
    levels: list[FiniteWellLevel] = []
    for n in ns:
        lo = (n - 1) * math.pi
        if lo >= v0:
            break  # level n is not bound; neither is any later one
        n_pi = n * math.pi

        def h(k):
            return k + 2.0 * math.asin(k / v0) - n_pi

        hi = min(n_pi, v0)
        k = refine_root(Bracket(lo, hi, h(lo), h(hi)), h, tol=1e-14).root
        r = math.sqrt(v0 - k) * math.sqrt(v0 + k)  # v0^2 - k^2 would overflow above ~1e154
        # (k/r) sqrt(2 / ((1 + 2/r)(1 + k^2/r^2))) without overflow; 0 at threshold (r = 0)
        d_n = k * math.sqrt(r / (0.5 * r + 1.0)) / math.hypot(r, k)
        levels.append(
            FiniteWellLevel(
                n=n, kL=k, E=k * k, parity=+1 if n % 2 else -1, norm_const=d_n, rhoL=r
            )
        )
    return levels


def _law_deviation(k: float, v0: float) -> float:
    """kL - n pi (1 - 2/v0) for a root k of level n, without cancellation.

    With u = k/v0, k = n pi - 2 asin(u) gives D = 4 asin(u)/v0 - 2 (asin(u) - u);
    below u = 1e-2, asin(u) - u comes from its series (next term 1e-17 of the sum).
    """
    u = k / v0
    arc = math.asin(u)
    if u < 1e-2:
        u2 = u * u
        excess = u * u2 * (1.0 / 6.0 + u2 * (3.0 / 40.0 + u2 * (5.0 / 112.0 + u2 * 35.0 / 1152.0)))
    else:
        excess = arc - u
    return 4.0 * arc / v0 - 2.0 * excess


class WellLimitRow(NamedTuple):
    v0: float
    kL: float
    kL_deviation: float       # kL - n pi (1 - 2/v0) = 4 n pi/v0^2 + O(v0^-3)
    energy: float
    energy_ratio: float       # E / E_infinity
    wall_value: float         # |phi(0)| = |phi(L)| = d_n, decays like n pi / v0
    wall_derivative: float    # phi'(0+), stays finite in the limit


class WellLimitStudy(NamedTuple):
    level: int
    rows: tuple[WellLimitRow, ...]
    energy_orders: tuple[float, ...]       # fitted order of E -> E_inf in 1/v0
    deviation_orders: tuple[float, ...]    # fitted order of kL_deviation in 1/v0
    energy_order: float


def infinite_limit_study(v0_list, n: int) -> WellLimitStudy:
    """Convergence of level n toward the Dirichlet box as v0 grows.

    Each depth solves level n alone (one bracket), bit for bit the row
    ``finite_well_levels(v0, n)[n - 1]``.  Reports per v0 the root, its
    deviation from the first-order law n pi (1 - 2/v0), the wall value and
    wall derivative, plus Richardson estimates of the convergence orders
    (1 for the energy, 2 for the deviation from the first-order law).
    """
    n = _count(n, "level")
    v0s = [float(v) for v in v0_list]
    if any(b <= a for a, b in zip(v0s, v0s[1:])):
        raise InvalidParameterError("v0 values must be strictly increasing")
    e_inf = (n * math.pi) ** 2
    rows: list[WellLimitRow] = []
    for v0 in v0s:
        levels = _well_levels(v0, (n,))
        if not levels:
            raise InvalidParameterError(f"level {n} is not bound at v0 = {v0}")
        lv = levels[0]
        rows.append(
            WellLimitRow(
                v0=v0,
                kL=lv.kL,
                kL_deviation=_law_deviation(lv.kL, v0),
                energy=lv.E,
                energy_ratio=lv.E / e_inf,
                wall_value=abs(lv.norm_const),
                wall_derivative=abs(lv.norm_const * lv.rhoL),
            )
        )

    def orders(values):
        out = []
        for (va, ra), (vb, rb) in zip(zip(v0s, values), zip(v0s[1:], values[1:])):
            if ra > 0 and rb > 0:
                out.append(math.log(ra / rb) / math.log(vb / va))
        return tuple(out)

    # E_inf - E = (n pi - kL)(n pi + kL), n pi - kL = 2 asin(kL/v0): no cancellation near n pi
    energy_orders = orders([2.0 * math.asin(r.kL / r.v0) * (n * math.pi + r.kL) for r in rows])
    deviation_orders = orders([abs(row.kL_deviation) for row in rows])
    energy_order = sum(energy_orders) / len(energy_orders) if energy_orders else math.nan
    return WellLimitStudy(
        level=n,
        rows=tuple(rows),
        energy_orders=energy_orders,
        deviation_orders=deviation_orders,
        energy_order=energy_order,
    )
