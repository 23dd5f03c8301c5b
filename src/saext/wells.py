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
conditions reduce exactly to k_n = n pi - 2 asin(k_n / v0), so
k_n L = n pi (1 - 2/v0) to first order with remainder 4 n pi / v0^2 +
O(v0^-3).  Wall values decay like n pi / v0 while the derivative at the wall
stays finite (so first-derivative continuity is lost in the limit).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DiagnosticError, InvalidParameterError
from .numerics import Bracket, integrate, refine_brackets

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


def parabola_state(x):
    """Psi(x) = -sqrt(30) (x^2 - 1/4), the normalized even parabola (L = 1)."""
    x = np.asarray(x, dtype=float)
    return -SQRT30 * (x * x - 0.25)


def even_mode(n: int, x):
    """Even infinite-well eigenfunction sqrt(2) cos((2n-1) pi x), n >= 1."""
    x = np.asarray(x, dtype=float)
    return math.sqrt(2.0) * np.cos((2 * n - 1) * math.pi * x)


def well_coefficients(n: int) -> float:
    """b_n = (Psi_n, Psi) = (-1)^(n-1) / (2n-1)^3 * 8 sqrt(15) / pi^3."""
    if n < 1:
        raise InvalidParameterError("n must be >= 1")
    odd = 2 * n - 1
    return ((-1) ** (n - 1)) * 8.0 * SQRT15 / (math.pi ** 3 * odd ** 3)


def well_coefficient_quadrature(n: int, tol: float = 1e-12) -> float:
    """The same overlap by direct quadrature; the independent route."""
    return float(integrate(lambda x: even_mode(n, x) * parabola_state(x), -0.5, 0.5, tol))


@dataclass(frozen=True)
class ParadoxReport:
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


# terms per block of the streamed paradox sums: the work arrays stay in cache
_SERIES_BLOCK = 1 << 15


def _odd_inverse_power_sums(terms: int) -> tuple[float, float]:
    """(sum k^-4, sum k^-2) over odd k = 1, 3, ..., 2 terms - 1, in constant memory.

    Blocks of ``_SERIES_BLOCK`` terms run from the tail inward, each block
    descending in k, so the terms are added in ascending magnitude.  One work
    array serves every block: a fresh block-sized array per block page-faults
    (about 10^4 faults at 10^7 terms) and took twice as long.
    """
    sum4 = sum2 = 0.0
    steps = np.arange(0.0, -2.0 * _SERIES_BLOCK, -2.0)
    work = np.empty(_SERIES_BLOCK)
    for stop in range(terms, 0, -_SERIES_BLOCK):
        block = work[:min(stop, _SERIES_BLOCK)]
        np.add(steps[:block.size], 2.0 * stop - 1.0, out=block)    # odd k, descending
        np.multiply(block, block, out=block)
        np.divide(1.0, block, out=block)                           # k^-2
        sum2 += float(block.sum())
        np.multiply(block, block, out=block)                       # k^-4
        sum4 += float(block.sum())
    return sum4, sum2


def paradox_report(terms: int) -> ParadoxReport:
    """Energy accounting of the parabola state from ``terms`` even modes.

    With b_n^2 = 960 / (pi^6 (2n-1)^6) and E'_n = pi^2 (2n-1)^2 / 2, the series
    terms are b_n^2 E'_n = 480 / (pi^4 (2n-1)^4) and b_n^2 E'_n^2 =
    240 / (pi^2 (2n-1)^2); they are summed in constant memory, whatever
    ``terms`` is.  ``terms`` must be an integer >= 1.
    """
    terms = _count(terms, "terms")
    sum4, sum2 = _odd_inverse_power_sums(terms)
    mean_e_series = (480.0 / math.pi ** 4) * sum4
    mean_e2_series = (240.0 / math.pi ** 2) * sum2

    psi_tilde = SQRT30  # H Psi inside the well: the constant sqrt(30)
    mean_e_direct = float(integrate(lambda x: parabola_state(x) * psi_tilde, -0.5, 0.5, 1e-12))
    mean_e2_direct = float(integrate(lambda x: psi_tilde * psi_tilde, -0.5, 0.5, 1e-12))

    # blind second application of H: -(1/2) D^2 of a constant, by central
    # differences -- identically zero in floating point, as in exact algebra
    h = 1e-4
    d2_psi_tilde = lambda x: (psi_tilde - 2.0 * psi_tilde + psi_tilde) / (h * h)
    naive_e2 = float(
        integrate(lambda x: parabola_state(x) * (-0.5) * d2_psi_tilde(x), -0.5, 0.5, 1e-12)
    )

    # surface term -(1/2) [Psi' psi_tilde] at the walls
    d_psi = lambda x: -2.0 * SQRT30 * x
    boundary = -0.5 * psi_tilde * (d_psi(0.5) - d_psi(-0.5))

    return ParadoxReport(
        terms_used=terms,
        mean_E_series=mean_e_series,
        mean_E_direct=mean_e_direct,
        mean_E2_series=mean_e2_series,
        mean_E2_direct=mean_e2_direct,
        naive_E2=naive_e2,
        boundary_term=boundary,
        delta_E=math.sqrt(mean_e2_series - mean_e_series ** 2),
    )


# ---------------------------------------------------------------------------
# finite square well on [0, 1] with depth v0^2 (units hbar^2 / 2 m L^2)


@dataclass(frozen=True)
class FiniteWellLevel:
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
        x = np.asarray(x, dtype=float)
        k, rho, d = self.kL, self.rhoL, self.norm_const
        inside = d * (np.cos(k * x) + (rho / k) * np.sin(k * x))
        left = d * np.exp(rho * np.minimum(x, 0.0))
        right = self.parity * d * np.exp(-rho * (np.maximum(x, 1.0) - 1.0))
        return np.where(x < 0.0, left, np.where(x > 1.0, right, inside))

    def wavefunction_derivative(self, x):
        x = np.asarray(x, dtype=float)
        k, rho, d = self.kL, self.rhoL, self.norm_const
        inside = d * (-k * np.sin(k * x) + rho * np.cos(k * x))
        left = rho * d * np.exp(rho * np.minimum(x, 0.0))
        right = -rho * self.parity * d * np.exp(-rho * (np.maximum(x, 1.0) - 1.0))
        return np.where(x < 0.0, left, np.where(x > 1.0, right, inside))


def _parity_condition(v0: float, even: bool):
    """Pole-free matching condition for one parity about the midpoint.

    even: k tan(k/2) = rho  ->  g(K) = K sin(K/2) - R cos(K/2)
    odd:  k cot(k/2) = -rho ->  g(K) = K cos(K/2) + R sin(K/2)
    with R = sqrt(v0^2 - K^2).  A float K gives a float, an array an array.
    """

    def g(k):
        r = np.sqrt(np.maximum(v0 * v0 - k * k, 0.0))
        sn, cs = np.sin(k / 2.0), np.cos(k / 2.0)
        out = k * sn - r * cs if even else k * cs + r * sn
        return out if isinstance(out, np.ndarray) else float(out)

    return g


# Deepest well the 1e-12 (1 + n pi) bracket margin resolves: level n sits
# 2 n pi / v0 below n pi, which the margin swallows from v0 ~ 1.5e12 (n = 1).
MAX_WELL_DEPTH = 1e12


def finite_well_levels(v0: float, max_n: int) -> list[FiniteWellLevel]:
    """All bound levels (kL < v0) up to max_n, via parity-resolved bracketing.

    Level n lies in ((n-1) pi, min(n pi, v0)); odd n are even states about
    the midpoint, even n odd states.  Every level with (n-1) pi < v0 is bound.
    Brackets keep a 1e-12 (1 + min(n pi, v0)) margin from their ends; just
    above a binding threshold (v0 - (n-1) pi below a few 1e-6) the root lies
    about (n-1) pi delta^2 / 8 below v0, inside that margin, and the bracket
    is retried ending at v0 itself, where R = 0.  A level that still shows no
    sign change (v0 within the margin of (n-1) pi) raises DiagnosticError
    instead of shortening the list.
    ``v0`` must lie in (0, MAX_WELL_DEPTH]: deeper wells put every level
    inside that margin.  ``max_n`` must be an integer >= 1.
    """
    return _well_levels(v0, range(1, _count(max_n, "max_n") + 1))


def _well_levels(v0: float, ns) -> list[FiniteWellLevel]:
    """The bound levels among the increasing ``ns``, one ``refine_brackets`` call per parity."""
    if not 0 < v0 <= MAX_WELL_DEPTH:  # also rejects NaN
        raise InvalidParameterError(
            f"v0 must be positive and at most {MAX_WELL_DEPTH:g}, got {v0!r}")
    conditions = {even: _parity_condition(v0, even) for even in (True, False)}
    pending: dict[bool, list[tuple[int, Bracket]]] = {True: [], False: []}
    for n in ns:
        lo = (n - 1) * math.pi
        if lo >= v0:
            break  # level n is not bound; neither is any later one
        hi = min(n * math.pi, v0)
        even = n % 2 == 1
        g = conditions[even]
        eps = 1e-12 * (1.0 + hi)
        end = hi - eps
        f_lo, f_hi = g(lo + eps), g(end)
        if not (lo + eps < end and f_lo * f_hi < 0) and hi == v0:
            # just above threshold the root lies within the margin of v0, where R = 0
            end = v0
            f_hi = g(end)
        if not (lo + eps < end and f_lo * f_hi < 0):
            raise DiagnosticError(
                f"level {n} is bound at v0 = {v0!r} but its bracket "
                f"[{lo + eps!r}, {end!r}] shows no sign change")
        pending[even].append((n, Bracket(lo + eps, end, f_lo, f_hi)))
    roots: dict[int, float] = {}
    for even, items in pending.items():
        reports = refine_brackets([br for _, br in items], conditions[even], [1e-14] * len(items))
        roots.update((n, report.root) for (n, _), report in zip(items, reports))
    levels: list[FiniteWellLevel] = []
    for n in sorted(roots):
        k = roots[n]
        even = n % 2 == 1
        r = math.sqrt(max(v0 * v0 - k * k, 0.0))
        if r:
            d_n = (k / r) * math.sqrt(2.0) / math.sqrt((1.0 + 2.0 / r) * (1.0 + (k / r) ** 2))
        else:
            d_n = 0.0  # at threshold the state no longer decays: its norm constant vanishes
        levels.append(
            FiniteWellLevel(
                n=n, kL=k, E=k * k, parity=+1 if even else -1, norm_const=d_n, rhoL=r
            )
        )
    return levels


@dataclass(frozen=True)
class WellLimitRow:
    v0: float
    kL: float
    kL_deviation: float       # kL - n pi (1 - 2/v0) = 4 n pi/v0^2 + O(v0^-3),
                              # from the exact kL = n pi - 2 asin(kL/v0)
    energy: float
    energy_ratio: float       # E / E_infinity
    wall_value: float         # |phi(0)| = |phi(L)| = d_n, decays like n pi / v0
    wall_derivative: float    # phi'(0+), stays finite in the limit


@dataclass(frozen=True)
class WellLimitStudy:
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
                kL_deviation=lv.kL - n * math.pi * (1.0 - 2.0 / v0),
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

    energy_orders = orders([e_inf - row.energy for row in rows])
    deviation_orders = orders([abs(row.kL_deviation) for row in rows])
    energy_order = sum(energy_orders) / len(energy_orders) if energy_orders else math.nan
    return WellLimitStudy(
        level=n,
        rows=tuple(rows),
        energy_orders=energy_orders,
        deviation_orders=deviation_orders,
        energy_order=energy_order,
    )
