"""Spectra and expansions for the U(1) momentum extensions on [0, L].

The boundary condition phi(L) = e^{i theta} phi(0) gives eigenvalues
2 pi hbar nu / L with nu = n + theta / 2 pi (n any integer) and normalized
plane-wave eigenfunctions.  The module expands the normalized parabola

    Psi(x) = sqrt(30 / L^5) x (L - x)

over that basis and exposes the resulting momentum probabilities, which
depend measurably on theta.  Everything is computed with L = hbar = 1 and
converted at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DiagnosticError, InvalidParameterError
from .extensions import MomentumExtension
from .numerics import integrate

SQRT30 = math.sqrt(30.0)


@dataclass(frozen=True)
class MomentumEigenstate:
    """Plane-wave eigenstate phi_n(x) = exp(2 i pi nu x / L) / sqrt(L)."""

    n: int
    theta: float
    nu: float
    eigenvalue: float    # 2 pi hbar nu / L

    def wavefunction(self, x, length: float = 1.0):
        x = np.asarray(x, dtype=float)
        return np.exp(2j * math.pi * self.nu * x / length) / math.sqrt(length)


@dataclass(frozen=True)
class ExpansionTable:
    theta: float
    entries: tuple[tuple[int, complex, float], ...]   # (n, c_n, |c_n|^2)
    parseval_defect: float


@dataclass(frozen=True)
class UncertaintyReport:
    dP: float
    dX: float
    product: float


def p_spectrum(
    theta: float, n_range: tuple[int, int], hbar: float = 1.0, length: float = 1.0
) -> list[MomentumEigenstate]:
    """Eigenstates for n in the inclusive range n_range at phase theta."""
    theta = MomentumExtension(theta).theta
    n_min, n_max = n_range
    if n_min > n_max:
        raise InvalidParameterError(f"empty integer range {n_range}")
    states = []
    for n in range(n_min, n_max + 1):
        nu = n + theta / (2.0 * math.pi)
        states.append(
            MomentumEigenstate(n=n, theta=theta, nu=nu, eigenvalue=2.0 * math.pi * hbar * nu / length)
        )
    return states


def _parabola(x):
    return SQRT30 * x * (1.0 - x)


def expansion_coeff_quadrature(theta: float, n: int, tol: float = 1e-12) -> complex:
    """(phi_n, Psi) by adaptive quadrature, two panels per oscillation: the independent route.

    tol is raised to the phase round-off, 8 eps |nu|, where that is larger (|nu| > 560).
    """
    theta = MomentumExtension(theta).theta
    nu = n + theta / (2.0 * math.pi)
    panels = 2 * math.ceil(abs(nu))
    # rounding 2 pi nu x moves the integrand by ~eps |nu|: no panel's |K15 - G7| gets below it
    tol = max(tol, 8.0 * np.finfo(float).eps * abs(nu))
    return complex(integrate(
        lambda x: np.exp(-2j * math.pi * nu * x) * _parabola(x), 0.0, 1.0, tol,
        breakpoints=[k / panels for k in range(1, panels)],
    ))


# 3 (sin a - a cos a) / a^3 = sum over k >= 1 of (-1)^(k+1) 6k a^(2k-2) / (2k+1)!.
# Below |a| = 0.9 eight terms are exact to 2e-16; at the switch the bracket form
# agrees with them to 1e-15, and below it its cancellation error grows like 1e-16 / a^2.
_KERNEL_SERIES = tuple((-1) ** (k + 1) * 6 * k / math.factorial(2 * k + 1) for k in range(1, 9))
_KERNEL_SERIES_BELOW = 0.9


def expansion_coeff(theta: float, n: int, validate: bool = True) -> complex:
    """Expansion coefficient c_n(theta) of the parabola over the P_theta basis.

    c_n = sqrt(30) (sin a - a cos a) / (2 a^3) e^{-i a}
        = -(sqrt(30) / 2 pi^2 nu^2) [cos a - sin a / (pi nu)] e^{-i a}

    with a = pi nu = pi n + theta/2, sin a = (-1)^n sin(theta/2) and
    cos a = (-1)^n cos(theta/2).  For |a| < 0.9, where the bracket cancels,
    the kernel is summed as its Taylor series instead.  At theta = 0 this
    gives c_0 = sqrt(30)/6 and c_n = -sqrt(30) / (2 pi^2 n^2), both real.

    With ``validate`` every value is cross-checked against
    ``expansion_coeff_quadrature`` to 1e-10.
    """
    theta = MomentumExtension(theta).theta
    nu = n + theta / (2.0 * math.pi)
    sign = -1.0 if n % 2 else 1.0
    sin_a = sign * math.sin(theta / 2.0)
    cos_a = sign * math.cos(theta / 2.0)
    a_sq = (math.pi * nu) ** 2
    if a_sq < _KERNEL_SERIES_BELOW ** 2:
        series = 0.0
        for coeff in reversed(_KERNEL_SERIES):
            series = series * a_sq + coeff
        scale = SQRT30 / 6.0 * series
    else:
        scale = -SQRT30 / (2.0 * math.pi ** 2 * nu * nu) * (cos_a - sin_a / (math.pi * nu))
    # + 0.0: at theta = 0, sin_a is a signed zero and the coefficient is real
    value = complex(scale * cos_a, -scale * sin_a + 0.0)
    if validate:
        ref = expansion_coeff_quadrature(theta, n)
        if abs(value - ref) > 1e-10:
            raise DiagnosticError(
                f"closed-form coefficient {value!r} disagrees with quadrature {ref!r} "
                f"(theta={theta!r}, n={n})"
            )
    return value


def expansion_table(theta: float, n_min: int, n_max: int, validate: bool = True) -> ExpansionTable:
    """Coefficients and probabilities for n in [n_min, n_max], with the Parseval defect."""
    if n_min > n_max:
        raise InvalidParameterError(f"empty integer range ({n_min}, {n_max})")
    theta = MomentumExtension(theta).theta
    entries = []
    total = 0.0
    for n in range(n_min, n_max + 1):
        c = expansion_coeff(theta, n, validate=validate)
        prob = abs(c) ** 2
        total += prob
        entries.append((n, c, prob))
    return ExpansionTable(theta=theta, entries=tuple(entries), parseval_defect=abs(1.0 - total))


def uncertainty_product(state: MomentumEigenstate, length: float = 1.0) -> UncertaintyReport:
    """Delta P = 0 exactly for an eigenstate; Delta X from the uniform density.

    The product is 0 < hbar/2: on a finite interval the usual uncertainty
    bound has no force.  The position moments are computed by quadrature of
    |phi|^2 = 1/L, which gives Delta X = L / sqrt(12).
    """
    density = lambda x: abs(state.wavefunction(x, length)) ** 2
    mean = integrate(lambda x: x * density(x), 0.0, length, tol=1e-12)
    mean_sq = integrate(lambda x: x * x * density(x), 0.0, length, tol=1e-12)
    d_x = math.sqrt(max(mean_sq - mean * mean, 0.0))
    return UncertaintyReport(dP=0.0, dX=d_x, product=0.0)
