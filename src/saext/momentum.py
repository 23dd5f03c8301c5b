"""Spectra and expansions for the U(1) momentum extensions on [0, L].

The boundary condition phi(L) = e^{i theta} phi(0) gives eigenvalues
2 pi hbar nu / L with nu = n + theta / 2 pi (n any integer) and normalized
plane-wave eigenfunctions.  The module expands the normalized parabola

    Psi(x) = sqrt(30 / L^5) x (L - x)

over that basis and exposes the resulting momentum probabilities, which
depend measurably on theta.  Everything is computed with L = hbar = 1 and
converted at the boundary.  The closed-form coefficients are checked against
one batched FFT quadrature (numpy); the uncertainty product takes its position
moments from one scalar quadrature pass on ``cmath``, without numpy.
"""

from __future__ import annotations

import cmath
import math
import operator
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .errors import DiagnosticError, InvalidParameterError
from .extensions import MomentumExtension

# numpy and the quadrature load inside the functions that use them, so the
# spectrum and the closed-form coefficients import without them
if TYPE_CHECKING:
    import numpy as np

SQRT30 = math.sqrt(30.0)


class MomentumEigenstate(NamedTuple):
    """Plane-wave eigenstate phi_n(x) = exp(2 i pi nu x / L) / sqrt(L)."""

    n: int
    theta: float
    nu: float
    eigenvalue: float    # 2 pi hbar nu / L

    def wavefunction(self, x, length: float = 1.0):
        import numpy as np

        x = np.asarray(x, dtype=float)
        return np.exp(2j * math.pi * self.nu * x / length) / math.sqrt(length)


class ExpansionTable(NamedTuple):
    theta: float
    entries: tuple[tuple[int, complex, float], ...]   # (n, c_n, |c_n|^2)
    parseval_defect: float


class UncertaintyReport(NamedTuple):
    dP: float
    dX: float
    product: float


def _int_range(n_min, n_max) -> range:
    """The inclusive range n_min ... n_max; InvalidParameterError unless its ends are integers."""
    try:
        lo, hi = operator.index(n_min), operator.index(n_max)
    except TypeError:
        raise InvalidParameterError(
            f"range ends must be integers, got ({n_min!r}, {n_max!r})") from None
    if lo > hi:
        raise InvalidParameterError(f"empty integer range ({lo}, {hi})")
    return range(lo, hi + 1)


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise InvalidParameterError(f"{name} must be positive and finite, got {value!r}")


def p_spectrum(
    theta: float, n_range: tuple[int, int], hbar: float = 1.0, length: float = 1.0
) -> list[MomentumEigenstate]:
    """Eigenstates for n in the inclusive range n_range at phase theta."""
    theta = MomentumExtension(theta).theta
    ns = _int_range(*n_range)
    _check_positive("hbar", hbar)
    _check_positive("length", length)
    states = []
    for n in ns:
        nu = n + theta / (2.0 * math.pi)
        states.append(
            MomentumEigenstate(n=n, theta=theta, nu=nu, eigenvalue=2.0 * math.pi * hbar * nu / length)
        )
    return states


def _parabola(x):
    return SQRT30 * x * (1.0 - x)


def _quadrature_rows(theta: float, ns, tol: float = 1e-12) -> np.ndarray:
    """(phi_n, Psi) for every n in ns from one batched G7-K15 grid (``fourier_coefficients``).

    Each row's tol is raised to the phase round-off, 8 eps |nu|, where that is larger
    (|nu| > 560): rounding 2 pi nu x moves the integrand by ~eps |nu|.
    """
    import numpy as np

    from .numerics import fourier_coefficients

    ns = np.asarray(ns)
    shift = theta / (2.0 * math.pi)
    nus = ns + shift
    tols = np.maximum(tol, 8.0 * np.finfo(float).eps * np.abs(nus))
    return fourier_coefficients(_parabola, ns, tols, shift=shift)


def expansion_coeff_quadrature(theta: float, n: int, tol: float = 1e-12) -> complex:
    """(phi_n, Psi) by Gauss-Kronrod quadrature on uniform panels: the independent route.

    This is the one-row case of the batched quadrature that ``expansion_table``
    validates with: at most half an oscillation per panel, panels doubled until
    |K15 - G7| <= tol, and tol raised to the phase round-off 8 eps |nu| where
    that is larger (|nu| > 560).
    """
    theta = MomentumExtension(theta).theta
    _check_positive("tol", tol)
    return complex(_quadrature_rows(theta, [n], tol)[0])


def _check_coeff(theta: float, n: int, value: complex, ref: complex) -> None:
    if abs(value - ref) > 1e-10:
        raise DiagnosticError(
            f"closed-form coefficient {value!r} disagrees with quadrature {ref!r} "
            f"(theta={theta!r}, n={n})"
        )


# 3 (sin a - a cos a) / a^3 = sum over k >= 1 of (-1)^(k+1) 6k a^(2k-2) / (2k+1)!.
# Below |a| = 0.9 eight terms are exact to 2e-16; at the switch the bracket form
# agrees with them to 1e-15, and below it its cancellation error grows like 1e-16 / a^2.
_KERNEL_SERIES = tuple((-1) ** (k + 1) * 6 * k / math.factorial(2 * k + 1) for k in range(1, 9))
_KERNEL_SERIES_BELOW = 0.9


def _coeff_row(n: int, shift: float, sin_half: float, cos_half: float) -> complex:
    """The closed form of ``expansion_coeff`` for row n.

    shift is theta / 2 pi, and sin_half, cos_half are sin and cos of theta / 2.
    """
    nu = n + shift
    if n % 2:
        sin_a, cos_a = -sin_half, -cos_half
    else:
        sin_a, cos_a = sin_half, cos_half
    a_sq = (math.pi * nu) ** 2
    if a_sq < _KERNEL_SERIES_BELOW ** 2:
        series = 0.0
        for coeff in reversed(_KERNEL_SERIES):
            series = series * a_sq + coeff
        scale = SQRT30 / 6.0 * series
    else:
        scale = -SQRT30 / (2.0 * math.pi ** 2 * nu * nu) * (cos_a - sin_a / (math.pi * nu))
    # + 0.0: at theta = 0, sin_a is a signed zero and the coefficient is real
    return complex(scale * cos_a, -scale * sin_a + 0.0)


def _coeff_rows(theta: float, ns: Iterable[int]) -> list[complex]:
    """``_coeff_row`` for every n in ns, with the phase set up once; theta already reduced."""
    shift = theta / (2.0 * math.pi)
    sin_half, cos_half = math.sin(theta / 2.0), math.cos(theta / 2.0)
    return [_coeff_row(n, shift, sin_half, cos_half) for n in ns]


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
    (value,) = _coeff_rows(theta, (n,))
    if validate:
        _check_coeff(theta, n, value, expansion_coeff_quadrature(theta, n))
    return value


def expansion_table(theta: float, n_min: int, n_max: int, validate: bool = True) -> ExpansionTable:
    """Coefficients and probabilities for n in [n_min, n_max], with the Parseval defect.

    The closed form of ``expansion_coeff`` is set up once per table.  With
    ``validate`` every coefficient is cross-checked to 1e-10 against one
    batched quadrature of the whole table.
    """
    ns = _int_range(n_min, n_max)
    theta = MomentumExtension(theta).theta
    coeffs = _coeff_rows(theta, ns)
    if validate:
        refs = _quadrature_rows(theta, ns)
        for i in (abs(refs - coeffs) > 1e-10).nonzero()[0][:1]:  # the first row that misses
            _check_coeff(theta, ns[i], coeffs[i], complex(refs[i]))
    entries = []
    total = 0.0
    for n, c in zip(ns, coeffs):
        prob = abs(c) ** 2
        total += prob
        entries.append((n, c, prob))
    return ExpansionTable(theta=theta, entries=tuple(entries), parseval_defect=abs(1.0 - total))


def uncertainty_product(state: MomentumEigenstate, length: float = 1.0) -> UncertaintyReport:
    """Delta P = 0 exactly for an eigenstate; Delta X from the uniform density.

    The product is 0 < hbar/2: on a finite interval the usual uncertainty
    bound has no force.  Both position moments come from one quadrature pass
    of (x + i x^2) |phi|^2, whose real part is <x> and imaginary part <x^2>;
    its error test bounds the modulus, so each part is held to the tol.
    |phi|^2 is taken pointwise as |e^{i kappa x}|^2 / L with ``cmath``, so no
    numpy loads.  For |phi|^2 = 1/L this gives Delta X = L / sqrt(12).
    """
    _check_positive("length", length)
    from .numerics import integrate

    exp, wavenumber = cmath.exp, 2j * math.pi * state.nu / length
    moments = integrate(lambda x: (x + 1j * x * x) * abs(exp(wavenumber * x)) ** 2 / length,
                        0.0, length, tol=1e-12)
    mean, mean_sq = moments.real, moments.imag
    d_x = math.sqrt(max(mean_sq - mean * mean, 0.0))
    return UncertaintyReport(dP=0.0, dX=d_x, product=0.0)
