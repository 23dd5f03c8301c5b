"""Self-adjoint boundary conditions of -D^2 on the half line [0, inf).

The one-parameter family phi(0) = lambda phi'(0), lambda in R u {inf},
equivalently lambda = -tan(alpha/2).  Physical consequences implemented
here: the reflection amplitude off the wall (|r| = 1 for every extension),
the lambda < 0 surface bound state, and a square-well model of the deuteron
(depth V0, range a, infinite wall at the origin) whose depth-vs-lambda
dependence discriminates between the extensions.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InvalidParameterError
from .extensions import HalflineExtension
from .roots import Bracket, refine_root

# numpy loads inside BoundState.wavefunction, its one user, so the reflection,
# bound-state and deuteron paths import without it


def _as_lambda(lam) -> float:
    if isinstance(lam, HalflineExtension):
        return lam.lam
    return HalflineExtension(float(lam)).lam


def reflection(lam, k: float) -> tuple[complex, float]:
    """Reflection amplitude r(k) = -(1 + i lambda k)/(1 - i lambda k) and R = |r|^2.

    Every extension reflects perfectly (R = 1); lambda = inf gives r = +1,
    which is also the limit as |lambda k| -> inf, taken when lambda k overflows.
    """
    lam = _as_lambda(lam)
    if not 0 < k < math.inf:  # also rejects NaN
        raise InvalidParameterError(f"k must be positive and finite, got {k!r}")
    if math.isinf(lam * k):
        r = complex(1.0)
    else:
        r = -(1.0 + 1j * lam * k) / (1.0 - 1j * lam * k)
    return r, abs(r) ** 2


class BoundState(NamedTuple):
    """Surface state phi(x) = sqrt(2/|lambda|) e^{-x/|lambda|}, E in units hbar^2/2m."""

    lam: float
    energy: float       # -1 / lambda^2
    amplitude: float    # sqrt(2 / |lambda|)

    def wavefunction(self, x):
        import numpy as np

        x = np.asarray(x, dtype=float)
        return self.amplitude * np.exp(-x / abs(self.lam))


def bound_state(lam) -> BoundState | None:
    """The unique bound state for lambda < 0; None for lambda >= 0 or infinite.

    Raises InvalidParameterError when the energy -1/lambda^2 overflows
    (|lambda| below about 1e-154).
    """
    lam = _as_lambda(lam)
    if math.isinf(lam) or lam >= 0.0:
        return None
    square = lam * lam
    energy = -1.0 / square if square else -math.inf
    if math.isinf(energy):
        raise InvalidParameterError(f"the energy -1/lambda^2 overflows at lambda = {lam!r}")
    return BoundState(lam=lam, energy=energy, amplitude=math.sqrt(2.0 / abs(lam)))


# ---------------------------------------------------------------------------
# deuteron square-well model


class _DeuteronFields(NamedTuple):
    binding_energy: float = 2.2            # |E|, MeV
    range_a: float = 2.0                   # fm
    hbar_c: float = 197.3269804            # MeV fm
    nucleon_mass_c2: float = 938.919       # MeV (average nucleon)
    lam_over_a: float = 0.0                # dimensionless lambda/a, inf allowed


class DeuteronParams(_DeuteronFields):
    """Square well of range ``range_a`` with an infinite wall, tuned to a bound state.

    The dimensionless decay parameter Y = rho a = a sqrt(M c^2 |E|) / hbar c
    (with 2m = M, the nucleon mass) is fixed by the constants.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("binding_energy", "range_a", "hbar_c", "nucleon_mass_c2"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidParameterError(f"{name} must be positive and finite")
        if math.isnan(self.lam_over_a) or self.lam_over_a < 0:
            raise InvalidParameterError("lam_over_a must be >= 0 (or infinity)")
        return self

    @property
    def y(self) -> float:
        return self.range_a * math.sqrt(self.nucleon_mass_c2 * self.binding_energy) / self.hbar_c


class DeuteronSolution(NamedTuple):
    X: float            # k a
    Y: float            # rho a
    V0: float           # well depth, MeV; V0/|E| = 1 + (X/Y)^2 exactly
    residual: float


def _equation_residual(x: float, y: float, ell: float) -> float:
    """|lhs - rhs| of the matching condition in its original (tan) form."""
    if math.isinf(ell):
        return abs(y - x * math.tan(x))
    t = math.tan(x)
    return abs(y + x * (1.0 - ell * x * t) / (t + ell * x))


def deuteron_v0(p: DeuteronParams) -> DeuteronSolution:
    """Ground-state well depth V0 for the given lambda/a.

    Inside the well phi = sin(k x + delta) with tan delta = ell X from the
    wall condition (ell = lambda/a, X = k a); matching to e^{-rho x} at x = a
    gives the phase equation h(X) = X + atan(ell X) + atan(X/Y) - pi = 0.
    h increases strictly from h(0) = -pi to h(pi) > 0, so the ground state
    is its one root in (0, pi) for every ell >= 0, ell = inf included (there
    atan(ell X) = pi/2): X lies in (pi/2, pi) at ell = 0 and falls into
    (0, pi/2) as ell grows.  The residual is that of the tan form.
    """
    y, ell = p.y, p.lam_over_a

    def h(x):
        return x + math.atan(ell * x) + math.atan(x / y) - math.pi

    # h(0) = -pi given outright: at ell = inf, ell * 0 is NaN
    x = refine_root(Bracket(0.0, math.pi, -math.pi, h(math.pi)), h, tol=1e-14).root
    residual = _equation_residual(x, y, ell)
    v0 = p.binding_energy * (1.0 + (x / y) ** 2)
    return DeuteronSolution(X=x, Y=y, V0=v0, residual=residual)


def deuteron_sweep(base: DeuteronParams, lam_over_a_values) -> list[DeuteronSolution]:
    """``deuteron_v0`` for each lambda/a, in order; each lambda/a is validated."""
    fixed = base[:-1]    # every field but lam_over_a, the last
    return [deuteron_v0(DeuteronParams(*fixed, float(ell))) for ell in lam_over_a_values]
