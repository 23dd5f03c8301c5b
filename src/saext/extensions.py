"""Boundary-condition parametrizations and deficiency-index classification.

The box Hamiltonian -D^2 on [0, L] carries a U(2) family of self-adjoint
boundary conditions.  A unitary U is stored as an overall phase psi in
[0, pi) together with a point (m0, m1, m2, m3) on the unit 3-sphere:

    U = e^{i psi} (m0 I - i m.tau),    tau = Pauli matrices.

(psi, m) and (psi + pi, -m) describe the same U; construction canonicalizes
to psi in [0, pi).  The momentum operator on [0, L] carries a U(1) phase
theta, and the half-line Hamiltonian a single real parameter lambda
(lambda = infinity allowed), both kept here as small value types.
"""

from __future__ import annotations

import cmath
import math
import re
import sys
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .errors import DiagnosticError, InvalidParameterError

# numpy and the quadrature load inside the functions that use them, so the
# deficiency table and the half-line model (which uses HalflineExtension)
# import without them
if TYPE_CHECKING:
    import numpy as np

    # 2x2 complex ndarray with rows (alpha, gamma | beta, delta)
    UnitaryMatrix2 = np.ndarray

_S3_CONSTRUCT_TOL = 1e-9
_UNITARY_TOL = 1e-9
CLASSIFY_TOL = 1e-10


@dataclass(frozen=True)
class ExtensionU2:
    """One self-adjoint boundary condition of the box Hamiltonian.

    Construction renormalizes (m0, m) onto the unit 3-sphere (rejecting
    deviations beyond 1e-9) and reduces psi to the canonical range [0, pi)
    using the (psi, m) ~ (psi + pi, -m) identification.
    """

    psi: float
    m0: float
    m: tuple[float, float, float]

    def __post_init__(self):
        import numpy as np

        vec = np.array([self.m0, *self.m], dtype=float)
        norm = float(np.linalg.norm(vec))
        if not math.isfinite(norm) or abs(norm - 1.0) > _S3_CONSTRUCT_TOL:
            raise InvalidParameterError(
                f"(m0, m) must lie on the unit 3-sphere (|norm-1| = {abs(norm - 1.0):.3e})"
            )
        if not math.isfinite(self.psi):
            raise InvalidParameterError(f"psi must be finite, got {self.psi!r}")
        vec /= norm
        psi = float(self.psi) % (2.0 * math.pi)
        if psi >= math.pi:
            psi -= math.pi
            vec = -vec
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "m0", float(vec[0]))
        object.__setattr__(self, "m", (float(vec[1]), float(vec[2]), float(vec[3])))

    @property
    def m1(self) -> float:
        return self.m[0]

    @property
    def m2(self) -> float:
        return self.m[1]

    @property
    def m3(self) -> float:
        return self.m[2]

    def is_equivalent(self, other: "ExtensionU2", tol: float = 1e-10) -> bool:
        """Same boundary condition, allowing the psi ~ 0 / psi ~ pi wrap."""
        dm = max(abs(self.m0 - other.m0), *(abs(a - b) for a, b in zip(self.m, other.m)))
        sm = max(abs(self.m0 + other.m0), *(abs(a + b) for a, b in zip(self.m, other.m)))
        dpsi = abs(self.psi - other.psi)
        return (dpsi <= tol and dm <= tol) or (dpsi >= math.pi - tol and sm <= tol)


class OperatorKind(Enum):
    MOMENTUM = "momentum"
    HAMILTONIAN = "hamiltonian"


class IntervalKind(Enum):
    FULL_LINE = "full_line"
    SEMI_AXIS = "semi_axis"
    FINITE_BOX = "finite_box"


class SimpleFamily(Enum):
    FAMILY1 = "family1"   # sin(psi) = 0 and m1 = 0: spectrum s_n = n pi
    FAMILY2 = "family2"   # cos(psi) = 0 and m0 = 0: spectrum cos(s) = m1
    GENERIC = "generic"


@dataclass(frozen=True)
class MomentumExtension:
    """U(1) boundary condition phi(L) = e^{i theta} phi(0) of -i hbar D."""

    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise InvalidParameterError("theta must be finite")
        object.__setattr__(self, "theta", float(self.theta) % (2.0 * math.pi))


@dataclass(frozen=True)
class HalflineExtension:
    """Boundary condition phi(0) = lambda phi'(0) on [0, inf); lambda=inf means phi'(0)=0."""

    lam: float

    def __post_init__(self):
        if math.isnan(self.lam):
            raise InvalidParameterError("lambda must be a real number or infinity")
        object.__setattr__(self, "lam", float(self.lam))

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.lam)


def unitary_entries(e: ExtensionU2) -> tuple[complex, complex, complex, complex]:
    """Row-major entries (alpha, gamma, beta, delta) of U = e^{i psi} (m0 I - i m.tau).

    m.tau = [[m3, m1 - i m2], [m1 + i m2, -m3]] with tau the Pauli matrices.
    """
    m1, m2, m3 = e.m
    phase = cmath.exp(1j * e.psi)
    return (phase * complex(e.m0, -m3), phase * complex(-m2, -m1),
            phase * complex(m2, -m1), phase * complex(e.m0, m3))


def to_matrix(e: ExtensionU2) -> UnitaryMatrix2:
    """U as a 2x2 array, unitary to 1e-12 by construction (entries: unitary_entries)."""
    import numpy as np

    return np.array(unitary_entries(e), dtype=complex).reshape(2, 2)


def from_matrix(u: UnitaryMatrix2) -> ExtensionU2:
    """Invert to_matrix, up to the (psi, m) ~ (psi + pi, -m) identification."""
    import numpy as np

    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise InvalidParameterError(f"expected a 2x2 matrix, got shape {u.shape}")
    defect = float(np.max(np.abs(u.conj().T @ u - np.eye(2))))
    if defect > _UNITARY_TOL:
        raise InvalidParameterError(f"matrix is not unitary (residual {defect:.3e})")
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    psi = (cmath.phase(det) % (2.0 * math.pi)) / 2.0
    m_mat = cmath.exp(-1j * psi) * u
    # m_mat = [[m0 - i m3, -m2 - i m1], [m2 - i m1, m0 + i m3]]
    m0 = float((m_mat[0, 0].real + m_mat[1, 1].real) / 2.0)
    m3 = float((m_mat[1, 1].imag - m_mat[0, 0].imag) / 2.0)
    m1 = float(-(m_mat[1, 0].imag + m_mat[0, 1].imag) / 2.0)
    m2 = float((m_mat[1, 0].real - m_mat[0, 1].real) / 2.0)
    return ExtensionU2(psi=psi, m0=m0, m=(m1, m2, m3))


@dataclass(frozen=True)
class ExtensionFamilyInfo:
    """How many self-adjoint extensions exist: none, exactly one, or a U(n) family."""

    kind: str                 # "unique" | "none" | "unitary"
    n: int | None = None

    @property
    def real_parameters(self) -> int | None:
        return None if self.n is None else self.n * self.n

    def describe(self) -> str:
        if self.kind == "unique":
            return "unique self-adjoint extension"
        if self.kind == "none":
            return "no self-adjoint extension"
        return f"U({self.n}) family ({self.real_parameters} real parameters)"


@dataclass(frozen=True)
class DeficiencyReport:
    n_plus: int
    n_minus: int
    family: ExtensionFamilyInfo


_DEFICIENCY_TABLE = {
    (OperatorKind.MOMENTUM, IntervalKind.FULL_LINE): (0, 0),
    (OperatorKind.MOMENTUM, IntervalKind.SEMI_AXIS): (1, 0),
    (OperatorKind.MOMENTUM, IntervalKind.FINITE_BOX): (1, 1),
    (OperatorKind.HAMILTONIAN, IntervalKind.FULL_LINE): (0, 0),
    (OperatorKind.HAMILTONIAN, IntervalKind.SEMI_AXIS): (1, 1),
    (OperatorKind.HAMILTONIAN, IntervalKind.FINITE_BOX): (2, 2),
}


def deficiency_indices(op: OperatorKind, iv: IntervalKind) -> DeficiencyReport:
    """Deficiency indices (n+, n-) and the resulting extension family."""
    n_plus, n_minus = _DEFICIENCY_TABLE[(op, iv)]
    if n_plus != n_minus:
        family = ExtensionFamilyInfo("none")
    elif n_plus == 0:
        family = ExtensionFamilyInfo("unique")
    else:
        family = ExtensionFamilyInfo("unitary", n_plus)
    return DeficiencyReport(n_plus, n_minus, family)


def _square_integrable(density, iv: IntervalKind, cutoff: float) -> bool:
    """Doubling-cutoff growth test of integral(density) on the given interval."""
    from .numerics import integrate

    if iv is IntervalKind.FINITE_BOX:
        val = integrate(density, 0.0, 1.0, tol=1e-10)
        return math.isfinite(val)
    if iv is IntervalKind.SEMI_AXIS:
        lo1, hi1, lo2, hi2 = 0.0, cutoff, 0.0, 2.0 * cutoff
    else:
        lo1, hi1, lo2, hi2 = -cutoff, cutoff, -2.0 * cutoff, 2.0 * cutoff
    crude = float(max(density(lo2), density(hi2), density(0.0))) * (hi2 - lo2)
    # crude overflows when |psi|^2 nears the largest float; integrate needs a finite tol
    tol = 1e-9 * min(max(1.0, crude), sys.float_info.max)
    i1 = integrate(density, lo1, hi1, tol=tol)
    i2 = integrate(density, lo2, hi2, tol=tol)
    ratio = i2 / i1
    if abs(ratio - 2.0) < 1e-6:
        raise DiagnosticError(f"integrability growth test inconclusive (ratio {ratio!r})")
    return ratio < 2.0


def verify_deficiency(
    op: OperatorKind, iv: IntervalKind, d_or_k0: float, cutoff: float
) -> tuple[int, int]:
    """Count the closed-form deficiency solutions that are square integrable.

    For the momentum operator the solutions of the +/- i hbar/d eigenvalue
    problem are e^{-x/d} and e^{+x/d}; for the Hamiltonian the -D^2 = +/- i
    k0^2 problem gives e^{k x} and e^{-k x} with k = (1 -/+ i) k0 / sqrt(2).
    Membership in L^2 is decided numerically by comparing the integral of
    |psi|^2 on a cutoff window against the doubled window.
    """
    if d_or_k0 <= 0 or cutoff <= 0:
        raise InvalidParameterError("d_or_k0 and cutoff must be positive")
    import numpy as np

    if op is OperatorKind.MOMENTUM:
        d = d_or_k0
        solutions = {
            +1: [lambda x: np.exp(-2.0 * x / d)],
            -1: [lambda x: np.exp(+2.0 * x / d)],
        }
    else:
        k0 = d_or_k0
        rate = math.sqrt(2.0) * k0  # |e^{k x}|^2 = e^{sqrt(2) k0 x} for both signs
        solutions = {
            +1: [lambda x: np.exp(rate * x), lambda x: np.exp(-rate * x)],
            -1: [lambda x: np.exp(rate * x), lambda x: np.exp(-rate * x)],
        }

    counts = {}
    for sign, sols in solutions.items():
        counts[sign] = sum(1 for density in sols if _square_integrable(density, iv, cutoff))
    return counts[+1], counts[-1]


def is_time_reversal(e: ExtensionU2, tol: float = CLASSIFY_TOL) -> bool:
    """True when the extension admits real eigenfunctions, i.e. m2 = 0.

    Cross-checked against the determinant criterion det(I - conj(U) U) = 0,
    which equals 4 m2^2 identically; a mismatch means corrupted state.
    """
    import numpy as np

    u = to_matrix(e)
    det_val = np.linalg.det(np.eye(2) - u.conj() @ u)
    if abs(det_val - 4.0 * e.m2 ** 2) > 1e-9:
        raise DiagnosticError(
            f"time-reversal criteria disagree: det {det_val!r} vs 4 m2^2 {4 * e.m2 ** 2!r}"
        )
    return abs(e.m2) <= tol


def is_parity_preserving(e: ExtensionU2, tol: float = CLASSIFY_TOL) -> bool:
    """True when |phi(L - x)| = |phi(x)| for all eigenfunctions, i.e. m3 = 0."""
    return abs(e.m3) <= tol


def classify_simple_family(e: ExtensionU2, tol: float = CLASSIFY_TOL) -> SimpleFamily:
    """Closed-form-solvable spectra: family 1 (s_n = n pi) and family 2 (cos s = m1)."""
    if abs(e.m1) <= tol and abs(math.sin(e.psi)) <= tol:
        return SimpleFamily.FAMILY1
    if abs(e.m0) <= tol and abs(math.cos(e.psi)) <= tol:
        return SimpleFamily.FAMILY2
    return SimpleFamily.GENERIC


def named_extension(name: str, theta: float | None = None) -> ExtensionU2:
    """Named boundary conditions.

    dirichlet         phi(0) = phi(L) = 0            U = I
    neumann           phi'(0) = phi'(L) = 0          U = -I
    quasi_periodic    phi(L) = e^{i theta} phi(0),   U = antidiag(e^{-i theta}, e^{i theta})
                      phi'(L) = e^{i theta} phi'(0)
    periodic / antiperiodic are quasi_periodic with theta = 0 / pi.
    """
    import numpy as np

    key = name.strip().lower().replace("-", "_")
    if key == "dirichlet":
        return ExtensionU2(psi=0.0, m0=1.0, m=(0.0, 0.0, 0.0))
    if key == "neumann":
        return from_matrix(-np.eye(2, dtype=complex))
    if key == "periodic":
        key, theta = "quasi_periodic", 0.0
    elif key == "antiperiodic":
        key, theta = "quasi_periodic", math.pi
    if key in ("quasi_periodic", "quasiperiodic"):
        if theta is None:
            raise InvalidParameterError("quasi_periodic requires theta")
        t = float(theta)
        if not 0.0 <= t < 2.0 * math.pi:
            raise InvalidParameterError(f"theta must lie in [0, 2 pi), got {theta}")
        u = np.array([[0.0, cmath.exp(-1j * t)], [cmath.exp(1j * t), 0.0]], dtype=complex)
        return from_matrix(u)
    raise InvalidParameterError(f"unknown extension name {name!r}")


# compiled on first use, through the re module's cache
_RAW_PATTERN = (
    r"^psi=(?P<psi>[^,]+),m=\((?P<m0>[^,]+),(?P<m1>[^,]+),(?P<m2>[^,]+),(?P<m3>[^)]+)\)$"
)
_CLI_RENORM_TOL = 1e-6


def parse_extension(text: str) -> ExtensionU2:
    """Parse the textual extension syntax used by the command line.

    Accepts the named forms dirichlet | neumann | periodic | antiperiodic |
    quasiperiodic:<theta> and the raw form psi=<x>,m=(<m0>,<m1>,<m2>,<m3>).
    Raw quadruples within 1e-6 of the unit sphere are renormalized; anything
    farther is rejected.
    """
    import numpy as np

    s = text.strip()
    low = s.lower()
    if low in ("dirichlet", "neumann", "periodic", "antiperiodic"):
        return named_extension(low)
    if low.startswith(("quasiperiodic:", "quasi_periodic:")):
        arg = s.split(":", 1)[1]
        try:
            theta = float(arg)
        except ValueError:
            raise InvalidParameterError(f"bad quasiperiodic angle {arg!r}") from None
        return named_extension("quasi_periodic", theta=theta)
    match = re.match(_RAW_PATTERN, s.replace(" ", ""))
    if match is None:
        raise InvalidParameterError(
            f"bad extension syntax {text!r}; expected a named extension or "
            "psi=<x>,m=(<m0>,<m1>,<m2>,<m3>)"
        )
    try:
        psi = float(match["psi"])
        vec = np.array([float(match[k]) for k in ("m0", "m1", "m2", "m3")])
    except ValueError as exc:
        raise InvalidParameterError(f"bad number in extension syntax {text!r}: {exc}") from None
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > _CLI_RENORM_TOL:
        raise InvalidParameterError(
            f"(m0,m1,m2,m3) must lie on the unit sphere within 1e-6 (|norm-1| = {abs(norm-1):.3e})"
        )
    vec = vec / norm
    return ExtensionU2(psi=psi, m0=float(vec[0]), m=(float(vec[1]), float(vec[2]), float(vec[3])))
