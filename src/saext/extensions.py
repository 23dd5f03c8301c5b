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
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .errors import DiagnosticError, InvalidParameterError

# numpy loads only inside to_matrix: constructing, parsing, classifying and
# verifying an extension run on Python floats
if TYPE_CHECKING:
    import numpy as np

    # 2x2 complex ndarray with rows (alpha, gamma | beta, delta)
    UnitaryMatrix2 = np.ndarray

_S3_CONSTRUCT_TOL = 1e-9
_UNITARY_TOL = 1e-9
CLASSIFY_TOL = 1e-10


def _real(name: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{name} must be a real number, got {value!r}") from None


def _norm(vec: list[float]) -> float:
    """Euclidean norm, as the square root of a left-to-right sum of squares."""
    return math.sqrt(sum(x * x for x in vec))


# The value types are NamedTuples.  A validating one subclasses a NamedTuple of its
# fields to check and canonicalize in __new__; _replace skips __new__ and its checks.
class ExtensionU2(NamedTuple("ExtensionU2", [("psi", float), ("m0", float),
                                             ("m", tuple[float, float, float])])):
    """One self-adjoint boundary condition of the box Hamiltonian.

    Construction renormalizes (m0, m) onto the unit 3-sphere (rejecting
    deviations beyond 1e-9) and reduces psi to the canonical range [0, pi)
    using the (psi, m) ~ (psi + pi, -m) identification.
    """

    __slots__ = ()

    def __new__(cls, psi: float, m0: float, m: tuple[float, float, float]):
        try:
            m1, m2, m3 = m
        except (TypeError, ValueError):
            raise InvalidParameterError(
                f"m must hold three components (m1, m2, m3), got {m!r}") from None
        psi = _real("psi", psi)
        vec = [_real(name, x) for name, x in zip(("m0", "m1", "m2", "m3"), (m0, m1, m2, m3))]
        norm = _norm(vec)
        if not math.isfinite(norm) or abs(norm - 1.0) > _S3_CONSTRUCT_TOL:
            raise InvalidParameterError(
                f"(m0, m) must lie on the unit 3-sphere (|norm-1| = {abs(norm - 1.0):.3e})"
            )
        if not math.isfinite(psi):
            raise InvalidParameterError(f"psi must be finite, got {psi!r}")
        psi %= 2.0 * math.pi
        if psi >= math.pi:
            psi -= math.pi
            norm = -norm
        m0, m1, m2, m3 = (x / norm for x in vec)
        return super().__new__(cls, psi, m0, (m1, m2, m3))

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


class MomentumExtension(NamedTuple("MomentumExtension", [("theta", float)])):
    """U(1) boundary condition phi(L) = e^{i theta} phi(0) of -i hbar D."""

    __slots__ = ()

    def __new__(cls, theta: float):
        if not math.isfinite(theta):
            raise InvalidParameterError("theta must be finite")
        return super().__new__(cls, float(theta) % (2.0 * math.pi))


class HalflineExtension(NamedTuple("HalflineExtension", [("lam", float)])):
    """Boundary condition phi(0) = lambda phi'(0) on [0, inf); lambda=inf means phi'(0)=0."""

    __slots__ = ()

    def __new__(cls, lam: float):
        if math.isnan(lam):
            raise InvalidParameterError("lambda must be a real number or infinity")
        return super().__new__(cls, float(lam))

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


def from_matrix(u) -> ExtensionU2:
    """Invert to_matrix, up to the (psi, m) ~ (psi + pi, -m) identification.

    u is a 2x2 array or a pair of rows.  Another shape, an entry that is not a
    finite number, or a matrix that is not unitary to 1e-9 raises
    InvalidParameterError.
    """
    shape = getattr(u, "shape", (2, 2))
    if shape != (2, 2):
        raise InvalidParameterError(f"expected a 2x2 matrix, got shape {shape}")
    try:
        (a, b), (c, d) = u
        a, b, c, d = map(complex, (a, b, c, d))
    except (TypeError, ValueError):
        raise InvalidParameterError(f"expected a 2x2 matrix of numbers, got {u!r}") from None
    if not all(map(cmath.isfinite, (a, b, c, d))):
        raise InvalidParameterError(f"matrix entries must be finite, got {u!r}")
    # U^H U - I: both diagonal entries and one of the two conjugate off-diagonal ones
    defect = max(abs(a.conjugate() * a + c.conjugate() * c - 1.0),
                 abs(a.conjugate() * b + c.conjugate() * d),
                 abs(b.conjugate() * b + d.conjugate() * d - 1.0))
    if defect > _UNITARY_TOL:
        raise InvalidParameterError(f"matrix is not unitary (residual {defect:.3e})")
    psi = (cmath.phase(a * d - b * c) % (2.0 * math.pi)) / 2.0
    phase = cmath.exp(-1j * psi)
    # e^{-i psi} U = [[m0 - i m3, -m2 - i m1], [m2 - i m1, m0 + i m3]]
    a, b, c, d = phase * a, phase * b, phase * c, phase * d
    m0 = (a.real + d.real) / 2.0
    m3 = (d.imag - a.imag) / 2.0
    m1 = -(c.imag + b.imag) / 2.0
    m2 = (c.real - b.real) / 2.0
    return ExtensionU2(psi=psi, m0=m0, m=(m1, m2, m3))


class ExtensionFamilyInfo(NamedTuple):
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


class DeficiencyReport(NamedTuple):
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


def _log_integral(rate: float, lo: float, hi: float) -> float:
    """log of the integral of e^{rate x} over [lo, hi], without forming e^{rate x}.

    c x_peak + log(-expm1(-|c| (hi - lo))) - log |c|, with x_peak the end of the
    window where e^{c x} is largest; log(hi - lo) where |c| (hi - lo) is 0.
    """
    u = abs(rate) * (hi - lo)
    log_rest = math.log(hi - lo) if u == 0.0 else math.log(-math.expm1(-u)) - math.log(abs(rate))
    return rate * (hi if rate > 0 else lo) + log_rest


# |ratio - 2| < 1e-6 in log space: the doubling test cannot tell growth from decay
_INCONCLUSIVE = (math.log(2.0 - 1e-6), math.log(2.0 + 1e-6))


def _square_integrable(rate: float, iv: IntervalKind, cutoff: float) -> bool:
    """Doubling-cutoff growth test of the integral of e^{rate x} on the given interval."""
    if iv is IntervalKind.FINITE_BOX:
        return True    # e^{rate x} is bounded on the compact box
    lo = 0.0 if iv is IntervalKind.SEMI_AXIS else -cutoff    # the window [lo, cutoff]
    log_ratio = _log_integral(rate, 2.0 * lo, 2.0 * cutoff) - _log_integral(rate, lo, cutoff)
    if math.isnan(log_ratio):    # both integrals, or a window, beyond the float range
        raise InvalidParameterError(
            f"cutoff {cutoff!r} puts |psi|^2 = e^({rate!r} x) beyond the float range")
    if _INCONCLUSIVE[0] < log_ratio < _INCONCLUSIVE[1]:
        raise DiagnosticError(
            f"integrability growth test inconclusive (ratio {math.exp(log_ratio)!r})")
    return log_ratio < math.log(2.0)


def verify_deficiency(
    op: OperatorKind, iv: IntervalKind, d_or_k0: float, cutoff: float
) -> tuple[int, int]:
    """Count the closed-form deficiency solutions that are square integrable.

    For the momentum operator the solutions of the +/- i hbar/d eigenvalue
    problem are e^{-x/d} and e^{+x/d}; for the Hamiltonian the -D^2 = +/- i
    k0^2 problem gives e^{k x} and e^{-k x} with k = (1 -/+ i) k0 / sqrt(2).
    Each |psi|^2 is a pure exponential e^{c x}, so membership in L^2 is
    decided in closed form: the log of the integral of |psi|^2 on a cutoff
    window is compared against the log of twice it on the doubled window.
    A ratio within 1e-6 of 2 raises DiagnosticError.  d_or_k0 and cutoff must
    be positive and finite, or InvalidParameterError names the argument.
    """
    d_or_k0 = _real("d_or_k0", d_or_k0)
    cutoff = _real("cutoff", cutoff)
    for name, value in (("d_or_k0", d_or_k0), ("cutoff", cutoff)):
        if not (math.isfinite(value) and value > 0):
            raise InvalidParameterError(f"{name} must be positive and finite, got {value!r}")
    counts = []
    for sign in (+1, -1):
        if op is OperatorKind.MOMENTUM:
            # -i psi' = sign i psi / d: psi = e^{kappa x} with kappa = -sign / d
            kappas = (-sign / d_or_k0,)
        else:
            # -psi'' = sign i k0^2 psi: psi = e^{+-kappa x} with kappa^2 = -sign i k0^2
            kappa = cmath.sqrt(-sign * 1j) * d_or_k0
            kappas = (kappa, -kappa)
        # |e^{kappa x}|^2 = e^{2 Re(kappa) x}
        counts.append(sum(_square_integrable(2.0 * k.real, iv, cutoff) for k in kappas))
    return counts[0], counts[1]


def is_time_reversal(e: ExtensionU2, tol: float = CLASSIFY_TOL) -> bool:
    """True when the extension admits real eigenfunctions, i.e. m2 = 0.

    Cross-checked against the determinant criterion det(I - conj(U) U) = 0,
    which equals 4 m2^2 identically; a mismatch means corrupted state.
    """
    alpha, gamma, beta, delta = unitary_entries(e)
    # I - conj(U) U, conj entrywise, as [[p, q], [r, t]]
    p = 1.0 - alpha.conjugate() * alpha - gamma.conjugate() * beta
    q = -(alpha.conjugate() * gamma + gamma.conjugate() * delta)
    r = -(beta.conjugate() * alpha + delta.conjugate() * beta)
    t = 1.0 - beta.conjugate() * gamma - delta.conjugate() * delta
    det_val = p * t - q * r
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
    key = name.strip().lower().replace("-", "_")
    if key == "dirichlet":
        return ExtensionU2(psi=0.0, m0=1.0, m=(0.0, 0.0, 0.0))
    if key == "neumann":
        return from_matrix(((-1.0, 0.0), (0.0, -1.0)))
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
        return from_matrix(((0.0, cmath.exp(-1j * t)), (cmath.exp(1j * t), 0.0)))
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
        vec = [float(match[k]) for k in ("m0", "m1", "m2", "m3")]
    except ValueError as exc:
        raise InvalidParameterError(f"bad number in extension syntax {text!r}: {exc}") from None
    norm = _norm(vec)
    if abs(norm - 1.0) > _CLI_RENORM_TOL:
        raise InvalidParameterError(
            f"(m0,m1,m2,m3) must lie on the unit sphere within 1e-6 (|norm-1| = {abs(norm-1):.3e})"
        )
    m0, m1, m2, m3 = (x / norm for x in vec)
    return ExtensionU2(psi=psi, m0=m0, m=(m1, m2, m3))
