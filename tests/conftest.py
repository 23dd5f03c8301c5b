import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from saext import ExtensionU2

settings.register_profile(
    "ci", derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

# The Pauli matrices tau_1, tau_2, tau_3; U = tau_1 is the periodic condition.
TAU1 = np.array([[0, 1], [1, 0]], dtype=complex)
TAU2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
TAU3 = np.array([[1, 0], [0, -1]], dtype=complex)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_extension(rng, m2=None, m3=None) -> ExtensionU2:
    """Uniform psi in [0, pi) and (m0, m) uniform on S^3, with optional pins."""
    vec = rng.normal(size=4)
    if m2 is not None:
        vec[2] = 0.0
    if m3 is not None:
        vec[3] = 0.0
    vec = vec / np.linalg.norm(vec)
    if m2 is not None:
        vec[2] = m2
    if m3 is not None:
        vec[3] = m3
    vec = vec / np.linalg.norm(vec)
    psi = rng.uniform(0.0, math.pi)
    return ExtensionU2(psi=psi, m0=float(vec[0]), m=(float(vec[1]), float(vec[2]), float(vec[3])))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def gl_inner(f, g, panels: int = 60) -> complex:
    """Composite Gauss-Legendre <f, g> on [0, 1]; independent of saext quadrature."""
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    xs = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    ws = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return complex(np.sum(ws * np.conj(f(xs)) * g(xs)))


def well_parity_condition(v0, even: bool, lib=np):
    """The finite well's matching condition for one parity, as derived, pole-free.

    even: k tan(k/2) = rho  ->  K sin(K/2) - R cos(K/2)
    odd:  k cot(k/2) = -rho ->  K cos(K/2) + R sin(K/2)
    with R = sqrt(v0^2 - K^2), for K <= v0: floats or arrays, or mpmath numbers
    with ``lib=mpmath``.  saext solves the phase equation k + 2 asin(k/v0) = n pi
    instead, so this stays an independent oracle.
    """
    def g(k):
        r = lib.sqrt(v0 * v0 - k * k)
        sn, cs = lib.sin(k / 2), lib.cos(k / 2)
        return k * sn - r * cs if even else k * cs + r * sn

    return g


def deuteron_tan_form(y, ell, lib=np):
    """The deuteron's matching condition in tan form, as derived, for a root X in (0, pi).

    y + X (1 - ell X tan X) / (tan X + ell X), with its ell = inf limit X tan X - y:
    floats, or mpmath numbers with ``lib=mpmath``.  saext solves the phase equation
    X + atan(ell X) + atan(X/Y) = pi instead, so this stays an independent oracle.
    """
    if ell == math.inf:
        return lambda x: x * lib.tan(x) - y
    return lambda x: y + x * (1 - ell * x * lib.tan(x)) / (lib.tan(x) + ell * x)


def char_positive(ext, lib=np):
    """F(s) = 2 s [sin(psi) cos(s) - m1] - sin(s) [cos(psi)(s^2 + 1) - m0 (s^2 - 1)], as derived.

    F vanishes at the positive box levels E = s^2 of ext: floats or arrays, or
    mpmath numbers with ``lib=mpmath``, which takes ext's stored floats exactly.
    saext refines a cancellation-free F/s instead, so this stays an independent oracle.
    """
    psi, m0, m1 = (getattr(lib, "mpf", float)(x) for x in (ext.psi, ext.m0, ext.m1))
    sp, cp = lib.sin(psi), lib.cos(psi)
    return lambda s: (2 * s * (sp * lib.cos(s) - m1)
                      - lib.sin(s) * (cp * (s * s + 1) - m0 * (s * s - 1)))


def lm_matrices(s):
    """The boundary-value matrices L(s), M(s) of phi = A e^{isx} + B e^{-isx}, as derived.

    (phi'(0) - i phi(0), phi'(1) + i phi(1)) = i L(s) (A, B) and
    (phi'(0) + i phi(0), phi'(1) - i phi(1)) = i M(s) (A, B); s may be complex
    (s = i r for E = -r^2).  L - U M is singular exactly at the levels E = s^2 of U.
    """
    ep, em = np.exp(1j * s), np.exp(-1j * s)
    l_m = np.array([[s - 1, -s - 1], [(s + 1) * ep, (1 - s) * em]], dtype=complex)
    m_m = np.array([[s + 1, 1 - s], [(s - 1) * ep, -(s + 1) * em]], dtype=complex)
    return l_m, m_m


def boundary_form(phi, psi) -> complex:
    """B(phi, psi) = (1/2i) [(H phi, psi) - (phi, H psi)] on [0, 1], from boundary values.

    Integrating by parts twice leaves [conj(phi) psi' - conj(phi') psi] from 0 to 1
    over 2i; it vanishes when phi and psi lie in the domain of one self-adjoint
    extension.  Each argument has ``boundary_values()`` -> (f(0), f'(0), f(1), f'(1)).
    """
    p0, dp0, p1, dp1 = phi.boundary_values()
    q0, dq0, q1, dq1 = psi.boundary_values()
    conj = np.conj
    return (conj(p1) * dq1 - conj(dp1) * q1 - conj(p0) * dq0 + conj(dp0) * q0) / 2j
