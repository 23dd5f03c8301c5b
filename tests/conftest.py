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
