"""Shared numerical kernels: root refinement and quadrature.

Everything here is deliberately small and dependency-free (numpy loads only
inside ``fourier_coefficients``).  The spectral modules rely on three guarantees:

* ``refine_root`` (defined in ``roots``, which needs no numpy) is a
  bisection/secant hybrid: secant steps when they help, bisection always as
  a fallback, so termination is guaranteed on any continuous function with a
  sign-change bracket.  It refines one bracket at a time on scalar calls.
* ``integrate`` is adaptive Gauss-Kronrod G7-K15 in the QUADPACK QAG style
  (Piessens et al., 1983), exact through degree-13 polynomials on a panel.
  It calls the integrand once per node, on a Python float, and sums each
  panel's 15 values in pure Python, so a short integral costs no numpy.
* ``fourier_coefficients`` applies the same G7-K15 rule on one grid of
  uniform panels to many Fourier coefficients at once: one FFT over the
  panels per node gives every row, each with its own |K15 - G7| estimate,
  and the grid doubles until every row meets its tol.  It works in blocks of
  at most ``_FFT_BLOCK`` = 4096 grid values (64 KiB of complex), below
  glibc's default 128 KiB mmap threshold, so its temporaries come from the
  heap instead of fresh pages that fault in on every call.
"""

from __future__ import annotations

import cmath
import math
from operator import mul
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import AccuracyError, EvaluationError, InvalidParameterError
from .roots import Bracket, RootReport, refine_root  # noqa: F401  (re-exported)

# numpy loads inside fourier_coefficients, so integrate runs without it
if TYPE_CHECKING:
    import numpy as np


# QUADPACK qk15 on [-1, 1] (the rule is symmetric): the abscissae x >= 0, descending,
# their Kronrod weights, and their Gauss-7 weights (0 at the Kronrod-only nodes).
_XGK = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691, 0.7415311855993945,
        0.5860872354676911, 0.4058451513773972, 0.20778495500789848, 0.0)
_WGK = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019, 0.14065325971552592,
        0.1690047266392679, 0.19035057806478542, 0.20443294007529889, 0.20948214108472782)
_WG = (0.0, 0.1294849661688697, 0.0, 0.27970539148927664, 0.0, 0.3818300505051189, 0.0,
       0.4179591836734694)
# The rule mapped to [0, 1], nodes ascending: (node, K15 weight, K15 - G7 weight),
# the weights per unit panel width.
_QK15 = tuple(zip(_XGK, _WGK, _WG))
_GK15 = tuple((0.5 * (1.0 + sign * x), 0.5 * wk, 0.5 * (wk - wg))
              for sign, rows in ((-1.0, _QK15[:-1]), (1.0, _QK15[::-1])) for x, wk, wg in rows)
_GK_NODES, _GK_K15, _GK_ERR = zip(*_GK15)

# Panels one call may evaluate over all passes beyond its seed panel [a, b]: bounds
# the work of refinement and ends the bisection of a panel whose error estimate
# never falls (an integrand noisier than tol).
_MAX_PANELS = 1 << 14


def integrate(f: Callable[[float], float], a: float, b: float, tol: float) -> float | complex:
    """Adaptive Gauss-Kronrod (G7-K15) estimate of the integral of f over [a, b].

    f is called once per node, on a Python float.  Each pass evaluates the 15
    nodes of every live panel, starting from the one panel [a, b], accepts the
    K15 value of each panel whose |K15 - G7| is within its width's share of
    tol, and bisects the rest, so the absolute error is (estimated to be) at
    most tol.  Complex integrands are allowed; the error metric is the
    modulus, and the result is a Python float or complex.  AccuracyError, with
    the estimate and the achieved error, reports an exhausted panel budget;
    EvaluationError names the first non-finite node of the first panel whose
    sum is not finite.  A non-finite a, b or tol raises InvalidParameterError.
    Like any rule refined from a fixed seed panel, it misses a feature narrower
    than the panel that its nodes all miss: integrate(exp(-2x), 0, 1e4,
    tol=1e-9) returns 8.9e-36, not 0.5.  The remedy is to split [a, b] over
    several calls: [0, 1], [1, 10] and [10, 1e4] sum to 0.5.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise InvalidParameterError(f"need finite a < b, got [{a}, {b}]")
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidParameterError(f"tol must be positive and finite, got {tol}")
    panels = [(a, b - a)]
    tol_per_width = tol / (b - a)
    total, error, evaluated = 0.0, 0.0, 0
    while True:
        live = []  # (lo, width, K15, |K15 - G7|) of each panel that misses, per unit width
        for lo, width in panels:
            ys = [f(lo + width * t) for t in _GK_NODES]
            k15 = sum(map(mul, _GK_K15, ys))
            if not cmath.isfinite(k15):
                for t, y in zip(_GK_NODES, ys):
                    if not cmath.isfinite(y):
                        raise EvaluationError("non-finite function value", lo + width * t)
            err = abs(sum(map(mul, _GK_ERR, ys)))
            if err <= tol_per_width:
                total += k15 * width
                error += err * width
            else:
                live.append((lo, width, k15, err))
        if not live:
            return complex(total) if isinstance(total, complex) else float(total)
        evaluated += len(panels)
        if evaluated + 2 * len(live) > 1 + _MAX_PANELS:
            raise AccuracyError("quadrature panel cap reached",
                                total + sum(k15 * width for _, width, k15, _ in live),
                                error + sum(err * width for _, width, _, err in live))
        panels = [half for lo, width, _, _ in live
                  for half in ((lo, 0.5 * width), (lo + 0.5 * width, 0.5 * width))]


# Grid doublings one fourier_coefficients call may make.  On a smooth integrand
# |K15 - G7| falls like P^-14, so one doubling settles a miss; a second miss means
# g is not smooth or is noisier than tol, and each doubling doubles the memory.
_MAX_DOUBLINGS = 2
# Grid values per FFT call: a small grid takes all 15 nodes in one call, a large
# one a node at a time, so memory stays O(P).  2^12 complex values are 64 KiB, so
# no temporary of a grid up to P = 4096 reaches glibc's default mmap threshold of
# 128 KiB: they stay on the heap and are reused, where an mmap'd block would be
# returned to the system after each call and page-faulted in again on the next.
_FFT_BLOCK = 1 << 12


def _eval_grid(g: Callable[[np.ndarray], np.ndarray], xs: np.ndarray) -> np.ndarray:
    """g on an array of nodes, broadcast to its shape; EvaluationError at a non-finite value."""
    import numpy as np

    with np.errstate(all="ignore"):
        ys = np.broadcast_to(g(xs), xs.shape)
    finite = np.isfinite(ys)
    if not finite.all():
        raise EvaluationError("non-finite function value", float(xs[~finite][0]))
    return ys


def fourier_coefficients(
    g: Callable[[np.ndarray], np.ndarray],
    ns: Sequence[int],
    tol,
    shift: float = 0.0,
) -> np.ndarray:
    """The integrals of g(x) e^{-2 pi i (n + shift) x} over [0, 1], for every integer n in ns.

    One G7-K15 grid of P uniform panels serves every row: with x = (p + t_j)/P,
    each node t_j needs one FFT of g(x) e^{-2 pi i shift p / P} over
    p = 0 ... P-1, and row n is sum_j w_j e^{-2 pi i (n + shift) t_j / P}
    F_j[n mod P] / P, exact for every integer n.  The K15 - G7 weights give
    each row's error estimate.  P is the power of two >= 2 ceil(max |n + shift|),
    at most half an oscillation per panel.  The nodes are taken ``_FFT_BLOCK``
    // P at a time (at least one), so a block holds at most 4096 values, 64 KiB
    of complex, when P <= 4096 (below the 128 KiB at which glibc would mmap it
    and fault it in afresh on each call), and memory is O(P) beyond.  P doubles
    until every row's estimate is within its tol (a scalar or one per row);
    past ``_MAX_DOUBLINGS`` doublings AccuracyError reports the estimate and
    error of the first row that still misses.
    """
    import numpy as np

    ns = np.asarray(ns)
    tol = np.asarray(tol, dtype=float)
    if ns.ndim != 1 or not ns.size or ns.dtype.kind not in "iu":
        raise InvalidParameterError("ns must be a non-empty sequence of integers")
    if tol.shape not in ((), ns.shape) or not (np.isfinite(tol).all() and (tol > 0).all()):
        raise InvalidParameterError("tol must be positive and finite, one value or one per row")
    tol = np.broadcast_to(tol, ns.shape)
    nodes = np.array(_GK_NODES)
    weights = np.array((_GK_K15, _GK_ERR))
    values = np.empty(ns.shape, dtype=complex)
    errors = np.empty(ns.shape)
    panels = 1 << max(0, 2 * math.ceil(np.abs(ns + shift).max()) - 1).bit_length()
    live = np.arange(ns.size)
    for _ in range(_MAX_DOUBLINGS + 1):
        rows = ns[live]
        sums = np.zeros((2, rows.size), dtype=complex)
        block = max(1, _FFT_BLOCK // panels)  # nodes per FFT call
        # e^{-2 pi i shift x} at x = (p + t)/P: the factor in p here, the one in t in the twiddle
        phase = np.exp(-2j * math.pi * shift / panels * np.arange(panels))
        for j in range(0, len(nodes), block):
            t = nodes[j:j + block, None]
            x = (np.arange(panels) + t) / panels
            ys = _eval_grid(g, x) * phase
            spectrum = np.fft.fft(ys, axis=1)[:, rows % panels]
            twiddle = np.exp(-2j * math.pi * t / panels * (rows + shift))
            sums += weights[:, j:j + block] @ (twiddle * spectrum)
        values[live] = sums[0] / panels
        errors[live] = np.abs(sums[1]) / panels
        live = live[errors[live] > tol[live]]
        if not live.size:
            return values
        panels *= 2
    first = live[0]
    raise AccuracyError(f"Fourier quadrature missed tol at n = {ns[first]} after "
                        f"{_MAX_DOUBLINGS} doublings", complex(values[first]), float(errors[first]))
