"""Shared numerical kernels: root bracketing, refinement and quadrature.

Everything here is deliberately small and dependency-free (numpy only for
grid evaluation).  The spectral modules rely on three guarantees:

* ``scan_brackets`` finds every sign change of a scalar function on a uniform
  grid and, in addition, locates tangencies (double roots) that leave no sign
  change — these occur for genuinely doubly degenerate spectra.
* ``refine_root`` is a bisection/secant hybrid: secant steps when they help,
  bisection always as a fallback, so termination is guaranteed on any
  continuous function with a sign-change bracket.
* ``integrate`` is adaptive Gauss-Kronrod G7-K15 in the QUADPACK QAG style
  (Piessens et al., 1983), exact through degree-13 polynomials on a panel.
  Each pass evaluates the integrand once, on every live panel, through the
  grid routine ``scan_brackets`` uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyError, ConvergenceError, EvaluationError, InvalidParameterError

# |f| threshold, relative to the local function scale, below which a polished
# same-sign minimum is declared a double root.
TANGENCY_RTOL = 1e-9

_MAX_ROOT_ITERATIONS = 200


@dataclass(frozen=True)
class Bracket:
    """A subinterval known to contain a root.

    Either a strict sign change (``f_lo * f_hi < 0``) or, when
    ``double_root`` is set, a polished tangency at ``x_min`` where ``f``
    touches zero without crossing.
    """

    lo: float
    hi: float
    f_lo: float
    f_hi: float
    double_root: bool = False
    x_min: float | None = None


@dataclass(frozen=True)
class RootReport:
    root: float
    residual: float
    iterations: int
    multiplicity_hint: int = 1


def _eval_grid(f: Callable[[float], float], xs: np.ndarray) -> np.ndarray:
    """Evaluate f on a 1-d grid, vectorized when f supports it, else point by point.

    Complex values stay complex.
    """
    try:
        with np.errstate(all="ignore"):
            ys = np.asarray(f(xs))
        if ys.shape != xs.shape:
            raise TypeError
    except (TypeError, ValueError):
        ys = np.array([f(x) for x in xs])
    if not np.iscomplexobj(ys):
        ys = ys.astype(float, copy=False)
    finite = np.isfinite(ys)
    if not finite.all():
        raise EvaluationError("non-finite function value", float(xs[~finite][0]))
    return ys


def _fd_slope(f: Callable[[float], float], x: float) -> float:
    h = 1e-6 * max(1.0, abs(x))
    return float(f(x + h)) - float(f(x - h))


def _refine_extremum(
    f: Callable[[float], float], a: float, b: float, xtol: float
) -> float | None:
    """Locate an interior extremum of f by bisecting a central-difference slope.

    Returns None when the slope does not change sign over (a, b).
    """
    da, db = _fd_slope(f, a), _fd_slope(f, b)
    if da == 0.0 or db == 0.0 or (da > 0.0) == (db > 0.0):
        return None
    for _ in range(_MAX_ROOT_ITERATIONS):
        m = 0.5 * (a + b)
        if b - a <= xtol:
            break
        dm = _fd_slope(f, m)
        if dm == 0.0:
            break
        if (dm > 0.0) == (da > 0.0):
            a, da = m, dm
        else:
            b, db = m, dm
    return 0.5 * (a + b)


def scan_brackets(
    f: Callable[[float], float], lo: float, hi: float, step: float
) -> list[Bracket]:
    """Bracket every root of f on [lo, hi] using a uniform grid of width <= step.

    Strict sign changes become ordinary brackets.  A same-sign local minimum
    of |f| is polished; if the polished extremum reveals a sign flip the two
    hidden crossings are bracketed separately, and if |f| at the extremum is
    below ``TANGENCY_RTOL`` times the local scale the point is flagged as a
    suspected double root.
    """
    if not (0.0 < step <= (hi - lo) * (1.0 + 1e-9)):
        raise InvalidParameterError(f"step must satisfy 0 < step <= hi-lo, got {step}")
    n = max(1, math.ceil((hi - lo) / step))
    xs = np.linspace(lo, hi, n + 1)
    ys = _eval_grid(f, xs)

    brackets: list[Bracket] = []
    signs = np.sign(ys)

    for i in range(n):
        if signs[i] * signs[i + 1] < 0:
            brackets.append(Bracket(float(xs[i]), float(xs[i + 1]), float(ys[i]), float(ys[i + 1])))
        elif ys[i] == 0.0 and i > 0:
            # exact grid-node zero: split off a tiny enclosing bracket
            h = (xs[i + 1] - xs[i]) * 1e-6
            fl, fr = float(f(xs[i] - h)), float(f(xs[i] + h))
            if fl * fr < 0:
                brackets.append(Bracket(float(xs[i] - h), float(xs[i] + h), fl, fr))
            else:
                brackets.append(
                    Bracket(float(xs[i] - h), float(xs[i] + h), fl, fr,
                            double_root=True, x_min=float(xs[i]))
                )

    # tangency candidates: same-sign dips of |f|; adjacent ties map to one extremum
    handled: list[float] = []
    for i in range(1, n):
        if signs[i - 1] == signs[i] == signs[i + 1] != 0 and (
            abs(ys[i]) <= abs(ys[i - 1]) and abs(ys[i]) <= abs(ys[i + 1])
        ):
            a, b = float(xs[i - 1]), float(xs[i + 1])
            xtol = 1e-11 * max(1.0, abs(xs[i]))
            x_star = _refine_extremum(f, a, b, xtol)
            if x_star is None:
                continue
            if any(abs(x_star - seen) <= 1e-3 * step for seen in handled):
                continue
            handled.append(x_star)
            f_star = float(f(x_star))
            scale = max(abs(ys[i - 1]), abs(ys[i + 1]), 1e-300)
            if abs(f_star) <= TANGENCY_RTOL * scale:
                # |f| touches zero without a resolvable crossing: double root
                w = max(1e-9, 1e-7 * abs(x_star))
                brackets.append(
                    Bracket(x_star - w, x_star + w, float(f(x_star - w)), float(f(x_star + w)),
                            double_root=True, x_min=x_star)
                )
            elif np.sign(f_star) != 0 and np.sign(f_star) != signs[i]:
                # two crossings hidden inside one grid cell
                fl = float(ys[i - 1])
                fr = float(ys[i + 1])
                brackets.append(Bracket(a, x_star, fl, f_star))
                brackets.append(Bracket(x_star, b, f_star, fr))

    brackets.sort(key=lambda br: br.lo)
    return brackets


def refine_root(bracket: Bracket, f: Callable[[float], float], tol: float) -> RootReport:
    """Refine a bracket to |hi-lo| <= tol with a bisection/secant hybrid.

    Double-root brackets are refined by locating the extremum of f instead;
    ``multiplicity_hint`` is 2 in that case.
    """
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")

    if bracket.double_root:
        x0 = bracket.x_min if bracket.x_min is not None else 0.5 * (bracket.lo + bracket.hi)
        x = _refine_extremum(f, bracket.lo, bracket.hi, xtol=min(tol, 1e-11 * max(1.0, abs(x0))))
        if x is None:
            x = x0
        return RootReport(root=x, residual=float(f(x)), iterations=0, multiplicity_hint=2)

    a, b, fa, fb = bracket.lo, bracket.hi, bracket.f_lo, bracket.f_hi
    if fa == 0.0:
        return RootReport(a, 0.0, 0, 1)
    if fb == 0.0:
        return RootReport(b, 0.0, 0, 1)
    if fa * fb > 0:
        raise InvalidParameterError("bracket does not contain a sign change")

    iterations = 0
    use_bisection = False
    while b - a > tol and iterations < _MAX_ROOT_ITERATIONS:
        iterations += 1
        x = None
        if not use_bisection and fb != fa:
            x_sec = b - fb * (b - a) / (fb - fa)
            margin = 0.01 * (b - a)
            if a + margin < x_sec < b - margin:
                x = x_sec
        if x is None:
            x = 0.5 * (a + b)
        fx = float(f(x))
        if not math.isfinite(fx):
            raise EvaluationError("non-finite function value in refine_root", x)
        if fx == 0.0:
            return RootReport(x, 0.0, iterations, 1)
        width_before = b - a
        if (fx > 0) == (fa > 0):
            a, fa = x, fx
        else:
            b, fb = x, fx
        # force a bisection next time whenever the secant step stalls
        use_bisection = (b - a) > 0.6 * width_before

    root = a if abs(fa) <= abs(fb) else b
    residual = fa if root == a else fb
    if b - a > tol:
        raise ConvergenceError("refine_root hit the iteration cap", root, residual, iterations)
    return RootReport(root=root, residual=residual, iterations=iterations, multiplicity_hint=1)


# QUADPACK qk15 on [-1, 1], one row per abscissa x >= 0 (the rule is symmetric):
# x, its Kronrod weight, and its Gauss-7 weight (0 at the Kronrod-only nodes).
_QK15 = np.array([
    [0.9914553711208126, 0.022935322010529224, 0.0],
    [0.9491079123427585, 0.06309209262997856, 0.1294849661688697],
    [0.8648644233597691, 0.10479001032225019, 0.0],
    [0.7415311855993945, 0.14065325971552592, 0.27970539148927664],
    [0.5860872354676911, 0.1690047266392679, 0.0],
    [0.4058451513773972, 0.19035057806478542, 0.3818300505051189],
    [0.20778495500789848, 0.20443294007529889, 0.0],
    [0.0, 0.20948214108472782, 0.4179591836734694],
])
# The rule mapped to [0, 1], nodes ascending.  Per unit panel width, column 0 of
# _GK_WEIGHTS gives the K15 estimate and column 1 the K15 - G7 error estimate.
_QK15_ALL = np.concatenate((_QK15 * [-1.0, 1.0, 1.0], _QK15[-2::-1]))  # 15 rows, x ascending
_GK_NODES = 0.5 * (1.0 + _QK15_ALL[:, 0])
_GK_WEIGHTS = 0.5 * np.stack([_QK15_ALL[:, 1], _QK15_ALL[:, 1] - _QK15_ALL[:, 2]], axis=1)

# Panels one call may evaluate over all passes beyond its seed panels (those the
# breakpoints make): bounds the memory of refinement and ends the bisection of a
# panel whose error estimate never falls (an integrand noisier than tol).
_MAX_PANELS = 1 << 14


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    breakpoints: Sequence[float] = (),
) -> float | complex:
    """Adaptive Gauss-Kronrod (G7-K15) estimate of the integral of f over [a, b].

    Each pass evaluates f once on the 15-node grids of all live panels, accepts
    the K15 value of each panel whose |K15 - G7| is within its width's share of
    tol, and bisects the rest, so the absolute error is (estimated to be) at
    most tol.  Breakpoints split [a, b] where f is not smooth, or seed it with
    panels short enough for an oscillation.  Complex integrands are allowed;
    the error metric is the modulus.  AccuracyError, with the estimate and the
    achieved error, reports an exhausted panel budget.
    """
    if not a < b:
        raise InvalidParameterError(f"need a < b, got [{a}, {b}]")
    if tol <= 0:
        raise InvalidParameterError("tol must be positive")
    edges = np.array([a, *sorted({p for p in breakpoints if a < p < b}), b], dtype=float)
    # panels as columns: lo + width * _GK_NODES is the (panels, 15) grid
    lo = edges[:-1, None]
    width = edges[1:, None] - lo
    tol_per_width = tol / (b - a)
    total, error, evaluated = 0.0, 0.0, 0
    budget = len(lo) + _MAX_PANELS
    while True:
        xs = lo + width * _GK_NODES
        ys = _eval_grid(f, xs.ravel()).reshape(xs.shape)
        per_width = ys @ _GK_WEIGHTS
        err = np.abs(per_width[:, 1])
        if err.max() <= tol_per_width:
            return (total + per_width[:, 0] @ width).item()
        done = err <= tol_per_width
        total += per_width[done, 0] @ width[done]
        error += err[done] @ width[done]
        evaluated += len(lo)
        live = ~done
        lo, width, per_width, err = lo[live], width[live], per_width[live], err[live]
        if evaluated + 2 * len(lo) > budget:
            raise AccuracyError(
                "quadrature panel cap reached",
                (total + per_width[:, 0] @ width).item(),
                (error + err @ width).item(),
            )
        width = 0.5 * width
        lo, width = np.concatenate((lo, lo + width)), np.concatenate((width, width))
