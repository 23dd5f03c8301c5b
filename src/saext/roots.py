"""Root bracketing on a uniform grid and bracketed refinement, in pure Python.

The bracket and report types, ``scan_brackets`` and ``refine_root`` live here
without numpy: the deuteron depth, the finite-well levels and the box solver's
negative levels solve one bracket each, and the box solver scans F/s for its
positive levels and refines each bracket, all on Python floats.  ``numerics`` re-exports them.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

from .errors import ConvergenceError, EvaluationError, InvalidParameterError

_MAX_ROOT_ITERATIONS = 200

# |f| threshold, relative to the local function scale, below which a polished
# same-sign minimum is declared a double root.
TANGENCY_RTOL = 1e-9


class Bracket(NamedTuple):
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


class RootReport(NamedTuple):
    root: float
    residual: float
    iterations: int


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


def _check_bracket(bracket: Bracket, tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidParameterError(f"tol must be positive and finite, got {tol}")
    if not all(map(math.isfinite, (bracket.lo, bracket.hi, bracket.f_lo, bracket.f_hi))):
        raise InvalidParameterError(f"bracket ends and values must be finite: {bracket}")
    if not bracket.lo < bracket.hi:
        raise InvalidParameterError(f"bracket needs lo < hi, got [{bracket.lo}, {bracket.hi}]")


def _secant_bisection(bracket: Bracket, f: Callable[[float], float], tol: float) -> RootReport:
    """Refine a sign-change bracket with secant steps, bisecting when one stalls.

    A non-finite value of f raises EvaluationError at its abscissa.
    """
    a, b, fa, fb = bracket.lo, bracket.hi, bracket.f_lo, bracket.f_hi
    if fa == 0.0:
        return RootReport(a, 0.0, 0)
    if fb == 0.0:
        return RootReport(b, 0.0, 0)
    if fa * fb > 0:
        raise InvalidParameterError("bracket does not contain a sign change")

    iterations = 0
    use_bisection = False
    while b - a > tol and iterations < _MAX_ROOT_ITERATIONS:
        x = None
        if not use_bisection and fb != fa:
            x_sec = b - fb * (b - a) / (fb - fa)
            margin = 0.01 * (b - a)
            if a + margin < x_sec < b - margin:
                x = x_sec
        if x is None:
            x = 0.5 * (a + b)
        if not a < x < b:
            break  # a and b are adjacent floats: converged at float resolution
        iterations += 1
        fx = float(f(x))
        if not math.isfinite(fx):
            raise EvaluationError("non-finite function value", x)
        if fx == 0.0:
            return RootReport(x, 0.0, iterations)
        width_before = b - a
        if (fx > 0) == (fa > 0):
            a, fa = x, fx
        else:
            b, fb = x, fx
        # force a bisection next time whenever the secant step stalls
        use_bisection = (b - a) > 0.6 * width_before

    root = a if abs(fa) <= abs(fb) else b
    residual = fa if root == a else fb
    if b - a > tol and iterations == _MAX_ROOT_ITERATIONS:
        raise ConvergenceError("refine_root hit the iteration cap", root, residual, iterations)
    return RootReport(root=root, residual=residual, iterations=iterations)


def _refine_tangency(bracket: Bracket, f: Callable[[float], float], tol: float) -> RootReport:
    """A double-root bracket: the extremum of f."""
    x0 = bracket.x_min if bracket.x_min is not None else 0.5 * (bracket.lo + bracket.hi)
    x = _refine_extremum(f, bracket.lo, bracket.hi, xtol=min(tol, 1e-11 * max(1.0, abs(x0))))
    if x is None:
        x = x0
    return RootReport(root=x, residual=float(f(x)), iterations=0)


def refine_root(bracket: Bracket, f: Callable[[float], float], tol: float) -> RootReport:
    """Refine a bracket to |hi-lo| <= tol with a bisection/secant hybrid.

    A bracket whose ends are adjacent floats counts as converged, whatever tol.
    f is called on scalars only, once per iteration, and a non-finite value
    raises EvaluationError at its abscissa.

    Double-root brackets are refined by locating the extremum of f instead,
    with 0 iterations reported.  A bracket with lo >= hi or a non-finite end
    or end value, or a tol that is not finite and positive, raises
    InvalidParameterError.
    """
    _check_bracket(bracket, tol)
    if bracket.double_root:
        return _refine_tangency(bracket, f, tol)
    return _secant_bisection(bracket, f, tol)


def scan_brackets(
    f: Callable[[float], float], lo: float, hi: float, step: float
) -> list[Bracket]:
    """Bracket every root of f on [lo, hi] using a uniform grid of width <= step.

    Strict sign changes become ordinary brackets.  A same-sign local minimum
    of |f| is polished; if the polished extremum reveals a sign flip the two
    hidden crossings are bracketed separately, and if |f| at the extremum is
    below ``TANGENCY_RTOL`` times the local scale the point is flagged as a
    suspected double root.  The grid is numpy.linspace's, node i at
    i (hi - lo)/n + lo and node n at hi, and f is called on its floats one at
    a time; the brackets come sorted by lo.  A non-finite value of f at a node,
    or an ArithmeticError of f there (1/0, overflow), raises EvaluationError at
    that node; a non-finite lo or hi, or a step outside (0, hi - lo], raises
    InvalidParameterError.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidParameterError(f"scan ends must be finite, got [{lo}, {hi}]")
    if not (0.0 < step <= (hi - lo) * (1.0 + 1e-9)):
        raise InvalidParameterError(f"step must satisfy 0 < step <= hi-lo, got {step}")
    n = max(1, math.ceil((hi - lo) / step))
    d = (hi - lo) / n
    xs = [i * d + lo for i in range(n)]
    xs.append(hi)
    ys = []
    for x in xs:
        try:
            y = float(f(x))
        except ArithmeticError:  # 1/0 or an overflow in f
            y = math.nan
        if not math.isfinite(y):
            raise EvaluationError("non-finite function value", x)
        ys.append(y)

    brackets: list[Bracket] = []
    for i, (x0, x1, y0, y1) in enumerate(zip(xs, xs[1:], ys, ys[1:])):
        if y0 < 0.0 < y1 or y1 < 0.0 < y0:
            brackets.append(Bracket(x0, x1, y0, y1))
        elif y0 == 0.0 and i:
            # exact grid-node zero: split off a tiny enclosing bracket
            h = (x1 - x0) * 1e-6
            fl, fr = float(f(x0 - h)), float(f(x0 + h))
            crossing = fl * fr < 0
            brackets.append(Bracket(x0 - h, x0 + h, fl, fr, double_root=not crossing,
                                    x_min=None if crossing else x0))

    # a same-sign dip of |f|: adjacent ties polish to one extremum, handled once.  An
    # extremum lies in the two cells around its dip, so one polished from a dip three
    # or more nodes back is a cell (over step/2) away: only the last two can repeat it.
    handled: list[float] = []
    for i, (y_lo, y_mid, y_hi) in enumerate(zip(ys, ys[1:], ys[2:]), start=1):
        if not (0.0 < y_mid <= y_lo and y_mid <= y_hi or 0.0 > y_mid >= y_lo and y_mid >= y_hi):
            continue
        a, x_mid, b = xs[i - 1], xs[i], xs[i + 1]
        x_star = _refine_extremum(f, a, b, 1e-11 * max(1.0, abs(x_mid)))
        if x_star is None or any(abs(x_star - seen) <= 1e-3 * step for seen in handled[-2:]):
            continue
        handled.append(x_star)
        f_star = float(f(x_star))
        scale = max(abs(y_lo), abs(y_hi), 1e-300)
        if abs(f_star) <= TANGENCY_RTOL * scale:
            # |f| touches zero without a resolvable crossing: double root
            w = max(1e-9, 1e-7 * abs(x_star))
            brackets.append(
                Bracket(x_star - w, x_star + w, float(f(x_star - w)), float(f(x_star + w)),
                        double_root=True, x_min=x_star)
            )
        elif f_star != 0.0 and (f_star > 0.0) != (y_mid > 0.0):
            # two crossings hidden inside one grid cell
            brackets.append(Bracket(a, x_star, y_lo, f_star))
            brackets.append(Bracket(x_star, b, f_star, y_hi))

    brackets.sort(key=lambda br: br.lo)
    return brackets
