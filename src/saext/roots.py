"""Bracketed root refinement of a scalar function, one bracket at a time.

The bracket and report types and ``refine_root`` live here without numpy:
the deuteron depth and the finite-well levels solve one bracket each and
import this module alone.  ``numerics`` re-exports all three, and the box
solver refines each of its brackets through the same ``refine_root``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

from .errors import ConvergenceError, EvaluationError, InvalidParameterError

_MAX_ROOT_ITERATIONS = 200


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
