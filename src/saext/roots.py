"""Bracketed root refinement, in pure Python.

The bracket and report types and ``refine_root`` live here without numpy: the
deuteron depth, the finite-well levels and the box solver's levels each solve
one bracket at a time, on Python floats.  ``numerics`` re-exports them.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

from .errors import ConvergenceError, EvaluationError, InvalidParameterError

_MAX_ROOT_ITERATIONS = 200


class Bracket(NamedTuple):
    """A subinterval known to contain a root: f changes sign, f_lo * f_hi <= 0."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float


class RootReport(NamedTuple):
    root: float
    residual: float
    iterations: int


def refine_root(bracket: Bracket, f: Callable[[float], float], tol: float) -> RootReport:
    """Refine a sign-change bracket to |hi-lo| <= tol: secant steps, bisecting when one stalls.

    A bracket whose ends are adjacent floats counts as converged, whatever tol.
    f is called on scalars only, once per iteration, and a non-finite value
    raises EvaluationError at its abscissa.  A bracket with lo >= hi, a
    non-finite end or end value or no sign change, or a tol that is not finite
    and positive, raises InvalidParameterError.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidParameterError(f"tol must be positive and finite, got {tol}")
    if not all(map(math.isfinite, bracket)):
        raise InvalidParameterError(f"bracket ends and values must be finite: {bracket}")
    if not bracket.lo < bracket.hi:
        raise InvalidParameterError(f"bracket needs lo < hi, got [{bracket.lo}, {bracket.hi}]")
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

