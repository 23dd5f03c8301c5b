"""Shared numerical kernels: root bracketing, refinement and quadrature.

Everything here is deliberately small and dependency-free (numpy only for
grid evaluation).  The spectral modules rely on four guarantees:

* ``scan_brackets`` finds every sign change of a scalar function on a uniform
  grid and, in addition, locates tangencies (double roots) that leave no sign
  change — these occur for genuinely doubly degenerate spectra.  Numpy masks
  over the grid select the cells; Python only builds the brackets.
* ``refine_root`` (defined in ``roots``, which needs no numpy) is a
  bisection/secant hybrid: secant steps when they help, bisection always as
  a fallback, so termination is guaranteed on any continuous function with a
  sign-change bracket.  ``refine_brackets`` refines many brackets in lockstep
  and gives the same reports as ``refine_root``, one bracket at a time: every
  sign-change bracket runs the one step generator ``_secant_bisection``.  A
  step is one batched evaluation while at least ``_GRID_MIN_LIVE`` brackets
  are live; the rest finish on scalar calls, which are cheaper than a grid
  call on a few points.
* ``integrate`` is adaptive Gauss-Kronrod G7-K15 in the QUADPACK QAG style
  (Piessens et al., 1983), exact through degree-13 polynomials on a panel.
  Each pass evaluates the integrand once, on every live panel, through the
  grid routine ``scan_brackets`` uses.
* ``fourier_coefficients`` applies the same G7-K15 rule on one grid of
  uniform panels to many Fourier coefficients at once: one FFT over the
  panels per node gives every row, each with its own |K15 - G7| estimate,
  and the grid doubles until every row meets its tol.

Characteristic functions take a float or an array through the same IEEE
operations, so scalar and grid values agree bitwise (``refine_brackets``
mixes grid steps with scalar ones).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyError, EvaluationError, InvalidParameterError
from .roots import Bracket, RootReport, _finish, _refine_extremum, _start
from .roots import refine_root  # noqa: F401  (re-exported: the one-bracket case)

# |f| threshold, relative to the local function scale, below which a polished
# same-sign minimum is declared a double root.
TANGENCY_RTOL = 1e-9


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


def scan_brackets(
    f: Callable[[float], float], lo: float, hi: float, step: float
) -> list[Bracket]:
    """Bracket every root of f on [lo, hi] using a uniform grid of width <= step.

    Strict sign changes become ordinary brackets.  A same-sign local minimum
    of |f| is polished; if the polished extremum reveals a sign flip the two
    hidden crossings are bracketed separately, and if |f| at the extremum is
    below ``TANGENCY_RTOL`` times the local scale the point is flagged as a
    suspected double root.  Numpy masks over the grid pick the sign changes,
    the exact grid-node zeros and the dip candidates; Python runs once per
    bracket and once per candidate.  A non-finite lo or hi, or a step outside
    (0, hi - lo], raises InvalidParameterError.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidParameterError(f"scan ends must be finite, got [{lo}, {hi}]")
    if not (0.0 < step <= (hi - lo) * (1.0 + 1e-9)):
        raise InvalidParameterError(f"step must satisfy 0 < step <= hi-lo, got {step}")
    n = max(1, math.ceil((hi - lo) / step))
    xs = np.linspace(lo, hi, n + 1)
    ys = _eval_grid(f, xs)
    signs = np.sign(ys)
    mag = np.abs(ys)
    change = signs[:-1] * signs[1:] < 0
    node_zero = ys[:-1] == 0.0
    node_zero[0] = False
    mid = signs[1:-1]
    dip = ((signs[:-2] == mid) & (mid == signs[2:]) & (mid != 0)
           & (mag[1:-1] <= mag[:-2]) & (mag[1:-1] <= mag[2:]))
    cells = np.flatnonzero(change | node_zero)
    mids = np.flatnonzero(dip) + 1

    brackets: list[Bracket] = []
    for x0, x1, y0, y1 in zip(xs[cells].tolist(), xs[cells + 1].tolist(),
                              ys[cells].tolist(), ys[cells + 1].tolist()):
        if y0 != 0.0:
            brackets.append(Bracket(x0, x1, y0, y1))
            continue
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
    for a, x_mid, b, y_lo, y_mid, y_hi in zip(
        xs[mids - 1].tolist(), xs[mids].tolist(), xs[mids + 1].tolist(),
        ys[mids - 1].tolist(), ys[mids].tolist(), ys[mids + 1].tolist(),
    ):
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
        elif np.sign(f_star) != 0 and np.sign(f_star) != np.sign(y_mid):
            # two crossings hidden inside one grid cell
            brackets.append(Bracket(a, x_star, y_lo, f_star))
            brackets.append(Bracket(x_star, b, f_star, y_hi))

    brackets.sort(key=lambda br: br.lo)
    return brackets


# Live brackets at or above which refine_brackets takes a batched grid step: a
# grid call of F/s costs about 20 us, a scalar call with its generator step about
# 1 us.  In perfbench box_survey (2-vCPU 2.1 GHz Xeon) any value from 18 to 48
# gave the same throughput within noise; 2 gave 17% less, scalar calls only 4%.
_GRID_MIN_LIVE = 24


def refine_brackets(
    brackets: Sequence[Bracket], f: Callable[[float], float], tols: Sequence[float]
) -> list[RootReport]:
    """Refine many brackets in lockstep; reports in input order.

    Every sign-change bracket runs the arithmetic of ``refine_root``, so each
    report equals ``refine_root(brackets[i], f, tols[i])``.  While at least
    ``_GRID_MIN_LIVE`` brackets are live they share one grid evaluation of f
    per step; the rest finish one at a time on scalar calls, which cost less
    than a grid call on fewer points.  So a scalar-only f still works, and a
    non-finite value raises EvaluationError at its abscissa.  Malformed input
    raises InvalidParameterError as in ``refine_root``, and so does a tols
    list whose length differs from that of brackets.
    """
    if len(tols) != len(brackets):
        raise InvalidParameterError(f"{len(brackets)} brackets but {len(tols)} tolerances")
    reports: list[RootReport | None] = [None] * len(brackets)
    live = []  # (input index, generator, abscissa it waits on)
    for i, (bracket, tol) in enumerate(zip(brackets, tols)):
        started = _start(bracket, f, tol)
        if isinstance(started, RootReport):
            reports[i] = started
        else:
            live.append((i, *started))
    while len(live) >= _GRID_MIN_LIVE:
        ys = _eval_grid(f, np.array([x for _, _, x in live])).tolist()
        waiting = []
        for (i, steps, _), y in zip(live, ys):
            try:
                waiting.append((i, steps, steps.send(y)))
            except StopIteration as done:
                reports[i] = done.value
        live = waiting
    for i, steps, x in live:
        reports[i] = _finish(steps, x, f)
    return reports


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
    achieved error, reports an exhausted panel budget.  A non-finite a, b or
    tol raises InvalidParameterError.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise InvalidParameterError(f"need finite a < b, got [{a}, {b}]")
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidParameterError(f"tol must be positive and finite, got {tol}")
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


# Grid doublings one fourier_coefficients call may make.  On a smooth integrand
# |K15 - G7| falls like P^-14, so one doubling settles a miss; a second miss means
# g is not smooth or is noisier than tol, and each doubling doubles the memory.
_MAX_DOUBLINGS = 2
# Grid values per FFT call: a small grid takes all 15 nodes in one call, a large
# one a node at a time, so memory stays O(P).
_FFT_BLOCK = 1 << 15


def fourier_coefficients(
    g: Callable[[np.ndarray], np.ndarray],
    ns: Sequence[int],
    tol,
    shift: float = 0.0,
) -> np.ndarray:
    """The integrals of g(x) e^{-2 pi i (n + shift) x} over [0, 1], for every integer n in ns.

    One G7-K15 grid of P uniform panels serves every row: with x = (p + t_j)/P,
    each node t_j needs one FFT of g(x) e^{-2 pi i shift x} over p = 0 ... P-1,
    and row n is sum_j w_j e^{-2 pi i n t_j / P} F_j[n mod P] / P, exact for
    every integer n.  The K15 - G7 weights give each row's error estimate.
    P is the power of two >= 2 ceil(max |n + shift|), at most half an
    oscillation per panel.  A grid of more than ``_FFT_BLOCK`` values is
    evaluated a node at a time, so memory is O(P).  P doubles until every
    row's estimate is within its tol (a scalar or one per row); past
    ``_MAX_DOUBLINGS`` doublings AccuracyError reports the estimate and error
    of the first row that still misses.
    """
    ns = np.asarray(ns)
    tol = np.asarray(tol, dtype=float)
    if ns.ndim != 1 or not ns.size or ns.dtype.kind not in "iu":
        raise InvalidParameterError("ns must be a non-empty sequence of integers")
    if tol.shape not in ((), ns.shape) or not (np.isfinite(tol).all() and (tol > 0).all()):
        raise InvalidParameterError("tol must be positive and finite, one value or one per row")
    tol = np.broadcast_to(tol, ns.shape)
    values = np.empty(ns.shape, dtype=complex)
    errors = np.empty(ns.shape)
    panels = 1 << max(0, 2 * math.ceil(np.abs(ns + shift).max()) - 1).bit_length()
    live = np.arange(ns.size)
    for _ in range(_MAX_DOUBLINGS + 1):
        rows = ns[live]
        sums = np.zeros((2, rows.size), dtype=complex)
        block = max(1, _FFT_BLOCK // panels)  # nodes per FFT call
        for j in range(0, len(_GK_NODES), block):
            t = _GK_NODES[j:j + block, None]
            x = (np.arange(panels) + t) / panels
            ys = _eval_grid(g, x.ravel()).reshape(x.shape) * np.exp(-2j * math.pi * shift * x)
            spectrum = np.fft.fft(ys, axis=1)[:, rows % panels]
            twiddle = np.exp(-2j * math.pi * t / panels * rows)
            sums += _GK_WEIGHTS[j:j + block].T @ (twiddle * spectrum)
        values[live] = sums[0] / panels
        errors[live] = np.abs(sums[1]) / panels
        live = live[errors[live] > tol[live]]
        if not live.size:
            return values
        panels *= 2
    first = live[0]
    raise AccuracyError(f"Fourier quadrature missed tol at n = {ns[first]} after "
                        f"{_MAX_DOUBLINGS} doublings", complex(values[first]), float(errors[first]))
