"""Independent output checks for the benchmark.

Nothing here calls into ``saext``: every reference value is recomputed from
the closed forms of the paper or from this file's own re-implementation of
the characteristic functions, so a wrong answer from the library cannot
also be the reference it is checked against.  Each check returns ``None``
when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

SQRT30 = math.sqrt(30.0)
TWO_PI = 2.0 * math.pi

# textbook deficiency indices (n+, n-) for -iD and -D^2
DEFICIENCY = {
    ("momentum", "full_line"): (0, 0),
    ("momentum", "semi_axis"): (1, 0),
    ("momentum", "finite_box"): (1, 1),
    ("hamiltonian", "full_line"): (0, 0),
    ("hamiltonian", "semi_axis"): (1, 1),
    ("hamiltonian", "finite_box"): (2, 2),
}

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


# ---------------------------------------------------------------------------
# box spectra


def u_matrix(psi: float, m0: float, m1: float, m2: float, m3: float) -> np.ndarray:
    """U = e^{i psi}(m0 I - i m.tau), written out entry by entry."""
    return cmath.exp(1j * psi) * np.array(
        [[m0 - 1j * m3, -1j * m1 - m2], [-1j * m1 + m2, m0 + 1j * m3]], dtype=complex
    )


def f_over_s(s, psi, m0, m1):
    """F(s)/s with F(s) = 2s[sin psi cos s - m1] - sin s[cos psi (s^2+1) - m0 (s^2-1)]."""
    return 2.0 * (math.sin(psi) * np.cos(s) - m1) - (np.sin(s) / s) * (
        math.cos(psi) * (s * s + 1.0) - m0 * (s * s - 1.0)
    )


def g_scaled(r, psi, m0, m1):
    """G(r)/sinh(r) for the negative sector E = -r^2, free of overflow."""
    r = np.asarray(r, dtype=float)
    big = r > 40.0
    safe = np.where(big, 1.0, r)
    coth = np.where(big, 1.0, 1.0 / np.tanh(safe))
    r_csch = np.where(big, 0.0, safe / np.sinh(safe))
    return (
        (math.cos(psi) - m0) * r * r
        + 2.0 * math.sin(psi) * r * coth
        - 2.0 * m1 * r_csch
        - (math.cos(psi) + m0)
    )


def crossings(fn, lo: float, hi: float, step: float) -> list[float]:
    """Every sign change of fn on [lo, hi], found on a dense grid and bisected.

    Same-sign dips of |fn| are re-sampled 1000 times finer, so a pair of
    roots closer than the grid step is still seen down to step / 1000.
    """
    xs = np.arange(lo, hi + step, step)
    ys = fn(xs)
    lows, highs = [], []
    cross = np.nonzero(np.signbit(ys[:-1]) != np.signbit(ys[1:]))[0]
    lows.extend(xs[cross])
    highs.extend(xs[cross + 1])
    ay = np.abs(ys)
    dips = np.nonzero(
        (ay[1:-1] < ay[:-2]) & (ay[1:-1] < ay[2:])
        & (np.signbit(ys[:-2]) == np.signbit(ys[2:]))
        & (np.signbit(ys[1:-1]) == np.signbit(ys[2:]))
    )[0] + 1
    for i in dips:
        fine = np.linspace(xs[i - 1], xs[i + 1], 2001)
        fy = fn(fine)
        sub = np.nonzero(np.signbit(fy[:-1]) != np.signbit(fy[1:]))[0]
        lows.extend(fine[sub])
        highs.extend(fine[sub + 1])
    if not lows:
        return []
    a = np.array(lows)
    b = np.array(highs)
    fa = fn(a)
    for _ in range(50):  # 5e-3 / 2^50 is below the float spacing
        m = 0.5 * (a + b)
        fm = fn(m)
        left = np.signbit(fm) == np.signbit(fa)
        a = np.where(left, m, a)
        fa = np.where(left, fm, fa)
        b = np.where(left, b, m)
    return sorted(float(x) for x in 0.5 * (a + b))


def _levels(result) -> list[tuple[float, int]]:
    """(s, multiplicity) per returned level, the zero mode as s = 0."""
    levels = [(0.0, 1)] if result.has_zero_mode else []
    return levels + [(float(r.value), int(r.multiplicity)) for r in result.positive]


def _expand(levels) -> list[float]:
    return [s for s, mult in levels for _ in range(mult)]


def closed_form_levels(kind: str, params, count: int) -> list[float]:
    """Exact s values (zero mode as 0, doubles repeated) for the solvable families."""
    n = count + 4
    if kind == "dirichlet":
        return [k * math.pi for k in range(1, n)]
    if kind == "neumann":
        return [k * math.pi for k in range(0, n)]
    if kind == "periodic":
        return [0.0] + [k * TWO_PI for k in range(1, n) for _ in range(2)]
    if kind == "antiperiodic":
        return [(2 * k - 1) * math.pi for k in range(1, n) for _ in range(2)]
    if kind == "quasiperiodic":
        theta = params
        return sorted(abs(TWO_PI * k + theta) for k in range(-n, n + 1))
    if kind == "family2":
        base = math.acos(params)
        return sorted(v + TWO_PI * k for k in range(n) for v in (base, TWO_PI - base))
    raise ValueError(kind)


def check_closed_form(result, expected: list[float], count: int) -> str | None:
    """Returned levels against a closed form; the zero mode may stand in for level 1."""
    if result.negative:
        return f"{len(result.negative)} negative levels where the closed form has none"
    got = _expand(_levels(result))
    if sum(r.multiplicity for r in result.positive) < count:
        return f"only {len(got)} levels returned for count={count}"
    for i, (g, e) in enumerate(zip(got, expected)):
        if abs(g - e) > 1e-7 * (1.0 + e):
            return f"level {i + 1}: s = {g!r}, closed form {e!r}"
    return None


def check_generic(result, psi, m0, m1, count: int) -> str | None:
    """Own F(s) and G(r) sign-change counts and roots against the returned spectrum."""
    z = 2.0 * math.sin(psi) - math.cos(psi) - 2.0 * m1 - m0
    if (result.has_zero_mode and abs(z) > 1e-8) or (not result.has_zero_mode and z == 0.0):
        return f"zero mode reported {result.has_zero_mode} with Z = {z!r}"
    levels = [lv for lv in _levels(result) if lv[0] > 0.0]
    if sum(m for _, m in levels) < count:
        return f"only {sum(m for _, m in levels)} positive levels for count={count}"
    top = levels[-1][0]
    own = crossings(lambda s: f_over_s(s, psi, m0, m1), 1e-6, top + 0.5, 5e-3)
    simple = [s for s, m in levels if m == 1]
    own = [s for s in own if s <= top * (1.0 + 1e-9) + 1e-9]
    doubles = [s for s, m in levels if m == 2]
    for s in doubles:
        own = [x for x in own if abs(x - s) > 1e-5 * (1.0 + s)]
    if len(own) != len(simple):
        return f"own F(s) has {len(own)} simple roots up to {top:.6g}, solver {len(simple)}"
    for a, b in zip(own, simple):
        if abs(a - b) > 1e-8 * (1.0 + b):
            return f"positive root {b!r} against own {a!r}"

    c2, c1, c0 = math.cos(psi) - m0, 2.0 * math.sin(psi), -(math.cos(psi) + m0)
    tail = []
    if c2 != 0.0 and c1 * c1 - 4.0 * c2 * c0 >= 0.0:
        sq = math.sqrt(c1 * c1 - 4.0 * c2 * c0)
        tail = [x for x in ((-c1 + sq) / (2 * c2), (-c1 - sq) / (2 * c2)) if x > 40.0]
    own_neg = crossings(lambda r: g_scaled(r, psi, m0, m1), 1e-6, 40.0, 1e-2) + sorted(tail)
    got_neg = [float(r.value) for r in result.negative for _ in range(r.multiplicity)]
    if len(own_neg) != len(got_neg):
        return f"own G(r) has {len(own_neg)} negative roots, solver {len(got_neg)}"
    for a, b in zip(own_neg, got_neg):
        if abs(a - b) > 1e-8 * (1.0 + b):
            return f"negative root {b!r} against own {a!r}"
    return None


def _norm_sq(fn, width: float) -> float:
    """int_0^1 |fn|^2 by 16-point Gauss-Legendre on panels of width ~1/s (or 1/r)."""
    panels = int(width) + 4
    edges = np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    xs = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    ws = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return float(np.sum(ws * np.abs(fn.value(xs)) ** 2))


def check_eigenfunction(u: np.ndarray, fn, norm: bool) -> str | None:
    """Boundary residual V- - U V+ of an eigenfunction (and partner); with norm, unit norm."""
    modes = [fn]
    if fn.degenerate_partner is not None:
        modes.append(fn.partner_function())
    for mode in modes:
        p0, dp0, p1, dp1 = mode.boundary_values()
        v_minus = np.array([dp0 - 1j * p0, dp1 + 1j * p1])
        v_plus = np.array([dp0 + 1j * p0, dp1 - 1j * p1])
        defect = float(np.linalg.norm(v_minus - u @ v_plus))
        scale = float(np.linalg.norm(v_minus) + np.linalg.norm(v_plus))
        if not defect <= 1e-8 * scale:
            return f"{mode.sector} mode at {mode.s_or_r!r}: boundary residual {defect:.3e}"
        if norm and abs(_norm_sq(mode, mode.s_or_r) - 1.0) > 1e-8:
            return f"{mode.sector} mode at {mode.s_or_r!r}: norm^2 {_norm_sq(mode, mode.s_or_r)!r}"
    return None


# ---------------------------------------------------------------------------
# momentum phases and the infinite well


def parabola_coeff(theta: float, n: int) -> complex:
    """(phi_n, Psi) = sqrt(30) int_0^1 x(1-x) e^{-i a x} dx with a = 2 pi n + theta.

    Centred on x = 1/2 the integrand's odd part drops out, leaving
    sqrt(30) e^{-iu} (sin u - u cos u) / (2 u^3) with u = a/2; its Taylor
    series replaces it near u = 0, where the difference cancels.
    """
    u = (TWO_PI * n + theta) / 2.0
    if abs(u) < 0.1:
        u2 = u * u
        kernel = 1.0 / 3.0 - u2 / 30.0 + u2 * u2 / 840.0 - u2 ** 3 / 45360.0
    else:
        kernel = (math.sin(u) - u * math.cos(u)) / u ** 3
    return SQRT30 * kernel / 2.0 * cmath.exp(-1j * u)


def check_coeff(theta: float, n: int, value: complex, tol: float) -> str | None:
    ref = parabola_coeff(theta, n)
    if not abs(value - ref) <= tol:
        return f"c_{n}(theta={theta!r}) = {value!r}, closed form {ref!r}"
    return None


def check_table(table, theta: float, lo: int, hi: int) -> str | None:
    ns = [entry[0] for entry in table.entries]
    if ns != list(range(lo, hi + 1)):
        return f"table rows {ns[:1]}..{ns[-1:]} for range {lo}:{hi}"
    total = 0.0
    for n, c, prob in table.entries:
        bad = check_coeff(theta, n, c, 1e-10)
        if bad:
            return bad
        if abs(prob - abs(c) ** 2) > 1e-15:
            return f"probability of n={n} is not |c_n|^2"
        total += prob
    if abs(table.parseval_defect - abs(1.0 - total)) > 1e-12:
        return f"Parseval defect {table.parseval_defect!r}, own {abs(1.0 - total)!r}"
    return None


def well_coeff(n: int) -> float:
    """b_n = (-1)^(n-1) 8 sqrt(15) / (pi^3 (2n-1)^3)."""
    return (-1) ** (n - 1) * 8.0 * math.sqrt(15.0) / (math.pi ** 3 * (2 * n - 1) ** 3)


def check_paradox(rep, terms: int) -> str | None:
    """Paradox sums 5 and 30 within the tails this file bounds itself."""
    # tails: sum_{n>N} 480/(pi^4 (2n-1)^4) and sum_{n>N} 240/(pi^2 (2n-1)^2)
    tail_e = 480.0 / math.pi ** 4 / (6.0 * (2.0 * terms - 1.0) ** 3) * 1.01 + 1e-12
    tail_e2 = 240.0 / math.pi ** 2 / (2.0 * (2.0 * terms - 1.0)) * 1.01 + 1e-9
    checks = {
        "terms_used": rep.terms_used == terms,
        "mean_E_series": -1e-12 <= 5.0 - rep.mean_E_series <= tail_e,
        "mean_E2_series": -1e-9 <= 30.0 - rep.mean_E2_series <= tail_e2,
        "mean_E_direct": abs(rep.mean_E_direct - 5.0) <= 1e-9,
        "mean_E2_direct": abs(rep.mean_E2_direct - 30.0) <= 1e-9,
        "naive_E2": rep.naive_E2 == 0.0,
        "boundary_term": abs(rep.boundary_term - 30.0) <= 1e-9,
        "delta_E": abs(rep.delta_E ** 2 - (rep.mean_E2_series - rep.mean_E_series ** 2))
        <= 1e-9,
    }
    bad = [k for k, ok in checks.items() if not ok]
    return f"paradox({terms}) fails {bad}" if bad else None


# ---------------------------------------------------------------------------
# half line and finite well


def deuteron_g(x, y: float, ell: float):
    """Matching condition times cos X; X tan X = Y at ell = inf.  x may be an array."""
    if math.isinf(ell):
        return y * np.cos(x) - x * np.sin(x)
    return y * (np.sin(x) + ell * x * np.cos(x)) + x * (np.cos(x) - ell * x * np.sin(x))


def check_deuteron(sol, ell: float, binding: float, range_a: float,
                   hbar_c: float, mass_c2: float) -> str | None:
    """Own Y, own matching condition, smallest root, and V0 = |E|(1 + (X/Y)^2)."""
    y = range_a * math.sqrt(mass_c2 * binding) / hbar_c
    x = sol.X
    if abs(sol.Y - y) > 1e-12 * y:
        return f"Y = {sol.Y!r}, own {y!r}"
    if not 0.0 < x < math.pi:
        return f"X = {x!r} outside (0, pi) at lambda/a = {ell!r}"
    scale = 1.0 + y + x * (1.0 + (0.0 if math.isinf(ell) else ell * x))
    if abs(deuteron_g(x, y, ell)) > 1e-10 * scale:
        return f"X = {x!r} does not solve the matching condition at lambda/a = {ell!r}"
    vals = deuteron_g(np.linspace(1e-9, x * (1.0 - 1e-6), 400), y, ell)
    if np.any(np.signbit(vals[:-1]) != np.signbit(vals[1:])):
        return f"X = {x!r} is not the smallest root at lambda/a = {ell!r}"
    v0 = binding * (1.0 + (x / y) ** 2)
    if abs(sol.V0 - v0) > 1e-12 * v0:
        return f"V0 = {sol.V0!r}, own {v0!r}"
    return None


def check_well_level(level, v0: float) -> str | None:
    """Level n lies in ((n-1) pi, n pi) and solves k = n pi - 2 arctan(k / rho)."""
    n, k = level.n, level.kL
    if not (n - 1) * math.pi < k < n * math.pi:
        return f"level {n} at kL = {k!r} outside its interval (v0 = {v0!r})"
    rho = math.sqrt(v0 * v0 - k * k)
    if abs(k - n * math.pi + 2.0 * math.atan(k / rho)) > 1e-11 * (1.0 + k):
        return f"level {n}: kL = {k!r} does not solve the matching condition at v0 = {v0!r}"
    return None


def check_well_levels(levels, v0: float, max_n: int) -> str | None:
    bound = math.ceil(v0 / math.pi)
    if len(levels) != min(max_n, bound):
        return f"{len(levels)} levels at v0 = {v0!r}, expected {min(max_n, bound)}"
    for i, level in enumerate(levels, start=1):
        if level.n != i:
            return f"level numbering {level.n} at position {i}"
        bad = check_well_level(level, v0)
        if bad:
            return bad
    return None


def check_limit_study(study, v0s, n: int) -> str | None:
    """Each row's root, and for level 1 the k1 L - pi(1 - 2/v0) ~ 4 pi / v0^2 law."""
    if len(study.rows) != len(v0s):
        return f"{len(study.rows)} rows for {len(v0s)} depths"
    for row, v0 in zip(study.rows, v0s):
        if row.v0 != v0:
            return f"row depth {row.v0!r} for {v0!r}"
        if not (n - 1) * math.pi < row.kL < n * math.pi:
            return f"level {n} at kL = {row.kL!r} outside its interval"
        rho = math.sqrt(v0 * v0 - row.kL ** 2)
        if abs(row.kL - n * math.pi + 2.0 * math.atan(row.kL / rho)) > 1e-11 * (1.0 + row.kL):
            return f"level {n} at v0 = {v0!r} does not solve the matching condition"
        # k_n L = n pi (1 - 2/v0) + 4 n pi / v0^2 - (8 n pi + (n pi)^3 / 3) / v0^3 + ...
        npi = n * math.pi
        law = 4.0 * npi / v0 ** 2
        next_term = (8.0 * npi + npi ** 3 / 3.0) / v0 ** 3
        if npi < 0.05 * v0 and abs(row.kL_deviation - law) > 2.0 * next_term + 1e-13:
            return (f"level {n} at v0 = {v0!r}: kL deviation {row.kL_deviation!r} "
                    f"against the 4 n pi / v0^2 law {law!r}")
    return None
