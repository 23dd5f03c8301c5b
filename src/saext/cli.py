"""Command-line interface: every computation as a subcommand.

Output is a table (default), RFC-4180 CSV with a header row, or a single
JSON object with an ``inputs`` echo and a ``results`` array.  Formatting is
deterministic: a given argv always produces byte-identical output.  The
default of 10 significant digits can be overridden per run (--precision) or
through the SAEXT_PRECISION environment variable.

Exit codes: 0 success, 2 usage error (also a NaN, an infinity other than a
lambda or lambda/a, a size above its cap, an empty list, or an --output path
that cannot be written), 3 numerical failure.

Each subcommand imports the modules it runs when it runs.  Every one but
``expand``, whose Fourier quadrature is numpy's FFT, loads no numpy.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import NamedTuple

from .errors import InvalidParameterError, SaextError
from .extensions import (
    IntervalKind,
    MomentumExtension,
    OperatorKind,
    classify_simple_family,
    deficiency_indices,
    is_parity_preserving,
    is_time_reversal,
    parse_extension,
)

_INTERVALS = {"line": IntervalKind.FULL_LINE, "halfline": IntervalKind.SEMI_AXIS,
              "box": IntervalKind.FINITE_BOX}
_OPERATORS = {"momentum": OperatorKind.MOMENTUM, "hamiltonian": OperatorKind.HAMILTONIAN}

# Input-size caps: the largest accepted input runs in a few seconds.
_MAX_COUNT = 5000         # spectrum --count
_MAX_S_MAX = 1e5          # spectrum --s-max (a cap only: the work follows --count)
_MAX_TERMS = 10 ** 7      # paradox --terms (all closed forms: any N takes ~10 us)
_MAX_RANGE_ROWS = 2001    # --range rows (-1000:1000)
# expand: the whole table is validated on one FFT grid of P uniform panels, P the power of
# two >= 2 ceil(max |nu|) (numerics.fourier_coefficients); P = 2^21 takes about 4 s and 180 MB
_MAX_EXPAND_PANELS = 1 << 21
_MAX_LIST = 10_000        # --sweep and --v0-list values (10^4 deuteron depths: ~0.7 s)

# Residuals are round-off and print as a bound (_residual_bound), so a root moved by a few
# ulps prints the same bytes.  Deuteron floor: twice its residual within 2 ulps of the root for
# lambda/a in [1e-6, 1e6].  Spectrum: the levels' refine tolerance, also the coefficient cut.
_DEUTERON_RESIDUAL_FLOOR = 4e-15
_SPECTRUM_FLOOR = 1e-13


class OutputSpec(NamedTuple):
    format: str = "table"          # table | csv | json
    destination: str = "-"         # path or "-" for stdout
    precision: int = 10            # significant digits


def _default_precision() -> int:
    raw = os.environ.get("SAEXT_PRECISION", "")
    try:
        value = int(raw)
    except ValueError:
        return 10
    return value if 1 <= value <= 17 else 10


def _fmt(value, precision: int) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.{precision}g}"
    return str(value)


def _residual_bound(residual: float, floor: float) -> float:
    """max(residual, floor) rounded up to one significant digit."""
    bound = max(residual, floor)
    digit, exp = f"{bound:.0e}".split("e")  # the nearest one-digit value, then up if below
    nearest = float(f"{digit}e{exp}")
    return nearest if nearest >= bound else float(f"{int(digit) + 1}e{exp}")


def _json_value(value, precision: int):
    if isinstance(value, bool) or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return _fmt(value, precision)
        return float(f"{value:.{precision}g}")
    return value


def _csv_escape(text: str) -> str:
    if any(ch in text for ch in ",\"\n"):
        return '"' + text.replace('"', '""') + '"'
    return text


def _render(columns, rows, extras, inputs, out: OutputSpec) -> str:
    if out.format == "json":
        import json

        payload = {
            "inputs": {k: _json_value(v, out.precision) for k, v in inputs.items()},
            "results": [
                {c: _json_value(row.get(c, ""), out.precision) for c in columns} for row in rows
            ],
        }
        for key, val in extras.items():
            payload[key] = _json_value(val, out.precision)
        return json.dumps(payload, indent=2) + "\n"

    cells = [[_fmt(row.get(c, ""), out.precision) for c in columns] for row in rows]
    if out.format == "csv":
        lines = [",".join(_csv_escape(c) for c in columns)]
        lines += [",".join(_csv_escape(v) for v in row) for row in cells]
        return "\n".join(lines) + "\n"

    widths = [max(len(col), *(len(r[i]) for r in cells)) if cells else len(col)
              for i, col in enumerate(columns)]
    lines = ["  ".join(col.ljust(w) for col, w in zip(columns, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    for key, val in extras.items():
        lines.append(f"# {key} = {_fmt(val, out.precision)}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out: OutputSpec) -> None:
    if out.destination == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out.destination, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise InvalidParameterError(f"--output: {exc}") from None


def _parse_u(text: str):
    try:
        return parse_extension(text)
    except InvalidParameterError as exc:
        raise InvalidParameterError(f"--u: {exc}") from None


def _finite_float(text: str) -> float:
    """argparse type for a float that must be finite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _parse_range(text: str, flag: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise InvalidParameterError(f"{flag}: expected A:B, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise InvalidParameterError(f"{flag}: expected integers A:B, got {text!r}") from None
    if lo > hi:
        raise InvalidParameterError(f"{flag}: empty range {text!r}")
    if hi - lo + 1 > _MAX_RANGE_ROWS:
        raise InvalidParameterError(f"{flag}: at most {_MAX_RANGE_ROWS} rows, got {text!r}")
    return lo, hi


def _parse_float_list(text: str, flag: str) -> list[float]:
    tokens = [tok for tok in text.split(",") if tok.strip() != ""]
    if not tokens:
        raise InvalidParameterError(f"{flag}: no values in {text!r}")
    if len(tokens) > _MAX_LIST:
        raise InvalidParameterError(f"{flag}: at most {_MAX_LIST} values, got {len(tokens)}")
    try:
        return [float(tok) for tok in tokens]
    except ValueError:
        raise InvalidParameterError(f"{flag}: bad list {text!r}") from None


# ---------------------------------------------------------------------------
# subcommand implementations: each returns (columns, rows, extras, inputs)


def _cmd_deficiency(args):
    op = _OPERATORS[args.operator]
    iv = _INTERVALS[args.interval]
    rep = deficiency_indices(op, iv)
    row = {
        "operator": args.operator,
        "interval": args.interval,
        "n_plus": rep.n_plus,
        "n_minus": rep.n_minus,
        "summary": f"({rep.n_plus},{rep.n_minus}): {rep.family.describe()}",
    }
    inputs = {"operator": args.operator, "interval": args.interval}
    return ["operator", "interval", "n_plus", "n_minus", "summary"], [row], {}, inputs


def _cmd_spectrum(args):
    from . import box_spectrum as box

    if args.count > _MAX_COUNT:
        raise InvalidParameterError(f"--count must be at most {_MAX_COUNT}, got {args.count}")
    if args.s_max is not None and args.s_max <= 0:
        raise InvalidParameterError(f"--s-max must be positive, got {args.s_max:g}")
    if args.s_max is not None and args.s_max > _MAX_S_MAX:
        raise InvalidParameterError(f"--s-max must be at most {_MAX_S_MAX:g}, got {args.s_max:g}")
    ext = _parse_u(args.u)
    req = box.BoxSpectrumRequest(ext=ext, count=args.count, s_max=args.s_max)
    result = box.solve_spectrum(req)

    columns = ["sector", "index", "value", "multiplicity", "residual"]
    if args.eigenfunctions:
        columns += ["re_a", "im_a", "re_b", "im_b", "re_a2", "im_a2", "re_b2", "im_b2"]

    def make_row(sector, index, s_or_r, energy, mult, residual):
        row = {"sector": sector, "index": index, "value": energy,
               "multiplicity": mult, "residual": _residual_bound(residual, _SPECTRUM_FLOOR)}
        if args.eigenfunctions:
            fn = box.eigenfunction(ext, (sector, s_or_r))
            for tag, mode in (("", fn.coeffs), ("2", fn.degenerate_partner or ())):
                parts = {f"{ri}_{ab}{tag}": x for ab, z in zip("ab", mode)
                         for ri, x in (("re", z.real), ("im", z.imag))}
                cut = _SPECTRUM_FLOOR * max(map(abs, parts.values()), default=0.0)
                row.update((name, x if abs(x) >= cut else 0.0) for name, x in parts.items())
        return row

    rows = []
    if args.include_negative:
        for i, root in enumerate(result.negative, start=1):
            rows.append(make_row("negative", i, root.value, -root.value ** 2,
                                 root.multiplicity, root.residual))
    if result.has_zero_mode:
        mult = box.degeneracy(ext, box.ZERO, 0.0)
        rows.append(make_row("zero", 1, 0.0, 0.0, mult,
                             abs(result.diagnostics.zero_value)))
    for i, root in enumerate(result.positive, start=1):
        rows.append(make_row("positive", i, root.value, root.value ** 2,
                             root.multiplicity, root.residual))

    inputs = {"u": args.u, "count": args.count, "include_negative": args.include_negative,
              "eigenfunctions": args.eigenfunctions}
    return columns, rows, {}, inputs


def _cmd_classify(args):
    ext = _parse_u(args.u)
    row = {
        "psi": ext.psi, "m0": ext.m0, "m1": ext.m1, "m2": ext.m2, "m3": ext.m3,
        "time_reversal": is_time_reversal(ext),
        "parity_preserving": is_parity_preserving(ext),
        "simple_family": classify_simple_family(ext).value,
    }
    cols = ["psi", "m0", "m1", "m2", "m3", "time_reversal", "parity_preserving", "simple_family"]
    return cols, [row], {}, {"u": args.u}


def _cmd_momentum_spectrum(args):
    from . import momentum

    lo, hi = _parse_range(args.range, "--range")
    states = momentum.p_spectrum(args.theta, (lo, hi))
    rows = [{"n": st.n, "nu": st.nu, "eigenvalue": st.eigenvalue} for st in states]
    return ["n", "nu", "eigenvalue"], rows, {}, {"theta": args.theta, "range": args.range}


def _cmd_expand(args):
    from . import momentum

    lo, hi = _parse_range(args.range, "--range")
    shift = MomentumExtension(args.theta).theta / (2.0 * math.pi)
    panels = 1 << max(0, 2 * math.ceil(max(abs(lo + shift), abs(hi + shift))) - 1).bit_length()
    if panels > _MAX_EXPAND_PANELS:
        raise InvalidParameterError(
            f"--range: at most {_MAX_EXPAND_PANELS} quadrature panels, "
            f"{args.range!r} needs {panels}")
    table = momentum.expansion_table(args.theta, lo, hi)
    rows = [
        {"n": n, "nu": n + table.theta / (2.0 * math.pi),
         "re_c": c.real, "im_c": c.imag, "prob": prob}
        for n, c, prob in table.entries
    ]
    extras = {"parseval_defect": table.parseval_defect}
    return ["n", "nu", "re_c", "im_c", "prob"], rows, extras, {"theta": args.theta,
                                                               "range": args.range}


def _cmd_paradox(args):
    from . import wells

    if args.terms > _MAX_TERMS:
        raise InvalidParameterError(f"--terms must be at most {_MAX_TERMS}, got {args.terms}")
    rep = wells.paradox_report(args.terms)
    cols = ["terms_used", "mean_E_series", "mean_E_direct", "mean_E2_series",
            "mean_E2_direct", "naive_E2", "boundary_term", "delta_E"]
    row = {c: getattr(rep, c) for c in cols}
    return cols, [row], {}, {"terms": args.terms}


def _cmd_deuteron(args):
    from . import halfline

    if (args.lam_over_a is None) == (args.sweep is None):
        raise InvalidParameterError("exactly one of --lambda-over-a or --sweep is required")
    base = halfline.DeuteronParams(
        binding_energy=args.binding, range_a=args.range,
        hbar_c=args.hbarc, nucleon_mass_c2=args.mass_c2,
    )
    if args.sweep is not None:
        ells = _parse_float_list(args.sweep, "--sweep")
    else:
        ells = [args.lam_over_a]
    sols = halfline.deuteron_sweep(base, ells)
    rows = [
        {"lam_over_a": ell, "X": sol.X, "Y": sol.Y, "V0_MeV": sol.V0,
         "residual": _residual_bound(sol.residual, _DEUTERON_RESIDUAL_FLOOR)}
        for ell, sol in zip(ells, sols)
    ]
    inputs = {"lambda_over_a": args.lam_over_a, "sweep": args.sweep, "binding": args.binding,
              "range": args.range, "hbarc": args.hbarc, "mass_c2": args.mass_c2}
    return ["lam_over_a", "X", "Y", "V0_MeV", "residual"], rows, {}, inputs


def _cmd_well_limit(args):
    from . import wells

    study = wells.infinite_limit_study(_parse_float_list(args.v0_list, "--v0-list"), args.level)
    if len(study.rows) < 2:  # after the level checks, which a single depth also runs
        raise InvalidParameterError(
            f"--v0-list: at least two depths are needed for energy_order, got {len(study.rows)}")
    cols = ["v0", "kL", "kL_deviation", "energy", "energy_ratio", "wall_value",
            "wall_derivative"]
    rows = [{c: getattr(row, c) for c in cols} for row in study.rows]
    extras = {"energy_order": study.energy_order}
    return cols, rows, extras, {"v0_list": args.v0_list, "level": args.level}


def _cmd_reflect(args):
    from . import halfline

    r, big_r = halfline.reflection(args.lam, args.k)
    row = {"lam": args.lam, "k": args.k, "re_r": r.real, "im_r": r.imag, "R": big_r}
    return ["lam", "k", "re_r", "im_r", "R"], [row], {}, {"lambda": args.lam, "k": args.k}


def _cmd_bound_state(args):
    from . import halfline

    state = halfline.bound_state(args.lam)
    if state is None:
        row = {"lam": args.lam, "exists": False, "energy": "", "amplitude": ""}
    else:
        row = {"lam": args.lam, "exists": True, "energy": state.energy,
               "amplitude": state.amplitude}
    return ["lam", "exists", "energy", "amplitude"], [row], {}, {"lambda": args.lam}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "csv", "json"),
                        default=argparse.SUPPRESS)
    common.add_argument("--output", default=argparse.SUPPRESS,
                        help="output path, '-' for stdout")
    common.add_argument("--precision", type=int, default=argparse.SUPPRESS,
                        help="significant digits (default 10, or SAEXT_PRECISION)")

    parser = argparse.ArgumentParser(
        prog="saext",
        parents=[common],
        description="Spectra and observables for the self-adjoint boundary conditions "
                    "of -iD and -D^2 on a line, half line, and box.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def sub(name, **kwargs):
        return subparsers.add_parser(name, parents=[common], **kwargs)

    p = sub("deficiency", help="deficiency indices and extension family")
    p.add_argument("--operator", choices=sorted(_OPERATORS), required=True)
    p.add_argument("--interval", choices=("line", "halfline", "box"), required=True)
    p.set_defaults(func=_cmd_deficiency)

    p = sub("spectrum", help="box spectrum for a U(2) boundary condition")
    p.add_argument("--u", required=True, help="extension: named or psi=..,m=(..,..,..,..)")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--include-negative", action="store_true")
    p.add_argument("--eigenfunctions", action="store_true")
    p.add_argument("--s-max", type=_finite_float, default=None,
                   help=f"ceiling in s of the positive levels, in (0, {_MAX_S_MAX:g}]")
    p.set_defaults(func=_cmd_spectrum)

    p = sub("classify", help="symmetry classification of an extension")
    p.add_argument("--u", required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub("momentum-spectrum", help="momentum eigenvalues for a phase theta")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--range", required=True,
                   help=f"integer range A:B of at most {_MAX_RANGE_ROWS} rows (use --range=-5:5)")
    p.set_defaults(func=_cmd_momentum_spectrum)

    p = sub("expand", help="parabola expansion over the momentum basis")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--range", required=True,
                   help=f"integer range A:B of at most {_MAX_RANGE_ROWS} rows and "
                        "|n + theta/2pi| <= 2^20 (at most 2^21 quadrature panels)")
    p.set_defaults(func=_cmd_expand)

    p = sub("paradox", help="infinite-well energy accounting")
    p.add_argument("--terms", type=int, required=True)
    p.set_defaults(func=_cmd_paradox)

    p = sub("deuteron", help="square-well depth vs boundary parameter")
    p.add_argument("--lambda-over-a", dest="lam_over_a", type=float, default=None)
    p.add_argument("--sweep", default=None,
                   help=f"comma list of at most {_MAX_LIST} lambda/a values, inf allowed")
    p.add_argument("--binding", type=_finite_float, default=2.2, help="|E| in MeV")
    p.add_argument("--range", type=_finite_float, default=2.0, help="well range a in fm")
    p.add_argument("--hbarc", type=_finite_float, default=197.3269804)
    p.add_argument("--mass-c2", dest="mass_c2", type=_finite_float, default=938.919)
    p.set_defaults(func=_cmd_deuteron)

    p = sub("well-limit", help="finite well converging to the Dirichlet box")
    p.add_argument("--v0-list", dest="v0_list", required=True,
                   help=f"comma list of 2 to {_MAX_LIST} increasing depths")
    p.add_argument("--level", type=int, default=1, help="level n")
    p.set_defaults(func=_cmd_well_limit)

    p = sub("reflect", help="reflection amplitude off the half-line wall")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--k", type=_finite_float, required=True)
    p.set_defaults(func=_cmd_reflect)

    p = sub("bound-state", help="half-line surface state, if any")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.set_defaults(func=_cmd_bound_state)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    precision = getattr(args, "precision", None)
    if precision is None:
        precision = _default_precision()
    if not 1 <= precision <= 17:
        sys.stderr.write(f"error: --precision must be in [1, 17], got {precision}\n")
        return 2
    out = OutputSpec(
        format=getattr(args, "format", "table"),
        destination=getattr(args, "output", "-"),
        precision=precision,
    )

    try:
        columns, rows, extras, inputs = args.func(args)
        _emit(_render(columns, rows, extras, inputs, out), out)
    except InvalidParameterError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except SaextError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
