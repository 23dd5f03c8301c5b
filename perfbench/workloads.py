"""The four benchmark workloads: seeded inputs, one operation each, checks.

A workload is a sequence of rounds.  Round ``i`` is built from its own
``random.Random(f"{seed}:{i}")``, so the same seed gives the same inputs
whether a run gets through three rounds or thirty, and a traced run can
replay exactly the first rounds of a timed one.  Every round holds a fixed
number of operations of each kind; only their parameters are random, which
keeps the cost of a round, and so the throughput, nearly the same across
seeds.

``probes`` are the inputs of known defects.  They are kept apart from the
rounds so that the timed mix holds only inputs the library gets right; they
run after the timed loop, are checked like any other operation, and their
failures are reported on their own.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import time

import checks

TWO_PI = 2.0 * math.pi


class Workload:
    name = ""

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root

    def round(self, index: int) -> list[tuple]:
        rng = random.Random(f"{self.seed}:{index}")
        ops = self.make_round(rng)
        rng.shuffle(ops)
        return ops

    def make_round(self, rng: random.Random) -> list[tuple]:
        raise NotImplementedError

    def warmup(self) -> list[tuple]:
        raise NotImplementedError

    def probes(self) -> list[tuple]:
        return []

    def run(self, op: tuple):
        return getattr(self, "op_" + op[0])(*op[1:])

    def check(self, op: tuple, out) -> str | None:
        return getattr(self, "check_" + op[0])(out, *op[1:])


# ---------------------------------------------------------------------------


class BoxSurvey(Workload):
    """solve_spectrum plus an eigenfunction for every returned root."""

    name = "box_survey"

    def __init__(self, seed, root):
        super().__init__(seed, root)
        from saext import box_spectrum, extensions
        self.box = box_spectrum
        self.ext = extensions

    def _random_point(self, rng, psi=None, m0=None, m1=None):
        vec = [rng.gauss(0.0, 1.0) for _ in range(4)]
        if m0 is not None:
            fixed = [m0] if m1 is None else [m0, m1]
            rest = math.sqrt(max(0.0, 1.0 - sum(v * v for v in fixed)))
            tail = vec[len(fixed):]
            norm = math.sqrt(sum(v * v for v in tail))
            vec = fixed + [rest * v / norm for v in tail]
        norm = math.sqrt(sum(v * v for v in vec))
        vec = [v / norm for v in vec]
        psi = rng.uniform(0.0, math.pi) if psi is None else psi
        return self.ext.ExtensionU2(psi=psi, m0=vec[0], m=tuple(vec[1:]))

    def make_round(self, rng):
        ops = [("generic", self._random_point(rng), 10) for _ in range(24)]
        ops.append(("generic", self._random_point(rng), rng.randint(50, 119)))
        ops.append(("generic", self._random_point(rng), rng.randint(120, 200)))
        for name in ("dirichlet", "neumann", "periodic", "antiperiodic"):
            ops.append(("closed", self.ext.named_extension(name), name, None, rng.randint(5, 15)))
        # theta -> 0 and theta -> 2 pi from 1e-4 on; 1e-5 itself is a probe
        small = 10.0 ** rng.uniform(-4.0, -1.0)
        for theta in (small, TWO_PI - 10.0 ** rng.uniform(-4.0, -1.0),
                      rng.uniform(0.1, TWO_PI - 0.1), rng.uniform(0.1, TWO_PI - 0.1)):
            ext = self.ext.named_extension("quasi_periodic", theta=theta)
            ops.append(("closed", ext, "quasiperiodic", theta, 10))
        for _ in range(3):
            m1 = rng.uniform(-0.95, 0.95)
            ext = self._random_point(rng, psi=math.pi / 2.0, m0=0.0, m1=m1)
            ops.append(("closed", ext, "family2", ext.m1, 10))
        # m0 -> 1 with 1 - m0 >= 3e-5 keeps the negative level below r ~ 400, inside
        # the r <= 690 range eigenfunction documents
        for i in range(3):
            delta = 10.0 ** rng.uniform(math.log10(3e-5), -2.0)
            psi = 0.0 if i == 0 else 10.0 ** rng.uniform(-6.0, -3.0)
            ops.append(("generic", self._random_point(rng, psi=psi, m0=1.0 - delta), 10))
        return ops

    def warmup(self):
        rng = random.Random(f"{self.seed}:warmup")
        return [("generic", self._random_point(rng), 10),
                ("closed", self.ext.named_extension("periodic"), "periodic", None, 5)]

    def probes(self):
        ops = []
        for theta in (1e-5, TWO_PI - 1e-5):
            ext = self.ext.named_extension("quasi_periodic", theta=theta)
            ops.append(("closed", ext, "quasiperiodic", theta, 10))
        return ops

    def _solve(self, ext, count):
        box = self.box
        res = box.solve_spectrum(box.BoxSpectrumRequest(ext=ext, count=count))
        # eigenfunction documents that it refuses r > 690 (beyond double precision);
        # a uniform U(2) draw near cos(psi) = m0 can put a negative level there
        fns = [box.eigenfunction(ext, ("negative", r.value)) for r in res.negative
               if r.value <= 690.0]
        if res.has_zero_mode:
            fns.append(box.eigenfunction(ext, ("zero", 0.0)))
        fns += [box.eigenfunction(ext, ("positive", r.value)) for r in res.positive]
        return res, fns

    def op_generic(self, ext, count):
        return self._solve(ext, count)

    def op_closed(self, ext, kind, param, count):
        return self._solve(ext, count)

    def _check_modes(self, ext, fns):
        """Every mode's boundary residual; the norm of the lowest and highest mode."""
        u = checks.u_matrix(ext.psi, ext.m0, *ext.m)
        for i, fn in enumerate(fns):
            bad = checks.check_eigenfunction(u, fn, norm=i in (0, len(fns) - 1))
            if bad:
                return bad
        return None

    def check_generic(self, out, ext, count):
        res, fns = out
        return (checks.check_generic(res, ext.psi, ext.m0, ext.m1, count)
                or self._check_modes(ext, fns))

    def check_closed(self, out, ext, kind, param, count):
        res, fns = out
        expected = checks.closed_form_levels(kind, param, count)
        return checks.check_closed_form(res, expected, count) or self._check_modes(ext, fns)


# ---------------------------------------------------------------------------


class Quadrature(Workload):
    """C08 coefficients, validated expansion tables, the paradox and other quadratures."""

    name = "quadrature"

    def __init__(self, seed, root):
        super().__init__(seed, root)
        from saext import extensions, momentum, wells
        self.ext = extensions
        self.momentum = momentum
        self.wells = wells

    def make_round(self, rng):
        ops = []
        thetas = [0.1, 1.0, math.pi, 5.0]
        rng.shuffle(thetas)
        for theta, lo in zip(thetas, (0, 6, 11, 16)):
            ops.append(("coeff", theta, rng.choice((-1, 1)) * rng.randint(lo, lo + 4)))
        # theta in [0.01, 6.2]: outside it the closed form cancels (see probes)
        half = rng.randint(300, 340)
        ops.append(("table", rng.uniform(0.01, 6.2), -half, half))
        for _ in range(3):
            half = rng.randint(10, 100)
            ops.append(("table", rng.uniform(0.01, 6.2), -half, half + rng.randint(0, 20)))
        # two 1e7-term paradox sums per round are the heaviest operations, so the
        # tail (ten samples beyond it) sits among operations of one fixed size
        ops += [("paradox", 10 ** 7)] * 2
        ops += [("paradox", int(10.0 ** rng.uniform(3.0, 6.0))) for _ in range(2)]
        for key in checks.DEFICIENCY:
            ops.append(("deficiency", *key, rng.uniform(0.5, 2.0), rng.uniform(10.0, 20.0)))
        # uncertainty products over all 41 states of a phase make up most operations:
        # the costs of the other kinds spread over three decades, and a median among
        # them moves with the seed
        ops += [("uncertainty", rng.uniform(0.0, TWO_PI)) for _ in range(30)]
        ops += [("well_coeff", rng.randint(1, 10)) for _ in range(2)]
        return ops

    def warmup(self):
        return [("coeff", 1.0, 1), ("table", 0.5, -5, 5), ("paradox", 1000),
                ("deficiency", "hamiltonian", "semi_axis", 1.0, 10.0),
                ("uncertainty", 1.0), ("well_coeff", 1)]

    def probes(self):
        # expansion_coeff's closed form cancels for n = 0 at theta ~ 2e-4..2.4e-3 and for
        # n = -1 at theta ~ 6.248..2 pi; its own 1e-10 validation then raises DiagnosticError
        return [("table", 1e-3, -3, 3), ("table", TWO_PI - 0.01, -3, 3)]

    def op_coeff(self, theta, n):
        return self.momentum.expansion_coeff_quadrature(theta, n)

    def check_coeff(self, out, theta, n):
        return checks.check_coeff(theta, n, out, 1e-9)

    def op_table(self, theta, lo, hi):
        return self.momentum.expansion_table(theta, lo, hi)

    def check_table(self, out, theta, lo, hi):
        return checks.check_table(out, theta, lo, hi)

    def op_paradox(self, terms):
        return self.wells.paradox_report(terms)

    def check_paradox(self, out, terms):
        return checks.check_paradox(out, terms)

    def op_deficiency(self, op, interval, d_or_k0, cutoff):
        ext = self.ext
        return ext.verify_deficiency(ext.OperatorKind(op), ext.IntervalKind(interval),
                                     d_or_k0, cutoff)

    def check_deficiency(self, out, op, interval, d_or_k0, cutoff):
        want = checks.DEFICIENCY[(op, interval)]
        return None if tuple(out) == want else f"{op} on {interval}: {out}, expected {want}"

    def op_uncertainty(self, theta):
        states = self.momentum.p_spectrum(theta, (-20, 20))
        return [self.momentum.uncertainty_product(state) for state in states]

    def check_uncertainty(self, out, theta):
        for rep in out:
            if rep.dP != 0.0 or rep.product != 0.0 or abs(rep.dX - 1.0 / math.sqrt(12.0)) > 1e-9:
                return f"uncertainty at theta={theta!r}: {rep}"
        return None

    def op_well_coeff(self, n):
        return self.wells.well_coefficient_quadrature(n)

    def check_well_coeff(self, out, n):
        ref = checks.well_coeff(n)
        return None if abs(out - ref) <= 1e-10 else f"b_{n} = {out!r}, closed form {ref!r}"


# ---------------------------------------------------------------------------


class ScalarRoots(Workload):
    """Deuteron depths, finite-well levels and the half-line wall."""

    name = "scalar_roots"

    def __init__(self, seed, root):
        super().__init__(seed, root)
        from saext import halfline, wells
        self.halfline = halfline
        self.wells = wells

    @staticmethod
    def _depths(rng, n, count):
        low = math.log10(max(10.0, 2.0 * n * math.pi))
        return sorted({round(10.0 ** rng.uniform(low, 5.0), 6) for _ in range(count)})

    def make_round(self, rng):
        ops = []
        for _ in range(2):
            grid = [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(rng.randint(40, 120))]
            ops.append(("sweep", [0.0] + sorted(grid) + [math.inf]))
        for _ in range(16):
            pick = rng.random()
            ell = 0.0 if pick < 0.1 else math.inf if pick < 0.2 else 10.0 ** rng.uniform(-3, 3)
            ops.append(("depth", ell, rng.uniform(1.0, 5.0), rng.uniform(1.5, 3.0)))
        for _ in range(8):
            ops.append(("levels", 10.0 ** rng.uniform(1.0, 5.0), rng.randint(1, 20)))
        for _ in range(4):
            n = rng.randint(1, 20)
            ops.append(("limit", self._depths(rng, n, rng.randint(3, 5)), n))
        for _ in range(12):
            pick = rng.random()
            lam = 0.0 if pick < 0.1 else math.inf if pick < 0.2 else rng.gauss(0.0, 4.0)
            ops.append(("reflect", lam, rng.uniform(1e-3, 100.0)))
        ops += [("bound", rng.gauss(0.0, 4.0)) for _ in range(6)]
        return ops

    def warmup(self):
        return [("sweep", [0.0, 1.0, math.inf]), ("depth", 0.5, 2.2, 2.0), ("levels", 100.0, 5),
                ("limit", [100.0, 1000.0], 1), ("reflect", 1.0, 2.0), ("bound", -1.0)]

    def probes(self):
        # refine_root's absolute 1e-14 tolerance is below the float spacing once kL > 64
        return [("levels", 1e4, 25), ("limit", [1e3, 1e4, 1e5], 21), ("limit", [1e3, 1e5], 30)]

    def _params(self, ell=0.0, binding=2.2, range_a=2.0):
        return self.halfline.DeuteronParams(binding_energy=binding, range_a=range_a,
                                            lam_over_a=ell)

    def op_sweep(self, ells):
        return self.halfline.deuteron_sweep(self._params(), ells)

    def check_sweep(self, out, ells):
        if len(out) != len(ells):
            return f"{len(out)} sweep solutions for {len(ells)} values"
        p = self._params()
        for sol, ell in zip(out, ells):
            bad = checks.check_deuteron(sol, ell, p.binding_energy, p.range_a, p.hbar_c,
                                        p.nucleon_mass_c2)
            if bad:
                return bad
        for sol, target in ((out[0], 36.5), (out[-1], 6.3)):
            if abs(sol.V0 - target) > 0.02 * target:
                return f"depth {sol.V0!r} MeV against {target} MeV (2%)"
        return None

    def op_depth(self, ell, binding, range_a):
        return self.halfline.deuteron_v0(self._params(ell, binding, range_a))

    def check_depth(self, out, ell, binding, range_a):
        p = self._params(ell, binding, range_a)
        return checks.check_deuteron(out, ell, binding, range_a, p.hbar_c, p.nucleon_mass_c2)

    def op_levels(self, v0, max_n):
        return self.wells.finite_well_levels(v0, max_n)

    def check_levels(self, out, v0, max_n):
        return checks.check_well_levels(out, v0, max_n)

    def op_limit(self, v0s, n):
        return self.wells.infinite_limit_study(v0s, n)

    def check_limit(self, out, v0s, n):
        return checks.check_limit_study(out, v0s, n)

    def op_reflect(self, lam, k):
        return self.halfline.reflection(lam, k)

    def check_reflect(self, out, lam, k):
        r, big_r = out
        ref = 1.0 if math.isinf(lam) else -(1.0 + 1j * lam * k) / (1.0 - 1j * lam * k)
        if abs(r - ref) > 1e-12 or abs(big_r - 1.0) > 1e-12:
            return f"reflection({lam!r}, {k!r}) = {out}"
        return None

    def op_bound(self, lam):
        return self.halfline.bound_state(lam)

    def check_bound(self, out, lam):
        if lam >= 0.0:
            return None if out is None else f"bound state for lambda = {lam!r} >= 0"
        if out is None:
            return f"no bound state for lambda = {lam!r} < 0"
        if (abs(out.energy + 1.0 / lam ** 2) > 1e-12 * abs(out.energy)
                or abs(out.amplitude - math.sqrt(2.0 / abs(lam))) > 1e-12 * out.amplitude):
            return f"bound state for lambda = {lam!r}: {out}"
        return None


# ---------------------------------------------------------------------------

README_COMMANDS = [
    ["spectrum", "--u", "dirichlet", "--count", "3"],
    ["spectrum", "--u", "psi=0.4,m=(0.5,0.5,0.5,0.5)", "--count", "5", "--include-negative"],
    ["spectrum", "--u", "quasiperiodic:1.57", "--count", "4", "--eigenfunctions",
     "--format", "csv"],
    ["classify", "--u", "psi=0.3,m=(0.6,0.8,0,0)"],
    ["deficiency", "--operator", "momentum", "--interval", "halfline"],
    ["momentum-spectrum", "--theta", "3.14159", "--range=-5:5"],
    ["expand", "--theta", "0", "--range=-50:50", "--format", "json"],
    ["paradox", "--terms", "1000000"],
    ["deuteron", "--sweep", "0,0.1,0.2,0.5,1,2,5,10,100,inf"],
    ["well-limit", "--v0-list", "100,1000,10000", "--level", "1"],
    ["reflect", "--lambda", "1", "--k", "2"],
    ["bound-state", "--lambda=-1"],
]


def _table(text: str) -> tuple[list[dict], dict]:
    lines = text.splitlines()
    header = lines[0].split()
    rows, extras = [], {}
    for line in lines[1:]:
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            extras[key] = value
        else:
            rows.append(dict(zip(header, line.split(None, len(header) - 1))))
    return rows, extras


def _close(text: str, ref: float, rel: float = 1e-9) -> bool:
    return abs(float(text) - ref) <= rel * max(1.0, abs(ref))


class CliReadme(Workload):
    """The README commands, each as its own ``python -m saext.cli`` process."""

    name = "cli_readme"

    def __init__(self, seed, root):
        super().__init__(seed, root)
        self.env = dict(os.environ)
        self.expected = {}
        self.trace_dir = None
        self.trace_files = []

    def trace_into(self, out_dir: str) -> None:
        """Run later commands through cli_probe.py, each writing its trace to out_dir."""
        self.trace_dir = out_dir

    def make_round(self, rng):
        return [("cli", tuple(argv)) for argv in README_COMMANDS]

    def warmup(self):
        return [("cli", tuple(README_COMMANDS[4]))]

    def op_cli(self, argv):
        cmd = [sys.executable, "-m", "saext.cli"]
        if self.trace_dir:
            path = os.path.join(self.trace_dir, f"cli-{os.getpid()}-{len(self.trace_files)}.json")
            self.trace_files.append(path)
            self.env["PERFBENCH_TRACE_OUT"] = path
            cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "cli_probe.py")]
        self.env["PERFBENCH_SPAWN_NS"] = str(time.monotonic_ns())
        proc = subprocess.run(cmd + list(argv), cwd=self.root, env=self.env,
                              capture_output=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def _in_process(self, argv) -> bytes:
        if argv not in self.expected:
            from saext import cli
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run(list(argv))
            self.expected[argv] = (code, buf.getvalue().encode())
        return self.expected[argv]

    def check_cli(self, out, argv):
        code, stdout, stderr = out
        if code != 0:
            return f"saext {' '.join(argv)} exited {code}: {stderr.decode(errors='replace')[-200:]}"
        if (0, stdout) != self._in_process(argv):
            return f"saext {' '.join(argv)}: stdout differs from in-process saext.cli.run"
        try:
            return self._headline(argv, stdout.decode())
        except (KeyError, ValueError, IndexError) as exc:
            return f"saext {' '.join(argv)}: unparsable output ({exc!r})"

    def _headline(self, argv, text) -> str | None:
        cmd = argv[0]
        if cmd == "spectrum" and "csv" in argv:
            rows = list(csv.DictReader(io.StringIO(text)))
            want = sorted(abs(TWO_PI * k + 1.57) for k in range(-4, 5))[:4]
            ok = len(rows) == 4 and all(_close(r["value"], s * s) for r, s in zip(rows, want))
        elif cmd == "spectrum" and "dirichlet" in argv:
            rows, _ = _table(text)
            ok = len(rows) == 3 and all(
                _close(r["value"], (k * math.pi) ** 2) for k, r in enumerate(rows, start=1))
        elif cmd == "spectrum":
            rows, _ = _table(text)
            pos = [math.sqrt(float(r["value"])) for r in rows if r["sector"] == "positive"]
            neg = [math.sqrt(-float(r["value"])) for r in rows if r["sector"] == "negative"]
            own = checks.crossings(
                lambda s: checks.f_over_s(s, 0.4, 0.5, 0.5), 1e-6, pos[-1] + 0.5, 2e-3)
            own_neg = checks.crossings(
                lambda r: checks.g_scaled(r, 0.4, 0.5, 0.5), 1e-6, 40.0, 1e-3)
            ok = (len(own) == len(pos) == 5 and len(own_neg) == len(neg)
                  and all(abs(a - b) <= 1e-8 * b for a, b in zip(own + own_neg, pos + neg)))
        elif cmd == "classify":
            (row,), _ = _table(text)
            ok = (row["time_reversal"], row["parity_preserving"], row["simple_family"]) == (
                "true", "true", "generic")
        elif cmd == "deficiency":
            (row,), _ = _table(text)
            ok = (int(row["n_plus"]), int(row["n_minus"])) == checks.DEFICIENCY[
                ("momentum", "semi_axis")]
        elif cmd == "momentum-spectrum":
            rows, _ = _table(text)
            ok = [int(r["n"]) for r in rows] == list(range(-5, 6)) and all(
                _close(r["eigenvalue"], TWO_PI * int(r["n"]) + 3.14159) for r in rows)
        elif cmd == "expand":
            rows = json.loads(text)["results"]
            ok = len(rows) == 101 and all(
                abs(complex(r["re_c"], r["im_c"]) - checks.parabola_coeff(0.0, r["n"]))
                <= 1e-9 * abs(checks.parabola_coeff(0.0, r["n"])) + 1e-15 for r in rows)
        elif cmd == "paradox":
            (row,), _ = _table(text)
            ok = (_close(row["mean_E_series"], 5.0) and abs(float(row["mean_E2_series"]) - 30) < 1e-4
                  and float(row["naive_E2"]) == 0.0 and _close(row["boundary_term"], 30.0))
        elif cmd == "deuteron":
            rows, _ = _table(text)
            depths = [float(r["V0_MeV"]) for r in rows]
            ok = (abs(depths[0] - 36.5) <= 0.02 * 36.5 and abs(depths[-1] - 6.3) <= 0.02 * 6.3
                  and all(a > b for a, b in zip(depths, depths[1:])))
        elif cmd == "well-limit":
            rows, extras = _table(text)
            ok = abs(float(extras["energy_order"]) - 1.0) <= 0.1 and all(
                abs(float(r["kL_deviation"]) - 4 * math.pi / float(r["v0"]) ** 2)
                <= 3.0 * (8 * math.pi + math.pi ** 3 / 3) / float(r["v0"]) ** 3 for r in rows)
        elif cmd == "reflect":
            (row,), _ = _table(text)
            ok = _close(row["re_r"], 0.6) and _close(row["im_r"], -0.8) and _close(row["R"], 1.0)
        elif cmd == "bound-state":
            (row,), _ = _table(text)
            ok = (row["exists"] == "true" and _close(row["energy"], -1.0)
                  and _close(row["amplitude"], math.sqrt(2.0)))
        else:
            return f"no headline check for {cmd}"
        return None if ok else f"saext {' '.join(argv)}: headline values wrong"


WORKLOADS = {cls.name: cls for cls in (BoxSurvey, Quadrature, ScalarRoots, CliReadme)}
