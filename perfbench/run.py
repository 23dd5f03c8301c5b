"""saext benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload box_survey --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ``saext`` is imported from ``src/``.
``--workload all`` runs the four workloads in turn.
Every line but the last is a readable report; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Throughput and latencies are reported in units of a reference loop's
time, measured between operations (see README.md).  Full reports and span files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("box_survey", "quadrature", "scalar_roots", "cli_readme")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_RUNS = 3        # set-up-only processes before and again after the timed one
DEADLINE_S = 170.0    # the whole run, all child processes included

# throughput and latencies are in units of the reference loop's time (worker.reference_ms),
# which cancels the host's speed drift; the report prints them in seconds as well
END_TO_END = {
    "ops_per_ref": "1/ref", "op_p50_ref": "ref", "op_tail_ref": "ref", "setup_s": "s",
    "peak_rss_mb": "MB",
}


# the per-layer metrics of the JSON line: every counter, and only those times
# that no workload leaves at zero (the rest are in the readable report)
PER_LAYER = list(tracing.COUNTS) + [
    "numerics.self_ms", "api.self_ms", "cli.interpreter_ms", "cli.import_numpy_ms",
    "cli.import_ms", "trace.overhead_ratio",
]


class RunError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _spawn(args: list[str], deadline: float) -> dict:
    """Start one worker in its own process group, wait for it, return its JSON."""
    spawn_ns = time.monotonic_ns()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args,
           "--spawn-ns", str(spawn_ns), "--root", ROOT, "--out-dir", OUT_DIR]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunError("worker exceeded the run deadline") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}: {stderr.decode(errors='replace')[-2000:]}")
    result = json.loads(stdout.decode().strip().splitlines()[-1])
    result["spawn_ns"] = spawn_ns
    return result


def _git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _environment(seed: int, numpy_version: str) -> dict:
    return {
        "git_sha": _git_sha(), "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: "1" for var in THREAD_VARS}, "seed": seed,
    }


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    base = ["--workload", workload, "--seed", str(seed)]

    def setup_s(res):
        return (res["setup_end_ns"] - res["spawn_ns"]) / 1e9

    # set-up time drifts with the machine, so its samples straddle the timed loop
    setups = [setup_s(_spawn(base + ["--mode", "setup"], deadline)) for _ in range(SETUP_RUNS)]
    main = _spawn(base + ["--mode", "timed", "--seconds", str(seconds)], deadline)
    setups.append(setup_s(main))
    setups += [setup_s(_spawn(base + ["--mode", "setup"], deadline)) for _ in range(SETUP_RUNS)]

    lat = sorted(main["latencies_ms"])
    rel = sorted(main["latencies_ref"])
    n = len(lat)
    if n < 11:
        raise RunError(f"only {n} operations completed; the tail needs at least 11")
    failed = len(main["failures"])
    metrics = {
        "ops_per_ref": n / sum(rel),
        "op_p50_ref": statistics.median(rel),
        "op_tail_ref": rel[n - 11],     # ten samples lie beyond it
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["rss_kb"] / 1024.0,
    }
    probe_failed = len(main["probe_failures"])
    detail = {
        "ops_per_s": n / main["loop_s"], "op_ms_p50": statistics.median(lat),
        "op_ms_tail": lat[n - 11], "ref_ms": main["ref_ms"],
        "tail_percentile": 100.0 * (n - 10) / n, "samples": n, "rounds": main["rounds"],
        "loop_s": main["loop_s"], "setup_samples_s": setups,
        "failed_ratio": (failed + probe_failed) / (n + main["probes"]),
        "timed_failed": failed, "probes": main["probes"], "probes_failed": probe_failed,
        "failures": main["failures"][:20], "probe_failures": main["probe_failures"],
        "numpy": main["numpy"],
    }
    return metrics, detail


def per_layer(workload: str, seed: int, deadline: float) -> tuple[dict, dict]:
    res = _spawn(["--workload", workload, "--seed", str(seed), "--mode", "traced"], deadline)
    layers = res.pop("layers")
    res.pop("spawn_ns")
    detail = res
    detail["layer_self_ms"] = layers.pop("layer_self_ms")
    refined = layers["box_spectrum.roots_refined"]
    hinted = layers["halfline.hinted_solves"]
    detail["ratios"] = {
        "box_spectrum.kept_root_ratio": (
            layers["box_spectrum.roots_returned"] / refined if refined else None, refined),
        "halfline.hint_hit_ratio": (
            layers["halfline.hint_hits"] / hinted if hinted else None, hinted),
    }
    return layers, detail


def _unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def measure(workload: str, seed: int, seconds: float, trace: int) -> bool:
    """Run one workload, print its report and JSON line; False if it could not finish."""
    deadline = time.monotonic() + DEADLINE_S
    try:
        if trace:
            metrics, detail = per_layer(workload, seed, deadline)
        else:
            metrics, detail = end_to_end(workload, seed, seconds, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False

    env = _environment(seed, detail.pop("numpy"))
    report = {"workload": workload, "trace": trace, "seconds": seconds,
              "environment": env, "metrics": metrics, "detail": detail}
    path = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)

    print(f"# saext benchmark  workload={workload} seed={seed} trace={trace}")
    print("# environment " + json.dumps(env))
    if trace:
        units = {name: _unit(name) for name in metrics}
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
        for name, (value, base) in detail["ratios"].items():
            if value is None:
                print(f"{name} absent: base 0, this workload makes no such call")
            else:
                print(f"{name} = {value:.6g} (base {base})")
        print("layer self ms: " + json.dumps(detail["layer_self_ms"]))
        print(f"ops {detail['ops']}, plain {detail['plain_s']:.3f} s, "
              f"traced {detail['traced_s']:.3f} s, spans {detail['spans']} "
              f"-> {detail['spans_file']}")
        failed = len(detail["failures"])
        attempted = detail["ops"]
        keys = PER_LAYER
    else:
        units = END_TO_END
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
        print(f"ops_per_s = {detail['ops_per_s']:.6g} 1/s, op_ms_p50 = {detail['op_ms_p50']:.6g} ms, "
              f"op_ms_tail = {detail['op_ms_tail']:.6g} ms; reference loop {detail['ref_ms']:.4g} ms")
        print(f"the tail is p{detail['tail_percentile']:.2f} of {detail['samples']} samples")
        print(f"failed_ratio = {detail['failed_ratio']:.6g} "
              f"({detail['timed_failed']} of {detail['samples']} timed operations, "
              f"{detail['probes_failed']} of {detail['probes']} known-defect probes)")
        failed = detail["timed_failed"]
        attempted = detail["samples"]
        keys = list(END_TO_END)
    for line in detail["failures"]:
        print(f"FAILED {line}")
    for line in detail["probe_failures"]:
        print(f"probe failed (known defect) {line}")
    print(f"# full report: {os.path.relpath(path, ROOT)}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in keys},
    }
    print(json.dumps(result), flush=True)
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "saext", "__init__.py")):
        print(f"error: no saext sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        if not measure(workload, args.seed, args.seconds, args.trace):
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
