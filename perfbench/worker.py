"""One workload process: set up, then a timed loop or a traced pass.

Run by ``run.py`` with ``PYTHONPATH=src`` and BLAS/OpenMP threads pinned to
one.  It prints one JSON object on its last line of standard output.

  --mode setup   set up and stop; reports when set-up ended
  --mode timed   closed loop, one operation in flight, whole rounds until
                 --seconds of operation time have passed; each round's outputs
                 are checked after it, and the reference loop runs between
                 operations, both outside the operation time
  --mode traced  a fixed list of operations (the first rounds), once plain
                 and once under the tracer, then checked
"""

from __future__ import annotations

import time

T_ENTRY = time.monotonic_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

t0 = time.monotonic_ns()
import numpy  # noqa: E402

t1 = time.monotonic_ns()
import saext.cli  # noqa: E402,F401

t2 = time.monotonic_ns()

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

IMPORTS = {"import_numpy_ms": (t1 - t0) / 1e6, "import_ms": (t2 - t0) / 1e6}

# rounds replayed by a traced run, chosen so each traced pass takes a few seconds
TRACED_ROUNDS = {"box_survey": 3, "quadrature": 1, "scalar_roots": 6, "cli_readme": 1}


def _run_checked(wl, ops, outputs):
    """Check each (op, output or exception); returns one line per failed operation."""
    failures = []
    for op, (out, error) in zip(ops, outputs):
        reason = f"raised {error}" if error else wl.check(op, out)
        if reason:
            failures.append(f"{op[0]}: {reason}")
    return failures


def _run_one(wl, op):
    """(output, None), or (None, error text) when the operation raised."""
    try:
        return wl.run(op), None
    except Exception as exc:  # a failed operation is a result, not a crash
        return None, f"{type(exc).__name__}: {exc}"


def _run_all(wl, ops, tracer=None, tag=""):
    outputs = []
    for i, op in enumerate(ops):
        if tracer:
            tracer.op_id = f"{tag}{i}"
        outputs.append(_run_one(wl, op))
    return outputs


_REF_MATRIX = numpy.array([[1.0, 0.5j], [0.25, 2.0]])


def reference_ms() -> float:
    """Time of a fixed loop of scalar numpy and math calls that shares no code with saext.

    The host's speed drifts by a quarter over tens of seconds; this loop, timed
    between operations, slows down with it, so times divided by it do not.
    """
    start = time.perf_counter_ns()
    acc = 0.0
    for i in range(1500):
        x = 0.001 * i
        acc += float(numpy.sinc(numpy.asarray(x))) + math.sin(x)
        if i % 10 == 0:
            acc += float(numpy.linalg.svd(_REF_MATRIX, compute_uv=False)[0])
    return (time.perf_counter_ns() - start) / 1e6


REF_EVERY_NS = 200_000_000   # wall time between two runs of the reference loop


def timed(wl, seconds, setup_end):
    """Whole rounds until the loop time reaches seconds; each round is checked after it.

    The reference loop runs at the start, whenever 0.2 s have passed since its
    last run (between two operations), and at the end; each operation's
    reference time is the mean of the two runs around it.
    """
    budget = int(seconds * 1e9)
    latencies, relative, failures, pending = [], [], [], []
    ref_prev = reference_ms()
    ref_at = time.perf_counter_ns()
    refs = [ref_prev]

    def take_reference():
        nonlocal ref_prev, ref_at
        ref_next = reference_ms()
        ref_at = time.perf_counter_ns()
        relative.extend(ms * 2.0 / (ref_prev + ref_next) for ms in pending)
        pending.clear()
        ref_prev = ref_next
        refs.append(ref_next)

    loop_ns = 0
    rounds = 0
    while loop_ns < budget:
        batch = wl.round(rounds)
        rounds += 1
        outputs = []
        for op in batch:
            if time.perf_counter_ns() - ref_at >= REF_EVERY_NS:
                take_reference()
            t = time.perf_counter_ns()
            outputs.append(_run_one(wl, op))
            ns = time.perf_counter_ns() - t
            loop_ns += ns
            latencies.append(ns / 1e6)
            pending.append(ns / 1e6)
        failures += _run_checked(wl, batch, outputs)
    take_reference()
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_readme" else resource.RUSAGE_SELF
    rss_kb = resource.getrusage(who).ru_maxrss
    probes = wl.probes()
    probe_failures = _run_checked(wl, probes, _run_all(wl, probes))
    return {
        "setup_end_ns": setup_end, "loop_s": loop_ns / 1e9, "rounds": rounds,
        "ref_ms": sorted(refs)[len(refs) // 2], "latencies_ms": latencies,
        "latencies_ref": relative, "failures": failures, "rss_kb": rss_kb,
        "probes": len(probes), "probe_failures": probe_failures,
    }


def _merge_cli_traces(tracer, paths):
    """Fold the traces written by each traced CLI process into this one.

    Start-up times are the median over the commands."""
    startup = {"interpreter_ms": [], "import_numpy_ms": [], "import_ms": []}
    for op_id, path in enumerate(paths):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        os.unlink(path)
        tracer.counts.update(data["counts"])
        base = len(tracer.spans)
        for name, start, end, parent, _ in data["spans"]:
            tracer.spans.append([name, start, end, parent + base if parent >= 0 else -1,
                                 str(op_id)])
        for key in startup:
            startup[key].append(data[key])
    return {key: sorted(vals)[len(vals) // 2] for key, vals in startup.items() if vals}


def traced(wl, spawn_ns, out_dir):
    ops = [op for i in range(TRACED_ROUNDS[wl.name]) for op in wl.round(i)]

    def plain_pass():
        start = time.perf_counter_ns()
        _run_all(wl, ops)
        return (time.perf_counter_ns() - start) / 1e9

    first_plain_s = plain_pass()

    tracer = tracing.Tracer()
    if wl.name == "cli_readme":
        wl.trace_into(out_dir)
    else:
        tracer.install()
    start = time.perf_counter_ns()
    outputs = _run_all(wl, ops, tracer)
    traced_s = (time.perf_counter_ns() - start) / 1e9
    probes = wl.probes()
    probe_outputs = _run_all(wl, probes, tracer, tag="probe-")
    tracer.uninstall()
    if wl.name == "cli_readme":
        wl.trace_into(None)
    # plain passes on both sides of the traced one, so warming up is not counted as overhead
    plain_s = (first_plain_s + plain_pass()) / 2.0

    startup = {"interpreter_ms": (T_ENTRY - spawn_ns) / 1e6, **IMPORTS}
    if wl.name == "cli_readme":
        startup = _merge_cli_traces(tracer, wl.trace_files)
    failures = _run_checked(wl, ops, outputs)
    probe_failures = _run_checked(wl, probes, probe_outputs)
    if wl.name == "box_survey":
        tracer.counts["box_spectrum.wrong_spectra"] += len(failures) + len(probe_failures)
    spans_path = os.path.join(out_dir, f"spans-{wl.name}-seed{wl.seed}.json")
    tracer.dump(spans_path)
    layers = tracer.report()
    layers.update({f"cli.{k}": v for k, v in startup.items()})
    layers["trace.overhead_ratio"] = traced_s / plain_s
    return {
        "ops": len(ops), "plain_s": plain_s, "traced_s": traced_s, "layers": layers,
        "failures": failures, "probes": len(probes), "probe_failures": probe_failures,
        "spans_file": os.path.relpath(spans_path, wl.root), "spans": len(tracer.spans),
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    wl = WORKLOADS[args.workload](args.seed, args.root)
    wl.round(0)
    for op in wl.warmup():
        _run_one(wl, op)  # a failure here shows again, and is counted, in the timed ops
    setup_end = time.monotonic_ns()

    if args.mode == "setup":
        result = {"setup_end_ns": setup_end}
    elif args.mode == "timed":
        result = timed(wl, args.seconds, setup_end)
    else:
        result = traced(wl, args.spawn_ns, args.out_dir)
    result["numpy"] = numpy.__version__
    print(json.dumps(result))


if __name__ == "__main__":
    main()
