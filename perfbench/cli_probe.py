"""A traced ``saext`` command: ``python perfbench/cli_probe.py <saext args>``.

Runs ``saext.cli.run`` on the given arguments with the tracer installed and
prints exactly what the plain command prints.  The trace, with the
interpreter start-up and import times, goes to the file named by
``PERFBENCH_TRACE_OUT``; ``PERFBENCH_SPAWN_NS`` is the monotonic time at
which the parent started this process.
"""

import time

T_ENTRY = time.monotonic_ns()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    t0 = time.monotonic_ns()
    import numpy  # noqa: F401
    t1 = time.monotonic_ns()
    import saext.cli
    t2 = time.monotonic_ns()
    import tracing

    tracer = tracing.Tracer().install()
    try:
        code = saext.cli.run(sys.argv[1:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as handle:
        json.dump({
            "counts": dict(tracer.counts),
            "spans": tracer.spans,
            "interpreter_ms": (T_ENTRY - int(os.environ["PERFBENCH_SPAWN_NS"])) / 1e6,
            "import_numpy_ms": (t1 - t0) / 1e6,
            "import_ms": (t2 - t0) / 1e6,
        }, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
