"""Child-process entry points of the benchmark.

    python3 perfbench/child.py worker SPEC
        run ``workloads.worker_main`` on the JSON worker spec and write its
        output to the spec's ``out`` path;
    python3 perfbench/child.py cli SPANS T0 -- ARGS...
        run ``groupwave.cli.main(ARGS)`` under the tracer, write its spans
        and start-up time (seconds since the parent's wall clock T0, taken
        just before it started this process) to SPANS, and exit with the
        command's exit code.
"""

from __future__ import annotations

import os
import sys
import time


def main(argv) -> int:
    mode = argv[0]
    if mode == "worker":
        import json

        import workloads

        spec = json.loads(argv[1])
        out = workloads.worker_main(spec)
        with open(spec["out"], "w") as fh:
            json.dump(out, fh)
        return 0
    if mode == "cli":
        spans_path, t0 = argv[1], float(argv[2])
        cli_args = argv[argv.index("--") + 1:]
        import groupwave.cli

        startup = time.time() - t0
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.active = True
        try:
            return tracer.call("cli.main", groupwave.cli.main, cli_args)
        finally:
            tracer.active = False
            tracer.dump(spans_path, {"startup_s": startup})
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main(sys.argv[1:]))
