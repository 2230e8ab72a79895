"""groupwave benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the library is imported from ``src/``).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-module metrics with ``--trace 1``.  The line before
it is the run's record (environment, sample counts, p90s, grid sizes).  The
exit code is 0 when every operation passed its checks, 1 when one failed,
and 2 on a usage error or when the library sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
WORKLOAD_NAMES = ("long_lived", "fresh_process")


def per_module_unit(name: str) -> str:
    if name.endswith("nodes_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "B"
    if name.endswith(("_share", "_ratio", "_margin")):
        return "ratio"
    return "count"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "groupwave", "__init__.py")):
        print(f"error: groupwave sources not found under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    import envinfo

    os.environ.update(envinfo.thread_env())  # before numpy loads BLAS
    sys.path.insert(0, SRC)
    import workloads

    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = workloads.Context(ROOT, work)
    if args.trace:
        tally, values, details = workloads.run_traced(args.workload, args.seed, args.seconds, ctx)
        metrics = {k: {"value": v, "unit": per_module_unit(k)} for k, v in values.items()}
    else:
        tally, metrics, details = workloads.run_untraced(
            args.workload, args.seed, args.seconds, ctx)

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": envinfo.record(ROOT, SRC, args.seed),
        **details,
        "failures": tally.failures,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"record": record, "result": result}, fh, indent=2, sort_keys=True)
    print(json.dumps({k: v for k, v in record.items() if k != "samples_s"}, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
