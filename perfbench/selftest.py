"""Self-tests of the benchmark.  Not collected by the library's test run;
run them explicitly:

    python3 -m pytest -q perfbench/selftest.py

They show that a minimal run of each workload prints every declared metric
with its unit, and that the checks are live: perturbed synthesis
coefficients and a non-zero CLI exit code each count as failed operations.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402
from groupwave import transforms  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace, cwd=ROOT):
    argv = [sys.executable, os.path.join(cwd, SPEC["command"][1]), "--workload", workload,
            "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_minimal_run_prints_every_end_to_end_metric(workload):
    proc = _run(workload, trace=0)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_prints_every_per_module_metric(workload):
    proc = _run(workload, trace=1)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == _declared("per_layer")
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_perturbed_synthesis_coefficients_fail(monkeypatch):
    original = transforms.synthesize

    def perturbed(result, rep, psi):
        noisy = transforms.TransformResult(
            coefficients=result.coefficients * (1.0 + 1e-6 * np.arange(result.grid.n_nodes)),
            grid=result.grid, analyzing_vector_id=result.analyzing_vector_id,
            rep_id=result.rep_id, dm_norm=result.dm_norm, meta=result.meta)
        return original(noisy, rep, psi)

    parts = ["gabor", "exotic_reduced", "wh2"]
    lib = workloads.Library(1, parts)
    monkeypatch.setattr(transforms, "synthesize", perturbed)
    tally = workloads.Tally()
    for part in parts:
        lib.run(tally, part)
    # the Gabor analysis passes; its synthesis and both per-node paths fail
    assert tally.attempted == 4 and tally.failed == 3, tally.failures
    assert tally.worst_margin > 1.0


@pytest.mark.parametrize("fresh", [False, True])
def test_nonzero_cli_exit_fails(tmp_path, fresh):
    ctx = workloads.Context(ROOT, str(tmp_path))
    run_cli = workloads.FreshProcessCli(ctx) if fresh else workloads.in_process_cli
    tally = workloads.Tally()
    workloads.cli_round_trip(tally, ctx, run_cli, "gabor", str(tmp_path / "missing.csv"))
    assert tally.attempted == 2 and tally.failed == 2, tally.failures
    assert all("exit code 2" in f for f in tally.failures)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(SPEC["workloads"][0]["name"], trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
