"""The two benchmark workloads and the run loop that measures them.

Every run measures every end-to-end metric; the two workloads differ in the
process model the operations run under:

* ``long_lived``: long-lived worker processes, one after another, each for
  an equal share of the run.  Each pays its set-up once (import, the bundled
  configurations, the reduced grids of the per-node paths, Duflo-Moore
  operators, seeded inputs) and then runs passes of every operation
  in-process: ``verify --group all`` (once, in the first workers) and the
  CLI commands through ``groupwave.cli.main``, analyze/synthesize round
  trips on the bundled grids, exotic synthesis and a Gabor n = 2 round trip
  on reduced grids.  The same psi and grids repeat, caches stay warm.
* ``fresh_process``: rounds of new processes.  The CLI commands are started
  as users start them, then fresh workers run each library operation once;
  ``groupwave verify`` processes start at evenly spaced times.  Import,
  set-up and the affine Duflo-Moore calibration are paid every time and
  nothing is reused across processes, so set-up moved into a cache shows
  here.

Every metric is sampled all through the run, from several processes: the
shared machine's speed drifts by up to 1.7x over periods of 10-20 s.  An
operation's time is the mean over the run's samples (total time over
operations), which moves in proportion to the time the run spent at each
speed; a median jumps from one speed to the other and repeats worse.

Both are closed loops with one client: run.py starts one process at a
time and the next operation starts when the previous one has been checked.
Every operation is checked; a check returns margins (defect / threshold,
passing when <= 1) or raises, and a failed operation is counted, never
dropped.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))

# suite thresholds of the bundled grids (round trips, orthogonality relation)
THRESHOLD = {"gabor": 1e-2, "affine": 5e-2, "exotic": 5e-2}
# the adjoint identity <phi, S(A phi)> ||D psi||^2 = sum w |c|^2 holds to
# rounding on any grid, so it also checks the reduced-grid per-node paths
ADJOINT_TOL = 1e-9
POOL = 8  # seeded input states per configuration
CHILD_TIMEOUT_S = 150.0

# reduced grids for the per-node paths: the default exotic grid (2.9 M nodes)
# would take about 3,000 s to synthesize node by node, so it is not run.  At
# 256 nodes each an operation costs 0.2-0.3 s, so a run gets many samples
EXOTIC_REDUCED_RESOLUTION = (4, 4, 4, 4)
WH2_GRID = dict(n=2, state_halfwidth=6.0, state_points=48, x_halfwidth=4.0, x_resolution=4)

# the library operations; a long-lived pass weights them so every metric gets
# several samples, a fresh process runs each once
LIBRARY_PARTS = ("gabor", "affine", "exotic", "exotic_reduced", "wh2")
LONG_LIVED_REPS = {"gabor": 4, "affine": 2, "exotic": 1, "exotic_reduced": 2, "wh2": 2}
# in-process CLI round trips per group and pass: the Gabor one costs 70 ms
LONG_LIVED_CLI_REPS = {"gabor": 4, "affine": 2}
# a fresh round starts three library workers, each running its operations
# once; only the first builds the exotic configuration (0.4 s, 350 MB) and
# runs its 1 s analysis, so the cheap operations get more samples
FRESH_WORKERS = (dict.fromkeys(LIBRARY_PARTS, 1),) + 2 * (
    dict.fromkeys([p for p in LIBRARY_PARTS if p != "exotic"], 1),)
CLI_GROUPS = ("gabor", "affine")
# long-lived workers per run; each gets an equal share of the run's time
LONG_LIVED_WORKERS = 4
# verify samples per run (one costs about 8 s): in the first workers of
# long_lived, at evenly spaced times of fresh_process
VERIFY_RUNS = {"long_lived": 3, "fresh_process": 2}
# fresh rounds per run, at least
MIN_FRESH_ROUNDS = 2

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio", "verify_s": "s",
    "analyze_gabor_s": "s", "analyze_affine_s": "s", "analyze_exotic_s": "s",
    "synthesize_gabor_s": "s", "synthesize_affine_s": "s", "synthesize_exotic_s": "s",
    "roundtrip_wh2_s": "s",
    "cli_analyze_gabor_s": "s", "cli_synthesize_gabor_s": "s",
    "cli_analyze_affine_s": "s", "cli_synthesize_affine_s": "s",
}


class CheckFailed(Exception):
    """An operation's output failed a check that has no numeric margin."""


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------


class Tally:
    """Operations attempted and failed, timing samples and margins."""

    def __init__(self):
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.worst_by_metric: dict = {}
        self.failures: list = []
        self.verify_digests: list = []

    def attempt(self, metric, op):
        """Run one checked operation; ``op()`` returns (seconds, margins)."""
        self.attempted += 1
        try:
            seconds, margins = op()
        except Exception as exc:  # one operation's failure must not end the run
            self.fail(f"{metric}: {exc!r}")
            traceback.print_exc(file=sys.stderr)
            return
        self.samples[metric].append(seconds)
        worst = max(margins, default=0.0)
        self.worst_by_metric[metric] = max(self.worst_by_metric.get(metric, 0.0), worst)
        if not worst <= 1.0:
            self.fail(f"{metric}: margin {worst:.6g} > 1")

    def fail(self, message):
        self.failed += 1
        self.failures.append(message)

    @property
    def worst_margin(self) -> float:
        return max(self.worst_by_metric.values(), default=0.0)

    def as_dict(self) -> dict:
        return {"samples": dict(self.samples), "attempted": self.attempted,
                "failed": self.failed, "worst_by_metric": self.worst_by_metric,
                "failures": self.failures, "verify_digests": self.verify_digests}

    def merge(self, other: dict) -> None:
        for metric, values in other["samples"].items():
            self.samples[metric].extend(values)
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        for metric, worst in other["worst_by_metric"].items():
            self.worst_by_metric[metric] = max(self.worst_by_metric.get(metric, 0.0), worst)
        self.failures.extend(other["failures"])
        self.verify_digests.extend(other["verify_digests"])

    def check_verify_reports_identical(self) -> None:
        """Every verify report of a run uses one seed and must be
        byte-identical to the first; each one that is not fails."""
        for digest in self.verify_digests[1:]:
            if digest != self.verify_digests[0]:
                self.fail("verify_s: report differs from the first report")


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def _relerr(value, reference) -> float:
    return abs(value - reference) / abs(reference)


def _rng(seed, stream):
    return np.random.default_rng([seed, stream])


def verify_seed(seed) -> int:
    return int(_rng(seed, 0).integers(0, 2 ** 31 - 1))


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


class Context:
    """Where a run reads and writes and how it starts child processes."""

    def __init__(self, root, work):
        self.root = root
        self.work = work
        self.child_rss_mb: list = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p)

    def path(self, name) -> str:
        return os.path.join(self.work, name)

    def run_child(self, argv, log_name):
        """Run one child to completion; returns (seconds, exit code)."""
        with open(self.path(log_name), "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.root)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_mb.append(usage.ru_maxrss / 1024.0)
        return seconds, proc.returncode

    def expect_exit_zero(self, code, log_name):
        if code != 0:
            tail = ""
            if os.path.exists(self.path(log_name)):  # in-process commands keep no log
                with open(self.path(log_name), errors="replace") as fh:
                    tail = fh.read()[-400:]
            raise CheckFailed(f"exit code {code}: {tail}")

    def worker(self, spec, name):
        """Run one worker process (``child.py worker``) and return its output."""
        spec = dict(spec, out=self.path(name + ".json"), t0=time.time())
        seconds, code = self.run_child(
            [sys.executable, os.path.join(HERE, "child.py"), "worker", json.dumps(spec)],
            name + ".log")
        self.expect_exit_zero(code, name + ".log")
        with open(spec["out"]) as fh:
            return json.load(fh)


def in_process_cli(args, log_name):
    """Run a CLI command through ``groupwave.cli.main`` in this process."""
    from groupwave import cli

    return _timed(cli.main, args)


class FreshProcessCli:
    """Runs CLI commands as fresh ``python -m groupwave.cli`` processes, or,
    when ``spans`` is a list, under the tracer (``child.py cli``) collecting
    each process's spans and start-up time into it."""

    def __init__(self, ctx, spans=None):
        self.ctx = ctx
        self.spans = spans

    def __call__(self, args, log_name):
        if self.spans is None:
            return self.ctx.run_child([sys.executable, "-m", "groupwave.cli", *args], log_name)
        out = self.ctx.path(log_name + ".spans.json")
        argv = [sys.executable, os.path.join(HERE, "child.py"), "cli", out,
                repr(time.time()), "--", *args]
        seconds, code = self.ctx.run_child(argv, log_name)
        with open(out) as fh:
            self.spans.append(json.load(fh))
        return seconds, code


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def verify_op(tally, ctx, run_cli, seed):
    """``groupwave verify --group all``: exit 0, every check passed."""
    out = ctx.path("verify-report.json")

    def op():
        seconds, code = run_cli(
            ["verify", "--group", "all", "--seed", str(verify_seed(seed)), "--output", out],
            "verify.log")
        ctx.expect_exit_zero(code, "verify.log")
        with open(out, "rb") as fh:
            raw = fh.read()
        tally.verify_digests.append(hashlib.sha256(raw).hexdigest())
        report = json.loads(raw)
        checks = [c for group in report["groups"].values() for c in group]
        n_failed = sum(not c["passed"] for c in checks)
        if n_failed or not report["all_passed"]:
            raise CheckFailed(f"{n_failed} verify checks failed")
        return seconds, [c["defect"] / c["threshold"] for c in checks if c["threshold"] > 0]

    tally.attempt("verify_s", op)


def write_signals(seed, ctx):
    """Seeded signal CSVs for the CLI round trips: {group: [paths]}."""
    from groupwave import configs, states

    import inputs

    grids = {"gabor": configs.gabor_setup().state_grid,
             "affine": configs.affine_setup().state_grid}
    make = {"gabor": inputs.gabor_signals, "affine": inputs.affine_signals}
    signals = {}
    for stream, group in enumerate(CLI_GROUPS, start=6):
        paths = []
        for k, phi in enumerate(make[group](_rng(seed, stream), grids[group], POOL)):
            paths.append(ctx.path(f"signal-{group}-{k}.csv"))
            states.save_state_csv(paths[-1], phi)
        signals[group] = paths
    return signals


def cli_round_trip(tally, ctx, run_cli, group, signal):
    """``analyze`` then ``synthesize --reference`` on one signal CSV."""
    prefix = ctx.path(f"coef-{group}")
    rebuilt = ctx.path(f"rebuilt-{group}.csv")

    def analyze():
        log = f"cli-analyze-{group}.log"
        seconds, code = run_cli(
            ["analyze", "--group", group, "--input", signal, "--output", prefix], log)
        ctx.expect_exit_zero(code, log)
        with open(prefix + ".report.json") as fh:
            rep = json.load(fh)
        rhs = rep["signal_norm_sq"] * rep["dm_norm"] ** 2
        return seconds, [_relerr(rep["energy"], rhs) / THRESHOLD[group]]

    def synthesize():
        log = f"cli-synthesize-{group}.log"
        seconds, code = run_cli(
            ["synthesize", "--group", group, "--coefficients", prefix, "--output", rebuilt,
             "--reference", signal], log)
        ctx.expect_exit_zero(code, log)
        with open(rebuilt + ".report.json") as fh:
            rep = json.load(fh)
        return seconds, [rep["round_trip_relative_error"] / THRESHOLD[group]]

    tally.attempt(f"cli_analyze_{group}_s", analyze)
    tally.attempt(f"cli_synthesize_{group}_s", synthesize)


class Case:
    """One configuration's representation, fixed psi, grid and input pool."""

    def __init__(self, rep, psi, grid, dm, phis, threshold, start):
        self.rep, self.psi, self.grid = rep, psi, grid
        self.dm_norm = dm.norm_of(psi)
        self.phis = phis
        self.threshold = threshold
        self._next = start

    def next_phi(self):
        phi = self.phis[self._next % len(self.phis)]
        self._next += 1
        return phi


def energy_margin(phi, result, threshold) -> float:
    """Orthogonality relation with psi1 = psi2, phi1 = phi2:
    sum w |c|^2 = ||phi||^2 ||D psi||^2."""
    from groupwave import states

    return _relerr(result.energy(), states.norm(phi) ** 2 * result.dm_norm ** 2) / threshold


def adjoint_margin(phi, result, back) -> float:
    from groupwave import states

    return _relerr(states.inner(phi, back) * result.dm_norm ** 2, result.energy()) / ADJOINT_TOL


def round_trip_margin(phi, back, threshold) -> float:
    from groupwave import states

    diff = states.DiscretizedState(back.samples - phi.samples, phi.grid)
    return states.norm(diff) / states.norm(phi) / threshold


class Library:
    """What a worker builds for the library operations it runs: the bundled
    configurations, the reduced grids of the per-node paths, the
    Duflo-Moore operators and seeded inputs (psi is fixed per configuration,
    phi drawn from the seed)."""

    def __init__(self, seed, parts, start=0):
        from groupwave import configs, states, transforms

        import inputs

        self.cases = {}
        if "gabor" in parts:
            gab = configs.gabor_setup()
            self.cases["gabor"] = Case(
                gab.proj, gab.states["gauss"], gab.x_grid, transforms.duflo_moore("gabor"),
                inputs.gabor_signals(_rng(seed, 1), gab.state_grid, POOL),
                THRESHOLD["gabor"], start)
        if "affine" in parts:
            aff = configs.affine_setup()
            self.cases["affine"] = Case(
                aff.rep, aff.states["morlet"], aff.x_grid, transforms.duflo_moore("affine"),
                inputs.affine_signals(_rng(seed, 2), aff.state_grid, POOL),
                THRESHOLD["affine"], start)
        if "exotic" in parts:
            exo = configs.exotic_setup()
            self.cases["exotic"] = Case(
                exo.proj, exo.states["psi"], exo.x_grid, transforms.duflo_moore("exotic"),
                inputs.exotic_states(_rng(seed, 3), exo.state_grid, POOL),
                THRESHOLD["exotic"], start)
        if "exotic_reduced" in parts:
            red = configs.exotic_setup(x_resolution=EXOTIC_REDUCED_RESOLUTION)
            self.cases["exotic_reduced"] = Case(
                red.proj, red.states["psi"], red.x_grid, transforms.duflo_moore("exotic"),
                inputs.exotic_states(_rng(seed, 4), red.state_grid, POOL), None, start)
        if "wh2" in parts:
            wh2 = configs.gabor_setup(**WH2_GRID)
            self.cases["wh2"] = Case(
                wh2.proj, states.gaussian_state(wh2.state_grid), wh2.x_grid,
                transforms.duflo_moore("gabor"),
                inputs.displaced_gaussians(_rng(seed, 5), wh2.state_grid, POOL), None, start)
        self.nodes = {k: c.grid.n_nodes for k, c in self.cases.items()}

    def run(self, tally, part):
        """One checked operation of ``part``."""
        from groupwave import transforms

        case = self.cases[part]
        phi = case.next_phi()
        done = {}

        def analyze():
            seconds, res = _timed(transforms.analyze, case.rep, case.psi, phi, case.grid,
                                  dm_norm=case.dm_norm)
            done["result"] = res
            return seconds, [energy_margin(phi, res, case.threshold)]

        def synthesize():
            res = done["result"]
            seconds, back = _timed(transforms.synthesize, res, case.rep, case.psi)
            return seconds, [round_trip_margin(phi, back, case.threshold),
                             adjoint_margin(phi, res, back)]

        def synthesize_per_node():
            res = transforms.analyze(case.rep, case.psi, phi, case.grid, dm_norm=case.dm_norm)
            seconds, back = _timed(transforms.synthesize, res, case.rep, case.psi)
            return seconds, [adjoint_margin(phi, res, back)]

        def round_trip_per_node():
            t0 = time.perf_counter()
            res = transforms.analyze(case.rep, case.psi, phi, case.grid, dm_norm=case.dm_norm)
            back = transforms.synthesize(res, case.rep, case.psi)
            seconds = time.perf_counter() - t0
            return seconds, [adjoint_margin(phi, res, back)]

        if part in ("gabor", "affine"):
            tally.attempt(f"analyze_{part}_s", analyze)
            tally.attempt(f"synthesize_{part}_s", synthesize)
        elif part == "exotic":
            tally.attempt("analyze_exotic_s", analyze)
        elif part == "exotic_reduced":
            tally.attempt("synthesize_exotic_s", synthesize_per_node)
        else:
            tally.attempt("roundtrip_wh2_s", round_trip_per_node)


# ---------------------------------------------------------------------------
# Worker processes (entered through child.py)
# ---------------------------------------------------------------------------


def worker_main(spec) -> dict:
    """Body of a worker: set-up of the library parts, then ``verify`` once
    when ``spec["verify"]``, then passes until the wall-clock
    ``spec["deadline"]`` (at least one).  A pass runs ``spec["cli_reps"][group]``
    in-process CLI round trips per group and ``spec["reps"][part]``
    operations of every part.  With ``trace``: one untraced and one traced
    pass, verify in each.  Returns what run.py merges."""
    import groupwave.cli  # noqa: F401  (everything a CLI process imports)

    startup_s = time.time() - spec["t0"]
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.active = True
    ctx = Context(spec["root"], spec["work"])
    lib = Library(spec["seed"], list(spec["reps"]), spec["index"])
    setup_s = time.time() - spec["t0"]  # interpreter start, import and set-up
    if tracer is not None:
        tracer.active = False

    tally = Tally()

    def one_pass(k, verify):
        if verify:
            verify_op(tally, ctx, in_process_cli, spec["seed"])
        for group, paths in spec["signals"].items():
            for r in range(spec["cli_reps"].get(group, 0)):
                cli_round_trip(tally, ctx, in_process_cli, group,
                               paths[(spec["index"] + k + r) % POOL])
        for part, reps in spec["reps"].items():
            for _ in range(reps):
                lib.run(tally, part)

    out = {"startup_s": startup_s, "setup_s": setup_s, "nodes": lib.nodes}
    if tracer is None:
        one_pass(0, spec["verify"])
        k, pass_s = 1, 0.0
        # a pass starts while it would end, on average, before the deadline
        while time.time() + pass_s / 2 < spec["deadline"]:
            pass_s, _ = _timed(one_pass, k, False)
            k += 1
        out["passes"] = k
    else:
        plain, _ = _timed(one_pass, 0, spec["verify"])
        tracer.active = True
        traced, _ = _timed(one_pass, 1, spec["verify"])
        tracer.active = False
        out.update(spans=tracer.spans, plain_s=plain, traced_s=traced)
    out.update(tally=tally.as_dict())
    return out


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else float("nan")


def _mean(values):
    return statistics.fmean(values) if values else float("nan")


def _worker(tally, ctx, seed, index, reps, verify, cli_reps, signals, name, trace=False,
            deadline=0.0):
    """Run a worker and merge its tally; a worker that fails counts as one
    failed operation.  Returns its output or None."""
    spec = dict(root=ctx.root, work=ctx.work, seed=seed, index=index, reps=reps,
                verify=verify, cli_reps=cli_reps, signals=signals, trace=trace,
                deadline=deadline)
    try:
        out = ctx.worker(spec, name)
    except Exception as exc:
        tally.attempted += 1
        tally.fail(f"{name}: {exc!r}")
        return None
    tally.merge(out["tally"])
    return out


def _long_lived_worker(tally, ctx, seed, index, signals, trace=False, deadline=0.0):
    return _worker(tally, ctx, seed, index, LONG_LIVED_REPS,
                   index < VERIFY_RUNS["long_lived"],
                   LONG_LIVED_CLI_REPS, signals, f"worker-{index}", trace, deadline)


def _fresh_round(tally, ctx, seed, index, signals, run_cli, trace=False):
    """The CLI round trips as fresh processes, then the FRESH_WORKERS, each
    running its library operations once.  Returns the workers' outputs
    (None for a worker that failed)."""
    for group, paths in signals.items():
        cli_round_trip(tally, ctx, run_cli, group, paths[index % POOL])
    n = len(FRESH_WORKERS)
    return [_worker(tally, ctx, seed, index * n + k, reps, False, {}, signals,
                    f"worker-{index}-{k}", trace)
            for k, reps in enumerate(FRESH_WORKERS)]


def _run_long_lived(tally, ctx, seed, seconds, signals):
    """LONG_LIVED_WORKERS workers one after another, each running passes
    until the end of its equal share of the run."""
    t0 = time.time()
    outputs = []
    for index in range(LONG_LIVED_WORKERS):
        deadline = t0 + seconds * (index + 1) / LONG_LIVED_WORKERS
        outputs.append(_long_lived_worker(tally, ctx, seed, index, signals, deadline=deadline))
    return outputs


def _run_fresh(tally, ctx, seed, seconds, signals):
    """Fresh rounds while one would end, on average, before the run's time
    is up, at least MIN_FRESH_ROUNDS; verify processes start at evenly
    spaced times of the run."""
    run_cli = FreshProcessCli(ctx)
    t0 = time.perf_counter()
    outputs, rounds, verified, round_s = [], 0, 0, 0.0
    n_verify = VERIFY_RUNS["fresh_process"]
    while (rounds < MIN_FRESH_ROUNDS or verified < n_verify
           or time.perf_counter() - t0 + round_s / 2 < seconds):
        if verified < n_verify and time.perf_counter() - t0 >= seconds * verified / n_verify:
            verify_op(tally, ctx, run_cli, seed)
            verified += 1
        round_s, outs = _timed(_fresh_round, tally, ctx, seed, rounds, signals, run_cli)
        outputs.extend(outs)
        rounds += 1
    return outputs


def run_untraced(workload, seed, seconds, ctx):
    tally = Tally()
    signals = write_signals(seed, ctx)
    run = _run_long_lived if workload == "long_lived" else _run_fresh
    outputs = [o for o in run(tally, ctx, seed, seconds, signals) if o is not None]
    tally.check_verify_reports_identical()

    # set-up times of the workers that build every configuration
    setups = [o["setup_s"] for o in outputs if set(o["nodes"]) == set(LIBRARY_PARTS)]
    values = {m: _mean(tally.samples.get(m, [])) for m in END_TO_END if m.endswith("_s")}
    values["setup_s"] = _median(setups)
    values["peak_rss_mb"] = max(ctx.child_rss_mb)
    values["ok_ratio"] = 1.0 - tally.failed / tally.attempted
    metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END.items()}
    details = {
        "workers": len(outputs),
        "samples": {m: len(v) for m, v in sorted(tally.samples.items())},
        "median_s": {m: _median(v) for m, v in sorted(tally.samples.items())},
        "samples_s": dict(sorted(tally.samples.items())),
        "p90": {m: statistics.quantiles(v, n=10)[-1]
                for m, v in sorted(tally.samples.items()) if len(v) >= 100},
        "setup_samples_s": setups,
        "grid_nodes": outputs[0]["nodes"] if outputs else {},
        "worst_margin": tally.worst_margin,
        "worst_margin_by_metric": dict(sorted(tally.worst_by_metric.items())),
    }
    return tally, metrics, details


def run_traced(workload, seed, seconds, ctx):
    """One untraced and one traced pass (long_lived: inside one worker whose
    set-up is traced too; fresh_process: one round each, children traced).
    The per-module numbers come from the traced pass, so counts repeat
    exactly; the overhead ratio is traced / untraced pass time."""
    import tracing

    tally = Tally()
    signals = write_signals(seed, ctx)
    extra = {}
    if workload == "long_lived":
        out = _long_lived_worker(tally, ctx, seed, 0, signals, trace=True)
        if out is None:
            raise RuntimeError(tally.failures[-1])
        span_lists = [out["spans"]]
        extra["cli.startup_s"] = out["startup_s"]
        overhead = out["traced_s"] / out["plain_s"]
    else:
        def verify_and_round(run_cli, trace):
            verify_op(tally, ctx, run_cli, seed)
            return _fresh_round(tally, ctx, seed, 0, signals, run_cli, trace)

        plain, _ = _timed(verify_and_round, FreshProcessCli(ctx), False)
        children = []
        traced, outs = _timed(verify_and_round, FreshProcessCli(ctx, children), True)
        if None in outs:
            raise RuntimeError(tally.failures[-1])
        span_lists = [c["spans"] for c in children] + [o["spans"] for o in outs]
        extra["cli.startup_s"] = _median([c["startup_s"] for c in children])
        overhead = traced / plain
    tally.check_verify_reports_identical()
    with open(ctx.path("verify-report.json")) as fh:
        checks = [c for g in json.load(fh)["groups"].values() for c in g]
    extra["verify.checks"] = len(checks)
    extra["verify.checks_failed"] = sum(not c["passed"] for c in checks)
    extra["trace.overhead_ratio"] = overhead

    metrics = tracing.per_module_metrics(tracing.summarize(span_lists), extra)
    metrics["checks.worst_margin"] = tally.worst_margin
    with open(ctx.path("spans.json"), "w") as fh:
        json.dump(span_lists, fh)
    details = {"overhead_ratio": overhead,
               "worst_margin_by_metric": dict(sorted(tally.worst_by_metric.items()))}
    return tally, metrics, details
