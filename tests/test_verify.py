"""The verify suites against known mutations and the ``--psi`` status check.

A mutation wraps ``verify.duflo_moore`` so that one Duflo-Moore symbol is
off by a small factor or exponent (or ``configs.make_exotic_quotient`` so
that the quotient's Haar density is off by a factor), runs only the suite
that uses it, and names the checks that catch it and the ones that do not.
"""

import dataclasses
import functools
import json
import multiprocessing
import os
from pathlib import Path
import threading
import time

import pytest

from groupwave import configs, verify
from groupwave.cli import main

DATA = Path(__file__).parent / "data"


def _mutate_dm(monkeypatch, config, change):
    """``verify.duflo_moore(config)`` with its symbol s replaced by change(s)."""
    original = verify.duflo_moore

    def mutated(name):
        dm = original(name)
        if name != config:
            return dm
        return dataclasses.replace(dm, symbol=lambda x, h: change(dm.symbol(x, h)))

    monkeypatch.setattr(verify, "duflo_moore", mutated)


def _defects(checks) -> dict:
    return {c.name: c for c in checks}


def test_gabor_symbol_scale_fails_orthogonality_only(monkeypatch):
    """Gabor symbol x 1.01 moves the orthogonality relation to about 2e-2
    (threshold 1e-3); no other Gabor check reads the symbol."""
    _mutate_dm(monkeypatch, "gabor", lambda s: 1.01 * s)
    checks = verify.gabor_suite(0)
    assert [c.name for c in checks if not c.passed] == ["gabor: orthogonality relation"]
    assert _defects(checks)["gabor: orthogonality relation"].defect > 1e-2


@pytest.mark.parametrize("change, failing", [
    (lambda s: 1.01 * s, ["exotic DM: symbol at bcheck=4"]),
    # s ** 0.98 turns bcheck^{-1/2} into bcheck^{-0.49}
    (lambda s: s ** 0.98, ["exotic DM: symbol at bcheck=4", "exotic DM: unbounded symbol growth"]),
], ids=["scale_1.01", "exponent_-0.49"])
def test_exotic_symbol_mutations_caught_by_closed_form_checks_only(change, failing, monkeypatch):
    """Both mutations fail only the closed-form symbol checks.  The two
    orthogonality checks move from about 6e-7 to 1.1e-2..2.0e-2 and still
    pass their 5e-2 threshold, so the closed-form checks are the only guard
    of the exotic Duflo-Moore constant."""
    _mutate_dm(monkeypatch, "exotic", change)
    checks = verify.exotic_suite(0)
    assert [c.name for c in checks if not c.passed] == failing
    by_name = _defects(checks)
    for name in ("exotic: orthogonality relation", "exotic: orthogonality (cross pair)"):
        assert by_name[name].passed and 1e-3 < by_name[name].defect < 5e-2, by_name[name]


def test_exotic_quotient_density_mutation_moves_orthogonality_only(monkeypatch):
    """The exotic quotient's Haar density x 1.02 moves both orthogonality
    relations on the suite's coarse grid from about 6e-7 to 2.0e-2 and
    1.7e-2, as on the bundled grid, so the coarser grid keeps its
    sensitivity.  Both still pass their 5e-2 threshold and no other check
    fails: a 2 % error in the quotient measure leaves the suite passing."""
    make_quotient = configs.make_exotic_quotient

    def mutated(n):
        X = make_quotient(n)
        return dataclasses.replace(X, haar_density=lambda x: 1.02 * X.haar_density(x))

    monkeypatch.setattr(configs, "make_exotic_quotient", mutated)
    checks = verify.exotic_suite(0)
    assert [c.name for c in checks if not c.passed] == []
    by_name = _defects(checks)
    for name in ("exotic: orthogonality relation", "exotic: orthogonality (cross pair)"):
        assert 1e-2 < by_name[name].defect < 5e-2, by_name[name]


@pytest.mark.parametrize("psi", ["morlet", "gaussian"])
def test_verify_psi_report_as_stored(psi, tmp_path):
    """``verify --group affine --psi`` writes the stored report byte for byte
    (tests/data/verify_affine_psi_*.json, written by ``verify --group affine
    --psi PSI --output FILE``); the status check is the last affine check."""
    out = tmp_path / "r.json"
    assert main(["verify", "--group", "affine", "--psi", psi, "--output", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"verify_affine_psi_{psi}.json").read_bytes()
    status = "admissible" if psi == "morlet" else "divergent"
    last = json.loads(out.read_text())["groups"]["affine"][-1]
    assert last["name"] == f"requested psi ({psi}): admissibility status = {status}"


def test_verify_psi_reads_the_suites_admissibility(monkeypatch, tmp_path):
    """The requested psi's status comes from the affine suite's own two
    admissibility reports: one affine configuration and two admissibility
    runs per ``verify --group affine --psi morlet``."""
    calls = {"affine_setup": 0, "admissibility": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(configs, "affine_setup", counted("affine_setup", configs.affine_setup))
    monkeypatch.setattr(verify, "admissibility", counted("admissibility", verify.admissibility))
    assert main(["verify", "--group", "affine", "--psi", "morlet",
                 "--output", str(tmp_path / "r.json")]) == 0
    assert calls == {"affine_setup": 1, "admissibility": 2}


# ---------------------------------------------------------------------------
# run_suites: the first suite in this process, the others in a forked child
# ---------------------------------------------------------------------------


def _fake_suite(name, action=None):
    """A suite of one check that first calls ``action``, if any."""
    def suite(seed, psi_kind=None):
        if action is not None:
            action()
        return [verify.Check(f"{name}: fake", float(seed), 1.0)]
    return suite


@pytest.fixture
def forks(monkeypatch):
    """Every suite replaced by a cheap fake, two usable CPUs, and the list
    of pids that ``os.fork`` returns to this process."""
    for name in verify.SUITE_NAMES:
        monkeypatch.setitem(verify.SUITE_NAMES, name, _fake_suite(name))
    monkeypatch.setattr(verify, "usable_cpus", lambda: 2)
    fork, pids = os.fork, []

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


def _assert_no_children():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


ALL = list(verify.SUITE_NAMES)


@pytest.mark.parametrize("cpus, children", [(1, 0), (2, 1), (3, 1), (8, 1)])
def test_run_suites_forks_one_child_for_the_other_suites(cpus, children, forks, monkeypatch):
    """The first suite runs here and the rest in one child whenever more
    than one CPU is usable; the report equals the serial one."""
    monkeypatch.setattr(verify, "usable_cpus", lambda: cpus)
    report = verify.run_suites(ALL, seed=3)
    assert len(forks) == children
    _assert_no_children()
    assert list(report["groups"]) == ALL
    assert report == {"seed": 3, "all_passed": False, "n_checks": 3, "groups": {
        name: [{"name": f"{name}: fake", "defect": 3.0, "threshold": 1.0, "passed": False}]
        for name in ALL}}


def test_run_suites_forks_nothing_for_one_suite_or_with_another_thread(forks, monkeypatch,
                                                                      caplog):
    """One suite, another live thread (a forked child would inherit its
    locks but not the thread) or a platform without ``fork`` runs every
    suite in this process.  The thread and the platform are logged as the
    reason at INFO; one suite or one CPU, where a child gains nothing, logs
    nothing."""
    with caplog.at_level("INFO", logger="groupwave"):
        assert verify.run_suites(["exotic"])["n_checks"] == 1
        with monkeypatch.context() as m:
            m.setattr(verify, "usable_cpus", lambda: 1)
            assert verify.run_suites(ALL)["n_checks"] == 3
        assert caplog.records == []
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert verify.run_suites(ALL)["n_checks"] == 3
        finally:
            stop.set()
            thread.join(timeout=10)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert verify.run_suites(ALL)["n_checks"] == 3
    assert not thread.is_alive()
    assert forks == []
    _assert_no_children()
    assert [r.levelname for r in caplog.records] == ["INFO", "INFO"]
    assert "another thread is alive" in caplog.records[0].getMessage()
    assert "cannot fork" in caplog.records[1].getMessage()


def test_run_suites_forks_nothing_when_a_suite_is_instrumented(forks, monkeypatch, caplog):
    """A suite wrapped by a tracer or profiler (``functools.wraps`` sets
    ``__wrapped__``) runs in this process, where the wrapper's records stay,
    and the reason is logged at INFO."""
    seen = []
    inner = verify.SUITE_NAMES["exotic"]

    @functools.wraps(inner)
    def traced(*args, **kwargs):
        seen.append(os.getpid())
        return inner(*args, **kwargs)

    monkeypatch.setitem(verify.SUITE_NAMES, "exotic", traced)
    with caplog.at_level("INFO", logger="groupwave"):
        assert verify.run_suites(ALL)["n_checks"] == 3
    assert forks == [] and seen == [os.getpid()]
    _assert_no_children()
    [record] = caplog.records
    assert record.levelname == "INFO" and "a suite is instrumented" in record.getMessage()


def test_run_suites_runs_serially_when_fork_fails(forks, monkeypatch, caplog):
    """A child that cannot be started is logged on the groupwave logger and
    its suites run in this process, with the same report."""
    expected = verify.run_suites(ALL)

    def failing_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", failing_fork)
    with caplog.at_level("WARNING", logger="groupwave"):
        assert verify.run_suites(ALL) == expected
    assert any("cannot start a suite child" in r.getMessage() for r in caplog.records)
    _assert_no_children()


@pytest.mark.parametrize("failing", ["wh", "exotic"], ids=["in_process", "in_child"])
def test_run_suites_raises_a_suites_error(failing, forks, monkeypatch):
    """A suite's exception reaches the caller, whether the suite ran here or
    in a child; a child's is chained to its traceback, which names the
    suite."""
    def boom():
        raise ValueError(f"boom in {failing}")

    monkeypatch.setitem(verify.SUITE_NAMES, failing, _fake_suite(failing, boom))
    with pytest.raises(ValueError, match=f"boom in {failing}") as info:
        verify.run_suites(ALL)
    if failing == "exotic":
        assert "in verify suite 'exotic'" in str(info.value.__cause__)
        assert "boom in exotic" in str(info.value.__cause__)
    _assert_no_children()


def test_run_suites_reports_a_child_that_cannot_send_its_result(forks, monkeypatch):
    """An exception that cannot be pickled, and a child that exits before it
    sends anything, each raise a RuntimeError that names the suite."""
    class Local(Exception):
        pass

    def unpicklable():
        raise Local("local classes do not pickle")

    monkeypatch.setitem(verify.SUITE_NAMES, "affine", _fake_suite("affine", unpicklable))
    with pytest.raises(RuntimeError, match="'affine' raised an exception that cannot be pickled"):
        verify.run_suites(ALL)
    _assert_no_children()
    monkeypatch.setitem(verify.SUITE_NAMES, "affine", _fake_suite("affine", lambda: os._exit(3)))
    with pytest.raises(RuntimeError, match="'affine': its child process exited with code 3"):
        verify.run_suites(ALL)
    _assert_no_children()


def test_run_suites_interrupted_kills_its_child(forks, monkeypatch):
    """An interrupt in this process's suite kills the child at once instead
    of waiting for its (here 60 s) suites, and leaves no process behind."""
    def interrupt():
        raise KeyboardInterrupt

    monkeypatch.setitem(verify.SUITE_NAMES, "wh", _fake_suite("wh", interrupt))
    monkeypatch.setitem(verify.SUITE_NAMES, "affine", _fake_suite("affine", lambda: time.sleep(60)))
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        verify.run_suites(ALL)
    assert time.monotonic() - t0 < 30
    assert len(forks) == 1
    _assert_no_children()
