"""The verify suites against known mutations and the ``--psi`` status check.

A mutation wraps ``verify.duflo_moore`` so that one Duflo-Moore symbol is
off by a small factor or exponent (or ``configs.make_exotic_quotient`` so
that the quotient's Haar density is off by a factor), runs only the suite
that uses it, and names the checks that catch it and the ones that do not.
"""

import dataclasses
import json
from pathlib import Path

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


def test_exotic_suite_grids_are_not_clipped(caplog):
    """No grid of the exotic suite reaches outside the rep's safe box: the
    orthogonality grid's q box (±7.2) sits near the safe edge (±8), and a
    clipped grid moves those defects to about 3e-2."""
    with caplog.at_level("WARNING", logger="groupwave"):
        verify.exotic_suite(0)
    assert [r.getMessage() for r in caplog.records if "clipped" in r.getMessage()] == []


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
