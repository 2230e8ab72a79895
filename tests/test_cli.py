import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import groupwave
from groupwave.cli import main
from groupwave.states import gaussian_state, load_grid_json, load_state_csv, save_state_csv
from groupwave.transforms import load_result_csv, synthesize
from groupwave.configs import affine_setup, gabor_setup


def test_usage_error_exit_code(capsys):
    assert main([]) == 2
    assert main(["analyze", "--group", "gabor"]) == 2  # missing required flags


def test_conventions_stable(tmp_path):
    p1, p2 = tmp_path / "c1.txt", tmp_path / "c2.txt"
    assert main(["conventions", "--output", str(p1)]) == 0
    assert main(["conventions", "--output", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    for token in ("wh_polarized_n1", "affine_n1", "exotic_n1", "modular"):
        assert token in text


def test_conventions_match_stored_sheet(capsys):
    """``conventions --group all`` prints the stored sheet byte for byte:
    charts, products, inverses, Haar and modular lines of every group."""
    assert main(["conventions", "--group", "all"]) == 0
    stored = Path(__file__).parent / "data" / "conventions_all.txt"
    assert capsys.readouterr().out == stored.read_text()


def test_group_choices_are_the_verify_suites(capsys):
    """The CLI's group list is its conventions table's keys, in the verify
    suites' order, and every group has a conventions sheet: the sheets of
    the groups one by one make up the ``--group all`` sheet."""
    from groupwave import cli, verify

    assert cli.ALL_GROUPS == list(verify.SUITE_NAMES)
    sheets = []
    for group in cli.ALL_GROUPS:
        assert main(["conventions", "--group", group]) == 0
        sheets.append(capsys.readouterr().out)
        assert sheets[-1].startswith("=== conventions: "), group
    assert main(["conventions", "--group", "all"]) == 0
    assert capsys.readouterr().out == "\n".join(sheets)


@pytest.mark.parametrize("group", ["wh", "affine", "exotic"])
def test_verify_rejects_a_negative_seed(group, tmp_path, capsys):
    """A negative seed is a usage error of the parser, for every suite
    (affine and exotic seed ``seed + 1`` and ``seed + 2``, which numpy
    would accept), and no report is written."""
    out = tmp_path / "r.json"
    assert main(["verify", "--group", group, "--seed", "-1", "--output", str(out)]) == 2
    assert "argument --seed: expected a non-negative integer, not '-1'" in capsys.readouterr().err
    assert not out.exists()


def test_report_rejects_a_negative_seed(tmp_path, capsys):
    """``report --seed -1`` exits 2 before it makes the directory or
    writes a table."""
    outdir = tmp_path / "tables"
    assert main(["report", "--outdir", str(outdir), "--seed", "-1"]) == 2
    assert "argument --seed" in capsys.readouterr().err
    assert not outdir.exists()


def test_verify_single_group_and_determinism(tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", "--group", "affine", "--output", str(p1)]) == 0
    assert main(["verify", "--group", "affine", "--output", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    report = json.loads(p1.read_text())
    assert report["all_passed"] is True
    assert report["seed"] == 0
    assert {"name", "defect", "threshold", "passed"} <= set(
        report["groups"]["affine"][0]
    )
    # expected-negative case is reported as a passing check
    names = [c["name"] for c in report["groups"]["affine"]]
    assert any("gaussian flagged divergent" in n for n in names)


def test_verify_report_independent_of_blas_threads(tmp_path):
    """Separate processes with 1 and 2 BLAS threads write the same bytes.
    On two or more CPUs the exotic suite's multi-block engine calls run on
    threads under 1 BLAS thread and inline under 2."""
    src = str(Path(groupwave.__file__).resolve().parents[1])
    for group in ("wh", "exotic"):
        paths = []
        for threads in ("1", "2"):
            out = tmp_path / f"{group}-{threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run(
                [sys.executable, "-m", "groupwave.cli", "verify", "--group", group,
                 "--seed", "0", "--output", str(out)],
                env=env, capture_output=True, text=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes(), group


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_verify_all_report_independent_of_usable_cpus(tmp_path):
    """``verify --group all`` writes the same bytes in a process restricted
    to one CPU, where its suites run one after another, and in one that may
    use every CPU, where on two or more CPUs they run concurrently."""
    src = str(Path(groupwave.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = ("import os, sys\n"
           "if sys.argv[1] == 'one':\n"
           "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
           "from groupwave.cli import main\n"
           "sys.exit(main(sys.argv[2:]))\n")
    outs = []
    for cpus in ("one", "all"):
        out = tmp_path / f"{cpus}.json"
        proc = subprocess.run([sys.executable, "-c", run, cpus, "verify", "--group", "all",
                               "--seed", "0", "--output", str(out)],
                              env=env, capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_verify_exotic_peak_rss(tmp_path):
    """A ``verify --group exotic`` process, OpenBLAS pinned to 1 thread,
    peaks at about 103 MB resident: its orthogonality relations stream the
    engine's blocks on a 317 k-node grid.  On the bundled 2.9 M-node grid
    it peaked at about 119 MB, and at 230 MB holding the coefficient
    arrays.  The child reports the peak of its own address space
    (VmHWM, in kB).  Its ru_maxrss would not do: Linux keeps it across
    execve, so a child spawned by vfork also counts this test process."""
    src = str(Path(groupwave.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = ("import sys\n"
           "from groupwave.cli import main\n"
           "code = main(sys.argv[1:])\n"
           "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n"
           "sys.exit(code)\n")
    proc = subprocess.run([sys.executable, "-c", run, "verify", "--group", "exotic", "--seed", "0",
                           "--output", str(tmp_path / "r.json")],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    peak_kb = int(proc.stdout.split()[-1])
    assert peak_kb < 180 * 1024, peak_kb


def test_config_flag_removed_and_report_echoes_flags(tmp_path, capsys):
    assert main(["verify", "--group", "affine", "--config", "cfg.json"]) == 2
    out = tmp_path / "r.json"
    assert main(["verify", "--group", "affine", "--seed", "0", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["seed"] == 0
    assert "output" not in report["config"]


def test_verify_expected_negative_psi_still_passes(tmp_path):
    out = tmp_path / "r.json"
    assert (
        main(["verify", "--group", "affine", "--psi", "gaussian",
              "--output", str(out)])
        == 0
    )
    report = json.loads(out.read_text())
    last = report["groups"]["affine"][-1]
    assert "divergent" in last["name"]
    assert last["passed"] is True


def test_verify_psi_without_affine_suite_is_a_usage_error(tmp_path, capsys):
    """--psi is checked by the affine suite: with only another suite it
    would be echoed in the report and never checked."""
    out = tmp_path / "r.json"
    assert main(["verify", "--group", "wh", "--psi", "morlet", "--output", str(out)]) == 2
    assert "affine suite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "synthesize"])
def test_psi_file_without_psi_file_kind_is_a_usage_error(command, tmp_path, capsys):
    """--psi-file is read only with --psi file: without it the default psi
    would be used and the file silently ignored."""
    setup = gabor_setup()
    sig, psi_csv = tmp_path / "sig.csv", tmp_path / "psi.csv"
    save_state_csv(sig, setup.states["hermite2"])
    save_state_csv(psi_csv, setup.states["gauss"])
    prefix, out = str(tmp_path / "coef"), tmp_path / "out"
    if command == "analyze":
        argv = ["analyze", "--group", "gabor", "--input", str(sig), "--assume-grid",
                "--output", str(out)]
    else:
        assert main(["analyze", "--group", "gabor", "--input", str(sig), "--assume-grid",
                     "--output", prefix]) == 0
        argv = ["synthesize", "--group", "gabor", "--coefficients", prefix, "--output", str(out)]
    capsys.readouterr()
    for psi in ([], ["--psi", "gaussian"]):
        assert main(argv + psi + ["--psi-file", str(psi_csv)]) == 2
        assert "--psi-file" in capsys.readouterr().err
    assert not list(tmp_path.glob("out*"))


def test_verify_without_psi_adds_no_psi_check(tmp_path):
    out = tmp_path / "r.json"
    assert main(["verify", "--group", "affine", "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert not any("requested psi" in c["name"] for c in report["groups"]["affine"])


def test_analyze_synthesize_round_trip(tmp_path):
    setup = gabor_setup()
    sig = tmp_path / "sig.csv"
    save_state_csv(sig, setup.states["hermite2"])
    prefix = str(tmp_path / "coef")
    assert (
        main(
            ["analyze", "--group", "gabor", "--psi", "gaussian",
             "--input", str(sig), "--assume-grid", "--output", prefix]
        )
        == 0
    )
    header = json.loads((tmp_path / "coef.json").read_text())
    assert header["dm_norm"] == pytest.approx(1.0)
    out_sig = tmp_path / "resyn.csv"
    assert (
        main(
            ["synthesize", "--group", "gabor", "--psi", "gaussian",
             "--coefficients", prefix, "--output", str(out_sig),
             "--reference", str(sig)]
        )
        == 0
    )
    report = json.loads((tmp_path / "resyn.csv.report.json").read_text())
    assert report["round_trip_relative_error"] < 1e-2
    back = load_state_csv(out_sig, setup.state_grid)
    assert back.grid == setup.state_grid


def test_synthesize_rejects_coefficients_of_other_group(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    save_state_csv(sig, gabor_setup().states["hermite2"])
    prefix = str(tmp_path / "coef")
    assert main(["analyze", "--group", "gabor", "--input", str(sig),
                 "--assume-grid", "--output", prefix]) == 0
    header_path = tmp_path / "coef.json"
    header = json.loads(header_path.read_text())
    header["group"] = "affine_n1"
    header_path.write_text(json.dumps(header))
    assert main(["synthesize", "--group", "gabor", "--coefficients", prefix,
                 "--output", str(tmp_path / "back.csv")]) == 2
    assert "affine_n1" in capsys.readouterr().err


def test_synthesize_rejects_malformed_grid_header(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    save_state_csv(sig, gabor_setup().states["hermite2"])
    prefix = str(tmp_path / "coef")
    assert main(["analyze", "--group", "gabor", "--input", str(sig),
                 "--assume-grid", "--output", prefix]) == 0
    header_path = tmp_path / "coef.json"
    header = json.loads(header_path.read_text())
    header["box"][0] = [None, 8.0]
    header_path.write_text(json.dumps(header))
    assert main(["synthesize", "--group", "gabor", "--coefficients", prefix,
                 "--output", str(tmp_path / "back.csv")]) == 2
    err = capsys.readouterr().err
    assert "coefficient file is for grid" in err and "[None, 8.0]" in err, err
    assert not (tmp_path / "back.csv").exists()


def test_synthesize_rejects_header_box_beyond_safe_box(tmp_path, capsys):
    """An affine header whose b box was edited to [-40, 40] (safe box
    +-16) was once synthesized with exit 0 and a round-trip error of 1.04."""
    sig = tmp_path / "sig.csv"
    save_state_csv(sig, affine_setup().states["signal"])
    prefix = str(tmp_path / "coef")
    assert main(["analyze", "--group", "affine", "--input", str(sig), "--output", prefix]) == 0
    header_path = tmp_path / "coef.json"
    header = json.loads(header_path.read_text())
    header["box"][0] = [-40.0, 40.0]
    header_path.write_text(json.dumps(header))
    back = tmp_path / "back.csv"
    assert main(["synthesize", "--group", "affine", "--coefficients", prefix,
                 "--output", str(back), "--reference", str(sig)]) == 2
    err = capsys.readouterr().err
    assert "coefficient file is for grid" in err and "[-40.0, 40.0]" in err, err
    assert not back.exists()


def test_analyze_zero_signal(tmp_path):
    setup = gabor_setup()
    zero = setup.states["gauss"].with_samples(
        np.zeros_like(setup.states["gauss"].samples)
    )
    sig = tmp_path / "zero.csv"
    save_state_csv(sig, zero)
    prefix = str(tmp_path / "zcoef")
    assert (
        main(
            ["analyze", "--group", "gabor", "--input", str(sig),
             "--assume-grid", "--output", prefix]
        )
        == 0
    )
    data = np.loadtxt(prefix + ".csv", delimiter=",", skiprows=1)
    assert np.max(np.abs(data[:, -2:])) == 0.0


def test_analyze_malformed_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("index,x,re,im\n0,0.0,oops,0.0\n")
    assert (
        main(
            ["analyze", "--group", "gabor", "--input", str(bad),
             "--assume-grid", "--output", str(tmp_path / "c")]
        )
        == 2
    )
    assert "row 2" in capsys.readouterr().err


def _signal_rows(tmp_path):
    sig = tmp_path / "sig.csv"
    save_state_csv(sig, gabor_setup().states["hermite2"])
    return sig, sig.read_text().splitlines()


def test_analyze_nonuniform_csv(tmp_path, capsys):
    sig, rows = _signal_rows(tmp_path)
    fields = rows[100].split(",")
    fields[1] = repr(float(fields[1]) + 0.01)
    rows[100] = ",".join(fields)
    sig.write_text("\n".join(rows) + "\n")
    assert main(["analyze", "--group", "gabor", "--input", str(sig),
                 "--output", str(tmp_path / "c")]) == 2
    assert "uniformly spaced" in capsys.readouterr().err


def test_analyze_nonfinite_csv(tmp_path, capsys):
    sig, rows = _signal_rows(tmp_path)
    fields = rows[100].split(",")
    fields[2] = "nan"
    rows[100] = ",".join(fields)
    sig.write_text("\n".join(rows) + "\n")
    assert main(["analyze", "--group", "gabor", "--input", str(sig),
                 "--output", str(tmp_path / "c")]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_analyze_writes_no_non_finite_coefficients(tmp_path, capsys):
    """A finite signal near the largest double overflows to NaN
    coefficients; the coefficient writer refuses them, so ``analyze`` exits
    2 and leaves no CSV that ``synthesize`` would reject."""
    state = gabor_setup().states["hermite2"]
    sig = tmp_path / "huge.csv"
    save_state_csv(sig, state.with_samples(state.samples * 1.5e308))
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["analyze", "--group", "gabor", "--input", str(sig),
                     "--output", str(tmp_path / "c")])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "c.csv").exists()


def test_analyze_rejects_a_signal_whose_norm_overflows(tmp_path, capsys):
    """Gabor hermite2 x 1e307 is finite and gives finite coefficients, but
    its squared norm, energy and shell fraction overflow.  ``analyze`` once
    exited 0 with ``Infinity`` and ``NaN`` in its report; it exits 2 before
    writing any file."""
    state = gabor_setup().states["hermite2"]
    sig = tmp_path / "huge.csv"
    save_state_csv(sig, state.with_samples(state.samples * 1e307))
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["analyze", "--group", "gabor", "--input", str(sig),
                     "--output", str(tmp_path / "c")])
    assert code == 2
    err = capsys.readouterr().err
    assert "input signal gives non-finite values (signal_norm_sq = inf, energy = inf" in err
    assert [p.name for p in tmp_path.iterdir()] == ["huge.csv"]


def test_analyze_grid_mismatch(tmp_path, capsys):
    from groupwave.states import centered_grid, gaussian_state

    sig = tmp_path / "small.csv"
    save_state_csv(sig, gaussian_state(centered_grid(8.0, 64)))
    assert (
        main(
            ["analyze", "--group", "gabor", "--input", str(sig),
             "--output", str(tmp_path / "c")]
        )
        == 2
    )
    assert "does not match" in capsys.readouterr().err


def _shifted_signal(tmp_path):
    """The configuration's hermite2 samples written on the Gabor grid
    shifted by +3: the same 256 rows, other coordinates."""
    from groupwave.states import DiscretizedState, StateGrid

    state = gabor_setup().states["hermite2"]
    g = state.grid
    path = tmp_path / "shifted.csv"
    save_state_csv(path, DiscretizedState(
        state.samples, StateGrid((g.offsets[0] + 3.0,), g.spacings, g.counts)))
    return path


def _assert_grid_mismatch_named(err):
    assert "does not match" in err
    for grid in ("offsets=(-5.0,), spacings=(0.0625,), counts=(256,)",
                 "offsets=(-8.0,), spacings=(0.0625,), counts=(256,)"):
        assert grid in err, err


def test_analyze_rejects_psi_file_on_another_grid(tmp_path, capsys):
    """A --psi-file on another grid was once read onto the configuration
    grid, ignoring its coordinates, and analyzed with exit 0."""
    sig = tmp_path / "sig.csv"
    save_state_csv(sig, gabor_setup().states["hermite2"])
    prefix = tmp_path / "coef"
    assert main(["analyze", "--group", "gabor", "--psi", "file", "--psi-file",
                 str(_shifted_signal(tmp_path)), "--input", str(sig), "--assume-grid",
                 "--output", str(prefix)]) == 2
    _assert_grid_mismatch_named(capsys.readouterr().err)
    assert not os.path.exists(str(prefix) + ".csv")


def test_analyze_rejects_affine_psi_file_of_two_axes(tmp_path, capsys):
    """A 2-D --psi-file under the n = 1 affine spec, whose state space is R:
    the signal reader stops it (a CSV with two coordinate columns carries no
    grid, and a grid read must match the configuration's) in front of the
    table's state-space guard, and the command writes no file."""
    from groupwave.states import centered_grid, product_grid

    psi, sig = tmp_path / "psi2d.csv", tmp_path / "sig.csv"
    save_state_csv(psi, gaussian_state(product_grid(centered_grid(16.0, 64),
                                                    centered_grid(6.0, 8))))
    save_state_csv(sig, affine_setup().states["signal"])
    assert main(["analyze", "--group", "affine", "--psi", "file", "--psi-file", str(psi),
                 "--input", str(sig), "--output", str(tmp_path / "coef")]) == 2
    err = capsys.readouterr().err
    assert "grid metadata required for multi-dimensional signals" in err
    assert sorted(os.listdir(tmp_path)) == ["psi2d.csv", "sig.csv"]


def test_synthesize_rejects_reference_on_another_grid(tmp_path, capsys):
    """A --reference on another grid was once compared sample by sample:
    exit 0 and a round-trip error of 2.35e-9."""
    _, prefix = _gabor_coefficients(tmp_path)
    back = tmp_path / "back.csv"
    assert main(["synthesize", "--group", "gabor", "--coefficients", prefix, "--output",
                 str(back), "--reference", str(_shifted_signal(tmp_path))]) == 2
    _assert_grid_mismatch_named(capsys.readouterr().err)
    assert not back.exists()


def test_report_tables(tmp_path):
    outdir = tmp_path / "tables"
    assert main(["report", "--outdir", str(outdir), "--seed", "0"]) == 0
    ortho = (outdir / "orthogonality.csv").read_text().strip().splitlines()
    assert ortho[0] == "group,pair,lhs_re,lhs_im,rhs_re,rhs_im,relerr"
    assert any(row.startswith("exotic,") for row in ortho[1:])
    div = (outdir / "divergence_probe.csv").read_text().strip().splitlines()
    assert len(div) >= 5
    # linear growth column: partial integrals double with R
    vals = [float(r.split(",")[2]) for r in div[1:5]]
    for i in range(3):
        assert vals[i + 1] / vals[i] == pytest.approx(2.0, rel=0.05)
    # every table byte for byte as stored (tests/data/report, written by
    # ``report --outdir DIR --seed 0``)
    stored = Path(__file__).parent / "data" / "report"
    assert sorted(p.name for p in outdir.iterdir()) == sorted(p.name for p in stored.iterdir())
    for path in sorted(stored.iterdir()):
        assert (outdir / path.name).read_bytes() == path.read_bytes(), path.name


def test_synthesize_rejects_coefficients_of_other_psi(tmp_path, capsys):
    """Morlet coefficients synthesized with the default Gaussian once gave a
    round-trip error of 0.9998 and exit 0."""
    sig = tmp_path / "sig.csv"
    save_state_csv(sig, gabor_setup().states["hermite2"])
    prefix = str(tmp_path / "coef")
    assert main(["analyze", "--group", "gabor", "--psi", "morlet", "--input", str(sig),
                 "--assume-grid", "--output", prefix]) == 0
    back = str(tmp_path / "back.csv")
    assert main(["synthesize", "--group", "gabor", "--coefficients", prefix,
                 "--output", back, "--reference", str(sig)]) == 2
    assert "another analyzing vector" in capsys.readouterr().err
    assert not os.path.exists(back)
    assert main(["synthesize", "--group", "gabor", "--psi", "morlet", "--coefficients", prefix,
                 "--output", back, "--reference", str(sig)]) == 0


def test_synthesize_rejects_coefficients_of_other_rep(tmp_path, capsys):
    sig = tmp_path / "sig.csv"
    save_state_csv(sig, gabor_setup().states["hermite2"])
    prefix = str(tmp_path / "coef")
    assert main(["analyze", "--group", "gabor", "--input", str(sig),
                 "--assume-grid", "--output", prefix]) == 0
    header_path = tmp_path / "coef.json"
    header = json.loads(header_path.read_text())
    label = header["rep"]
    header["rep"] = "P[wh[k=1.0];s0]"
    header_path.write_text(json.dumps(header))
    assert main(["synthesize", "--group", "gabor", "--coefficients", prefix,
                 "--output", str(tmp_path / "back.csv")]) == 2
    err = capsys.readouterr().err
    assert "P[wh[k=1.0];s0]" in err and label in err


def test_analyze_header_records_psi_identity(tmp_path):
    setup = gabor_setup()
    sig = tmp_path / "sig.csv"
    save_state_csv(sig, setup.states["hermite2"])
    digests = set()
    for psi in ("gaussian", "morlet"):
        prefix = str(tmp_path / psi)
        assert main(["analyze", "--group", "gabor", "--psi", psi, "--input", str(sig),
                     "--assume-grid", "--output", prefix]) == 0
        digests.add(json.loads((tmp_path / f"{psi}.json").read_text())["analyzing_vector_sha256"])
    assert len(digests) == 2
    assert gaussian_state(setup.state_grid).sha256() in digests


def _gabor_coefficients(tmp_path):
    sig = tmp_path / "sig.csv"
    save_state_csv(sig, gabor_setup().states["hermite2"])
    prefix = str(tmp_path / "coef")
    assert main(["analyze", "--group", "gabor", "--input", str(sig),
                 "--assume-grid", "--output", prefix]) == 0
    return sig, prefix


def _edit_coefficient_row(prefix, edit):
    path = Path(prefix + ".csv")
    rows = path.read_text().splitlines()
    rows[100] = edit(rows[100])
    path.write_text("\n".join(rows) + "\n")


def test_synthesize_rejects_nonfinite_coefficients(tmp_path, capsys):
    """A nan coefficient once gave exit 0 and a report with a NaN error,
    which is not valid JSON."""
    sig, prefix = _gabor_coefficients(tmp_path)
    _edit_coefficient_row(prefix, lambda row: row.rsplit(",", 1)[0] + ",nan")
    assert main(["synthesize", "--group", "gabor", "--coefficients", prefix,
                 "--output", str(tmp_path / "back.csv"), "--reference", str(sig)]) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("huge", ["reference", "coefficient"])
def test_synthesize_rejects_a_signal_whose_norm_overflows(huge, tmp_path, capsys):
    """A --reference of Gabor hermite2 x 1e307 once gave exit 0 and a
    ``NaN`` round-trip error; a coefficient of 1e300 synthesizes a finite
    signal whose squared norm overflows.  Both exit 2 before writing any
    file."""
    sig, prefix = _gabor_coefficients(tmp_path)
    ref = sig
    if huge == "reference":
        state = gabor_setup().states["hermite2"]
        ref = tmp_path / "huge.csv"
        save_state_csv(ref, state.with_samples(state.samples * 1e307))
    else:
        _edit_coefficient_row(prefix, lambda row: row.rsplit(",", 1)[0] + ",1e300")
    before = sorted(tmp_path.iterdir())
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["synthesize", "--group", "gabor", "--coefficients", prefix,
                     "--output", str(tmp_path / "back.csv"), "--reference", str(ref)])
    assert code == 2
    what = "--reference signal" if huge == "reference" else "synthesized signal"
    assert f"the {what} gives non-finite values (signal_norm_sq = inf" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before


def test_synthesize_rejects_short_coefficient_row(tmp_path, capsys):
    """A row missing its last field was once read with its weight as re."""
    sig, prefix = _gabor_coefficients(tmp_path)
    _edit_coefficient_row(prefix, lambda row: row.rsplit(",", 1)[0])
    assert main(["synthesize", "--group", "gabor", "--coefficients", prefix,
                 "--output", str(tmp_path / "back.csv"), "--reference", str(sig)]) == 2
    assert "malformed row" in capsys.readouterr().err


def test_synthesize_rejects_long_coefficient_row(tmp_path, capsys):
    """A row with one field too many was once read with its columns shifted:
    exit 0 and a round-trip error of 9.9e-5 instead of 2.35e-9."""
    sig, prefix = _gabor_coefficients(tmp_path)
    _edit_coefficient_row(prefix, lambda row: row.replace(",", ",0.5,", 1))
    assert main(["synthesize", "--group", "gabor", "--coefficients", prefix,
                 "--output", str(tmp_path / "back.csv"), "--reference", str(sig)]) == 2
    assert "malformed row" in capsys.readouterr().err


def test_synthesize_output_reads_back_with_its_grid_json(tmp_path):
    """The signal CSV and grid JSON that synthesize writes read back, with
    load_grid_json, as the in-memory synthesis of the same coefficients."""
    _, prefix = _gabor_coefficients(tmp_path)
    out = str(tmp_path / "back.csv")
    assert main(["synthesize", "--group", "gabor", "--coefficients", prefix,
                 "--output", out]) == 0
    back = load_state_csv(out, load_grid_json(out + ".grid.json"))
    setup = gabor_setup()
    want = synthesize(load_result_csv(prefix, setup.x_grid), setup.proj,
                      gaussian_state(setup.state_grid))
    assert back.grid == want.grid
    assert np.array_equal(back.samples, want.samples)


@pytest.mark.parametrize("dm_norm", [0, -1.0, float("nan"), float("inf"), "abc", True])
def test_synthesize_rejects_bad_dm_norm(tmp_path, capsys, dm_norm):
    """An unchecked dm_norm once gave exit 0 with a round-trip error of
    Infinity (0) or NaN (NaN), and a TypeError traceback for a string."""
    sig, prefix = _gabor_coefficients(tmp_path)
    header_path = Path(prefix + ".json")
    header = json.loads(header_path.read_text())
    header["dm_norm"] = dm_norm
    header_path.write_text(json.dumps(header))
    assert main(["synthesize", "--group", "gabor", "--coefficients", prefix,
                 "--output", str(tmp_path / "back.csv"), "--reference", str(sig)]) == 2
    assert "dm_norm" in capsys.readouterr().err


@pytest.mark.parametrize("log_axes", [[-1], [5]])
def test_synthesize_rejects_log_axes_outside_the_chart(tmp_path, capsys, log_axes):
    """Such a header once rebuilt a linear scale axis: exit 0 and a
    round-trip error of 0.9998 instead of 3.35e-3."""
    sig = tmp_path / "sig.csv"
    save_state_csv(sig, affine_setup().states["signal"])
    prefix = str(tmp_path / "coef")
    assert main(["analyze", "--group", "affine", "--input", str(sig), "--output", prefix]) == 0
    header_path = Path(prefix + ".json")
    header = json.loads(header_path.read_text())
    header["log_axes"] = log_axes
    header_path.write_text(json.dumps(header))
    back = tmp_path / "back.csv"
    assert main(["synthesize", "--group", "affine", "--coefficients", prefix,
                 "--output", str(back), "--reference", str(sig)]) == 2
    err = capsys.readouterr().err
    assert "coefficient file is for grid" in err and f"'log_axes': {log_axes}" in err, err
    assert not back.exists()
