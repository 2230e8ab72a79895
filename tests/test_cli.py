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
from groupwave.configs import gabor_setup


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
    assert "malformed grid" in capsys.readouterr().err


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
    assert (outdir / "semi_invariance.csv").exists()
    assert (outdir / "kernel.csv").exists()
    assert (outdir / "conventions.txt").exists()


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
