"""Command-line interface.

Commands
--------
conventions  emit the normalization sheet (chart, product, Haar, modular)
             for each implemented group
verify       run the verification suites, write a JSON report, exit 0/1
analyze      transform a signal CSV into coefficients (CSV + JSON header)
synthesize   reconstruct a signal from a coefficient file
report       emit orthogonality / kernel / semi-invariance / divergence
             tables as CSV for plotting

Configuration comes from flags.  Reports are deterministic: fixed seeds, no
timestamps, sorted keys.  Exit codes: 0 pass, 1 check failure, 2 usage/IO
error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import configs
from .groups import (
    conventions_text,
    haar_grid,
    make_affine,
    make_exotic,
    make_exotic_quotient,
    make_polarized_wh,
    make_standard_wh,
)
from .states import (
    FLOAT_FORMAT,
    DiscretizedState,
    dump_json,
    gaussian_state,
    grid_record,
    load_state_csv,
    morlet_state,
    norm,
    save_grid_json,
    save_state_csv,
)
from .transforms import (
    analyze,
    duflo_moore,
    kernel,
    load_result_csv,
    orthogonality_check,
    save_result_csv,
    semi_invariance_check,
    synthesize,
)

# the group factories of each conventions sheet, in sheet order; its keys
# are the verify suites' names, so the group choices need no import of verify
CONVENTION_GROUPS = {
    "wh": (make_polarized_wh, make_standard_wh),
    "affine": (make_affine,),
    "exotic": (make_exotic, make_exotic_quotient),
}
ALL_GROUPS = list(CONVENTION_GROUPS)


def _fail_usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _seed(text: str) -> int:
    """Type of ``--seed``: an integer >= 0.  numpy's generators take no
    other seed, and a suite that seeds ``seed + 1`` would accept -1."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, not {text!r}")
    return int(text)


def _require_finite(what: str, **values: float) -> None:
    """Raise ValueError naming every entry of ``values`` that is not
    finite.  A finite signal near the largest double can overflow its
    squared norm, and the energy, shell fraction or round-trip error made
    from it; a report holds standard JSON numbers only, so the command
    stops before it writes any file."""
    bad = ", ".join(f"{key} = {value}" for key, value in values.items() if not math.isfinite(value))
    if bad:
        raise ValueError(f"{what} gives non-finite values ({bad}): it is too large for "
                         "float64; scale it down")


def _read_signal(path, state_grid, what: str) -> DiscretizedState:
    """The signal CSV at ``path`` on the grid its coordinate column gives,
    which must be the configuration grid ``state_grid``: samples are never
    relabelled onto another grid unasked (``--assume-grid`` does that)."""
    state = load_state_csv(path)
    if state.grid != state_grid:
        raise ValueError(f"{what} grid {state.grid} does not match the configuration "
                         f"grid {state_grid}")
    return state


def _conventions_sheets(name: str) -> list[str]:
    """The conventions sheet of each group of ``name``, for n = 1."""
    return [conventions_text(make(1)) for make in CONVENTION_GROUPS[name]]


def cmd_conventions(args) -> int:
    selected = ALL_GROUPS if args.group == "all" else [args.group]
    text = "\n".join(sheet for name in selected for sheet in _conventions_sheets(name))
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suites

    groups = ALL_GROUPS if args.group == "all" else [args.group]
    if args.psi is not None and "affine" not in groups:
        return _fail_usage(f"--psi is checked by the affine suite only; --group {args.group} "
                           "does not run it (use --group affine or all)")
    report = run_suites(groups, seed=args.seed, psi_kind=args.psi)
    # the resolved flags; IO destinations are not analysis parameters, and
    # keeping them out makes reports byte-identical wherever they are written
    report["config"] = {
        key: value for key, value in sorted(vars(args).items())
        if key not in ("func", "output") and value is not None
    }
    dump_json(args.output, report)
    if args.output:
        n_fail = sum(
            1 for checks in report["groups"].values() for c in checks if not c["passed"]
        )
        print(f"{report['n_checks']} checks, {n_fail} failed -> {args.output}")
    return 0 if report["all_passed"] else 1


def _analysis_setup(group: str, psi_kind: str, psi_file):
    setup = configs.gabor_setup() if group == "gabor" else configs.affine_setup()
    state_grid = setup.state_grid
    if psi_kind == "gaussian":
        psi = gaussian_state(state_grid)
    elif psi_kind == "morlet":
        psi = morlet_state(state_grid)
    else:
        if not psi_file:
            raise ValueError("--psi file requires --psi-file")
        psi = _read_signal(psi_file, state_grid, "--psi-file")
    rep = setup.proj if group == "gabor" else setup.rep
    return rep, setup.x_grid, state_grid, duflo_moore(group), psi


def cmd_analyze(args) -> int:
    rep, grid, state_grid, dm, psi = _analysis_setup(args.group, args.psi, args.psi_file)
    phi = (load_state_csv(args.input, state_grid) if args.assume_grid
           else _read_signal(args.input, state_grid, "input signal"))
    result = analyze(rep, psi, phi, grid, dm_norm=dm.norm_of(psi))
    signal_norm_sq = norm(phi) ** 2
    _require_finite("the input signal", signal_norm_sq=signal_norm_sq,
                    energy=result.meta["energy"], shell_fraction=result.meta["shell_fraction"])
    csv_path, json_path = save_result_csv(args.output, result)
    report = {
        "command": "analyze",
        "group": args.group,
        "psi": args.psi,
        "coefficients": csv_path,
        "header": json_path,
        "energy": result.meta["energy"],
        "signal_norm_sq": signal_norm_sq,
        "shell_fraction": result.meta["shell_fraction"],
        # fully resolved configuration
        "state_grid": grid_record(state_grid),
        "transform_box": [list(b) for b in result.grid.box],
        "transform_resolution": list(result.grid.resolution),
        "dm_norm": result.dm_norm,
    }
    dump_json(args.output + ".report.json", report)
    print(f"coefficients -> {csv_path}")
    return 0


def cmd_synthesize(args) -> int:
    rep, grid, state_grid, dm, psi = _analysis_setup(args.group, args.psi, args.psi_file)
    result = load_result_csv(args.coefficients, grid)
    ref = _read_signal(args.reference, state_grid, "--reference") if args.reference else None
    # coefficients synthesize correctly only with the rep and psi that made them
    if result.rep_id != rep.label:
        return _fail_usage(f"coefficient file is for rep {result.rep_id!r}, not {rep.label!r}")
    if result.analyzing_vector_sha256 != psi.sha256():
        return _fail_usage(
            "coefficient file was analyzed with another analyzing vector (psi): sha256 "
            f"{result.analyzing_vector_sha256}, not {psi.sha256()}")
    if result.dm_norm is None:
        result.dm_norm = dm.norm_of(psi)
    state = synthesize(result, rep, psi)
    report = {"command": "synthesize", "group": args.group, "output": args.output}
    _require_finite("the synthesized signal", signal_norm_sq=norm(state) ** 2)
    if ref is not None:
        diff = norm(DiscretizedState(state.samples - ref.samples, state.grid))
        report["round_trip_relative_error"] = diff / max(norm(ref), 1e-300)
        _require_finite("the --reference signal", signal_norm_sq=norm(ref) ** 2,
                        round_trip_relative_error=report["round_trip_relative_error"])
    save_state_csv(args.output, state)
    save_grid_json(args.output + ".grid.json", state.grid)
    dump_json(args.output + ".report.json", report)
    print(f"signal -> {args.output}")
    return 0


def _write_table(path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(FLOAT_FORMAT % v if isinstance(v, float) else str(v) for v in row) + "\n")


def _orthogonality_rows(group: str, rep, dm, grid, pairs: dict) -> list:
    """Table rows of the orthogonality relation for each labelled
    (psi1, psi2, phi1, phi2)."""
    triples = orthogonality_check(rep, list(pairs.values()), dm, grid)
    return [[group, label, lhs.real, lhs.imag, rhs.real, rhs.imag, rel]
            for label, (lhs, rhs, rel) in zip(pairs, triples)]


def cmd_report(args) -> int:
    from .measures import center_divergence_probe

    os.makedirs(args.outdir, exist_ok=True)
    written = []

    # orthogonality tables
    rows = []
    gab = configs.gabor_setup()
    dm = duflo_moore("gabor")
    s = gab.states
    rows += _orthogonality_rows("gabor", gab.proj, dm, gab.x_grid, {
        "gauss/gauss": (s["gauss"], s["gauss"], s["gauss"], s["gauss"]),
        "hermite1/gauss": (s["hermite1"], s["hermite1"], s["gauss"], s["gauss"]),
        "mix/hermite2": (s["mix"], s["mix"], s["hermite2"], s["hermite2"]),
    })
    aff = configs.affine_setup()
    dma = duflo_moore("affine")
    sa = aff.states
    rows += _orthogonality_rows("affine", aff.rep, dma, aff.x_grid, {
        "morlet/gauss_mod3": (sa["morlet"], sa["morlet"], sa["gauss_mod3"], sa["gauss_mod3"]),
        "dog2/dog4": (sa["dog2"], sa["dog4"], sa["gauss_mod"], sa["gauss_mod2"]),
    })
    exo = configs.exotic_setup()
    dme = duflo_moore("exotic")
    se = exo.states
    rows += _orthogonality_rows("exotic", exo.proj, dme, exo.x_grid, {
        "psi/phi": (se["psi"], se["psi"], se["phi"], se["phi"]),
        "psi2/phi2": (se["psi"], se["psi2"], se["phi"], se["phi2"]),
    })
    path = os.path.join(args.outdir, "orthogonality.csv")
    _write_table(path, ["group", "pair", "lhs_re", "lhs_im", "rhs_re", "rhs_im", "relerr"], rows)
    written.append(path)

    # kernel table (gabor)
    rng = np.random.default_rng(args.seed)
    rows = []
    for _ in range(12):
        g1 = rng.uniform(-2, 2, 2)
        g2 = rng.uniform(-2, 2, 2)
        val = kernel(gab.proj, s["gauss"], g1, g2, 1.0)
        rows.append([g1[0], g1[1], g2[0], g2[1], val.real, val.imag])
    path = os.path.join(args.outdir, "kernel.csv")
    _write_table(path, ["p1", "q1", "p2", "q2", "re", "im"], rows)
    written.append(path)

    # semi-invariance table (affine)
    rows = []
    for a in [0.25, 0.5, 1.0, 2.0, 4.0]:
        d = semi_invariance_check(aff.rep, dma, np.array([0.0, a]), [sa["morlet"]])
        rows.append([a, float(aff.group.modular(np.array([0.0, a]))) ** 0.5, d])
    path = os.path.join(args.outdir, "semi_invariance.csv")
    _write_table(path, ["a", "delta_sqrt", "defect"], rows)
    written.append(path)

    # divergence probe table (wh)
    xm = haar_grid(gab.x_group, [(-6, 6)] * 2, [24] * 2)
    r_list = [2.0, 4.0, 8.0, 16.0]
    partials, slope, x_int = center_divergence_probe(
        gab.rep, gab.subgroup, s["gauss"], s["hermite1"], r_list, xm
    )
    rows = [[r, 2.0 * r, p] for r, p in zip(r_list, partials)]
    rows.append(["slope_fit", "", slope])
    rows.append(["x_integral", "", x_int])
    path = os.path.join(args.outdir, "divergence_probe.csv")
    _write_table(path, ["R", "k_box_measure", "partial_integral"], rows)
    written.append(path)

    # conventions sheet
    path = os.path.join(args.outdir, "conventions.txt")
    with open(path, "w") as fh:
        for name in ALL_GROUPS:
            fh.write("".join(sheet + "\n" for sheet in _conventions_sheets(name)))
    written.append(path)

    for p in written:
        print(f"wrote {p}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupwave",
        description="verified coherent-state and wavelet transforms from group representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("conventions", help="emit normalization sheets")
    p.add_argument("--group", choices=ALL_GROUPS + ["all"], default="all")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_conventions)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--group", choices=ALL_GROUPS + ["all"], default="all")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--psi", choices=["gaussian", "morlet"], default=None,
                   help="extra analyzing vector whose admissibility status the "
                        "affine suite reports (expected-negative outcomes still pass); "
                        "needs --group affine or all")
    p.add_argument("--output", default=None, help="report path (default stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="signal CSV -> coefficient CSV")
    p.add_argument("--group", choices=["gabor", "affine"], required=True)
    p.add_argument("--psi", choices=["gaussian", "morlet", "file"], default=None)
    p.add_argument("--psi-file", default=None, help="psi CSV, read only with --psi file")
    p.add_argument("--input", required=True, help="signal CSV (index,x,re,im)")
    p.add_argument("--output", required=True, help="output path prefix")
    p.add_argument("--assume-grid", action="store_true",
                   help="read the signal onto the configuration grid")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("synthesize", help="coefficient CSV -> signal CSV")
    p.add_argument("--group", choices=["gabor", "affine"], required=True)
    p.add_argument("--psi", choices=["gaussian", "morlet", "file"], default=None)
    p.add_argument("--psi-file", default=None, help="psi CSV, read only with --psi file")
    p.add_argument("--coefficients", required=True, help="coefficient path prefix")
    p.add_argument("--output", required=True, help="signal CSV path")
    p.add_argument("--reference", default=None, help="original signal for round-trip error")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("report", help="emit verification tables as CSV")
    p.add_argument("--outdir", required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code) if exc.code is not None else 2
    analysis = args.command in ("analyze", "synthesize")
    if analysis and args.psi_file is not None and args.psi != "file":
        return _fail_usage("--psi-file is read only with --psi file; without it the default "
                           "analyzing vector would be used and the file ignored")
    # default analyzing vector per group; verify adds a psi check only on request
    if analysis and args.psi is None:
        args.psi = {"gabor": "gaussian", "affine": "morlet"}[args.group]
    # the CLI's one error boundary: bad input and unreadable or unwritable
    # files exit 2 with the message, whichever layer raised it
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        return _fail_usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())
