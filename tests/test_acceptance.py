"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines as they complete.
"""

import json
import time
from pathlib import Path

import numpy as np

from groupwave import configs
from groupwave.cli import main as cli_main
from groupwave.groups import (
    associativity_defect,
    haar_grid,
    identity_defect,
    inverse_defect,
    make_standard_wh,
    modular_homomorphism_defect,
    modular_quadrature_estimate,
    random_chart_points,
    delta_iso,
)
from groupwave.induced import R_chi_s, intertwine_defect, left_reg_m
from groupwave.measures import (
    center_divergence_probe,
    decompose_check,
    make_rho,
)
from groupwave.multipliers import (
    central_extension,
    check_cocycle,
    check_normalization,
    conjugate,
    kappa_from_section,
)
from groupwave.states import (
    DiscretizedState,
    fourier_plancherel,
    norm,
    random_bandlimited_state,
)
from groupwave.transforms import (
    admissibility,
    analyze,
    calibrate_affine_dm,
    duflo_moore,
    kernel,
    mod_K_equiv_check,
    orthogonality_check,
    reproduce_check,
    semi_invariance_check,
    synthesize,
)
from oracles import section_cocycle


def report(criterion: int, label: str, value: float, threshold: float, passed: bool):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} [{status}] {label}: {value:.3e} (tol {threshold:.1e})")
    assert passed, f"criterion {criterion}: {label}: {value:.3e} > {threshold:.1e}"


def test_criterion_01_algebraic_suite(gabor, exotic, rng):
    t0 = time.time()
    worst = 0.0

    from groupwave.groups import make_affine, make_polarized_wh

    groups = [
        gabor.group,
        make_standard_wh(1),
        make_polarized_wh(2),
        gabor.x_group,
        exotic.group,
        exotic.x_group,
        central_extension(gabor.x_group, gabor.proj.multiplier),
        central_extension(gabor.x_group, conjugate(gabor.proj.multiplier)),
        central_extension(exotic.x_group, exotic.proj.multiplier),
        make_affine(1),
    ]
    for G in groups:
        pts = random_chart_points(G, rng, 1000)
        g, h, l = (random_chart_points(G, rng, 1000) for _ in range(3))
        worst = max(worst, identity_defect(G, pts))
        worst = max(worst, inverse_defect(G, pts))
        worst = max(worst, associativity_defect(G, g, h, l))
        worst = max(worst, modular_homomorphism_defect(G, g, h))

    # multiplier normalization + cocycle identities
    for setup in (gabor, exotic):
        m = setup.proj.multiplier
        pts = random_chart_points(setup.x_group, rng, 1000)
        worst = max(worst, check_normalization(m, pts))
        worst = max(worst, check_cocycle(m, 1000, rng))

    # delta isomorphism homomorphism property
    Hs = make_standard_wh(1)
    g = random_chart_points(Hs, rng, 1000)
    h = random_chart_points(Hs, rng, 1000)
    worst = max(
        worst,
        float(
            np.max(
                np.abs(
                    delta_iso(Hs.product(g, h), 1)
                    - gabor.group.product(delta_iso(g, 1), delta_iso(h, 1))
                )
            )
        ),
    )

    # kappa_s / c_s membership (extract_k raises beyond 1e-10; also check the
    # kappa values stay in the subgroup chart to 1e-12)
    for setup in (gabor, exotic):
        x1 = random_chart_points(setup.x_group, rng, 1000)
        x2 = random_chart_points(setup.x_group, rng, 1000)
        kappa = kappa_from_section(setup.section, x1, x2)
        back = setup.subgroup.K_embed(kappa)
        head = setup.group.product(setup.section.map(x1), setup.section.map(x2))
        recon = setup.group.product(head, back)
        worst = max(
            worst,
            float(np.max(setup.group.distance(recon, setup.section.map(setup.x_group.product(x1, x2))))),
        )
        gg = random_chart_points(setup.group, rng, 1000)
        section_cocycle(setup.section, gg, x1)  # raises on membership failure

    elapsed = time.time() - t0
    assert elapsed < 10.0, f"algebraic suite took {elapsed:.1f}s"
    report(1, f"algebraic suite (in {elapsed:.1f}s)", worst, 1e-12, worst <= 1e-12)


def test_criterion_02_measure_decomposition(gabor):
    sub = gabor.subgroup
    gaussian = lambda nodes: np.exp(-np.sum(np.asarray(nodes) ** 2, axis=-1) / 2.0)
    g_grid = haar_grid(gabor.group, [(-7, 7)] * 3, [32] * 3)
    x_grid = haar_grid(gabor.x_group, [(-7, 7)] * 2, [32] * 2)
    k_grid = haar_grid(sub.k_group, [(-7, 7)], [32])
    _, _, rel = decompose_check(gaussian, gabor.section, g_grid, x_grid, k_grid)
    x_small = haar_grid(gabor.x_group, [(-2, 2)] * 2, [24] * 2)
    k_wide = haar_grid(sub.k_group, [(-12, 12)], [128])
    _, r1, _ = decompose_check(gaussian, gabor.section, g_grid, x_small, k_wide)
    _, r2, _ = decompose_check(gaussian, gabor.section_prime, g_grid, x_small, k_wide)
    swap = abs(r1 - r2) / abs(r1)
    report(2, "measure decomposition at 32^3", rel, 1e-6, rel <= 1e-6)
    report(2, "section-swap invariance", swap, 1e-10, swap <= 1e-10)


def test_criterion_03_gabor_orthogonality(gabor):
    t0 = time.time()
    dm = duflo_moore("gabor")
    s = gabor.states
    pairs = [
        (s["gauss"], s["gauss"], s["gauss"], s["gauss"]),
        (s["hermite1"], s["hermite1"], s["gauss"], s["gauss"]),
        (s["hermite1"], s["hermite1"], s["hermite2"], s["hermite2"]),
        (s["mix"], s["mix"], s["hermite2"], s["hermite2"]),
    ]
    worst = max(rel for _, _, rel in orthogonality_check(gabor.proj, pairs, dm, gabor.x_grid))
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(3, f"gabor orthogonality, 4 pairs (in {elapsed:.1f}s)", worst, 1e-3, worst <= 1e-3)


def test_criterion_04_gabor_isometry_round_trip(gabor, rng):
    dm = duflo_moore("gabor")
    psi = gabor.states["gauss"]
    phi = random_bandlimited_state(gabor.state_grid, rng, band_fraction=0.08,
                                   envelope_width=2.0)
    res = analyze(gabor.proj, psi, phi, gabor.x_grid, dm_norm=dm.norm_of(psi))
    ratio_err = abs(res.energy() / (dm.norm_of(psi) ** 2 * norm(phi) ** 2) - 1.0)
    back = synthesize(res, gabor.proj, psi)
    rt = norm(DiscretizedState(back.samples - phi.samples, phi.grid)) / norm(phi)
    report(4, "gabor energy ratio", ratio_err, 1e-3, ratio_err <= 1e-3)
    report(4, "gabor analyze->synthesize round trip", rt, 1e-2, rt <= 1e-2)


def test_criterion_05_affine_admissibility_dichotomy(affine):
    dm = duflo_moore("affine")
    grids = configs.affine_nested_grids(affine, levels=6)
    rep_m = admissibility(affine.rep, affine.states["morlet"], grids)
    psi_hat = fourier_plancherel(affine.states["morlet"])
    w, dw = psi_hat.grid.axis(0), psi_hat.grid.spacings[0]
    oracle = float(np.sum(np.abs(psi_hat.samples) ** 2 * dm.symbol_values(w, dw) ** 2) * dw)
    ok_adm = rep_m.admissible is True
    rel = abs((rep_m.dm_norm_sq or np.inf) - oracle) / oracle
    rep_g = admissibility(affine.rep, affine.states["gauss"], grids)
    ok_div = rep_g.status == "divergent" and rep_g.dm_norm_sq is None
    report(5, "morlet admissible, dm norm vs frequency oracle", rel, 2e-2,
           ok_adm and rel <= 2e-2)
    report(5, "gaussian flagged not admissible", 0.0 if ok_div else 1.0, 0.0, ok_div)


def test_criterion_06_affine_orthogonality_calibrated(affine):
    dm = duflo_moore("affine")  # kappa = sqrt(pi) in closed form
    s = affine.states
    # validation pair disjoint from both calibration pairs
    [(_, _, rel)] = orthogonality_check(
        affine.rep, [(s["morlet"], s["morlet"], s["gauss_mod3"], s["gauss_mod3"])],
        dm, affine.x_grid,
    )
    cal = calibrate_affine_dm(
        affine.rep, [(s["dog2"], s["dog2"]), (s["dog4"], s["gauss_mod"])], affine.x_grid
    )
    per_pair = cal["kappa_per_pair"]
    cal_dev = abs(per_pair[0] - per_pair[1]) / cal["kappa"]
    report(6, "calibration constants agree across pairs", cal_dev, 1e-2, cal_dev <= 1e-2)
    report(6, "affine orthogonality on validation pair", rel, 1e-2, rel <= 1e-2)


def test_criterion_07_semi_invariance(affine):
    dm = duflo_moore("affine")
    tests = [affine.states["morlet"]]
    worst = 0.0
    for a in (0.5, 2.0):
        worst = max(worst, semi_invariance_check(affine.rep, dm, np.array([0.0, a]), tests))
    report(7, "semi-invariance weight sqrt(Delta), a in {1/2, 2}", worst, 1e-6, worst <= 1e-6)


def test_criterion_08_reproducing_kernel(gabor):
    psi = gabor.states["gauss"]
    res = analyze(gabor.proj, psi, gabor.states["hermite2"], gabor.x_grid, dm_norm=1.0)
    rep_err = reproduce_check(res, gabor.proj, psi)
    g1, g2 = np.array([1.0, 0.5]), np.array([-0.4, 1.2])
    herm = abs(
        kernel(gabor.proj, psi, g1, g2, 1.0)
        - np.conj(kernel(gabor.proj, psi, g2, g1, 1.0))
    )
    report(8, "kernel reproduction at 16 nodes", rep_err, 1e-2, rep_err <= 1e-2)
    report(8, "kernel hermitian symmetry", herm, 1e-12, herm <= 1e-12)


def test_criterion_09_modulo_K_equivalence(gabor):
    sub = gabor.subgroup
    g_grid = haar_grid(gabor.group, [(-8, 8), (-6, 6), (-6, 6)], [512, 24, 24])
    x_grid = haar_grid(gabor.x_group, [(-6, 6)] * 2, [24] * 2)
    psi, phi = gabor.states["gauss"], gabor.states["hermite1"]
    rho_g = make_rho("gaussian", sub)
    rho_b = make_rho("bump", sub)
    (lhs, _, rel), (lhs_b, _, _) = mod_K_equiv_check(
        gabor.rep, [rho_g, rho_b], psi, phi, g_grid, x_grid, gabor.proj
    )
    swap = abs(lhs - lhs_b) / abs(lhs)
    report(9, "int_G |c|^2 dmu_{G,K} vs int_X |c|^2 dmu_X", rel, 1e-10, rel <= 1e-10)
    report(9, "invariance under rho gaussian -> bump", swap, 1e-10, swap <= 1e-10)


def test_criterion_10_center_divergence(gabor):
    x_grid = haar_grid(gabor.x_group, [(-6, 6)] * 2, [24] * 2)
    partials, slope, x_int = center_divergence_probe(
        gabor.rep, gabor.subgroup, gabor.states["gauss"], gabor.states["hermite1"],
        [2.0, 4.0, 8.0, 16.0], x_grid,
    )
    growth_dev = max(
        abs(partials[i + 1] / partials[i] - 2.0) for i in range(len(partials) - 1)
    )
    slope_dev = abs(slope - x_int) / x_int
    report(10, "partial k-integrals grow linearly", growth_dev, 5e-2, growth_dev <= 5e-2)
    report(10, "fitted slope matches X integral", slope_dev, 5e-2, slope_dev <= 5e-2)


def test_criterion_11_exotic_group(exotic):
    dm = duflo_moore("exotic")
    s = exotic.states
    assert exotic.state_grid.counts == (64, 64)
    [(_, _, rel)] = orthogonality_check(
        exotic.proj, [(s["psi"], s["psi"], s["phi"], s["phi"])], dm, exotic.x_grid
    )
    report(11, "exotic orthogonality with D = b^(-1/2), state res 64x64",
           rel, 5e-2, rel <= 5e-2)

    X = exotic.x_group
    xg = haar_grid(
        X,
        [(-0.1, 0.1), (-0.1, 0.1), (-8, 8), (np.exp(-3), np.exp(3))],
        [2, 2, 384, 384],
    )
    f_ba = lambda nodes: np.exp(-nodes[..., 2] ** 2 / 0.5) * np.exp(
        -np.log(nodes[..., 3]) ** 2 / 0.18
    )
    worst = 0.0
    for a0 in (0.6, 1.7):
        est = modular_quadrature_estimate(X, np.array([0.0, 0.0, 0.3, a0]), xg, f_ba)
        worst = max(worst, abs(est * a0 - 1.0))
    report(11, "Delta_X = 1/a by Haar quadrature", worst, 1e-6, worst <= 1e-6)

    b0 = float(exotic.state_grid.axis(0)[12])
    bseq = b0 * 2.0 ** (-np.arange(8.0))
    syms = dm.symbol_values(bseq)
    min_ratio = float(np.min(syms[1:] / syms[:-1]))
    ok = min_ratio >= np.sqrt(2.0) - 1e-12
    report(11, "unbounded symbol: growth per halving >= sqrt(2)",
           min_ratio, np.sqrt(2.0), ok)


def test_criterion_12_intertwining(gabor_wide, rng):
    grid = haar_grid(gabor_wide.x_group, [(-10, 10)] * 2, [80] * 2)
    psi = gabor_wide.states["gauss"]
    tests = [gabor_wide.states["hermite1"], gabor_wide.states["mix"]]

    def C(phi):
        return analyze(gabor_wide.proj, psi, phi, grid).coefficients.reshape(grid.resolution)

    worst_m = worst_chi = 0.0
    for _ in range(20):
        x0 = rng.uniform(-1.5, 1.5, 2)
        worst_m = max(
            worst_m,
            intertwine_defect(
                C,
                lambda x, v: gabor_wide.proj.act(x, v),
                lambda x, F: left_reg_m(gabor_wide.proj.multiplier, x, F, grid),
                x0, tests, grid,
            ),
        )
        g = np.concatenate([rng.uniform(-2, 2, 1), rng.uniform(-1.5, 1.5, 2)])
        worst_chi = max(
            worst_chi,
            intertwine_defect(
                C,
                lambda gg, v: gabor_wide.rep.act(gg, v),
                lambda gg, F: R_chi_s(gabor_wide.section, gg, F, grid),
                g, tests, grid,
            ),
        )
    report(12, "C_psi P_s = R^m C_psi at 20 random elements", worst_m, 1e-6,
           worst_m <= 1e-6)
    report(12, "C_psi U = R^{chi,s} C_psi at 20 random elements", worst_chi, 1e-6,
           worst_chi <= 1e-6)


def test_criterion_13_determinism(tmp_path):
    p1 = tmp_path / "v1.json"
    p2 = tmp_path / "v2.json"
    codes = [cli_main(["verify", "--group", "all", "--seed", "0", "--output", str(p)])
             for p in (p1, p2)]
    identical = p1.read_bytes() == p2.read_bytes()
    report(13, "repeated verify runs byte-identical", 0.0 if identical else 1.0,
           0.0, identical)
    payload = json.loads(p1.read_text())
    # against the stored report: the same checks with the same thresholds,
    # every defect to within rounding; every moved check is named, largest
    # move first, before the exit codes are looked at
    stored = json.loads((Path(__file__).parent / "data" / "verify_all_seed0.json").read_text())
    assert list(payload["groups"]) == list(stored["groups"])
    worst, moved = 0.0, []
    for group, checks in stored["groups"].items():
        got = payload["groups"][group]
        assert [(c["name"], c["threshold"]) for c in got] == \
            [(c["name"], c["threshold"]) for c in checks], group
        for new, old in zip(got, checks):
            share = abs(new["defect"] - old["defect"]) / (1e-12 * abs(old["defect"]) + 1e-14)
            if share > 1.0:
                moved.append((share, f"{old['name']} [{group}]", old["defect"], new["defect"]))
            worst = max(worst, share)
    moved.sort(key=lambda m: -m[0])
    assert not moved, (
        f"{len(moved)} verify defects moved (stored -> new, move / allowed move):\n"
        + "\n".join(f"  {name}: {old!r} -> {new!r}, {share:.3g}" for share, name, old, new in moved))
    report(13, "verify defects vs stored report (move / allowed move)", worst, 1.0, worst <= 1.0)
    assert codes == [0, 0] and payload["all_passed"] is True
