"""Verification suites behind the CLI: each suite runs a named list of
checks (measured defect vs threshold) over one of the bundled
configurations and reports everything as JSON-ready dictionaries.

All randomness is seeded from the run configuration and the seed is echoed
into the report, so repeated runs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import configs
from .groups import (
    associativity_defect,
    haar_grid,
    identity_defect,
    inverse_defect,
    left_invariance_defect,
    make_standard_wh,
    modular_homomorphism_defect,
    modular_quadrature_estimate,
    random_chart_points,
    delta_iso,
)
from .induced import R_chi_s, intertwine_defect, left_reg_m
from .measures import (
    center_divergence_probe,
    decompose_check,
    make_rho,
    rho_validate,
    translate_rho,
)
from .multipliers import (
    central_extension,
    check_cocycle,
    check_normalization,
    conjugate,
    kappa_from_section,
    similar,
)
from .representations import coefficient, displacement, projective_from_section
from .states import DiscretizedState, fourier_plancherel, norm, translate, modulate
from .transforms import (
    admissibility,
    analyze,
    calibrate_affine_dm,
    duflo_moore,
    kernel,
    mod_K_equiv_check,
    orthogonality_check,
    orthogonality_relation,
    reproduce_check,
    semi_invariance_check,
    synthesize,
)

__all__ = ["Check", "run_suites", "SUITE_NAMES"]


@dataclass
class Check:
    name: str
    defect: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.defect <= self.threshold

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "defect": float(self.defect),
            "threshold": float(self.threshold),
            "passed": bool(self.passed),
        }


def _state_diff(a: DiscretizedState, b: DiscretizedState) -> float:
    return norm(DiscretizedState(a.samples - b.samples, a.grid))


def _section_gauge_defect(rep, section, psi, phi, grid, rng) -> float:
    """max |c_s(x) - <U(s(x)) psi, phi>| at 16 seeded nodes: the batched
    coefficients through a non-coordinate section s (the coordinate table
    plus the gauge phase) against the literal action at s(x)."""
    c = analyze(projective_from_section(rep, section), psi, phi, grid).coefficients
    idx = rng.choice(grid.n_nodes, size=16, replace=False)
    return max(abs(c[i] - coefficient(rep, psi, phi, section.map(grid.node(i)))) for i in idx)


# ---------------------------------------------------------------------------
# Weyl-Heisenberg / Gabor suite
# ---------------------------------------------------------------------------


def gabor_suite(seed: int = 0) -> list[Check]:
    rng = np.random.default_rng(seed)
    setup = configs.gabor_setup()
    s = setup.states
    checks = []

    # group algebra
    for G in (setup.group, make_standard_wh(1), setup.x_group):
        pts = random_chart_points(G, rng, 1000)
        g, h, l = (random_chart_points(G, rng, 1000) for _ in range(3))
        checks.append(Check(f"{G.name}: identity", identity_defect(G, pts), 1e-12))
        checks.append(Check(f"{G.name}: inverse", inverse_defect(G, pts), 1e-12))
        checks.append(Check(f"{G.name}: associativity", associativity_defect(G, g, h, l), 1e-12))
        checks.append(Check(f"{G.name}: modular homomorphism", modular_homomorphism_defect(G, g, h), 1e-12))

    Hs = make_standard_wh(1)
    g, h = random_chart_points(Hs, rng, 1000), random_chart_points(Hs, rng, 1000)
    hom = np.max(
        np.abs(
            delta_iso(Hs.product(g, h), 1)
            - setup.group.product(delta_iso(g, 1), delta_iso(h, 1))
        )
    )
    checks.append(Check("delta isomorphism: homomorphism", float(hom), 1e-12))

    # multipliers and sections
    m = setup.proj.multiplier
    pts = random_chart_points(setup.x_group, rng, 400)
    checks.append(Check("multiplier: normalization", check_normalization(m, pts), 1e-12))
    checks.append(Check("multiplier: cocycle identity", check_cocycle(m, 400, rng), 1e-12))
    m2 = setup.proj_prime.multiplier
    kc = setup.k_check
    beta = lambda x: kc * 0.5 * x[..., 0] * x[..., 1]
    checks.append(Check("multiplier: section similarity", similar(m2, m, beta, 400, rng), 1e-12))
    checks.append(Check("multiplier: conjugate cocycle", check_cocycle(conjugate(m), 400, rng), 1e-12))
    ext = central_extension(setup.x_group, conjugate(m))
    g, h, l = (random_chart_points(ext, rng, 1000) for _ in range(3))
    checks.append(Check("central extension: associativity", associativity_defect(ext, g, h, l), 1e-12))

    x1 = np.array([1.5, 2.0])
    x2 = np.array([3.0, -1.0])
    kap = kappa_from_section(setup.section, x1, x2)
    checks.append(Check("kappa_s: closed form", float(abs(kap[0] + 6.0)), 1e-12))

    # representation checks; run composition on a wide box so translated
    # tails stay clear of the periodic seam
    wide = configs.gabor_setup(state_halfwidth=10.0, state_points=320)
    fw = wide.states["mix"]
    f = s["mix"]
    worst_u = worst_c = 0.0
    for _ in range(40):
        g = np.concatenate([rng.uniform(-2, 2, 1), rng.uniform(-1.0, 1.0, 2)])
        h = np.concatenate([rng.uniform(-2, 2, 1), rng.uniform(-1.0, 1.0, 2)])
        worst_u = max(worst_u, abs(norm(wide.rep.act(g, fw)) - 1.0))
        lhs = wide.rep.act(g, wide.rep.act(h, fw))
        rhs = wide.rep.act(wide.group.product(g, h), fw)
        worst_c = max(worst_c, _state_diff(lhs, rhs))
    checks.append(Check("wh rep: unitarity", worst_u, 1e-10))
    checks.append(Check("wh rep: composition", worst_c, 1e-8))

    k_el = np.array([0.7, 0.0, 0.0])
    central = _state_diff(
        setup.rep.act(k_el, f), f.with_samples(np.exp(1j * kc * 0.7) * f.samples)
    )
    checks.append(Check("wh rep: central character", central, 1e-12))

    worst = 0.0
    for _ in range(20):
        q1, p1, q2, p2 = rng.uniform(-1.2, 1.2, 4)
        lhs = displacement(q1, p1)(displacement(q2, p2)(fw))
        phase = np.exp(0.5j * (p1 * q2 - q1 * p2))
        rhs = displacement(q1 + q2, p1 + p2)(fw)
        worst = max(worst, np.max(np.abs(lhs.samples - phase * rhs.samples)))
    checks.append(Check("displacement: composition law", worst, 1e-8))

    q, p = 0.9, 1.4
    lhs = fourier_plancherel(displacement(q, p)(f))
    Ff = fourier_plancherel(f)
    rhs = modulate(translate(Ff, [-p]), [q], extra_phase=0.5 * q * p)
    checks.append(
        Check("fourier: conjugated displacement", float(np.max(np.abs(lhs.samples - rhs.samples))), 1e-8)
    )

    # orthogonality, kernel, round trip
    dm = duflo_moore("gabor")
    pairs = [
        (s["gauss"], s["gauss"], s["gauss"], s["gauss"]),
        (s["hermite1"], s["hermite1"], s["gauss"], s["gauss"]),
        (s["hermite1"], s["hermite1"], s["hermite2"], s["hermite2"]),
        (s["mix"], s["mix"], s["hermite2"], s["hermite2"]),
    ]
    worst = 0.0
    for p1, p2, f1, f2 in pairs:
        _, _, rel = orthogonality_check(setup.proj, p1, p2, f1, f2, dm, setup.x_grid)
        worst = max(worst, rel)
    checks.append(Check("gabor: orthogonality relation", worst, 1e-3))

    res = analyze(setup.proj, s["gauss"], s["gauss"], setup.x_grid, dm_norm=1.0)
    checks.append(Check("gabor: energy ratio", abs(res.energy() - 1.0), 1e-3))
    nodes = setup.x_grid.nodes
    closed = np.max(
        np.abs(np.abs(res.coefficients) - np.exp(-np.sum(nodes ** 2, axis=-1) / 4.0))
    )
    checks.append(Check("gabor: closed-form gaussian overlap", float(closed), 1e-6))

    res_h = analyze(setup.proj, s["gauss"], s["hermite2"], setup.x_grid, dm_norm=1.0)
    checks.append(Check("gabor: kernel reproduction", reproduce_check(res_h, setup.proj, s["gauss"], 16), 1e-2))
    g1, g2 = np.array([1.0, 0.5]), np.array([-0.4, 1.2])
    herm = abs(
        kernel(setup.proj, s["gauss"], g1, g2, 1.0)
        - np.conj(kernel(setup.proj, s["gauss"], g2, g1, 1.0))
    )
    checks.append(Check("gabor: kernel hermitian symmetry", herm, 1e-12))
    back = synthesize(res_h, setup.proj, s["gauss"])
    checks.append(Check("gabor: analyze-synthesize round trip", _state_diff(back, s["hermite2"]), 1e-2))

    # measures
    sub = setup.subgroup
    g_grid = haar_grid(setup.group, [(-7, 7)] * 3, [32] * 3)
    x_g = haar_grid(setup.x_group, [(-7, 7)] * 2, [32] * 2)
    k_g = haar_grid(sub.k_group, [(-7, 7)], [32])
    gaussian = lambda nodes: np.exp(-np.sum(np.asarray(nodes) ** 2, axis=-1) / 2.0)
    _, _, rel = decompose_check(gaussian, setup.section, g_grid, x_g, k_g)
    checks.append(Check("measure decomposition (Lemma on X x K)", rel, 1e-6))
    x_small = haar_grid(setup.x_group, [(-2, 2)] * 2, [24] * 2)
    k_wide = haar_grid(sub.k_group, [(-12, 12)], [128])
    _, r1, _ = decompose_check(gaussian, setup.section, g_grid, x_small, k_wide)
    _, r2, _ = decompose_check(gaussian, setup.section_prime, g_grid, x_small, k_wide)
    checks.append(Check("measure decomposition: section swap", abs(r1 - r2) / abs(r1), 1e-10))

    rho_g = make_rho("gaussian", sub)
    rho_b = make_rho("bump", sub)
    xs = random_chart_points(setup.x_group, rng, 12)
    kq = haar_grid(sub.k_group, [(-10, 10)], [512])
    checks.append(Check("rho gaussian: coset normalization", rho_validate(rho_g, setup.section, xs, kq), 1e-8))
    checks.append(Check("rho bump: coset normalization", rho_validate(rho_b, setup.section, xs, kq), 1e-8))
    rho_t = translate_rho(rho_g, np.array([1.0, 0.4, -0.2]))
    checks.append(Check("rho translate: coset normalization", rho_validate(rho_t, setup.section, xs, kq), 1e-8))

    gm = haar_grid(setup.group, [(-8, 8), (-6, 6), (-6, 6)], [512, 24, 24])
    xm = haar_grid(setup.x_group, [(-6, 6)] * 2, [24] * 2)
    lhs, rhs, rel = mod_K_equiv_check(
        setup.rep, rho_g, s["gauss"], s["hermite1"], gm, xm, setup.proj
    )
    checks.append(Check("modulo-K equivalence (gaussian rho)", rel, 1e-10))
    lhs_b, _, rel_b = mod_K_equiv_check(
        setup.rep, rho_b, s["gauss"], s["hermite1"], gm, xm, setup.proj
    )
    checks.append(Check("modulo-K equivalence: rho swap", abs(lhs - lhs_b) / abs(lhs), 1e-10))

    partials, slope, x_int = center_divergence_probe(
        setup.rep, sub, s["gauss"], s["hermite1"], [2.0, 4.0, 8.0, 16.0], xm
    )
    ratio_dev = max(abs(partials[i + 1] / partials[i] - 2.0) for i in range(len(partials) - 1))
    checks.append(Check("divergence probe: linear growth in K", ratio_dev, 0.05))
    checks.append(Check("divergence probe: slope vs X integral", abs(slope - x_int) / x_int, 0.05))

    # induced representations / intertwining: the wide-box setup keeps both
    # X-truncation tails and state-box wrap below the tolerance
    grid10 = haar_grid(wide.x_group, [(-10, 10)] * 2, [80] * 2)
    psi_w = wide.states["gauss"]

    def C(phi):
        return analyze(wide.proj, psi_w, phi, grid10).coefficients.reshape(grid10.resolution)

    tests = [wide.states["hermite1"], wide.states["mix"]]
    x0s, gs = [], []
    for _ in range(20):
        x0s.append(rng.uniform(-1.5, 1.5, 2))
        gs.append(np.concatenate([rng.uniform(-2, 2, 1), rng.uniform(-1.5, 1.5, 2)]))
    worst_p = intertwine_defect(
        C,
        lambda x, v: wide.proj.act(x, v),
        lambda x, F: left_reg_m(wide.proj.multiplier, x, F, grid10),
        x0s,
        tests,
        grid10,
    )
    worst_i = intertwine_defect(
        C,
        lambda gg, v: wide.rep.act(gg, v),
        lambda gg, F: R_chi_s(wide.section, gg, F, grid10),
        gs,
        tests,
        grid10,
    )
    checks.append(Check("intertwining: C_psi P_s vs left regular m-rep", worst_p, 1e-6))
    checks.append(Check("intertwining: C_psi U vs induced rep", worst_i, 1e-6))

    gauge = _section_gauge_defect(setup.rep, setup.section_prime, s["gauss"], s["hermite1"],
                                  setup.x_grid, rng)
    checks.append(Check("section gauge: s_sym vs literal action", gauge, 1e-12))

    return checks


# ---------------------------------------------------------------------------
# Affine suite
# ---------------------------------------------------------------------------


def affine_suite(seed: int = 0) -> list[Check]:
    rng = np.random.default_rng(seed + 1)
    setup = configs.affine_setup()
    s = setup.states
    checks = []

    G = setup.group
    pts = random_chart_points(G, rng, 1000)
    g, h, l = (random_chart_points(G, rng, 1000) for _ in range(3))
    checks.append(Check("affine: identity", identity_defect(G, pts), 1e-12))
    checks.append(Check("affine: inverse", inverse_defect(G, pts), 1e-12))
    checks.append(Check("affine: associativity", associativity_defect(G, g, h, l), 1e-12))
    checks.append(Check("affine: modular homomorphism", modular_homomorphism_defect(G, g, h), 1e-12))

    grid = haar_grid(G, [(-8, 8), (np.exp(-3), np.exp(3))], [256, 384])
    test_fn = lambda nodes: np.exp(-nodes[..., 0] ** 2 / 0.5) * np.exp(
        -np.log(nodes[..., 1]) ** 2 / 0.18
    )
    checks.append(
        Check(
            "affine: Haar left invariance",
            left_invariance_defect(G, np.array([0.3, 1.2]), grid, test_fn),
            1e-6,
        )
    )
    est = modular_quadrature_estimate(G, np.array([0.0, 2.0]), grid, test_fn)
    checks.append(Check("affine: modular function by quadrature", abs(est - 0.5) / 0.5, 1e-5))

    worst_u = worst_c = 0.0
    psi = s["morlet"]
    for _ in range(25):
        g = np.array([rng.uniform(-1.5, 1.5), np.exp(rng.uniform(-0.55, 0.55))])
        h = np.array([rng.uniform(-1.5, 1.5), np.exp(rng.uniform(-0.55, 0.55))])
        worst_u = max(worst_u, abs(norm(setup.rep.act(g, psi)) - 1.0))
        lhs = setup.rep.act(g, setup.rep.act(h, psi))
        rhs = setup.rep.act(G.product(g, h), psi)
        worst_c = max(worst_c, _state_diff(lhs, rhs))
    checks.append(Check("affine rep: unitarity", worst_u, 1e-6))
    checks.append(Check("affine rep: composition", worst_c, 1e-6))

    # audit of the closed-form kappa = sqrt(pi) by a quadrature fit
    dm = duflo_moore("affine")
    cal = calibrate_affine_dm(
        setup.rep, [(s["dog2"], s["dog2"]), (s["dog4"], s["gauss_mod"])], setup.x_grid
    )
    per_pair = cal["kappa_per_pair"]
    checks.append(
        Check(
            "affine DM: calibration pair consistency",
            abs(per_pair[0] - per_pair[1]) / cal["kappa"],
            1e-2,
        )
    )
    checks.append(
        Check("affine DM: fitted kappa vs sqrt(pi)", abs(cal["kappa"] / dm.meta["kappa"] - 1.0), 5e-3)
    )

    grids = configs.affine_nested_grids(setup, levels=6)
    rep_m = admissibility(setup.rep, s["morlet"], grids)
    psi_hat = fourier_plancherel(s["morlet"])
    w, dw = psi_hat.grid.axis(0), psi_hat.grid.spacings[0]
    oracle = float(np.sum(np.abs(psi_hat.samples) ** 2 * dm.symbol_values(w, dw) ** 2) * dw)
    checks.append(
        Check(
            "admissibility: morlet admissible (frequency oracle)",
            abs((rep_m.dm_norm_sq or np.inf) - oracle) / oracle
            if rep_m.admissible
            else np.inf,
            0.02,
        )
    )
    rep_g = admissibility(setup.rep, s["gauss"], grids)
    checks.append(
        Check(
            "admissibility: gaussian flagged divergent",
            0.0 if rep_g.status == "divergent" else 1.0,
            0.0,
        )
    )

    _, _, rel = orthogonality_check(
        setup.rep, s["morlet"], s["morlet"], s["gauss_mod3"], s["gauss_mod3"], dm, setup.x_grid
    )
    checks.append(Check("affine: orthogonality (validation pair)", rel, 1e-2))

    for a in (0.5, 2.0):
        d = semi_invariance_check(setup.rep, dm, np.array([0.0, a]), [s["morlet"]])
        checks.append(Check(f"affine: semi-invariance a={a}", d, 1e-6))

    dmn = dm.norm_of(psi)
    res = analyze(setup.rep, psi, s["signal"], setup.x_grid, dm_norm=dmn)
    back = synthesize(res, setup.rep, psi)
    checks.append(
        Check(
            "affine: wavelet round trip",
            _state_diff(back, s["signal"]) / norm(s["signal"]),
            5e-2,
        )
    )
    return checks


# ---------------------------------------------------------------------------
# Exotic suite
# ---------------------------------------------------------------------------


def exotic_suite(seed: int = 0) -> list[Check]:
    rng = np.random.default_rng(seed + 2)
    setup = configs.exotic_setup()
    s = setup.states
    checks = []

    G = setup.group
    X = setup.x_group
    for D in (G, X):
        pts = random_chart_points(D, rng, 1000)
        g, h, l = (random_chart_points(D, rng, 1000) for _ in range(3))
        checks.append(Check(f"{D.name}: identity", identity_defect(D, pts), 1e-12))
        checks.append(Check(f"{D.name}: inverse", inverse_defect(D, pts), 1e-12))
        checks.append(Check(f"{D.name}: associativity", associativity_defect(D, g, h, l), 1e-12))
        checks.append(Check(f"{D.name}: modular homomorphism", modular_homomorphism_defect(D, g, h), 1e-12))

    # Delta_X = a^{-1} by Haar quadrature on the (b, a) block
    xg = haar_grid(
        X,
        [(-0.1, 0.1), (-0.1, 0.1), (-8, 8), (np.exp(-3), np.exp(3))],
        [2, 2, 384, 384],
    )
    f_ba = lambda nodes: np.exp(-nodes[..., 2] ** 2 / 0.5) * np.exp(
        -np.log(nodes[..., 3]) ** 2 / 0.18
    )
    est = modular_quadrature_estimate(X, np.array([0.0, 0.0, 0.4, 1.7]), xg, f_ba)
    checks.append(Check("exotic quotient: Delta_X = 1/a by quadrature", abs(est * 1.7 - 1.0), 1e-6))

    m = setup.proj.multiplier
    checks.append(Check("exotic multiplier: cocycle identity", check_cocycle(m, 300, rng), 1e-12))
    x1 = random_chart_points(X, rng, 100)
    x2 = random_chart_points(X, rng, 100)
    kap = kappa_from_section(setup.section, x1, x2)  # raises on membership failure
    ref = -np.sum(x1[..., 1:2] * x2[..., 0:1], axis=-1)
    checks.append(Check("exotic kappa_s: K membership + value", float(np.max(np.abs(kap[..., 0] - ref))), 1e-12))

    psi = s["psi"]
    k_el = np.array([0.9, 0.5, 0, 0, 0, 0.7, 1.0])
    scalar = _state_diff(
        setup.rep.act(k_el, psi), psi.with_samples(np.exp(1j * 0.9) * psi.samples)
    )
    checks.append(Check("exotic rep: scalar action of T x S x R", scalar, 1e-12))

    worst_u = 0.0
    for _ in range(15):
        g = np.zeros(7)
        g[0], g[1], g[2] = rng.uniform(-1, 1, 3)
        g[3], g[4], g[5] = rng.uniform(-1, 1, 3)
        g[6] = np.exp(rng.uniform(-0.3, 0.3))
        worst_u = max(worst_u, abs(norm(setup.rep.act(g, psi)) - 1.0))
    checks.append(Check("exotic rep: unitarity", worst_u, 1e-6))

    dm = duflo_moore("exotic")
    checks.append(Check("exotic DM: symbol at bcheck=4", float(abs(dm.symbol_values(np.array([4.0]))[0] - 0.5)), 1e-12))
    bseq = 2.0 ** (-np.arange(8.0)) * setup.state_grid.axis(0)[8]
    syms = dm.symbol_values(bseq)
    growth = float(np.min(syms[1:] / syms[:-1]))
    checks.append(Check("exotic DM: unbounded symbol growth", 0.0 if growth >= np.sqrt(2.0) - 1e-12 else 1.0, 0.0))

    # the cross pair reuses c(psi, phi) of the diagonal pair
    c11 = analyze(setup.proj, s["psi"], s["phi"], setup.x_grid).coefficients
    c22 = analyze(setup.proj, s["psi2"], s["phi2"], setup.x_grid).coefficients
    _, _, rel = orthogonality_relation(c11, c11, s["psi"], s["psi"], s["phi"], s["phi"], dm, setup.x_grid)
    checks.append(Check("exotic: orthogonality relation", rel, 5e-2))
    _, _, rel2 = orthogonality_relation(c11, c22, s["psi"], s["psi2"], s["phi"], s["phi2"], dm, setup.x_grid)
    checks.append(Check("exotic: orthogonality (cross pair)", rel2, 5e-2))

    grid = haar_grid(X, [(-3, 3), (-2, 2), (-3, 3), (0.5, 2.0)], [6, 5, 6, 6], log_axes=(3,))
    gauge = _section_gauge_defect(setup.rep, setup.section_prime, s["psi"], s["phi"], grid, rng)
    checks.append(Check("section gauge: s_tw vs literal action", gauge, 1e-12))

    return checks


SUITE_NAMES = {
    "wh": gabor_suite,
    "affine": affine_suite,
    "exotic": exotic_suite,
}


def _psi_status_check(psi_kind: str) -> Check:
    """Admissibility status for a user-selected analyzing vector.  A definite
    verdict either way is a pass: 'not admissible' is the expected-negative
    outcome for vectors violating the zero-mean condition."""
    setup = configs.affine_setup()
    psi = setup.states["morlet" if psi_kind == "morlet" else "gauss"]
    grids = configs.affine_nested_grids(setup, levels=5)
    rep = admissibility(setup.rep, psi, grids)
    definite = rep.status in ("admissible", "divergent")
    return Check(
        f"requested psi ({psi_kind}): admissibility status = {rep.status}",
        0.0 if definite else 1.0,
        0.0,
    )


def run_suites(groups: list[str], seed: int = 0, psi_kind: str | None = None) -> dict:
    report: dict = {"seed": seed, "groups": {}}
    all_passed = True
    for name in groups:
        checks = SUITE_NAMES[name](seed)
        if name == "affine" and psi_kind is not None:
            checks.append(_psi_status_check(psi_kind))
        report["groups"][name] = [c.as_dict() for c in checks]
        all_passed &= all(c.passed for c in checks)
    report["all_passed"] = bool(all_passed)
    report["n_checks"] = sum(len(v) for v in report["groups"].values())
    return report
