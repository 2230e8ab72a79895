"""Verification suites behind the CLI: each suite runs a named list of
checks (measured defect vs threshold) over one of the bundled
configurations and reports everything as JSON-ready dictionaries.

All randomness is seeded from the run configuration and the seed is echoed
into the report, so repeated runs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
import logging
import os
import pickle
import threading
import traceback

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
    multiplier_from_section,
    similar,
)
from .representations import coefficient, displacement, projective_from_section, usable_cpus
from .states import DiscretizedState, fourier_plancherel, norm, translate, modulate
from .transforms import (
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

__all__ = ["Check", "run_suites", "SUITE_NAMES"]

_log = logging.getLogger("groupwave")


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


def _group_axiom_checks(G, rng, label=None) -> list[Check]:
    """Identity, inverse, associativity and modular homomorphism of G on
    seeded chart points, named "<label>: <axiom>" (label defaults to G.name)."""
    label = label or G.name
    pts = random_chart_points(G, rng, 1000)
    g, h, l = (random_chart_points(G, rng, 1000) for _ in range(3))
    return [
        Check(f"{label}: identity", identity_defect(G, pts), 1e-12),
        Check(f"{label}: inverse", inverse_defect(G, pts), 1e-12),
        Check(f"{label}: associativity", associativity_defect(G, g, h, l), 1e-12),
        Check(f"{label}: modular homomorphism", modular_homomorphism_defect(G, g, h), 1e-12),
    ]


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
        checks += _group_axiom_checks(G, rng)

    Hs = make_standard_wh(1)
    g, h = random_chart_points(Hs, rng, 1000), random_chart_points(Hs, rng, 1000)
    hom = np.max(
        np.abs(
            delta_iso(Hs.product(g, h))
            - setup.group.product(delta_iso(g), delta_iso(h))
        )
    )
    checks.append(Check("delta isomorphism: homomorphism", float(hom), 1e-12))

    # multipliers and sections
    m = setup.proj.multiplier
    pts = random_chart_points(setup.x_group, rng, 400)
    checks.append(Check("multiplier: normalization", check_normalization(m, pts), 1e-12))
    checks.append(Check("multiplier: cocycle identity", check_cocycle(m, 400, rng), 1e-12))
    m2 = multiplier_from_section(setup.section_prime)
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
    worst = max(rel for _, _, rel in orthogonality_check(setup.proj, pairs, dm, setup.x_grid))
    checks.append(Check("gabor: orthogonality relation", worst, 1e-3))

    res = analyze(setup.proj, s["gauss"], s["gauss"], setup.x_grid, dm_norm=1.0)
    checks.append(Check("gabor: energy ratio", abs(res.energy() - 1.0), 1e-3))
    nodes = setup.x_grid.nodes
    closed = np.max(
        np.abs(np.abs(res.coefficients) - np.exp(-np.sum(nodes ** 2, axis=-1) / 4.0))
    )
    checks.append(Check("gabor: closed-form gaussian overlap", float(closed), 1e-6))

    res_h = analyze(setup.proj, s["gauss"], s["hermite2"], setup.x_grid, dm_norm=1.0)
    checks.append(Check("gabor: kernel reproduction", reproduce_check(res_h, setup.proj, s["gauss"]), 1e-2))
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
    (lhs, _, rel), (lhs_b, _, _) = mod_K_equiv_check(
        setup.rep, [rho_g, rho_b], s["gauss"], s["hermite1"], gm, xm, setup.proj
    )
    checks.append(Check("modulo-K equivalence (gaussian rho)", rel, 1e-10))
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


def affine_suite(seed: int = 0, psi_kind: str | None = None) -> list[Check]:
    """The affine checks; with ``psi_kind`` (morlet or gaussian) the last
    check reports that analyzing vector's admissibility status from the
    suite's own report.  A definite verdict either way is a pass: 'divergent'
    is the expected-negative outcome for vectors violating the zero-mean
    condition."""
    rng = np.random.default_rng(seed + 1)
    setup = configs.affine_setup()
    s = setup.states
    checks = []

    G = setup.group
    checks += _group_axiom_checks(G, rng, "affine")

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

    grids = configs.affine_nested_grids(setup)
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

    [(_, _, rel)] = orthogonality_check(
        setup.rep, [(s["morlet"], s["morlet"], s["gauss_mod3"], s["gauss_mod3"])], dm, setup.x_grid
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
    if psi_kind is not None:
        status = (rep_m if psi_kind == "morlet" else rep_g).status
        definite = status in ("admissible", "divergent")
        checks.append(Check(f"requested psi ({psi_kind}): admissibility status = {status}",
                            0.0 if definite else 1.0, 0.0))
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
        checks += _group_axiom_checks(D, rng)

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

    # The orthogonality relations are limited by the box, not the
    # resolution: the bundled 40·32·48·48 grid gives 4.2e-6 / 5.9e-6, and
    # this grid, 1.2x its box at coarser spacing, 5.8e-7 / 6.0e-7 on 317 k
    # nodes; 1.25x this grid's resolution moves them by under 2 %.  Its box
    # stays inside the grid-safe box (|q| <= 8 binds), past which a grid raises.
    ortho_grid = haar_grid(
        X, [(-8.4, 8.4), (-7.2, 7.2), (-10.8, 10.8), (0.125, 8.0)], [24, 19, 29, 24],
        log_axes=(3,),
    )
    (_, _, rel), (_, _, rel2) = orthogonality_check(setup.proj, [
        (s["psi"], s["psi"], s["phi"], s["phi"]),
        (s["psi"], s["psi2"], s["phi"], s["phi2"]),
    ], dm, ortho_grid)
    checks.append(Check("exotic: orthogonality relation", rel, 5e-2))
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


class _ChildTraceback(Exception):
    """The traceback text of an exception raised in a suite child, chained
    as the cause of the exception re-raised in the parent."""

    def __str__(self) -> str:
        return self.args[0]


def _suite_checks(name: str, seed: int, psi_kind: str | None) -> list[dict]:
    suite = SUITE_NAMES[name]
    checks = suite(seed, psi_kind) if name == "affine" else suite(seed)
    return [c.as_dict() for c in checks]


def _portable(exc: BaseException) -> BaseException | None:
    """``exc`` as the parent would unpickle it, or None if it cannot be."""
    try:
        return pickle.loads(pickle.dumps(exc))
    except Exception:
        return None


def _child_main(names: list[str], seed: int, psi_kind: str | None, conn) -> None:
    """Body of a suite child: send ("checks", dicts) for each suite of
    ``names`` in order, or ("error", (exception, traceback text)) for the
    first one that raises, then leave by ``os._exit``, so no atexit handler,
    finaliser or stdio buffer inherited from the parent runs here."""
    code = 1
    try:
        for name in names:
            try:
                checks = _suite_checks(name, seed, psi_kind)
            except BaseException as exc:
                conn.send(("error", (_portable(exc), traceback.format_exc())))
                return
            conn.send(("checks", checks))
        code = 0
    finally:
        os._exit(code)


def _receive(name: str, proc, conn) -> list[dict]:
    """The check dicts of suite ``name`` from the child ``proc``; the
    child's exception is re-raised here, chained to its traceback."""
    try:
        kind, payload = conn.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(f"verify suite {name!r}: its child process exited with code "
                           f"{proc.exitcode} and sent no result") from None
    if kind == "checks":
        return payload
    exc, text = payload
    if exc is None:
        exc = RuntimeError(f"verify suite {name!r} raised an exception that cannot be pickled")
    raise exc from _ChildTraceback(f"in verify suite {name!r}, run in a child process:\n{text}")


def _can_fork(groups: list[str]) -> bool:
    """Whether the suites after the first may run in a forked child.  With
    one suite or one usable CPU a child gains nothing; every other reason to
    run serially (another live thread, a suite wrapped by an instrument such
    as a tracer or profiler, which ``functools.wraps`` marks with
    ``__wrapped__``, or no usable ``fork``) is logged at INFO.
    ``multiprocessing`` (about 4 ms) is imported here, never at import."""
    if len(groups) < 2 or usable_cpus() < 2:
        return False
    if threading.active_count() > 1:
        reason = "another thread is alive, and a forked child would keep the locks it holds"
    elif any(hasattr(SUITE_NAMES[name], "__wrapped__") for name in groups[1:]):
        reason = "a suite is instrumented, and what it records in a child would be lost"
    else:
        import multiprocessing

        if ("fork" in multiprocessing.get_all_start_methods()
                and not multiprocessing.current_process().daemon):
            return True
        reason = "this process cannot fork (no fork start method, or a daemonic worker)"
    _log.info("verify: running %s in this process: %s", ", ".join(groups), reason)
    return False


def _checks_by_suite(groups: list[str], seed: int, psi_kind: str | None) -> dict:
    """The check dicts of each suite of ``groups``.  The calling process
    runs the first suite while one child, forked before it, runs the
    others in order (see :func:`_can_fork`, else all run here).  One child
    is enough: on the default suites the first path (wh) is the longer, so
    more children would add processes, not speed.  The child is joined, or
    killed and joined, before this returns or raises."""
    if not _can_fork(groups):
        return {name: _suite_checks(name, seed, psi_kind) for name in groups}
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child_main, args=(groups[1:], seed, psi_kind, child_conn),
                       name="groupwave-verify")
    try:
        proc.start()
    except OSError as exc:
        _log.warning("verify: cannot start a suite child (%s); running %s in this "
                     "process", exc, ", ".join(groups[1:]))
        proc = None
    finally:
        child_conn.close()  # the child's copy alone: its exit shows here as EOF
    if proc is None:
        conn.close()
        return {name: _suite_checks(name, seed, psi_kind) for name in groups}
    try:
        out = {groups[0]: _suite_checks(groups[0], seed, psi_kind)}
        for name in groups[1:]:
            out[name] = _receive(name, proc, conn)
        proc.join()
    finally:
        if proc.exitcode is None:
            proc.kill()
        proc.join()
        conn.close()
    return out


def run_suites(groups: list[str], seed: int = 0, psi_kind: str | None = None) -> dict:
    """Run the suites ``groups`` (keys of ``SUITE_NAMES``) and return the
    report.  The suites share no state, so they run concurrently where
    :func:`_checks_by_suite` can fork; the report lists them in the order
    given and is byte-identical to a serial run's."""
    checks = _checks_by_suite(groups, seed, psi_kind)
    report: dict = {"seed": seed, "groups": {name: checks[name] for name in groups}}
    report["all_passed"] = all(c["passed"] for v in report["groups"].values() for c in v)
    report["n_checks"] = sum(len(v) for v in report["groups"].values())
    return report
