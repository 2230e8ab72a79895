import numpy as np
import pytest

from groupwave import configs, groups
from groupwave.groups import haar_grid
from groupwave.configs import affine_nested_grids
from groupwave.representations import projective_from_section
from groupwave.measures import make_rho
from groupwave.states import (
    DiscretizedState,
    fourier_plancherel,
    norm,
    random_bandlimited_state,
)
from groupwave.transforms import (
    _shell_fraction,
    admissibility,
    analyze,
    calibrate_affine_dm,
    duflo_moore,
    kernel,
    load_result_csv,
    mod_K_equiv_check,
    orthogonality_check,
    orthogonality_relation,
    reproduce_check,
    save_result_csv,
    semi_invariance_check,
    synthesize,
)


def sdiff(a, b):
    return norm(DiscretizedState(a.samples - b.samples, a.grid))


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_rejects_zero_psi(gabor):
    zero = DiscretizedState(
        np.zeros(gabor.state_grid.counts, dtype=complex), gabor.state_grid
    )
    with pytest.raises(ValueError, match="nonzero"):
        analyze(gabor.proj, zero, gabor.states["gauss"], gabor.x_grid)


def test_analyze_zero_phi_gives_zero(gabor):
    zero = DiscretizedState(
        np.zeros(gabor.state_grid.counts, dtype=complex), gabor.state_grid
    )
    res = analyze(gabor.proj, gabor.states["gauss"], zero, gabor.x_grid)
    assert np.max(np.abs(res.coefficients)) == 0.0


def test_analyze_gabor_closed_form(gabor):
    res = analyze(gabor.proj, gabor.states["gauss"], gabor.states["gauss"], gabor.x_grid)
    nodes = gabor.x_grid.nodes
    expected = np.exp(-np.sum(nodes ** 2, axis=-1) / 4.0)
    assert np.max(np.abs(np.abs(res.coefficients) - expected)) < 1e-6


def test_analyze_energy_bound_and_metadata(gabor):
    res = analyze(
        gabor.proj, gabor.states["gauss"], gabor.states["hermite2"], gabor.x_grid,
        dm_norm=1.0,
    )
    assert res.energy() <= 1.0 + 1e-3  # ||D psi||^2 ||phi||^2 (1 + tol)
    assert res.meta["shell_fraction"] < 1e-3 / 10.0
    assert res.meta["clipped"] is False


def test_analyze_clips_to_safe_box(gabor, caplog):
    wide = haar_grid(gabor.x_group, [(-30, 30)] * 2, [64] * 2)
    with caplog.at_level("WARNING", logger="groupwave"):
        res = analyze(gabor.proj, gabor.states["gauss"], gabor.states["gauss"], wide)
    assert res.meta["clipped"] is True
    assert res.grid.box[1][1] <= 8.0  # q clipped to the state box halfwidth
    messages = [r.getMessage() for r in caplog.records if r.name == "groupwave"]
    assert len(messages) == 1
    assert gabor.proj.label in messages[0]
    assert str(list(wide.box)) in messages[0] and str(list(res.grid.box)) in messages[0]


# ---------------------------------------------------------------------------
# Duflo-Moore operators
# ---------------------------------------------------------------------------


def test_gabor_dm_is_identity(gabor):
    dm = duflo_moore("gabor")
    psi = gabor.states["mix"]
    assert sdiff(dm.apply(psi), psi) == 0.0
    assert dm.norm_of(psi) == norm(psi)


def test_affine_calibration_constants(affine):
    s = affine.states
    cal = calibrate_affine_dm(
        affine.rep,
        [(s["dog2"], s["dog2"]), (s["dog4"], s["gauss_mod"])],
        affine.x_grid,
    )
    k1, k2 = cal["kappa_per_pair"]
    assert abs(k1 - k2) / cal["kappa"] < 0.01
    # the analytic value for haar = a^{-2} db da is sqrt(pi)
    assert cal["kappa"] == pytest.approx(np.sqrt(np.pi), rel=5e-3)


def test_affine_dm_kappa_is_closed_form():
    assert duflo_moore("affine").meta["kappa"] == np.sqrt(np.pi)


def test_affine_dm_needs_no_fit(affine, monkeypatch):
    import groupwave.configs
    import groupwave.transforms

    def refuse(*args, **kwargs):
        raise AssertionError("duflo_moore('affine') must not fit kappa")

    monkeypatch.setattr(groupwave.configs, "affine_setup", refuse)
    monkeypatch.setattr(groupwave.transforms, "analyze", refuse)
    dm = duflo_moore("affine")
    psi_hat = fourier_plancherel(affine.states["morlet"])
    w, dw = psi_hat.grid.axis(0), psi_hat.grid.spacings[0]
    assert np.all(dm.symbol_values(w, dw) > 0)


def test_exotic_dm_symbol(exotic):
    dm = duflo_moore("exotic")
    assert float(dm.symbol_values(np.array([4.0]))[0]) == 0.5
    bseq = 2.0 ** (-np.arange(8.0)) * 4.0
    syms = dm.symbol_values(bseq)
    ratios = syms[1:] / syms[:-1]
    assert np.all(ratios >= np.sqrt(2.0) - 1e-12)
    with pytest.raises(ValueError):
        dm.symbol_values(np.array([-1.0]))


def test_dm_positive_injective_on_grids(affine, exotic):
    dma = duflo_moore("affine")
    spec_grid = fourier_plancherel(affine.states["morlet"]).grid
    sym = dma.symbol_values(spec_grid.axis(0), spec_grid.spacings[0])
    assert np.all(sym > 0) and np.all(np.isfinite(sym))
    dme = duflo_moore("exotic")
    sym_e = dme.symbol_values(exotic.state_grid.axis(0))
    assert np.all(sym_e > 0) and np.all(np.isfinite(sym_e))


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def test_affine_admissibility_dichotomy(affine):
    grids = affine_nested_grids(affine, levels=6)
    dm = duflo_moore("affine")
    rep_m = admissibility(affine.rep, affine.states["morlet"], grids)
    assert rep_m.admissible is True
    psi_hat = fourier_plancherel(affine.states["morlet"])
    w, dw = psi_hat.grid.axis(0), psi_hat.grid.spacings[0]
    oracle = float(np.sum(np.abs(psi_hat.samples) ** 2 * dm.symbol_values(w, dw) ** 2) * dw)
    assert rep_m.dm_norm_sq == pytest.approx(oracle, rel=0.02)

    rep_g = admissibility(affine.rep, affine.states["gauss"], grids)
    assert rep_g.admissible is False
    assert rep_g.status == "divergent"
    assert rep_g.dm_norm_sq is None
    # increments do not decay for the gaussian
    assert abs(rep_g.increments[-1]) > 0.5 * abs(rep_g.increments[1])


def test_admissibility_inconclusive_status(affine):
    grids = affine_nested_grids(affine, levels=2)
    report = admissibility(affine.rep, affine.states["gauss"], grids, rel_tol=1e-12)
    assert report.admissible is None
    assert report.status == "inconclusive"


def test_gabor_everything_admissible(gabor, rng):
    # on the unimodular quotient any nonzero vector is admissible
    grids = [
        haar_grid(gabor.x_group, [(-L, L)] * 2, [int(8 * L)] * 2)
        for L in (4.0, 6.0, 8.0)
    ]
    psi = random_bandlimited_state(gabor.state_grid, rng, band_fraction=0.05,
                                   envelope_width=1.2)
    report = admissibility(gabor.proj, psi, grids, mode="nested")
    assert report.admissible is True
    assert report.dm_norm_sq == pytest.approx(norm(psi) ** 2, rel=1e-3)


def _shell_fraction_node_mask(coefficients, grid):
    """Reference: the outer-shell mask tested node by node."""
    outer = np.zeros(grid.n_nodes, dtype=bool)
    for i, (lo, hi) in enumerate(grid.box):
        width = hi - lo
        outer |= grid.nodes[:, i] < lo + 0.05 * width
        outer |= grid.nodes[:, i] > hi - 0.05 * width
    total = float(np.sum(np.abs(coefficients) ** 2 * grid.weights))
    if total == 0.0:
        return 0.0
    return float(np.sum((np.abs(coefficients) ** 2 * grid.weights)[outer])) / total


@pytest.mark.parametrize("case", ["gabor_x", "wh_3d", "affine_log_axis"])
def test_shell_fraction_matches_node_mask(case, gabor, affine, rng):
    grid = {
        "gabor_x": gabor.x_grid,
        "wh_3d": haar_grid(gabor.group, [(-3, 5), (-2, 2), (-4, 1)], [12, 10, 8]),
        "affine_log_axis": affine.x_grid,
    }[case]
    c = rng.standard_normal(grid.n_nodes) + 1j * rng.standard_normal(grid.n_nodes)
    assert _shell_fraction(np.abs(c) ** 2 * grid.weights, grid) == _shell_fraction_node_mask(c, grid)
    assert _shell_fraction(np.zeros(grid.n_nodes), grid) == 0.0


# ---------------------------------------------------------------------------
# orthogonality
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("config, psi_name, phi_name",
                         [("gabor", "gauss", "hermite2"), ("affine", "morlet", "gauss_mod3")])
def test_orthogonality_check_identical_pair_matches_two_analyses(config, psi_name, phi_name,
                                                                 request):
    """An identical pair is analyzed once; the result is exactly that of two
    independent analyses fed to the relation."""
    setup = request.getfixturevalue(config)
    rep = setup.proj if config == "gabor" else setup.rep
    psi, phi = setup.states[psi_name], setup.states[phi_name]
    dm = duflo_moore(config)
    c1 = analyze(rep, psi, phi, setup.x_grid).coefficients
    c2 = analyze(rep, psi, phi, setup.x_grid).coefficients
    lhs = complex(np.sum(np.conj(c1) * c2 * setup.x_grid.weights))
    expected = orthogonality_relation(c1, c2, psi, psi, phi, phi, dm, setup.x_grid)
    assert expected[0] == lhs
    assert orthogonality_check(rep, psi, psi, phi, phi, dm, setup.x_grid) == expected


def test_gabor_orthogonality_pairs(gabor):
    dm = duflo_moore("gabor")
    s = gabor.states
    pairs = [
        (s["gauss"], s["gauss"], s["gauss"], s["gauss"]),
        (s["hermite1"], s["hermite1"], s["hermite2"], s["hermite2"]),
        (s["mix"], s["mix"], s["hermite2"], s["hermite2"]),
        (s["gauss"], s["hermite1"], s["hermite1"], s["gauss"]),
    ]
    for p1, p2, f1, f2 in pairs:
        lhs, rhs, rel = orthogonality_check(gabor.proj, p1, p2, f1, f2, dm, gabor.x_grid)
        assert rel < 1e-3


def test_orthogonal_phis_give_zero(gabor):
    dm = duflo_moore("gabor")
    s = gabor.states
    lhs, rhs, rel = orthogonality_check(
        gabor.proj, s["gauss"], s["gauss"], s["gauss"], s["hermite1"], dm, gabor.x_grid
    )
    assert abs(rhs) < 1e-14
    assert abs(lhs) < 1e-10


def test_orthogonality_bilinearity(gabor):
    """lhs is linear in phi2 and conjugate-linear in phi1 (superposition)."""
    dm = duflo_moore("gabor")
    s = gabor.states
    psi = s["gauss"]

    def lhs_of(f1, f2):
        lhs, _, _ = orthogonality_check(gabor.proj, psi, psi, f1, f2, dm, gabor.x_grid)
        return lhs

    a, b = 0.6, 0.8j
    combo = DiscretizedState(
        a * s["gauss"].samples + b * s["hermite1"].samples, gabor.state_grid
    )
    direct = lhs_of(s["hermite2"], combo)
    split = a * lhs_of(s["hermite2"], s["gauss"]) + b * lhs_of(s["hermite2"], s["hermite1"])
    assert direct == pytest.approx(split, abs=1e-10)
    direct1 = lhs_of(combo, s["hermite2"])
    split1 = np.conj(a) * lhs_of(s["gauss"], s["hermite2"]) + np.conj(b) * lhs_of(
        s["hermite1"], s["hermite2"]
    )
    assert direct1 == pytest.approx(split1, abs=1e-10)


def test_affine_orthogonality_validation_pair(affine):
    dm = duflo_moore("affine")
    s = affine.states
    _, _, rel = orthogonality_check(
        affine.rep, s["morlet"], s["morlet"], s["gauss_mod3"], s["gauss_mod3"], dm, affine.x_grid
    )
    assert rel < 1e-2


def test_exotic_orthogonality(exotic):
    dm = duflo_moore("exotic")
    s = exotic.states
    _, _, rel = orthogonality_check(exotic.proj, s["psi"], s["psi"], s["phi"], s["phi"], dm, exotic.x_grid)
    assert rel < 5e-2
    _, _, rel2 = orthogonality_check(exotic.proj, s["psi"], s["psi2"], s["phi"], s["phi2"], dm, exotic.x_grid)
    assert rel2 < 5e-2


# ---------------------------------------------------------------------------
# kernel / reproduction / synthesis
# ---------------------------------------------------------------------------


def test_kernel_diagonal_and_symmetry(gabor):
    psi = gabor.states["gauss"]
    dmn = 1.0
    g1, g2 = np.array([1.0, 0.5]), np.array([-0.4, 1.2])
    diag = kernel(gabor.proj, psi, g1, g1, dmn)
    assert diag.imag == pytest.approx(0.0, abs=1e-14)
    assert diag.real == pytest.approx(norm(psi) ** 2, abs=1e-12)
    assert kernel(gabor.proj, psi, g1, g2, dmn) == pytest.approx(
        np.conj(kernel(gabor.proj, psi, g2, g1, dmn)), abs=1e-12
    )


def test_reproduce_check_and_determinism(gabor):
    psi = gabor.states["gauss"]
    res = analyze(gabor.proj, psi, gabor.states["hermite2"], gabor.x_grid, dm_norm=1.0)
    d1 = reproduce_check(res, gabor.proj, psi, sample_count=16)
    d2 = reproduce_check(res, gabor.proj, psi, sample_count=16)
    assert d1 < 1e-2
    assert d1 == d2  # pure function of its inputs


def test_reproduce_requires_dm_norm(gabor):
    res = analyze(gabor.proj, gabor.states["gauss"], gabor.states["gauss"], gabor.x_grid)
    with pytest.raises(ValueError, match="dm_norm"):
        reproduce_check(res, gabor.proj, gabor.states["gauss"])


def test_synthesize_zero_and_round_trip(gabor, rng):
    psi = gabor.states["gauss"]
    res = analyze(gabor.proj, psi, gabor.states["hermite2"], gabor.x_grid, dm_norm=1.0)
    zeroed = analyze(gabor.proj, psi, gabor.states["hermite2"], gabor.x_grid, dm_norm=1.0)
    zeroed.coefficients = np.zeros_like(zeroed.coefficients)
    out = synthesize(zeroed, gabor.proj, psi)
    assert norm(out) == 0.0

    back = synthesize(res, gabor.proj, psi)
    assert sdiff(back, gabor.states["hermite2"]) < 1e-2

    phi = random_bandlimited_state(gabor.state_grid, rng, band_fraction=0.08,
                                   envelope_width=2.0)
    res2 = analyze(gabor.proj, psi, phi, gabor.x_grid, dm_norm=1.0)
    back2 = synthesize(res2, gabor.proj, psi)
    assert sdiff(back2, phi) / norm(phi) < 1e-2


def test_affine_round_trip(affine):
    psi = affine.states["morlet"]
    dm = duflo_moore("affine")
    res = analyze(affine.rep, psi, affine.states["signal"], affine.x_grid,
                  dm_norm=dm.norm_of(psi))
    back = synthesize(res, affine.rep, psi)
    assert sdiff(back, affine.states["signal"]) / norm(affine.states["signal"]) < 5e-2


def test_synthesize_requires_dm_norm(gabor):
    res = analyze(gabor.proj, gabor.states["gauss"], gabor.states["gauss"], gabor.x_grid)
    with pytest.raises(ValueError, match="dm_norm"):
        synthesize(res, gabor.proj, gabor.states["gauss"])


@pytest.mark.parametrize(
    "config",
    ["gabor", "affine", "affine_n2", "gabor_n2", "exotic", "exotic_bundled", "gabor_s_sym",
     "exotic_s_tw", "lift_standard", "lift_starred", "lift_s_sym"],
)
def test_fast_adjoint_matches_generic(config, gabor, affine, affine_n2, gabor_n2, exotic,
                                      gauged_and_lifted, per_node):
    from groupwave.states import gaussian_state, inner

    tol = 1e-12
    if config == "gabor":
        rep, psi, phi = gabor.proj, gabor.states["gauss"], gabor.states["hermite1"]
        grid = haar_grid(gabor.x_group, [(-4, 4)] * 2, [10] * 2)
        dm_norm, tol = 1.0, 1e-13
    elif config == "affine":
        rep, psi, phi = affine.rep, affine.states["morlet"], affine.states["signal"]
        grid = haar_grid(affine.group, [(-3, 3), (0.5, 2.5)], [8, 6], log_axes=(1,))
        dm_norm = duflo_moore("affine").norm_of(psi)
    elif config == "affine_n2":
        rep, psi, phi, grid = affine_n2
        dm_norm = 1.0
    elif config == "gabor_n2":
        rep, grid = gabor_n2.proj, gabor_n2.x_grid
        psi = gaussian_state(gabor_n2.state_grid)
        phi = gaussian_state(gabor_n2.state_grid, center=[0.4, -0.3], momentum=[0.5, 0.2])
        dm_norm = 1.0
    elif config in gauged_and_lifted:
        rep, psi, phi, grid = gauged_and_lifted[config]
        dm_norm = 1.0
    else:
        rep, psi, phi = exotic.proj, exotic.states["psi"], exotic.states["phi"]
        grid = haar_grid(
            exotic.x_group,
            [(-3, 3), (-2, 2), (-3, 3), (0.5, 2.0)],
            [5, 4, 5, 4],
            log_axes=(3,),
        )
        dm_norm = duflo_moore("exotic").norm_of(psi)
    if config == "exotic_bundled":
        # 2.9 M nodes: node by node this takes about 3,000 s, so it is checked
        # by the adjoint identity <phi, S(A phi)> ||D psi||^2 = sum w |c|^2
        res = analyze(rep, psi, phi, exotic.x_grid, dm_norm=dm_norm)
        back = synthesize(res, rep, psi)
        identity = inner(phi, back) * dm_norm ** 2
        assert abs(identity - res.energy()) / res.energy() < 1e-9
        return
    res = analyze(rep, psi, phi, grid, dm_norm=dm_norm)
    fast = synthesize(res, rep, psi)
    slow = per_node.adjoint(rep, res.coefficients, res.grid, psi).samples / dm_norm ** 2
    assert np.max(np.abs(fast.samples - slow)) < tol


def test_lift_grid_clipped_to_safe_box(gabor, caplog):
    from groupwave.representations import lift_to_extension

    lift = lift_to_extension(gabor.proj)
    p_max = lift.safe_box[1][1]
    grid = haar_grid(lift.group, [(-1, 1), (-2 * p_max, 2 * p_max), (-2, 2)], [2, 3, 3])
    psi = gabor.states["gauss"]
    with caplog.at_level("WARNING", logger="groupwave"):
        res = analyze(lift, psi, gabor.states["hermite1"], grid, dm_norm=1.0)
    messages = [r.getMessage() for r in caplog.records if r.name == "groupwave"]
    assert len(messages) == 1 and lift.label in messages[0] and "clipped" in messages[0]
    assert res.meta["clipped"] and res.grid.box[1] == (-p_max, p_max)
    assert res.grid.box[0] == (-1, 1) and res.grid.box[2] == (-2, 2)


def test_bundled_configurations_run_batched(gabor, affine, exotic, gabor_n2, caplog):
    small = {
        "gabor": (gabor.proj, gabor.states["gauss"],
                  haar_grid(gabor.x_group, [(-4, 4)] * 2, [6] * 2)),
        "gabor_full_chart": (gabor.rep, gabor.states["gauss"],
                             haar_grid(gabor.group, [(-2, 2)] + [(-4, 4)] * 2, [3, 6, 6])),
        "gabor_n2": (gabor_n2.proj, DiscretizedState(
            np.ones(gabor_n2.state_grid.counts, dtype=complex), gabor_n2.state_grid),
            gabor_n2.x_grid),
        "affine": (affine.rep, affine.states["morlet"],
                   haar_grid(affine.group, [(-3, 3), (0.5, 2.5)], [4, 3], log_axes=(1,))),
        "exotic": (exotic.proj, exotic.states["psi"],
                   haar_grid(exotic.x_group, [(-3, 3), (-2, 2), (-3, 3), (0.5, 2.0)],
                             [2, 2, 2, 2], log_axes=(3,))),
        "exotic_full_chart": (exotic.rep, exotic.states["psi"],
                              haar_grid(exotic.group, [(-1, 1)] * 6 + [(0.5, 2.0)],
                                        [2] * 7, log_axes=(6,))),
    }
    with caplog.at_level("WARNING", logger="groupwave"):
        for rep, psi, grid in small.values():
            res = analyze(rep, psi, psi, grid, dm_norm=1.0)
            synthesize(res, rep, psi)
    assert [r for r in caplog.records if r.name == "groupwave"] == []


# ---------------------------------------------------------------------------
# semi-invariance
# ---------------------------------------------------------------------------


def test_semi_invariance_identity_and_gabor(gabor):
    dm = duflo_moore("gabor")
    d = semi_invariance_check(
        gabor.rep, dm, gabor.group.identity, [gabor.states["mix"]]
    )
    assert d < 1e-12
    # unimodular: both sides equal D for any group element
    g = np.array([0.3, 0.8, -0.5])
    d2 = semi_invariance_check(gabor.rep, dm, g, [gabor.states["gauss"]])
    assert d2 < 1e-10


def test_affine_semi_invariance(affine):
    dm = duflo_moore("affine")
    tests = [affine.states["morlet"]]
    for a in (0.5, 2.0):
        assert semi_invariance_check(affine.rep, dm, np.array([0.0, a]), tests) < 1e-6
    assert semi_invariance_check(affine.rep, dm, np.array([1.2, 2.0]), tests) < 1e-6


# ---------------------------------------------------------------------------
# modulo-K equivalence
# ---------------------------------------------------------------------------


def test_mod_K_equivalence_and_rho_swap(gabor):
    sub = gabor.subgroup
    g_grid = haar_grid(gabor.group, [(-8, 8), (-6, 6), (-6, 6)], [512, 24, 24])
    x_grid = haar_grid(gabor.x_group, [(-6, 6)] * 2, [24] * 2)
    rho_g = make_rho("gaussian", sub)
    rho_b = make_rho("bump", sub)
    psi, phi = gabor.states["gauss"], gabor.states["hermite1"]
    lhs, rhs, rel = mod_K_equiv_check(
        gabor.rep, rho_g, psi, phi, g_grid, x_grid, gabor.proj
    )
    assert rel < 1e-10
    lhs_b, _, rel_b = mod_K_equiv_check(
        gabor.rep, rho_b, psi, phi, g_grid, x_grid, gabor.proj
    )
    assert rel_b < 1e-10
    assert abs(lhs - lhs_b) / abs(lhs) < 1e-10


def test_mod_K_zero_phi(gabor):
    sub = gabor.subgroup
    zero = DiscretizedState(
        np.zeros(gabor.state_grid.counts, dtype=complex), gabor.state_grid
    )
    g_grid = haar_grid(gabor.group, [(-4, 4), (-3, 3), (-3, 3)], [32, 8, 8])
    x_grid = haar_grid(gabor.x_group, [(-3, 3)] * 2, [8] * 2)
    rho = make_rho("gaussian", sub)
    lhs, rhs, _ = mod_K_equiv_check(
        gabor.rep, rho, gabor.states["gauss"], zero,
        g_grid, x_grid, gabor.proj,
    )
    assert lhs == 0.0 and rhs == 0.0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_energy_bounded_by_orthogonality_rhs(affine, exotic):
    """Truncated quadrature never exceeds ||D psi||^2 ||phi||^2 beyond the
    configuration's isometry tolerance."""
    dm_a = duflo_moore("affine")
    psi, phi = affine.states["morlet"], affine.states["gauss_mod3"]
    res = analyze(affine.rep, psi, phi, affine.x_grid)
    bound = dm_a.norm_of(psi) ** 2 * norm(phi) ** 2
    assert res.energy() <= bound * (1 + 5e-2)
    assert res.energy() == pytest.approx(bound, rel=5e-2)

    dm_e = duflo_moore("exotic")
    psi_e, phi_e = exotic.states["psi"], exotic.states["phi"]
    res_e = analyze(exotic.proj, psi_e, phi_e, exotic.x_grid)
    bound_e = dm_e.norm_of(psi_e) ** 2 * norm(phi_e) ** 2
    assert res_e.energy() <= bound_e * (1 + 5e-2)
    assert res_e.energy() == pytest.approx(bound_e, rel=5e-2)


def test_result_csv_round_trip(gabor, tmp_path):
    res = analyze(
        gabor.proj, gabor.states["gauss"], gabor.states["hermite1"], gabor.x_grid,
        dm_norm=1.0,
    )
    prefix = str(tmp_path / "coef")
    save_result_csv(prefix, res)
    loaded = load_result_csv(prefix, gabor.x_grid)
    assert np.max(np.abs(loaded.coefficients - res.coefficients)) < 1e-15
    assert loaded.dm_norm == res.dm_norm
    assert loaded.rep_id == res.rep_id


def test_load_result_csv_restores_clipped_grid(gabor, tmp_path):
    """A clipped analysis keeps the resolution; loading it against the
    unclipped grid must still synthesize on the clipped grid."""
    wide = haar_grid(gabor.x_group, [(-30, 30)] * 2, [64] * 2)
    psi = gabor.states["gauss"]
    res = analyze(gabor.proj, psi, gabor.states["hermite1"], wide, dm_norm=1.0)
    assert res.meta["clipped"] is True
    prefix = str(tmp_path / "coef")
    save_result_csv(prefix, res)
    loaded = load_result_csv(prefix, wide)
    assert loaded.grid.box == res.grid.box
    assert np.array_equal(loaded.grid.weights, res.grid.weights)
    expected = synthesize(res, gabor.proj, psi)
    assert np.array_equal(synthesize(loaded, gabor.proj, psi).samples, expected.samples)


def _save_result_csv_rows(path, result):
    """Reference: the row-by-row coefficient writer."""
    dim = result.grid.nodes.shape[1]
    with open(path, "w") as fh:
        coord_names = ",".join(f"g{i}" for i in range(dim))
        fh.write(f"index,{coord_names},weight,re,im\n")
        for i in range(result.grid.n_nodes):
            coords = ",".join(f"{v:.17g}" for v in result.grid.nodes[i])
            c = result.coefficients[i]
            fh.write(
                f"{i},{coords},{result.grid.weights[i]:.17g},{c.real:.17g},{c.imag:.17g}\n"
            )


def test_result_csv_bytes_match_row_writer(gabor, affine, tmp_path):
    res = analyze(affine.rep, affine.states["morlet"], affine.states["signal"], affine.x_grid)
    # signed zeros, tiny and huge values and integers-as-floats keep their text
    res.coefficients[:6] = [0.0, -0.0 + 0j, 1e-300j, -1e300, 3.0 - 2j, complex(-0.0, -0.0)]
    gab = analyze(gabor.proj, gabor.states["gauss"], gabor.states["hermite1"], gabor.x_grid)
    for k, result in enumerate((res, gab)):
        prefix = str(tmp_path / f"coef{k}")
        save_result_csv(prefix, result)
        _save_result_csv_rows(tmp_path / f"ref{k}.csv", result)
        assert (tmp_path / f"coef{k}.csv").read_bytes() == (tmp_path / f"ref{k}.csv").read_bytes()


def test_load_result_csv_rejects_other_group(gabor, affine, tmp_path):
    res = analyze(gabor.proj, gabor.states["gauss"], gabor.states["hermite1"], gabor.x_grid)
    prefix = str(tmp_path / "coef")
    save_result_csv(prefix, res)
    with pytest.raises(ValueError, match="group"):
        load_result_csv(prefix, affine.x_grid)


def test_bundled_affine_grid_is_not_clipped(affine, caplog):
    with caplog.at_level("WARNING", logger="groupwave"):
        res = analyze(affine.rep, affine.states["morlet"], affine.states["morlet"], affine.x_grid)
    assert not res.meta["clipped"]
    assert [r for r in caplog.records if r.name == "groupwave"] == []


def test_exotic_analyze_leaves_nodes_unbuilt():
    """The engine works per chart axis and the gauge on node blocks: an
    analysis through the twisted section (the coordinate section's table plus
    the gauge) does not build the bundled exotic grid's 2.9 M x 4 node array."""
    setup = configs.exotic_setup()
    twisted = projective_from_section(setup.rep, setup.section_prime)
    res = analyze(twisted, setup.states["psi"], setup.states["phi"], setup.x_grid)
    assert res.grid is setup.x_grid
    assert "nodes" not in vars(setup.x_grid)


def test_sampled_checks_leave_nodes_unbuilt(gabor):
    """reproduce_check and the verify section-gauge check read their 16
    sampled nodes from the grid axes, not from the node array."""
    from groupwave.verify import _section_gauge_defect

    psi, phi = gabor.states["gauss"], gabor.states["hermite1"]
    grid = haar_grid(gabor.x_group, [(-4, 4)] * 2, [10] * 2)
    res = analyze(gabor.proj, psi, phi, grid, dm_norm=1.0)
    assert reproduce_check(res, gabor.proj, psi, sample_count=16) < 1e-2
    gauge = _section_gauge_defect(gabor.rep, gabor.section_prime, psi, phi, grid,
                                  np.random.default_rng(0))
    assert gauge < 1e-12
    assert "nodes" not in vars(grid)


def test_gauge_on_node_blocks_matches_whole_grid(exotic, monkeypatch):
    monkeypatch.setattr(groups, "BLOCK", 20)  # 5 blocks of one first-axis row
    twisted = projective_from_section(exotic.rep, exotic.section_prime)
    grid = haar_grid(exotic.x_group, [(-3, 3), (-2, 2), (-3, 3), (0.5, 2.0)], [5, 4, 5, 4],
                     log_axes=(3,))
    psi, phi = exotic.states["psi"], exotic.states["phi"]
    c = analyze(exotic.proj, psi, phi, grid).coefficients
    gamma = twisted.table.gauge(grid.nodes)
    assert np.array_equal(analyze(twisted, psi, phi, grid).coefficients, c * np.exp(-1j * gamma))
    back = twisted.fast_adjoint(c, grid, psi).samples
    expected = exotic.proj.fast_adjoint(c * np.exp(1j * gamma), grid, psi).samples
    assert np.max(np.abs(back - expected)) <= 1e-14 * np.max(np.abs(expected))
