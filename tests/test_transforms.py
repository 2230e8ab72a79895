import dataclasses

import numpy as np
import pytest

from groupwave import configs, groups, representations, transforms, verify
from groupwave.groups import haar_grid
from groupwave.configs import affine_nested_grids
from groupwave.representations import ActionTable, GridSafetyError, projective_from_section
from groupwave.measures import make_rho
from groupwave.states import (
    DiscretizedState,
    centered_grid,
    fourier_plancherel,
    halfline_grid,
    inverse_fourier_plancherel,
    load_state_csv,
    norm,
    product_grid,
    product_state,
    random_bandlimited_state,
    save_state_csv,
)
from groupwave.transforms import (
    _energy_and_shell,
    admissibility,
    analyze,
    calibrate_affine_dm,
    coefficient_energy,
    duflo_moore,
    kernel,
    load_result_csv,
    mod_K_equiv_check,
    orthogonality_check,
    reproduce_check,
    save_result_csv,
    semi_invariance_check,
    synthesize,
)
from oracles import FLOAT_TEXT_EDGES


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
    assert set(res.meta) == {"energy", "shell_fraction"}


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


def _oracle_affine_symbol(w, h):
    with np.errstate(divide="ignore"):
        return np.sqrt(np.pi) * np.where(w != 0.0, np.abs(w) ** (-0.5),
                                         4.0 * np.sqrt(h / 2.0) / h)


def _oracle_dm(config, state):
    """The operator as three separate formulas: scalar * samples (Gabor),
    F^{-1} (ones * sigma) F (affine) and pointwise sigma along axis 0 (exotic)."""
    g = state.grid
    shape = [g.counts[0]] + [1] * (g.dim - 1)
    if config == "gabor":
        return state.with_samples(state.samples * 1.0), np.full(g.counts[0], 1.0)
    if config == "affine":
        spec = fourier_plancherel(state)
        sym = _oracle_affine_symbol(spec.grid.axis(0), spec.grid.spacings[0])
        out = spec.with_samples(spec.samples * (np.ones(spec.grid.counts) * sym.reshape(shape)))
        return inverse_fourier_plancherel(out, g), sym
    sym = g.axis(0) ** (-0.5)
    return state.with_samples(state.samples * sym.reshape(shape)), sym


@pytest.mark.parametrize("config", ["gabor", "affine", "exotic"])
def test_dm_symbol_form_matches_three_formulas(config, gabor, affine, exotic):
    """One symbol multiplication, in frequency when ``fourier`` is set, gives
    the bits of the identity, Fourier-multiplier and coordinate-multiplier
    formulas on every bundled state."""
    setup = {"gabor": gabor, "affine": affine, "exotic": exotic}[config]
    dm = duflo_moore(config)
    assert dm.fourier == (config == "affine")
    for state in setup.states.values():
        want, sym = _oracle_dm(config, state)
        assert np.array_equal(dm.apply(state).samples, want.samples)
        g = fourier_plancherel(state).grid if dm.fourier else state.grid
        assert np.array_equal(dm.symbol_values(g.axis(0), g.spacings[0]), sym)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------


def test_affine_admissibility_dichotomy(affine):
    grids = affine_nested_grids(affine)
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
    grids = affine_nested_grids(affine)[:2]
    report = admissibility(affine.rep, affine.states["gauss"], grids)
    assert report.admissible is None
    assert report.status == "inconclusive"


def test_gabor_everything_admissible(gabor, rng):
    # on the unimodular quotient any nonzero vector is admissible; the boxes
    # [-L, L]^2, L = 4, 6, 8, as a base box and the four sides of each ring
    boxes = [[(-4.0, 4.0)] * 2]
    for lo, hi in ((4.0, 6.0), (6.0, 8.0)):
        boxes += [[(lo, hi), (-hi, hi)], [(-hi, -lo), (-hi, hi)],
                  [(-lo, lo), (lo, hi)], [(-lo, lo), (-hi, -lo)]]
    grids = [haar_grid(gabor.x_group, box, [int(4 * (b - a)) for a, b in box]) for box in boxes]
    psi = random_bandlimited_state(gabor.state_grid, rng, band_fraction=0.05,
                                   envelope_width=1.2)
    report = admissibility(gabor.proj, psi, grids)
    assert report.admissible is True
    assert report.dm_norm_sq == pytest.approx(norm(psi) ** 2, rel=1e-3)


def _outer_nodes(grid, log_aware=True):
    """Reference: the outer-shell mask, tested node by node; ``log_aware``
    cuts the slabs of a log axis in ln a."""
    outer = np.zeros(grid.n_nodes, dtype=bool)
    for i, (lo, hi) in enumerate(grid.box):
        x = grid.nodes[:, i]
        if log_aware and i in grid.log_axes:
            lo, hi, x = np.log(lo), np.log(hi), np.log(x)
        width = hi - lo
        outer |= (x < lo + 0.05 * width) | (x > hi - 0.05 * width)
    return outer


def test_transforms_leave_the_grid_weights_unbuilt(exotic, affine, tmp_path):
    """``analyze`` with its energy pass, ``result.energy()``,
    ``coefficient_energy`` and ``fast_adjoint`` on the bundled exotic grid,
    and ``save_result_csv`` on the affine grid, take the Haar weights slab by
    slab: the grid's whole weight array (23.6 MB on the exotic grid) is
    never built."""
    s = exotic.states
    grid = dataclasses.replace(exotic.x_grid)  # a grid no other test has touched
    res = analyze(exotic.proj, s["psi"], s["phi"], grid, dm_norm=1.0)
    assert res.energy() == res.meta["energy"] > 0
    assert coefficient_energy(exotic.proj, s["psi2"], s["phi2"], grid) > 0
    exotic.proj.fast_adjoint(res.coefficients, grid, s["psi"])
    assert "weights" not in vars(grid)
    grid = dataclasses.replace(affine.x_grid)
    save_result_csv(str(tmp_path / "coef"),
                    analyze(affine.rep, affine.states["morlet"], affine.states["signal"], grid))
    assert "weights" not in vars(grid)


@pytest.mark.parametrize("case", ["gabor_x", "wh_3d", "affine_log_axis", "wh_3d_rows",
                                  "exotic_log_axis"])
def test_shell_fraction_matches_node_mask(case, gabor, affine, exotic, rng, monkeypatch):
    """The energy and the shell energy add their sums over the grid's axis
    blocks in block order: exactly the block-order oracle of the
    node-by-node shell mask, which is the whole-array sum on the one-block
    grids, inline and with the blocks on two threads.  ``wh_3d_rows`` takes
    12 blocks of one first-axis row.  On a log
    axis the slabs are cut in ln a, where the nodes are uniform: the linear
    cut, which the shell fraction once used, takes other nodes there (on
    the bundled affine analysis of the signal with Morlet it gave 1.01e-4
    against 4.93e-4, on the bundled exotic one of psi and phi 0.104 against
    1.4e-5)."""
    if case == "wh_3d_rows":
        monkeypatch.setattr(groups, "BLOCK", 96)
    wh_3d = haar_grid(gabor.group, [(-3, 5), (-2, 2), (-4, 1)], [12, 10, 8])
    exotic_x = haar_grid(exotic.x_group, [(-3, 3), (-2, 2), (-3, 3), (0.125, 8.0)],
                         [6, 5, 6, 12], log_axes=(3,))
    grid = {"gabor_x": gabor.x_grid, "wh_3d": wh_3d, "affine_log_axis": affine.x_grid,
            "wh_3d_rows": wh_3d, "exotic_log_axis": exotic_x}[case]
    slices = [sl for sl, *_ in grid.axis_blocks()]
    assert len(slices) == (12 if case == "wh_3d_rows" else 1)
    c = rng.standard_normal(grid.n_nodes) + 1j * rng.standard_normal(grid.n_nodes)
    energy, outer = np.abs(c) ** 2 * grid.weights, _outer_nodes(grid)
    total = sum(float(np.sum(energy[sl])) for sl in slices)
    shell = sum(float(np.sum(energy[sl][outer[sl]])) for sl in slices)
    for workers in (1, 2):  # the blocks run on the engine's pool, summed in block order
        monkeypatch.setattr(representations, "_workers", lambda: workers)
        assert _energy_and_shell(c, grid) == (total, shell / total)
    assert _energy_and_shell(np.zeros(grid.n_nodes), grid) == (0.0, 0.0)
    linear = _outer_nodes(grid, log_aware=False)
    assert np.array_equal(outer, linear) == (not grid.log_axes)
    if grid.log_axes:
        assert _energy_and_shell(c, grid)[1] != float(np.sum(energy[linear])) / total


# ---------------------------------------------------------------------------
# orthogonality
# ---------------------------------------------------------------------------


def _count_streams(monkeypatch):
    """Route ``ActionTable.coefficient_blocks`` through a counter; returns
    its list of streamed grids."""
    grids, stream = [], ActionTable.coefficient_blocks

    def counted(self, psi, phi, grid):
        grids.append(grid)
        return stream(self, psi, phi, grid)

    monkeypatch.setattr(ActionTable, "coefficient_blocks", counted)
    return grids


def _slabs(rep, psi, phi, grid):
    """The slices of the engine blocks of c_{psi,phi} on ``grid``, in block
    order."""
    return [at for at, _ in rep.table.coefficient_blocks(psi, phi, grid)]


def _block_order(slabs, integrand):
    """Block-order oracle of a streamed block sum: the sums of
    ``integrand(at)`` over ``slabs``, added in order from the first."""
    total = None
    for at in slabs:
        part = np.sum(integrand(at)).item()
        total = part if total is None else total + part
    return total


def _block_order_lhs(slabs, c1, c2, grid):
    """Block-order oracle of a streamed lhs from whole coefficient arrays:
    (the sum over ``slabs``, in order, of np.sum(conj(c1) c2 w) on the slab;
    the same sum over the whole arrays)."""
    c1, c2 = c1.reshape(grid.resolution), c2.reshape(grid.resolution)
    w = grid.weights.reshape(grid.resolution)
    return (_block_order(slabs, lambda at: np.conj(c1[at]) * c2[at] * w[at]),
            complex(np.sum(np.conj(c1) * c2 * w)))


@pytest.mark.parametrize("config, psi_name, phi_name",
                         [("gabor", "gauss", "hermite2"), ("affine", "morlet", "gauss_mod3")])
def test_orthogonality_check_analyzes_each_pair_once(config, psi_name, phi_name, request,
                                                     monkeypatch):
    """A relation of one (psi, phi) with itself streams its coefficients
    once; the bundled grid is one engine block, so the result is exactly
    that of two independent analyses fed to the relation."""
    setup = request.getfixturevalue(config)
    rep = setup.proj if config == "gabor" else setup.rep
    psi, phi = setup.states[psi_name], setup.states[phi_name]
    dm = duflo_moore(config)
    c1 = analyze(rep, psi, phi, setup.x_grid).coefficients
    c2 = analyze(rep, psi, phi, setup.x_grid).coefficients
    lhs = complex(np.sum(np.conj(c1) * c2 * setup.x_grid.weights))
    expected = transforms._relation(lhs, psi, psi, phi, phi, dm)
    grids = _count_streams(monkeypatch)
    assert orthogonality_check(rep, [(psi, psi, phi, phi)], dm, setup.x_grid) == [expected]
    assert grids == [setup.x_grid]


def test_exotic_suite_relations_cost_two_analyses(exotic, monkeypatch):
    """The exotic suite's diagonal and cross relations share c(psi, phi):
    two coefficient streams on the suite's own 24·19·29·24 X grid, a 1.2x
    box of the bundled grid at coarser spacing.  The grid streams 12 engine
    blocks, so the suite runs the multi-block lockstep path.  Each defect is
    exactly the relation of the block-order oracle's lhs, which is within
    1e-15 relative of the whole-array sum."""
    grids = _count_streams(monkeypatch)
    checks = {c.name: c for c in verify.exotic_suite(0)}
    box = ((-8.4, 8.4), (-7.2, 7.2), (-10.8, 10.8), (0.125, 8.0))
    assert [(g.box, g.resolution) for g in grids] == [(box, (24, 19, 29, 24))] * 2
    monkeypatch.undo()
    s, dm, grid = exotic.states, duflo_moore("exotic"), grids[0]
    c11 = analyze(exotic.proj, s["psi"], s["phi"], grid).coefficients
    c22 = analyze(exotic.proj, s["psi2"], s["phi2"], grid).coefficients
    slabs = _slabs(exotic.proj, s["psi"], s["phi"], grid)
    assert len(slabs) == 12  # two p nodes per block
    for name, c2, psi2, phi2 in [("exotic: orthogonality relation", c11, s["psi"], s["phi"]),
                                 ("exotic: orthogonality (cross pair)", c22, s["psi2"], s["phi2"])]:
        lhs, whole = _block_order_lhs(slabs, c11, c2, grid)
        assert checks[name].defect == transforms._relation(lhs, s["psi"], psi2, s["phi"], phi2,
                                                           dm)[2]
        assert abs(lhs - whole) <= 1e-15 * abs(whole)


def _small_exotic_grid(group, theta=()):
    """A 5·4·5·4 exotic X grid (after the ``theta`` axes of a lift, if
    any): with ``CHUNK`` at 1024 samples it streams 20 engine blocks, one
    per (p node, scale)."""
    return haar_grid(group, list(theta) + [(-3, 3), (-2, 2), (-3, 3), (0.5, 2.0)],
                     [3] * len(theta) + [5, 4, 5, 4], log_axes=(len(theta) + 3,))


@pytest.mark.parametrize("spec", ["s_tw", "lift"])
def test_streamed_relation_in_small_blocks(spec, exotic, monkeypatch):
    """With 20 small blocks, through the gauge of the twisted section and
    through its central-extension lift: the lhs are exactly the
    block-order oracle's, within 1e-15 relative of the whole-array sums,
    and pooled and inline runs give the same bits."""
    from groupwave import representations
    from groupwave.representations import lift_to_extension

    monkeypatch.setattr(representations, "CHUNK", 1024)
    rep = projective_from_section(exotic.rep, exotic.section_prime)
    grid = _small_exotic_grid(rep.group)
    if spec == "lift":
        rep = lift_to_extension(rep)
        grid = _small_exotic_grid(rep.group, [(-1.0, 1.0)])
    s, dm = exotic.states, duflo_moore("exotic")
    relations = [(s["psi"], s["psi"], s["phi"], s["phi"]),
                 (s["psi"], s["psi2"], s["phi"], s["phi2"])]
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(representations, "_workers", lambda: workers)
        runs.append(orthogonality_check(rep, relations, dm, grid))
    assert runs[0] == runs[1]
    c11 = analyze(rep, s["psi"], s["phi"], grid).coefficients
    c22 = analyze(rep, s["psi2"], s["phi2"], grid).coefficients
    slabs = _slabs(rep, s["psi"], s["phi"], grid)
    assert len(slabs) == 20
    for (lhs, _, _), c2 in zip(runs[0], (c11, c22)):
        oracle, whole = _block_order_lhs(slabs, c11, c2, grid)
        assert lhs == oracle
        assert abs(lhs - whole) <= 1e-15 * abs(whole)


@pytest.mark.parametrize("workers", [1, 2])
def test_block_sums_in_small_blocks(workers, exotic, gabor, monkeypatch):
    """With ``CHUNK`` at 1024, inline and pooled: the streamed energy, the
    reproduce check's Gram rows and the mod-K left side each equal their
    block-order oracle from whole coefficient arrays."""
    from groupwave import representations

    monkeypatch.setattr(representations, "CHUNK", 1024)
    monkeypatch.setattr(representations, "_workers", lambda: workers)
    rep, psi, phi = exotic.proj, exotic.states["psi"], exotic.states["phi"]
    grid = _small_exotic_grid(exotic.x_group)
    slabs = _slabs(rep, psi, phi, grid)
    assert len(slabs) == 20
    w = grid.weights.reshape(grid.resolution)
    res = analyze(rep, psi, phi, grid, dm_norm=1.0)
    f = res.coefficients.reshape(grid.resolution)
    assert coefficient_energy(rep, psi, phi, grid) == _block_order(
        slabs, lambda at: np.abs(f[at]) ** 2 * w[at])
    worst, scale = 0.0, np.max(np.abs(res.coefficients))
    for i in np.random.default_rng(7).choice(grid.n_nodes, size=16, replace=False):
        row = analyze(rep, psi, rep.act(grid.node(i), psi), grid).coefficients
        row = row.reshape(grid.resolution)
        integ = _block_order(slabs, lambda at: np.conj(row[at]) * f[at] * w[at])
        worst = max(worst, abs(integ - res.coefficients[i]) / scale)
    assert reproduce_check(res, rep, psi) == worst

    psi, phi = gabor.states["gauss"], gabor.states["hermite1"]
    g_grid = haar_grid(gabor.group, [(-4, 4), (-3, 3), (-3, 3)], [32, 8, 8])
    x_grid = haar_grid(gabor.x_group, [(-3, 3)] * 2, [8] * 2)
    slabs = _slabs(gabor.rep, psi, phi, g_grid)
    assert len(slabs) > 1
    c = analyze(gabor.rep, psi, phi, g_grid).coefficients.reshape(g_grid.resolution)
    w = g_grid.weights.reshape(g_grid.resolution)
    rho = make_rho("gaussian", gabor.subgroup)
    density = rho.eval(g_grid.nodes).reshape(g_grid.resolution)
    [(lhs, _, _)] = mod_K_equiv_check(gabor.rep, [rho], psi, phi, g_grid, x_grid, gabor.proj)
    assert lhs == _block_order(slabs, lambda at: np.abs(c[at]) ** 2 * density[at] * w[at])


def test_streams_close_when_one_raises(exotic, monkeypatch):
    """A block task failing in one of the lockstep streams closes the
    other stream at once: no engine thread outlives the call, and the next
    call gives the same bits."""
    import itertools
    import threading

    from groupwave import representations

    monkeypatch.setattr(representations, "CHUNK", 1024)
    monkeypatch.setattr(representations, "_workers", lambda: 2)
    s, dm, grid = exotic.states, duflo_moore("exotic"), _small_exotic_grid(exotic.x_group)
    relations = [(s["psi"], s["psi2"], s["phi"], s["phi2"])]
    expected = orthogonality_check(exotic.proj, relations, dm, grid)
    contract, calls = representations._contract, itertools.count()

    def failing(*args):
        if next(calls) == 6:
            raise RuntimeError("block task failed")
        return contract(*args)

    monkeypatch.setattr(representations, "_contract", failing)
    with pytest.raises(RuntimeError, match="block task failed") as failure:
        orthogonality_check(exotic.proj, relations, dm, grid)
    # the held traceback keeps the call's frames, and so any unclosed stream, alive
    assert failure.traceback
    assert [t.name for t in threading.enumerate() if t.name.startswith("groupwave-engine")] == []
    monkeypatch.setattr(representations, "_contract", contract)
    assert orthogonality_check(exotic.proj, relations, dm, grid) == expected


def test_streams_of_unequal_state_grids_are_rejected(exotic, monkeypatch):
    """The engine sizes its blocks by psi's sample count, so relations whose
    analyzing vectors differ in size would pair misaligned blocks: a
    ``ValueError``, not a wrong lhs."""
    from groupwave import representations

    monkeypatch.setattr(representations, "CHUNK", 8192)  # 2 scales of 64^2, 4 of 32 x 64
    coarse = product_state(product_grid(halfline_grid(8.0, 32), centered_grid(8.0, 64)),
                           lambda b: np.exp(-np.log(b / 2.0) ** 2 / 0.18),
                           lambda p: np.exp(-p ** 2 / 2.0))
    s, dm, grid = exotic.states, duflo_moore("exotic"), _small_exotic_grid(exotic.x_group)
    with pytest.raises(ValueError, match="do not align"):
        orthogonality_check(exotic.proj, [(s["psi"], s["psi"], s["phi"], s["phi"]),
                                          (coarse, coarse, coarse, coarse)], dm, grid)


def test_exotic_orthogonality_check_memory(exotic):
    """The streamed relations hold blocks in flight, not coefficient
    arrays: the traced peak of the bundled exotic check is about 52 MB
    above what was held before it (142 MB when each pair's 47 MB
    coefficient array and its |c|^2 w were held)."""
    import tracemalloc

    s, dm = exotic.states, duflo_moore("exotic")
    relations = [(s["psi"], s["psi"], s["phi"], s["phi"]),
                 (s["psi"], s["psi2"], s["phi"], s["phi2"])]
    orthogonality_check(exotic.proj, relations, dm, exotic.x_grid)  # warm plan caches
    tracemalloc.start()
    try:
        orthogonality_check(exotic.proj, relations, dm, exotic.x_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 90e6, peak


def test_gabor_orthogonality_pairs(gabor):
    dm = duflo_moore("gabor")
    s = gabor.states
    pairs = [
        (s["gauss"], s["gauss"], s["gauss"], s["gauss"]),
        (s["hermite1"], s["hermite1"], s["hermite2"], s["hermite2"]),
        (s["mix"], s["mix"], s["hermite2"], s["hermite2"]),
        (s["gauss"], s["hermite1"], s["hermite1"], s["gauss"]),
    ]
    for lhs, rhs, rel in orthogonality_check(gabor.proj, pairs, dm, gabor.x_grid):
        assert rel < 1e-3


def test_orthogonal_phis_give_zero(gabor):
    dm = duflo_moore("gabor")
    s = gabor.states
    [(lhs, rhs, rel)] = orthogonality_check(
        gabor.proj, [(s["gauss"], s["gauss"], s["gauss"], s["hermite1"])], dm, gabor.x_grid
    )
    assert abs(rhs) < 1e-14
    assert abs(lhs) < 1e-10


def test_orthogonality_bilinearity(gabor):
    """lhs is linear in phi2 and conjugate-linear in phi1 (superposition)."""
    dm = duflo_moore("gabor")
    s = gabor.states
    psi = s["gauss"]

    def lhs_of(f1, f2):
        [(lhs, _, _)] = orthogonality_check(gabor.proj, [(psi, psi, f1, f2)], dm, gabor.x_grid)
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
    [(_, _, rel)] = orthogonality_check(
        affine.rep, [(s["morlet"], s["morlet"], s["gauss_mod3"], s["gauss_mod3"])], dm, affine.x_grid
    )
    assert rel < 1e-2


def test_exotic_orthogonality(exotic):
    dm = duflo_moore("exotic")
    s = exotic.states
    (_, _, rel), (_, _, rel2) = orthogonality_check(exotic.proj, [
        (s["psi"], s["psi"], s["phi"], s["phi"]),
        (s["psi"], s["psi2"], s["phi"], s["phi2"]),
    ], dm, exotic.x_grid)
    assert rel < 5e-2
    assert rel2 < 5e-2


@pytest.mark.parametrize("axis", [0, 2], ids=["p", "b"])
def test_exotic_orthogonality_past_sampling_limit_raises(exotic, axis):
    """The exotic modulations repeat with period 2 pi / h of their state
    axis (25.13 in p, 50.27 in b on the bundled state grid), so the sampled
    coefficient is the paper's only well inside that.  The hand-set box
    |p| <= 32 (b free) once let ``verify``'s exotic relation grid widened to
    p in +-30 return relerr 1.60, and to b in +-30 relerr 2.7e-2 (under the
    5e-2 threshold, against 5.8e-7 on ``verify``'s own grid), without an
    error.  The box derived from the state grid (|p| <= 10.05,
    |b| <= 20.1) rejects both grids."""
    box = [(-8.4, 8.4), (-7.2, 7.2), (-10.8, 10.8), (0.125, 8.0)]
    box[axis] = (-30.0, 30.0)
    grid = haar_grid(exotic.x_group, box, [24, 19, 29, 24], log_axes=(3,))
    s = exotic.states
    with pytest.raises(GridSafetyError, match=f"chart axis {axis} \\(modulate\\)"):
        orthogonality_check(exotic.proj, [(s["psi"], s["psi"], s["phi"], s["phi"])],
                            duflo_moore("exotic"), grid)


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
    d1 = reproduce_check(res, gabor.proj, psi)
    d2 = reproduce_check(res, gabor.proj, psi)
    assert d1 < 1e-2
    assert d1 == d2  # pure function of its inputs


def test_reproduce_requires_dm_norm(gabor):
    res = analyze(gabor.proj, gabor.states["gauss"], gabor.states["gauss"], gabor.x_grid)
    with pytest.raises(ValueError, match="dm_norm"):
        reproduce_check(res, gabor.proj, gabor.states["gauss"])


def test_reproduce_check_rejects_grid_beyond_safe_box(gabor):
    """A coefficient grid past the safe q range (+-8) once streamed its Gram
    rows on the clipped grid against the unclipped grid's nodes: the +-8.1
    box gave a defect of 1.7e-3 where the +-8 box gives 2.5e-9.  It now
    raises through synthesize's guard."""
    psi, phi = gabor.states["gauss"], gabor.states["hermite2"]

    def result(half):
        grid = haar_grid(gabor.x_group, [(-half, half)] * 2, [64, 64])
        return transforms.TransformResult(gabor.proj.fast_coefficients(psi, phi, grid), grid,
                                          "psi", gabor.proj.label, dm_norm=1.0)

    assert reproduce_check(result(8.0), gabor.proj, psi) == pytest.approx(2.49e-9, rel=0.01)
    with pytest.raises(GridSafetyError, match="leaves the grid-safe box"):
        reproduce_check(result(8.1), gabor.proj, psi)


PAST_SAFE_BOX = ["analyze", "coefficient_energy", "admissibility", "orthogonality_check",
                 "calibrate_affine_dm", "mod_K_equiv_check_on_G", "mod_K_equiv_check_on_X",
                 "reproduce_check", "synthesize", "lift_analyze"]


@pytest.mark.parametrize("consumer", PAST_SAFE_BOX)
def test_grid_one_cell_past_safe_box_raises(consumer, gabor, affine):
    """Every consumer of a grid raises ``GridSafetyError`` on a grid whose
    q (Weyl-Heisenberg) or b (affine) axis ends one cell past the grid-safe
    box that the rep's table derives for psi's state grid (q: +-8, b: +-16),
    and the message names both boxes and the axis past its limit.  No consumer clips
    the grid: a clipped grid once gave ``reproduce_check`` 1.7e-3 for 2.5e-9,
    and an exotic orthogonality relation 3.1e-2 for 5.8e-7."""
    from groupwave.representations import lift_to_extension

    psi, phi = gabor.states["gauss"], gabor.states["hermite1"]
    lift = lift_to_extension(gabor.proj)
    x_inside = haar_grid(gabor.x_group, [(-4, 4)] * 2, [8, 8])
    x_past = haar_grid(gabor.x_group, [(-4, 4), (-8, 10)], [8, 9])
    g_inside = haar_grid(gabor.group, [(-2, 2), (-4, 4), (-4, 4)], [4, 8, 8])
    g_past = haar_grid(gabor.group, [(-2, 2), (-4, 4), (-8, 10)], [4, 8, 9])
    lift_past = haar_grid(lift.group, [(-2, 2), (-4, 4), (-8, 10)], [4, 8, 9])
    a_past = haar_grid(affine.group, [(-16, 20), (0.5, 2.0)], [9, 4], log_axes=(1,))
    rho = make_rho("gaussian", gabor.subgroup)
    # coefficients given on a grid, as a coefficient file gives them
    given = transforms.TransformResult(np.zeros(x_past.n_nodes, dtype=complex), x_past,
                                       "psi", gabor.proj.label, dm_norm=1.0)
    rep, grid, call = {
        "analyze": (gabor.proj, x_past, lambda: analyze(gabor.proj, psi, phi, x_past)),
        "coefficient_energy": (gabor.proj, x_past,
                               lambda: coefficient_energy(gabor.proj, psi, phi, x_past)),
        "admissibility": (gabor.proj, x_past,
                          lambda: admissibility(gabor.proj, psi, [x_inside, x_past])),
        "orthogonality_check": (gabor.proj, x_past, lambda: orthogonality_check(
            gabor.proj, [(psi, psi, phi, phi)], duflo_moore("gabor"), x_past)),
        "calibrate_affine_dm": (affine.rep, a_past, lambda: calibrate_affine_dm(
            affine.rep, [(affine.states["morlet"], affine.states["signal"])], a_past)),
        "mod_K_equiv_check_on_G": (gabor.rep, g_past, lambda: mod_K_equiv_check(
            gabor.rep, [rho], psi, phi, g_past, x_inside, gabor.proj)),
        "mod_K_equiv_check_on_X": (gabor.proj, x_past, lambda: mod_K_equiv_check(
            gabor.rep, [rho], psi, phi, g_inside, x_past, gabor.proj)),
        "reproduce_check": (gabor.proj, x_past, lambda: reproduce_check(given, gabor.proj, psi)),
        "synthesize": (gabor.proj, x_past, lambda: synthesize(given, gabor.proj, psi)),
        "lift_analyze": (lift, lift_past, lambda: analyze(lift, psi, phi, lift_past)),
    }[consumer]
    with pytest.raises(GridSafetyError) as err:
        call()
    assert type(err.value) is GridSafetyError
    state = affine.states["morlet"] if rep is affine.rep else psi
    axis = 0 if rep is affine.rep else len(grid.box) - 1  # b, or q
    assert str(list(grid.box)) in str(err.value), err.value
    assert str(list(rep.table.safe_box(state.grid))) in str(err.value), err.value
    assert f"chart axis {axis} ({rep.table.roles[axis].kind})" in str(err.value), err.value


def test_grid_of_another_group_raises(gabor, affine):
    """A grid of another group of the same dimension was once accepted: the
    Gabor relation below gave lhs 2.21, rhs 1.0 and relerr 1.21 on an
    affine_n1 grid (3.6e-14 on the Gabor grid), and ``analyze`` returned a
    result on it."""
    s = gabor.states
    relation = [(s["gauss"], s["gauss"], s["hermite1"], s["hermite1"])]
    grid = haar_grid(affine.group, [(-8, 8), (0.5, 6)], [64, 64], log_axes=(1,))
    calls = [
        lambda: orthogonality_check(gabor.proj, relation, duflo_moore("gabor"), grid),
        lambda: analyze(gabor.proj, s["gauss"], s["hermite1"], grid),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="grid of group 'affine_n1'") as err:
            call()
        assert type(err.value) is ValueError
    [(_, _, rel)] = orthogonality_check(gabor.proj, relation, duflo_moore("gabor"), gabor.x_grid)
    assert rel < 1e-12


def test_engine_rejects_phi_on_another_grid(gabor, affine):
    """phi sampled on a grid of doubled spacing once analyzed to the
    same-grid energy 0.99999999999996 (its true value is 2): the engine
    takes ``states.inner``'s grid rule.  The affine case shifts only the
    offsets, which its Fourier grid does not record."""
    from groupwave.states import GridMismatchError, StateGrid

    psi = gabor.states["gauss"]
    g = psi.grid
    wide = DiscretizedState(psi.samples, StateGrid(g.offsets, tuple(2 * h for h in g.spacings),
                                                   g.counts))
    morlet = affine.states["morlet"]
    a = morlet.grid
    shifted = DiscretizedState(morlet.samples, StateGrid(tuple(o + 0.5 for o in a.offsets),
                                                         a.spacings, a.counts))
    calls = [
        lambda: analyze(gabor.proj, psi, wide, gabor.x_grid),
        lambda: coefficient_energy(gabor.proj, psi, wide, gabor.x_grid),
        lambda: orthogonality_check(gabor.proj, [(psi, psi, psi, wide)], duflo_moore("gabor"),
                                    gabor.x_grid),
        lambda: analyze(affine.rep, morlet, shifted, affine.x_grid),
    ]
    for call in calls:
        with pytest.raises(GridMismatchError, match="different grids"):
            call()


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


def test_exotic_projective_semi_invariance(exotic):
    """On the projective exotic spec, U(x)^{-1} = m(x, x^{-1}) U(x^{-1}) and
    the weight is Delta_X(x)^{1/2} = a^{-1/2} of the quotient (3.9e-4 here;
    taking U(x^{-1}) for U(x)^{-1} gave |1 - e^{-0.06i}| = 0.06)."""
    x = np.array([0.2, -0.3, 0.1, 0.8])
    d = semi_invariance_check(exotic.proj, duflo_moore("exotic"), x, [exotic.states["phi"]])
    assert d < 1e-3


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
    (lhs, rhs, rel), (lhs_b, _, rel_b) = mod_K_equiv_check(
        gabor.rep, [rho_g, rho_b], psi, phi, g_grid, x_grid, gabor.proj
    )
    assert rel < 1e-10
    assert rel_b < 1e-10
    assert abs(lhs - lhs_b) / abs(lhs) < 1e-10


def test_mod_K_equiv_check_analyzes_each_grid_once(gabor, monkeypatch):
    """Two densities cost two coefficient streams, one on G and one on X,
    and each triple is that of a one-density call."""
    sub = gabor.subgroup
    g_grid = haar_grid(gabor.group, [(-4, 4), (-3, 3), (-3, 3)], [32, 8, 8])
    x_grid = haar_grid(gabor.x_group, [(-3, 3)] * 2, [8] * 2)
    rhos = [make_rho("gaussian", sub), make_rho("bump", sub)]
    psi, phi = gabor.states["gauss"], gabor.states["hermite1"]
    alone = [mod_K_equiv_check(gabor.rep, [rho], psi, phi, g_grid, x_grid, gabor.proj)[0]
             for rho in rhos]
    grids = _count_streams(monkeypatch)
    assert mod_K_equiv_check(gabor.rep, rhos, psi, phi, g_grid, x_grid, gabor.proj) == alone
    assert len(grids) == 2 and grids[0] is g_grid and grids[1] is x_grid


def test_mod_K_equiv_check_takes_each_blocks_K_part_once(gabor, monkeypatch):
    """The densities of make_rho share one gamma_s^{-1} per block of G
    nodes; a translated density evaluates its own.  Each triple is that of
    a one-density call."""
    from groupwave import measures, representations
    from groupwave.measures import translate_rho

    monkeypatch.setattr(representations, "CHUNK", 1024)
    sub = gabor.subgroup
    g_grid = haar_grid(gabor.group, [(-4, 4), (-3, 3), (-3, 3)], [32, 8, 8])
    x_grid = haar_grid(gabor.x_group, [(-3, 3)] * 2, [8] * 2)
    rho_g = make_rho("gaussian", sub)
    rhos = [rho_g, make_rho("bump", sub), translate_rho(rho_g, np.array([1.0, 0.4, -0.2]))]
    psi, phi = gabor.states["gauss"], gabor.states["hermite1"]
    alone = [mod_K_equiv_check(gabor.rep, [rho], psi, phi, g_grid, x_grid, gabor.proj)[0]
             for rho in rhos]
    blocks = len(_slabs(gabor.rep, psi, phi, g_grid))
    calls, inverse = [], measures.gamma_s_inv
    monkeypatch.setattr(measures, "gamma_s_inv",
                        lambda section, g: calls.append(len(g)) or inverse(section, g))
    assert mod_K_equiv_check(gabor.rep, rhos, psi, phi, g_grid, x_grid, gabor.proj) == alone
    assert blocks > 1 and len(calls) == 2 * blocks  # shared, and the translated density's


def test_mod_K_zero_phi(gabor):
    sub = gabor.subgroup
    zero = DiscretizedState(
        np.zeros(gabor.state_grid.counts, dtype=complex), gabor.state_grid
    )
    g_grid = haar_grid(gabor.group, [(-4, 4), (-3, 3), (-3, 3)], [32, 8, 8])
    x_grid = haar_grid(gabor.x_group, [(-3, 3)] * 2, [8] * 2)
    rho = make_rho("gaussian", sub)
    [(lhs, rhs, _)] = mod_K_equiv_check(
        gabor.rep, [rho], gabor.states["gauss"], zero,
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
    # and so does a value at each layout boundary and of each fallback class
    edges = np.array(FLOAT_TEXT_EDGES)
    res.coefficients[6 : 6 + edges.size] = edges - 1j * edges[::-1]
    gab = analyze(gabor.proj, gabor.states["gauss"], gabor.states["hermite1"], gabor.x_grid)
    for k, result in enumerate((res, gab)):
        prefix = str(tmp_path / f"coef{k}")
        save_result_csv(prefix, result)
        _save_result_csv_rows(tmp_path / f"ref{k}.csv", result)
        assert (tmp_path / f"coef{k}.csv").read_bytes() == (tmp_path / f"ref{k}.csv").read_bytes()


def test_result_csv_rejects_non_finite_before_writing(gabor, tmp_path):
    """``load_result_csv`` refuses a non-finite coefficient, so the writer
    does not write one: it names the first bad row and leaves no file."""
    res = analyze(gabor.proj, gabor.states["gauss"], gabor.states["hermite1"], gabor.x_grid)
    res.coefficients[[3, 5]] = [np.inf, complex(0.0, np.nan)]
    with pytest.raises(ValueError, match=r"non-finite value .* in row 5 \(index 3\)"):
        save_result_csv(str(tmp_path / "coef"), res)
    assert list(tmp_path.iterdir()) == []


def test_result_csv_written_over_node_blocks(gabor, tmp_path, monkeypatch):
    """Two node blocks write the bytes of the whole-array formula, and the
    writer leaves the grid's node array unbuilt."""
    monkeypatch.setattr(groups, "BLOCK", 40)  # 5 rows of 8 nodes per block
    grid = haar_grid(gabor.x_group, [(-4, 4)] * 2, [10, 8])
    res = analyze(gabor.proj, gabor.states["gauss"], gabor.states["hermite1"], grid)
    assert len(list(grid.axis_blocks())) == 2
    prefix = str(tmp_path / "coef")
    save_result_csv(prefix, res)
    assert "nodes" not in vars(grid)
    row = "%d," + ",".join(["%.17g"] * 5) + "\n"
    data = np.column_stack([grid.nodes, grid.weights, res.coefficients.real,
                            res.coefficients.imag]).tolist()
    expected = "index,g0,g1,weight,re,im\n" + "".join(row % (i, *v) for i, v in enumerate(data))
    assert (tmp_path / "coef.csv").read_bytes() == expected.encode()


def _assert_blocked_csv_matches_row_writer(rep, psi, phi, grid, blocks, tmp_path):
    """The blocked writer, with signed zeros and extreme coefficients
    injected, writes the row writer's bytes over ``blocks`` node blocks and
    leaves the grid's node array unbuilt."""
    res = analyze(rep, psi, phi, grid)
    res.coefficients[[0, 1, -2, -1]] = [-0.0, complex(-0.0, -0.0), 1e-300j, -1e300]
    assert len(list(grid.axis_blocks())) == blocks
    prefix = str(tmp_path / "coef")
    save_result_csv(prefix, res)
    assert "nodes" not in vars(grid)
    _save_result_csv_rows(tmp_path / "ref.csv", res)
    assert (tmp_path / "coef.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_result_csv_blocks_match_row_writer_affine(affine, tmp_path, monkeypatch):
    """The bundled affine grid: a log axis and weights that vary with a."""
    monkeypatch.setattr(groups, "BLOCK", 60 * 160)  # blocks of 60, 60 and 40 rows
    x = affine.x_grid
    grid = haar_grid(x.group, x.box, x.resolution, log_axes=x.log_axes)
    assert grid.log_axes == (1,)
    _assert_blocked_csv_matches_row_writer(
        affine.rep, affine.states["morlet"], affine.states["signal"], grid, 3, tmp_path)


def test_result_csv_blocks_match_row_writer_exotic(exotic, tmp_path, monkeypatch):
    """A reduced exotic grid: four axes, the log axis last."""
    monkeypatch.setattr(groups, "BLOCK", 2 * 5 * 7 * 8)  # two first-axis rows per block
    x = exotic.x_grid
    grid = haar_grid(x.group, x.box, (6, 5, 7, 8), log_axes=x.log_axes)
    assert grid.log_axes == (3,)
    _assert_blocked_csv_matches_row_writer(
        exotic.proj, exotic.states["psi"], exotic.states["phi"], grid, 3, tmp_path)


def test_load_result_csv_rejects_other_group(gabor, affine, tmp_path):
    res = analyze(gabor.proj, gabor.states["gauss"], gabor.states["hermite1"], gabor.x_grid)
    prefix = str(tmp_path / "coef")
    save_result_csv(prefix, res)
    with pytest.raises(ValueError, match="group"):
        load_result_csv(prefix, affine.x_grid)


def _library_csv(kind, gabor, tmp_path):
    """A signal or a coefficient CSV written by the library, and a reader
    returning the values it holds."""
    if kind == "signal":
        path = tmp_path / "sig.csv"
        save_state_csv(path, gabor.states["hermite2"])
        return path, lambda: load_state_csv(path).samples
    grid = haar_grid(gabor.x_group, [(-2, 2)] * 2, [4, 4])
    prefix = str(tmp_path / "coef")
    save_result_csv(prefix, analyze(gabor.proj, gabor.states["gauss"], gabor.states["hermite1"],
                                    grid))
    return tmp_path / "coef.csv", lambda: load_result_csv(prefix, grid).coefficients


def _set_last_field(value):
    return lambda rows: rows[:2] + [rows[2].rsplit(",", 1)[0] + "," + value] + rows[3:]


@pytest.mark.parametrize("kind", ["signal", "coefficient"])
@pytest.mark.parametrize("case, edit, message", [
    ("short row", lambda rows: rows[:2] + [rows[2].rsplit(",", 1)[0]] + rows[3:],
     "malformed row 3 "),
    ("long row", lambda rows: rows[:2] + [rows[2] + ",0.5"] + rows[3:], "malformed row 3 "),
    ("non-number", _set_last_field("oops"), "malformed row 3 "),
    ("non-finite", _set_last_field("inf"), "non-finite"),
    ("wrong header", lambda rows: [rows[0].replace("index", "idx")] + rows[1:],
     "malformed .* CSV header"),
    ("no data rows", lambda rows: rows[:1], "no data rows"),
    ("empty lines", lambda rows: rows[:5] + [""] + rows[5:] + [""], None),
])
def test_csv_reader(kind, case, edit, message, gabor, tmp_path):
    """Signal and coefficient CSVs go through one reader (``states.read_csv``):
    the same faults raise the same messages, a bad row named by its line,
    and empty lines, trailing ones too, are skipped."""
    path, read = _library_csv(kind, gabor, tmp_path)
    values = read()
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    if message is None:
        assert np.array_equal(read(), values)
    else:
        with pytest.raises(ValueError, match=message):
            read()


def test_bundled_affine_grid_is_not_clipped(affine):
    """The bundled affine grid lies inside the rep's safe box: ``analyze``
    runs on it and returns it."""
    res = analyze(affine.rep, affine.states["morlet"], affine.states["morlet"], affine.x_grid)
    assert res.grid is affine.x_grid


def test_exotic_analyze_leaves_nodes_unbuilt():
    """The engine works per chart axis and the gauge per engine block: an
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
    assert reproduce_check(res, gabor.proj, psi) < 1e-2
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
