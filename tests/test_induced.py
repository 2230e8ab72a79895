import numpy as np
import pytest

from groupwave.groups import haar_grid
from groupwave.induced import (
    R_chi_s,
    _apply_x_translation,
    intertwine_defect,
    left_reg_m,
    xgrid_norm,
)
from groupwave.measures import gamma_s
from groupwave.multipliers import Multiplier
from groupwave.transforms import analyze
from oracles import covariant_extension, section_cocycle, trivial_multiplier, xgrid_inner


@pytest.fixture(scope="module")
def gabor_field(gabor):
    grid = gabor.x_grid
    values = analyze(
        gabor.proj, gabor.states["gauss"], gabor.states["hermite1"], grid
    ).coefficients.reshape(grid.resolution)
    return grid, values


def test_F_s_isometry_and_zero(gabor, gabor_field):
    """F_s is an isometry: its image read through the other section s' has
    |f(s'(x))| = |f(s(x))|, so the same L2(X) norm; F_s 0 = 0."""
    grid, values = gabor_field
    g_prime = gabor.section_prime.map(grid.nodes)
    traced = covariant_extension(values, grid, gabor.section, g_prime)
    assert xgrid_norm(traced, grid) == pytest.approx(xgrid_norm(values, grid), rel=1e-14)
    assert np.all(covariant_extension(np.zeros_like(values), grid, gabor.section, g_prime) == 0)


def test_F_s_covariant_extension(gabor, gabor_field, rng):
    grid, values = gabor_field
    flat = values.reshape(-1)
    for _ in range(10):
        i = int(rng.integers(0, grid.n_nodes))
        k = rng.uniform(-3, 3, 1)
        g = gamma_s(gabor.section, grid.nodes[i], k)
        expected = np.exp(-1j * float(gabor.subgroup.chi_phase(k))) * flat[i]
        assert covariant_extension(values, grid, gabor.section, g) == pytest.approx(
            expected, abs=1e-13)


def test_F_s_section_trace_relation(gabor, gabor_field):
    """Evaluating the covariant extension at the other section obeys
    f(s'(x)) = chi(upsilon(x))^{-1} f(s(x)) with upsilon = s^{-1} s'."""
    grid, values = gabor_field
    flat = values.reshape(-1)
    for i in (100, 2000, 3333):
        x = grid.nodes[i]
        g_prime = gabor.section_prime.map(x)
        upsilon_phase = gabor.k_check * 0.5 * x[0] * x[1]
        expected = np.exp(-1j * upsilon_phase) * flat[i]
        assert covariant_extension(values, grid, gabor.section, g_prime) == pytest.approx(
            expected, abs=1e-12)


def test_R_chi_s_identity_and_K_phase(gabor, gabor_field):
    grid, values = gabor_field
    out = R_chi_s(gabor.section, gabor.group.identity, values, grid)
    assert np.max(np.abs(out - values)) < 1e-12
    # restriction to K multiplies by the character
    k_el = np.array([0.9, 0.0, 0.0])
    out_k = R_chi_s(gabor.section, k_el, values, grid)
    phase = np.exp(1j * gabor.k_check * 0.9)
    assert np.max(np.abs(out_k - phase * values)) < 1e-10
    # pure phase in particular: modulus preserved pointwise
    assert np.max(np.abs(np.abs(out_k) - np.abs(values))) < 1e-12


def test_R_chi_s_unitary_and_composition(gabor_wide, rng):
    grid = haar_grid(gabor_wide.x_group, [(-10, 10)] * 2, [80] * 2)
    # gaussian pair: the coefficient decays as e^{-(p^2+q^2)/4} with no
    # polynomial factor, keeping edge tails below the tolerance
    values = analyze(
        gabor_wide.proj, gabor_wide.states["gauss"], gabor_wide.states["gauss"], grid
    ).coefficients.reshape(grid.resolution)
    sec = gabor_wide.section
    worst_u = worst_c = 0.0
    for _ in range(8):
        g = np.concatenate([rng.uniform(-2, 2, 1), rng.uniform(-1, 1, 2)])
        h = np.concatenate([rng.uniform(-2, 2, 1), rng.uniform(-1, 1, 2)])
        Rg = R_chi_s(sec, g, values, grid)
        worst_u = max(worst_u, abs(xgrid_norm(Rg, grid) - xgrid_norm(values, grid)))
        lhs = R_chi_s(sec, g, R_chi_s(sec, h, values, grid), grid)
        rhs = R_chi_s(sec, gabor_wide.group.product(g, h), values, grid)
        worst_c = max(worst_c, xgrid_norm(lhs - rhs, grid))
    assert worst_u < 1e-8
    assert worst_c < 1e-8


def test_left_reg_m_identity_and_trivial(gabor, gabor_field):
    grid, values = gabor_field
    m = gabor.proj.multiplier
    out = left_reg_m(m, np.zeros(2), values, grid)
    assert np.max(np.abs(out - values)) < 1e-12
    # trivial multiplier: plain left regular representation (translation)
    triv = trivial_multiplier(gabor.x_group)
    x0 = np.array([0.75, -0.5])
    out_t = left_reg_m(triv, x0, values, grid)
    from groupwave.states import DiscretizedState, StateGrid, translate

    state = DiscretizedState(
        values,
        StateGrid(
            offsets=(float(grid.axis(0)[0]), float(grid.axis(1)[0])),
            spacings=(grid.spacing(0), grid.spacing(1)),
            counts=tuple(grid.resolution),
        ),
    )
    expected = translate(state, x0).samples
    assert np.max(np.abs(out_t - expected)) < 1e-10


def test_left_reg_m_projective_composition(gabor_wide, rng):
    grid = haar_grid(gabor_wide.x_group, [(-10, 10)] * 2, [80] * 2)
    values = analyze(
        gabor_wide.proj, gabor_wide.states["gauss"], gabor_wide.states["gauss"], grid
    ).coefficients.reshape(grid.resolution)
    m = gabor_wide.proj.multiplier
    worst = 0.0
    for _ in range(8):
        x1 = rng.uniform(-0.6, 0.6, 2)
        x2 = rng.uniform(-0.6, 0.6, 2)
        lhs = left_reg_m(m, x1, left_reg_m(m, x2, values, grid), grid)
        phase = np.exp(1j * m.phase(x1, x2))
        rhs = left_reg_m(m, gabor_wide.x_group.product(x1, x2), values, grid) / phase
        worst = max(worst, xgrid_norm(lhs - rhs, grid))
    assert worst < 1e-8


def test_intertwine_trivial_is_zero(gabor, gabor_field):
    grid, _ = gabor_field
    psi = gabor.states["gauss"]

    def A(v):
        return analyze(gabor.proj, psi, v, grid).coefficients.reshape(grid.resolution)

    d = intertwine_defect(
        A,
        lambda x, v: gabor.proj.act(x, v),
        lambda x, F: left_reg_m(gabor.proj.multiplier, x, F, grid),
        [np.zeros(2)],
        [gabor.states["hermite1"]],
        grid,
    )
    assert d < 1e-12


def test_gabor_intertwining_relations(gabor_wide, rng):
    grid = haar_grid(gabor_wide.x_group, [(-10, 10)] * 2, [80] * 2)
    psi = gabor_wide.states["gauss"]
    tests = [gabor_wide.states["hermite1"], gabor_wide.states["mix"]]

    def A(v):
        return analyze(gabor_wide.proj, psi, v, grid).coefficients.reshape(grid.resolution)

    for _ in range(5):
        x0 = rng.uniform(-1.5, 1.5, 2)
        d = intertwine_defect(
            A,
            lambda x, v: gabor_wide.proj.act(x, v),
            lambda x, F: left_reg_m(gabor_wide.proj.multiplier, x, F, grid),
            [x0],
            tests,
            grid,
        )
        assert d < 1e-6
        g = np.concatenate([rng.uniform(-2, 2, 1), rng.uniform(-1.5, 1.5, 2)])
        d2 = intertwine_defect(
            A,
            lambda gg, v: gabor_wide.rep.act(gg, v),
            lambda gg, F: R_chi_s(gabor_wide.section, gg, F, grid),
            [g],
            tests,
            grid,
        )
        assert d2 < 1e-6


def test_intertwine_defect_over_elements_is_max_of_single_calls(gabor_wide, rng):
    grid = haar_grid(gabor_wide.x_group, [(-10, 10)] * 2, [80] * 2)
    psi = gabor_wide.states["gauss"]
    tests = [gabor_wide.states["hermite1"], gabor_wide.states["mix"]]
    calls = []

    def A(v):
        calls.append(v)
        return analyze(gabor_wide.proj, psi, v, grid).coefficients.reshape(grid.resolution)

    def defect(g):
        return intertwine_defect(
            A,
            lambda gg, v: gabor_wide.rep.act(gg, v),
            lambda gg, F: R_chi_s(gabor_wide.section, gg, F, grid),
            g,
            tests,
            grid,
        )

    gs = [np.concatenate([rng.uniform(-2, 2, 1), rng.uniform(-1.5, 1.5, 2)]) for _ in range(3)]
    singles = [defect([g]) for g in gs]
    calls.clear()
    assert defect(gs) == max(singles)
    # A v once per test state, A U(g) v once per (state, element)
    assert len(calls) == len(tests) * (1 + len(gs))
    assert defect(np.stack(gs)) == max(singles)


def test_intertwine_fault_injection(gabor_wide):
    """A deliberately wrong multiplier phase breaks the intertwining at O(1)."""
    grid = haar_grid(gabor_wide.x_group, [(-10, 10)] * 2, [80] * 2)
    psi = gabor_wide.states["gauss"]

    def A(v):
        return analyze(gabor_wide.proj, psi, v, grid).coefficients.reshape(grid.resolution)

    wrong = Multiplier(
        phase=lambda x1, x2: -gabor_wide.proj.multiplier.phase(x1, x2),
        base_group=gabor_wide.x_group,
        label="wrong-sign",
    )
    d = intertwine_defect(
        A,
        lambda x, v: gabor_wide.proj.act(x, v),
        lambda x, F: left_reg_m(wrong, x, F, grid),
        [np.array([1.2, 0.9])],
        [gabor_wide.states["hermite1"]],
        grid,
    )
    assert d > 0.1


def test_exotic_intertwining_truncation_bound(exotic, rng):
    """The exotic intertwining relation holds to the truncation floor of the
    4-dimensional X quadrature (the defect shrinks as the box grows; see the
    transform tests for the Gabor relations at 1e-6)."""
    grid = exotic.x_grid
    psi = exotic.states["psi"]

    def A(v):
        return analyze(exotic.proj, psi, v, grid).coefficients.reshape(grid.resolution)

    g = np.array([0.5, -0.3, 0.2, 0.25, -0.3, 0.6, float(np.exp(0.12))])
    d = intertwine_defect(
        A,
        lambda gg, v: exotic.rep.act(gg, v),
        lambda gg, F: R_chi_s(exotic.section, gg, F, grid),
        [g],
        [exotic.states["phi"]],
        grid,
    )
    assert d < 2e-3


def _literal_R_chi_s(section, g, values, grid):
    """Reference: chi(c_s(g^{-1}, x)) f(g^{-1}[x]), the cocycle evaluated by
    G-chart products at every grid node."""
    sub = section.subgroup
    G, X = sub.ambient, sub.quotient
    g_inv = G.inverse(np.asarray(g, dtype=float))
    moved = _apply_x_translation(X, X.inverse(sub.project(g)), values, grid)
    cs = section_cocycle(section, np.broadcast_to(g_inv, (grid.n_nodes, G.dim)), grid.nodes)
    return np.exp(1j * sub.chi_phase(cs)).reshape(grid.resolution) * moved


@pytest.mark.parametrize("which", ["gabor", "exotic"])
def test_R_chi_s_matches_literal_cocycle(which, gabor, exotic, rng):
    """chi(k) R^{m_s}_{x0} is the induced representation at g = s(x0) k, for
    the coordinate and the twisted section; neither operator builds the
    grid's node array."""
    if which == "gabor":
        setup, g = gabor, np.array([0.7, -0.4, 0.9])
        box, resolution, log_axes = [(-8, 8)] * 2, [64] * 2, ()
    else:
        setup, g = exotic, np.array([0.5, -0.3, 0.2, 0.25, -0.3, 0.6, float(np.exp(0.12))])
        box, resolution, log_axes = [(-3, 3), (-2, 2), (-3, 3), (0.5, 2.0)], [6, 5, 6, 6], (3,)
    values = rng.normal(size=resolution) + 1j * rng.normal(size=resolution)
    for section in (setup.section, setup.section_prime):
        grid = haar_grid(setup.x_group, box, resolution, log_axes=log_axes)
        out = R_chi_s(section, g, values, grid)
        left_reg_m(setup.proj.multiplier, setup.subgroup.project(g), values, grid)
        assert "nodes" not in vars(grid)
        expected = _literal_R_chi_s(section, g, values, grid)
        assert np.max(np.abs(out - expected)) < 1e-12


def test_xgrid_inner_linear_second_argument(gabor, gabor_field):
    grid, values = gabor_field
    other = values[::-1, :].copy()
    assert xgrid_inner(values, 1j * other, grid) == pytest.approx(
        1j * xgrid_inner(values, other, grid), abs=1e-12
    )
