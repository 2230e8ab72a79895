import numpy as np
import pytest

from groupwave.groups import BLOCK, haar_grid, random_chart_points
from groupwave.measures import (
    RhoDensity,
    center_divergence_probe,
    coord_product,
    decompose_check,
    gamma_s,
    gamma_s_inv,
    integrate_mod_K,
    make_rho,
    rho_validate,
    translate_rho,
)
from oracles import normality_defect


def gaussian_fn(nodes):
    return np.exp(-np.sum(np.asarray(nodes) ** 2, axis=-1) / 2.0)


def test_gamma_round_trip_wh(gabor, rng):
    g = random_chart_points(gabor.group, rng, 1000)
    x, k = gamma_s_inv(gabor.section, g)
    back = gamma_s(gabor.section, x, k)
    assert np.max(np.abs(back - g)) < 1e-12
    # gamma_s((p,q), k) = (k, p, q) for the coordinate section
    out = gamma_s(gabor.section, np.array([2.0, 3.0]), np.array([1.5]))
    assert np.allclose(out, [1.5, 2.0, 3.0])
    e = gamma_s(gabor.section, np.zeros(2), np.zeros(1))
    assert np.max(np.abs(e)) == 0.0


def test_gamma_round_trip_exotic(exotic, rng):
    g = random_chart_points(exotic.group, rng, 500)
    x, k = gamma_s_inv(exotic.section, g)
    back = gamma_s(exotic.section, x, k)
    assert np.max(np.abs(back - g)) < 1e-12


@pytest.mark.parametrize("which", ["gabor", "exotic"])
def test_coord_product_matches_direct_product(which, gabor, exotic, rng):
    setup = gabor if which == "gabor" else exotic
    sub, section = setup.subgroup, setup.section
    # identity pair
    ex, ek = coord_product(
        section,
        setup.x_group.identity, np.zeros(sub.k_group.dim),
        setup.x_group.identity, np.zeros(sub.k_group.dim),
    )
    assert np.max(np.abs(ex - setup.x_group.identity)) < 1e-14
    assert np.max(np.abs(ek)) < 1e-14
    n = 200
    x1 = random_chart_points(setup.x_group, rng, n)
    x2 = random_chart_points(setup.x_group, rng, n)
    kd = sub.k_group.dim
    k1 = rng.uniform(-2, 2, (n, kd))
    k2 = rng.uniform(-2, 2, (n, kd))
    xx, kk = coord_product(section, x1, k1, x2, k2)
    direct = setup.group.product(
        gamma_s(section, x1, k1), gamma_s(section, x2, k2)
    )
    xd, kd_coords = gamma_s_inv(section, direct)
    assert np.max(np.abs(xx - xd)) < 1e-12
    assert np.max(np.abs(kk - kd_coords)) < 1e-12


def test_subgroup_normality(gabor, exotic, rng):
    for setup in (gabor, exotic):
        g = random_chart_points(setup.group, rng, 300)
        k = rng.uniform(-2, 2, (300, setup.subgroup.k_group.dim))
        assert normality_defect(setup.subgroup, g, k) < 1e-12


def test_decompose_check_wh_gaussian(gabor):
    sub = gabor.subgroup
    g_grid = haar_grid(gabor.group, [(-7, 7)] * 3, [32] * 3)
    x_grid = haar_grid(gabor.x_group, [(-7, 7)] * 2, [32] * 2)
    k_grid = haar_grid(sub.k_group, [(-7, 7)], [32])
    lhs, rhs, rel = decompose_check(gaussian_fn, gabor.section, g_grid, x_grid, k_grid)
    assert rel < 1e-6
    assert lhs == pytest.approx((2 * np.pi) ** 1.5 / (2 * np.pi), rel=1e-6)


def test_decompose_zero_function(gabor):
    sub = gabor.subgroup
    g_grid = haar_grid(gabor.group, [(-3, 3)] * 3, [8] * 3)
    x_grid = haar_grid(gabor.x_group, [(-3, 3)] * 2, [8] * 2)
    k_grid = haar_grid(sub.k_group, [(-3, 3)], [8])
    zero = lambda nodes: np.zeros(np.asarray(nodes).shape[:-1])
    lhs, rhs, _ = decompose_check(zero, gabor.section, g_grid, x_grid, k_grid)
    assert lhs == 0.0 and rhs == 0.0


def test_decompose_section_independent(gabor):
    sub = gabor.subgroup
    g_grid = haar_grid(gabor.group, [(-7, 7)] * 3, [32] * 3)
    x_grid = haar_grid(gabor.x_group, [(-2, 2)] * 2, [24] * 2)
    k_grid = haar_grid(sub.k_group, [(-12, 12)], [128])
    _, r1, _ = decompose_check(gaussian_fn, gabor.section, g_grid, x_grid, k_grid)
    _, r2, _ = decompose_check(gaussian_fn, gabor.section_prime, g_grid, x_grid, k_grid)
    assert abs(r1 - r2) / abs(r1) < 1e-10


def test_rho_densities_wh(gabor, rng):
    sub = gabor.subgroup
    xs = random_chart_points(gabor.x_group, rng, 16)
    k_grid = haar_grid(sub.k_group, [(-10, 10)], [512])
    rho_g = make_rho("gaussian", sub)
    rho_b = make_rho("bump", sub)
    assert rho_validate(rho_g, gabor.section, xs, k_grid) < 1e-12
    assert rho_validate(rho_b, gabor.section, xs, k_grid) < 1e-10
    # value of the gaussian density matches e^{-k^2/2}/sqrt(2 pi) on the chart
    g = np.array([1.3, 0.4, -0.2])
    assert float(rho_g.eval(g)) == pytest.approx(
        np.exp(-1.3 ** 2 / 2) / np.sqrt(2 * np.pi), rel=1e-12
    )
    # normalization holds through the other section as well
    k_wide = haar_grid(sub.k_group, [(-14, 14)], [512])
    xs_small = rng.uniform(-2.0, 2.0, (8, 2))  # |p q| / 2 <= 2, inside the K box
    assert rho_validate(rho_g, gabor.section_prime, xs_small, k_wide) < 1e-10


def test_rho_exotic_product_density(exotic, rng):
    sub = exotic.subgroup
    rho = make_rho("gaussian", sub)
    xs = random_chart_points(exotic.x_group, rng, 8)
    k_grid = haar_grid(sub.k_group, [(-9, 9)] * 3, [72] * 3)
    assert rho_validate(rho, exotic.section, xs, k_grid) < 1e-8


def test_rho_translate_and_convexity(gabor, rng):
    sub = gabor.subgroup
    xs = random_chart_points(gabor.x_group, rng, 10)
    k_grid = haar_grid(sub.k_group, [(-12, 12)], [512])
    rho_g = make_rho("gaussian", sub)
    rho_t = translate_rho(rho_g, np.array([1.0, 0.0, 0.0]))
    assert rho_validate(rho_t, gabor.section, xs, k_grid) < 1e-8
    # the translate by (1,0,0) shifts the density argument: rho^g(k,p,q) = w(k+1)
    g = np.array([0.5, 0.2, -0.1])
    assert float(rho_t.eval(g)) == pytest.approx(
        np.exp(-1.5 ** 2 / 2) / np.sqrt(2 * np.pi), rel=1e-12
    )
    rho_b = make_rho("bump", sub)
    mix = RhoDensity(
        profile=lambda k: 0.3 * rho_g.profile(k) + 0.7 * rho_b.profile(k),
        subgroup=sub,
        label="mix",
    )
    assert rho_validate(mix, gabor.section, xs, k_grid) < 1e-8


def test_constant_density_rejected(gabor, rng):
    # the constant function integrates to the K-box measure, which grows
    # without bound: it belongs to no measure of the class
    sub = gabor.subgroup
    const = RhoDensity(profile=lambda k: np.ones(np.asarray(k).shape[:-1]), subgroup=sub)
    xs = np.zeros((1, 2))
    defects = []
    for box in (4.0, 8.0, 16.0):
        k_grid = haar_grid(sub.k_group, [(-box, box)], [128])
        defects.append(rho_validate(const, gabor.section, xs, k_grid))
    assert defects[0] > 1.0
    assert defects[2] > defects[1] > defects[0]
    with pytest.raises(ValueError, match="unknown density kind"):
        make_rho("constant", sub)


def test_integrate_mod_K_basics(gabor):
    sub = gabor.subgroup
    grid = haar_grid(gabor.group, [(-6, 6), (-2, 2), (-2, 2)], [128, 12, 12])
    rho = make_rho("gaussian", sub)
    zero = lambda nodes: np.zeros(np.asarray(nodes).shape[:-1])
    assert integrate_mod_K(zero, rho, grid) == 0.0
    # K-invariant indicator: mu_{G,K} volume equals the X-box volume and is
    # section independent by construction of the density
    one = lambda nodes: np.ones(np.asarray(nodes).shape[:-1])
    vol = integrate_mod_K(one, rho, grid)
    x_vol = 16.0 / (2 * np.pi)
    assert vol == pytest.approx(x_vol, rel=1e-6)


def test_integrate_mod_K_left_invariance(gabor):
    # int f(g g') rho(g') dmu(g') = int f rho^{g^{-1}} dmu
    sub = gabor.subgroup
    G = gabor.group
    # the identity holds up to the tails the box cuts off on every axis
    grid = haar_grid(gabor.group, [(-8, 8), (-6.5, 6.5), (-6.5, 6.5)], [160, 40, 40])
    rho = make_rho("gaussian", sub)
    g0 = np.array([0.4, 0.3, -0.2])

    def f(nodes):
        return np.exp(-np.sum(np.asarray(nodes) ** 2, axis=-1) / 1.5)

    def f_translated(nodes):
        return f(G.product(np.broadcast_to(g0, np.asarray(nodes).shape), nodes))

    lhs = integrate_mod_K(f_translated, rho, grid)
    rhs = integrate_mod_K(f, translate_rho(rho, G.inverse(g0)), grid)
    assert abs(lhs - rhs) / abs(rhs) < 1e-10


def test_integrate_mod_K_largest_box_value(gabor):
    sub = gabor.subgroup
    rho = make_rho("gaussian", sub)
    grid = haar_grid(gabor.group, [(-6, 6), (-8.0, 8.0), (-8.0, 8.0)], [96, 24, 24])
    value = integrate_mod_K(gaussian_fn, rho, grid)
    # k-fibre: int e^{-k^2/2} w(k) dk = 1/sqrt(2); (p,q): 2 pi / (2 pi) = 1
    assert value == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-4)


def test_integrate_mod_K_sums_by_block(gabor):
    """``integrate_mod_K`` sums (f rho) w block by block: on a grid of more
    than ``BLOCK`` nodes it builds neither ``nodes`` nor ``weights`` and
    matches the whole-array sum to rounding; on a grid of one block it is
    that sum bit for bit."""
    rho = make_rho("gaussian", gabor.subgroup)

    def whole_array_sum(grid):
        return float(np.sum(gaussian_fn(grid.nodes) * rho.eval(grid.nodes) * grid.weights))

    box = [(-6, 6), (-4, 4), (-4, 4)]
    grid, whole = (haar_grid(gabor.group, box, [1040, 16, 16]) for _ in range(2))
    assert grid.n_nodes > BLOCK and len(list(grid.axis_blocks())) == 2
    value = integrate_mod_K(gaussian_fn, rho, grid)
    assert "nodes" not in vars(grid) and "weights" not in vars(grid)
    assert value == pytest.approx(whole_array_sum(whole), rel=1e-13)
    small = haar_grid(gabor.group, box, [64, 16, 16])
    assert integrate_mod_K(gaussian_fn, rho, small) == whole_array_sum(small)


def test_divergence_probe_zero_state(gabor):
    from groupwave.states import DiscretizedState

    zero = DiscretizedState(
        np.zeros(gabor.state_grid.counts, dtype=complex), gabor.state_grid
    )
    x_grid = haar_grid(gabor.x_group, [(-4, 4)] * 2, [12] * 2)
    partials, slope, x_int = center_divergence_probe(
        gabor.rep, gabor.subgroup, gabor.states["gauss"], zero, [2.0, 4.0], x_grid
    )
    assert max(abs(p) for p in partials) == 0.0
    assert x_int == 0.0


def test_divergence_probe_linear_growth(gabor):
    x_grid = haar_grid(gabor.x_group, [(-6, 6)] * 2, [24] * 2)
    partials, slope, x_int = center_divergence_probe(
        gabor.rep,
        gabor.subgroup,
        gabor.states["gauss"],
        gabor.states["hermite1"],
        [2.0, 4.0, 8.0, 16.0],
        x_grid,
    )
    for i in range(3):
        assert partials[i + 1] / partials[i] == pytest.approx(2.0, rel=0.05)
    assert slope == pytest.approx(x_int, rel=0.05)
