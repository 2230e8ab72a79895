import dataclasses

import numpy as np
import pytest

from groupwave import configs, groups
from groupwave.groups import (
    associativity_defect,
    delta_iso,
    haar_grid,
    identity_defect,
    inverse_defect,
    left_invariance_defect,
    make_affine,
    make_exotic,
    make_exotic_quotient,
    make_polarized_wh,
    make_standard_wh,
    make_vector_group,
    make_wh_quotient,
    modular_homomorphism_defect,
    modular_quadrature_estimate,
    random_chart_points,
)

ALL_GROUPS = [
    make_polarized_wh(1),
    make_polarized_wh(2),
    make_standard_wh(1),
    make_affine(1),
    make_affine(2),
    make_exotic(1),
    make_exotic(2),
    make_exotic_quotient(1),
    make_exotic_quotient(2),
    make_wh_quotient(1),
]


@pytest.mark.parametrize("group", ALL_GROUPS, ids=lambda g: g.name)
def test_group_axioms(group, rng):
    pts = random_chart_points(group, rng, 1000)
    g, h, l = (random_chart_points(group, rng, 1000) for _ in range(3))
    assert identity_defect(group, pts) < 1e-12
    assert inverse_defect(group, pts) < 1e-12
    assert associativity_defect(group, g, h, l) < 1e-12
    assert modular_homomorphism_defect(group, g, h) < 1e-12


def test_polarized_wh_product_example():
    G = make_polarized_wh(1)
    assert np.allclose(G.product([0, 1, 2], [0, 3, 0]), [6, 4, 2])
    assert np.allclose(G.product(G.identity, [5, 1, 1]), [5, 1, 1])


def test_polarized_wh_inverse_formula(rng):
    G = make_polarized_wh(1)
    # inverse is (-k + q.p, -p, -q)
    g = np.array([2.0, 1.0, 3.0])
    assert np.allclose(G.inverse(g), [1.0, -1.0, -3.0])
    pts = random_chart_points(G, rng, 100)
    prod = G.product(pts, G.inverse(pts))
    assert np.max(np.abs(prod)) < 1e-13


def test_delta_iso_examples(rng):
    assert np.allclose(delta_iso(np.array([0.0, 2.0, 3.0])), [3, 2, 3])
    Hs = make_standard_wh(1)
    assert np.allclose(delta_iso(Hs.identity), make_polarized_wh(1).identity)
    g = random_chart_points(Hs, rng, 1000)
    h = random_chart_points(Hs, rng, 1000)
    lhs = delta_iso(Hs.product(g, h))
    rhs = make_polarized_wh(1).product(delta_iso(g), delta_iso(h))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_delta_iso_on_elements():
    """n is the one the chart width implies, for one element and for a
    batch; the input is not modified."""
    g = np.array([0.0, 2.0, 3.0])
    assert np.allclose(delta_iso(g), [3, 2, 3])
    assert np.allclose(g, [0, 2, 3])
    g2 = np.array([[0.5, 1.0, -2.0, 3.0, 0.5]] * 2)
    assert np.allclose(delta_iso(g2), [[0.5 + 0.5 * (3.0 - 1.0), 1.0, -2.0, 3.0, 0.5]] * 2)


def test_affine_product_and_modular():
    A = make_affine(1)
    assert np.allclose(A.product([1, 2], [3, 4]), [7, 8])
    assert float(A.modular(A.identity)) == 1.0
    with pytest.raises(ValueError, match="violate the chart domain"):
        groups.QuadratureGrid(A, ((-1.0, 1.0), (-1.0, 2.0)), (4, 4))


def test_exotic_product_example():
    E = make_exotic(1)
    assert np.allclose(
        E.product([0, 0, 0, 1, 1, 0, 1], [0, 0, 0, 0, 0, 0, 2]),
        [0, 0, 0, 1, 1, 0, 2],
    )
    g = np.array([0.3, -0.2, 0.5, 1.0, -1.0, 0.7, 2.0])
    assert np.max(np.abs(E.product(g, E.inverse(g)) - E.identity)) < 1e-14


def test_invalid_dimension_rejected():
    for factory in (make_polarized_wh, make_standard_wh, make_affine, make_exotic):
        with pytest.raises(ValueError):
            factory(0)


def test_haar_grid_affine_counts_and_weights():
    A = make_affine(1)
    grid = haar_grid(A, [(-1, 1), (0.5, 2)], [8, 8])
    assert grid.n_nodes == 64
    assert np.all(grid.weights > 0)
    assert np.all(grid.nodes[:, 1] > 0)


def test_haar_grid_rejects_box_below_domain():
    """A box reaching below the chart domain (a > 0) raises; it was once
    clipped to it.  A box starting on the domain's bound keeps its midpoint
    nodes inside it."""
    A = make_affine(1)
    for box in [(-1.0, 2.0), (-3.0, -1.0)]:
        with pytest.raises(ValueError, match="violate the chart domain"):
            haar_grid(A, [(-1, 1), box], [8, 8])
    grid = haar_grid(A, [(-1, 1), (0.0, 2.0)], [8, 8])
    assert grid.box[1] == (0.0, 2.0)
    assert np.all(grid.nodes[:, 1] > 0)
    with pytest.raises(ValueError, match="is empty"):
        haar_grid(A, [(-1, 1), (2.0, 1.0)], [8, 8])


def test_haar_grid_total_weight_wh():
    G = make_polarized_wh(1)
    grid = haar_grid(G, [(-1, 1)] * 3, [4, 4, 4])
    assert np.sum(grid.weights) == pytest.approx(8 / (2 * np.pi), rel=1e-14)


def test_haar_grid_log_axis_weights():
    A = make_affine(1)
    grid = haar_grid(A, [(-1, 1), (0.25, 4.0)], [4, 32], log_axes=(1,))
    # integral of a^{-2} da over [1/4, 4] = 4 - 1/4; the b axis adds width 2
    assert np.sum(grid.weights) == pytest.approx(2 * (4 - 0.25), rel=1e-3)


def test_quadrature_convergence_order():
    # boundary terms make the midpoint error second order; a gaussian cut by
    # the box shows it cleanly
    G = make_polarized_wh(1)
    f = lambda nodes: np.exp(-np.sum((np.asarray(nodes) - 0.7) ** 2, axis=-1) / 2.0)
    errors = []
    fine = haar_grid(G, [(-1, 1)] * 3, [128] * 3)
    ref = float(np.sum(f(fine.nodes) * fine.weights))
    for res in (4, 8, 16):
        grid = haar_grid(G, [(-1, 1)] * 3, [res] * 3)
        errors.append(abs(float(np.sum(f(grid.nodes) * grid.weights)) - ref))
    order1 = np.log2(errors[0] / errors[1])
    order2 = np.log2(errors[1] / errors[2])
    assert min(order1, order2) >= 2.0 - 0.2


def test_affine_left_invariance_quadrature():
    A = make_affine(1)
    grid = haar_grid(A, [(-8, 8), (np.exp(-3), np.exp(3))], [256, 384])
    f = lambda nodes: np.exp(-nodes[..., 0] ** 2 / 0.5) * np.exp(
        -np.log(nodes[..., 1]) ** 2 / 0.18
    )
    assert left_invariance_defect(A, np.array([0.3, 1.2]), grid, f) < 1e-6


def test_wh_right_invariance_unimodular():
    G = make_polarized_wh(1)
    grid = haar_grid(G, [(-9, 9)] * 3, [48] * 3)
    f = lambda nodes: np.exp(-np.sum(np.asarray(nodes) ** 2, axis=-1) / 1.5)
    base = float(np.sum(f(grid.nodes) * grid.weights))
    g0 = np.array([0.4, -0.6, 0.8])
    right = G.product(grid.nodes, np.broadcast_to(g0, grid.nodes.shape))
    shifted = float(np.sum(f(right) * grid.weights))
    assert abs(shifted - base) / base < 1e-6


def test_exotic_quotient_modular_by_quadrature():
    X = make_exotic_quotient(1)
    grid = haar_grid(
        X,
        [(-0.1, 0.1), (-0.1, 0.1), (-8, 8), (np.exp(-3), np.exp(3))],
        [2, 2, 384, 384],
    )
    f = lambda nodes: np.exp(-nodes[..., 2] ** 2 / 0.5) * np.exp(
        -np.log(nodes[..., 3]) ** 2 / 0.18
    )
    for a0 in (0.6, 1.7):
        est = modular_quadrature_estimate(X, np.array([0.0, 0.0, 0.3, a0]), grid, f)
        assert abs(est - 1.0 / a0) * a0 < 1e-6


def _whole_array_integral(grid, f):
    return float(np.sum(f(grid.nodes) * grid.weights))


def test_haar_quadratures_sum_node_blocks_and_leave_nodes_unbuilt(monkeypatch):
    """The exotic suite's Delta_X quadrature (2 node blocks, split where
    numpy's pairwise sum splits) and the affine left-invariance defect (one
    block) give the whole-array sums bit for bit and never build the grid's
    ``nodes`` (2.4 M floats for the Delta_X grid); in 128 blocks the affine
    defect stays within rounding."""
    X, A = make_exotic_quotient(1), make_affine(1)
    box_x = [(-0.1, 0.1), (-0.1, 0.1), (-8, 8), (np.exp(-3), np.exp(3))]
    f_x = lambda nodes: np.exp(-nodes[..., 2] ** 2 / 0.5) * np.exp(
        -np.log(nodes[..., 3]) ** 2 / 0.18
    )
    g0 = np.array([0.0, 0.0, 0.4, 1.7])
    grid, whole = (haar_grid(X, box_x, [2, 2, 384, 384]) for _ in range(2))
    assert len(list(grid.axis_blocks())) == 2
    shifted = lambda x: f_x(X.product(x, np.broadcast_to(g0, x.shape)))
    assert modular_quadrature_estimate(X, g0, grid, f_x) == \
        _whole_array_integral(whole, f_x) / _whole_array_integral(whole, shifted)
    assert "nodes" not in vars(grid)

    box_a = [(-8, 8), (np.exp(-3), np.exp(3))]
    f_a = lambda nodes: np.exp(-nodes[..., 0] ** 2 / 0.5) * np.exp(
        -np.log(nodes[..., 1]) ** 2 / 0.18
    )
    h0 = np.array([0.3, 1.2])
    grid, whole = (haar_grid(A, box_a, [256, 384]) for _ in range(2))
    base = _whole_array_integral(whole, f_a)
    moved = _whole_array_integral(whole, lambda x: f_a(A.product(np.broadcast_to(h0, x.shape), x)))
    assert left_invariance_defect(A, h0, grid, f_a) == abs(moved - base) / base
    assert "nodes" not in vars(grid)
    monkeypatch.setattr(groups, "BLOCK", 1000)  # 2 rows of 384 nodes per block
    assert len(list(grid.axis_blocks())) == 128
    assert left_invariance_defect(A, h0, grid, f_a) == pytest.approx(abs(moved - base) / base,
                                                                     rel=1e-6, abs=1e-15)


def test_slab_nodes_are_the_sliced_nodes():
    grid = haar_grid(make_affine(2), [(-1, 1), (-2, 2), (0.5, 2.0)], [3, 4, 5], log_axes=(2,))
    at = (slice(1, 3), slice(None), slice(2, 3))
    nodes = grid.nodes.reshape(grid.resolution + (3,))[at].reshape(-1, 3)
    assert np.array_equal(grid.slab_nodes(at), nodes)


def _meshgrid_reference(grid):
    """Nodes and weights built eagerly with meshgrid over the whole grid."""
    axes, cells = [], []
    for i, (lo, hi) in enumerate(grid.box):
        n = grid.resolution[i]
        if i in grid.log_axes:
            h = (np.log(hi) - np.log(lo)) / n
            axes.append(np.exp(np.log(lo) + h * (np.arange(n) + 0.5)))
            cells.append(axes[-1] * h)
        else:
            h = (hi - lo) / n
            axes.append(lo + h * (np.arange(n) + 0.5))
            cells.append(np.full(n, h))
    nodes = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    cell_vol = np.ones(nodes.shape[0])
    for cm in np.meshgrid(*cells, indexing="ij"):
        cell_vol = cell_vol * cm.ravel()
    return nodes, cell_vol * grid.group.haar_density(np.moveaxis(nodes, -1, 0))


GRIDS = {
    "gabor_64": lambda: configs.gabor_setup().x_grid,
    "affine_160_log": lambda: configs.affine_setup().x_grid,
    "exotic_bundled": lambda: configs.exotic_setup().x_grid,
    "exotic_4": lambda: configs.exotic_setup(x_resolution=(4, 4, 4, 4)).x_grid,
    "wh_n2": lambda: configs.gabor_setup(n=2, state_points=48, x_halfwidth=4.0,
                                         x_resolution=4).x_grid,
    # 70 rows of 64^2 nodes: a full block of 64 rows and a partial one
    "wh_two_blocks": lambda: haar_grid(make_polarized_wh(1), [(-1, 1)] * 3, [70, 64, 64]),
}


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_grid_weights_and_nodes_equal_meshgrid_reference(name):
    grid = GRIDS[name]()
    assert "nodes" not in vars(grid)  # built on demand
    nodes, weights = _meshgrid_reference(grid)
    assert np.array_equal(grid.weights, weights)
    for i in (0, grid.n_nodes // 3, grid.n_nodes - 1):
        assert grid.node(i).tobytes() == nodes[i].tobytes()
    assert "nodes" not in vars(grid)
    assert np.array_equal(grid.nodes, nodes)
    assert grid.n_nodes == nodes.shape[0]


def test_slab_weights_are_the_sliced_weights():
    """``slab_weights(at)`` gives the bits of ``weights.reshape(resolution)[at]``:
    on the six reference grids for their axis blocks, the whole grid and a
    slab cut on every axis, and on engine slabs of the bundled exotic grid
    (a slice of the lead axis p by one of the log a axis, which the engine
    dilates; its slices may run past the end).  The factors are guarded: a
    zero, negative or NaN density raises, and so does a product of positive
    factors that underflows to a zero weight."""
    slabs = {}
    for name, make in GRIDS.items():
        grid = make()
        cut = tuple(slice(1, n - 1) for n in grid.resolution)
        slabs[name] = (grid, [at for _, at, _ in grid.axis_blocks()]
                       + [(slice(None),) * len(grid.resolution), cut])
    whole = slice(None)
    slabs["exotic_engine"] = (configs.exotic_setup().x_grid, [
        (slice(0, 1), whole, whole, slice(0, 64)), (slice(17, 19), whole, whole, slice(16, 32)),
        (slice(38, 41), whole, whole, slice(40, 56))])
    for name, (grid, ats) in slabs.items():
        weights = grid.weights.reshape(grid.resolution)
        for at in ats:
            w = grid.slab_weights(at)
            assert w.shape == weights[at].shape and w.tobytes() == weights[at].tobytes(), (name, at)

    V = make_wh_quotient(1)
    for density in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="non-positive Haar weights"):
            haar_grid(dataclasses.replace(V, haar_density=lambda x, d=density: d),
                      [(-1, 1)] * 2, [8, 8])
    # cells of 1e-15: times a density of 1e-290 every weight is 1e-320, a
    # positive subnormal; times 1e-300 every one underflows to 0
    tiny = [(0.0, 8e-15)] * 2
    assert np.all(haar_grid(make_vector_group(2, "v", 1e-290), tiny, [8, 8]).weights > 0)
    with pytest.raises(ValueError, match="non-positive Haar weights"):
        haar_grid(make_vector_group(2, "v", 1e-300), tiny, [8, 8])


def test_grid_evaluates_haar_density_once_per_axis_node(exotic):
    """The weights take the density on the grid's open mesh: building the
    bundled exotic X grid evaluates it on its 168 axis nodes, not on its
    2,949,120 nodes, and gives the same weights."""
    grid = exotic.x_grid
    values, density = [], grid.group.haar_density

    def counting(x):
        values.append(sum(np.size(c) for c in x))
        return density(x)

    counted = dataclasses.replace(grid.group, haar_density=counting)
    rebuilt = groups.QuadratureGrid(counted, grid.box, grid.resolution, grid.log_axes)
    assert grid.n_nodes == 2_949_120
    assert sum(values) <= sum(grid.resolution) == 168
    assert np.array_equal(rebuilt.weights, grid.weights)
    assert "nodes" not in vars(rebuilt)


def test_node_blocks_cover_the_nodes_in_order(monkeypatch):
    monkeypatch.setattr(groups, "BLOCK", 8)  # 2 rows of 4 nodes per block
    grid = haar_grid(make_affine(1), [(-1, 1), (0.5, 2.0)], [5, 4], log_axes=(1,))
    blocks = list(grid.axis_blocks())
    assert [(sl.start, sl.stop) for sl, _, _ in blocks] == [(0, 8), (8, 16), (16, 20)]
    assert np.array_equal(np.concatenate([grid.slab_nodes(at) for _, at, _ in blocks]),
                          grid.nodes)
    assert np.array_equal(grid.weights, _meshgrid_reference(grid)[1])


def test_haar_grid_rejects_bad_grids_at_construction(monkeypatch):
    monkeypatch.setattr(groups, "BLOCK", 8)  # the faulty nodes sit in the last block
    V = make_wh_quotient(1)
    box, res = [(-1, 1)] * 2, [8, 8]
    outside = dataclasses.replace(V, domain_lower=(0.8, float("nan")))
    with pytest.raises(ValueError, match="violate the chart domain"):
        groups.QuadratureGrid(outside, ((-1.0, 1.0),) * 2, (8, 8))
    vanishing = dataclasses.replace(
        V, haar_density=lambda x: np.where(np.asarray(x[0]) < 0.8, 1.0, 0.0))
    with pytest.raises(ValueError, match="non-positive Haar weights"):
        haar_grid(vanishing, box, res)
    with pytest.raises(ValueError, match="non-positive Haar weights"):  # NaN nodes and weights
        groups.QuadratureGrid(make_affine(1), ((-1.0, 1.0), (float("nan"), 2.0)), (8, 8))
    with pytest.raises(ValueError, match="positive lower bound"):
        haar_grid(V, box, res, log_axes=(1,))
    with pytest.raises(ValueError, match="positive lower bound"):
        haar_grid(make_affine(1), [(-1, 1), (-1.0, 2.0)], res, log_axes=(1,))


@pytest.mark.parametrize("log_axes", [(-1,), (2,), (5,), (1, 1)])
def test_haar_grid_rejects_log_axes_outside_the_chart(log_axes):
    """An axis number that is no chart axis was once ignored, so a header
    with log axes [-1] rebuilt the affine scale axis linearly."""
    with pytest.raises(ValueError, match="log axes"):
        haar_grid(make_affine(1), [(-1, 1), (0.5, 2.0)], [4, 4], log_axes=log_axes)
