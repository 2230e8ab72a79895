import dataclasses

import numpy as np
import pytest

from groupwave import configs, groups
from groupwave.groups import (
    GroupElement,
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
    make_exotic_quotient(1),
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
    assert np.allclose(delta_iso(np.array([0.0, 2.0, 3.0]), 1), [3, 2, 3])
    Hs = make_standard_wh(1)
    assert np.allclose(delta_iso(Hs.identity, 1), make_polarized_wh(1).identity)
    g = random_chart_points(Hs, rng, 1000)
    h = random_chart_points(Hs, rng, 1000)
    lhs = delta_iso(Hs.product(g, h), 1)
    rhs = make_polarized_wh(1).product(delta_iso(g, 1), delta_iso(h, 1))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_delta_iso_on_elements():
    Hs = make_standard_wh(1)
    out = delta_iso(GroupElement(np.array([0.0, 2.0, 3.0]), Hs))
    assert out.group.name == "wh_polarized_n1"
    assert np.allclose(out.coords, [3, 2, 3])


def test_affine_product_and_modular():
    A = make_affine(1)
    assert np.allclose(A.product([1, 2], [3, 4]), [7, 8])
    assert float(A.modular(A.identity)) == 1.0
    with pytest.raises(ValueError):
        GroupElement(np.array([0.0, -1.0]), A)


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


def test_haar_grid_clips_to_domain():
    A = make_affine(1)
    grid = haar_grid(A, [(-1, 1), (-1.0, 2.0)], [8, 8])
    assert grid.box[1][0] == 0.0
    assert np.all(grid.nodes[:, 1] > 0)
    with pytest.raises(ValueError, match="does not intersect"):
        haar_grid(A, [(-1, 1), (-3.0, -1.0)], [8, 8])


def test_haar_grid_total_weight_wh():
    G = make_polarized_wh(1)
    grid = haar_grid(G, [(-1, 1)] * 3, [4, 4, 4])
    assert grid.total_weight() == pytest.approx(8 / (2 * np.pi), rel=1e-14)


def test_haar_grid_log_axis_weights():
    A = make_affine(1)
    grid = haar_grid(A, [(-1, 1), (0.25, 4.0)], [4, 32], log_axes=(1,))
    # integral of a^{-2} da over [1/4, 4] = 4 - 1/4; the b axis adds width 2
    assert grid.total_weight() == pytest.approx(2 * (4 - 0.25), rel=1e-3)


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
    return nodes, cell_vol * grid.group.haar_density(nodes)


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


def test_node_blocks_cover_the_nodes_in_order(monkeypatch):
    monkeypatch.setattr(groups, "BLOCK", 8)  # 2 rows of 4 nodes per block
    grid = haar_grid(make_affine(1), [(-1, 1), (0.5, 2.0)], [5, 4], log_axes=(1,))
    blocks = list(grid.node_blocks())
    assert [(sl.start, sl.stop) for sl, _ in blocks] == [(0, 8), (8, 16), (16, 20)]
    assert np.array_equal(np.concatenate([b for _, b in blocks]), grid.nodes)
    assert np.array_equal(grid.weights, _meshgrid_reference(grid)[1])


def test_haar_grid_rejects_bad_grids_at_construction(monkeypatch):
    monkeypatch.setattr(groups, "BLOCK", 8)  # the faulty nodes sit in the last block
    V = make_wh_quotient(1)
    box, res = [(-1, 1)] * 2, [8, 8]
    outside = dataclasses.replace(V, domain_constraint=lambda g: np.asarray(g)[..., 0] < 0.8)
    with pytest.raises(ValueError, match="violate the chart domain"):
        haar_grid(outside, box, res)
    vanishing = dataclasses.replace(
        V, haar_density=lambda g: np.where(np.asarray(g)[..., 0] < 0.8, 1.0, 0.0))
    with pytest.raises(ValueError, match="non-positive Haar weights"):
        haar_grid(vanishing, box, res)
    with pytest.raises(ValueError, match="positive lower bound"):
        haar_grid(V, box, res, log_axes=(1,))
    with pytest.raises(ValueError, match="positive lower bound"):
        haar_grid(make_affine(1), [(-1, 1), (-1.0, 2.0)], res, log_axes=(1,))
