from types import SimpleNamespace

import numpy as np
import pytest

from groupwave import configs
from groupwave.groups import haar_grid
from groupwave.representations import (
    affine_rep,
    coefficient,
    lift_to_extension,
    projective_from_section,
)
from groupwave.states import DiscretizedState, centered_grid, gaussian_state


@pytest.fixture(scope="session")
def gabor():
    return configs.gabor_setup()


@pytest.fixture(scope="session")
def gabor_wide():
    # wide state box: composition / intertwining tests need translated tails
    # to stay clear of the periodic seam
    return configs.gabor_setup(state_halfwidth=10.0, state_points=320)


@pytest.fixture(scope="session")
def gabor_n2():
    # small n = 2 configuration: a 4^4 X grid over a 48^2 state grid
    return configs.gabor_setup(
        n=2, state_halfwidth=6.0, state_points=48, x_halfwidth=4.0, x_resolution=4
    )


@pytest.fixture(scope="session")
def affine():
    return configs.affine_setup()


@pytest.fixture(scope="session")
def affine_n2():
    """(rep, psi, phi, grid) of the affine group on R^2: the one engine path
    that dilates two state axes, on a 3·3·4 log-ladder grid."""
    rep = affine_rep(2, shift_max=8.0)
    state_grid = centered_grid(8.0, 32, dim=2)
    psi = gaussian_state(state_grid, momentum=[2.0, -1.0])
    phi = gaussian_state(state_grid, center=[0.3, -0.2], momentum=[1.5, 1.0])
    grid = haar_grid(rep.group, [(-3, 3), (-3, 3), (0.5, 2.0)], [3, 3, 4], log_axes=(2,))
    return rep, psi, phi, grid


@pytest.fixture(scope="session")
def exotic():
    return configs.exotic_setup()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def _per_node_coefficients(rep, psi, phi, grid):
    """c(g) = <U(g) psi, phi>, one literal action per grid node."""
    return np.array([coefficient(rep, psi, phi, g) for g in grid.nodes], dtype=complex)


def _per_node_adjoint(rep, coeffs, grid, psi):
    """sum_g coeffs(g) w(g) U(g) psi, one literal action per grid node."""
    acc = np.zeros(psi.grid.counts, dtype=complex)
    for c, g, w in zip(coeffs, grid.nodes, grid.weights):
        acc += (c * w) * rep.act(g, psi).samples
    return DiscretizedState(acc, psi.grid)


@pytest.fixture(scope="session")
def per_node():
    """The node-by-node oracle that the batched engine is compared against."""
    return SimpleNamespace(coefficients=_per_node_coefficients, adjoint=_per_node_adjoint)


@pytest.fixture(scope="session")
def gauged_and_lifted(gabor, exotic):
    """(rep, psi, phi, grid) of the specs whose tables carry a section gauge
    or a lift's T axis, on small grids inside their safe boxes."""
    gauss, herm = gabor.states["gauss"], gabor.states["hermite1"]
    x_grid = haar_grid(gabor.x_group, [(-4, 4)] * 2, [10] * 2)
    cases = {
        "gabor_s_sym": (gabor.proj_prime, gauss, herm, x_grid),
        "exotic_s_tw": (
            projective_from_section(exotic.rep, exotic.section_prime),
            exotic.states["psi"], exotic.states["phi"],
            haar_grid(exotic.x_group, [(-3, 3), (-2, 2), (-3, 3), (0.5, 2.0)],
                      [5, 4, 5, 4], log_axes=(3,)),
        ),
    }
    for name, proj, variant in (("lift_standard", gabor.proj, "standard"),
                                ("lift_starred", gabor.proj, "starred"),
                                ("lift_s_sym", gabor.proj_prime, "standard")):
        lift = lift_to_extension(proj, variant)
        grid = haar_grid(lift.group, [(-3, 3), (-4, 4), (-4, 4)], [4, 6, 6])
        cases[name] = (lift, gauss, herm, grid)
    return cases
