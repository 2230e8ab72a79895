import numpy as np
import pytest

from groupwave import configs


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
def exotic():
    return configs.exotic_setup()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
