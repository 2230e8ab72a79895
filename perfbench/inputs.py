"""Seeded input generators.  The same seed gives the same inputs; the
library only ever sees the generated states and files."""

from __future__ import annotations

import numpy as np

from groupwave import states


def gabor_signals(rng, grid, count):
    """Random complex mixtures of the Hermite functions h_0..h_3, unit norm."""
    basis = np.stack([states.hermite_state(grid, k).samples for k in range(4)])
    out = []
    for _ in range(count):
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        out.append(states.normalized(states.DiscretizedState(c @ basis, grid)))
    return out


def affine_signals(rng, grid, count):
    """Band-pass random signals inside the bundled wavelet grid's scale box,
    drawn like the configuration's own ``signal`` state."""
    return [
        states.random_bandlimited_state(
            grid, rng, band_fraction=0.15, envelope_width=3.0, low_cut=1.5)
        for _ in range(count)
    ]


def exotic_states(rng, grid, count):
    """log-Gauss (in bcheck) x Gauss (in pcheck) product states with a random
    momentum, parameters in the range of the bundled configuration's states."""
    out = []
    for _ in range(count):
        cb, wb = rng.uniform(1.8, 2.6), rng.uniform(0.28, 0.36)
        cp, wp, kp = rng.uniform(-0.5, 0.5), rng.uniform(0.9, 1.2), rng.uniform(-0.5, 0.5)
        out.append(states.product_state(
            grid,
            lambda x, cb=cb, wb=wb: np.exp(-((np.log(x) - np.log(cb)) ** 2) / (2 * wb ** 2)),
            lambda x, cp=cp, wp=wp, kp=kp: np.exp(-((x - cp) ** 2) / (2 * wp ** 2) + 1j * kp * x),
        ))
    return out


def displaced_gaussians(rng, grid, count):
    """Unit Gaussians displaced in position and momentum (n-dimensional)."""
    return [
        states.gaussian_state(grid, center=rng.uniform(-1.0, 1.0, grid.dim),
                              momentum=rng.uniform(-1.0, 1.0, grid.dim))
        for _ in range(count)
    ]
