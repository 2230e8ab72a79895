"""The induced representation realized on L2(X), the left regular
m-representation, and intertwining defects.

Functions on X are stored through their section trace f o s as arrays shaped
like the X quadrature grid.  The chi-covariant function on G that a trace
stands for is f(s(x) k) = chi(k)^{-1} f(s(x)), so the paper's isometry F_s
from L2(X) onto the covariant functions is the identity on the stored
values, and nothing here builds it.

``R_chi_s`` at g = s(x0) k is chi(k) times ``left_reg_m`` at x0; the literal
cocycle c_s(g, x) = s(x)^{-1} g^{-1} s(g[x]) is the tests' reference.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .groups import QuadratureGrid
from .measures import gamma_s_inv
from .multipliers import Multiplier, Section, multiplier_from_section
from .states import DiscretizedState, axis_resample, StateGrid, translate

__all__ = [
    "xgrid_norm",
    "R_chi_s",
    "left_reg_m",
    "intertwine_defect",
]


def xgrid_norm(f: np.ndarray, grid: QuadratureGrid) -> float:
    """Weighted L2(X, mu_X) norm of a grid function."""
    return float(np.sqrt(np.sum(np.abs(f).ravel() ** 2 * grid.weights)))


def R_chi_s(section: Section, g, values: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """(R^{chi,s}_g f)(x) = chi(c_s(g^{-1}, x)) f(g^{-1}[x]) on the X grid.

    On s(X) the induced representation is the left regular
    m_s-representation and K acts by the scalar chi, so with g = s(x0) k
    (``gamma_s_inv``) it is chi(k) R^{m_s}_{x0}.
    """
    x0, k = gamma_s_inv(section, np.asarray(g, dtype=float))
    out = left_reg_m(multiplier_from_section(section), x0, values, grid)
    out *= np.exp(1j * float(section.subgroup.chi_phase(k)))
    return out


def _apply_x_translation(X, x0, values: np.ndarray, grid: QuadratureGrid) -> np.ndarray:
    """Samples of f(x0 x) on the X grid for the implemented X charts, where
    left translation acts per axis as x |-> scale*x + shift, recovered by one
    batched ``X.product`` of x0 with the first node and its axis neighbours.

    Scale coordinates carried on geometric (log-spaced) axes transform purely
    multiplicatively; there the map becomes a uniform shift of the log
    coordinate and is applied as an FFT phase ramp.
    """
    dim = len(grid.resolution)
    axes = [grid.axis(i) for i in range(dim)]
    probes = np.tile([a[0] for a in axes], (dim + 1, 1))
    for i in range(dim):
        probes[i + 1, i] = axes[i][1]
    images = X.product(np.broadcast_to(x0, probes.shape), probes)
    out = DiscretizedState(
        np.asarray(values, dtype=complex).reshape(grid.resolution),
        StateGrid(
            offsets=tuple(float(np.log(a[0]) if i in grid.log_axes else a[0])
                          for i, a in enumerate(axes)),
            spacings=tuple(grid.spacing(i) for i in range(dim)),
            counts=tuple(grid.resolution),
        ),
    )
    # one translate per axis: a joint translate of several axes moves the
    # Gabor intertwining defects by about 7e-10 relative
    for ax in range(dim):
        y0, y1 = images[0, ax], images[ax + 1, ax]
        scale = float((y1 - y0) / (probes[ax + 1, ax] - probes[0, ax]))
        shift = float(y0 - scale * probes[0, ax])
        if ax in grid.log_axes:
            if abs(shift) > 1e-10 * max(1.0, abs(scale)):
                raise ValueError("translation does not act multiplicatively on a log axis")
            if scale == 1.0:
                continue
            vec = np.zeros(dim)
            vec[ax] = -np.log(scale)  # f(scale * a): shift of u = ln a
            out = translate(out, vec)
        elif scale == 1.0:
            if shift == 0.0:
                continue
            vec = np.zeros(dim)
            vec[ax] = -shift
            out = translate(out, vec)
        else:
            out = axis_resample(out, ax, scale, shift)
    return out.samples


def left_reg_m(
    m: Multiplier, x0, values: np.ndarray, grid: QuadratureGrid
) -> np.ndarray:
    """Left regular m-representation on L2(X):

        (R^m_{x0} f)(x) = m(x0, x0^{-1} x)^{-1} f(x0^{-1} x),

    with the phase evaluated on the grid's node blocks.
    """
    X = m.base_group
    x0 = np.asarray(x0, dtype=float)
    x0_inv = X.inverse(x0)
    moved = _apply_x_translation(X, x0_inv, values, grid).reshape(-1)
    out = np.empty(grid.n_nodes, dtype=complex)
    for sl, nodes in grid.node_blocks():
        args = X.product(np.broadcast_to(x0_inv, nodes.shape), nodes)
        phase = np.exp(-1j * np.asarray(m.phase(x0, args)))
        np.multiply(phase, moved[sl], out=out[sl])
    return out.reshape(grid.resolution)


def intertwine_defect(
    A: Callable[[DiscretizedState], np.ndarray],
    u_left: Callable[[np.ndarray, DiscretizedState], DiscretizedState],
    u_right: Callable[[np.ndarray, np.ndarray], np.ndarray],
    g,
    test_states,
    grid: QuadratureGrid,
) -> float:
    """max over test states v and group elements g of
    ||A U_left(g) v - U_right(g) A v|| / ||A v||.

    ``g`` is one element or a sequence of them; A v is computed once per test
    state.  A maps states to X-grid functions; U_right acts on X-grid
    functions.
    """
    elements = np.asarray(g, dtype=float)
    if elements.ndim == 1:
        elements = elements[None]
    worst = 0.0
    for v in test_states:
        a_v = np.asarray(A(v))
        scale = max(xgrid_norm(a_v, grid), 1e-300)
        for h in elements:
            lhs = np.asarray(A(u_left(h, v)))
            rhs = np.asarray(u_right(h, a_v))
            worst = max(worst, xgrid_norm(lhs - rhs, grid) / scale)
    return worst
