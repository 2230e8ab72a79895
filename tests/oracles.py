"""Reference evaluators the tests compare the library against.

Each one computes a quantity of the paper literally, by G-chart products
at every point, where the library takes a shorter path (or, for the
covariant extension, stores only its section trace).  The CSV writers are
pinned by the edge values of their ``%.17g`` text, and the cached plan
arrays by their defining exponentials, which the library evaluates only
for the analysis side.
"""

import numpy as np

from groupwave.measures import gamma_s_inv
from groupwave.multipliers import Multiplier


def section_cocycle(section, g, x) -> np.ndarray:
    """c_s(g, x) = s(x)^{-1} g^{-1} s(g[x]) in the K-chart; g[x] = p(g) x.
    Raises ``InconsistentSectionError`` if a value leaves K."""
    sub = section.subgroup
    G = sub.ambient
    g = np.asarray(g, dtype=float)
    x = np.asarray(x, dtype=float)
    gx = sub.quotient.product(sub.project(g), x)
    val = G.product(G.product(G.inverse(section.map(x)), G.inverse(g)), section.map(gx))
    return sub.extract_k(val, context=f"c_s (section {section.label!r})")


def trivial_multiplier(X) -> Multiplier:
    """m = 1 on the group X."""
    return Multiplier(
        phase=lambda x1, x2: np.zeros(np.broadcast(np.asarray(x1)[..., 0],
                                                   np.asarray(x2)[..., 0]).shape),
        base_group=X,
        label="trivial",
    )


def membership_defect(subgroup, g) -> float:
    """K-membership defect by a round trip: the largest chart distance of
    the points g from K_embed(K_project(g)), a full copy of g."""
    g = np.asarray(g, dtype=float)
    back = subgroup.K_embed(subgroup.K_project(g))
    return float(np.max(subgroup.ambient.distance(back, g)))


def normality_defect(subgroup, g, k) -> float:
    """max defect of g K g^{-1} subset K over the pairs (g, k)."""
    G = subgroup.ambient
    return subgroup.membership_defect(G.product(G.product(g, subgroup.K_embed(k)), G.inverse(g)))


def xgrid_inner(f, h, grid) -> complex:
    """Weighted L2(X, mu_X) inner product of grid functions (linear in h)."""
    return complex(np.sum(np.conj(f).ravel() * h.ravel() * grid.weights))


def covariant_extension(values, grid, section, g) -> np.ndarray:
    """(F_s f)(g) = chi(k)^{-1} f(s(x)) at G-points g = s(x) k, shape
    (..., dim), whose X-part x lies on a node of ``grid``: the chi-covariant
    function on G whose section trace on the grid is ``values``."""
    x, k = gamma_s_inv(section, np.asarray(g, dtype=float))
    index = []
    for i in range(len(grid.resolution)):
        ax = grid.axis(i)
        j = np.argmin(np.abs(ax - x[..., i, None]), axis=-1)
        if np.any(np.abs(ax[j] - x[..., i]) > 1e-9 * np.maximum(1.0, np.abs(x[..., i]))):
            raise ValueError("X-part of an evaluation point is off the grid")
        index.append(j)
    base = np.asarray(values).reshape(grid.resolution)[tuple(index)]
    return np.exp(-1j * np.asarray(section.subgroup.chi_phase(k))) * base


# one value per ``%.17g`` layout boundary and per class of value that
# ``states._float_texts`` leaves to Python's ``%``
FLOAT_TEXT_EDGES = [
    float(np.nextafter(1e-4, 0.0)),  # 9.9999999999999991e-05: exponent form, E = -5
    1e-4,  # 0.0001: fixed notation from E = -4
    0.5, 1.0, 123.25,  # one digit; no point; a short fraction
    422.7449524755387,  # the 17th digit is 0
    1e16, float(np.nextafter(1e17, 0.0)),  # fixed notation up to E = 16
    1e17,  # 1e+17: exponent form from E = 17
    1.5e-100, 1e100,  # three exponent digits
    (2 ** 17 + 1) / 2 ** 17,  # an exact 18-digit halfway decimal: rounded to even
    3 * 2.0 ** -24,  # halfway too, but 10^23 is no double: Python's %
    5e-324, 1e-300, 1e300,  # outside the kernel's exponent range: Python's %
    0.0, -0.0,  # Python's %
]


def factor_plan_arrays(roles, axes, state_grid, sign) -> dict:
    """The arrays of the engine's contraction plan by their defining
    formulas, keyed by the chart axis of their role: e^{sign i c g} for a
    phase role, e^{sign i g x_j} over (g, x_j) for a modulation and
    e^{-sign i c g w_k} over (g, w_k) for a translation, ``axes`` holding
    each chart axis's nodes as bytes."""
    out = {}
    for i, r in enumerate(roles):
        g = np.frombuffer(axes[i])
        if r.kind == "phase":
            out[i] = np.exp(sign * 1j * r.coef * g)
        elif r.kind != "dilate":
            j = r.axes[0]
            x = (state_grid.axis(j) if r.kind == "modulate" else -r.coef * 2.0 * np.pi
                 * np.fft.fftfreq(state_grid.counts[j], d=state_grid.spacings[j]))
            out[i] = np.exp(sign * 1j * np.outer(g, x))
    return out


def chirp_factors(grid, axis, scale, shift):
    """(lin, quad, FFT of the kernel, prefac, outside) of the Bluestein
    resampling by their defining formulas, three exponentials evaluated
    (see ``states._chirp_factors``)."""
    n, h, x0 = grid.counts[axis], grid.spacings[axis], grid.offsets[axis]
    scale = scale[..., None]
    y = scale * grid.axis(axis) + shift
    u0 = (y[..., :1] - x0) / h
    beta = 2.0 * np.pi * scale / n
    ns = np.arange(n)
    lin = np.exp(1j * beta * ns * (u0 / scale))
    quad = np.exp(0.5j * beta * ns.astype(float) ** 2)
    length = 1
    while length < 2 * n - 1:
        length *= 2
    kernel = np.zeros(scale.shape[:-1] + (length,), dtype=complex)
    vals = np.exp(-0.5j * beta * ns.astype(float) ** 2)
    kernel[..., :n] = vals
    kernel[..., length - n + 1 :] = vals[..., 1:][..., ::-1]
    u = u0 + scale * ns
    prefac = np.exp(-2j * np.pi * (n // 2) * u / n) / n
    outside = (y < x0) | (y >= x0 + n * h)
    return lin, quad, np.fft.fft(kernel), prefac, outside
