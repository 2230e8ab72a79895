"""Concrete locally compact groups as charts on R^d.

Each group is a :class:`GroupDescriptor`: product / inverse maps on chart
points (vectorized over leading axes), the left Haar density with respect
to Lebesgue measure on the chart, and the modular function.  The density
and the modular function take the coordinates first: ``x[i]`` is chart
coordinate i, as arrays that broadcast against each other, so a grid passes
its axes as an open mesh and a point array P passes ``np.moveaxis(P, -1,
0)``.  The registry covers the groups this package verifies:

* polarized Weyl-Heisenberg group  H'_n, chart (k, p, q),
  product (k + k' + q.p', p + p', q + q');
* standard Weyl-Heisenberg group   H_n  with the symmetrized cocycle;
* affine group  R^n x' R+ , chart (b, a), product (b + a b', a a');
* the 3n+4 dimensional group  (T x S x B x P) x' (Q x (R x' A)) used as the
  worked example of a non-central relatively central subgroup ("exotic");
* quotients and abelian vector groups needed by the quotient constructions.

The chart domain of a group is one declaration, the per-axis open lower
bounds ``domain_lower`` (a > 0 on the scale axes): a :class:`QuadratureGrid`
checks its box against it once per axis, and a box below it raises.
A grid keeps its chart axes and the factors of its Haar weights: the
per-axis cell lengths and the density, evaluated once on the open mesh
(``np.ix_``) of the axes, never on the nodes.  Weights and nodes are made
per slab from them; the whole-grid weight and node arrays are lazy.

Normalization conventions (also emitted by ``groupwave conventions``):

* H'_n, H_n : haar density (2 pi)^{-n}; with mu_K = dk on the centre this
  makes mu_X = dp dq / (2 pi)^n on X = H'_n / K and the Gabor Duflo-Moore
  operator exactly the identity.
* affine    : haar density a^{-(n+1)}, modular a^{-n}.
* exotic    : haar density (2 pi)^{-(n+1)} a^{-(n+3)}, modular a^{-(n+2)}
  (derived from the Jacobian of left/right translation); the quotient
  X = G/(T x S x R) has haar density (2 pi)^{-(n+1)} a^{-2} and modular
  a^{-1}.  This is the normalization under which the Duflo-Moore operator
  of the exotic configuration is multiplication by bcheck^{-1/2}.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "GroupDescriptor",
    "QuadratureGrid",
    "haar_grid",
    "make_polarized_wh",
    "make_standard_wh",
    "delta_iso",
    "make_affine",
    "make_exotic",
    "make_vector_group",
    "make_wh_quotient",
    "make_exotic_quotient",
    "random_chart_points",
    "associativity_defect",
    "identity_defect",
    "inverse_defect",
    "modular_homomorphism_defect",
    "left_invariance_defect",
    "modular_quadrature_estimate",
    "conventions_text",
]


@dataclass(frozen=True)
class GroupDescriptor:
    """A l.c.s.c. group realized as a chart on R^d.

    ``product``/``inverse`` accept arrays of shape (..., dim) and broadcast.
    ``haar_density``/``modular`` take the coordinates first: ``x[i]`` is
    chart coordinate i, and the coordinates are arrays that broadcast
    against each other (an open mesh, or ``np.moveaxis(P, -1, 0)`` of a
    point array P; a single point (dim,) reads the same either way); they
    return values that broadcast against the coordinates, a constant as a
    scalar.  ``angle_axes``
    marks coordinates that live on the circle and are compared mod 2 pi.
    ``domain_lower`` gives per-axis open lower bounds (NaN or ``None`` =
    unconstrained): the chart domain, declared nowhere else.  A grid box
    below it raises (:class:`QuadratureGrid`), so midpoint nodes stay off
    chart singularities.
    ``sample_box`` is the chart box random test points are drawn from.
    """

    name: str
    dim: int
    product: Callable[[np.ndarray, np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    identity: np.ndarray
    haar_density: Callable[[np.ndarray], np.ndarray]
    modular: Callable[[np.ndarray], np.ndarray]
    sample_box: tuple[tuple[float, float], ...]
    domain_lower: tuple[float, ...] | None = None
    angle_axes: tuple[int, ...] = ()
    conventions: str = ""

    def distance(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Chart distance, wrap-aware on angle axes."""
        d = np.asarray(g, dtype=float) - np.asarray(h, dtype=float)
        for ax in self.angle_axes:
            d[..., ax] = np.angle(np.exp(1j * d[..., ax]))
        return np.max(np.abs(d), axis=-1)


# ---------------------------------------------------------------------------
# Group factories
# ---------------------------------------------------------------------------


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.sum(u * v, axis=-1)


def _make_wh(n: int, name: str, cocycle, inverse, title: str, lines: str) -> GroupDescriptor:
    """A Weyl-Heisenberg group in chart (k, p in R^n, q in R^n): product
    (k + k' + cocycle(g, h), p + p', q + q') and Haar density (2 pi)^{-n}.
    ``title`` and ``lines`` (its product, inverse and Haar lines) are what
    the conventions sheets of the two charts do not share."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    dim = 2 * n + 1
    dens = (2.0 * np.pi) ** (-n)

    def product(g, h):
        g = np.asarray(g, dtype=float)
        h = np.asarray(h, dtype=float)
        g, h = np.broadcast_arrays(g, h)
        out = np.empty_like(g)
        out[..., 0] = g[..., 0] + h[..., 0] + cocycle(g, h)
        out[..., 1:] = g[..., 1:] + h[..., 1:]
        return out

    return GroupDescriptor(
        name=name,
        dim=dim,
        product=product,
        inverse=inverse,
        identity=np.zeros(dim),
        haar_density=lambda x: dens,
        modular=lambda x: 1.0,
        sample_box=((-3.0, 3.0),) * dim,
        conventions=(
            f"{title}\n"
            f"chart      : (k, p in R^{n}, q in R^{n}), dim {dim}\n"
            f"{lines}"
            "modular    : 1\n"
        ),
    )


def make_polarized_wh(n: int) -> GroupDescriptor:
    """Polarized Weyl-Heisenberg group H'_n, chart (k, p in R^n, q in R^n)."""

    def inverse(g):
        g = np.asarray(g, dtype=float)
        out = np.empty_like(g)
        out[..., 0] = -g[..., 0] + _dot(g[..., 1 + n :], g[..., 1 : 1 + n])
        out[..., 1:] = -g[..., 1:]
        return out

    return _make_wh(
        n, f"wh_polarized_n{n}", lambda g, h: _dot(g[..., 1 + n :], h[..., 1 : 1 + n]), inverse,
        f"polarized Weyl-Heisenberg group H'_{n}",
        "product    : (k + k' + q.p', p + p', q + q')\n"
        "inverse    : (-k + q.p, -p, -q)\n"
        f"haar       : (2 pi)^(-{n}) dk dp dq   (left = right)\n",
    )


def make_standard_wh(n: int) -> GroupDescriptor:
    """Standard Weyl-Heisenberg group H_n with the antisymmetric cocycle."""

    def cocycle(g, h):
        return 0.5 * (_dot(g[..., 1 + n :], h[..., 1 : 1 + n])
                      - _dot(g[..., 1 : 1 + n], h[..., 1 + n :]))

    return _make_wh(
        n, f"wh_standard_n{n}", cocycle, lambda g: -np.asarray(g, dtype=float),
        f"standard Weyl-Heisenberg group H_{n}",
        "product    : (k + k' + (q.p' - p.q')/2, p + p', q + q')\n"
        "inverse    : (-k, -p, -q)\n"
        f"haar       : (2 pi)^(-{n}) dk dp dq\n",
    )


def delta_iso(g, n: int | None = None):
    """Isomorphism H_n -> H'_n:  (k, p, q) |-> (k + p.q/2, p, q) on chart
    coordinates (..., 2n + 1); ``n`` defaults to the one the last axis implies.
    """
    coords = np.asarray(g, dtype=float)
    if n is None:
        n = (coords.shape[-1] - 1) // 2
    out = coords.copy()
    out[..., 0] = coords[..., 0] + 0.5 * _dot(
        coords[..., 1 : 1 + n], coords[..., 1 + n :]
    )
    return out


def make_affine(n: int) -> GroupDescriptor:
    """Affine group R^n x' R+, chart (b in R^n, a > 0)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    dim = n + 1

    def product(g, h):
        g = np.asarray(g, dtype=float)
        h = np.asarray(h, dtype=float)
        g, h = np.broadcast_arrays(g, h)
        out = np.empty_like(g)
        out[..., :n] = g[..., :n] + g[..., n :] * h[..., :n]
        out[..., n] = g[..., n] * h[..., n]
        return out

    def inverse(g):
        g = np.asarray(g, dtype=float)
        out = np.empty_like(g)
        out[..., :n] = -g[..., :n] / g[..., n :]
        out[..., n] = 1.0 / g[..., n]
        return out

    return GroupDescriptor(
        name=f"affine_n{n}",
        dim=dim,
        product=product,
        inverse=inverse,
        identity=np.concatenate([np.zeros(n), [1.0]]),
        haar_density=lambda x: np.asarray(x[n], dtype=float) ** (-(n + 1)),
        modular=lambda x: np.asarray(x[n], dtype=float) ** (-n),
        domain_lower=(float("nan"),) * n + (0.0,),
        sample_box=((-3.0, 3.0),) * n + ((0.25, 4.0),),
        conventions=(
            f"affine group R^{n} x' R+\n"
            f"chart      : (b in R^{n}, a > 0), dim {dim}\n"
            "product    : (b + a b', a a')\n"
            "inverse    : (-b/a, 1/a)\n"
            f"haar       : a^(-{n + 1}) db da   (left)\n"
            f"modular    : a^(-{n})\n"
        ),
    )


def make_exotic(n: int) -> GroupDescriptor:
    """The (3n+4)-dimensional group (T x S x B x P) x' (Q x (R x' A)).

    Chart order (t, s, b, p in R^n, q in R^n, r in R^n, a > 0); product

        (t + t' + q.p', s + a s' + r.p', b + a b',
         p + p', q + q', r + a r', a a').
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    dim = 3 * n + 4
    sl_p = slice(3, 3 + n)
    sl_q = slice(3 + n, 3 + 2 * n)
    sl_r = slice(3 + 2 * n, 3 + 3 * n)
    ia = 3 + 3 * n
    dens0 = (2.0 * np.pi) ** (-(n + 1))

    def product(g, h):
        g = np.asarray(g, dtype=float)
        h = np.asarray(h, dtype=float)
        g, h = np.broadcast_arrays(g, h)
        a = g[..., ia : ia + 1]
        out = np.empty_like(g)
        out[..., 0] = g[..., 0] + h[..., 0] + _dot(g[..., sl_q], h[..., sl_p])
        out[..., 1] = g[..., 1] + a[..., 0] * h[..., 1] + _dot(g[..., sl_r], h[..., sl_p])
        out[..., 2] = g[..., 2] + a[..., 0] * h[..., 2]
        out[..., sl_p] = g[..., sl_p] + h[..., sl_p]
        out[..., sl_q] = g[..., sl_q] + h[..., sl_q]
        out[..., sl_r] = g[..., sl_r] + a * h[..., sl_r]
        out[..., ia] = a[..., 0] * h[..., ia]
        return out

    def inverse(g):
        g = np.asarray(g, dtype=float)
        a = g[..., ia : ia + 1]
        out = np.empty_like(g)
        out[..., 0] = -g[..., 0] + _dot(g[..., sl_q], g[..., sl_p])
        out[..., 1] = (_dot(g[..., sl_r], g[..., sl_p]) - g[..., 1]) / a[..., 0]
        out[..., 2] = -g[..., 2] / a[..., 0]
        out[..., sl_p] = -g[..., sl_p]
        out[..., sl_q] = -g[..., sl_q]
        out[..., sl_r] = -g[..., sl_r] / a
        out[..., ia] = 1.0 / a[..., 0]
        return out

    identity = np.zeros(dim)
    identity[ia] = 1.0

    return GroupDescriptor(
        name=f"exotic_n{n}",
        dim=dim,
        product=product,
        inverse=inverse,
        identity=identity,
        haar_density=lambda x: dens0 * np.asarray(x[ia], dtype=float) ** (-(n + 3)),
        modular=lambda x: np.asarray(x[ia], dtype=float) ** (-(n + 2)),
        domain_lower=(float("nan"),) * (dim - 1) + (0.0,),
        sample_box=((-2.0, 2.0),) * (dim - 1) + ((0.4, 2.5),),
        conventions=(
            f"group (T x S x B x P) x' (Q x (R x' A)), n = {n}\n"
            f"chart      : (t, s, b, p in R^{n}, q in R^{n}, r in R^{n}, a > 0), dim {dim}\n"
            "product    : (t + t' + q.p', s + a s' + r.p', b + a b',\n"
            "              p + p', q + q', r + a r', a a')\n"
            "inverse    : (-t + q.p, (r.p - s)/a, -b/a, -p, -q, -r/a, 1/a)\n"
            f"haar       : (2 pi)^(-{n + 1}) a^(-{n + 3}) dt ds db dp dq dr da   (left)\n"
            f"modular    : a^(-{n + 2})   (from the Jacobian of right translation)\n"
            f"quotient X : chart (p, q, b, a); haar (2 pi)^(-{n + 1}) a^(-2); modular a^(-1)\n"
        ),
    )


def make_vector_group(dim: int, name: str, density: float = 1.0) -> GroupDescriptor:
    """Abelian vector group R^dim with constant Haar density."""

    def product(g, h):
        return np.asarray(g, dtype=float) + np.asarray(h, dtype=float)

    return GroupDescriptor(
        name=name,
        dim=dim,
        product=product,
        inverse=lambda g: -np.asarray(g, dtype=float),
        identity=np.zeros(dim),
        haar_density=lambda x: float(density),
        modular=lambda x: 1.0,
        sample_box=((-3.0, 3.0),) * dim,
        conventions=(
            f"vector group R^{dim} ({name})\n"
            f"haar       : {density!r} * Lebesgue\nmodular    : 1\n"
        ),
    )


def make_wh_quotient(n: int) -> GroupDescriptor:
    """X = H'_n / K, the vector group R^{2n} in chart (p, q), haar dp dq/(2 pi)^n."""
    return make_vector_group(2 * n, f"wh_quotient_n{n}", density=(2.0 * np.pi) ** (-n))


def make_exotic_quotient(n: int) -> GroupDescriptor:
    """X = G/(T x S x R) for the exotic group: chart (p, q, b, a).

    Product (p + p', q + q', b + a b', a a'); direct product of R^{2n} with
    the (1+1)-affine group.  Haar density (2 pi)^{-(n+1)} a^{-2}, modular a^{-1}.
    """
    dim = 2 * n + 2
    ib = 2 * n
    ia = 2 * n + 1
    dens0 = (2.0 * np.pi) ** (-(n + 1))

    def product(g, h):
        g = np.asarray(g, dtype=float)
        h = np.asarray(h, dtype=float)
        g, h = np.broadcast_arrays(g, h)
        out = np.empty_like(g)
        out[..., : 2 * n] = g[..., : 2 * n] + h[..., : 2 * n]
        out[..., ib] = g[..., ib] + g[..., ia] * h[..., ib]
        out[..., ia] = g[..., ia] * h[..., ia]
        return out

    def inverse(g):
        g = np.asarray(g, dtype=float)
        out = np.empty_like(g)
        out[..., : 2 * n] = -g[..., : 2 * n]
        out[..., ib] = -g[..., ib] / g[..., ia]
        out[..., ia] = 1.0 / g[..., ia]
        return out

    identity = np.zeros(dim)
    identity[ia] = 1.0
    return GroupDescriptor(
        name=f"exotic_quotient_n{n}",
        dim=dim,
        product=product,
        inverse=inverse,
        identity=identity,
        haar_density=lambda x: dens0 * np.asarray(x[ia], dtype=float) ** (-2),
        modular=lambda x: 1.0 / np.asarray(x[ia], dtype=float),
        domain_lower=(float("nan"),) * (dim - 1) + (0.0,),
        sample_box=((-2.0, 2.0),) * (dim - 1) + ((0.4, 2.5),),
        conventions=(
            f"quotient X = exotic / (T x S x R), n = {n}\n"
            f"chart      : (p in R^{n}, q in R^{n}, b, a > 0), dim {dim}\n"
            "product    : (p + p', q + q', b + a b', a a')\n"
            f"haar       : (2 pi)^(-{n + 1}) a^(-2) dp dq db da\n"
            "modular    : a^(-1)\n"
        ),
    )


# ---------------------------------------------------------------------------
# Quadrature grids over truncated chart boxes
# ---------------------------------------------------------------------------


BLOCK = 1 << 18  # nodes per block of the node and gauge passes, in whole first-axis rows


@dataclass(frozen=True)
class QuadratureGrid:
    """Midpoint-rule nodes and left-Haar weights over a chart box.

    Axes listed in ``log_axes`` carry geometrically spaced nodes (midpoint
    rule in the log coordinate, cell Jacobian folded into the weights) --
    the natural ladder for scale coordinates a > 0.  The box must lie in the
    chart domain (``GroupDescriptor.domain_lower``), checked once per axis:
    every midpoint node then lies strictly inside it.  The grid keeps the
    factors of its weights: the per-axis :meth:`cell` lengths and the Haar
    density, evaluated once on the open mesh (``np.ix_``) of the axes.
    :meth:`slab_weights` multiplies them out for one slab, the outer product
    of the cells times the density, so each node's weight is the same
    product wherever it is built.  The factors are checked at construction:
    every cell and density value is positive (not NaN), and so is the
    product of their minima, which bounds every weight from below since
    rounding is monotone.  ``weights`` (n_nodes) and ``nodes``
    (n_nodes x dim) are lazy, built from the whole slab and the axes on
    first access; the transform engine and every block sum read slabs and
    never build them.
    """

    group: GroupDescriptor
    box: tuple[tuple[float, float], ...]
    resolution: tuple[int, ...]
    log_axes: tuple[int, ...] = ()

    def __post_init__(self):
        for i, bound in enumerate(self.group.domain_lower or ()):
            if self.box[i][0] < bound:  # False for a NaN (unconstrained) bound
                raise ValueError(f"axis {i}: box {list(self.box[i])} reaches below {bound}: "
                                 "its nodes violate the chart domain")
        dims = range(len(self.resolution))
        cells = tuple(_frozen(self.cell(i)) for i in dims)
        density = np.asarray(self.group.haar_density(np.ix_(*map(self.axis, dims))), dtype=float)
        density = _frozen(density.reshape((1,) * (len(dims) - density.ndim) + density.shape))
        # multiplied in the weights' order, the least factors bound every
        # weight from below, since rounding is monotone
        least = functools.reduce(np.multiply, [np.min(c) for c in cells + (density,)], 1.0)
        if not (all(np.all(c > 0) for c in cells + (density,)) and least > 0):  # NaN too
            raise ValueError("non-positive Haar weights on the grid")
        object.__setattr__(self, "_cells", cells)
        object.__setattr__(self, "_density", density)

    def slab_weights(self, at) -> np.ndarray:
        """Haar weights of the nodes that ``at`` (one slice per axis) cuts
        out of a chart-shaped array, shaped like that slab: the weights of
        ``weights.reshape(resolution)[at]``, bit for bit."""
        # from a 0-d one (1 * c is c exactly), so the product is a new array
        w = functools.reduce(np.multiply.outer, [c[s] for c, s in zip(self._cells, at)],
                             np.ones(()))
        w *= self._density[tuple(s if n > 1 else slice(None)
                                 for s, n in zip(at, self._density.shape))]
        return w

    @functools.cached_property
    def weights(self) -> np.ndarray:
        """Haar weights of all nodes, raveled like ``nodes``: the whole
        slab, built on first access and kept on the grid."""
        return self.slab_weights((slice(None),) * len(self.resolution)).ravel()

    @property
    def n_nodes(self) -> int:
        return math.prod(self.resolution)

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        return _mesh_points([self.axis(i) for i in range(len(self.resolution))])

    def node(self, i: int) -> np.ndarray:
        """Chart point of node ``i`` (``nodes[i]``), read from the axes."""
        index = np.unravel_index(i, self.resolution)
        return np.array([self.axis(k)[j] for k, j in enumerate(index)])

    def axis_blocks(self):
        """Yield (node slice, slab, per-axis coordinates) over blocks of
        whole first-axis rows, about ``BLOCK`` nodes each: ``slab`` (one
        slice per axis) cuts the block out of a chart-shaped array, as
        :meth:`slab_nodes` and :meth:`slab_weights` take it, and the
        block's nodes are the C-order product of its coordinates."""
        axes = [self.axis(i) for i in range(len(self.resolution))]
        row = self.n_nodes // self.resolution[0]
        step = max(1, BLOCK // row)
        for i0 in range(0, self.resolution[0], step):
            i1 = min(i0 + step, self.resolution[0])
            at = (slice(i0, i1),) + (slice(None),) * (len(axes) - 1)
            yield slice(i0 * row, i1 * row), at, [axes[0][i0:i1]] + axes[1:]

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        """int f dmu by the grid's quadrature: sum f(nodes) w over
        :meth:`axis_blocks`, block by block in order, so ``nodes`` and
        ``weights`` stay unbuilt.  On a grid of one block it is the
        whole-array sum ``np.sum(f(nodes) * weights)``, bit for bit."""
        total = 0.0
        for _, at, axes in self.axis_blocks():
            total += float(np.sum(f(_mesh_points(axes)) * self.slab_weights(at).ravel()))
        return total

    def node_blocks(self):
        """Yield (slice, self.nodes[slice]) over :meth:`axis_blocks`."""
        for sl, _, axes in self.axis_blocks():
            yield sl, _mesh_points(axes)

    def slab_nodes(self, at) -> np.ndarray:
        """Chart points of the nodes that ``at`` (one slice per axis) cuts
        out of a chart-shaped array, in C order."""
        return _mesh_points([self.axis(i)[s] for i, s in enumerate(at)])

    def spacing(self, i: int) -> float:
        """Uniform step of the axis (in the log coordinate for log axes)."""
        lo, hi = self.box[i]
        if i in self.log_axes:
            return (np.log(hi) - np.log(lo)) / self.resolution[i]
        return (hi - lo) / self.resolution[i]

    def axis(self, i: int) -> np.ndarray:
        lo = self.box[i][0]
        mid = self.spacing(i) * (np.arange(self.resolution[i]) + 0.5)
        return np.exp(np.log(lo) + mid) if i in self.log_axes else lo + mid

    def cell(self, i: int) -> np.ndarray:
        """Lebesgue length of the cell at each node of the axis."""
        h = self.spacing(i)
        return self.axis(i) * h if i in self.log_axes else np.full(self.resolution[i], h)


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` made read-only, as every grid factor is."""
    a.setflags(write=False)
    return a


def _mesh_points(axes) -> np.ndarray:
    """Chart points of the C-order product of ``axes``, last axis fastest."""
    return np.stack(np.meshgrid(*axes, indexing="ij", copy=False), -1).reshape(-1, len(axes))


def haar_grid(
    group: GroupDescriptor,
    box: Sequence[tuple[float, float]],
    resolution: Sequence[int],
    log_axes: Sequence[int] = (),
) -> QuadratureGrid:
    """Midpoint quadrature grid for integral_G . dmu_G over a chart box.

    The box must lie in the chart domain (e.g. a >= 0), or
    :class:`QuadratureGrid` raises; midpoint nodes then sit half a cell away
    from any chart singularity.  Scale-type axes can be declared in
    ``log_axes`` to get geometric node ladders.
    The weights' factors are computed here, weights and nodes per slab on
    demand (see :class:`QuadratureGrid`).
    """
    box = [tuple(map(float, b)) for b in box]
    resolution = tuple(int(r) for r in resolution)
    log_axes = tuple(int(i) for i in log_axes)
    if len(box) != group.dim or len(resolution) != group.dim:
        raise ValueError(f"box/resolution must have {group.dim} axes")
    if len(set(log_axes)) < len(log_axes) or not set(log_axes) <= set(range(group.dim)):
        raise ValueError(f"log axes {list(log_axes)} must be distinct axes 0..{group.dim - 1}")
    if any(r < 2 for r in resolution):
        raise ValueError("resolution must be at least 2 per axis")
    for i, (lo, hi) in enumerate(box):
        if i in log_axes and lo <= 0.0:
            raise ValueError(f"axis {i}: log spacing requires a positive lower bound")
        if not hi > lo:
            raise ValueError(f"axis {i}: box [{lo}, {hi}] is empty")
    return QuadratureGrid(group, tuple(box), resolution, log_axes)


# ---------------------------------------------------------------------------
# Group-axiom checks (used by the verify suites and property tests)
# ---------------------------------------------------------------------------


def random_chart_points(
    group: GroupDescriptor,
    rng: np.random.Generator,
    count: int,
    box: Sequence[tuple[float, float]] | None = None,
) -> np.ndarray:
    """``count`` uniform points of ``box``, by default the group's sample box."""
    lo, hi = np.asarray(group.sample_box if box is None else box, dtype=float).T
    return lo + (hi - lo) * rng.random((count, group.dim))


def identity_defect(group: GroupDescriptor, points: np.ndarray) -> float:
    e = group.identity
    left = group.product(np.broadcast_to(e, points.shape), points)
    right = group.product(points, np.broadcast_to(e, points.shape))
    return float(
        max(np.max(group.distance(left, points)), np.max(group.distance(right, points)))
    )


def inverse_defect(group: GroupDescriptor, points: np.ndarray) -> float:
    e = np.broadcast_to(group.identity, points.shape)
    gg = group.product(points, group.inverse(points))
    gg2 = group.product(group.inverse(points), points)
    return float(max(np.max(group.distance(gg, e)), np.max(group.distance(gg2, e))))


def associativity_defect(group: GroupDescriptor, g, h, l) -> float:
    lhs = group.product(group.product(g, h), l)
    rhs = group.product(g, group.product(h, l))
    return float(np.max(group.distance(lhs, rhs)))


def modular_homomorphism_defect(group: GroupDescriptor, g, h) -> float:
    lhs = group.modular(np.moveaxis(group.product(g, h), -1, 0))
    rhs = group.modular(np.moveaxis(g, -1, 0)) * group.modular(np.moveaxis(h, -1, 0))
    scale = np.maximum(np.abs(rhs), 1.0)
    defect = np.abs(lhs - rhs) / scale
    e_defect = abs(float(group.modular(group.identity)) - 1.0)
    return float(max(np.max(defect), e_defect))


def left_invariance_defect(
    group: GroupDescriptor,
    g0: np.ndarray,
    grid: QuadratureGrid,
    test_fn: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Relative defect of  int f(g0 g') dmu(g') = int f(g') dmu(g').

    ``test_fn`` must be concentrated well inside the grid box, both before
    and after translation by g0.
    """
    base = grid.integrate(test_fn)
    shifted = grid.integrate(lambda x: test_fn(group.product(np.broadcast_to(g0, x.shape), x)))
    return abs(shifted - base) / max(abs(base), 1e-300)


def modular_quadrature_estimate(
    group: GroupDescriptor,
    g0: np.ndarray,
    grid: QuadratureGrid,
    test_fn: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Estimate Delta(g0) as  int f dmu / int f(g' g0) dmu(g')."""
    base = grid.integrate(test_fn)
    right = grid.integrate(lambda x: test_fn(group.product(x, np.broadcast_to(g0, x.shape))))
    return base / right


def conventions_text(group: GroupDescriptor) -> str:
    header = f"=== conventions: {group.name} ===\n"
    return header + group.conventions
