"""Concrete locally compact groups as charts on R^d.

Each group is a :class:`GroupDescriptor`: product / inverse maps on chart
coordinates (vectorized over leading axes), the left Haar density with respect
to Lebesgue measure on the chart, and the modular function.  The registry
covers the groups this package verifies:

* polarized Weyl-Heisenberg group  H'_n, chart (k, p, q),
  product (k + k' + q.p', p + p', q + q');
* standard Weyl-Heisenberg group   H_n  with the symmetrized cocycle;
* affine group  R^n x' R+ , chart (b, a), product (b + a b', a a');
* the 3n+4 dimensional group  (T x S x B x P) x' (Q x (R x' A)) used as the
  worked example of a non-central relatively central subgroup ("exotic");
* quotients and abelian vector groups needed by the quotient constructions.

A :class:`QuadratureGrid` keeps its chart axes: its Haar weights are eager,
computed over blocks of ``BLOCK`` nodes; its (n_nodes x dim) node array is lazy.

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
    "GroupElement",
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
    "make_exotic_k_group",
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

    ``product``/``inverse`` accept arrays of shape (..., dim) and broadcast;
    ``haar_density``/``modular`` map (..., dim) -> (...).  ``angle_axes``
    marks coordinates that live on the circle and are compared mod 2 pi.
    ``domain_lower`` gives per-axis open lower bounds (NaN = unconstrained);
    it is what quadrature grids use to stay off chart singularities.
    """

    name: str
    dim: int
    product: Callable[[np.ndarray, np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    identity: np.ndarray
    haar_density: Callable[[np.ndarray], np.ndarray]
    modular: Callable[[np.ndarray], np.ndarray]
    domain_constraint: Callable[[np.ndarray], np.ndarray] = lambda g: np.ones(
        np.asarray(g).shape[:-1], dtype=bool
    )
    domain_lower: tuple[float, ...] | None = None
    angle_axes: tuple[int, ...] = ()
    sample_box: tuple[tuple[float, float], ...] | None = None
    conventions: str = ""

    def distance(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        """Chart distance, wrap-aware on angle axes."""
        d = np.asarray(g, dtype=float) - np.asarray(h, dtype=float)
        for ax in self.angle_axes:
            d[..., ax] = np.angle(np.exp(1j * d[..., ax]))
        return np.max(np.abs(d), axis=-1)


@dataclass(frozen=True)
class GroupElement:
    coords: np.ndarray
    group: GroupDescriptor

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.shape != (self.group.dim,):
            raise ValueError(f"expected {self.group.dim} coordinates, got {c.shape}")
        if not bool(self.group.domain_constraint(c)):
            raise ValueError(f"coordinates {c} violate the chart domain of {self.group.name}")
        object.__setattr__(self, "coords", c)


# ---------------------------------------------------------------------------
# Group factories
# ---------------------------------------------------------------------------


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.sum(u * v, axis=-1)


def make_polarized_wh(n: int) -> GroupDescriptor:
    """Polarized Weyl-Heisenberg group H'_n, chart (k, p in R^n, q in R^n)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    dim = 2 * n + 1
    dens = (2.0 * np.pi) ** (-n)

    def product(g, h):
        g = np.asarray(g, dtype=float)
        h = np.asarray(h, dtype=float)
        g, h = np.broadcast_arrays(g, h)
        out = np.empty_like(g)
        out[..., 0] = g[..., 0] + h[..., 0] + _dot(g[..., 1 + n :], h[..., 1 : 1 + n])
        out[..., 1:] = g[..., 1:] + h[..., 1:]
        return out

    def inverse(g):
        g = np.asarray(g, dtype=float)
        out = np.empty_like(g)
        out[..., 0] = -g[..., 0] + _dot(g[..., 1 + n :], g[..., 1 : 1 + n])
        out[..., 1:] = -g[..., 1:]
        return out

    return GroupDescriptor(
        name=f"wh_polarized_n{n}",
        dim=dim,
        product=product,
        inverse=inverse,
        identity=np.zeros(dim),
        haar_density=lambda g: np.full(np.asarray(g).shape[:-1], dens),
        modular=lambda g: np.ones(np.asarray(g).shape[:-1]),
        sample_box=((-3.0, 3.0),) * dim,
        conventions=(
            f"polarized Weyl-Heisenberg group H'_{n}\n"
            f"chart      : (k, p in R^{n}, q in R^{n}), dim {dim}\n"
            "product    : (k + k' + q.p', p + p', q + q')\n"
            "inverse    : (-k + q.p, -p, -q)\n"
            f"haar       : (2 pi)^(-{n}) dk dp dq   (left = right)\n"
            "modular    : 1\n"
        ),
    )


def make_standard_wh(n: int) -> GroupDescriptor:
    """Standard Weyl-Heisenberg group H_n with the antisymmetric cocycle."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    dim = 2 * n + 1
    dens = (2.0 * np.pi) ** (-n)

    def product(g, h):
        g = np.asarray(g, dtype=float)
        h = np.asarray(h, dtype=float)
        g, h = np.broadcast_arrays(g, h)
        out = np.empty_like(g)
        cross = 0.5 * (
            _dot(g[..., 1 + n :], h[..., 1 : 1 + n])
            - _dot(g[..., 1 : 1 + n], h[..., 1 + n :])
        )
        out[..., 0] = g[..., 0] + h[..., 0] + cross
        out[..., 1:] = g[..., 1:] + h[..., 1:]
        return out

    def inverse(g):
        return -np.asarray(g, dtype=float)

    return GroupDescriptor(
        name=f"wh_standard_n{n}",
        dim=dim,
        product=product,
        inverse=inverse,
        identity=np.zeros(dim),
        haar_density=lambda g: np.full(np.asarray(g).shape[:-1], dens),
        modular=lambda g: np.ones(np.asarray(g).shape[:-1]),
        sample_box=((-3.0, 3.0),) * dim,
        conventions=(
            f"standard Weyl-Heisenberg group H_{n}\n"
            f"chart      : (k, p in R^{n}, q in R^{n}), dim {dim}\n"
            "product    : (k + k' + (q.p' - p.q')/2, p + p', q + q')\n"
            "inverse    : (-k, -p, -q)\n"
            f"haar       : (2 pi)^(-{n}) dk dp dq\n"
            "modular    : 1\n"
        ),
    )


def delta_iso(g, n: int | None = None):
    """Isomorphism H_n -> H'_n:  (k, p, q) |-> (k + p.q/2, p, q).

    Accepts a GroupElement of the standard group (returning an element of the
    polarized one) or a bare coordinate array together with ``n``.
    """
    if isinstance(g, GroupElement):
        n_loc = (g.group.dim - 1) // 2
        out = delta_iso(g.coords, n_loc)
        return GroupElement(out, make_polarized_wh(n_loc))
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
        haar_density=lambda g: np.asarray(g, dtype=float)[..., n] ** (-(n + 1)),
        modular=lambda g: np.asarray(g, dtype=float)[..., n] ** (-n),
        domain_constraint=lambda g: np.asarray(g)[..., n] > 0,
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
        haar_density=lambda g: dens0 * np.asarray(g, dtype=float)[..., ia] ** (-(n + 3)),
        modular=lambda g: np.asarray(g, dtype=float)[..., ia] ** (-(n + 2)),
        domain_constraint=lambda g: np.asarray(g)[..., ia] > 0,
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


def make_vector_group(
    dim: int, name: str, density: float = 1.0, sample_halfwidth: float = 3.0
) -> GroupDescriptor:
    """Abelian vector group R^dim with constant Haar density."""

    def product(g, h):
        return np.asarray(g, dtype=float) + np.asarray(h, dtype=float)

    return GroupDescriptor(
        name=name,
        dim=dim,
        product=product,
        inverse=lambda g: -np.asarray(g, dtype=float),
        identity=np.zeros(dim),
        haar_density=lambda g: np.full(np.asarray(g).shape[:-1], float(density)),
        modular=lambda g: np.ones(np.asarray(g).shape[:-1]),
        sample_box=((-sample_halfwidth, sample_halfwidth),) * dim,
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
        haar_density=lambda g: dens0 * np.asarray(g, dtype=float)[..., ia] ** (-2),
        modular=lambda g: 1.0 / np.asarray(g, dtype=float)[..., ia],
        domain_constraint=lambda g: np.asarray(g)[..., ia] > 0,
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


def make_exotic_k_group(n: int) -> GroupDescriptor:
    """K = T x S x R as its own chart (t, s, r in R^n) with Lebesgue Haar."""
    return make_vector_group(n + 2, f"exotic_k_n{n}", density=1.0)


# ---------------------------------------------------------------------------
# Quadrature grids over truncated chart boxes
# ---------------------------------------------------------------------------


BLOCK = 1 << 18  # nodes per block of the weight and gauge passes, in whole first-axis rows


@dataclass(frozen=True)
class QuadratureGrid:
    """Midpoint-rule nodes and left-Haar weights over a chart box.

    Axes listed in ``log_axes`` carry geometrically spaced nodes (midpoint
    rule in the log coordinate, cell Jacobian folded into the weights) --
    the natural ladder for scale coordinates a > 0.  ``weights`` are eager:
    per-axis :meth:`cell` lengths times the Haar density, which is evaluated
    (and checked) on :meth:`node_blocks`.  ``nodes`` (n_nodes x dim) is lazy,
    built from the axes on first access; the transform engine never reads it.
    """

    group: GroupDescriptor
    box: tuple[tuple[float, float], ...]
    resolution: tuple[int, ...]
    log_axes: tuple[int, ...] = ()

    def __post_init__(self):
        cells = [self.cell(i) for i in range(len(self.resolution))]
        weights = functools.reduce(np.multiply.outer, cells).ravel()
        for sl, nodes in self.node_blocks():
            if not np.all(self.group.domain_constraint(nodes)):
                raise ValueError("grid nodes violate the chart domain constraint")
            weights[sl] *= np.asarray(self.group.haar_density(nodes), dtype=float)
            if np.any(weights[sl] <= 0):
                raise ValueError("non-positive Haar weights on the grid")
        object.__setattr__(self, "weights", weights)

    @property
    def n_nodes(self) -> int:
        return math.prod(self.resolution)

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        return self._points(slice(None))

    def node(self, i: int) -> np.ndarray:
        """Chart point of node ``i`` (``nodes[i]``), read from the axes."""
        index = np.unravel_index(i, self.resolution)
        return np.array([self.axis(k)[j] for k, j in enumerate(index)])

    def node_blocks(self):
        """Yield (slice, self.nodes[slice]) over blocks of about ``BLOCK`` nodes."""
        row = self.n_nodes // self.resolution[0]
        step = max(1, BLOCK // row)
        for i0 in range(0, self.resolution[0], step):
            rows = slice(i0, min(i0 + step, self.resolution[0]))
            yield slice(rows.start * row, rows.stop * row), self._points(rows)

    def _points(self, rows: slice) -> np.ndarray:
        """Chart points of the first-axis ``rows``, last axis fastest."""
        axes = [self.axis(0)[rows]] + [self.axis(i) for i in range(1, len(self.resolution))]
        return np.stack(np.meshgrid(*axes, indexing="ij", copy=False), -1).reshape(-1, len(axes))

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

    def total_weight(self) -> float:
        return float(np.sum(self.weights))


def haar_grid(
    group: GroupDescriptor,
    box: Sequence[tuple[float, float]],
    resolution: Sequence[int],
    log_axes: Sequence[int] = (),
) -> QuadratureGrid:
    """Midpoint quadrature grid for integral_G . dmu_G over a chart box.

    The box is clipped to the chart domain first (e.g. a > 0); midpoint
    nodes then sit half a cell away from any chart singularity.  Scale-type
    axes can be declared in ``log_axes`` to get geometric node ladders.
    Weights are computed here, nodes on demand (see :class:`QuadratureGrid`).
    """
    box = [tuple(map(float, b)) for b in box]
    resolution = tuple(int(r) for r in resolution)
    log_axes = tuple(int(i) for i in log_axes)
    if len(box) != group.dim or len(resolution) != group.dim:
        raise ValueError(f"box/resolution must have {group.dim} axes")
    if any(r < 2 for r in resolution):
        raise ValueError("resolution must be at least 2 per axis")
    clipped = []
    for i, (lo, hi) in enumerate(box):
        if group.domain_lower is not None and not np.isnan(group.domain_lower[i]):
            lo = max(lo, group.domain_lower[i])
        if i in log_axes and lo <= 0.0:
            raise ValueError(f"axis {i}: log spacing requires a positive lower bound")
        if not hi > lo:
            raise ValueError(
                f"axis {i}: box [{box[i][0]}, {box[i][1]}] does not intersect the chart domain"
            )
        clipped.append((lo, hi))
    return QuadratureGrid(group, tuple(clipped), resolution, log_axes)


# ---------------------------------------------------------------------------
# Group-axiom checks (used by the verify suites and property tests)
# ---------------------------------------------------------------------------


def random_chart_points(
    group: GroupDescriptor,
    rng: np.random.Generator,
    count: int,
    box: Sequence[tuple[float, float]] | None = None,
) -> np.ndarray:
    if box is None:
        box = group.sample_box or ((-3.0, 3.0),) * group.dim
    lo, hi = np.asarray(box, dtype=float).T
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
    lhs = group.modular(group.product(g, h))
    rhs = group.modular(g) * group.modular(h)
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
    base = float(np.sum(test_fn(grid.nodes) * grid.weights))
    translated = group.product(np.broadcast_to(g0, grid.nodes.shape), grid.nodes)
    shifted = float(np.sum(test_fn(translated) * grid.weights))
    return abs(shifted - base) / max(abs(base), 1e-300)


def modular_quadrature_estimate(
    group: GroupDescriptor,
    g0: np.ndarray,
    grid: QuadratureGrid,
    test_fn: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Estimate Delta(g0) as  int f dmu / int f(g' g0) dmu(g')."""
    base = float(np.sum(test_fn(grid.nodes) * grid.weights))
    right = group.product(grid.nodes, np.broadcast_to(g0, grid.nodes.shape))
    shifted = float(np.sum(test_fn(right) * grid.weights))
    return base / shifted


def conventions_text(group: GroupDescriptor) -> str:
    header = f"=== conventions: {group.name} ===\n"
    return header + group.conventions
