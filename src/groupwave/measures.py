"""The coordinate isomorphism gamma_s of a relatively central subgroup
(``multipliers.RelCentralSubgroup``), the measure decomposition over X x K,
and densities realizing the measure class used for square-integrability
modulo the subgroup.

A measure of the class is rho dmu_G with

    integral_K rho(g k) dmu_K(k) = 1   for all g,

so integrating |c|^2 against it collapses, along every K-coset, to the
quadrature of |c o s|^2 over X.  All implemented K's are abelian coordinate
subgroups with Lebesgue Haar measure on their chart; the reference section
is ``subgroup.coordinate_section``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .groups import QuadratureGrid, haar_grid
from .multipliers import RelCentralSubgroup, Section, kappa_from_section
from .states import DiscretizedState, bump_profile
from .representations import UnitaryRepSpec, projective_from_section
from .transforms import coefficient_energy

__all__ = [
    "RhoDensity",
    "gamma_s",
    "gamma_s_inv",
    "coord_product",
    "decompose_check",
    "make_rho",
    "translate_rho",
    "rho_validate",
    "integrate_mod_K",
    "center_divergence_probe",
]

K_PROBE_RESOLUTION = 16  # K-axis nodes of every box of center_divergence_probe
RHO_WIDTH = 1.0  # standard deviation of the gaussian density, a third of the bump's radius


def gamma_s(section: Section, x, k) -> np.ndarray:
    """gamma_s(x, k) = s(x) k in G-chart coordinates."""
    return section.subgroup.ambient.product(
        section.map(np.asarray(x, dtype=float)),
        section.subgroup.K_embed(np.asarray(k, dtype=float)),
    )


def gamma_s_inv(section: Section, g):
    """Inverse of gamma_s: g |-> (p(g), s(p(g))^{-1} g)."""
    g = np.asarray(g, dtype=float)
    subgroup = section.subgroup
    G = subgroup.ambient
    x = subgroup.project(g)
    k_g = G.product(G.inverse(section.map(x)), g)
    return x, subgroup.extract_k(k_g, context="gamma_s_inv")


def coord_product(section: Section, x, k, x2, k2):
    """Product of G in (x, k) coordinates:

        (x, k)(x', k') = (x x', kappa_s(x, x')^{-1} k_{s(x')} k')

    with k_{s(x')} = s(x')^{-1} k s(x').
    """
    subgroup = section.subgroup
    G = subgroup.ambient
    X = subgroup.quotient
    K = subgroup.k_group
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    kappa = kappa_from_section(section, x, x2)
    s2 = section.map(x2)
    conj = G.product(G.product(G.inverse(s2), subgroup.K_embed(np.asarray(k, float))), s2)
    k_conj = subgroup.extract_k(conj, context="coord_product (K not normal?)")
    k_out = K.product(K.product(K.inverse(kappa), k_conj), np.asarray(k2, float))
    return X.product(x, x2), k_out


def decompose_check(
    test_fn: Callable[[np.ndarray], np.ndarray],
    section: Section,
    g_grid: QuadratureGrid,
    x_grid: QuadratureGrid,
    k_grid: QuadratureGrid,
):
    """Both sides of  int_G f dmu_G = int_{X x K} f(s(x) k) dmu_X (x) mu_K.

    Returns (lhs, rhs, relative error).  ``test_fn`` must be compactly
    supported (to quadrature accuracy) inside every grid involved.
    """
    lhs = g_grid.integrate(test_fn)
    xk_nodes = gamma_s(
        section,
        np.repeat(x_grid.nodes, k_grid.n_nodes, axis=0),
        np.tile(k_grid.nodes, (x_grid.n_nodes, 1)),
    )
    w = np.repeat(x_grid.weights, k_grid.n_nodes) * np.tile(
        k_grid.weights, x_grid.n_nodes
    )
    rhs = float(np.sum(np.asarray(test_fn(xk_nodes)) * w))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return lhs, rhs, abs(lhs - rhs) / scale


@dataclass(frozen=True)
class RhoDensity:
    """Density of a measure in the class: rho(g) = w(k-part of gamma_s^{-1}(g0 g))
    for the subgroup's coordinate section s, the ``profile`` w normalized over
    the K-chart and g0 the ``shift`` of :func:`translate_rho` (None: identity)."""

    profile: Callable[[np.ndarray], np.ndarray]
    subgroup: RelCentralSubgroup
    label: str = "rho"
    shift: Optional[np.ndarray] = None

    def k_part(self, g) -> np.ndarray:
        """The K part of gamma_s^{-1}(g0 g) at the chart points ``g``."""
        g = np.asarray(g, dtype=float)
        if self.shift is not None:
            g = self.subgroup.ambient.product(np.broadcast_to(self.shift, g.shape), g)
        return gamma_s_inv(self.subgroup.coordinate_section, g)[1]

    def eval(self, g) -> np.ndarray:
        """rho at the chart points ``g``."""
        return self.profile(self.k_part(g))


def make_rho(kind: str, subgroup: RelCentralSubgroup) -> RhoDensity:
    """Gaussian or compact-bump density on the K-fibres, of width
    ``RHO_WIDTH``.

    The profile w on the K-chart R^m integrates to 1 analytically (gaussian)
    or via a fine reference quadrature (bump, whose support is compact); the
    density rho(g) = w(K-part(g)) then satisfies the coset-normalization
    identity exactly by translation invariance of Lebesgue measure.
    """
    m = subgroup.k_group.dim
    if kind == "gaussian":
        def profile(k):
            k = np.asarray(k, dtype=float)
            return (2.0 * np.pi * RHO_WIDTH ** 2) ** (-m / 2.0) * np.exp(
                -np.sum(k ** 2, axis=-1) / (2.0 * RHO_WIDTH ** 2)
            )
    elif kind == "bump":
        radius = 3.0 * RHO_WIDTH
        # 1-d normalization of the bump profile, computed once on a fine grid;
        # the integrand is C-infinity with compact support so the midpoint rule
        # converges faster than any power of the step.
        xs = np.linspace(-radius, radius, 1 << 14, endpoint=False) + radius / (1 << 14)
        z1 = float(np.sum(bump_profile(xs, 0.0, radius)) * (xs[1] - xs[0]))

        def profile(k):
            k = np.asarray(k, dtype=float)
            out = np.ones(k.shape[:-1])
            for i in range(m):
                out = out * bump_profile(k[..., i], 0.0, radius) / z1
            return out
    else:
        raise ValueError(f"unknown density kind {kind!r} (expected gaussian|bump)")

    return RhoDensity(profile, subgroup, f"rho[{kind}]")


def translate_rho(rho: RhoDensity, g0) -> RhoDensity:
    """rho^g(g') = rho(g g'); the translated measure stays in the class."""
    g0 = np.asarray(g0, dtype=float)
    shift = g0 if rho.shift is None else rho.subgroup.ambient.product(rho.shift, g0)
    return replace(rho, label=f"{rho.label}^g", shift=shift)


def rho_validate(
    rho: RhoDensity,
    section: Section,
    x_samples: np.ndarray,
    k_grid: QuadratureGrid,
) -> float:
    """max over sampled x of | int_K rho(s(x) k) dmu_K - 1 |."""
    worst = 0.0
    for x in np.asarray(x_samples, dtype=float):
        nodes = gamma_s(section, np.broadcast_to(x, (k_grid.n_nodes, len(x))), k_grid.nodes)
        val = float(np.sum(rho.eval(nodes) * k_grid.weights))
        worst = max(worst, abs(val - 1.0))
    return worst


def integrate_mod_K(
    f: Callable[[np.ndarray], np.ndarray], rho: RhoDensity, grid: QuadratureGrid
) -> float:
    """Quadrature of  int_G f dmu_{G,K} = int f rho dmu_G over the grid,
    block by block (:meth:`QuadratureGrid.integrate`)."""
    return grid.integrate(lambda nodes: np.asarray(f(nodes), dtype=float) * rho.eval(nodes))


def center_divergence_probe(
    rep: UnitaryRepSpec,
    subgroup: RelCentralSubgroup,
    psi: DiscretizedState,
    phi: DiscretizedState,
    r_list: Sequence[float],
    x_grid: QuadratureGrid,
):
    """Partial integrals of |c_{psi,phi}|^2 over X x {|k| <= R}, with
    ``K_PROBE_RESOLUTION`` nodes on the K axis at every R.

    For a representation whose relatively central subgroup is noncompact the
    partial integrals grow linearly in the K-box measure, with slope equal to
    the X-side integral of |c o s|^2 -- the numerical face of "square
    integrable only modulo K, never over all of G".  Every integral is one
    streamed :func:`transforms.coefficient_energy`; the K coordinate leads
    the G chart.

    Returns (partials, slope_fit, x_integral).
    """
    proj = projective_from_section(rep, subgroup.coordinate_section)
    x_integral = coefficient_energy(proj, psi, phi, x_grid)
    partials = [
        coefficient_energy(rep, psi, phi, haar_grid(rep.group, [(-r, r)] + list(x_grid.box),
                                                    [K_PROBE_RESOLUTION] + list(x_grid.resolution)))
        for r in r_list]

    lengths = np.array([2.0 * r for r in r_list])
    partials_arr = np.array(partials)
    slope = float(np.sum(lengths * partials_arr) / np.sum(lengths ** 2))
    return partials, slope, x_integral
