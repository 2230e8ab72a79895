"""T-valued multipliers (2-cocycles), the relatively central subgroup K of G
with its character chi, sections s: X = G/K -> G and the cocycles they
induce, multiplier similarity, and central-extension groups.

A ``RelCentralSubgroup`` declares K and X by the G-chart axes they occupy;
K's own group is derived from its axes: every implemented K multiplies as
the vector group R^m of its coordinates (K_embed(k1) K_embed(k2) =
K_embed(k1 + k2)), with Lebesgue Haar measure.  Each ``Section`` carries its
subgroup and its K-offset k(x), and is s(x) = s0(x) k(x), where the
subgroup's cached ``coordinate_section`` s0 places X at its axes with every
other coordinate at the identity.

Phases are stored in radians and compared modulo 2 pi with a wrap-aware
distance, so branch cuts never produce false failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .groups import GroupDescriptor, make_vector_group, random_chart_points

__all__ = [
    "Multiplier",
    "RelCentralSubgroup",
    "Section",
    "InconsistentSectionError",
    "wrap_phase",
    "phase_distance",
    "kappa_from_section",
    "multiplier_from_section",
    "check_normalization",
    "check_cocycle",
    "similar",
    "conjugate",
    "central_extension",
]

K_MEMBERSHIP_TOL = 1e-10


def wrap_phase(theta: np.ndarray) -> np.ndarray:
    """Reduce a phase (radians) to (-pi, pi]."""
    return np.angle(np.exp(1j * np.asarray(theta, dtype=float)))


def phase_distance(a, b) -> np.ndarray:
    return np.abs(wrap_phase(np.asarray(a) - np.asarray(b)))


@dataclass(frozen=True)
class Multiplier:
    """m(x1, x2) = e^{i phase(x1, x2)} on the group ``base_group``."""

    phase: Callable[[np.ndarray, np.ndarray], np.ndarray]
    base_group: GroupDescriptor
    label: str = "multiplier"

    def value(self, x1, x2) -> np.ndarray:
        return np.exp(1j * self.phase(np.asarray(x1, float), np.asarray(x2, float)))


class InconsistentSectionError(ValueError):
    """A point expected in K -- a section's derived cocycle, a K-part of
    gamma_s^{-1}, a conjugate of K -- left the subgroup."""


@dataclass(frozen=True)
class RelCentralSubgroup:
    """A closed normal subgroup K of G on which the representation acts by
    the character chi (phase in radians), with the quotient X = G/K.

    Every implemented K is a coordinate subspace of the G chart: K sits at
    the chart axes ``k_axes`` and X at ``x_axes``.  ``K_embed`` places
    K-chart coordinates at ``k_axes`` with every other coordinate at its
    identity value, ``K_project`` and ``project`` (p : G -> X) pick the
    coordinates back out.
    """

    ambient: GroupDescriptor
    quotient: GroupDescriptor
    k_axes: tuple[int, ...]
    x_axes: tuple[int, ...]
    chi_phase: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if sorted(self.k_axes + self.x_axes) != list(range(self.ambient.dim)):
            raise ValueError(f"K axes {list(self.k_axes)} and X axes {list(self.x_axes)} must "
                             f"split the {self.ambient.dim} chart axes")

    @cached_property
    def k_group(self) -> GroupDescriptor:
        """K in its own chart: the vector group R^m of the ``k_axes``
        coordinates with Lebesgue Haar measure, which every implemented K is
        (the coordinates add under the product of G)."""
        return make_vector_group(len(self.k_axes), f"K[{self.ambient.name}]")

    def _place(self, axes: tuple[int, ...], coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        out = np.empty(coords.shape[:-1] + (self.ambient.dim,))
        out[...] = self.ambient.identity
        out[..., list(axes)] = coords
        return out

    def K_embed(self, k) -> np.ndarray:
        return self._place(self.k_axes, k)

    def K_project(self, g) -> np.ndarray:
        return np.asarray(g, dtype=float)[..., list(self.k_axes)]

    def project(self, g) -> np.ndarray:
        return np.asarray(g, dtype=float)[..., list(self.x_axes)]

    def membership_defect(self, g_coords: np.ndarray) -> float:
        """How far the points leave K: the largest distance of an X
        coordinate from the identity's, wrap-aware on angle axes.  The K
        coordinates are free in K, so only the X coordinates can differ."""
        x = list(self.x_axes)
        d = self.ambient.identity[x] - np.asarray(g_coords, dtype=float)[..., x]
        for j, ax in enumerate(self.x_axes):
            if ax in self.ambient.angle_axes:
                d[..., j] = np.angle(np.exp(1j * d[..., j]))
        return float(np.max(np.abs(d)))

    def extract_k(self, g_coords: np.ndarray, context: str = "K") -> np.ndarray:
        """Project a G-point expected to lie in K onto the K-chart, verifying
        that the non-K coordinates sit at their identity values."""
        defect = self.membership_defect(g_coords)
        if defect > K_MEMBERSHIP_TOL:
            raise InconsistentSectionError(f"{context}: point leaves K by {defect:.3e}")
        return self.K_project(g_coords)

    @cached_property
    def coordinate_section(self) -> Section:
        """s0: the X coordinates placed at ``x_axes``, every other
        coordinate at its identity value."""
        return Section("s0", self)


@dataclass(frozen=True)
class Section:
    """A map s: X -> G splitting the projection of ``subgroup``, vectorized
    over leading axes.  Since p(s(x)) = x, every section is the coordinate
    section times a K-valued factor, s(x) = s0(x) k(x); ``offset`` maps x to
    k(x) in the K chart, and ``None`` is s0 itself.  The batched evaluators
    turn the offset into the gauge phase chi(k(x))."""

    label: str
    subgroup: RelCentralSubgroup
    offset: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def map(self, x) -> np.ndarray:
        """s(x) = s0(x) K_embed(k(x)) in G-chart coordinates."""
        sub = self.subgroup
        s0 = sub._place(sub.x_axes, x)
        if self.offset is None:
            return s0
        return sub.ambient.product(s0, sub.K_embed(self.offset(np.asarray(x, dtype=float))))


def kappa_from_section(section: Section, x1, x2) -> np.ndarray:
    """kappa_s(x1, x2) in the K-chart, from s(x1 x2) = s(x1) s(x2) kappa_s(x1, x2)."""
    G = section.subgroup.ambient
    X = section.subgroup.quotient
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    s12 = section.map(X.product(x1, x2))
    head = G.product(section.map(x1), section.map(x2))
    kappa_g = G.product(G.inverse(head), s12)
    return section.subgroup.extract_k(kappa_g, context=f"kappa_s (section {section.label!r})")


def multiplier_from_section(section: Section) -> Multiplier:
    """m_s(x1, x2) = chi(kappa_s(x1, x2))."""

    def phase(x1, x2):
        return np.asarray(section.subgroup.chi_phase(kappa_from_section(section, x1, x2)))

    return Multiplier(
        phase=phase, base_group=section.subgroup.quotient, label=f"m[{section.label}]"
    )


def check_normalization(m: Multiplier, points: np.ndarray) -> float:
    """max phase defect of m(x, e) = m(e, x) = 1."""
    e = np.broadcast_to(m.base_group.identity, points.shape)
    d1 = np.max(phase_distance(m.phase(points, e), 0.0))
    d2 = np.max(phase_distance(m.phase(e, points), 0.0))
    return float(max(d1, d2))


def check_cocycle(
    m: Multiplier,
    trials: int = 200,
    rng: np.random.Generator | None = None,
    points: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> float:
    """max phase defect of m(x1, x2 x3) m(x2, x3) = m(x1 x2, x3) m(x1, x2),
    at ``points`` (x1, x2, x3) or at ``trials`` points of each drawn from
    ``rng``; one of the two must be given."""
    X = m.base_group
    if points is None:
        if rng is None:
            raise TypeError("check_cocycle needs rng or points")
        points = [random_chart_points(X, rng, trials) for _ in range(3)]
    x1, x2, x3 = points
    lhs = m.phase(x1, X.product(x2, x3)) + m.phase(x2, x3)
    rhs = m.phase(X.product(x1, x2), x3) + m.phase(x1, x2)
    return float(np.max(phase_distance(lhs, rhs)))


def similar(
    m: Multiplier,
    m_prime: Multiplier,
    beta_phase: Callable[[np.ndarray], np.ndarray],
    trials: int,
    rng: np.random.Generator,
) -> float:
    """max defect of m(x1,x2) = beta(x1 x2) beta(x1)^{-1} beta(x2)^{-1} m'(x1,x2)
    at ``trials`` pairs drawn from ``rng``."""
    X = m.base_group
    x1 = random_chart_points(X, rng, trials)
    x2 = random_chart_points(X, rng, trials)
    lhs = m.phase(x1, x2)
    rhs = (
        np.asarray(beta_phase(X.product(x1, x2)))
        - np.asarray(beta_phase(x1))
        - np.asarray(beta_phase(x2))
        + m_prime.phase(x1, x2)
    )
    return float(np.max(phase_distance(lhs, rhs)))


def conjugate(m: Multiplier) -> Multiplier:
    """m*(x1, x2) = m(x1, x2)^{-1}; phase negated."""
    return Multiplier(
        phase=lambda x1, x2: -np.asarray(m.phase(x1, x2)),
        base_group=m.base_group,
        label=f"{m.label}*",
    )


def central_extension(X: GroupDescriptor, m: Multiplier) -> GroupDescriptor:
    """The group X_m on T x X:  (tau, x)(tau', x') = (m(x, x') tau tau', x x').

    Chart (theta, x) with theta the phase of tau; Haar density is
    haar_X / (2 pi) so that mu_T(T) = 1, and the modular function is
    Delta_X(x) (independent of theta).
    """
    dim = 1 + X.dim

    def product(g, h):
        g = np.asarray(g, dtype=float)
        h = np.asarray(h, dtype=float)
        g, h = np.broadcast_arrays(g, h)
        out = np.empty_like(g)
        out[..., 0] = wrap_phase(g[..., 0] + h[..., 0] + m.phase(g[..., 1:], h[..., 1:]))
        out[..., 1:] = X.product(g[..., 1:], h[..., 1:])
        return out

    def inverse(g):
        g = np.asarray(g, dtype=float)
        xinv = X.inverse(g[..., 1:])
        out = np.empty_like(g)
        out[..., 0] = wrap_phase(-g[..., 0] - m.phase(g[..., 1:], xinv))
        out[..., 1:] = xinv
        return out

    identity = np.concatenate([[0.0], X.identity])
    x_lower = X.domain_lower or (float("nan"),) * X.dim

    return GroupDescriptor(
        name=f"ext[{X.name};{m.label}]",
        dim=dim,
        product=product,
        inverse=inverse,
        identity=identity,
        haar_density=lambda g: np.asarray(X.haar_density(np.asarray(g)[..., 1:]))
        / (2.0 * np.pi),
        modular=lambda g: X.modular(np.asarray(g)[..., 1:]),
        domain_lower=(float("nan"),) + tuple(x_lower),
        angle_axes=(0,) + tuple(a + 1 for a in X.angle_axes),
        sample_box=((-np.pi, np.pi),) + X.sample_box,
        conventions=(
            f"central extension of T by {X.name} with multiplier {m.label}\n"
            "chart      : (theta in (-pi, pi], x); tau = e^(i theta)\n"
            "product    : (theta + theta' + phase_m(x, x') mod 2 pi, x x')\n"
            "haar       : mu_T (x) mu_X with mu_T(T) = 1\n"
            "modular    : Delta_X(x)\n"
        ),
    )
