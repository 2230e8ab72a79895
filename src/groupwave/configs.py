"""Bundled configurations: every object needed to verify the Gabor, wavelet
and exotic-group setups end to end (group, quotient, sections, relatively
central subgroup, representation, default state and quadrature grids, test
vectors).

All grids and vectors here are tuned so the shipped verification suites
meet their tolerances.  A function takes a parameter only where a caller
outside the tests needs a second value: the Gabor state and X grids and its
n, and the exotic X resolution; every other value is a constant here.  The
Gabor central parameter is the constant -1, since
``transforms.duflo_moore("gabor")`` is the identity only for |kc| = 1.  The
exotic configuration is the paper's worked example with n = 1 and k = 0,
the one case in which its display is a homomorphism, so it has no n or k to
set.  Each relatively central subgroup is declared by its chart axes alone
(``RelCentralSubgroup.k_group`` is derived from them).  A setup's ``group``
is its rep's ``group``, and the ambient group of its subgroup, one object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .groups import (
    GroupDescriptor,
    QuadratureGrid,
    haar_grid,
    make_exotic_quotient,
    make_wh_quotient,
)
from .multipliers import RelCentralSubgroup, Section
from .representations import (
    ProjectiveRepSpec,
    UnitaryRepSpec,
    affine_rep,
    exotic_rep,
    projective_from_section,
    wh_rep,
)
from .states import (
    DiscretizedState,
    StateGrid,
    centered_grid,
    dog_state,
    gaussian_state,
    halfline_grid,
    hermite_state,
    morlet_state,
    product_grid,
    product_state,
    random_bandlimited_state,
)

__all__ = [
    "GaborSetup",
    "AffineSetup",
    "ExoticSetup",
    "gabor_setup",
    "affine_setup",
    "exotic_setup",
    "affine_nested_grids",
]


# ---------------------------------------------------------------------------
# Gabor: Weyl-Heisenberg modulo its centre
# ---------------------------------------------------------------------------


@dataclass
class GaborSetup:
    n: int
    k_check: float
    group: GroupDescriptor
    x_group: GroupDescriptor
    subgroup: RelCentralSubgroup
    section: Section
    section_prime: Section
    rep: UnitaryRepSpec
    proj: ProjectiveRepSpec
    state_grid: StateGrid
    x_grid: QuadratureGrid
    states: dict = field(default_factory=dict)


def gabor_setup(
    n: int = 1,
    state_halfwidth: float = 8.0,
    state_points: int = 256,
    x_halfwidth: float = 8.0,
    x_resolution: int = 64,
) -> GaborSetup:
    kc = -1.0  # duflo_moore("gabor") is the identity only for |kc| = 1
    state_grid = centered_grid(state_halfwidth, state_points, dim=n)
    rep = wh_rep(kc, n)
    x_group = make_wh_quotient(n)

    subgroup = RelCentralSubgroup(
        ambient=rep.group,
        quotient=x_group,
        k_axes=(0,),
        x_axes=tuple(range(1, 2 * n + 1)),
        chi_phase=lambda k: kc * np.asarray(k, dtype=float)[..., 0],
    )
    section = subgroup.coordinate_section
    # s_sym(x) = s0(x) K_embed(p.q / 2)
    section_prime = Section(
        "s_sym", subgroup, lambda x: 0.5 * np.sum(x[..., :n] * x[..., n:], axis=-1)[..., None]
    )
    proj = projective_from_section(rep, section)
    x_grid = haar_grid(
        x_group,
        [(-x_halfwidth, x_halfwidth)] * (2 * n),
        [x_resolution] * (2 * n),
    )

    states = {}
    if n == 1:
        states["gauss"] = hermite_state(state_grid, 0)
        states["hermite1"] = hermite_state(state_grid, 1)
        states["hermite2"] = hermite_state(state_grid, 2)
        mix = hermite_state(state_grid, 0).samples + hermite_state(state_grid, 1).samples
        states["mix"] = DiscretizedState(mix / np.sqrt(2.0), state_grid)

    return GaborSetup(
        n=n,
        k_check=kc,
        group=rep.group,
        x_group=x_group,
        subgroup=subgroup,
        section=section,
        section_prime=section_prime,
        rep=rep,
        proj=proj,
        state_grid=state_grid,
        x_grid=x_grid,
        states=states,
    )


# ---------------------------------------------------------------------------
# Affine / wavelet
# ---------------------------------------------------------------------------


@dataclass
class AffineSetup:
    n: int
    group: GroupDescriptor
    rep: UnitaryRepSpec
    state_grid: StateGrid
    x_grid: QuadratureGrid
    states: dict = field(default_factory=dict)


def affine_setup() -> AffineSetup:
    rep = affine_rep(1)
    state_grid = centered_grid(16.0, 512, dim=1)
    # geometric ladder on the scale axis: uniform resolution per octave
    x_grid = haar_grid(rep.group, [(-14.0, 14.0), (1.0 / 16.0, 8.0)], [160, 160], log_axes=(1,))
    rng = np.random.default_rng(2024)
    states = {
        "morlet": morlet_state(state_grid),
        "gauss": gaussian_state(state_grid),
        "dog2": dog_state(state_grid, 2),
        "dog4": dog_state(state_grid, 4),
        "gauss_mod": gaussian_state(state_grid, center=0.5, momentum=5.0),
        "gauss_mod2": gaussian_state(state_grid, center=-1.0, momentum=4.0, width=1.3),
        "gauss_mod3": gaussian_state(state_grid, center=1.5, momentum=-5.5, width=0.8),
        # band-pass random signal: reconstructible from scales inside the
        # default a-box (spectrum in 1.5 <= |w| <= 7.5)
        "signal": random_bandlimited_state(
            state_grid, rng, band_fraction=0.15, envelope_width=3.0, low_cut=1.5
        ),
    }
    return AffineSetup(
        n=1, group=rep.group, rep=rep, state_grid=state_grid, x_grid=x_grid, states=states
    )


def affine_nested_grids(setup: AffineSetup) -> list[QuadratureGrid]:
    """Six disjoint scale slabs whose unions are the nested boxes
    [0.5 / 2^j, 6] x b in [-14, 14], j = 0..5: a base grid over a in
    [0.5, 6] (96 scales) followed by one octave slab (24 scales) per level,
    all with geometric scale ladders and 128 b nodes.  Feed to
    :func:`transforms.admissibility`, which accumulates their energies into
    nested partial integrals."""
    slabs = [((0.5, 6.0), 96)] + [((0.5 / 2.0 ** j, 1.0 / 2.0 ** j), 24) for j in range(1, 6)]
    return [haar_grid(setup.group, [(-14.0, 14.0), a_box], [128, a_resolution], log_axes=(1,))
            for a_box, a_resolution in slabs]


# ---------------------------------------------------------------------------
# Exotic group
# ---------------------------------------------------------------------------


@dataclass
class ExoticSetup:
    group: GroupDescriptor
    x_group: GroupDescriptor
    subgroup: RelCentralSubgroup
    section: Section
    section_prime: Section
    rep: UnitaryRepSpec
    proj: ProjectiveRepSpec
    state_grid: StateGrid
    x_grid: QuadratureGrid
    states: dict = field(default_factory=dict)


def exotic_setup(x_resolution: tuple = (40, 32, 48, 48)) -> ExoticSetup:
    """The worked example for n = 1 at k = 0: chi(t, s, r) = e^{it}.  The
    state grid is (0, 8] x [-8, 8], 64 x 64 samples; the X grid covers
    p in [-7, 7], q in [-6, 6], b in [-9, 9] and a in [1/8, 8]."""
    rep = exotic_rep()
    x_group = make_exotic_quotient(1)

    # chart layout (t, s, b, p, q, r, a); X chart (p, q, b, a); K chart (t, s, r)
    subgroup = RelCentralSubgroup(
        ambient=rep.group,
        quotient=x_group,
        k_axes=(0, 1, 5),
        x_axes=(3, 4, 2, 6),
        chi_phase=lambda k: np.asarray(k, dtype=float)[..., 0],
    )
    section = subgroup.coordinate_section
    # s_tw(x) = s0(x) K_embed(p q / 2, 0, 0), K chart (t, s, r)
    section_prime = Section(
        "s_tw", subgroup,
        lambda x: np.stack(np.broadcast_arrays(0.5 * x[..., 0] * x[..., 1], 0.0, 0.0), -1),
    )

    proj = projective_from_section(rep, section)

    state_grid = product_grid(halfline_grid(8.0, 64), centered_grid(8.0, 64, dim=1))
    x_grid = haar_grid(
        x_group, [(-7.0, 7.0), (-6.0, 6.0), (-9.0, 9.0), (0.125, 8.0)], list(x_resolution),
        log_axes=(3,),
    )

    def gauss(c, w):
        return lambda x: np.exp(-((x - c) ** 2) / (2.0 * w ** 2))

    def log_gauss(c, w):
        # profiles on the bcheck > 0 half-line: Gaussian in ln(bcheck), so
        # dilation overlaps decay fast on the geometric scale ladder
        return lambda x: np.exp(-((np.log(x) - np.log(c)) ** 2) / (2.0 * w ** 2))

    states = {
        "psi": product_state(state_grid, log_gauss(2.0, 0.30), gauss(0.0, 1.0)),
        "phi": product_state(state_grid, log_gauss(2.5, 0.35), gauss(0.5, 1.2)),
        "psi2": product_state(state_grid, log_gauss(1.8, 0.28), gauss(-0.4, 0.9)),
        "phi2": product_state(state_grid, log_gauss(2.2, 0.32), gauss(0.2, 1.1)),
    }

    return ExoticSetup(
        group=rep.group,
        x_group=x_group,
        subgroup=subgroup,
        section=section,
        section_prime=section_prime,
        rep=rep,
        proj=proj,
        state_grid=state_grid,
        x_grid=x_grid,
        states=states,
    )
