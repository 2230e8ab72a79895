import sys

import numpy as np
import pytest

from groupwave.groups import haar_grid
from groupwave.representations import (
    GridSafetyError,
    affine_rep,
    coefficient,
    displacement,
    exotic_rep,
    lift_to_extension,
    projective_from_section,
    wh_rep,
)
from groupwave.states import (
    DiscretizedState,
    dog_state,
    fourier_plancherel,
    gaussian_state,
    inner,
    modulate,
    norm,
    centered_grid,
    halfline_grid,
    product_grid,
    product_state,
    translate,
)
from groupwave.transforms import (
    analyze,
    duflo_moore,
    orthogonality_check,
    semi_invariance_check,
    synthesize,
)


def diff(a, b):
    return norm(DiscretizedState(a.samples - b.samples, a.grid))


def test_wh_rep_rejects_zero_parameter():
    with pytest.raises(ValueError):
        wh_rep(0.0)


@pytest.mark.parametrize("factory", [lambda: wh_rep(-1.0, n=0), lambda: affine_rep(0),
                                     lambda: exotic_rep(0)], ids=["wh", "affine", "exotic"])
def test_rep_factories_reject_nonpositive_n(factory):
    """The group factory of each rep rejects n < 1."""
    with pytest.raises(ValueError, match="n must be a positive integer"):
        factory()


def test_setups_share_one_group_object(gabor, affine, exotic):
    """A setup's group is its rep's group, and its subgroup's ambient group."""
    for setup in (gabor, affine, exotic):
        assert setup.group is setup.rep.group
    for setup in (gabor, exotic):
        assert setup.group is setup.subgroup.ambient


def test_wh_rep_identity_and_central_scalar(gabor):
    f = gabor.states["mix"]
    assert diff(gabor.rep.act(gabor.group.identity, f), f) < 1e-14
    g = np.array([0.7, 0.0, 0.0])
    expected = f.with_samples(np.exp(1j * gabor.k_check * 0.7) * f.samples)
    assert diff(gabor.rep.act(g, f), expected) < 1e-14


def test_wh_rep_unitarity_and_composition(gabor_wide, rng):
    f = gabor_wide.states["mix"]
    rep = gabor_wide.rep
    worst_u = worst_c = 0.0
    for _ in range(60):
        g = np.concatenate([rng.uniform(-2, 2, 1), rng.uniform(-1, 1, 2)])
        h = np.concatenate([rng.uniform(-2, 2, 1), rng.uniform(-1, 1, 2)])
        worst_u = max(worst_u, abs(norm(rep.act(g, f)) - 1))
        lhs = rep.act(g, rep.act(h, f))
        rhs = rep.act(gabor_wide.group.product(g, h), f)
        worst_c = max(worst_c, diff(lhs, rhs))
    assert worst_u < 1e-10
    assert worst_c < 1e-8


def test_wh_safe_box_flags_wrapping_translation(gabor):
    with pytest.raises(GridSafetyError):
        gabor.rep.act(np.array([0.0, 0.0, 20.0]), gabor.states["gauss"])


def test_displacement_identity_and_composition(gabor_wide, rng):
    f = gabor_wide.states["gauss"]
    assert diff(displacement(0.0, 0.0)(f), f) < 1e-14
    worst = 0.0
    for _ in range(40):
        q1, p1, q2, p2 = rng.uniform(-1.2, 1.2, 4)
        lhs = displacement(q1, p1)(displacement(q2, p2)(f))
        phase = np.exp(0.5j * (p1 * q2 - q1 * p2))
        rhs = displacement(q1 + q2, p1 + p2)(f)
        worst = max(worst, np.max(np.abs(lhs.samples - phase * rhs.samples)))
    assert worst < 1e-8


def test_displacement_generates_coherent_state(gabor):
    f = gabor.states["gauss"]
    st = displacement(1.3, 0.6)(f)
    x = gabor.state_grid.axis(0)
    mean_x = float(np.sum(x * np.abs(st.samples) ** 2) * gabor.state_grid.cell_volume)
    assert mean_x == pytest.approx(1.3, abs=1e-6)
    # and mean momentum through the Fourier side; with the e^{+iwx} kernel
    # the momentum operator maps to -w
    sthat = fourier_plancherel(st)
    w = sthat.grid.axis(0)
    mean_p = -float(
        np.sum(w * np.abs(sthat.samples) ** 2) * sthat.grid.cell_volume
    )
    assert mean_p == pytest.approx(0.6, abs=1e-6)


def test_displacement_is_section_pullback(gabor):
    f = gabor.states["hermite1"]
    q, p = 1.1, -0.8
    lhs = displacement(q, p)(f)
    rhs = projective_from_section(gabor.rep, gabor.section_prime).act(np.array([p, q]), f)
    assert np.max(np.abs(lhs.samples - rhs.samples)) < 1e-14


def test_fourier_conjugated_displacement(gabor):
    f = gabor.states["mix"]
    q, p = 0.9, 1.4
    lhs = fourier_plancherel(displacement(q, p)(f))
    Ff = fourier_plancherel(f)
    rhs = modulate(translate(Ff, [-p]), [q], extra_phase=0.5 * q * p)
    assert np.max(np.abs(lhs.samples - rhs.samples)) < 1e-8


def test_affine_rep_identity_and_formula(affine):
    psi = affine.states["morlet"]
    assert diff(affine.rep.act(np.array([0.0, 1.0]), psi), psi) < 1e-10
    b, a = 0.8, 1.7
    out = affine.rep.act(np.array([b, a]), psi)
    x = affine.state_grid.axis(0)
    om = 6.0
    raw = lambda y: (np.cos(om * y) - np.exp(-om ** 2 / 2)) * np.exp(-y ** 2 / 2)
    scale = norm(DiscretizedState(raw(x).astype(complex), affine.state_grid))
    ref = raw((x - b) / a) / scale / np.sqrt(a)
    assert np.max(np.abs(out.samples - ref)) < 1e-10


def test_affine_rep_unitarity_and_composition(affine, rng):
    psi = affine.states["morlet"]
    worst_u = worst_c = 0.0
    for _ in range(40):
        g = np.array([rng.uniform(-1.5, 1.5), np.exp(rng.uniform(-0.55, 0.55))])
        h = np.array([rng.uniform(-1.5, 1.5), np.exp(rng.uniform(-0.55, 0.55))])
        worst_u = max(worst_u, abs(norm(affine.rep.act(g, psi)) - 1))
        lhs = affine.rep.act(g, affine.rep.act(h, psi))
        rhs = affine.rep.act(affine.group.product(g, h), psi)
        worst_c = max(worst_c, diff(lhs, rhs))
    assert worst_u < 1e-6
    assert worst_c < 1e-6


def test_affine_safe_box(affine):
    with pytest.raises(GridSafetyError):
        affine.rep.act(np.array([0.0, 1.0 / 1024.0]), affine.states["morlet"])


@pytest.mark.parametrize("spec", ["rep", "proj"])
def test_act_rejects_point_of_wrong_length(gabor, spec):
    """A point with one chart coordinate too few or too many raises a
    ``ValueError`` that names the count, before the action runs (it once
    raised ``IndexError`` or a shape error from inside the action)."""
    rep, psi = getattr(gabor, spec), gabor.states["gauss"]
    for g in (np.zeros(rep.group.dim - 1), np.zeros(rep.group.dim + 1)):
        with pytest.raises(ValueError, match=f"{len(g)} chart coordinates, not {rep.group.dim}"):
            rep.act(g, psi)


@pytest.mark.parametrize("axis", [0, 1])
def test_act_rejects_nan_coordinate(affine, axis):
    """A NaN shift or scale lies in no grid-safe range."""
    g = np.array([0.0, 1.0])
    g[axis] = np.nan
    with pytest.raises(GridSafetyError, match=f"chart axis {axis}"):
        affine.rep.act(g, affine.states["morlet"])


def test_exotic_act_past_sampling_limit_raises(exotic):
    """p = 12 lies inside the once hand-set |p| <= 32 but past the p limit
    of the bundled state grid, 0.8 pi / 0.25 = 10.05: ``act`` rejects it."""
    g = np.array([0.0, 0.0, 0.0, 12.0, 0.0, 0.0, 1.0])
    with pytest.raises(GridSafetyError, match=r"chart axis 3 \(modulate\) reaches \[12, 12\]"):
        exotic.rep.act(g, exotic.states["psi"])
    g[3] = 10.0
    assert abs(norm(exotic.rep.act(g, exotic.states["psi"])) - 1.0) < 1e-6


def test_safe_box_policy(gabor, gabor_wide, gabor_n2, affine, affine_n2, exotic):
    """The box derived from each table and its state grid keeps every bound
    the configurations once set by hand, bit for bit, where it was right:
    Gabor |p| <= 0.8 pi / h and |q| <= the state half-width, affine
    |b| <= 16 (half the state box), exotic |q| <= 8, and the two declared
    scale ranges.  The exotic p and b bounds follow the same Nyquist rule as
    Gabor's p (the hand-set |p| <= 32 was past the p period of 25.13)."""
    free = (-np.inf, np.inf)

    def nyquist(grid, j):
        return (-0.8 * (np.pi / grid.spacings[j]), 0.8 * (np.pi / grid.spacings[j]))

    h = gabor.state_grid.spacings[0]
    x_box = gabor.proj.table.safe_box(gabor.state_grid)
    assert x_box == ((-0.8 * (np.pi / h), 0.8 * (np.pi / h)), (-8.0, 8.0))
    assert gabor.rep.table.safe_box(gabor.state_grid) == (free,) + x_box
    assert lift_to_extension(gabor.proj).table.safe_box(gabor.state_grid) == (free,) + x_box
    assert gabor_wide.proj.table.safe_box(gabor_wide.state_grid)[1] == (-10.0, 10.0)
    assert gabor_n2.proj.table.safe_box(gabor_n2.state_grid) == (
        (nyquist(gabor_n2.state_grid, 0),) * 2 + ((-6.0, 6.0),) * 2)
    assert affine.rep.table.safe_box(affine.state_grid) == ((-16.0, 16.0), (1.0 / 64.0, 64.0))
    rep, psi, _, _ = affine_n2
    assert rep.table.safe_box(psi.grid) == ((-8.0, 8.0), (-8.0, 8.0), (1.0 / 64.0, 64.0))
    grid = exotic.state_grid
    # chart (t, s, b, p, q, r, a); X chart (p, q, b, a)
    assert exotic.rep.table.safe_box(grid) == (
        free, free, nyquist(grid, 0), nyquist(grid, 1), (-8.0, 8.0), free, (1.0 / 16.0, 16.0))
    assert exotic.proj.table.safe_box(grid) == (
        nyquist(grid, 1), (-8.0, 8.0), nyquist(grid, 0), (1.0 / 16.0, 16.0))
    assert nyquist(grid, 1)[1] == pytest.approx(10.053, abs=1e-3)
    assert nyquist(grid, 0)[1] == pytest.approx(20.106, abs=1e-3)


# case: (configuration fixture, spec, analyzing vector, chart axis)
LIMITS = {
    "gabor-p-modulate": ("gabor", "proj", "gauss", 0),
    "gabor-q-translate": ("gabor", "proj", "gauss", 1),
    "affine-b-fourier-modulate": ("affine", "rep", "morlet", 0),
    "exotic-p-modulate": ("exotic", "proj", "psi", 0),
    "exotic-q-translate": ("exotic", "proj", "psi", 1),
    "exotic-b-modulate": ("exotic", "proj", "psi", 2),
}


@pytest.mark.parametrize("case", LIMITS)
def test_grid_one_cell_past_sampling_limit(case, request):
    """For each role of a bundled rep with a sampling limit: a grid whose
    axis ends at the limit is analyzed, and one ending one cell past it
    raises ``GridSafetyError`` naming the axis, its role and the limit."""
    config, spec, state, axis = LIMITS[case]
    setup = request.getfixturevalue(config)
    rep, psi = getattr(setup, spec), setup.states[state]
    lo, hi = rep.table.safe_box(psi.grid)[axis]
    # two nodes on every other axis, scales in [0.5, 2]
    dilate = [r.kind == "dilate" for r in rep.table.roles]
    box = [(0.5, 2.0) if d else (-1.0, 1.0) for d in dilate]
    log_axes = tuple(i for i, d in enumerate(dilate) if d)

    def grid(top, cells):
        box[axis] = (lo, top)
        resolution = [cells if i == axis else 2 for i in range(len(box))]
        return haar_grid(rep.group, box, resolution, log_axes=log_axes)

    assert np.all(np.isfinite(analyze(rep, psi, psi, grid(hi, 4)).coefficients))
    kind = rep.table.roles[axis].kind
    with pytest.raises(GridSafetyError, match=rf"chart axis {axis} \({kind}\) reaches .* past "
                                              rf"its limit \[{lo:g}, {hi:g}\]"):
        analyze(rep, psi, psi, grid(hi + (hi - lo) / 4, 5))


def test_exotic_rep_scalar_action_and_unitarity(exotic, rng):
    psi = exotic.states["psi"]
    assert diff(exotic.rep.act(exotic.group.identity, psi), psi) < 1e-13
    k_el = np.array([0.9, 0.5, 0, 0, 0, 0.7, 1.0])
    expected = psi.with_samples(np.exp(1j * 0.9) * psi.samples)
    assert diff(exotic.rep.act(k_el, psi), expected) < 1e-12
    worst = 0.0
    for _ in range(20):
        g = np.zeros(7)
        g[:3] = rng.uniform(-1, 1, 3)
        g[3:6] = rng.uniform(-1, 1, 3)
        g[6] = np.exp(rng.uniform(-0.3, 0.3))
        worst = max(worst, abs(norm(exotic.rep.act(g, psi)) - 1))
    assert worst < 1e-6


def test_exotic_rep_composition_at_zero_character(rng):
    # a state with Gaussian bcheck profile keeps both flanks resolved and far
    # from the box ends under the double dilation of a composition; n = 2
    # has 64 times the samples (128 x 64^2), so it composes fewer pairs
    for n, pairs in ((1, 15), (2, 3)):
        rep = exotic_rep(n)
        grid = product_grid(halfline_grid(10.0, 128), centered_grid(8.0, 64, dim=n))
        psi = product_state(
            grid,
            lambda b: np.exp(-((b - 2.5) ** 2) / (2 * 0.35 ** 2)),
            *[lambda p: np.exp(-(p ** 2) / 2)] * n,
        )
        worst = 0.0
        for _ in range(pairs):
            def rnd():
                g = np.zeros(4 + 3 * n)  # (t, s, b, p, q, r, a)
                g[:3] = rng.uniform(-0.8, 0.8, 3)
                g[3:-1] = rng.uniform(-0.8, 0.8, 3 * n)
                g[-1] = np.exp(rng.uniform(-0.25, 0.25))
                return g

            g, h = rnd(), rnd()
            lhs = rep.act(g, rep.act(h, psi))
            rhs = rep.act(rep.group.product(g, h), psi)
            worst = max(worst, diff(lhs, rhs))
        assert worst < 1e-8, (n, worst)


def test_exotic_rep_rejects_grid_touching_singularity(exotic):
    from groupwave.states import StateGrid

    bad_grid = StateGrid(offsets=(0.0, -8.0), spacings=(0.125, 0.25), counts=(64, 64))
    bad = DiscretizedState(np.ones((64, 64), dtype=complex), bad_grid)
    with pytest.raises(GridSafetyError):
        exotic.rep.act(exotic.group.identity, bad)


def _small_exotic_x_grid(exotic):
    return haar_grid(exotic.x_group, [(-3, 3), (-2, 2), (-3, 3), (0.5, 2.0)], [6, 5, 6, 6],
                     log_axes=(3,))


def test_exotic_engine_rejects_grid_touching_singularity(exotic):
    """The engine holds every state to the table's declared state space: a
    bc axis reaching bc <= 0 once went through analyze and synthesize."""
    grid = _small_exotic_x_grid(exotic)
    state_grid = product_grid(centered_grid(4.0, 64), centered_grid(8.0, 64))
    bad = DiscretizedState(np.ones(state_grid.counts, dtype=complex), state_grid)
    good = exotic.states["psi"]
    res = analyze(exotic.proj, good, good, grid, dm_norm=1.0)
    lift = lift_to_extension(exotic.proj)
    calls = [
        lambda: exotic.proj.act(grid.node(0), bad),
        lambda: analyze(exotic.proj, bad, bad, grid),
        lambda: analyze(exotic.proj, good, bad, grid),
        lambda: analyze(exotic.rep, bad, bad, haar_grid(exotic.group, [(-1, 1)] * 6 + [(0.5, 2)],
                                                       [2] * 7)),
        lambda: analyze(lift, bad, bad, haar_grid(lift.group, [(-1, 1)] * 4 + [(0.5, 2)], [2] * 5)),
        lambda: synthesize(res, exotic.proj, bad),
    ]
    for call in calls:
        with pytest.raises(GridSafetyError,
                           match=r"state axis 0 starts at -4, at or below its open lower bound 0"):
            call()


def _plane_states():
    """(psi, phi) on a 2-D grid for the n = 1 specs: the Gabor pair of
    Gaussians, and psi = dog2 (x) g, phi = gauss(x - 1) (x) y g for affine,
    g a Gaussian in y."""
    wh_plane = product_grid(centered_grid(6.0, 32), centered_grid(6.0, 32))
    x, y = centered_grid(16.0, 128), centered_grid(6.0, 16)
    g = gaussian_state(y).samples
    plane = product_grid(x, y)
    return {
        "wh": (gaussian_state(wh_plane), gaussian_state(wh_plane, center=[0.3, 0.1])),
        "affine": (DiscretizedState(np.multiply.outer(dog_state(x, 2).samples, g), plane),
                   DiscretizedState(np.multiply.outer(gaussian_state(x, center=1.0).samples,
                                                      y.axis(0) * g), plane)),
    }


@pytest.mark.parametrize("config", ["wh", "affine", "exotic"])
def test_engine_rejects_state_of_wrong_dimension(config, gabor, affine, exotic):
    """Every path holds a state to the table's declared state space: a grid
    of another dimension raises ``ValueError`` naming both dimensions.
    Before the declaration, a 1-D state raised IndexError in the exotic
    engine, a 2-D state gave an energy of 0.956 from the n = 1 Gabor engine,
    and the affine rep computed U (x) I on a 2-D state: the orthogonality
    check of psi = dog2 (x) g, phi = gauss(x - 1) (x) y g returned lhs
    5.4e-31, rhs 1.18 and relerr 1.0, with no error."""
    if config == "exotic":
        flat = DiscretizedState(np.ones(64, dtype=complex), centered_grid(4.0, 64))
        rep, dm, (psi, phi) = exotic.proj, duflo_moore("exotic"), (flat, flat)
        good, grid = exotic.states["psi"], _small_exotic_x_grid(exotic)
        match = r"state grid is 1-D, not the 2-D state space"
    else:
        psi, phi = _plane_states()[config]
        if config == "wh":
            rep, dm, good = gabor.proj, duflo_moore("gabor"), gabor.states["gauss"]
            grid = haar_grid(rep.group, [(-4, 4)] * 2, [8, 6])
        else:
            rep, dm, good = affine.rep, duflo_moore("affine"), affine.states["gauss"]
            grid = haar_grid(rep.group, [(-4, 4), (0.5, 2.0)], [8, 6], log_axes=(1,))
        match = r"state grid is 2-D, not the 1-D state space"
    res = analyze(rep, good, good, grid, dm_norm=1.0)
    g = grid.node(0)
    calls = [
        lambda: rep.act(g, psi),
        lambda: analyze(rep, psi, phi, grid),
        lambda: rep.table.coefficients(good, phi, grid),
        lambda: synthesize(res, rep, psi),
        lambda: orthogonality_check(rep, [(psi, psi, phi, phi)], dm, grid),
        lambda: semi_invariance_check(rep, dm, g, [psi]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=match) as info:
            call()
        assert type(info.value) is ValueError


def test_projective_composition_defect(gabor_wide, rng):
    proj = gabor_wide.proj
    f = gabor_wide.states["gauss"]
    worst = 0.0
    for _ in range(40):
        x = rng.uniform(-1.2, 1.2, 2)
        y = rng.uniform(-1.2, 1.2, 2)
        m = np.exp(1j * proj.multiplier.phase(x, y))
        lhs = proj.act(gabor_wide.x_group.product(x, y), f)
        rhs = m * proj.act(x, proj.act(y, f)).samples
        worst = max(worst, norm(DiscretizedState(lhs.samples - rhs, f.grid)))
    assert worst < 1e-8


def test_lift_to_extension_is_genuine_rep(gabor_wide, rng):
    f = gabor_wide.states["gauss"]
    for variant in ("standard", "starred"):
        lift = lift_to_extension(gabor_wide.proj, variant)
        assert diff(lift.act(lift.group.identity, f), f) < 1e-14
        worst = 0.0
        for _ in range(50):
            g = np.concatenate([rng.uniform(-np.pi, np.pi, 1), rng.uniform(-1, 1, 2)])
            h = np.concatenate([rng.uniform(-np.pi, np.pi, 1), rng.uniform(-1, 1, 2)])
            lhs = lift.act(g, lift.act(h, f))
            rhs = lift.act(lift.group.product(g, h), f)
            worst = max(worst, diff(lhs, rhs))
        assert worst < 1e-8


def test_lift_matches_reduced_group_rep_display(gabor):
    """tau^j e^{i p x} f(x + j kc' q): the starred lift realizes j = +1 with
    kc' = kc, the standard lift j = -1 with kc' = -kc."""
    f = gabor.states["mix"]
    kc = gabor.k_check
    theta, p, q = 0.8, 1.1, -0.7
    starred = lift_to_extension(gabor.proj, "starred")
    out = starred.act(np.array([theta, p, q]), f)
    ref = modulate(translate(f, [-kc * q]), [p], extra_phase=theta)
    assert np.max(np.abs(out.samples - ref.samples)) < 1e-13

    standard = lift_to_extension(gabor.proj, "standard")
    out2 = standard.act(np.array([theta, p, q]), f)
    ref2 = modulate(translate(f, [-kc * q]), [p], extra_phase=-theta)
    assert np.max(np.abs(out2.samples - ref2.samples)) < 1e-13


def test_coefficient_bounds_and_k_independence(gabor, rng):
    psi, phi = gabor.states["gauss"], gabor.states["hermite2"]
    e_val = coefficient(gabor.rep, psi, phi, gabor.group.identity)
    assert e_val == pytest.approx(inner(psi, phi), abs=1e-14)
    for _ in range(20):
        g = np.concatenate([rng.uniform(-3, 3, 1), rng.uniform(-2, 2, 2)])
        c = coefficient(gabor.rep, psi, phi, g)
        assert abs(c) <= norm(psi) * norm(phi) + 1e-12
        g0 = g.copy()
        g0[0] = 0.0
        assert abs(c) == pytest.approx(
            abs(coefficient(gabor.rep, psi, phi, g0)), abs=1e-12
        )


@pytest.mark.parametrize(
    "config",
    ["gabor", "affine", "affine_n2", "exotic", "gabor_n2", "exotic_full_chart", "exotic_n2",
     "gabor_s_sym", "exotic_s_tw", "lift_standard", "lift_starred", "lift_s_sym"],
)
def test_fast_coefficients_match_generic_loop(config, gabor, affine, affine_n2, exotic, gabor_n2,
                                              gauged_and_lifted, per_node):
    from groupwave.groups import haar_grid

    if config == "gabor":
        setup, rep = gabor, gabor.proj
        psi, phi = setup.states["gauss"], setup.states["hermite1"]
        grid = haar_grid(setup.x_group, [(-4, 4)] * 2, [10] * 2)
    elif config == "affine":
        setup, rep = affine, affine.rep
        psi, phi = setup.states["morlet"], setup.states["gauss_mod"]
        grid = haar_grid(setup.group, [(-3, 3), (0.5, 2.5)], [8, 6], log_axes=(1,))
    elif config == "affine_n2":
        rep, psi, phi, grid = affine_n2
    elif config == "exotic":
        setup, rep = exotic, exotic.proj
        psi, phi = setup.states["psi"], setup.states["phi"]
        grid = haar_grid(
            setup.x_group,
            [(-3, 3), (-2, 2), (-3, 3), (0.5, 2.0)],
            [5, 4, 5, 4],
            log_axes=(3,),
        )
    elif config == "gabor_n2":
        rep, grid = gabor_n2.proj, gabor_n2.x_grid
        psi = gaussian_state(gabor_n2.state_grid)
        phi = gaussian_state(gabor_n2.state_grid, center=[0.4, -0.3], momentum=[0.5, 0.2])
    elif config == "exotic_full_chart":
        rep = exotic.rep
        psi, phi = exotic.states["psi"], exotic.states["phi"]
        grid = haar_grid(
            exotic.group,
            [(-1, 1), (-1, 1), (-3, 3), (-3, 3), (-2, 2), (-1, 1), (0.5, 2.0)],
            [2, 2, 3, 3, 3, 2, 3],
            log_axes=(6,),
        )
    elif config == "exotic_n2":
        # chart (t, s, b, p, q, r, a) with p, q, r in R^2, on a 32 x 16^2 state grid
        rep = exotic_rep(2)
        state_grid = product_grid(halfline_grid(8.0, 32), centered_grid(8.0, 16, dim=2))
        log_gauss = lambda c: (lambda b: np.exp(-np.log(b / c) ** 2 / 0.18))
        gauss = lambda c: (lambda p: np.exp(-((p - c) ** 2) / 2.0))
        psi = product_state(state_grid, log_gauss(2.0), gauss(0.0), gauss(0.3))
        phi = product_state(state_grid, log_gauss(2.5), gauss(0.5), gauss(-0.4))
        grid = haar_grid(
            rep.group,
            [(-1, 1), (-1, 1), (-3, 3)] + [(-2, 2)] * 4 + [(-1, 1)] * 2 + [(0.5, 2.0)],
            [2] * 9 + [3],
            log_axes=(9,),
        )
    else:
        rep, psi, phi, grid = gauged_and_lifted[config]
    fast = analyze(rep, psi, phi, grid)
    slow = per_node.coefficients(rep, psi, phi, grid)
    assert np.max(np.abs(fast.coefficients - slow)) < 1e-11


def test_full_chart_fast_coefficients_match(gabor, per_node):
    from groupwave.groups import haar_grid

    grid = haar_grid(gabor.group, [(-2, 2), (-4, 4), (-4, 4)], [6, 10, 10])
    psi, phi = gabor.states["gauss"], gabor.states["hermite1"]
    fast = analyze(gabor.rep, psi, phi, grid)
    slow = per_node.coefficients(gabor.rep, psi, phi, grid)
    assert np.max(np.abs(fast.coefficients - slow)) < 1e-11


def _affine_and_exotic_case(config, affine, exotic):
    from groupwave.groups import haar_grid

    if config == "affine":
        return affine.rep, affine.states["morlet"], affine.states["signal"], affine.x_grid
    grid = haar_grid(exotic.x_group, [(-3, 3), (-2, 2), (-3, 3), (0.5, 2.0)], [5, 4, 5, 4],
                     log_axes=(3,))
    return exotic.proj, exotic.states["psi"], exotic.states["phi"], grid


def test_engine_plan_is_cached_and_read_only(exotic, monkeypatch):
    """Calls on the same grid, also rebuilt, reuse one contraction plan
    object, and no part of it can be changed: the exotic G-chart table has
    phase roles, a modulation folded into phi, and translation and
    modulation steps."""
    from groupwave import representations
    from groupwave.groups import haar_grid

    plans, cached = [], representations._factor_plan
    monkeypatch.setattr(representations, "_factor_plan",
                        lambda *args: plans.append(cached(*args)) or plans[-1])
    rep, psi, phi = exotic.rep, exotic.states["psi"], exotic.states["phi"]

    def grid():
        return haar_grid(rep.group, [(-1, 1)] * 6 + [(0.5, 2.0)], [2] * 7, log_axes=(6,))

    for _ in range(2):
        rep.fast_coefficients(psi, phi, grid())
    plan = plans[0]
    assert len(plans) == 2 and plans[1] is plan
    assert plan.phases and plan.mods and plan.steps and plan.moved and plan.lead
    assert all(isinstance(part, tuple) for part in plan)
    with pytest.raises(AttributeError):
        plan.steps = ()
    arrays = plan.phases[::2] + plan.mods[::2] + tuple(matrix for matrix, _ in plan.steps)
    for a in arrays:
        with pytest.raises(ValueError):
            a[0, ...] = 0.0


@pytest.mark.parametrize("config", ["affine", "exotic"])
def test_warm_plan_caches_give_identical_bits(config, affine, exotic):
    """A warm analyze and synthesize miss no cache and take their dilated
    psi from the dictionary cache, with the cold calls' bits."""
    from groupwave import representations, states
    from groupwave.transforms import synthesize

    rep, psi, phi, grid = _affine_and_exotic_case(config, affine, exotic)
    caches = (representations._factor_plan, states._chirp_plan, representations._dictionary_block)
    for cached in caches:
        cached.cache_clear()
    cold = analyze(rep, psi, phi, grid, dm_norm=1.0)
    cold_back = synthesize(cold, rep, psi)
    misses = [cached.cache_info().misses for cached in caches]
    hits = representations._dictionary_block.cache_info().hits
    warm = analyze(rep, psi, phi, grid, dm_norm=1.0)
    warm_back = synthesize(warm, rep, psi)
    assert [cached.cache_info().misses for cached in caches] == misses
    assert representations._dictionary_block.cache_info().hits > hits
    assert warm.coefficients.tobytes() == cold.coefficients.tobytes()
    assert warm_back.samples.tobytes() == cold_back.samples.tobytes()


def test_plan_caches_stay_bounded(affine):
    from groupwave import representations, states
    from groupwave.groups import haar_grid

    caches = (representations._factor_plan, states._chirp_plan, representations._dictionary_block)
    for cached in caches:
        cached.cache_clear()
    psi, phi = affine.states["morlet"], affine.states["signal"]
    for k in range(states.PLAN_CACHE + 3):
        grid = haar_grid(affine.group, [(-3, 3), (0.5, 2.5)], [4, 2 + k], log_axes=(1,))
        analyze(affine.rep, psi, phi, grid)
    for cached in caches:
        info = cached.cache_info()
        assert info.misses == states.PLAN_CACHE + 3
        assert info.currsize == info.maxsize == states.PLAN_CACHE


@pytest.fixture(scope="module")
def plan_cases(gabor, gabor_n2, affine, affine_n2, exotic):
    """(rep, psi, phi, grid) of every engine configuration the benchmark
    runs, and of the two-axis dilation of ``affine_n2``."""
    from groupwave import configs

    reduced = configs.exotic_setup(x_resolution=(4, 4, 4, 4))
    wh2_psi = gaussian_state(gabor_n2.state_grid)
    return {
        "gabor": (gabor.proj, gabor.states["gauss"], gabor.states["hermite1"], gabor.x_grid),
        "wh_n2": (gabor_n2.proj, wh2_psi, gaussian_state(gabor_n2.state_grid, center=[0.5, -0.3]),
                  gabor_n2.x_grid),
        "affine": (affine.rep, affine.states["morlet"], affine.states["signal"], affine.x_grid),
        "affine_n2": affine_n2,
        "exotic": (exotic.proj, exotic.states["psi"], exotic.states["phi"], exotic.x_grid),
        "exotic_4^4": (reduced.proj, reduced.states["psi"], reduced.states["phi"],
                       reduced.x_grid),
    }


def _plan_arrays(plan) -> dict:
    """The arrays of an engine plan, keyed by the chart axis of their role."""
    parts = (list(zip(plan.phases[::2], plan.phases[1::2]))
             + list(zip(plan.mods[::2], plan.mods[1::2])) + list(plan.steps))
    return {labels[0]: a for a, labels in parts}


def test_plans_and_chirp_factors_match_their_formulas_bit_for_bit(plan_cases, affine):
    """Every array of both signs' engine plans, and every chirp-z factor of
    the scale ladders the engine dilates by, has the bytes of its defining
    formula (``oracles``), on every benchmark configuration: the adjoint's
    plan, the conjugate of the analysis plan, keeps e^{+i 0} = (1, +0.0)."""
    from groupwave import representations, states
    from oracles import chirp_factors, factor_plan_arrays

    for name, (rep, psi, _, grid) in plan_cases.items():
        table = rep.table
        domain = states.frequency_grid(psi.grid) if table.fourier else psi.grid
        axes = tuple(grid.axis(i).tobytes() for i in range(len(table.roles)))
        for sign in (-1, 1):
            got = _plan_arrays(table._plan(grid, domain, sign))
            want = factor_plan_arrays(table.roles, axes, domain, sign)
            assert got.keys() == want.keys(), (name, sign)
            for i, a in want.items():
                assert (got[i].shape, got[i].tobytes()) == (a.shape, a.tobytes()), (name, sign, i)
        dil = [r for r in table.roles if r.kind == "dilate"]
        if dil:
            step = max(1, representations.CHUNK // psi.samples.size)
            scales = grid.axis(table.roles.index(dil[0]))
            for d0 in range(0, len(scales), step):
                block = scales[d0 : d0 + step]
                for j in dil[0].axes:
                    got = states._chirp_plan(domain, j, block.tobytes(), block.shape, 0.0)
                    for g, w in zip(got, chirp_factors(domain, j, block, 0.0)):
                        assert (g.shape, g.tobytes()) == (w.shape, w.tobytes()), (name, j)
    for scale in (np.float64(1.7), np.geomspace(0.2, 5.0, 7)):  # one node's action; a ladder
        got = states._chirp_factors(affine.state_grid, 0, scale, 0.3)
        for g, w in zip(got, chirp_factors(affine.state_grid, 0, scale, 0.3)):
            assert (g.shape, g.tobytes()) == (w.shape, w.tobytes())


@pytest.mark.parametrize("config", ["gabor", "affine", "exotic_4^4"])
def test_adjoint_plan_is_the_conjugated_analysis_plan(config, plan_cases, monkeypatch):
    """After analyze, synthesize on the same grid evaluates no exponential
    (``exp_into`` is where the plans evaluate them): its plan is the
    analysis plan conjugated, read-only, with the bits of a synthesize on
    cold plan caches."""
    from groupwave import representations, states

    rep, psi, phi, grid = plan_cases[config]
    calls, evaluate = [], representations.exp_into
    monkeypatch.setattr(representations, "exp_into",
                        lambda a, b, out: calls.append(out.shape) or evaluate(a, b, out))
    representations._factor_plan.cache_clear()
    res = analyze(rep, psi, phi, grid, dm_norm=1.0)
    assert calls  # the analysis plan evaluated its exponentials here
    representations._factor_plan.cache_clear()
    cold = synthesize(res, rep, psi)
    representations._factor_plan.cache_clear()
    analyze(rep, psi, phi, grid, dm_norm=1.0)
    calls.clear()
    warm = synthesize(res, rep, psi)
    assert calls == []
    assert warm.samples.tobytes() == cold.samples.tobytes()
    domain = states.frequency_grid(psi.grid) if rep.table.fourier else psi.grid
    adjoint_plan = _plan_arrays(rep.table._plan(grid, domain, 1))
    assert not any(a.flags.writeable for a in adjoint_plan.values())


def test_single_scale_bypasses_plan_cache(affine, exotic):
    from groupwave import states

    before = states._chirp_plan.cache_info()
    affine.rep.act(np.array([0.3, 1.7]), affine.states["morlet"])
    exotic.rep.act(np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 1.7]), exotic.states["psi"])
    assert states._chirp_plan.cache_info() == before


def test_dictionary_dilations_equal_per_scale_bits(affine_n2):
    from groupwave.groups import haar_grid
    from groupwave.states import axis_resample

    rep, psi, _, _ = affine_n2
    # 500 scales (two dilation batches); for one of them sqrt(a) ** 2 differs
    # in the last bit from the square of the array sqrt(a)
    grid = haar_grid(rep.group, [(-2, 2), (-2, 2), (0.3, 3.0)], [2, 2, 500], log_axes=(2,))
    hat = fourier_plancherel(psi)
    plan = rep.table._plan(grid, hat.grid, 1)  # no translation role: nothing moved, no lead
    stack = np.concatenate([block for _, _, block in rep.table._dictionary(psi, grid, plan)])
    ref = np.stack([axis_resample(axis_resample(hat, 0, a), 1, a).samples * np.sqrt(a) ** 2
                    for a in grid.axis(2)])
    assert stack.tobytes() == ref.tobytes()


def _dictionary_entries(monkeypatch):
    """Clear the dictionary cache and record every entry it hands out."""
    from groupwave import representations

    entries, cached = [], representations._dictionary_block
    cached.cache_clear()
    monkeypatch.setattr(representations, "_dictionary_block",
                        lambda *key: entries.append(cached(*key)) or entries[-1])
    return entries


def test_dictionary_cache_keys_psi_by_value(exotic):
    """A rebuilt equal psi hits the dictionary cache; the same samples on
    another state grid, another scale slice, and the same sample bytes of
    another dtype each miss (the exotic table dilates in position, so its
    cache key holds psi's own samples)."""
    from groupwave import representations
    from groupwave.states import StateGrid

    cache = representations._dictionary_block
    psi, phi = exotic.states["psi"], exotic.states["phi"]
    grid = haar_grid(exotic.x_group, [(-3, 3), (-2, 2), (-3, 3), (0.5, 2.0)], [5, 4, 5, 4],
                     log_axes=(3,))
    other_scales = haar_grid(exotic.x_group, [(-3, 3), (-2, 2), (-3, 3), (0.5, 2.5)],
                             [5, 4, 5, 4], log_axes=(3,))
    g = psi.grid
    other_grid = StateGrid((0.05,) + g.offsets[1:], (0.1,) + g.spacings[1:], g.counts)
    real = DiscretizedState(psi.samples.real.copy(), g)

    def misses(psi, phi, grid):
        before = cache.cache_info().misses
        exotic.proj.fast_coefficients(psi, phi, grid)
        return cache.cache_info().misses - before

    cache.cache_clear()
    assert misses(psi, phi, grid) == 1
    rebuilt = DiscretizedState(psi.samples.copy(), StateGrid(g.offsets, g.spacings, g.counts))
    assert misses(rebuilt, phi, grid) == 0
    assert misses(DiscretizedState(psi.samples, other_grid),
                  DiscretizedState(phi.samples, other_grid), grid) == 1
    assert misses(psi, phi, other_scales) == 1
    assert misses(real, phi, grid) == 1
    assert misses(DiscretizedState(real.samples.view(np.int64), g), phi, grid) == 1


def test_warm_affine_calls_skip_psi_fourier_transform(affine, monkeypatch):
    """The affine (Fourier) table keys its dictionary by the raw psi: a cold
    analyze transforms psi once, on the cache miss, and a warm analyze and
    synthesize transform it not at all, with the cold calls' bits."""
    from groupwave import representations

    psi, phi = affine.states["morlet"], affine.states["signal"]
    on_psi, transform = [], representations.fourier_plancherel
    monkeypatch.setattr(representations, "fourier_plancherel", lambda state: on_psi.append(
        state.samples.tobytes() == psi.samples.tobytes()) or transform(state))
    representations._dictionary_block.cache_clear()
    cold = analyze(affine.rep, psi, phi, affine.x_grid, dm_norm=1.0)
    cold_back = synthesize(cold, affine.rep, psi)
    assert on_psi.count(True) == representations._dictionary_block.cache_info().misses == 1
    on_psi.clear()
    warm = analyze(affine.rep, psi, phi, affine.x_grid, dm_norm=1.0)
    warm_back = synthesize(warm, affine.rep, psi)
    assert on_psi == [False]  # phi only
    assert warm.coefficients.tobytes() == cold.coefficients.tobytes()
    assert warm_back.samples.tobytes() == cold_back.samples.tobytes()


@pytest.mark.parametrize("config", ["affine", "exotic"])
def test_synthesize_reuses_the_analyzed_dictionary(config, affine, exotic, monkeypatch):
    """After analyze, synthesize on the same (psi, grid) dilates nothing:
    both directions share the unfolded dictionary entry, and the result has
    the bits of a synthesize on a cold cache."""
    from groupwave import representations

    rep, psi, phi, grid = _affine_and_exotic_case(config, affine, exotic)
    representations._dictionary_block.cache_clear()
    res = analyze(rep, psi, phi, grid, dm_norm=1.0)
    representations._dictionary_block.cache_clear()
    cold = synthesize(res, rep, psi)
    representations._dictionary_block.cache_clear()
    analyze(rep, psi, phi, grid, dm_norm=1.0)
    calls, resample = [], representations.axis_resample
    monkeypatch.setattr(representations, "axis_resample",
                        lambda *args: calls.append(args) or resample(*args))
    warm = synthesize(res, rep, psi)
    assert calls == []
    assert warm.samples.tobytes() == cold.samples.tobytes()


def test_dictionary_entries_read_only_and_chunk_bounded(gabor, affine, exotic, monkeypatch):
    """Every entry of the bundled grids' analyses is read-only and holds at
    most ``CHUNK`` complex samples; Gabor's undilated psi is one entry."""
    from groupwave.representations import CHUNK

    entries = _dictionary_entries(monkeypatch)
    analyze(gabor.proj, gabor.states["gauss"], gabor.states["mix"], gabor.x_grid)
    assert len(entries) == 1 and entries[0].shape == (1,) + gabor.state_grid.counts
    analyze(affine.rep, affine.states["morlet"], affine.states["signal"], affine.x_grid)
    analyze(exotic.proj, exotic.states["psi"], exotic.states["phi"], exotic.x_grid)
    assert len(entries) == 3
    for entry in entries:
        assert entry.size <= CHUNK and entry.dtype == complex
        with pytest.raises(ValueError):
            entry[...] = 0.0


def test_two_block_ladder_warm_and_cold_bits(affine_n2, monkeypatch):
    """The affine n = 2 ladder of 500 scales is two dictionary blocks, one
    cache entry each, and warm calls give the cold calls' bits."""
    rep, psi, phi, _ = affine_n2
    grid = haar_grid(rep.group, [(-2, 2), (-2, 2), (0.3, 3.0)], [2, 2, 500], log_axes=(2,))
    entries = _dictionary_entries(monkeypatch)
    cold = rep.fast_coefficients(psi, phi, grid)
    cold_back = rep.fast_adjoint(cold, grid, psi)
    assert [len(e) for e in entries] == [256, 244, 256, 244]
    assert entries[2] is entries[0] and entries[3] is entries[1]
    warm = rep.fast_coefficients(psi, phi, grid)
    assert warm.tobytes() == cold.tobytes()
    assert rep.fast_adjoint(warm, grid, psi).samples.tobytes() == cold_back.samples.tobytes()


def _hand_built_spec(group, table, action):
    from groupwave.representations import UnitaryRepSpec

    return UnitaryRepSpec(group=group, action=action, label="hand-built", table=table,
                          fast_coefficients=table.coefficients, fast_adjoint=table.adjoint)


def _engine_against_oracle(rep, psi, phi, grid, per_node):
    fast = rep.fast_coefficients(psi, phi, grid)
    assert np.max(np.abs(fast - per_node.coefficients(rep, psi, phi, grid))) < 1e-11
    back = rep.fast_adjoint(fast, grid, psi).samples
    assert np.max(np.abs(back - per_node.adjoint(rep, fast, grid, psi).samples)) < 1e-12


def test_engine_translation_and_dilation_on_one_state_axis(per_node):
    """U(p, q, a) f(x) = e^{i p x} a^{1/2} f(a (x + 0.8 q)): the translated
    state axis is also dilated and modulated, a table no factory builds."""
    from groupwave.groups import haar_grid, make_affine
    from groupwave.representations import ActionTable, AxisRole
    from groupwave.states import axis_resample, centered_grid

    table = ActionTable((AxisRole("modulate", (0,)), AxisRole("translate", (0,), -0.8),
                         AxisRole("dilate", (0,))), state_lower=(np.nan,))

    def action(g, f):
        p, q, a = g
        out = axis_resample(f, 0, a)
        out = translate(out.with_samples(out.samples * np.sqrt(a)), [-0.8 * q])
        return modulate(out, [p])

    rep = _hand_built_spec(make_affine(2), table, action)
    state_grid = centered_grid(8.0, 64)
    psi = gaussian_state(state_grid, momentum=0.5)
    phi = gaussian_state(state_grid, center=0.3, momentum=-0.4, width=1.2)
    grid = haar_grid(rep.group, [(-3, 3), (-2, 2), (0.6, 1.6)], [5, 4, 3], log_axes=(2,))
    _engine_against_oracle(rep, psi, phi, grid, per_node)


def test_engine_translated_axis_without_modulation(per_node):
    """U(q, t, p) f(x) = e^{i (1.5 t + p x_0)} f(x_0, x_1 - 0.6 q, x_2): state
    axis 1 is translated but not modulated, axis 0 modulated but not
    translated, and axis 2 untouched."""
    from groupwave.groups import haar_grid, make_polarized_wh
    from groupwave.representations import ActionTable, AxisRole
    from groupwave.states import centered_grid, product_grid

    table = ActionTable((AxisRole("translate", (1,), 0.6), AxisRole("phase", coef=1.5),
                         AxisRole("modulate", (0,))), state_lower=(np.nan,) * 3)

    def action(g, f):
        q, t, p = g
        return modulate(translate(f, [0.0, 0.6 * q, 0.0]), [p, 0.0, 0.0], extra_phase=1.5 * t)

    rep = _hand_built_spec(make_polarized_wh(1), table, action)
    state_grid = product_grid(centered_grid(6.0, 16), centered_grid(6.0, 24), centered_grid(4.0, 8))
    psi = gaussian_state(state_grid, momentum=[0.5, 0.0, 0.0])
    phi = gaussian_state(state_grid, center=[0.2, -0.4, 0.1], momentum=[0.0, 0.3, -0.2])
    grid = haar_grid(rep.group, [(-2, 2), (-1, 1), (-2, 2)], [5, 3, 4])
    _engine_against_oracle(rep, psi, phi, grid, per_node)


def _small_blocks(config, exotic, gabor_n2, monkeypatch):
    """(rep, psi, phi, grid) with ``CHUNK`` at 1024 samples: each dilation
    block holds one scale and each block of the lead modulation axis one
    node, so the exotic case streams 20 blocks and the wh n = 2 case 4 (the
    bundled grids run one dilation block)."""
    from groupwave import representations
    from groupwave.groups import haar_grid

    monkeypatch.setattr(representations, "CHUNK", 1024)
    if config == "exotic":
        grid = haar_grid(exotic.x_group, [(-3, 3), (-2, 2), (-3, 3), (0.5, 2.0)], [5, 4, 5, 4],
                         log_axes=(3,))
        return exotic.proj, exotic.states["psi"], exotic.states["phi"], grid
    psi = gaussian_state(gabor_n2.state_grid)
    phi = gaussian_state(gabor_n2.state_grid, center=[0.4, -0.3], momentum=[0.5, 0.2])
    return gabor_n2.proj, psi, phi, gabor_n2.x_grid


@pytest.mark.parametrize("config", ["exotic", "gabor_n2"])
def test_engine_streams_small_blocks(config, exotic, gabor_n2, monkeypatch, per_node):
    """The streamed engine still matches the oracle with small blocks."""
    _engine_against_oracle(*_small_blocks(config, exotic, gabor_n2, monkeypatch), per_node)


@pytest.mark.parametrize("config", ["exotic", "gabor_n2"])
def test_engine_blocks_on_threads_match_inline(config, exotic, gabor_n2, monkeypatch):
    """Blocks run on two threads give the inline loop's bits: each
    coefficient block writes its own slice of the result, and the calling
    thread sums the adjoint's block terms in block order."""
    import threading

    from groupwave import representations

    rep, psi, phi, grid = _small_blocks(config, exotic, gabor_n2, monkeypatch)
    contract, threads = representations._contract, set()

    def recorded(*args):
        threads.add(threading.current_thread())
        return contract(*args)

    monkeypatch.setattr(representations, "_contract", recorded)
    runs = []
    for workers in (1, 2):
        monkeypatch.setattr(representations, "_workers", lambda: workers)
        threads.clear()
        c = rep.fast_coefficients(psi, phi, grid)
        runs.append((c, rep.fast_adjoint(c, grid, psi).samples, set(threads)))
    assert runs[0][2] == {threading.main_thread()}
    assert threading.main_thread() not in runs[1][2]
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])


def test_gauged_adjoint_blocks_match_whole_array_gauge(exotic, gabor_n2, monkeypatch):
    """The twisted section's adjoint, gauged block by block as the calling
    thread draws the blocks, inline and on two threads, gives the bits of
    the whole-array formula: coeffs w times e^{i gamma} over the grid's
    nodes, fed to the ungauged table with unit weights."""
    import copy
    from dataclasses import replace

    from groupwave import representations

    _, psi, phi, grid = _small_blocks("exotic", exotic, gabor_n2, monkeypatch)
    table = projective_from_section(exotic.rep, exotic.section_prime).table
    c = table.coefficients(psi, phi, grid)
    unit = copy.copy(grid)
    object.__setattr__(unit, "slab_weights", lambda at: 1.0)
    cw = c * grid.weights * np.exp(1j * table.gauge(grid.nodes))
    expected = replace(table, gauge=None).adjoint(cw, unit, psi).samples
    for workers in (1, 2):
        monkeypatch.setattr(representations, "_workers", lambda: workers)
        assert np.array_equal(table.adjoint(c, grid, psi).samples, expected)


@pytest.mark.parametrize("config", ["exotic", "gabor_n2"])
def test_engine_draws_blocks_at_most_workers_plus_one_ahead(config, exotic, gabor_n2,
                                                           monkeypatch):
    """On threads the dictionary is drawn at most workers + 1 blocks ahead
    of the results used, so in-flight blocks, not the whole dictionary,
    are held at once."""
    from groupwave import representations

    rep, psi, phi, grid = _small_blocks(config, exotic, gabor_n2, monkeypatch)
    monkeypatch.setattr(representations, "_workers", lambda: 2)
    dictionary, blockwise = representations.ActionTable._dictionary, representations._blockwise
    drawn, used, ahead = [0], [0], []

    def counted_dictionary(*args, **kwargs):
        for block in dictionary(*args, **kwargs):
            drawn[0] += 1
            ahead.append(drawn[0] - used[0])
            yield block

    def counted_blockwise(task, blocks):
        for result in blockwise(task, blocks):
            used[0] += 1
            yield result

    monkeypatch.setattr(representations.ActionTable, "_dictionary", counted_dictionary)
    monkeypatch.setattr(representations, "_blockwise", counted_blockwise)
    c = rep.fast_coefficients(psi, phi, grid)
    for call in (lambda: rep.fast_coefficients(psi, phi, grid), lambda: rep.fast_adjoint(c, grid, psi)):
        drawn[0] = used[0] = 0
        ahead.clear()
        call()
        assert drawn[0] == used[0] >= 4 and max(ahead) == 3, ahead


def test_engine_task_error_propagates_and_next_call_works(exotic, gabor_n2, monkeypatch):
    """An exception in a block run on a thread leaves ``coefficients``, and
    the next call gives the usual bits."""
    import itertools

    from groupwave import representations

    rep, psi, phi, grid = _small_blocks("exotic", exotic, gabor_n2, monkeypatch)
    monkeypatch.setattr(representations, "_workers", lambda: 2)
    expected = rep.fast_coefficients(psi, phi, grid)
    contract, calls = representations._contract, itertools.count()

    def failing(*args):
        if next(calls) == 5:
            raise RuntimeError("block task failed")
        return contract(*args)

    monkeypatch.setattr(representations, "_contract", failing)
    with pytest.raises(RuntimeError, match="block task failed"):
        rep.fast_coefficients(psi, phi, grid)
    monkeypatch.setattr(representations, "_contract", contract)
    assert np.array_equal(rep.fast_coefficients(psi, phi, grid), expected)


@pytest.mark.skipif(sys.platform == "win32", reason="no fork start method")
def test_engine_threads_in_forked_child(exotic, gabor_n2, monkeypatch):
    """A child forked from a process that has run blocks on threads
    finishes a multi-block call on threads of its own and returns the
    parent's bits (no pool outlives a call, so the child inherits none)."""
    import multiprocessing
    import queue

    from groupwave import representations

    rep, psi, phi, grid = _small_blocks("exotic", exotic, gabor_n2, monkeypatch)
    monkeypatch.setattr(representations, "_workers", lambda: 2)
    expected = rep.fast_coefficients(psi, phi, grid)
    ctx = multiprocessing.get_context("fork")
    results = ctx.Queue()
    child = ctx.Process(target=lambda: results.put(rep.fast_coefficients(psi, phi, grid)))
    child.start()
    try:
        got = results.get(timeout=60)
    except queue.Empty:
        got = None
    finally:
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    assert got is not None, "the forked child did not finish its call"
    assert child.exitcode == 0
    assert np.array_equal(got, expected)


def test_action_table_rejects_two_translations_of_one_axis():
    from groupwave.representations import ActionTable, AxisRole

    with pytest.raises(ValueError, match="one translation"):
        ActionTable((AxisRole("translate", (0,), 1.0), AxisRole("translate", (0,), 2.0)),
                    state_lower=(np.nan,))


def test_action_table_declares_its_state_space(exotic):
    """A role acts on declared state axes only, the declaration has no "any
    grid" default, and the restricted and lifted tables keep the rep's."""
    from groupwave.representations import ActionTable, AxisRole

    for lower in ((), (np.nan,)):
        with pytest.raises(ValueError, match="outside the declared state space"):
            ActionTable((AxisRole("modulate", (0,)), AxisRole("translate", (1,), 1.0)),
                        state_lower=lower)
    with pytest.raises(TypeError, match="state_lower"):
        ActionTable((AxisRole("modulate", (0,)),))
    for spec in (wh_rep(1.0, n=2), affine_rep(2)):
        np.testing.assert_array_equal(spec.table.state_lower, [np.nan] * 2)
    np.testing.assert_array_equal(exotic.rep.table.state_lower, [0.0, np.nan])
    s_tw = projective_from_section(exotic.rep, exotic.section_prime)
    for spec in (exotic.proj, s_tw, lift_to_extension(s_tw)):
        np.testing.assert_array_equal(spec.table.state_lower, [0.0, np.nan])


def test_exotic_analyze_translates_in_k_space(exotic, monkeypatch):
    """The engine applies translations as phases on Fourier samples, so a
    bundled exotic analyze calls no ``states.translate`` (the engine's
    dictionary used to make 24 calls translating 6.3 M samples).  Traced
    peaks, with warm plan caches: the engine call 65.8 MB against the
    former engine's 69.1 MB, and the whole analyze, which sums its energy
    and shell fraction over axis blocks, the same 65.8 MB (86.3 MB when it
    held |c|^2 w of the grid)."""
    import tracemalloc

    from groupwave import representations

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return translate(*args, **kwargs)

    monkeypatch.setattr(representations, "translate", counted)
    rep, psi, phi, grid = exotic.proj, exotic.states["psi"], exotic.states["phi"], exotic.x_grid
    peaks = []
    for run in (lambda: rep.fast_coefficients(psi, phi, grid), lambda: analyze(rep, psi, phi, grid)):
        run()
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert calls == []
    assert peaks[0] < 67e6 and peaks[1] < 70e6, peaks


@pytest.mark.parametrize("section", ["s0", "s_tw"])
def test_exotic_adjoint_memory(section, exotic):
    """The full-grid adjoint takes each block's coeffs w, gauge phase
    applied, as it draws the block: traced peaks of 16 MB inline and 22 MB
    (s0) or 25 MB (s_tw) on two threads, with warm plan caches (63.2 MB when
    coeffs w of the whole grid was held)."""
    import tracemalloc

    rep = exotic.proj if section == "s0" else projective_from_section(exotic.rep,
                                                                      exotic.section_prime)
    psi, grid = exotic.states["psi"], exotic.x_grid
    c = rep.fast_coefficients(psi, exotic.states["phi"], grid)
    rep.fast_adjoint(c, grid, psi)
    tracemalloc.start()
    try:
        rep.fast_adjoint(c, grid, psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6, peak
