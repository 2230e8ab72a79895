import numpy as np
import pytest

from groupwave.groups import (
    associativity_defect,
    haar_grid,
    identity_defect,
    inverse_defect,
    make_vector_group,
    random_chart_points,
)
from groupwave.induced import R_chi_s
from groupwave.measures import gamma_s_inv
from groupwave.multipliers import (
    K_MEMBERSHIP_TOL,
    InconsistentSectionError,
    Multiplier,
    RelCentralSubgroup,
    central_extension,
    check_cocycle,
    check_normalization,
    conjugate,
    kappa_from_section,
    multiplier_from_section,
    phase_distance,
    similar,
    wrap_phase,
)
from oracles import membership_defect as oracle_membership_defect
from oracles import section_cocycle, trivial_multiplier


def test_wrap_phase_branch_cuts():
    assert phase_distance(np.pi - 1e-9, -np.pi + 1e-9) < 3e-9
    assert wrap_phase(3 * np.pi) == pytest.approx(np.pi, abs=1e-12)


def test_wh_kappa_closed_form(gabor):
    x1 = np.array([1.5, 2.0])
    x2 = np.array([3.0, -1.0])
    kappa = kappa_from_section(gabor.section, x1, x2)
    assert kappa == pytest.approx([-6.0], abs=1e-14)  # (-q1 . p2, 0, 0)
    e = np.zeros(2)
    assert np.max(np.abs(kappa_from_section(gabor.section, e, x2))) < 1e-14


def test_wh_multiplier_value(gabor):
    m = gabor.proj.multiplier
    x1, x2 = np.array([1.5, 2.0]), np.array([3.0, -1.0])
    # m = e^{-i kc q1.p2}; kc = -1 here
    assert float(m.phase(x1, x2)) == pytest.approx(6.0, abs=1e-14)
    assert float(m.phase(np.zeros(2), x2)) == 0.0


def test_multiplier_invariants(gabor, rng):
    m = gabor.proj.multiplier
    pts = random_chart_points(gabor.x_group, rng, 400)
    assert check_normalization(m, pts) < 1e-12
    assert check_cocycle(m, 400, rng) < 1e-12


def test_trivial_and_corrupted_multiplier(gabor, rng):
    triv = trivial_multiplier(gabor.x_group)
    assert check_cocycle(triv, 100, rng) == 0.0

    base = gabor.proj.multiplier

    def corrupted_phase(x1, x2):
        x1 = np.asarray(x1, float)
        x2 = np.asarray(x2, float)
        bump = 0.1 * (
            (np.abs(x1[..., 0] - 1.0) < 0.5) & (np.abs(x2[..., 1] + 1.0) < 0.5)
        )
        return base.phase(x1, x2) + bump

    bad = Multiplier(corrupted_phase, gabor.x_group, "corrupted")
    # the corrupted cell is 1/36 of the [-3, 3]^2 sample box in each
    # argument pair, so 400 draws pass through it
    assert check_cocycle(bad, 400, rng) >= 0.09
    # no generator: no silent default draw
    with pytest.raises(TypeError, match="rng"):
        check_cocycle(bad, 400)


def test_sections_similar(gabor, rng):
    m = gabor.proj.multiplier
    m2 = multiplier_from_section(gabor.section_prime)
    kc = gabor.k_check
    beta = lambda x: kc * 0.5 * x[..., 0] * x[..., 1]
    assert similar(m2, m, beta, 400, rng) < 1e-12
    # trivial similarity
    assert similar(m, m, lambda x: np.zeros(x.shape[:-1]), 100, rng) < 1e-15
    # unrelated multipliers are far from similar
    assert similar(m, trivial_multiplier(gabor.x_group), beta, 400, rng) > 0.5


def test_conjugate_multiplier(gabor, rng):
    m = gabor.proj.multiplier
    mc = conjugate(m)
    xs = random_chart_points(gabor.x_group, rng, 64)
    ys = random_chart_points(gabor.x_group, rng, 64)
    assert np.max(np.abs(mc.phase(xs, ys) + m.phase(xs, ys))) < 1e-15
    assert check_cocycle(mc, 200, rng) < 1e-12
    mcc = conjugate(mc)
    assert np.max(phase_distance(mcc.phase(xs, ys), m.phase(xs, ys))) == 0.0


def test_central_extension_group_axioms(gabor, rng):
    ext = central_extension(gabor.x_group, conjugate(gabor.proj.multiplier))
    pts = random_chart_points(ext, rng, 1000)
    g, h, l = (random_chart_points(ext, rng, 1000) for _ in range(3))
    assert identity_defect(ext, pts) < 1e-12
    assert inverse_defect(ext, pts) < 1e-12
    assert associativity_defect(ext, g, h, l) < 1e-12
    # Haar and modular conventions
    assert float(ext.haar_density(pts[0])) == pytest.approx(
        float(gabor.x_group.haar_density(pts[0, 1:])) / (2 * np.pi)
    )
    assert float(ext.modular(pts[0])) == 1.0


def test_central_extension_trivial_is_direct_product(gabor, rng):
    ext = central_extension(gabor.x_group, trivial_multiplier(gabor.x_group))
    g = random_chart_points(ext, rng, 100)
    h = random_chart_points(ext, rng, 100)
    prod = ext.product(g, h)
    assert np.max(phase_distance(prod[:, 0], g[:, 0] + h[:, 0])) < 1e-12
    assert np.max(np.abs(prod[:, 1:] - (g[:, 1:] + h[:, 1:]))) < 1e-14


def test_similar_extensions_isomorphic(gabor, rng):
    """(theta, x) |-> (theta + beta(x), x) intertwines the extension products
    built from similar multipliers."""
    m = gabor.proj.multiplier
    m2 = multiplier_from_section(gabor.section_prime)
    kc = gabor.k_check
    beta = lambda x: kc * 0.5 * x[..., 0] * x[..., 1]
    ext_m = central_extension(gabor.x_group, m)
    ext_m2 = central_extension(gabor.x_group, m2)

    # phi_m2 - phi_m = beta(x1 x2) - beta(x1) - beta(x2), so the phase shift
    # intertwining the products is -beta
    def iso(g):
        out = g.copy()
        out[..., 0] = wrap_phase(g[..., 0] - beta(g[..., 1:]))
        return out

    g = random_chart_points(ext_m2, rng, 300)
    h = random_chart_points(ext_m2, rng, 300)
    lhs = iso(ext_m2.product(g, h))
    rhs = ext_m.product(iso(g), iso(h))
    assert np.max(ext_m.distance(lhs, rhs)) < 1e-12


def test_section_cocycle_membership(gabor, exotic, rng):
    g = random_chart_points(gabor.group, rng, 200)
    x = random_chart_points(gabor.x_group, rng, 200)
    cs = section_cocycle(gabor.section, g, x)  # raises if not in K
    assert cs.shape == (200, 1)
    e_case = section_cocycle(gabor.section, gabor.group.identity, x)
    assert np.max(np.abs(e_case)) < 1e-12

    g7 = random_chart_points(exotic.group, rng, 100)
    x4 = random_chart_points(exotic.x_group, rng, 100)
    cs = section_cocycle(exotic.section, g7, x4)
    assert cs.shape == (100, 3)


def test_exotic_kappa_membership_and_value(exotic, rng):
    x1 = random_chart_points(exotic.x_group, rng, 100)
    x2 = random_chart_points(exotic.x_group, rng, 100)
    kappa = kappa_from_section(exotic.section, x1, x2)
    # kappa_s = (-q1 . p2, 0, 0) in the (t, s, r) chart
    assert np.max(np.abs(kappa[:, 0] + x1[:, 1] * x2[:, 0])) < 1e-12
    assert np.max(np.abs(kappa[:, 1:])) < 1e-12
    m = exotic.proj.multiplier
    assert float(m.phase(x1[0], x2[0])) == pytest.approx(
        -x1[0, 1] * x2[0, 0], abs=1e-12
    )
    assert check_cocycle(m, 300, rng) < 1e-12


def test_inconsistent_section_detected(gabor):
    """Every section is s0 times a K-offset, so only a subgroup declared on
    non-normal axes can leave K: with K on the p axis of the polarized WH
    chart, s(x)^{-1} g = (-q p, p, 0) has a k coordinate."""
    sub = RelCentralSubgroup(
        ambient=gabor.group,
        quotient=make_vector_group(2, "wh_kq_axes"),
        k_axes=(1,),
        x_axes=(0, 2),
        chi_phase=lambda k: np.asarray(k, dtype=float)[..., 0],
    )
    g = np.array([0.5, 1.5, 2.0])
    with pytest.raises(InconsistentSectionError, match="leaves K by 3.000e"):
        gamma_s_inv(sub.coordinate_section, g)
    grid = haar_grid(sub.quotient, [(-2, 2)] * 2, [4] * 2)
    with pytest.raises(InconsistentSectionError):
        R_chi_s(sub.coordinate_section, g, np.ones(grid.resolution, dtype=complex), grid)


def _angle_x_subgroup(gabor):
    """K on the p axis of the central extension of the Gabor quotient, so
    the angle axis theta is an X axis."""
    ext = central_extension(gabor.x_group, gabor.proj.multiplier)
    return RelCentralSubgroup(
        ambient=ext,
        quotient=make_vector_group(2, "ext_theta_q_axes"),
        k_axes=(1,),
        x_axes=(0, 2),
        chi_phase=lambda k: np.asarray(k, dtype=float)[..., 0],
    )


def test_membership_defect_matches_round_trip(gabor, exotic, rng):
    """The direct guard (X coordinates against the identity's) equals the
    round trip through K_embed(K_project(g)) bit for bit, on and off K."""
    for sub in (gabor.subgroup, exotic.subgroup, _angle_x_subgroup(gabor)):
        G = sub.ambient
        on_k = sub.K_embed(random_chart_points(sub.k_group, rng, 200))
        near_k = on_k.copy()
        near_k[..., list(sub.x_axes)] += 1e-11 * rng.standard_normal((200, len(sub.x_axes)))
        for g in (on_k, near_k, random_chart_points(G, rng, 200), G.identity):
            assert sub.membership_defect(g) == oracle_membership_defect(sub, g)
    sub = _angle_x_subgroup(gabor)
    on_k = sub.K_embed(random_chart_points(sub.k_group, rng, 50))
    for theta in (2 * np.pi, -4 * np.pi, 2 * np.pi - 1e-3, -2 * np.pi + 1e-3):
        g = on_k.copy()
        g[:, 0] = theta
        assert sub.membership_defect(g) == oracle_membership_defect(sub, g)
        assert sub.membership_defect(g) < 1.1e-3


def test_extract_k_raises_beyond_membership_tolerance(gabor, exotic):
    for sub in (gabor.subgroup, exotic.subgroup, _angle_x_subgroup(gabor)):
        g = sub.K_embed(np.full(len(sub.k_axes), 0.3))
        assert np.array_equal(sub.extract_k(g), np.full(len(sub.k_axes), 0.3))
        for defect in (0.5 * K_MEMBERSHIP_TOL, 2.0 * K_MEMBERSHIP_TOL):
            off = g.copy()
            off[sub.x_axes[-1]] += defect
            if defect < K_MEMBERSHIP_TOL:
                sub.extract_k(off)
            else:
                with pytest.raises(InconsistentSectionError, match="leaves K by 2.000e-10"):
                    sub.extract_k(off)


def test_subgroup_axes_must_split_the_chart(gabor):
    for k_axes, x_axes in (((0,), (1,)), ((0, 1), (1, 2)), ((0,), (1, 2, 3))):
        with pytest.raises(ValueError, match="must split the 3 chart axes"):
            RelCentralSubgroup(ambient=gabor.group, quotient=gabor.x_group, k_axes=k_axes,
                               x_axes=x_axes, chi_phase=lambda k: k[..., 0])


def test_multiplier_from_section_passes_cocycle(gabor, exotic, rng):
    for setup in (gabor, exotic):
        for section in (setup.section, setup.section_prime):
            m = multiplier_from_section(section)
            assert check_cocycle(m, 200, rng) < 1e-12


@pytest.mark.parametrize("which", ["gabor", "exotic"])
def test_any_two_sections_similar_via_upsilon(which, gabor, exotic, rng):
    """m_s and m_s' are similar with beta = chi o upsilon, upsilon(x) =
    s(x)^{-1} s'(x), computed directly from the sections."""
    setup = gabor if which == "gabor" else exotic
    s, sp = setup.section, setup.section_prime
    G = setup.group

    def beta(x):
        ups = G.product(G.inverse(s.map(x)), sp.map(x))
        return s.subgroup.chi_phase(s.subgroup.extract_k(ups, context="upsilon"))

    m = multiplier_from_section(s)
    mp = multiplier_from_section(sp)
    assert similar(mp, m, beta, 200, rng) < 1e-12


# ---------------------------------------------------------------------------
# axis declarations of the bundled subgroups against hand-written charts
# ---------------------------------------------------------------------------


def _gabor_charts(n):
    """The coordinate maps of the Gabor configuration, written out by hand."""
    dim = 2 * n + 1

    def k_embed(k):
        k = np.asarray(k, dtype=float)
        out = np.zeros(k.shape[:-1] + (dim,))
        out[..., 0] = k[..., 0]
        return out

    def k_project(g):
        return np.asarray(g, dtype=float)[..., :1]

    def project(g):
        return np.asarray(g, dtype=float)[..., 1:]

    def smap(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (dim,))
        out[..., 1:] = x
        return out

    return k_embed, k_project, project, smap


def _gabor_s_sym(n):
    """The symmetric Gabor section s_sym, written out by hand."""
    smap = _gabor_charts(n)[3]

    def s_sym(x):
        x = np.asarray(x, dtype=float)
        out = smap(x)
        out[..., 0] = 0.5 * np.sum(x[..., :n] * x[..., n:], axis=-1)
        return out

    return s_sym


def _exotic_s_tw():
    """The twisted exotic section s_tw, written out by hand."""
    smap = _exotic_charts()[3]

    def s_tw(x):
        x = np.asarray(x, dtype=float)
        out = smap(x)
        out[..., 0] = 0.5 * x[..., 0] * x[..., 1]
        return out

    return s_tw


def _exotic_charts():
    """The coordinate maps of the exotic configuration, written out by hand:
    chart (t, s, b, p, q, r, a), X chart (p, q, b, a), K chart (t, s, r)."""

    def k_embed(k):
        k = np.asarray(k, dtype=float)
        out = np.zeros(k.shape[:-1] + (7,))
        out[..., 0] = k[..., 0]
        out[..., 1] = k[..., 1]
        out[..., 5] = k[..., 2]
        out[..., 6] = 1.0
        return out

    def k_project(g):
        g = np.asarray(g, dtype=float)
        return np.stack([g[..., 0], g[..., 1], g[..., 5]], axis=-1)

    def project(g):
        g = np.asarray(g, dtype=float)
        return np.stack([g[..., 3], g[..., 4], g[..., 2], g[..., 6]], axis=-1)

    def smap(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (7,))
        out[..., 2] = x[..., 2]
        out[..., 3] = x[..., 0]
        out[..., 4] = x[..., 1]
        out[..., 6] = x[..., 3]
        return out

    return k_embed, k_project, project, smap


@pytest.mark.parametrize("which", ["gabor", "gabor_n2", "exotic"])
def test_axis_declarations_match_hand_written_charts(which, gabor, gabor_n2, exotic, rng):
    setup = {"gabor": gabor, "gabor_n2": gabor_n2, "exotic": exotic}[which]
    charts = _exotic_charts() if which == "exotic" else _gabor_charts(setup.n)
    k_embed, k_project, project, smap = charts
    sub = setup.subgroup
    g = random_chart_points(sub.ambient, rng, 200)
    k = random_chart_points(sub.k_group, rng, 200)
    x = random_chart_points(sub.quotient, rng, 200)
    assert np.array_equal(sub.K_embed(k), k_embed(k))
    assert np.array_equal(sub.K_project(g), k_project(g))
    assert np.array_equal(sub.project(g), project(g))
    assert np.array_equal(sub.coordinate_section.map(x), smap(x))
    assert setup.section is sub.coordinate_section
    assert setup.proj.table.gauge is None


@pytest.mark.parametrize("which", ["gabor", "gabor_n2", "exotic"])
def test_twisted_section_offsets_match_hand_written_maps(which, gabor, gabor_n2, exotic, rng):
    """s0(x) K_embed(k(x)) reproduces the hand-written twisted sections bit for
    bit."""
    setup = {"gabor": gabor, "gabor_n2": gabor_n2, "exotic": exotic}[which]
    hand = _exotic_s_tw() if which == "exotic" else _gabor_s_sym(setup.n)
    x = random_chart_points(setup.x_group, rng, 200)
    assert np.array_equal(setup.section_prime.map(x), hand(x))
    assert np.array_equal(setup.section_prime.map(x[0]), hand(x[0]))
    assert setup.section.offset is None


# K of each bundled configuration in its own chart, as once declared by hand
HAND_BUILT_K = {"gabor": make_vector_group(1, "wh_center_n1", density=1.0),
                "exotic": make_vector_group(3, "exotic_k_n1", density=1.0)}


@pytest.mark.parametrize("name", sorted(HAND_BUILT_K))
def test_derived_k_group_is_the_vector_group_of_its_axes(name, request, rng):
    """``k_group`` rests on K's coordinates adding under G's product; its
    grids weigh exactly as those of the hand-built K groups."""
    sub = request.getfixturevalue(name).subgroup
    G, m = sub.ambient, len(sub.k_axes)
    k1, k2 = rng.uniform(-3, 3, (2, 200, m))
    assert np.array_equal(G.product(sub.K_embed(k1), sub.K_embed(k2)), sub.K_embed(k1 + k2))
    assert np.array_equal(G.inverse(sub.K_embed(k1)), sub.K_embed(-k1))
    assert sub.k_group.dim == m
    box, res = [(-7, 7)] * m, [12] * m
    assert np.array_equal(haar_grid(sub.k_group, box, res).weights,
                          haar_grid(HAND_BUILT_K[name], box, res).weights)
