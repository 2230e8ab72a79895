"""Property tests for the pure algebraic layers (hypothesis) and for the
dimension-generic paths that the bundled n = 1 configurations do not hit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupwave.groups import (
    haar_grid,
    make_affine,
    make_exotic,
    make_polarized_wh,
)
from groupwave.multipliers import phase_distance, wrap_phase
from groupwave.representations import coefficient, wh_rep
from groupwave.states import (
    DiscretizedState,
    bump_profile,
    centered_grid,
    gaussian_state,
    norm,
)

finite = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
coords = st.floats(
    min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False
)
scales = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)


@given(finite)
def test_wrap_phase_range_and_fixed_point(theta):
    w = float(wrap_phase(theta))
    assert -np.pi <= w <= np.pi
    assert abs(np.exp(1j * theta) - np.exp(1j * w)) < 1e-12


@given(finite, finite)
def test_phase_distance_symmetric_and_bounded(a, b):
    d = float(phase_distance(a, b))
    assert 0.0 <= d <= np.pi + 1e-12
    assert d == pytest.approx(float(phase_distance(b, a)), abs=1e-12)
    assert float(phase_distance(a, a)) == 0.0


@settings(max_examples=30)
@given(coords, coords, coords, coords, coords, coords)
def test_polarized_wh_associativity_property(k1, p1, q1, k2, p2, q2):
    G = make_polarized_wh(1)
    g = np.array([k1, p1, q1])
    h = np.array([k2, p2, q2])
    l = np.array([q2, k1, p2])
    lhs = G.product(G.product(g, h), l)
    rhs = G.product(g, G.product(h, l))
    assert float(np.max(np.abs(lhs - rhs))) < 1e-10


@settings(max_examples=30)
@given(coords, scales, coords, scales)
def test_affine_group_axioms_property(b1, a1, b2, a2):
    G = make_affine(1)
    g = np.array([b1, a1])
    h = np.array([b2, a2])
    gh = G.product(g, h)
    assert gh[1] > 0
    back = G.product(G.inverse(g), gh)
    assert float(np.max(np.abs(back - h))) < 1e-9 * max(1.0, abs(b2), a2)
    # modular function is a homomorphism
    assert float(G.modular(gh)) == pytest.approx(
        float(G.modular(g)) * float(G.modular(h)), rel=1e-12
    )


@given(coords, st.floats(min_value=0.1, max_value=4.0, allow_nan=False))
def test_bump_profile_support_and_bounds(center, radius):
    x = np.linspace(center - 2 * radius, center + 2 * radius, 101)
    vals = bump_profile(x, center, radius)
    assert np.all(vals >= 0.0)
    assert np.all(vals <= 1.0 + 1e-12)
    outside = np.abs(x - center) >= radius
    assert np.all(vals[outside] == 0.0)
    assert float(bump_profile(np.array([center]), center, radius)[0]) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# dimension-generic paths (n = 2)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def wh2():
    grid = centered_grid(7.0, 56, dim=2)
    rep = wh_rep(-1.0, n=2)
    psi = gaussian_state(grid)
    return rep, grid, psi


def test_wh_n2_unitarity_and_central_action(wh2, rng):
    rep, grid, psi = wh2
    for _ in range(5):
        g = np.concatenate([rng.uniform(-2, 2, 1), rng.uniform(-1, 1, 4)])
        assert abs(norm(rep.act(g, psi)) - 1.0) < 1e-10
    k_el = np.array([0.6, 0, 0, 0, 0])
    out = rep.act(k_el, psi)
    assert np.max(np.abs(out.samples - np.exp(-0.6j) * psi.samples)) < 1e-13


def test_wh_n2_composition(wh2, rng):
    rep, grid, psi = wh2
    G = rep.group
    worst = 0.0
    for _ in range(5):
        g = np.concatenate([rng.uniform(-2, 2, 1), rng.uniform(-0.6, 0.6, 4)])
        h = np.concatenate([rng.uniform(-2, 2, 1), rng.uniform(-0.6, 0.6, 4)])
        lhs = rep.act(g, rep.act(h, psi))
        rhs = rep.act(G.product(g, h), psi)
        worst = max(
            worst, norm(DiscretizedState(lhs.samples - rhs.samples, grid))
        )
    assert worst < 1e-8


def test_wh_n2_coefficient_via_generic_analyze(wh2):
    from groupwave.transforms import analyze
    from groupwave.groups import make_wh_quotient
    from groupwave.multipliers import RelCentralSubgroup
    from groupwave.representations import projective_from_section

    rep, grid, psi = wh2
    x_group = make_wh_quotient(2)
    subgroup = RelCentralSubgroup(
        ambient=rep.group,
        quotient=x_group,
        k_axes=(0,),
        x_axes=(1, 2, 3, 4),
        chi_phase=lambda k: -np.asarray(k)[..., 0],
    )
    proj = projective_from_section(rep, subgroup.coordinate_section)
    x_grid = haar_grid(x_group, [(-5, 5)] * 4, [12] * 4)
    res = analyze(proj, psi, psi, x_grid)
    # closed form for unit gaussians generalizes: |c| = e^{-|x|^2/4}
    expected = np.exp(-np.sum(x_grid.nodes ** 2, axis=-1) / 4.0)
    assert np.max(np.abs(np.abs(res.coefficients) - expected)) < 1e-5
    # energy ratio approaches 1 under mu_X = dp dq / (2 pi)^2
    assert res.energy() == pytest.approx(1.0, rel=1e-3)


def test_exotic_group_axioms_n2(rng):
    G = make_exotic(2)
    assert G.dim == 10
    from groupwave.groups import (
        associativity_defect,
        identity_defect,
        inverse_defect,
        modular_homomorphism_defect,
        random_chart_points,
    )

    pts = random_chart_points(G, rng, 500)
    g, h, l = (random_chart_points(G, rng, 500) for _ in range(3))
    assert identity_defect(G, pts) < 1e-12
    assert inverse_defect(G, pts) < 1e-12
    assert associativity_defect(G, g, h, l) < 1e-12
    assert modular_homomorphism_defect(G, g, h) < 1e-12


def test_coefficient_conjugate_symmetry(wh2, rng):
    # <U(g) psi, phi> = conj(<U(g^{-1}) phi, psi>) * chi-free check via inner
    rep, grid, psi = wh2
    phi = gaussian_state(grid, center=[0.4, -0.3], momentum=[0.5, 0.2])
    g = np.array([0.3, 0.4, -0.2, 0.5, 0.1])
    lhs = coefficient(rep, psi, phi, g)
    rhs = np.conj(coefficient(rep, phi, psi, rep.group.inverse(g)))
    assert lhs == pytest.approx(rhs, abs=1e-10)
