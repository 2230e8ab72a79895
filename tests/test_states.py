import numpy as np
import pytest

from groupwave.states import (
    DiscretizedState,
    GridMismatchError,
    axis_resample,
    axis_resample_dense,
    centered_grid,
    dog_state,
    fourier_plancherel,
    frequency_grid,
    gaussian_state,
    halfline_grid,
    hermite_state,
    inner,
    inverse_fourier_plancherel,
    load_state_csv,
    modulate,
    morlet_state,
    norm,
    product_grid,
    product_state,
    save_state_csv,
    translate,
)

GRID = centered_grid(8.0, 256)


def test_inner_product_properties():
    f = hermite_state(GRID, 0)
    g = hermite_state(GRID, 1)
    assert inner(f, f).real == pytest.approx(1.0, abs=1e-10)
    assert abs(inner(f, f).imag) < 1e-15
    # linear in the second slot
    ig = inner(f, g.with_samples(1j * g.samples))
    assert ig == pytest.approx(1j * inner(f, g), abs=1e-14)
    # conjugate symmetric
    assert inner(f, g) == pytest.approx(np.conj(inner(g, f)), abs=1e-14)


def test_inner_grid_mismatch():
    f = gaussian_state(GRID)
    g = gaussian_state(centered_grid(8.0, 128))
    with pytest.raises(GridMismatchError):
        inner(f, g)


def test_fourier_unitary_and_gaussian_fixed_point():
    f = gaussian_state(GRID)
    F = fourier_plancherel(f)
    assert abs(norm(F) - 1.0) < 1e-12
    ref = gaussian_state(F.grid)
    assert np.max(np.abs(F.samples - ref.samples)) < 1e-8
    back = inverse_fourier_plancherel(F, GRID)
    assert np.max(np.abs(back.samples - f.samples)) < 1e-11


def test_parseval_random_state(rng):
    samples = rng.standard_normal(256) + 1j * rng.standard_normal(256)
    f = DiscretizedState(samples, GRID)
    assert abs(norm(fourier_plancherel(f)) - norm(f)) < 1e-12 * norm(f)


def test_translate_matches_analytic_gaussian():
    f = gaussian_state(GRID)
    t = translate(f, [0.7313])
    ref = gaussian_state(GRID, center=0.7313)
    assert np.max(np.abs(t.samples - ref.samples)) < 1e-10
    assert abs(norm(t) - 1.0) < 1e-14


def test_translate_composes_exactly():
    f = gaussian_state(GRID)
    ab = translate(translate(f, [0.3]), [0.4])
    once = translate(f, [0.7])
    assert np.max(np.abs(ab.samples - once.samples)) < 1e-13
    # a stack of shifts broadcasts against a stacked state
    stack = DiscretizedState(np.stack([f.samples, once.samples])[:, None], GRID)
    shifts = np.array([[0.7], [-0.2], [1.5]])
    both = translate(stack, shifts)
    assert both.samples.shape == (2, 3) + GRID.counts
    for i, g in enumerate((f, once)):
        for k, s in enumerate(shifts):
            assert np.max(np.abs(both.samples[i, k] - translate(g, s).samples)) < 1e-13


def _translate_all_axes(state, shift):
    """Reference: the FFT phase ramp over every state axis."""
    g = state.grid
    shift = np.atleast_1d(np.asarray(shift, dtype=float))
    axes = tuple(range(-g.dim, 0))
    lead = shift.shape[:-1] + (1,) * g.dim
    spec = np.fft.fftn(state.samples, axes=axes)
    for i in range(g.dim):
        w = 2.0 * np.pi * np.fft.fftfreq(g.counts[i], d=g.spacings[i])
        shape = [1] * g.dim
        shape[i] = g.counts[i]
        spec = spec * np.exp(-1j * w.reshape(shape) * shift[..., i].reshape(lead))
    return np.fft.ifftn(spec, axes=axes)


def test_translate_with_zero_shift_component_matches_all_axes(rng):
    grid = product_grid(halfline_grid(8.0, 48), centered_grid(6.0, 40))
    f = DiscretizedState(rng.standard_normal(grid.counts) + 1j * rng.standard_normal(grid.counts), grid)
    for shift in ([0.0, 0.37], [-0.61, 0.0], [0.0, 0.0]):
        out = translate(f, shift).samples
        assert np.max(np.abs(out - _translate_all_axes(f, shift))) < 1e-14
    # stacked states and shifts, axis 0 never shifted
    stack = DiscretizedState(np.stack([f.samples, 2j * f.samples])[:, None], grid)
    shifts = np.array([[0.0, 0.5], [0.0, -1.25], [0.0, 0.0]])
    out = translate(stack, shifts).samples
    assert out.shape == (2, 3) + grid.counts
    assert np.max(np.abs(out - _translate_all_axes(stack, shifts))) < 1e-14
    # no axis shifted: an exact copy, broadcast over the shifts, not a view
    still = translate(stack, np.zeros((3, 2))).samples
    assert still.shape == (2, 3) + grid.counts
    assert np.array_equal(still, np.broadcast_to(stack.samples, still.shape))
    still[0, 0, 0, 0] += 1.0
    assert stack.samples[0, 0, 0, 0] == f.samples[0, 0]


def test_axis_resample_matches_dense_reference(rng):
    f = DiscretizedState(
        rng.standard_normal(256) + 1j * rng.standard_normal(256), GRID
    )
    for scale, shift in [(1.7, 0.3), (0.31, -1.2), (2.0, 0.0), (1.0, 0.25)]:
        a = axis_resample(f, 0, scale, shift)
        b = axis_resample_dense(f, 0, scale, shift)
        assert np.max(np.abs(a.samples - b.samples)) < 1e-11


def test_axis_resample_2d(rng):
    grid2 = product_grid(halfline_grid(8.0, 64), centered_grid(8.0, 64))
    f = DiscretizedState(
        rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)), grid2
    )
    stack = DiscretizedState(np.stack([f.samples, 2j * f.samples]), grid2)
    for ax in (0, 1):
        a = axis_resample(f, ax, 1.3, 0.2)
        b = axis_resample_dense(f, ax, 1.3, 0.2)
        assert np.max(np.abs(a.samples - b.samples)) < 1e-11
        # a stacked state is resampled along the same grid axis
        both = axis_resample(stack, ax, 1.3, 0.2).samples
        assert np.max(np.abs(both - np.stack([a.samples, 2j * a.samples]))) < 1e-13


def test_axis_resample_scale_array_equals_scalar_calls(rng):
    f = DiscretizedState(rng.standard_normal(256) + 1j * rng.standard_normal(256), GRID)
    scales = np.array([0.31, 0.9, 1.0, 1.7, 2.6])
    for shift in (0.0, -1.2):
        batch = axis_resample(f, 0, scales, shift).samples
        ref = np.stack([axis_resample(f, 0, a, shift).samples for a in scales])
        assert batch.shape == (5, 256) and batch.tobytes() == ref.tobytes()


def test_axis_resample_scale_array_matches_dense(rng):
    grid2 = product_grid(halfline_grid(8.0, 64), centered_grid(8.0, 48))
    f = DiscretizedState(rng.standard_normal((64, 48)) + 1j * rng.standard_normal((64, 48)), grid2)
    stack = np.stack([f.samples, 2j * f.samples, -f.samples])
    # 1.3 and 2.5 map part of the box outside it, where the result reads zero
    scales = np.array([0.4, 1.3, 2.5])
    for ax in (0, 1):
        one = axis_resample(f, ax, scales, 0.2).samples
        rows = axis_resample(DiscretizedState(stack, grid2), ax, scales, 0.2).samples
        assert one.shape == rows.shape == (3, 64, 48)
        for k, a in enumerate(scales):
            ref = axis_resample_dense(f, ax, a, 0.2).samples
            assert np.max(np.abs(one[k] - ref)) < 1e-11
            ref_row = axis_resample_dense(DiscretizedState(stack[k], grid2), ax, a, 0.2).samples
            assert np.max(np.abs(rows[k] - ref_row)) < 1e-11
        assert np.all(one[2][(slice(None),) * ax + (-1,)] == 0.0)


def test_affine_analyze_resamples_once(affine, monkeypatch):
    from groupwave import representations
    from groupwave.transforms import analyze

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return axis_resample(*args, **kwargs)

    monkeypatch.setattr(representations, "axis_resample", counted)
    analyze(affine.rep, affine.states["morlet"], affine.states["signal"], affine.x_grid)
    # one batched call for all 160 scales of the bundled grid
    assert len(calls) == 1 and np.shape(calls[0]) == (160,)


def test_axis_resample_evaluates_dilation():
    f = gaussian_state(GRID)
    r = axis_resample(f, 0, 0.5, 0.3)
    x = GRID.axis(0)
    ref = np.pi ** -0.25 * np.exp(-((0.5 * x + 0.3) ** 2) / 2)
    assert np.max(np.abs(r.samples - ref)) < 1e-12


def test_hermite_orthonormal():
    h = [hermite_state(GRID, k) for k in range(5)]
    gram = np.array([[inner(a, b) for b in h] for a in h])
    assert np.max(np.abs(gram - np.eye(5))) < 1e-12


def test_morlet_zero_mean_unit_norm():
    m = morlet_state(GRID)
    assert abs(norm(m) - 1.0) < 1e-12
    mhat = fourier_plancherel(m)
    w = mhat.grid.axis(0)
    dc = mhat.samples[np.argmin(np.abs(w))]
    assert abs(dc) < 1e-13


def test_dog_state_spectrum_even_real_zero_dc():
    d = dog_state(GRID, 2)
    assert abs(norm(d) - 1.0) < 1e-12
    dhat = fourier_plancherel(d)
    w = dhat.grid.axis(0)
    assert abs(dhat.samples[np.argmin(np.abs(w))]) < 1e-13
    assert np.max(np.abs(dhat.samples.imag)) < 1e-10


def test_modulate_is_phase_only():
    f = gaussian_state(GRID)
    g = modulate(f, [2.2], extra_phase=0.4)
    assert np.max(np.abs(np.abs(g.samples) - np.abs(f.samples))) < 1e-15


def test_product_state_normalized():
    grid2 = product_grid(halfline_grid(8.0, 64), centered_grid(8.0, 64))
    f = product_state(
        grid2,
        lambda b: np.exp(-((np.log(b) - np.log(2.0)) ** 2)),
        lambda p: np.exp(-(p ** 2) / 2),
    )
    assert abs(norm(f) - 1.0) < 1e-12


def test_state_csv_round_trip(tmp_path):
    f = modulate(gaussian_state(GRID), [1.3])
    path = tmp_path / "state.csv"
    save_state_csv(path, f)
    g = load_state_csv(path)
    assert g.grid == GRID
    assert np.max(np.abs(g.samples - f.samples)) < 1e-15


def test_state_csv_bytes_match_row_formula(tmp_path):
    grid2 = product_grid(halfline_grid(4.0, 6), centered_grid(3.0, 5))
    samples = np.arange(30).reshape(6, 5) * (0.1 - 0.7j)
    # signed zeros, tiny and huge values and integers-as-floats keep their text
    samples.flat[:5] = [0.0, -0.0 + 0j, 1e-300j, -1e300, complex(-0.0, -0.0)]
    state = DiscretizedState(samples, grid2)
    save_state_csv(tmp_path / "state.csv", state)
    meshes = [m.ravel() for m in grid2.meshes()]
    rows = ["index,x0,x1,re,im\n"] + [
        f"{i},{meshes[0][i]:.17g},{meshes[1][i]:.17g},{v.real:.17g},{v.imag:.17g}\n"
        for i, v in enumerate(samples.ravel())
    ]
    assert (tmp_path / "state.csv").read_bytes() == "".join(rows).encode()


def test_grid_json_round_trip(tmp_path):
    from groupwave.states import load_grid_json, save_grid_json

    path = tmp_path / "grid.json"
    save_grid_json(path, GRID)
    assert load_grid_json(path) == GRID


def test_state_csv_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("index,x,re,im\n0,0.0,1.0\n")
    with pytest.raises(ValueError, match="row 2"):
        load_state_csv(path)
