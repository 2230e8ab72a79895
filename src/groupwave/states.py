"""Sampled vectors of L2(R^n) on uniform grids, and the unitary grid operations
(inner product, Fourier-Plancherel transform, band-limited translation and
resampling) every representation in this package is built from.

Conventions
-----------
* A state is a complex array sampled on a uniform tensor grid; the L2 inner
  product is linear in the *second* argument:  <u, v> = sum conj(u) v * cell.
* The Fourier-Plancherel operator uses the e^{+i w x} kernel,

      (F f)(w) = (2 pi)^{-n/2} integral f(x) e^{+i w x} dx,

  so that the unit Gaussian is a fixed point and F p_hat F^{-1} = -q_hat,
  F q_hat F^{-1} = p_hat.
* Off-grid translations and dilations are evaluated through the trigonometric
  (band-limited) interpolant of the samples.  This keeps them unitary to
  near machine precision for states that decay inside the box; states are
  treated as band-limited and periodized outside the box.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import hashlib
import json
import mmap

import numpy as np

__all__ = [
    "StateGrid",
    "DiscretizedState",
    "centered_grid",
    "halfline_grid",
    "product_grid",
    "inner",
    "norm",
    "fourier_plancherel",
    "inverse_fourier_plancherel",
    "translate",
    "modulate",
    "axis_resample",
    "axis_resample_dense",
    "gaussian_state",
    "hermite_state",
    "morlet_state",
    "dog_state",
    "bump_profile",
    "product_state",
    "random_bandlimited_state",
    "save_state_csv",
    "load_state_csv",
]


@dataclass(frozen=True)
class StateGrid:
    """Uniform sampling grid on a box in R^n.

    Axis i holds ``counts[i]`` samples at ``offsets[i] + j * spacings[i]``.
    """

    offsets: tuple[float, ...]
    spacings: tuple[float, ...]
    counts: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacings))

    def axis(self, i: int) -> np.ndarray:
        return self.offsets[i] + self.spacings[i] * np.arange(self.counts[i])

    def meshes(self) -> list[np.ndarray]:
        return np.meshgrid(*[self.axis(i) for i in range(self.dim)], indexing="ij")

    def __eq__(self, other) -> bool:  # exact match is the compatibility contract
        return (
            isinstance(other, StateGrid)
            and self.counts == other.counts
            and self.offsets == other.offsets
            and self.spacings == other.spacings
        )

    def __hash__(self):
        return hash((self.offsets, self.spacings, self.counts))


@dataclass(frozen=True)
class DiscretizedState:
    """Complex samples over a :class:`StateGrid`.  Treated as immutable.

    Leading axes in front of the grid's hold a stack of states, which only
    :func:`translate` and :func:`axis_resample` accept.
    """

    samples: np.ndarray
    grid: StateGrid

    def __post_init__(self):
        shape = tuple(self.samples.shape)
        if len(shape) < self.grid.dim or shape[len(shape) - self.grid.dim :] != self.grid.counts:
            raise ValueError(
                f"sample shape {self.samples.shape} does not match grid {self.grid.counts}"
            )

    def with_samples(self, samples: np.ndarray) -> "DiscretizedState":
        return DiscretizedState(np.asarray(samples, dtype=complex), self.grid)

    def sha256(self) -> str:
        """Hex digest of the samples and the grid: an identity that tells states apart."""
        digest = hashlib.sha256(np.ascontiguousarray(self.samples, dtype=complex).tobytes())
        for values in (self.grid.offsets, self.grid.spacings, self.grid.counts):
            digest.update(np.asarray(values, dtype=float).tobytes())
        return digest.hexdigest()


class GridMismatchError(ValueError):
    """Raised when two states live on different grids."""


def centered_grid(halfwidth: float, n_points: int, dim: int = 1) -> StateGrid:
    """Grid over [-L, L) with N samples per axis (FFT friendly)."""
    h = 2.0 * halfwidth / n_points
    return StateGrid(
        offsets=(-halfwidth,) * dim, spacings=(h,) * dim, counts=(n_points,) * dim
    )


def halfline_grid(length: float, n_points: int) -> StateGrid:
    """Grid over (0, L) with half-cell offset, keeping samples off the x=0 singularity."""
    h = length / n_points
    return StateGrid(offsets=(h / 2.0,), spacings=(h,), counts=(n_points,))


def product_grid(*grids: StateGrid) -> StateGrid:
    return StateGrid(
        offsets=sum((g.offsets for g in grids), ()),
        spacings=sum((g.spacings for g in grids), ()),
        counts=sum((g.counts for g in grids), ()),
    )


def _check_compatible(u: DiscretizedState, v: DiscretizedState):
    if u.grid != v.grid:
        raise GridMismatchError("states sampled on different grids")


def inner(u: DiscretizedState, v: DiscretizedState) -> complex:
    """L2 inner product, linear in the second argument.

    numpy's pairwise summation makes the reduction deterministic for a fixed
    shape, so repeated evaluations are bit-identical.
    """
    _check_compatible(u, v)
    return complex(np.sum(np.conj(u.samples) * v.samples) * u.grid.cell_volume)


def norm(u: DiscretizedState) -> float:
    return float(np.sqrt(np.sum(np.abs(u.samples) ** 2) * u.grid.cell_volume))


def normalized(u: DiscretizedState) -> DiscretizedState:
    n = norm(u)
    if n == 0.0:
        raise ValueError("cannot normalize the zero state")
    return u.with_samples(u.samples / n)


# ---------------------------------------------------------------------------
# Fourier-Plancherel operator (e^{+i w x} kernel, unitary on the grid pair)
# ---------------------------------------------------------------------------


def _freq_axis(n: int, spacing: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(n, d=spacing))


def frequency_grid(grid: StateGrid) -> StateGrid:
    axes = [_freq_axis(grid.counts[i], grid.spacings[i]) for i in range(grid.dim)]
    return StateGrid(
        offsets=tuple(float(w[0]) for w in axes),
        spacings=tuple(float(w[1] - w[0]) for w in axes),
        counts=grid.counts,
    )


def fourier_plancherel(state: DiscretizedState) -> DiscretizedState:
    """Unitary Fourier transform onto the grid's natural frequency grid."""
    g = state.grid
    n_total = float(np.prod(g.counts))
    coeff = np.fft.fftshift(np.fft.ifftn(state.samples)) * n_total
    for i in range(g.dim):
        w = _freq_axis(g.counts[i], g.spacings[i])
        shape = [1] * g.dim
        shape[i] = g.counts[i]
        coeff = coeff * np.exp(1j * w * g.offsets[i]).reshape(shape)
    scale = g.cell_volume * (2.0 * np.pi) ** (-g.dim / 2.0)
    return DiscretizedState(coeff * scale, frequency_grid(g))


def inverse_fourier_plancherel(
    state: DiscretizedState, position_grid: StateGrid
) -> DiscretizedState:
    """Inverse of :func:`fourier_plancherel` back onto ``position_grid``."""
    g = state.grid
    if frequency_grid(position_grid) != g:
        raise GridMismatchError("frequency grid does not correspond to position grid")
    coeff = state.samples.copy()
    for i in range(g.dim):
        w = g.axis(i)
        shape = [1] * g.dim
        shape[i] = g.counts[i]
        coeff = coeff * np.exp(-1j * w * position_grid.offsets[i]).reshape(shape)
    coeff = np.fft.fftn(np.fft.ifftshift(coeff))
    scale = state.grid.cell_volume * (2.0 * np.pi) ** (-g.dim / 2.0)
    # forward used cell * N * ifftn; inverting gives cell_w * fftn / (2pi)^{n/2}
    return DiscretizedState(coeff * scale, position_grid)


# ---------------------------------------------------------------------------
# Band-limited translation / modulation / resampling
# ---------------------------------------------------------------------------


def translate(state: DiscretizedState, shift) -> DiscretizedState:
    """(T_a f)(x) = f(x - a) through an FFT phase ramp; exactly unitary.

    Leading axes of ``shift`` (..., dim) broadcast against a stacked state's:
    one forward FFT serves every shift.  Only the axes with a nonzero shift
    component are transformed; a zero shift returns a broadcast copy."""
    g = state.grid
    shift = np.atleast_1d(np.asarray(shift, dtype=float))
    if shift.shape[-1] != g.dim:
        raise ValueError(f"shift must have {g.dim} components")
    moved = [i for i in range(g.dim) if np.any(shift[..., i] != 0.0)]
    lead = shift.shape[:-1] + (1,) * g.dim
    if not moved:
        shape = np.broadcast_shapes(state.samples.shape, lead)
        return DiscretizedState(np.array(np.broadcast_to(state.samples, shape), dtype=complex), g)
    axes = tuple(i - g.dim for i in moved)
    spec = np.fft.fftn(state.samples, axes=axes)
    for i in moved:
        w = 2.0 * np.pi * np.fft.fftfreq(g.counts[i], d=g.spacings[i])
        shape = [1] * g.dim
        shape[i] = g.counts[i]
        spec = spec * np.exp(-1j * w.reshape(shape) * shift[..., i].reshape(lead))
    return DiscretizedState(np.fft.ifftn(spec, axes=axes), g)


def modulate(state: DiscretizedState, freq, extra_phase: float = 0.0) -> DiscretizedState:
    """Multiply by e^{i (freq . x + extra_phase)} pointwise."""
    g = state.grid
    freq = np.atleast_1d(np.asarray(freq, dtype=float))
    phase = np.full(g.counts, float(extra_phase))
    meshes = g.meshes()
    for i in range(g.dim):
        phase = phase + freq[i] * meshes[i]
    return DiscretizedState(state.samples * np.exp(1j * phase), g)


def frozen_copy(a: np.ndarray) -> np.ndarray:
    """Read-only copy of ``a`` in an anonymous memory map of its own.

    The plan caches keep their arrays for the life of the process.  On the
    malloc heap such arrays pin the memory around them, so the heap cannot
    give back what the large transients of later transforms used: a
    perfbench ``long_lived`` worker (set-up, ``verify --group all``, then
    transform passes) peaked at 314 MB resident with heap-held plans and at
    273 MB with mapped ones (285 MB without plan caches).
    """
    out = np.frombuffer(mmap.mmap(-1, max(a.nbytes, 1)), dtype=a.dtype, count=a.size)
    out = out.reshape(a.shape)
    out[...] = a
    out.setflags(write=False)
    return out


# entries of each plan cache (the chirp-z factors here, the engine's phase
# and modulation factors in representations): analyze and synthesize on the
# five configurations the benchmark cycles through use 9 factor plans, and an
# LRU cache smaller than a cyclic working set misses on every call
PLAN_CACHE = 16


def _chirp_factors(grid: StateGrid, axis: int, scale: np.ndarray, shift: float):
    """psi-independent factors of :func:`axis_resample` for the scales
    ``scale`` (any shape): arrays of shape ``scale.shape + (N,)``, the
    kernel spectrum ``scale.shape + (L,)``.

    Evaluation point u_j = (y_j - x0)/h = u0 + scale*j turns the resampled
    series into a chirp-z transform with beta = 2 pi scale / N:
    sum_n C_n e^{i beta n (j + u0/scale)} = quad_j (K * (C lin quad))_j with
    lin_n = e^{i beta n u0/scale}, quad_n = e^{i beta n^2/2} and the kernel
    K_r = e^{-i beta r^2/2} (Bluestein), convolved by FFTs of length L.
    """
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
    # the fftshift's reordering m~ = m - N/2 leaves the phase e^{-2 pi i (N/2) u / N}
    prefac = np.exp(-2j * np.pi * (n // 2) * u / n) / n
    outside = (y < x0) | (y >= x0 + n * h)
    return lin, quad, np.fft.fft(kernel), prefac, outside


@functools.lru_cache(maxsize=PLAN_CACHE)
def _chirp_plan(grid: StateGrid, axis: int, scale_bytes: bytes, shape: tuple, shift: float):
    """:func:`_chirp_factors` of the scale ladder
    ``np.frombuffer(scale_bytes).reshape(shape)``, cached by value and
    read-only since every caller shares them (see :func:`frozen_copy`)."""
    scale = np.frombuffer(scale_bytes).reshape(shape)
    return tuple(frozen_copy(a) for a in _chirp_factors(grid, axis, scale, shift))


def axis_resample(
    state: DiscretizedState, axis: int, scale, shift: float = 0.0
) -> DiscretizedState:
    """Sample the trig interpolant at y = scale * x + shift along one axis.

    Returns g with g(x_j) = f(scale * x_j + shift).  The interpolant is the
    band-limited periodic extension of the samples, but points mapped
    outside the sampled box read zero (the right semantics for decaying
    states -- periodic wrap-around would re-capture spectral mass under
    dilations with scale >~ 2).  The uniformly spaced evaluation points make
    this a chirp-z transform, computed with Bluestein FFTs in O(N log N).
    ``axis`` counts grid axes, so a stacked state is resampled as a whole.

    ``scale`` may be an array: its axes broadcast against a stacked state's
    leading axes (the rule :func:`translate` uses for ``shift``), so an
    unstacked state and S scales give a stack of S resampled states, and a
    stack of S states with S scales resamples row s by scale s.  The state is
    transformed once and every scale runs through one batched Bluestein
    pass.  The chirp factors of an array of scales (a grid's ladder, which
    recurs with the grid) are cached per grid, axis, scales and shift; those
    of a single scale (one node's action) are not.
    """
    g = state.grid
    scale = np.asarray(scale, dtype=float)
    shift = float(shift)
    factors = (_chirp_plan(g, axis, scale.tobytes(), scale.shape, shift) if scale.ndim
               else _chirp_factors(g, axis, scale, shift))
    lin, quad, fk, prefac, outside = (
        f.reshape(scale.shape + (1,) * (g.dim - 1) + f.shape[-1:]) for f in factors)
    n = g.counts[axis]
    axis -= g.dim  # grid axis -> array axis, counted from the end
    coeff = np.fft.fftshift(np.fft.fft(state.samples, axis=axis), axes=axis)
    a = np.moveaxis(coeff, axis, -1) * lin * quad
    conv = np.fft.ifft(np.fft.fft(a, n=fk.shape[-1], axis=-1) * fk, axis=-1)[..., :n]
    out = conv * quad * prefac
    out[np.broadcast_to(outside, out.shape)] = 0.0
    return DiscretizedState(np.moveaxis(out, -1, axis), g)


def axis_resample_dense(
    state: DiscretizedState, axis: int, scale: float, shift: float = 0.0
) -> DiscretizedState:
    """Reference implementation of :func:`axis_resample` via the dense
    interpolation matrix; used to cross-check the chirp-z path."""
    g = state.grid
    n = g.counts[axis]
    h = g.spacings[axis]
    x0 = g.offsets[axis]
    y = scale * g.axis(axis) + shift
    coeff = np.fft.fft(state.samples, axis=axis)
    w = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
    interp = np.exp(1j * np.outer(y - x0, w)) / n
    interp[(y < x0) | (y >= x0 + n * h), :] = 0.0
    moved = np.moveaxis(coeff, axis, 0)
    out = np.tensordot(interp, moved, axes=(1, 0))
    return DiscretizedState(np.moveaxis(out, 0, axis), g)


# ---------------------------------------------------------------------------
# Test-state factories
# ---------------------------------------------------------------------------


def gaussian_state(
    grid: StateGrid, center=0.0, momentum=0.0, width=1.0
) -> DiscretizedState:
    """Unit-norm Gaussian  pi^{-n/4} prod w^{-1/2} e^{-(x-c)^2/(2 w^2)} e^{i p.x}."""
    center = np.broadcast_to(np.atleast_1d(center).astype(float), (grid.dim,))
    momentum = np.broadcast_to(np.atleast_1d(momentum).astype(float), (grid.dim,))
    width = np.broadcast_to(np.atleast_1d(width).astype(float), (grid.dim,))
    meshes = grid.meshes()
    logenv = np.zeros(grid.counts)
    phase = np.zeros(grid.counts)
    for i in range(grid.dim):
        logenv = logenv - (meshes[i] - center[i]) ** 2 / (2.0 * width[i] ** 2)
        phase = phase + momentum[i] * meshes[i]
    amp = np.prod(np.pi ** (-0.25) * width ** (-0.5))
    return DiscretizedState(amp * np.exp(logenv + 1j * phase), grid)


def hermite_state(grid: StateGrid, k: int) -> DiscretizedState:
    """Orthonormal 1-d Hermite function h_k (harmonic-oscillator eigenstate)."""
    if grid.dim != 1:
        raise ValueError("hermite_state is one-dimensional")
    x = grid.axis(0)
    h_prev = np.zeros_like(x)
    h = np.pi ** (-0.25) * np.exp(-(x ** 2) / 2.0)
    for m in range(k):
        h_next = np.sqrt(2.0 / (m + 1)) * x * h - np.sqrt(m / (m + 1.0)) * h_prev
        h_prev, h = h, h_next
    return DiscretizedState(h.astype(complex), grid)


def morlet_state(grid: StateGrid, omega0: float = 6.0) -> DiscretizedState:
    """Real Morlet wavelet with exact zero mean.

    (cos(w0 x) - e^{-w0^2/2}) e^{-x^2/2}, grid-normalized to unit L2 norm.
    The correction term makes the Fourier transform vanish exactly at w = 0,
    which is what the wavelet admissibility condition needs; the default
    carrier frequency keeps the spectrum clear of the |w|^{-1/2} kink of the
    scale-side Duflo-Moore symbol.
    """
    if grid.dim != 1:
        raise ValueError("morlet_state is one-dimensional")
    x = grid.axis(0)
    raw = (np.cos(omega0 * x) - np.exp(-(omega0 ** 2) / 2.0)) * np.exp(-(x ** 2) / 2.0)
    s = DiscretizedState(raw.astype(complex), grid)
    return normalized(s)


def dog_state(grid: StateGrid, order: int = 2) -> DiscretizedState:
    """Derivative-of-Gaussian wavelet, built as w^m e^{-w^2/2} in frequency.

    Even orders give a real, even state whose spectrum is real, even and
    vanishes at w = 0; these are the analyzing vectors used for the affine
    orthogonality relations.
    """
    if grid.dim != 1:
        raise ValueError("dog_state is one-dimensional")
    if order % 2 != 0 or order <= 0:
        raise ValueError("order must be a positive even integer")
    fgrid = frequency_grid(grid)
    w = fgrid.axis(0)
    spec = (w ** order) * np.exp(-(w ** 2) / 2.0)
    state = inverse_fourier_plancherel(
        DiscretizedState(spec.astype(complex), fgrid), grid
    )
    return normalized(DiscretizedState(state.samples.real.astype(complex), grid))


def bump_profile(x: np.ndarray, center: float, radius: float) -> np.ndarray:
    """C-infinity bump exp(1 - 1/(1 - u^2)) on |x - center| < radius, 0 outside."""
    u = (np.asarray(x, dtype=float) - center) / radius
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
    return out


def product_state(grid: StateGrid, *factors) -> DiscretizedState:
    """State f(x_1,..,x_n) = prod_i factors[i](x_i), normalized to unit norm."""
    if len(factors) != grid.dim:
        raise ValueError("one factor per axis required")
    samples = np.ones(grid.counts, dtype=complex)
    for i, f in enumerate(factors):
        vals = np.asarray(f(grid.axis(i)), dtype=complex)
        shape = [1] * grid.dim
        shape[i] = grid.counts[i]
        samples = samples * vals.reshape(shape)
    return normalized(DiscretizedState(samples, grid))


def random_bandlimited_state(
    grid: StateGrid,
    rng: np.random.Generator,
    band_fraction: float = 0.25,
    envelope_width: float | None = None,
    low_cut: float = 0.0,
) -> DiscretizedState:
    """Random smooth state: random spectrum inside a fraction of the Nyquist band,
    localized by a Gaussian envelope so it decays inside the box.  ``low_cut``
    zeroes frequencies below the threshold (wavelet-reconstructible signals)."""
    fgrid = frequency_grid(grid)
    spec = np.zeros(grid.counts, dtype=complex)
    mask = np.ones(grid.counts, dtype=bool)
    meshes = fgrid.meshes()
    for i in range(grid.dim):
        w_max = band_fraction * np.pi / grid.spacings[i]
        mask &= np.abs(meshes[i]) <= w_max
    spec[mask] = rng.standard_normal(int(mask.sum())) + 1j * rng.standard_normal(
        int(mask.sum())
    )
    if low_cut > 0.0:
        for i in range(grid.dim):
            spec[np.abs(meshes[i]) < low_cut] = 0.0
    state = inverse_fourier_plancherel(DiscretizedState(spec, fgrid), grid)
    if envelope_width is None:
        envelope_width = 0.25 * grid.spacings[0] * grid.counts[0]
    env = np.ones(grid.counts)
    for i, m in enumerate(grid.meshes()):
        c = grid.offsets[i] + 0.5 * grid.spacings[i] * grid.counts[i]
        env = env * np.exp(-((m - c) ** 2) / (2.0 * envelope_width ** 2))
    return normalized(DiscretizedState(state.samples * env, grid))


# ---------------------------------------------------------------------------
# CSV / JSON serialization (CLI signal format: index,x,re,im)
# ---------------------------------------------------------------------------


def _coord_names(dim: int) -> list[str]:
    return ["x"] if dim == 1 else [f"x{i}" for i in range(dim)]


def save_state_csv(path, state: DiscretizedState) -> None:
    """Write index, grid coordinates, re, im per sample, formatted in one pass."""
    g = state.grid
    # 17 significant digits read back as the same double
    row = "%d," + ",".join(["%.17g"] * (g.dim + 2)) + "\n"
    flat = state.samples.ravel()
    data = np.column_stack([m.ravel() for m in g.meshes()] + [flat.real, flat.imag]).tolist()
    with open(path, "w") as fh:
        fh.write("index," + ",".join(_coord_names(g.dim)) + ",re,im\n")
        fh.write("".join([row % (i, *values) for i, values in enumerate(data)]))


def save_grid_json(path, grid: StateGrid) -> None:
    payload = {
        "offsets": list(grid.offsets),
        "spacings": list(grid.spacings),
        "counts": list(grid.counts),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_grid_json(path) -> StateGrid:
    with open(path) as fh:
        payload = json.load(fh)
    return StateGrid(
        offsets=tuple(payload["offsets"]),
        spacings=tuple(payload["spacings"]),
        counts=tuple(payload["counts"]),
    )


def load_state_csv(path, grid: StateGrid | None = None) -> DiscretizedState:
    """Read a signal CSV; infers a 1-d grid when none is supplied."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if header[0] != "index" or header[-2:] != ["re", "im"]:
            raise ValueError(f"malformed signal CSV header: {header}")
        n_coords = len(header) - 3
        rows = []
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.strip().split(",")
            if len(parts) != len(header):
                raise ValueError(f"malformed CSV row {line_no}: {len(parts)} fields")
            try:
                rows.append([float(p) for p in parts])
            except ValueError as exc:
                raise ValueError(f"malformed CSV row {line_no}: {exc}") from None
    if not rows:
        raise ValueError("signal CSV contains no data rows")
    data = np.asarray(rows)
    if not np.all(np.isfinite(data)):
        raise ValueError("signal CSV contains non-finite values")
    values = data[:, -2] + 1j * data[:, -1]
    if grid is None:
        if n_coords != 1:
            raise ValueError("grid metadata required for multi-dimensional signals")
        x = data[:, 1]
        if len(x) < 2:
            raise ValueError("need at least two samples to infer a grid")
        h = x[1] - x[0]
        # the writer prints 17 significant digits, so a uniform grid reads
        # back with spacings equal to rounding
        if not h > 0 or np.max(np.abs(np.diff(x) - h)) > 1e-9 * h:
            raise ValueError("signal CSV x values are not uniformly spaced and increasing")
        grid = StateGrid(offsets=(float(x[0]),), spacings=(float(h),), counts=(len(x),))
    if values.size != int(np.prod(grid.counts)):
        raise ValueError("sample count does not match grid")
    return DiscretizedState(values.reshape(grid.counts), grid)
