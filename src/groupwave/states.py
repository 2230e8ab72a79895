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
* Files: :func:`read_csv` reads signal and coefficient CSVs alike (header
  and field counts checked, then ``np.loadtxt`` on the needed columns only,
  which reads ``FLOAT_FORMAT`` back bit-exactly); :func:`dump_json` writes
  every JSON file of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import hashlib
import json
import mmap
import re
import sys

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
    Grids are compatible only if they are equal field by field.
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


@dataclass(frozen=True)
class DiscretizedState:
    """Complex samples over a :class:`StateGrid`.  Treated as immutable.

    Leading axes in front of the grid's hold a stack of states: the engine's
    blocks of dilated states, which :func:`axis_resample` makes.
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

    ``shift`` has one component per grid axis.  Only the axes with a
    nonzero component are transformed; a zero shift returns a copy."""
    g = state.grid
    shift = np.atleast_1d(np.asarray(shift, dtype=float))
    if shift.shape != (g.dim,):
        raise ValueError(f"shift must have {g.dim} components")
    moved = [i for i in range(g.dim) if shift[i] != 0.0]
    if not moved:
        return DiscretizedState(np.array(state.samples, dtype=complex), g)
    axes = tuple(i - g.dim for i in moved)
    spec = np.fft.fftn(state.samples, axes=axes)
    for i in moved:
        w = 2.0 * np.pi * np.fft.fftfreq(g.counts[i], d=g.spacings[i])
        spec = spec * np.exp(-1j * w.reshape((-1,) + (1,) * (g.dim - 1 - i)) * shift[i])
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


def mapped(shape: tuple, dtype=complex) -> np.ndarray:
    """``np.empty`` in an anonymous memory map of its own, for the arrays the
    plan caches keep: on the heap they pin the memory around them (a perfbench
    ``long_lived`` worker peaked at 314 MB resident with them, 273 MB mapped)."""
    size = int(np.prod(shape))
    buf = mmap.mmap(-1, max(size * np.dtype(dtype).itemsize, 1))
    return np.frombuffer(buf, dtype=dtype, count=size).reshape(shape)


def frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only."""
    a.setflags(write=False)
    return a


def exp_into(a, b, out: np.ndarray) -> np.ndarray:
    """e^{a b} computed in ``out``: where the plan caches evaluate exponentials."""
    return np.exp(np.multiply(a, b, out=out), out=out)


def conjugate_into(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """conj(a) in ``out``, e^{-i t} bit for bit for a = e^{i t}: + 0.0 turns
    the -0.0 imaginary part of conj(e^{+i 0}) into e^{-i 0}'s +0.0."""
    np.conjugate(a, out=out)
    out.imag += 0.0
    return out


# entries of each plan cache (the chirp-z factors here, the engine's phase
# and modulation factors in representations): analyze and synthesize on the
# five configurations the benchmark cycles through use 9 factor plans, and an
# LRU cache smaller than a cyclic working set misses on every call
PLAN_CACHE = 16


def _chirp_factors(grid: StateGrid, axis: int, scale: np.ndarray, shift: float, empty=np.empty):
    """psi-independent factors of :func:`axis_resample` for the scales
    ``scale`` (any shape): new arrays of ``empty``, of shape ``scale.shape +
    (N,)``, the kernel spectrum ``scale.shape + (L,)``.

    Evaluation point u_j = (y_j - x0)/h = u0 + scale*j turns the resampled
    series into a chirp-z transform with beta = 2 pi scale / N:
    sum_n C_n e^{i beta n (j + u0/scale)} = quad_j (K * (C lin quad))_j with
    lin_n = e^{i beta n u0/scale}, quad_n = e^{i beta n^2/2} and the kernel
    K_r = e^{-i beta r^2/2} = conj(quad_r) (Bluestein), convolved by FFTs of
    length L.
    """
    n, h, x0 = grid.counts[axis], grid.spacings[axis], grid.offsets[axis]
    scale = scale[..., None]
    y = scale * grid.axis(axis) + shift
    u0 = (y[..., :1] - x0) / h
    beta = 2.0 * np.pi * scale / n
    ns = np.arange(n)
    lin, quad, prefac = (empty(y.shape, complex) for _ in range(3))
    exp_into(1j * beta * ns, u0 / scale, lin)
    exp_into(0.5j * beta, ns.astype(float) ** 2, quad)
    length = 1 << (2 * n - 2).bit_length()  # the least power of two >= 2 N - 1
    kernel = np.zeros(scale.shape[:-1] + (length,), dtype=complex)
    vals = conjugate_into(quad, kernel[..., :n])
    kernel[..., length - n + 1 :] = vals[..., 1:][..., ::-1]
    u = u0 + scale * ns
    # the fftshift's reordering m~ = m - N/2 leaves the phase e^{-2 pi i (N/2) u / N}
    np.divide(np.multiply(-2j * np.pi * (n // 2), u, out=prefac), n, out=prefac)
    np.divide(np.exp(prefac, out=prefac), n, out=prefac)
    outside = np.bitwise_or(y < x0, y >= x0 + n * h, out=empty(y.shape, bool))
    return lin, quad, np.fft.fft(kernel, out=empty(kernel.shape, complex)), prefac, outside


@functools.lru_cache(maxsize=PLAN_CACHE)
def _chirp_plan(grid: StateGrid, axis: int, scale_bytes: bytes, shape: tuple, shift: float):
    """:func:`_chirp_factors` of the scale ladder
    ``np.frombuffer(scale_bytes).reshape(shape)``, cached by value, each
    computed in its memory map and read-only (see :func:`mapped`)."""
    scale = np.frombuffer(scale_bytes).reshape(shape)
    return tuple(frozen(f) for f in _chirp_factors(grid, axis, scale, shift, mapped))


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
    leading axes, so an unstacked state and S scales give a stack of S
    resampled states, and a stack of S states with S scales resamples row s
    by scale s.  The state is transformed once and every scale runs through
    one batched Bluestein pass.  The chirp factors of an array of scales (a grid's ladder, which
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
    return normalized(DiscretizedState(raw.astype(complex), grid))


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
    state = inverse_fourier_plancherel(DiscretizedState(spec.astype(complex), fgrid), grid)
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
        samples = samples * vals.reshape((-1,) + (1,) * (grid.dim - 1 - i))
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
    k = int(mask.sum())
    spec[mask] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
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


FLOAT_FORMAT = "%.17g"  # 17 significant digits read back as the same double

# Exact FLOAT_FORMAT text in numpy (:func:`_float_texts`).  A value x with
# |x| in _SETTLED and E = floor(log10 |x|) prints as the 17-digit integer
# D = round(|x| 10^(16-E)) laid out by the ``%g`` rules.  |x| 10^k is taken
# as Dekker's exact two-product of |x| and hi, plus |x| lo, where hi + lo is
# the double-double of 10^k: its error is below 1e-14, so only a remainder
# within _TIE of a tie can round the wrong way.  _SETTLED keeps 10^k, its
# split and the products clear of overflow and underflow.
_SPLIT = 134217729.0  # 2^27 + 1 splits a double into two 26-bit halves
_TIE = 2.0 ** -20
_SETTLED = (1e-280, 1e280)
# byte columns of a value's source row of seven uint32 words: digit j of D
# at 3 + j (the first word is 000d, so column 0 is a '0'), the exponent's
# sign and three digits at 20..23, then '.', '-', 'e' and a NUL
_ZERO, _EXP_SIGN, _POINT, _MINUS, _E, _NUL = 0, 20, 24, 25, 26, 27
_WIDTH = 24  # the longest text: -d.dddddddddddddddde-ddd
_EMPTY = 23 * 17 * 2  # the layout of no text, for the values Python formats
_CHUNK = 1 << 13  # values per pass, which bounds the kernel's temporaries to a few MB


@functools.lru_cache(maxsize=None)
def _pow10(k: int) -> tuple[float, float, float, float]:
    """10^k as hi + lo, each correctly rounded from Python ints (hi the
    double nearest 10^k, lo the double nearest 10^k - hi), and hi's split
    into head + tail (Dekker)."""
    if k >= 0:
        exact = 10 ** k
        hi = float(exact)
        lo = float(exact - int(hi))
    else:
        den = 10 ** -k
        hi = 1 / den  # int / int rounds correctly
        num, pow2 = hi.as_integer_ratio()
        lo = (pow2 - num * den) / (pow2 * den)
    head = _SPLIT * hi - (_SPLIT * hi - hi)
    return hi, lo, head, hi - head


@functools.lru_cache(maxsize=None)
def _digit_table() -> tuple[np.ndarray, np.ndarray]:
    """For 0..9999: its four ASCII digits as one uint32 word, and its count
    of trailing zero digits (4 for 0)."""
    n = np.arange(10000, dtype=np.int32)
    digits = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + ord("0")
    zeros = sum(n % 10 ** p == 0 for p in range(1, 5))
    return digits.astype(np.uint8).view(np.uint32).ravel(), zeros


@functools.lru_cache(maxsize=None)
def _layouts() -> np.ndarray:
    """Source columns of each text (digit j of D is column 3 + j), shape
    (_EMPTY + 1, _WIDTH), NUL-padded, by key (form * 17 + length - 1) * 2 +
    negative.  ``%g`` prints a value of decimal exponent E in fixed
    notation when -4 <= E < 17 (form E + 4), else as d.ddde±XX (form 21 for
    two exponent digits, 22 for three), with ``length`` significant digits
    once trailing zeros are stripped."""
    digits, point, zero, pad = bytes(range(3, 20)), bytes([_POINT]), bytes([_ZERO]), bytes([_NUL])
    table = []
    for form in range(23):
        for length in range(1, 18):
            if form > 20:  # d.ddde±XX
                text = digits[:1] + (point + digits[1:length] if length > 1 else b"")
                text += bytes([_E, _EXP_SIGN]) + bytes(range(_EXP_SIGN + 23 - form, _EXP_SIGN + 4))
            elif form >= 4:  # E + 1 integer digits, then the fraction
                whole = form - 3
                text = digits[:whole] + (point + digits[whole:length] if length > whole else b"")
            else:  # 0.ddd with -E - 1 zeros after the point
                text = zero + point + zero * (3 - form) + digits[:length]
            table += [text.ljust(_WIDTH, pad), (bytes([_MINUS]) + text).ljust(_WIDTH, pad)]
    table.append(pad * _WIDTH)
    return np.frombuffer(b"".join(table), dtype=np.uint8).reshape(-1, _WIDTH).astype(np.intp)


def _scaled(a: np.ndarray, k: np.ndarray):
    """floor(a 10^k) as int64, the remainder, and whether 10^k is a double
    (the remainder is then exact); a 10^k is taken in double-double."""
    low = int(k.min())
    at = k - low
    present = np.zeros(int(k.max()) - low + 1, dtype=bool)
    present[at] = True
    table = np.zeros((4, present.size))
    for j in np.flatnonzero(present).tolist():
        table[:, j] = _pow10(j + low)
    hi, lo, head, tail = (column[at] for column in table)
    product = a * hi
    a_head = _SPLIT * a - (_SPLIT * a - a)
    a_tail = a - a_head
    rest = (((a_head * head - product) + a_head * tail + a_tail * head) + a_tail * tail) + a * lo
    whole = np.floor(rest)
    return product.astype(np.int64) + whole.astype(np.int64), rest - whole, lo == 0.0


def _float_texts(x: np.ndarray) -> list[bytes]:
    """``FLOAT_FORMAT % v`` of each value of ``x`` (flattened), ASCII-encoded,
    formatted :data:`_CHUNK` values at a time (:func:`_chunk_texts`)."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    out = []
    for start in range(0, x.size, _CHUNK):
        out += _chunk_texts(x[start : start + _CHUNK])
    return out


def _chunk_texts(x: np.ndarray) -> list[bytes]:
    """``FLOAT_FORMAT % v`` of each value of the flat float64 array ``x``.

    The kernel settles each value with |x| in _SETTLED: E from log10, moved
    by one where floor(|x| 10^(16-E)) leaves [10^16, 10^17); D rounded half
    to even; its digits through a 10^4-entry table; the text gathered from
    them by the layout of its form, sign and length.  Python's ``%``
    formats the rest: ±0, non-finite values, |x| outside _SETTLED, and
    remainders within _TIE of a tie where 10^k is not a double (an exact
    remainder is rounded here)."""
    mag = np.abs(x)
    settled = (mag >= _SETTLED[0]) & (mag < _SETTLED[1])
    a = np.where(settled, mag, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    d, rem, exact = _scaled(a, 16 - e)
    move = (d >= 10 ** 17).astype(np.int64) - (d < 10 ** 16)
    redo = np.flatnonzero(move)
    if redo.size:
        e[redo] += move[redo]
        d[redo], rem[redo], exact[redo] = _scaled(a[redo], 16 - e[redo])
    settled &= exact | (np.abs(rem - 0.5) >= _TIE)
    d += (rem > 0.5) | ((rem == 0.5) & (d % 2 == 1))
    carry = d == 10 ** 17
    d[carry], e[carry] = 10 ** 16, e[carry] + 1
    words, trailing = _digit_table()
    top, bottom = (part.astype(np.uint32) for part in np.divmod(d, 10 ** 8))
    groups = [top // 10 ** 8, top // 10 ** 4 % 10 ** 4, top % 10 ** 4,
              bottom // 10 ** 4, bottom % 10 ** 4]
    src = np.empty((x.size, 7), dtype=np.uint32)
    for i, group in enumerate(groups):
        src[:, i] = words[group]
    src[:, 5] = words[np.abs(e)]
    src[:, 6] = np.frombuffer(b".-e\0", dtype=np.uint32)[0]
    src = src.view(np.uint8)
    src[:, _EXP_SIGN] = np.where(e < 0, ord("-"), ord("+"))
    zeros, open_end = np.zeros(x.size, dtype=np.intp), np.ones(x.size, dtype=bool)
    for group in groups[:0:-1]:  # D's last word first
        zeros += np.where(open_end, trailing[group], 0)
        open_end &= group == 0
    form = np.where((e >= -4) & (e < 17), e + 4, np.where(np.abs(e) < 100, 21, 22))
    key = np.where(settled, (form * 17 + 16 - zeros) * 2 + (x < 0), _EMPTY)
    rows = np.arange(0, src.size, src.shape[1])[:, None]
    out = src.ravel()[_layouts()[key] + rows].view(f"S{_WIDTH}").ravel().tolist()
    rest = np.flatnonzero(~settled)
    for i, v in zip(rest.tolist(), x[rest].tolist()):
        out[i] = (FLOAT_FORMAT % v).encode()
    return out


def _comma_texts(values) -> np.ndarray:
    """``FLOAT_FORMAT`` text of each value followed by a comma (object
    array of ASCII bytes)."""
    return np.array([(FLOAT_FORMAT % v + ",").encode() for v in values.tolist()], dtype=object)


def grid_csv_rows(axes, values, start: int = 0, column=None) -> bytes:
    """CSV rows ``index,coordinates,[column,]re,im`` over the C-order product
    of the coordinate arrays ``axes`` (last axis fastest), indexed from
    ``start``, with the complex ``values`` in the same order, as ASCII bytes.

    Every field is the text of ``FLOAT_FORMAT``.  Each axis value and each
    distinct value of the per-node real ``column`` (distinct by bit
    pattern, so 0.0 and -0.0 stay apart) is formatted once by ``%`` and
    gathered by index; re and im are formatted by :func:`_float_texts`,
    which gives the bytes of ``%`` in numpy; each row is one ``%`` call.
    """
    lead = np.array([b""], dtype=object)
    for axis in axes:
        lead = np.add.outer(lead, _comma_texts(axis)).ravel()
    if column is not None:
        bits = np.ascontiguousarray(column, dtype=np.float64).view(np.uint64)
        distinct, index = np.unique(bits, return_inverse=True)
        lead += _comma_texts(distinct.view(np.float64))[index]
    values = values.ravel()
    return b"".join([b"%d,%s%s,%s\n" % fields for fields in zip(
        range(start, start + lead.size), lead.tolist(),
        _float_texts(values.real), _float_texts(values.imag))])


def check_finite_rows(values, kind: str) -> None:
    """Raise ``ValueError`` naming the first row of a ``kind`` CSV whose
    value in ``values`` (one per data row) is not finite: :func:`read_csv`
    rejects such a file, so the writers refuse it before they open one."""
    bad = np.flatnonzero(~np.isfinite(values.ravel()))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{kind} CSV: non-finite value {values.ravel()[i]} in row {i + 2} "
                         f"(index {i}) cannot be written")


def save_state_csv(path, state: DiscretizedState) -> None:
    """Write index, grid coordinates, re, im per sample: the coordinates
    formatted once per axis value (:func:`grid_csv_rows`)."""
    g = state.grid
    check_finite_rows(state.samples, "signal")
    with open(path, "wb") as fh:
        fh.write(("index," + ",".join(_coord_names(g.dim)) + ",re,im\n").encode())
        fh.write(grid_csv_rows([g.axis(i) for i in range(g.dim)], state.samples))


def dump_json(path, payload) -> None:
    """Write ``payload`` as sorted, two-space indented JSON and a newline to
    ``path`` (standard output if None): the layout of every JSON file here."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def grid_record(grid: StateGrid) -> dict:
    """The grid's fields as JSON lists (the ``.grid.json`` payload)."""
    return {"offsets": list(grid.offsets), "spacings": list(grid.spacings),
            "counts": list(grid.counts)}


def save_grid_json(path, grid: StateGrid) -> None:
    dump_json(path, grid_record(grid))


def load_grid_json(path) -> StateGrid:
    with open(path) as fh:
        payload = json.load(fh)
    return StateGrid(
        offsets=tuple(payload["offsets"]),
        spacings=tuple(payload["spacings"]),
        counts=tuple(payload["counts"]),
    )


def read_csv(path, kind: str, usecols=None, header=None) -> tuple[list[str], np.ndarray]:
    """The header names and the float columns ``usecols`` (all if None),
    shape (rows, columns), of a ``kind`` ('signal', 'coefficient') CSV.

    The header must equal ``header`` if given, else run ``index,...,re,im``.
    One pass over the bytes counts each line's commas, so a row with another
    field count is named by its line (empty lines are skipped); then
    ``np.loadtxt`` parses ``usecols``.  No data row, a malformed number or a
    non-finite value also raises ``ValueError``."""
    with open(path, "rb") as fh:
        data = fh.read()
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.append(np.flatnonzero(buf == ord("\n")), buf.size)
    names = data[: ends[0]].decode(errors="replace").strip().split(",")
    if names != (header or ["index"] + names[1:-2] + ["re", "im"]):
        raise ValueError(f"malformed {kind} CSV header: {names}")
    commas = np.diff(np.searchsorted(np.flatnonzero(buf == ord(",")), ends), prepend=0)
    # line 0, the header, has len(names) - 1 commas by construction
    for line in np.flatnonzero(commas != len(names) - 1):
        if data[ends[line - 1] + 1 : ends[line]].rstrip(b"\r"):  # empty lines are skipped
            raise ValueError(f"{kind} CSV: malformed row {line + 1} "
                             f"({commas[line] + 1} fields, not {len(names)})")
    if not commas[1:].any():
        raise ValueError(f"{kind} CSV contains no data rows")
    try:
        values = np.loadtxt(path, delimiter=",", comments=None, skiprows=1, usecols=usecols,
                            ndmin=2)
    except ValueError as exc:
        # np.loadtxt numbers the data rows from 0, empty lines left out
        rows, at = np.flatnonzero(commas[1:]) + 2, re.search(r"at row (\d+)", str(exc))
        line = f" {rows[int(at[1])]}" if at and int(at[1]) < rows.size else ""
        raise ValueError(f"{kind} CSV: malformed row{line} ({exc})") from None
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{kind} CSV contains non-finite values")
    return names, values


def load_state_csv(path, grid: StateGrid | None = None) -> DiscretizedState:
    """Read a signal CSV (:func:`read_csv`); infers a 1-d grid from the
    coordinate column when none is supplied."""
    names, data = read_csv(path, "signal")
    values = data[:, -2] + 1j * data[:, -1]
    if grid is None:
        if len(names) != 4:
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
