"""Discretized unitary and projective representations on sampled L2 states.

The concrete actions:

* ``wh_rep``      -- polarized Weyl-Heisenberg representation
                     (U(k,p,q) f)(x) = e^{i(k kc + p.x)} f(x + kc q)  on L2(R^n);
* ``affine_rep``  -- (U(b,a) f)(x) = a^{-n/2} f((x-b)/a), applied in the
                     frequency domain (a^{n/2} e^{i w.b} fhat(a w)) so small
                     scales stay numerically clean;
* ``exotic_rep``  -- the induced-representation display of the 3n+4
                     dimensional example on L2((0,inf) x R^n, db dp);
* ``displacement``-- the coherent-state displacement operator
                     D(q,p) = e^{-i p.q/2} e^{i p.x} f(x - q).

Each factory declares its action a second time, as an :class:`ActionTable`
with one :class:`AxisRole` per chart axis g: a scalar phase e^{i c g}, a
modulation e^{i g x_j} or a translation f(x_j - c g) of state axis j, a
dilation f(g x) of listed state axes with weight g^{m/2}, or inert (a phase
with c = 0); the affine table acts on Fourier samples.  The table declares
the state space once (``state_lower``: L2(R^n) for Weyl-Heisenberg and
affine, L2((0, inf) x R^n) for exotic), and its one guard ``check`` holds
every state of ``act`` and of the engine to it.  One engine turns a
table into the spec's batched ``fast_coefficients`` (c(g) = <U(g) psi, phi>
over a quadrature grid) and ``fast_adjoint`` (sum_g c(g) w(g) U(g) psi), for
any n, on the G chart or on the quotient X.  Every spec has a table:
``projective_from_section`` restricts the rep's table to the subgroup's X
axes, and a section with K-offset k(x), s(x) = s0(x) k(x) for the coordinate
section s0, adds the gauge phase of U(k) = e^{i chi(k)}:

    c_s(x) = e^{-i chi(k(x))} c_{s0}(x);

``lift_to_extension`` puts a phase role for the T axis in front of the
projective table; both keep the state space.  The literal ``action`` stays
the independent reference.

Non-grid translations use FFT phase ramps, dilations band-limited
resampling, so a sampled coefficient is the paper's only inside the grid-safe
box that :meth:`ActionTable.safe_box` derives from the roles and psi's state
grid: |c g| <= L_j / 2 (L_j = N_j h_j) for a shift by c g in position (a
translation, or a modulation of a ``fourier`` table), 0.8 pi / h_j in
frequency, a declared scale range for a dilation, none for a phase.  ``act``
and ``transforms``' grid guard raise past it (``ActionTable.require_safe``).

The engine never translates a state.  Along its axis ``states.translate``
is T_s = F^-1 diag(e^{-i w_k s}) F, with F the DFT and w_k = 2 pi k / (N h)
its frequencies in ``np.fft`` order, so for any samples u and h

    sum_x conj(T_s u)(x) h(x) = (1/N) sum_k e^{+i w_k s} conj(Fu)_k (Fh)_k

exactly in exact arithmetic: a translation role is a matrix of phases over
(chart axis, k_j), as a modulation role is one over (chart axis, x_j).
``coefficients`` puts the phi side into k-space once per call,
h^ = F_j(phi cell E_j) with the modulation E_j of the same state axis folded
in (one transform per modulation node), and the dilated psi once per block
(a cached entry; see below).
Per block it contracts each k_j with its translation matrix, one BLAS
matmul batched over the untranslated state axes, then each untranslated
state axis with its modulation matrix, and writes the result in chart order.
``adjoint`` runs the steps backwards, accumulates in k-space, and runs one
inverse FFT per modulation node of the translated axes before applying E_j.
Blocks stream over the dilation nodes and the modulation nodes of the
translated axes, about ``CHUNK`` samples each (at least one node).  h^
is not streamed: it holds prod_j P_j x (state samples), P_j the modulation
nodes of translated axis j (40 x 64^2 on the bundled exotic grid).  A table
without a translation role (the affine one) runs the same steps with no
transform and no phi-side modulation.

The engine dilates every scale of a block with one batched
``axis_resample`` per dilated state axis.  The psi-independent work (here
the whole contraction plan: einsum labels, the phase, modulation and
translation matrices sorted into phi-side modulations and ordered
contraction steps; in ``states`` the chirp-z factors of each scale ladder)
is done once per grid and held in bounded ``functools.lru_cache``s of
``PLAN_CACHE`` entries, keyed by value (roles, chart-axis nodes, state
grid, sign), so a rebuilt grid hits them too.  A plan is made of tuples
and read-only arrays, since every later call shares it.  The psi side is
cached the same way, one entry per dictionary block
(``_dictionary_block``): the dilated, weighted and Fourier transformed
psi, keyed by the dilated state axes, the transformed array axes, the
table's ``fourier`` flag, psi's own sample bytes with their dtype and
shape, its state grid, the bytes of the block's scales and the block step,
so the equal psi that each CLI call builds afresh hits too, and only a miss
Fourier-Plancherel transforms psi.  The block is cached before its fold:
``coefficients`` conjugates a copy per call and ``adjoint`` uses it as it
is, so analysis, synthesis and every streamed integral share one entry.
An entry holds at most ``CHUNK`` complex samples (4 MiB) for a state of at
most ``CHUNK`` samples, so the cache holds at most 64 MiB; the bundled grids
take 4 KiB (Gabor, one block of the undilated psi), 1.3 MB (affine, 160
scales of 512 samples) and 3.1 MB (exotic, 48 scales of 64^2 samples).
Entries are filled in the calling thread and kept in anonymous memory maps
(``states.frozen_copy``), as the plans are.

The blocks of one call are independent: a coefficient block writes its own
slice of the result, and an adjoint block returns its state-sized term of
the sum.  A call of more than one block runs them on a thread pool (numpy
releases the GIL in BLAS, the FFT and large ufuncs) of the usable CPUs over
the BLAS threads set by ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``MKL_NUM_THREADS``.  With none set BLAS threads itself, so the blocks run
inline, as does a call of one block (every bundled grid but the exotic
one, which streams 40).  The calling thread draws the dictionary, at most
workers + 1 blocks ahead of the results it has taken, and adds the
adjoint's terms in block order, so the results are bit-identical for any
worker count and the blocks in flight, not the whole dictionary, bound the
memory.  The pool lives for one call: kept for the life of the process,
its idle threads made later single-threaded calls measurably slower.

``coefficients`` and ``coefficient_blocks`` run the same block task and
differ only in its destination.  ``coefficients`` hands each block its
slice of the result; ``coefficient_blocks`` hands it a C-ordered,
chart-shaped buffer of its own, made in the calling thread as it draws the
block, and yields (slices, buffer) in block order, so a reduction over the
grid (every coefficient integral of ``transforms``) holds the blocks in
flight, not the grid's coefficients.  Either way the calling thread
applies a section's gauge phase to each block, evaluated on the block's
nodes, and ``adjoint`` so gauges each block of coeffs w as it draws it:
no weighted copy of the grid's coefficients is made.
"""

from __future__ import annotations

import collections
import contextlib
from dataclasses import dataclass, replace
import functools
import itertools
import os
from typing import Callable, NamedTuple, Optional

import numpy as np

from .groups import GroupDescriptor, QuadratureGrid, make_affine, make_exotic, make_polarized_wh
from .multipliers import (
    Multiplier,
    Section,
    central_extension,
    conjugate,
    multiplier_from_section,
)
from .states import (
    PLAN_CACHE,
    DiscretizedState,
    _check_compatible,
    axis_resample,
    fourier_plancherel,
    frequency_grid,
    frozen_copy,
    inner,
    inverse_fourier_plancherel,
    modulate,
    translate,
)

__all__ = [
    "AxisRole",
    "ActionTable",
    "UnitaryRepSpec",
    "ProjectiveRepSpec",
    "GridSafetyError",
    "wh_rep",
    "affine_rep",
    "exotic_rep",
    "displacement",
    "projective_from_section",
    "lift_to_extension",
    "coefficient",
]

# complex samples per streamed block of the engine (a block of dilated psi
# times the modulation nodes of the translated axes it meets): bounds the
# blocks' working memory on any grid (2^20 raised the peak memory of the
# exotic verify suite by 40 MB and saved only about 3 % of its time)
CHUNK = 1 << 18


class GridSafetyError(ValueError):
    """A point or grid past an action table's grid-safe box, or a state outside its space."""


@dataclass(frozen=True)
class AxisRole:
    """What one chart coordinate g does to a state (see the module header)."""

    kind: str  # phase | modulate | translate | dilate
    axes: tuple[int, ...] = ()  # the state axes it acts on
    coef: float = 0.0  # c of the phase c g or of the translation by c g
    scale_max: float = np.inf  # a dilation's declared scale range [1/scale_max, scale_max]


@dataclass(frozen=True)
class ActionTable:
    """A representation in factored form, one role per chart axis:

        U(g) f (x) = e^{i sum c g} e^{i sum g x_j} a^{m/2} f(a (x - sum c g e_j))

    where a dilates the m state axes of the one dilation role (if any); a
    state axis has at most one modulation and one translation role.  With
    ``fourier`` the roles act on Fourier-Plancherel samples, U = F^-1 (.) F.
    A ``gauge`` gamma (chart nodes -> phases) multiplies the whole action by
    e^{i gamma(g)}: the scalar that a non-coordinate section adds.

    ``state_lower`` declares the state space: one open lower bound per state
    axis, NaN if unbounded (as ``GroupDescriptor.domain_lower``), so its
    length is the state dimension; an axis without a role is left alone.

    :meth:`coefficients` and :meth:`adjoint` apply a translation by c g as
    the phases e^{+i w_k c g} (of conj(U)) or e^{-i w_k c g} (of U) on the
    DFT of its state axis, never as a translated state (see the module
    header).
    """

    roles: tuple[AxisRole, ...]
    state_lower: tuple[float, ...]
    fourier: bool = False
    gauge: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        acting = [(r.kind, j) for r in self.roles if r.kind != "phase" for j in r.axes]
        if len(set(acting)) < len(acting) or sum(r.kind == "dilate" for r in self.roles) > 1:
            raise ValueError("an action table has at most one dilation role, and one modulation "
                             "and one translation role per state axis")
        if not all(0 <= j < len(self.state_lower) for _, j in acting):
            raise ValueError("a role acts on a state axis outside the declared state space")

    def coefficients(self, psi: DiscretizedState, phi: DiscretizedState,
                     grid: QuadratureGrid) -> np.ndarray:
        """c(g) = <U(g) psi, phi> at every node of ``grid``, raveled like its
        nodes."""
        out = np.empty(grid.resolution, dtype=complex)
        for _ in self._blocks(psi, phi, grid, lambda at: out[at]):
            pass
        return out.ravel()

    def coefficient_blocks(self, psi: DiscretizedState, phi: DiscretizedState,
                           grid: QuadratureGrid):
        """The coefficients of :meth:`coefficients`, streamed in engine block
        order: yields (at, c), ``at`` slicing the block's nodes out of a
        chart-shaped array and ``c`` their values, a C-ordered chart-shaped
        array of its own.  No array of the whole grid is made; a reduction
        over the blocks holds the blocks in flight only."""
        return self._blocks(psi, phi, grid, lambda at: np.empty(
            tuple(len(range(n)[s]) for s, n in zip(at, grid.resolution)), dtype=complex))

    def _blocks(self, psi, phi, grid, dest):
        """Yield (at, c) for the engine blocks of c(g) = <U(g) psi, phi> in
        block order: the one block task writes the nodes ``at`` into
        ``c = dest(at)``, which the calling thread makes as it draws the
        block, and the calling thread then applies the gauge phase, if any,
        from the block's nodes.  psi and phi must share their state grid, as
        for ``states.inner`` (``GridMismatchError`` otherwise).  psi is
        only checked here: the dictionary keys it raw and transforms it on
        a miss."""
        self.check(psi)
        self.check(phi)
        _check_compatible(psi, phi)  # before the transform: a Fourier grid drops the offsets
        phi = fourier_plancherel(phi) if self.fourier else phi
        plan = self._plan(grid, phi.grid, -1)
        chart, state, phases, mods, steps, moved, lead = plan
        weight = phi.samples * phi.grid.cell_volume
        hat = np.fft.fftn(np.einsum(weight, state, *mods, lead + state), axes=moved, norm="forward")
        # a length-1 axis for the dilation, if any, to broadcast against the blocks
        dilates = any(r.kind == "dilate" for r in self.roles)
        hat = hat.reshape(hat.shape[: len(lead)] + (1,) * dilates + phi.grid.counts)

        def task(at, labels, block, out):
            g, labels = hat[tuple(at[i] for i in lead)] * block, lead + labels
            for matrix, (new, old) in steps:
                g, labels = _contract(g, labels, matrix, old, new)
            np.einsum(g, labels, *phases, chart, out=out)
            return at, out

        blocks = (b + (dest(b[0]),) for b in self._dictionary(psi, grid, plan, np.conj))
        with contextlib.closing(_blockwise(task, blocks)) as results:
            for at, c in results:
                yield at, self._gauge_block(c, grid, at, -1)

    def adjoint(self, coeffs: np.ndarray, grid: QuadratureGrid,
                psi: DiscretizedState) -> DiscretizedState:
        """sum_g coeffs(g) w(g) U(g) psi over the nodes of ``grid``: the exact
        adjoint of :meth:`coefficients` in phi.  The calling thread makes
        each block's coeffs w, from the block's slab of the weights
        (:meth:`QuadratureGrid.slab_weights`), gauge phase applied, as it
        draws the block."""
        self.check(psi)
        domain = frequency_grid(psi.grid) if self.fourier else psi.grid
        c = np.asarray(coeffs).reshape(grid.resolution)
        plan = self._plan(grid, domain, 1)
        chart, state, phases, mods, steps, moved, lead = plan
        unphased = tuple(i for i in chart if self.roles[i].kind != "phase")

        def task(at, labels, block, cw):
            v, v_labels = np.einsum(cw, chart, *phases, unphased), unphased
            for matrix, (new, old) in reversed(steps):
                v, v_labels = _contract(v, v_labels, matrix.T, new, old)
            v = np.fft.ifftn(np.einsum(v, v_labels, block, labels, lead + state), axes=moved)
            # the first modulation is that of lead[0], the axis the blocks slice
            return np.einsum(v, lead + state, *((mods[0][at[lead[0]]],) + mods[1:] if mods else ()),
                             state)

        acc = np.zeros(domain.counts, dtype=complex)
        blocks = (b + (self._gauge_block(c[b[0]] * grid.slab_weights(b[0]), grid, b[0], 1),)
                  for b in self._dictionary(psi, grid, plan))
        # summed here in block order: the same additions as a serial loop
        for term in _blockwise(task, blocks):
            acc += term
        out = DiscretizedState(acc, domain)
        return inverse_fourier_plancherel(out, psi.grid) if self.fourier else out

    def _gauge_block(self, values, grid, at, sign):
        """Multiply ``values``, the block ``at`` of a chart-shaped array of
        ``grid``, by e^{sign i gamma} in place, evaluating gamma on the
        block's nodes; the engine's one gauge path."""
        if self.gauge is not None:
            values *= np.exp(sign * 1j * self.gauge(grid.slab_nodes(at))).reshape(values.shape)
        return values

    def check(self, state: DiscretizedState) -> None:
        """Raise if ``state`` is not in the declared state space: a grid of
        another dimension raises ``ValueError``, and an axis whose first
        sample is at or below its lower bound :class:`GridSafetyError`."""
        grid, lower = state.grid, self.state_lower
        if grid.dim != len(lower):
            raise ValueError(f"state grid is {grid.dim}-D, not the {len(lower)}-D state space")
        for j, bound in enumerate(lower):
            if grid.offsets[j] <= bound:  # False for NaN: unbounded
                raise GridSafetyError(f"state axis {j} starts at {grid.offsets[j]:g}, at or "
                                      f"below its open lower bound {bound:g}")

    def safe_box(self, grid) -> tuple[tuple[float, float], ...]:
        """The grid-safe (lo, hi) of each chart axis on psi's state ``grid`` (module header)."""
        box = []
        for r in self.roles:
            if r.kind == "dilate":
                box.append((1.0 / r.scale_max, r.scale_max))
            elif r.kind == "phase":
                box.append((-np.inf, np.inf))
            else:
                j, c = r.axes[0], abs(r.coef) if r.kind == "translate" else 1.0
                bound = float(grid.counts[j] * grid.spacings[j] / (2.0 * c)  # a shift in position
                              if (r.kind == "translate") != self.fourier
                              else 0.8 * (np.pi / grid.spacings[j]) / c)  # one in frequency
                box.append((-bound, bound))
        return tuple(box)

    def require_safe(self, label: str, box, state: DiscretizedState) -> None:
        """The one grid-safety check: ``state`` passes :meth:`check`, and each (lo, hi) of
        ``box`` (a grid's box, or (g, g) for a point g) lies in :meth:`safe_box` of its grid."""
        self.check(state)
        if len(box) != len(self.roles):
            raise ValueError(f"{label}: {len(box)} chart coordinates, not {len(self.roles)}")
        safe = self.safe_box(state.grid)
        for i, ((lo, hi), (slo, shi)) in enumerate(zip(box, safe)):
            if not (slo <= lo and hi <= shi):  # NaN fails too
                raise GridSafetyError(
                    f"{label}: box {list(box)} leaves the grid-safe box {list(safe)} of its "
                    f"state grid: chart axis {i} ({self.roles[i].kind}) reaches [{lo:g}, {hi:g}] "
                    f"past its limit [{slo:g}, {shi:g}]")

    def _plan(self, grid, state_grid, sign):
        """The cached :func:`_factor_plan` of ``grid``'s chart-axis nodes."""
        axes = tuple(grid.axis(i).tobytes() for i in range(len(self.roles)))
        return _factor_plan(self.roles, axes, state_grid, sign)

    def _dictionary(self, state, grid, plan, fold=None):
        """Stream ``fold`` (if any) of a^{m/2} D_a of the state in the
        table's domain (its Fourier-Plancherel transform for a ``fourier``
        table), Fourier transformed (``np.fft`` order) along the array axes
        ``plan.moved``, over the dilation nodes in blocks of about
        ``CHUNK`` samples, each block once per block of the nodes of chart
        axis ``lead[0]`` (``lead`` = ``plan.lead``, if any) such that it
        times the nodes of ``lead[1:]`` is about ``CHUNK`` samples: yields
        (at, labels, block), ``at`` slicing the nodes out of a chart-shaped
        array and ``labels`` naming the block's axes.  ``state`` is the raw
        psi; each block before its fold is the cached
        :func:`_dictionary_block` of psi and the block's scales."""
        dil = [i for i, r in enumerate(self.roles) if r.kind == "dilate"]
        lead = plan.lead
        scales = grid.axis(dil[0]) if dil else np.ones(1)
        labels = tuple(dil) + plan.state
        rows = int(np.prod([grid.resolution[i] for i in lead[1:]]))
        samples = state.samples
        step = max(1, CHUNK // samples.size)
        key = (self.roles[dil[0]].axes if dil else (), plan.moved, self.fourier,
               samples.tobytes(), samples.dtype.str, samples.shape, state.grid)
        for d0 in range(0, len(scales), step):
            block = _dictionary_block(*key, scales[d0 : d0 + step].tobytes(), step)
            block = fold(block) if fold else block
            at = [slice(None)] * len(self.roles)
            if dil:
                at[dil[0]] = slice(d0, d0 + step)
            p_step = max(1, CHUNK // (block.size * rows))
            for p0 in range(0, grid.resolution[lead[0]] if lead else 1, p_step):
                if lead:
                    at[lead[0]] = slice(p0, p0 + p_step)
                yield tuple(at), labels, block if dil else block[0]


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where the
    platform has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers() -> int:
    """Threads for the blocks of one engine call: the usable CPUs over the
    BLAS threads that each block's matmuls take.  With no BLAS thread count
    set (or one BLAS reads as its default), BLAS already threads on every
    CPU, so the blocks run inline."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if var in os.environ:
            try:
                threads = int(os.environ[var])
            except ValueError:
                return 1
            if threads < 1:
                return 1
            return max(1, usable_cpus() // threads)
    return 1


def _blockwise(task, blocks):
    """Yield ``task(*block)`` for each block of ``blocks``, in block order.
    With more than one block and more than one worker (:func:`_workers`)
    the tasks run on a thread pool of the call, while ``blocks`` is drawn
    in the calling thread at most ``workers + 1`` blocks ahead of the
    results yielded: in-flight blocks bound the memory, and a task touches
    only numpy and the grid's slabs, so the benchmark tracer's span stack
    never sees a worker thread.  A task's exception is raised here, and
    the pool is shut down (queued tasks cancelled, running ones waited
    for) before the call returns or raises: no idle thread outlives it,
    and a forked child never inherits one."""
    workers = _workers()
    blocks = iter(blocks)
    head = list(itertools.islice(blocks, 2)) if workers > 1 else []
    if len(head) < 2:
        for block in itertools.chain(head, blocks):
            yield task(*block)
        return
    from concurrent.futures import ThreadPoolExecutor

    pool, pending = ThreadPoolExecutor(workers, "groupwave-engine"), collections.deque()
    try:
        for block in itertools.chain(head, blocks):
            pending.append(pool.submit(task, *block))
            if len(pending) > workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _contract(a, labels, matrix, old, new):
    """Contract axis ``old`` of ``a`` with the columns of ``matrix`` in one
    BLAS matmul; the made axis ``new`` goes last."""
    i = labels.index(old)
    return np.tensordot(a, matrix, axes=(i, 1)), labels[:i] + labels[i + 1 :] + (new,)


@functools.lru_cache(maxsize=PLAN_CACHE)
def _dictionary_block(dilated, moved, fourier, samples, dtype, shape, state_grid, scales, step):
    """One block of :meth:`ActionTable._dictionary` before its fold:
    a^{m/2} D_a of the state ``np.frombuffer(samples, dtype).reshape(shape)``
    on ``state_grid``, Fourier-Plancherel transformed first if ``fourier``,
    dilated along the state axes ``dilated`` for the scales
    ``np.frombuffer(scales)`` (the block's slice of a ladder cut in blocks
    of ``step``) and Fourier transformed along the array axes ``moved``.
    Cached by value, read-only (see :func:`states.frozen_copy`), so a
    rebuilt psi hits, and a hit transforms nothing; the caller folds a
    copy."""
    a = np.frombuffer(scales)
    out = DiscretizedState(np.frombuffer(samples, dtype).reshape(shape), state_grid)
    if fourier:
        out = fourier_plancherel(out)
    for j in dilated:
        out = axis_resample(out, j, a, 0.0)
    # float_power is libm's pow, as a per-scale a^{m/2} was; an array
    # ``** 2`` squares and differs in the last bit
    block = out.samples * np.float_power(np.sqrt(a), len(dilated)).reshape(
        (-1,) + (1,) * state_grid.dim)
    return frozen_copy(np.fft.fftn(block, axes=moved))  # no translation role: ``block`` itself


class _Plan(NamedTuple):
    """The k-space contraction of an action table over one grid (see
    :func:`_factor_plan`); every part is a tuple or a read-only array."""

    chart: tuple  # einsum labels of the chart axes
    state: tuple  # einsum labels of the state axes
    phases: tuple  # einsum operands (factor, labels) of the phase roles
    mods: tuple  # the same of the modulations of translated state axes
    steps: tuple  # (matrix, (axis made, axis contracted)) in contraction order
    moved: tuple  # translated state axes, as array axes counted from the end
    lead: tuple  # chart axes of ``mods``


@functools.lru_cache(maxsize=PLAN_CACHE)
def _factor_plan(roles, axes, state_grid, sign):
    """The contraction plan of the roles over the chart axes ``axes`` (node
    values as bytes): e^{sign i c g} over chart axis i for a phase role,
    e^{sign i g x_j} over (chart axis i, state axis j) for a modulation, and
    e^{-sign i c g w_k} over (chart axis i, frequency w_k of state axis j in
    ``np.fft`` order) for a translation; sign -1 gives the factors of
    conj(U(g)), +1 those of U(g).  The modulations of translated state axes
    are folded into the phi side (``mods``); the other matrices are
    contraction ``steps``, translations (of the last state axis first, which
    needs no transposed copy) before modulations.  Cached by value, every
    array read-only (see :func:`states.frozen_copy`)."""
    dim = state_grid.dim
    chart, state = tuple(range(len(roles))), tuple(len(roles) + j for j in range(dim))
    moved = tuple(r.axes[0] - dim for r in roles if r.kind == "translate")
    phases, mods, steps = (), (), []
    for i, r in enumerate(roles):
        g = np.frombuffer(axes[i])
        if r.kind == "phase":
            phases += (frozen_copy(np.exp(sign * 1j * r.coef * g)), (i,))
        elif r.kind != "dilate":
            j = r.axes[0]
            x = (state_grid.axis(j) if r.kind == "modulate" else -r.coef * 2.0 * np.pi
                 * np.fft.fftfreq(state_grid.counts[j], d=state_grid.spacings[j]))
            f = frozen_copy(np.exp(sign * 1j * np.outer(g, x)))
            if r.kind == "modulate" and j - dim in moved:
                mods += (f, (i, state[j]))
            else:
                steps.append((f, (i, state[j])))
    steps.sort(key=lambda step: (roles[step[1][0]].kind == "modulate", -step[1][1]))
    return _Plan(chart, state, phases, mods, tuple(steps), moved,
                 tuple(labels[0] for labels in mods[1::2]))


@dataclass(frozen=True)
class UnitaryRepSpec:
    """A strongly continuous unitary representation acting on sampled states.

    ``action(coords, state)`` must be unitary for grid-safe coords and satisfy
    action(g, action(h, f)) = action(gh, f) up to the declared tolerance.
    ``act`` rejects a state outside the table's state space and a point past
    the table's grid-safe box on the state's grid (``table.require_safe``).
    ``table`` is the same action in factored form (see the module header);
    ``fast_coefficients(psi, phi, grid)`` and ``fast_adjoint(coeffs, grid,
    psi)`` are its batched engine, which ``analyze`` and ``synthesize`` run
    for every spec.
    """

    group: GroupDescriptor
    action: Callable[[np.ndarray, DiscretizedState], DiscretizedState]
    label: str
    table: ActionTable
    fast_coefficients: Callable[[DiscretizedState, DiscretizedState, QuadratureGrid], np.ndarray]
    fast_adjoint: Callable[[np.ndarray, QuadratureGrid, DiscretizedState], DiscretizedState]

    def act(self, g, state: DiscretizedState) -> DiscretizedState:
        g = np.asarray(g, dtype=float)
        self.table.require_safe(self.label, [(x, x) for x in g.tolist()], state)
        return self.action(g, state)


def _engine(table: ActionTable) -> dict:
    """Spec fields of the batched engine of ``table``."""
    return dict(table=table, fast_coefficients=table.coefficients, fast_adjoint=table.adjoint)


@dataclass(frozen=True)
class ProjectiveRepSpec(UnitaryRepSpec):
    """Projective representation: P(xy) = m(x, y) P(x) P(y)."""

    multiplier: Multiplier = None  # type: ignore[assignment]


def coefficient(rep: UnitaryRepSpec, psi: DiscretizedState, phi: DiscretizedState, g) -> complex:
    """c_{psi,phi}(g) = <U(g) psi, phi>; bounded by ||psi|| ||phi||."""
    return inner(rep.act(g, psi), phi)


# ---------------------------------------------------------------------------
# Weyl-Heisenberg representation
# ---------------------------------------------------------------------------


def wh_rep(k_check: float, n: int = 1) -> UnitaryRepSpec:
    """U_kc(k, p, q) f(x) = e^{i(k kc + p.x)} f(x + kc q) on L2(R^n).

    kc = 0 is rejected: the representation with trivial central character has
    singleton dual orbits and is never square integrable modulo the centre.
    """
    if k_check == 0:
        raise ValueError("central parameter must be nonzero")
    kc = float(k_check)
    def action(g, state):
        g = np.asarray(g, dtype=float)
        k, p, q = g[0], g[1 : 1 + n], g[1 + n :]
        out = translate(state, -kc * q)
        return modulate(out, p, extra_phase=k * kc)

    return UnitaryRepSpec(
        group=make_polarized_wh(n),
        action=action,
        label=f"wh[k={kc}]",
        **_engine(ActionTable(
            (AxisRole("phase", coef=kc),)
            + tuple(AxisRole("modulate", (j,)) for j in range(n))
            + tuple(AxisRole("translate", (j,), -kc) for j in range(n)),
            state_lower=(np.nan,) * n,
        )),
    )


def displacement(q, p) -> Callable[[DiscretizedState], DiscretizedState]:
    """Coherent-state displacement (D f)(x) = e^{-i p.q/2} e^{i p.x} f(x - q).

    Coincides with the section pullback of the Weyl-Heisenberg representation
    at central parameter -1 through the symmetric section.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))

    def apply(state: DiscretizedState) -> DiscretizedState:
        out = translate(state, q)
        return modulate(out, p, extra_phase=-0.5 * float(np.dot(p, q)))

    return apply


# ---------------------------------------------------------------------------
# Affine representation
# ---------------------------------------------------------------------------


def affine_rep(n: int = 1) -> UnitaryRepSpec:
    """(U(b, a) f)(x) = a^{-n/2} f((x - b)/a), computed in the frequency domain.

    The Fourier side is a^{n/2} e^{i w.b} fhat(a w): resampling the spectrum
    keeps the small-scale (a << 1) coefficients accurate even when the
    position-space image of the state would fall below grid resolution.
    The grid-safe box is |b_j| <= L_j / 2 on a state box of side L_j and the
    declared 1/64 <= a <= 64; unitarity of the action itself additionally
    needs the dilated state to stay inside band and box.
    """

    def action(g, state):
        g = np.asarray(g, dtype=float)
        b, a = g[:n], g[n]
        spec = fourier_plancherel(state)
        out = spec
        for ax in range(n):
            out = axis_resample(out, ax, a, 0.0)
        phase = np.zeros(out.grid.counts)
        meshes = out.grid.meshes()
        for ax in range(n):
            phase = phase + b[ax] * meshes[ax]
        out = out.with_samples(out.samples * (a ** (n / 2.0)) * np.exp(1j * phase))
        return inverse_fourier_plancherel(out, state.grid)

    return UnitaryRepSpec(
        group=make_affine(n),
        action=action,
        label=f"affine[n={n}]",
        **_engine(ActionTable(
            tuple(AxisRole("modulate", (j,)) for j in range(n))
            + (AxisRole("dilate", tuple(range(n)), scale_max=64.0),),
            state_lower=(np.nan,) * n,
            fourier=True,
        )),
    )


# ---------------------------------------------------------------------------
# Exotic-group representation
# ---------------------------------------------------------------------------


def exotic_rep(n: int = 1) -> UnitaryRepSpec:
    """(U(t,s,b,p,q,r,a) f)(bc, pc) = a^{1/2} e^{it} e^{i(b bc + p.pc)}
    f(a bc, pc + q)  on L2((0, inf) x R^n, dbc dpc).

    This is the representation display of the worked example at k = 0,
    implemented literally; for k != 0 the display (a factor e^{i k.r}) is not
    a homomorphism in the r-a sector.  The s coordinate never acts (the
    inducing character has scheck = 0 on the orbit), nor does r at k = 0, so
    the restriction to T x S x R is the scalar e^{it} by construction.  The
    grid-safe box is 1/16 <= a <= 16 and, on the bundled state grid, |b| <=
    20.1, |p| <= 10.05 and |q| <= 8.  A state grid sits half a cell clear of
    bc = 0; one reaching bc <= 0 raises :class:`GridSafetyError`.
    """
    sl_p = slice(3, 3 + n)
    sl_q = slice(3 + n, 3 + 2 * n)
    ia = 3 + 3 * n
    def action(g, state):
        g = np.asarray(g, dtype=float)
        t, b, a = g[0], g[2], g[ia]
        p, q = g[sl_p], g[sl_q]
        out = axis_resample(state, 0, a, 0.0)  # f(a bc, pc)
        out = translate(out, np.concatenate([[0.0], -q]))  # pc -> pc + q
        freq = np.concatenate([[b], p])
        return modulate(out.with_samples(out.samples * np.sqrt(a)), freq, t)

    return UnitaryRepSpec(
        group=make_exotic(n),
        action=action,
        label=f"exotic[n={n}]",
        **_engine(ActionTable(
            (AxisRole("phase", coef=1.0), AxisRole("phase"), AxisRole("modulate", (0,)))
            + tuple(AxisRole("modulate", (1 + j,)) for j in range(n))
            + tuple(AxisRole("translate", (1 + j,), -1.0) for j in range(n))
            + (AxisRole("phase"),) * n
            + (AxisRole("dilate", (0,), scale_max=16.0),),
            state_lower=(0.0,) + (np.nan,) * n,
        )),
    )


# ---------------------------------------------------------------------------
# Section pullbacks and central-extension lifts
# ---------------------------------------------------------------------------


def projective_from_section(rep: UnitaryRepSpec, section: Section) -> ProjectiveRepSpec:
    """P_s(x) = U(s(x)): projective representation of X with multiplier m_s.

    The rep's action table (and with it the grid-safe box) is restricted to
    the subgroup's X axes: that is U(s0(x)) for the coordinate section s0,
    and since K acts by the scalar chi, a section with K-offset k(x) only
    adds the gauge phase gamma(x) = chi(k(x)) (see the module header).
    """
    sub = section.subgroup
    if sub.ambient.name != rep.group.name:
        raise ValueError("section codomain does not match the representation's group")

    def action(x, state):
        return rep.act(section.map(np.asarray(x, dtype=float)), state)

    gauge = None if section.offset is None else (lambda x: sub.chi_phase(section.offset(x)))
    return ProjectiveRepSpec(
        group=sub.quotient,
        action=action,
        label=f"P[{rep.label};{section.label}]",
        multiplier=multiplier_from_section(section),
        **_engine(replace(rep.table, roles=tuple(rep.table.roles[i] for i in sub.x_axes),
                          gauge=gauge)),
    )


def lift_to_extension(proj: ProjectiveRepSpec, variant: str = "standard") -> UnitaryRepSpec:
    """Lift a projective rep to a genuine rep of the central extension.

    standard: U_P(tau, x) = tau^{-1} P(x)  on X_m;
    starred : U_*P(tau, x) = tau P(x)      on X_{m*}.

    Its table is a phase role for theta (tau = e^{i theta}) followed by the
    projective table, whose gauge, if any, reads the X part of the chart.
    """
    if variant not in ("standard", "starred"):
        raise ValueError("variant must be 'standard' or 'starred'")
    m = proj.multiplier if variant == "standard" else conjugate(proj.multiplier)
    extension = central_extension(proj.group, m)
    sign = -1.0 if variant == "standard" else 1.0

    def action(g, state):
        g = np.asarray(g, dtype=float)
        theta, x = g[0], g[1:]
        out = proj.act(x, state)
        return out.with_samples(out.samples * np.exp(1j * sign * theta))

    gauge = proj.table.gauge
    return UnitaryRepSpec(
        group=extension,
        action=action,
        label=f"lift[{proj.label};{variant}]",
        **_engine(replace(
            proj.table,
            roles=(AxisRole("phase", coef=sign),) + proj.table.roles,
            gauge=None if gauge is None else (lambda g: gauge(g[..., 1:])),
        )),
    )
