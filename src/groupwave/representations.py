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
with c = 0); the affine table acts on Fourier samples.  One engine turns a
table into the spec's batched ``fast_coefficients`` (c(g) = <U(g) psi, phi>
over a quadrature grid) and ``fast_adjoint`` (sum_g c(g) w(g) U(g) psi), for
any n, on the G chart or on the quotient X.  Every spec has a table:
``projective_from_section`` restricts the rep's table to the subgroup's X
axes, and a section s other than the coordinate section s0 adds the gauge
phase of s(x) = s0(x) k(x), k(x) in K, U(k) = e^{i chi(k)}:

    c_s(x) = e^{-i chi(k(x))} c_{s0}(x);

``lift_to_extension`` puts a phase role for the T axis in front of the
projective table.  The literal ``action`` stays the independent reference.

Non-grid translations use FFT phase ramps, dilations band-limited
resampling; states are treated as band-limited, so every action declares a
``safe_box`` of group parameters for which aliasing stays negligible for the
shipped test states.  ``analyze`` clips transform grids to this box.

The engine dilates every scale of a block with one batched
``axis_resample`` per dilated state axis.  The psi-independent factors (the
phase and modulation matrices here, the chirp-z factors of each scale ladder
in ``states``) are computed once per grid and held in bounded
``functools.lru_cache``s of ``PLAN_CACHE`` entries, keyed by value (roles,
chart-axis nodes, state grid, sign), so a rebuilt grid hits them too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import functools
from typing import Callable, Optional

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
    axis_resample,
    fourier_plancherel,
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

# complex samples per streamed block of the psi-dictionary: bounds the
# engine's working memory on any grid (2^20 raised the peak memory of the
# exotic verify suite by 40 MB and saved only about 3 % of its time)
CHUNK = 1 << 18


class GridSafetyError(ValueError):
    """Group parameter outside the rep's declared grid-safe box."""


@dataclass(frozen=True)
class AxisRole:
    """What one chart coordinate g does to a state (see the module header)."""

    kind: str  # phase | modulate | translate | dilate
    axes: tuple[int, ...] = ()  # the state axes it acts on
    coef: float = 0.0  # c of the phase c g or of the translation by c g


@dataclass(frozen=True)
class ActionTable:
    """A representation in factored form, one role per chart axis:

        U(g) f (x) = e^{i sum c g} e^{i sum g x_j} a^{m/2} f(a (x - sum c g e_j))

    where a dilates the m state axes of the one dilation role (if any).  With
    ``fourier`` the roles act on Fourier-Plancherel samples, U = F^-1 (.) F.
    A ``gauge`` gamma (chart nodes -> phases) multiplies the whole action by
    e^{i gamma(g)}: the scalar that a non-coordinate section adds.
    """

    roles: tuple[AxisRole, ...]
    fourier: bool = False
    gauge: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if sum(r.kind == "dilate" for r in self.roles) > 1:
            raise ValueError("an action table has at most one dilation axis")

    def coefficients(self, psi: DiscretizedState, phi: DiscretizedState,
                     grid: QuadratureGrid) -> np.ndarray:
        """c(g) = <U(g) psi, phi> at every node of ``grid``, raveled like its
        nodes."""
        psi, phi = self._domain(psi), self._domain(phi)
        out = np.empty(grid.resolution, dtype=complex)
        factors = self._factors(grid, psi.grid, -1)
        weight = phi.samples * psi.grid.cell_volume
        for index, labels, block in self._dictionary(psi, grid):
            np.einsum(np.conj(block) * weight, labels, *factors, list(range(len(self.roles))),
                      out=out[index], optimize=True)
        return self._gauged(out.ravel(), grid, -1)

    def adjoint(self, coeffs: np.ndarray, grid: QuadratureGrid,
                psi: DiscretizedState) -> DiscretizedState:
        """sum_g coeffs(g) w(g) U(g) psi over the nodes of ``grid``: the exact
        adjoint of :meth:`coefficients` in phi."""
        hat = self._domain(psi)
        cw = self._gauged(np.asarray(coeffs) * grid.weights, grid, 1).reshape(grid.resolution)
        factors = self._factors(grid, hat.grid, 1)
        state_labels = [len(self.roles) + j for j in range(hat.grid.dim)]
        acc = np.zeros(hat.grid.counts, dtype=complex)
        for index, labels, block in self._dictionary(hat, grid):
            acc += np.einsum(cw[index], list(range(len(self.roles))), *factors,
                             block, labels, state_labels, optimize=True)
        out = DiscretizedState(acc, hat.grid)
        return inverse_fourier_plancherel(out, psi.grid) if self.fourier else out

    def _gauged(self, values, grid, sign):
        """Multiply ``values`` (raveled over the grid) by e^{sign i gamma} in
        place, evaluating gamma on the grid's node blocks."""
        if self.gauge is not None:
            for sl, nodes in grid.node_blocks():
                values[sl] *= np.exp(sign * 1j * self.gauge(nodes))
        return values

    def _domain(self, state):
        return fourier_plancherel(state) if self.fourier else state

    def _factors(self, grid, state_grid, sign):
        axes = tuple(grid.axis(i).tobytes() for i in range(len(self.roles)))
        return _factor_plan(self.roles, axes, state_grid, sign)

    def _dictionary(self, state, grid):
        """Stream a^{m/2} T_s D_a state over the dilation and translation
        nodes in blocks of about ``CHUNK`` samples (at least one node of the
        first translation axis): yields (index, labels, block), ``index``
        slicing the block's nodes out of a chart-shaped array and ``labels``
        naming its einsum axes.  One ``axis_resample`` per dilated state axis
        dilates up to ``CHUNK`` samples' worth of scales at once; one FFT of
        the dilated states serves every translation of a block."""
        dil = [i for i, r in enumerate(self.roles) if r.kind == "dilate"]
        tr = [i for i, r in enumerate(self.roles) if r.kind == "translate"]
        dim = state.grid.dim
        t_shape = [grid.resolution[i] for i in tr]
        shifts = np.zeros(t_shape + [dim])
        for k, i in enumerate(tr):
            ramp = self.roles[i].coef * grid.axis(i)
            shifts[..., self.roles[i].axes[0]] += ramp.reshape([-1 if m == k else 1 for m in range(len(tr))])
        scales = grid.axis(dil[0]) if dil else np.ones(1)
        dilated = self.roles[dil[0]].axes if dil else ()
        labels = dil + tr + [len(self.roles) + j for j in range(dim)]
        row = state.samples.size * int(np.prod(t_shape[1:]))
        t_step = max(1, CHUNK // row)
        d_step = max(1, CHUNK // (row * min(t_step, t_shape[0] if tr else 1)))
        batch = d_step * max(1, CHUNK // (state.samples.size * d_step))
        for d0 in range(0, len(scales), d_step):
            if d0 % batch == 0:
                a = scales[d0 : d0 + batch]
                out = state
                for j in dilated:
                    out = axis_resample(out, j, a, 0.0)
                # float_power is libm's pow, as a per-scale a^{m/2} was; an
                # array ``** 2`` squares and differs in the last bit
                weight = np.float_power(np.sqrt(a), len(dilated)).reshape((-1,) + (1,) * dim)
                dilated_stack = out.samples * weight
            stack = dilated_stack[d0 % batch : d0 % batch + d_step].reshape(
                (-1,) + (1,) * len(tr) + state.grid.counts)
            for t0 in range(0, t_shape[0] if tr else 1, t_step):
                index = [slice(None)] * len(self.roles)
                block = stack
                if tr:
                    index[tr[0]] = slice(t0, t0 + t_step)
                    block = translate(DiscretizedState(stack, state.grid), shifts[t0 : t0 + t_step]).samples
                if dil:
                    index[dil[0]] = slice(d0, d0 + d_step)
                yield tuple(index), labels, block if dil else block[0]


@functools.lru_cache(maxsize=PLAN_CACHE)
def _factor_plan(roles, axes, state_grid, sign):
    """einsum operands of the phase and modulation roles over the chart axes
    ``axes`` (node values as bytes): e^{sign i c g} over chart axis i,
    e^{sign i g x_j} over (chart axis i, state axis j); sign -1 gives the
    factors of conj(U(g)), +1 those of U(g).  Cached by value, read-only
    (see :func:`states.frozen_copy`)."""
    factors = []
    for i, r in enumerate(roles):
        g = np.frombuffer(axes[i])
        if r.kind == "phase":
            factors += [np.exp(sign * 1j * r.coef * g), [i]]
        elif r.kind == "modulate":
            j = r.axes[0]
            factors += [np.exp(sign * 1j * np.outer(g, state_grid.axis(j))),
                        [i, len(roles) + j]]
    factors[::2] = [frozen_copy(f) for f in factors[::2]]
    return tuple(factors)


@dataclass(frozen=True)
class UnitaryRepSpec:
    """A strongly continuous unitary representation acting on sampled states.

    ``action(coords, state)`` must be unitary for grid-safe coords and satisfy
    action(g, action(h, f)) = action(gh, f) up to the declared tolerance.
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
    safe_box: tuple[tuple[float, float], ...] | None = None

    def act(self, g, state: DiscretizedState) -> DiscretizedState:
        g = np.asarray(g, dtype=float)
        if self.safe_box is not None:
            for i, (lo, hi) in enumerate(self.safe_box):
                if not (lo <= g[i] <= hi):
                    raise GridSafetyError(
                        f"{self.label}: coordinate {i} = {g[i]} outside grid-safe "
                        f"range [{lo}, {hi}]"
                    )
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


def wh_rep(k_check: float, n: int = 1, safe_momentum: float = 16.0, safe_shift: float = 12.0) -> UnitaryRepSpec:
    """U_kc(k, p, q) f(x) = e^{i(k kc + p.x)} f(x + kc q) on L2(R^n).

    kc = 0 is rejected: the representation with trivial central character has
    singleton dual orbits and is never square integrable modulo the centre.
    """
    if k_check == 0:
        raise ValueError("central parameter must be nonzero")
    if n < 1:
        raise ValueError("n must be a positive integer")
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
        safe_box=((-np.inf, np.inf),)
        + ((-safe_momentum, safe_momentum),) * n
        + ((-safe_shift, safe_shift),) * n,
        **_engine(ActionTable(
            (AxisRole("phase", coef=kc),)
            + tuple(AxisRole("modulate", (j,)) for j in range(n))
            + tuple(AxisRole("translate", (j,), -kc) for j in range(n))
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


def affine_rep(
    n: int = 1,
    scale_range: tuple[float, float] = (1.0 / 64.0, 64.0),
    shift_max: float = 64.0,
) -> UnitaryRepSpec:
    """(U(b, a) f)(x) = a^{-n/2} f((x - b)/a), computed in the frequency domain.

    The Fourier side is a^{n/2} e^{i w.b} fhat(a w): resampling the spectrum
    keeps the small-scale (a << 1) coefficients accurate even when the
    position-space image of the state would fall below grid resolution.
    The safe box bounds coefficient accuracy; unitarity of the action itself
    additionally needs the dilated state to stay inside band and box.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")

    def action(g, state):
        g = np.asarray(g, dtype=float)
        b, a = g[:n], g[n]
        if not a > 0:
            raise ValueError("scale coordinate must be positive")
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
        safe_box=((-shift_max, shift_max),) * n + (scale_range,),
        **_engine(ActionTable(
            tuple(AxisRole("modulate", (j,)) for j in range(n))
            + (AxisRole("dilate", tuple(range(n))),),
            fourier=True,
        )),
    )


# ---------------------------------------------------------------------------
# Exotic-group representation
# ---------------------------------------------------------------------------


def exotic_rep(
    k_vec=0.0,
    n: int = 1,
    scale_range: tuple[float, float] = (1.0 / 16.0, 16.0),
    shift_max: float = 8.0,
) -> UnitaryRepSpec:
    """(U(t,s,b,p,q,r,a) f)(bc, pc) = a^{1/2} e^{i(t + k.r)} e^{i(b bc + p.pc)}
    f(a bc, pc + q)  on L2((0, inf) x R^n, dbc dpc).

    This is the representation display of the worked example, implemented
    literally.  The s coordinate never acts (the inducing character has
    scheck = 0 on the orbit), and the restriction to T x S x R is the scalar
    e^{i(t + k.r)} by construction.  For k_vec != 0 the display is not a
    homomorphism in the r-a sector, so only k_vec = 0 is accepted (ValueError
    otherwise).  States live on a (bc > 0) x (pc in R^n) grid with half-cell
    offset from bc = 0.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    kv = np.broadcast_to(np.atleast_1d(np.asarray(k_vec, dtype=float)), (n,))
    if np.any(kv != 0.0):
        raise ValueError("exotic_rep needs k_vec = 0: for k_vec != 0 the display "
                         "is not a homomorphism")
    sl_p = slice(3, 3 + n)
    sl_q = slice(3 + n, 3 + 2 * n)
    sl_r = slice(3 + 2 * n, 3 + 3 * n)
    ia = 3 + 3 * n

    def _check_grid(state):
        if state.grid.dim != n + 1:
            raise ValueError(f"state grid must be (bc, pc in R^{n})")
        if state.grid.offsets[0] <= 0:
            raise GridSafetyError("state grid touches the bc = 0 singularity")

    def action(g, state):
        _check_grid(state)
        g = np.asarray(g, dtype=float)
        t, b, a = g[0], g[2], g[ia]
        p, q, r = g[sl_p], g[sl_q], g[sl_r]
        if not a > 0:
            raise ValueError("scale coordinate must be positive")
        out = axis_resample(state, 0, a, 0.0)  # f(a bc, pc)
        out = translate(out, np.concatenate([[0.0], -q]))  # pc -> pc + q
        freq = np.concatenate([[b], p])
        phase0 = t + float(np.dot(kv, r))
        return modulate(out.with_samples(out.samples * np.sqrt(a)), freq, phase0)

    return UnitaryRepSpec(
        group=make_exotic(n),
        action=action,
        label=f"exotic[n={n}]",
        safe_box=((-np.inf, np.inf),) * 3
        + ((-32.0, 32.0),) * n
        + ((-shift_max, shift_max),) * n
        + ((-np.inf, np.inf),) * n
        + (scale_range,),
        **_engine(ActionTable(
            (AxisRole("phase", coef=1.0), AxisRole("phase"), AxisRole("modulate", (0,)))
            + tuple(AxisRole("modulate", (1 + j,)) for j in range(n))
            + tuple(AxisRole("translate", (1 + j,), -1.0) for j in range(n))
            + tuple(AxisRole("phase", coef=k) for k in kv)
            + (AxisRole("dilate", (0,)),)
        )),
    )


# ---------------------------------------------------------------------------
# Section pullbacks and central-extension lifts
# ---------------------------------------------------------------------------


def projective_from_section(rep: UnitaryRepSpec, section: Section) -> ProjectiveRepSpec:
    """P_s(x) = U(s(x)): projective representation of X with multiplier m_s.

    The rep's action table and safe box are restricted to the subgroup's X
    axes: that is U(s0(x)) for the coordinate section s0, and since
    p(s(x)) = x and K acts by the scalar chi, any other section only adds the
    gauge phase gamma(x) = chi(s0(x)^{-1} s(x)) (see the module header).
    """
    sub = section.subgroup
    if sub.ambient.name != rep.group.name:
        raise ValueError("section codomain does not match the representation's group")

    def action(x, state):
        return rep.act(section.map(np.asarray(x, dtype=float)), state)

    gauge = None
    if section is not sub.coordinate_section:
        G, s0 = sub.ambient, sub.coordinate_section

        def gauge(x):
            k = G.product(G.inverse(s0.map(x)), section.map(x))
            return sub.chi_phase(sub.extract_k(k, context=f"gauge (section {section.label!r})"))

    return ProjectiveRepSpec(
        group=sub.quotient,
        action=action,
        label=f"P[{rep.label};{section.label}]",
        multiplier=multiplier_from_section(section),
        safe_box=None if rep.safe_box is None else tuple(rep.safe_box[i] for i in sub.x_axes),
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
        safe_box=None if proj.safe_box is None else ((-np.inf, np.inf),) + proj.safe_box,
        **_engine(ActionTable(
            (AxisRole("phase", coef=sign),) + proj.table.roles,
            fourier=proj.table.fourier,
            gauge=None if gauge is None else (lambda g: gauge(g[..., 1:])),
        )),
    )
