"""Generalized wavelet / coherent-state analysis and synthesis, Duflo-Moore
operators, and the quadrature verification of the orthogonality relations

    int conj(c_{psi1,phi1}) c_{psi2,phi2} dmu  =  <phi1, phi2> <D psi2, D psi1>,

the reproducing-kernel identity, the semi-invariance of D with weight
Delta^{1/2}, and the equivalence between square-integrability modulo a
relatively central subgroup and square-integrability of the section pullback
on the quotient.

Every Duflo-Moore operator is one positive symbol multiplying state axis 0,
in position or, conjugated by the Fourier-Plancherel transform, in
frequency.  Symbols shipped:

* Gabor (Weyl-Heisenberg modulo its centre, |central parameter| = 1,
  mu_X = dp dq / (2 pi)^n): 1, so D is the identity -- the quotient is
  unimodular and the Haar normalization pins the scalar to 1.
* affine: kappa |w|^{-1/2} in frequency with kappa = sqrt(pi), the closed
  form for haar = a^{-2} db da, n = 1.  ``calibrate_affine_dm`` fits kappa
  by quadrature and serves only as an audit of that value.
* exotic configuration: bcheck^{-1/2} in position -- unbounded, witnessed by
  the symbol growing like sqrt(2) per halving of the node coordinate.

``analyze`` and ``synthesize`` run on the representation's action table
(see ``representations``): one batched engine for every spec -- every
bundled configuration and any n, on G, on X through any section, and on
central-extension lifts.  Every integral of coefficients over a grid
(the orthogonality relations, the energies of ``coefficient_energy``,
admissibility and the Duflo-Moore calibration, the reproducing kernel's
Gram rows, both sides of the modulo-K equivalence) is one block sum over
the engine's coefficient blocks as they stream, and never holds a
coefficient array of the grid.  Every weight comes from the grid's slab of
the block (``QuadratureGrid.slab_weights``): no function here reads, and
so builds, the grid's whole ``weights`` array.  ``analyze``'s energy pass
runs its axis blocks on the engine's pool and adds their sums in block
order.

Every grid goes through one grid guard (``_require_safe_box``): psi is
nonzero and the grid one of the rep's group (else ``ValueError``), and both
pass ``act``'s check (``ActionTable.require_safe``, else
``GridSafetyError``); no grid is clipped.  ``analyze``, ``synthesize``,
``reproduce_check`` and every caller of ``_block_sums`` apply it.
``semi_invariance_check`` and ``kernel`` take group elements, which
``act``'s point check rejects; ``induced.intertwine_defect`` takes
callables, so its callers' guards apply.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .groups import QuadratureGrid
from .representations import UnitaryRepSpec, _blockwise
from .states import (
    DiscretizedState,
    check_finite_rows,
    dump_json,
    fourier_plancherel,
    grid_csv_rows,
    inner,
    inverse_fourier_plancherel,
    norm,
    read_csv,
)

__all__ = [
    "TransformResult",
    "DMOperator",
    "AdmissibilityReport",
    "analyze",
    "synthesize",
    "duflo_moore",
    "calibrate_affine_dm",
    "admissibility",
    "orthogonality_check",
    "coefficient_energy",
    "kernel",
    "reproduce_check",
    "semi_invariance_check",
    "mod_K_equiv_check",
    "save_result_csv",
    "load_result_csv",
]


# ---------------------------------------------------------------------------
# Duflo-Moore operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DMOperator:
    """Positive selfadjoint injective operator of the orthogonality relation:
    multiplication along state axis 0 by ``symbol(coords, spacing)``, taken
    in frequency (D = F^{-1} symbol(w) F) when ``fourier`` is set and in
    position otherwise.  The symbol must be strictly positive at every grid
    node (injectivity on the grid); unbounded operators show up as symbols
    growing without bound along a node sequence.
    """

    symbol: Callable[[np.ndarray, float], np.ndarray]
    fourier: bool = False
    meta: dict = field(default_factory=dict)

    def apply(self, state: DiscretizedState) -> DiscretizedState:
        target = fourier_plancherel(state) if self.fourier else state
        g = target.grid
        vals = self.symbol_values(g.axis(0), g.spacings[0])
        out = target.with_samples(target.samples * vals.reshape((-1,) + (1,) * (g.dim - 1)))
        return inverse_fourier_plancherel(out, state.grid) if self.fourier else out

    def norm_of(self, state: DiscretizedState) -> float:
        """||D psi|| on the grid."""
        return norm(self.apply(state))

    def symbol_values(self, coords: np.ndarray, spacing: float = 1.0) -> np.ndarray:
        return np.asarray(self.symbol(coords, spacing))


def _abs_sqrt_inv_symbol(omega: np.ndarray, spacing: float) -> np.ndarray:
    """|w|^{-1/2} with the w = 0 bin replaced by its cell average, keeping the
    symbol finite, positive and injective on the frequency grid."""
    omega = np.asarray(omega, dtype=float)
    out = np.empty_like(omega)
    nz = omega != 0.0
    out[nz] = np.abs(omega[nz]) ** (-0.5)
    # cell average of |w|^{-1/2} over [-h/2, h/2] equals 4 sqrt(h/2) / h
    out[~nz] = 4.0 * np.sqrt(spacing / 2.0) / spacing
    return out


def duflo_moore(config: str) -> DMOperator:
    """Duflo-Moore operator for one of the bundled configurations.

    config = 'gabor'  : symbol 1 (the identity);
             'affine' : Fourier symbol sqrt(pi) |w|^{-1/2}, kappa = sqrt(pi)
                        in closed form; :func:`calibrate_affine_dm` is the audit;
             'exotic' : position symbol bcheck^{-1/2}.
    """
    if config == "gabor":
        return DMOperator(
            symbol=lambda x, h: np.ones(np.shape(x)),
            meta={"note": "unimodular quotient; scalar fixed by mu_X = dp dq/(2 pi)^n"},
        )
    if config == "affine":
        kappa = float(np.sqrt(np.pi))
        return DMOperator(symbol=lambda w, h: kappa * _abs_sqrt_inv_symbol(w, h),
                          fourier=True, meta={"kappa": kappa})
    if config == "exotic":
        def symbol(x, h):
            x = np.asarray(x, dtype=float)
            if np.any(x <= 0):
                raise ValueError("coordinate symbol bcheck^{-1/2} needs bcheck > 0")
            return x ** (-0.5)

        return DMOperator(symbol=symbol)
    raise ValueError(f"unknown configuration {config!r}")


# ---------------------------------------------------------------------------
# Analysis / synthesis
# ---------------------------------------------------------------------------


@dataclass
class TransformResult:
    """Sampled coefficient function over a quadrature grid on the group."""

    coefficients: np.ndarray
    grid: QuadratureGrid
    analyzing_vector_id: str
    rep_id: str
    dm_norm: Optional[float] = None
    meta: dict = field(default_factory=dict)
    analyzing_vector_sha256: Optional[str] = None

    def energy(self) -> float:
        """The energy sum of |c|^2 w, over axis blocks (:func:`_energy_and_shell`)."""
        return _energy_and_shell(self.coefficients, self.grid)[0]


def _energy_and_shell(coefficients: np.ndarray, grid: QuadratureGrid) -> tuple[float, float]:
    """The energy sum of |c|^2 w over ``grid`` (``coefficients`` raveled
    like its nodes), and the share of it carried by the outermost 10% shell
    of the box -- a cheap truncation-tail estimate recorded in metadata.
    The shell is the union of per-axis slabs of 5% of the axis at each end,
    cut in ln a on a log axis, where the nodes are uniform.  The blocks of
    :meth:`QuadratureGrid.axis_blocks` run on the engine's pool
    (``representations._blockwise``), each with its slab's weights and its
    shell masked from its axes, and both sums add the blocks' parts in
    block order, so no array of the whole grid is made and the sums do not
    depend on the worker count."""
    dim = len(grid.resolution)

    def task(sl, at, axes):
        part = np.abs(coefficients[sl]) ** 2 * grid.slab_weights(at).ravel()
        outer = np.zeros(tuple(map(len, axes)), dtype=bool)
        for i, ((lo, hi), ax) in enumerate(zip(grid.box, axes)):
            if i in grid.log_axes:
                lo, hi, ax = np.log(lo), np.log(hi), np.log(ax)
            width = hi - lo
            slab = (ax < lo + 0.05 * width) | (ax > hi - 0.05 * width)
            outer = outer | slab.reshape([-1 if m == i else 1 for m in range(dim)])
        return float(np.sum(part)), float(np.sum(part[outer.ravel()]))

    energy = shell = 0.0
    for part, shell_part in _blockwise(task, grid.axis_blocks()):
        energy += part
        shell += shell_part
    return energy, (shell / energy if energy else 0.0)


def analyze(
    rep: UnitaryRepSpec,
    psi: DiscretizedState,
    phi: DiscretizedState,
    grid: QuadratureGrid,
    dm_norm: Optional[float] = None,
) -> TransformResult:
    """Sample c_{psi,phi}(g) = <U(g) psi, phi> at every grid node, in one
    batch on the rep's action table, under the grid guard of the module
    header.
    """
    _require_safe_box(rep, grid, [psi])
    coeffs = rep.fast_coefficients(psi, phi, grid)
    result = TransformResult(
        coefficients=np.asarray(coeffs, dtype=complex),
        grid=grid,
        analyzing_vector_id=f"state[{norm(psi):.12g}]",
        rep_id=rep.label,
        dm_norm=dm_norm,
        analyzing_vector_sha256=psi.sha256(),
    )
    result.meta["energy"], result.meta["shell_fraction"] = _energy_and_shell(
        result.coefficients, grid)
    return result


def _require_safe_box(rep: UnitaryRepSpec, grid: QuadratureGrid, psis) -> None:
    """The grid guard of the module header, for each analyzing vector of ``psis``."""
    if any(norm(psi) == 0.0 for psi in psis):
        raise ValueError("analyzing vector must be nonzero")
    if grid.group.name != rep.group.name:
        raise ValueError(f"{rep.label}: grid of group {grid.group.name!r}, not of the rep's "
                         f"group {rep.group.name!r}")
    for psi in psis:
        rep.table.require_safe(rep.label, grid.box, psi)


def synthesize(
    result: TransformResult, rep: UnitaryRepSpec, psi: DiscretizedState
) -> DiscretizedState:
    """Adjoint reconstruction  phi = ||D psi||^{-2} sum c(g) U(g) psi w(g).

    Because the normalized transform is an isometry, the adjoint is a left
    inverse; on a truncated grid the reconstruction error is the quadrature
    plus truncation error of the reproducing integral.  Runs in one batch on
    the exact adjoint of :func:`analyze`'s engine.  A grid reaching outside
    the grid-safe box of psi's state grid raises :class:`GridSafetyError`.
    """
    if result.dm_norm is None:
        raise ValueError("dm_norm metadata is unset; synthesize needs it")
    _require_safe_box(rep, result.grid, [psi])
    out = rep.fast_adjoint(result.coefficients, result.grid, psi)
    return out.with_samples(out.samples / result.dm_norm ** 2)


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: Optional[bool]  # None = inconclusive
    dm_norm_sq: Optional[float]
    partials: tuple[float, ...]
    increments: tuple[float, ...]
    status: str


def admissibility(
    rep: UnitaryRepSpec,
    psi: DiscretizedState,
    nested_grids: Sequence[QuadratureGrid],
) -> AdmissibilityReport:
    """Estimate int |c_{psi,psi}|^2 dmu over nested boxes.  The grids are
    disjoint (a base box plus extension slabs, as
    :func:`configs.affine_nested_grids` makes them): increment j is the
    energy over grid j, and partial integral j the energy over the union
    0..j.

    admissible  : the increments collapse (final relative increment < 1e-3);
                  dm_norm_sq is the limit estimate divided by ||psi||^2.
    not admissible: increments do not decay (final >= half the first extension);
    inconclusive: anything in between, reported as its own status.
    """
    increments = tuple(coefficient_energy(rep, psi, psi, grid) for grid in nested_grids)
    partials = tuple(np.cumsum(increments))
    if abs(increments[-1]) / max(abs(partials[-1]), 1e-300) < 1e-3:
        status = "admissible"
    elif len(increments) >= 3 and abs(increments[-1]) >= 0.5 * abs(increments[1]):
        status = "divergent"
    else:
        status = "inconclusive"
    admissible = {"admissible": True, "divergent": False}.get(status)
    return AdmissibilityReport(
        admissible=admissible,
        dm_norm_sq=partials[-1] / norm(psi) ** 2 if admissible else None,
        partials=partials,
        increments=increments,
        status=status,
    )


# ---------------------------------------------------------------------------
# Orthogonality relations / reproducing kernel / semi-invariance
# ---------------------------------------------------------------------------


def _block_sums(rep: UnitaryRepSpec, pairs, grid: QuadratureGrid, integrands) -> list:
    """The quadratures over ``grid`` of per-block integrands of coefficients:
    each (psi, phi) of ``pairs`` streams its coefficients once
    (:meth:`ActionTable.coefficient_blocks`), the streams run in lockstep,
    and total i adds, in block order from the first block's part (so signed
    zeros survive), the sums of ``integrands[i](c, w, at)`` -- ``c`` the
    pairs' blocks in pair order, ``w`` the block's weights, ``at`` its slices
    of a chart-shaped array.  A block of each stream, never a whole
    coefficient array, is held.  :func:`analyze`'s guards apply (every psi
    nonzero, the grid guard).  The streams must share their blocks, so every
    psi has the same number of samples (``ValueError`` otherwise).  If a
    stream raises, the others are closed before the call raises.
    """
    _require_safe_box(rep, grid, [psi for psi, _ in pairs])
    totals = [None] * len(integrands)
    with contextlib.ExitStack() as stack:
        streams = [stack.enter_context(contextlib.closing(
            rep.table.coefficient_blocks(psi, phi, grid))) for psi, phi in pairs]
        for blocks in zip(*streams):
            at = blocks[0][0]
            if any(other != at for other, _ in blocks[1:]):
                # the engine sizes its blocks by psi's sample count
                raise ValueError("the analyzing vectors' state grids differ in size, so "
                                 "their coefficient blocks do not align")
            c = [values for _, values in blocks]
            for i, integrand in enumerate(integrands):
                # a C-ordered block: the sum of one block covering the grid
                # is that of the raveled arrays
                part = np.sum(integrand(c, grid.slab_weights(at), at)).item()
                totals[i] = part if totals[i] is None else totals[i] + part
    return totals


def coefficient_energy(rep: UnitaryRepSpec, psi: DiscretizedState, phi: DiscretizedState,
                       grid: QuadratureGrid) -> float:
    """int |c_{psi,phi}|^2 dmu over ``grid``: the energy of
    :func:`analyze`'s result, streamed (:func:`_block_sums`)."""
    return _block_sums(rep, [(psi, phi)], grid, [lambda c, w, at: np.abs(c[0]) ** 2 * w])[0]


def orthogonality_check(
    rep: UnitaryRepSpec,
    relations: Sequence[tuple[DiscretizedState, DiscretizedState,
                              DiscretizedState, DiscretizedState]],
    dm: DMOperator,
    grid: QuadratureGrid,
) -> list:
    """Quadrature check of the orthogonality relation for each
    (psi1, psi2, phi1, phi2) of ``relations``: one (lhs, rhs, relerr) per
    relation.  lhs is the group-side quadrature of conj(c1) c2, with
    c1 = c_{psi1,phi1} and c2 = c_{psi2,phi2}; rhs = <phi1, phi2>
    <D psi2, D psi1>; and relerr is |lhs - rhs| relative to ||phi1|| ||phi2||
    ||D psi1|| ||D psi2||, which bounds |rhs| by Cauchy-Schwarz.

    Each distinct (psi, phi), told apart by identity, streams its
    coefficients once; every lhs is one block sum of conj(c1) c2 w
    (:func:`_block_sums`, whose guards apply).
    """
    pairs = {}
    for p1, p2, f1, f2 in relations:
        pairs.setdefault((id(p1), id(f1)), (p1, f1))
        pairs.setdefault((id(p2), id(f2)), (p2, f2))
    index = {key: i for i, key in enumerate(pairs)}
    integrands = [
        lambda c, w, at, i=index[id(p1), id(f1)], j=index[id(p2), id(f2)]: np.conj(c[i]) * c[j] * w
        for p1, p2, f1, f2 in relations]
    lhs = _block_sums(rep, list(pairs.values()), grid, integrands)
    return [_relation(total, *relation, dm) for total, relation in zip(lhs, relations)]


def _relation(lhs, psi1, psi2, phi1, phi2, dm):
    """(lhs, rhs, relerr) of :func:`orthogonality_check` from its group
    side ``lhs``."""
    d1, d2 = dm.apply(psi1), dm.apply(psi2)
    rhs = inner(phi1, phi2) * inner(d2, d1)
    scale = max(abs(rhs), norm(phi1) * norm(phi2) * norm(d1) * norm(d2), 1e-300)
    return lhs, rhs, abs(lhs - rhs) / scale


def calibrate_affine_dm(
    rep: UnitaryRepSpec,
    pairs: Sequence[tuple[DiscretizedState, DiscretizedState]],
    grid: QuadratureGrid,
) -> dict:
    """Least-squares fit of the affine Duflo-Moore constant kappa.

    For each (psi, phi) pair, the group-side energy integral must equal
    kappa^2 <phi, phi> int |psihat(w)|^2 / |w| dw.  The fit minimizes the
    squared residuals over the pairs; per-pair implied constants are recorded
    so independence of the calibration can be audited.
    """
    lhs_list = []
    base_list = []
    for psi, phi in pairs:
        lhs_list.append(coefficient_energy(rep, psi, phi, grid))
        psi_hat = fourier_plancherel(psi)
        w = psi_hat.grid.axis(0)
        dw = psi_hat.grid.spacings[0]
        weight = _abs_sqrt_inv_symbol(w, dw) ** 2
        base = float(
            np.sum(np.abs(psi_hat.samples) ** 2 * weight) * dw * norm(phi) ** 2
        )
        base_list.append(base)
    lhs_arr = np.asarray(lhs_list)
    base_arr = np.asarray(base_list)
    kappa_sq = float(np.sum(lhs_arr * base_arr) / np.sum(base_arr ** 2))
    per_pair = [float(np.sqrt(l / b)) for l, b in zip(lhs_arr, base_arr)]
    return {
        "kappa": float(np.sqrt(kappa_sq)),
        "kappa_per_pair": per_pair,
        "n_pairs": len(pairs),
    }


def kernel(
    rep: UnitaryRepSpec,
    psi: DiscretizedState,
    g,
    g2,
    dm_norm: float,
) -> complex:
    """Reproducing kernel  kappa_psi(g, g') = ||D psi||^{-2} <U(g) psi, U(g') psi>."""
    if dm_norm is None:
        raise ValueError("dm_norm is unset")
    return inner(rep.act(g, psi), rep.act(g2, psi)) / dm_norm ** 2


def reproduce_check(
    result: TransformResult, rep: UnitaryRepSpec, psi: DiscretizedState
) -> float:
    """Reproducing-property defect of the sampled coefficient function.

    At 16 grid nodes g drawn by a generator seeded with 7, compares f(g)
    with int kernel(g, g') f(g') dmu(g') over the grid; returns the max
    relative error (scaled by the largest |f| sample).  Deterministic:
    repeated evaluation returns identical numbers.  A grid reaching outside
    the grid-safe box of psi's state grid raises :class:`GridSafetyError`.
    """
    if result.dm_norm is None:
        raise ValueError("dm_norm is unset")
    _require_safe_box(rep, result.grid, [psi])
    idx = np.random.default_rng(7).choice(result.grid.n_nodes, size=16, replace=False)
    # Gram rows <U(g_i) psi, U(g_j) psi> via the coefficient of U(g_i)psi
    scale = max(np.max(np.abs(result.coefficients)), 1e-300)
    f = result.coefficients.reshape(result.grid.resolution)
    worst = 0.0
    for i in idx:
        # row(g') = <U(g') psi, U(g_i) psi> = ||Dpsi||^2 kernel(g_i, g')*
        integ = _block_sums(rep, [(psi, rep.act(result.grid.node(i), psi))], result.grid,
                            [lambda row, w, at: np.conj(row[0]) * f[at] * w])[0]
        worst = max(worst, abs(integ / result.dm_norm ** 2 - result.coefficients[i]) / scale)
    return worst


def semi_invariance_check(
    rep: UnitaryRepSpec,
    dm: DMOperator,
    g,
    test_states: Sequence[DiscretizedState],
) -> float:
    """Defect of  U(g) D U(g)^{-1} = Delta(g)^{1/2} D  on the test states,
    with Delta the modular function of ``rep.group`` (of X for a projective
    spec).  A projective U has U(g)^{-1} = m(g, g^{-1}) U(g^{-1}), since
    U(e) = m(g, g^{-1}) U(g) U(g^{-1}); a genuine one, U(g^{-1})."""
    G = rep.group
    g = np.asarray(g, dtype=float)
    g_inv = G.inverse(g)
    weight = float(G.modular(g)) ** 0.5
    multiplier = getattr(rep, "multiplier", None)
    worst = 0.0
    for v in test_states:
        lhs = rep.act(g, dm.apply(rep.act(g_inv, v)))
        if multiplier is not None:
            lhs = lhs.with_samples(lhs.samples * complex(multiplier.value(g, g_inv)))
        rhs = dm.apply(v).samples * weight
        denom = max(norm(DiscretizedState(rhs, v.grid)), 1e-300)
        worst = max(
            worst,
            norm(DiscretizedState(lhs.samples - rhs, v.grid)) / denom,
        )
    return worst


def mod_K_equiv_check(
    rep: UnitaryRepSpec,
    rhos: Sequence,
    psi: DiscretizedState,
    phi: DiscretizedState,
    g_grid: QuadratureGrid,
    x_grid: QuadratureGrid,
    proj_rep: UnitaryRepSpec,
) -> list:
    """Both sides of  int_G |c^U|^2 dmu_{G,K} = int_X |c^{P_s}|^2 dmu_X  for
    each density rho (``measures.RhoDensity``) of ``rhos``: one (lhs, rhs,
    relerr) per rho.  The left side integrates |c^U|^2 against rho over the
    G grid, rho evaluated on each block's nodes; the right side is the
    X-quadrature of the section pullback's coefficients.  Each grid streams
    its coefficients once for all densities (:func:`_block_sums`).
    """
    lhs = _block_sums(rep, [(psi, phi)], g_grid, [
        lambda c, w, at, rho=rho: (np.abs(c[0]) ** 2
                                   * rho.eval(g_grid.slab_nodes(at)).reshape(w.shape) * w)
        for rho in rhos])
    rhs = coefficient_energy(proj_rep, psi, phi, x_grid)
    return [(total, rhs, abs(total - rhs) / max(abs(total), abs(rhs), 1e-300)) for total in lhs]


# ---------------------------------------------------------------------------
# Serialization: coefficients CSV + JSON header
# ---------------------------------------------------------------------------


def _result_columns(dim: int) -> list[str]:
    return ["index"] + [f"g{i}" for i in range(dim)] + ["weight", "re", "im"]


def save_result_csv(path_prefix: str, result: TransformResult) -> tuple[str, str]:
    """Write <prefix>.csv (node coords, weight, re, im) and <prefix>.json.

    The rows are formatted one :meth:`QuadratureGrid.axis_blocks` block at a
    time from the block's axes and slab weights (:func:`grid_csv_rows`: each
    coordinate and each distinct weight formatted once), so neither the
    node nor the weight array of the grid is built.
    """
    csv_path = f"{path_prefix}.csv"
    json_path = f"{path_prefix}.json"
    c, grid = np.asarray(result.coefficients), result.grid
    check_finite_rows(c, "coefficient")
    with open(csv_path, "wb") as fh:
        fh.write((",".join(_result_columns(len(grid.resolution))) + "\n").encode())
        for sl, at, axes in grid.axis_blocks():
            fh.write(grid_csv_rows(axes, c[sl], sl.start, grid.slab_weights(at).ravel()))
    dump_json(json_path, {
        "group": result.grid.group.name,
        "rep": result.rep_id,
        "analyzing_vector": result.analyzing_vector_id,
        "analyzing_vector_sha256": result.analyzing_vector_sha256,
        "dm_norm": result.dm_norm,
        **_grid_header(result.grid),
        "meta": {
            k: v for k, v in result.meta.items() if isinstance(v, (int, float, str, bool, list))
        },
    })
    return csv_path, json_path


def _grid_header(grid: QuadratureGrid) -> dict:
    """The box, resolution and log axes of ``grid`` as a coefficient header
    records them."""
    return {"box": [list(b) for b in grid.box], "resolution": list(grid.resolution),
            "log_axes": list(grid.log_axes)}


def load_result_csv(path_prefix: str, grid: QuadratureGrid) -> TransformResult:
    """Read a result written by :func:`save_result_csv` on ``grid``: a header
    for another group, box, resolution or log axes raises ``ValueError``
    naming both grids.  Only the re and im columns of the CSV are parsed
    (:func:`states.read_csv`).  ``dm_norm`` must be null or a finite
    positive number."""
    with open(f"{path_prefix}.json") as fh:
        header = json.load(fh)
    if header.get("group") != grid.group.name:
        raise ValueError(
            f"coefficient file is for group {header.get('group')!r}, "
            f"not {grid.group.name!r}"
        )
    expected = _grid_header(grid)
    found = {key: header.get(key) for key in expected}
    if found != expected:
        raise ValueError(f"coefficient file is for grid {found}, not for grid {expected}")
    dm_norm = header.get("dm_norm")
    if dm_norm is not None and not (type(dm_norm) in (int, float) and 0 < dm_norm < np.inf):
        raise ValueError(f"coefficient header: dm_norm must be null or a finite positive "
                         f"number, not {dm_norm!r}")
    dim = len(grid.resolution)
    _, data = read_csv(f"{path_prefix}.csv", "coefficient", usecols=(dim + 2, dim + 3),
                       header=_result_columns(dim))
    coeffs = data[:, 0] + 1j * data[:, 1]
    if coeffs.size != grid.n_nodes:
        raise ValueError("coefficient count does not match the grid")
    return TransformResult(
        coefficients=coeffs,
        grid=grid,
        analyzing_vector_id=header.get("analyzing_vector", "?"),
        rep_id=header.get("rep", "?"),
        dm_norm=dm_norm,
        meta=header.get("meta", {}),
        analyzing_vector_sha256=header.get("analyzing_vector_sha256"),
    )
