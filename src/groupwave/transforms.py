"""Generalized wavelet / coherent-state analysis and synthesis, Duflo-Moore
operators, and the quadrature verification of the orthogonality relations

    int conj(c_{psi1,phi1}) c_{psi2,phi2} dmu  =  <phi1, phi2> <D psi2, D psi1>,

the reproducing-kernel identity, the semi-invariance of D with weight
Delta^{1/2}, and the equivalence between square-integrability modulo a
relatively central subgroup and square-integrability of the section pullback
on the quotient.

Duflo-Moore operators shipped:

* Gabor (Weyl-Heisenberg modulo its centre, |central parameter| = 1,
  mu_X = dp dq / (2 pi)^n): the identity -- the quotient is unimodular and
  the Haar normalization pins the scalar to 1.
* affine: Fourier multiplier kappa |w|^{-1/2} with kappa = sqrt(pi), the
  closed form for haar = a^{-2} db da, n = 1.  ``calibrate_affine_dm`` fits
  kappa by quadrature and serves only as an audit of that value.
* exotic configuration: multiplication by bcheck^{-1/2} on the state grid --
  unbounded, witnessed by the symbol growing like sqrt(2) per halving of the
  node coordinate.

``analyze`` and ``synthesize`` run on the representation's action table
(see ``representations``): one batched engine for every spec -- every
bundled configuration and any n, on G, on X through any section, and on
central-extension lifts.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .groups import QuadratureGrid, haar_grid
from .measures import RhoDensity, integrate_mod_K
from .representations import UnitaryRepSpec
from .states import (
    DiscretizedState,
    fourier_plancherel,
    inner,
    inverse_fourier_plancherel,
    norm,
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
    "orthogonality_relation",
    "kernel",
    "reproduce_check",
    "semi_invariance_check",
    "mod_K_equiv_check",
    "save_result_csv",
    "load_result_csv",
]


_log = logging.getLogger("groupwave")


# ---------------------------------------------------------------------------
# Duflo-Moore operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DMOperator:
    """Positive selfadjoint injective operator of the orthogonality relation.

    kind = identity_scalar      -> D = scalar * Id
           fourier_multiplier   -> D = F^{-1} symbol(w) F
           coordinate_multiplier-> D = symbol(x_axis) pointwise (axis 0)
    The symbol must be strictly positive at every grid node (injectivity on
    the grid); unbounded operators show up as symbols growing without bound
    along a node sequence.
    """

    kind: str
    scalar: float = 1.0
    symbol: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    meta: dict = field(default_factory=dict)

    def apply(self, state: DiscretizedState) -> DiscretizedState:
        if self.kind == "identity_scalar":
            return state.with_samples(state.samples * self.scalar)
        if self.kind == "fourier_multiplier":
            spec = fourier_plancherel(state)
            g = spec.grid
            mult = np.ones(g.counts)
            vals = self.symbol(g.axis(0), g.spacings[0])
            shape = [1] * g.dim
            shape[0] = g.counts[0]
            mult = mult * np.asarray(vals).reshape(shape)
            out = spec.with_samples(spec.samples * mult)
            return inverse_fourier_plancherel(out, state.grid)
        if self.kind == "coordinate_multiplier":
            g = state.grid
            vals = np.asarray(self.symbol(g.axis(0), g.spacings[0]))
            shape = [1] * g.dim
            shape[0] = g.counts[0]
            return state.with_samples(state.samples * vals.reshape(shape))
        raise ValueError(f"unknown DMOperator kind {self.kind!r}")

    def norm_of(self, state: DiscretizedState) -> float:
        """||D psi|| on the grid."""
        return norm(self.apply(state))

    def symbol_values(self, coords: np.ndarray, spacing: float = 1.0) -> np.ndarray:
        if self.kind == "identity_scalar":
            return np.full(np.asarray(coords).shape, self.scalar)
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

    config = 'gabor'  : identity (scalar 1);
             'affine' : sqrt(pi) |w|^{-1/2} Fourier multiplier, kappa = sqrt(pi)
                        in closed form; :func:`calibrate_affine_dm` is the audit;
             'exotic' : coordinate multiplier bcheck^{-1/2}.
    """
    if config == "gabor":
        return DMOperator(
            kind="identity_scalar",
            scalar=1.0,
            meta={"note": "unimodular quotient; scalar fixed by mu_X = dp dq/(2 pi)^n"},
        )
    if config == "affine":
        kappa = float(np.sqrt(np.pi))

        def symbol(w, h):
            return kappa * _abs_sqrt_inv_symbol(w, h)

        return DMOperator(kind="fourier_multiplier", symbol=symbol, meta={"kappa": kappa})
    if config == "exotic":
        def symbol(x, h):
            x = np.asarray(x, dtype=float)
            if np.any(x <= 0):
                raise ValueError("coordinate symbol bcheck^{-1/2} needs bcheck > 0")
            return x ** (-0.5)

        return DMOperator(kind="coordinate_multiplier", symbol=symbol, meta={})
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
        return float(np.sum(np.abs(self.coefficients) ** 2 * self.grid.weights))


def _shell_fraction(energy: np.ndarray, grid: QuadratureGrid) -> float:
    """Share of the coefficient energy (``energy`` = |c|^2 w per node) carried
    by the outermost 10% shell of the box -- a cheap truncation-tail estimate
    recorded in metadata.  The shell is the union of per-axis slabs, built
    from the grid's axes."""
    dim = len(grid.resolution)
    outer = np.zeros(grid.resolution, dtype=bool)
    for i, (lo, hi) in enumerate(grid.box):
        width = hi - lo
        ax = grid.axis(i)
        slab = (ax < lo + 0.05 * width) | (ax > hi - 0.05 * width)
        outer = outer | slab.reshape([-1 if m == i else 1 for m in range(dim)])
    total = float(np.sum(energy))
    if total == 0.0:
        return 0.0
    return float(np.sum(energy[outer.ravel()])) / total


def analyze(
    rep: UnitaryRepSpec,
    psi: DiscretizedState,
    phi: DiscretizedState,
    grid: QuadratureGrid,
    dm_norm: Optional[float] = None,
) -> TransformResult:
    """Sample c_{psi,phi}(g) = <U(g) psi, phi> at every grid node, in one
    batch on the rep's action table.  A grid reaching outside the rep's safe
    box is clipped to it, with a warning on the ``groupwave`` logger.
    """
    if norm(psi) == 0.0:
        raise ValueError("analyzing vector must be nonzero")
    grid, clipped = _clip_to_safe_box(rep, grid)
    coeffs = rep.fast_coefficients(psi, phi, grid)
    result = TransformResult(
        coefficients=np.asarray(coeffs, dtype=complex),
        grid=grid,
        analyzing_vector_id=f"state[{norm(psi):.12g}]",
        rep_id=rep.label,
        dm_norm=dm_norm,
        meta={"box": [list(b) for b in grid.box], "resolution": list(grid.resolution),
              "clipped": clipped},
        analyzing_vector_sha256=psi.sha256(),
    )
    energy = np.abs(result.coefficients) ** 2 * grid.weights
    result.meta["energy"] = float(np.sum(energy))
    result.meta["shell_fraction"] = _shell_fraction(energy, grid)
    return result


def _clip_to_safe_box(rep: UnitaryRepSpec, grid: QuadratureGrid):
    if rep.safe_box is None:
        return grid, False
    new_box = []
    clipped = False
    for i, (lo, hi) in enumerate(grid.box):
        slo, shi = rep.safe_box[i]
        nlo, nhi = max(lo, slo), min(hi, shi)
        if (nlo, nhi) != (lo, hi):
            clipped = True
        new_box.append((nlo, nhi))
    if not clipped:
        return grid, False
    safe = haar_grid(grid.group, new_box, grid.resolution, log_axes=grid.log_axes)
    _log.warning("%s: grid box %s clipped to %s", rep.label, list(grid.box), list(safe.box))
    return safe, True


def synthesize(
    result: TransformResult, rep: UnitaryRepSpec, psi: DiscretizedState
) -> DiscretizedState:
    """Adjoint reconstruction  phi = ||D psi||^{-2} sum c(g) U(g) psi w(g).

    Because the normalized transform is an isometry, the adjoint is a left
    inverse; on a truncated grid the reconstruction error is the quadrature
    plus truncation error of the reproducing integral.  Runs in one batch on
    the exact adjoint of :func:`analyze`'s engine.
    """
    if result.dm_norm is None:
        raise ValueError("dm_norm metadata is unset; synthesize needs it")
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
    rel_tol: float = 1e-3,
    mode: str = "slabs",
) -> AdmissibilityReport:
    """Estimate int |c_{psi,psi}|^2 dmu over nested boxes.

    mode="slabs":  the grids are disjoint (a base box plus extension slabs);
                   partial integral j is the energy over the union 0..j.
    mode="nested": each grid already covers the whole j-th box.

    admissible  : the increments collapse (final relative increment < rel_tol);
                  dm_norm_sq is the limit estimate divided by ||psi||^2.
    not admissible: increments do not decay (final >= half the first extension);
    inconclusive: anything in between, reported as its own status.
    """
    if norm(psi) == 0.0:
        raise ValueError("analyzing vector must be nonzero")
    if mode not in ("slabs", "nested"):
        raise ValueError("mode must be 'slabs' or 'nested'")
    energies = []
    for grid in nested_grids:
        res = analyze(rep, psi, psi, grid)
        energies.append(res.energy())
    if mode == "slabs":
        partials = list(np.cumsum(energies))
        increments = list(energies)
    else:
        partials = list(energies)
        increments = [partials[0]] + [
            partials[i] - partials[i - 1] for i in range(1, len(partials))
        ]
    final_rel = abs(increments[-1]) / max(abs(partials[-1]), 1e-300)
    if final_rel < rel_tol:
        return AdmissibilityReport(
            admissible=True,
            dm_norm_sq=partials[-1] / norm(psi) ** 2,
            partials=tuple(partials),
            increments=tuple(increments),
            status="admissible",
        )
    if len(increments) >= 3 and abs(increments[-1]) >= 0.5 * abs(increments[1]):
        return AdmissibilityReport(
            admissible=False,
            dm_norm_sq=None,
            partials=tuple(partials),
            increments=tuple(increments),
            status="divergent",
        )
    return AdmissibilityReport(
        admissible=None,
        dm_norm_sq=None,
        partials=tuple(partials),
        increments=tuple(increments),
        status="inconclusive",
    )


# ---------------------------------------------------------------------------
# Orthogonality relations / reproducing kernel / semi-invariance
# ---------------------------------------------------------------------------


def orthogonality_check(
    rep: UnitaryRepSpec,
    psi1: DiscretizedState,
    psi2: DiscretizedState,
    phi1: DiscretizedState,
    phi2: DiscretizedState,
    dm: DMOperator,
    grid: QuadratureGrid,
):
    """Quadrature check of the orthogonality relation.

    Returns (lhs, rhs, relerr) of :func:`orthogonality_relation`; an identical
    pair (psi2 is psi1 and phi2 is phi1) is analyzed once.
    """
    c1 = analyze(rep, psi1, phi1, grid).coefficients
    if psi2 is psi1 and phi2 is phi1:
        c2 = c1
    else:
        c2 = analyze(rep, psi2, phi2, grid).coefficients
    return orthogonality_relation(c1, c2, psi1, psi2, phi1, phi2, dm, grid)


def orthogonality_relation(
    c1: np.ndarray,
    c2: np.ndarray,
    psi1: DiscretizedState,
    psi2: DiscretizedState,
    phi1: DiscretizedState,
    phi2: DiscretizedState,
    dm: DMOperator,
    grid: QuadratureGrid,
):
    """Both sides of the orthogonality relation from sampled coefficients
    c1 = c_{psi1,phi1} and c2 = c_{psi2,phi2} on ``grid``.

    Returns (lhs, rhs, relerr): lhs is the group-side quadrature of
    conj(c1) c2, rhs = <phi1, phi2> <D psi2, D psi1>; relerr is relative to
    the product of norms when rhs is (near) zero.
    """
    lhs = complex(np.sum(np.conj(c1) * c2 * grid.weights))
    d2 = dm.apply(psi2)
    d1 = dm.apply(psi1)
    rhs = inner(phi1, phi2) * inner(d2, d1)
    scale = max(
        abs(rhs),
        norm(phi1) * norm(phi2) * dm.norm_of(psi1) * dm.norm_of(psi2),
        1e-300,
    )
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
        res = analyze(rep, psi, phi, grid)
        lhs_list.append(res.energy())
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
    result: TransformResult,
    rep: UnitaryRepSpec,
    psi: DiscretizedState,
    sample_count: int = 16,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Reproducing-property defect of the sampled coefficient function.

    At ``sample_count`` grid nodes g, compares f(g) with
    int kernel(g, g') f(g') dmu(g') over the grid; returns the max relative
    error (scaled by the largest |f| sample).  Deterministic for a fixed rng
    seed: repeated evaluation returns identical numbers.
    """
    if result.dm_norm is None:
        raise ValueError("dm_norm is unset")
    rng = rng if rng is not None else np.random.default_rng(7)
    idx = rng.choice(result.grid.n_nodes, size=sample_count, replace=False)
    # Gram rows <U(g_i) psi, U(g_j) psi> via the coefficient of U(g_i)psi
    scale = max(np.max(np.abs(result.coefficients)), 1e-300)
    worst = 0.0
    for i in idx:
        g_i = result.grid.node(i)
        row = analyze(rep, psi, rep.act(g_i, psi), result.grid).coefficients
        # row(g') = <U(g') psi, U(g_i) psi> = ||Dpsi||^2 kernel(g_i, g')*
        integ = complex(
            np.sum(np.conj(row) * result.coefficients * result.grid.weights)
        ) / result.dm_norm ** 2
        worst = max(worst, abs(integ - result.coefficients[i]) / scale)
    return worst


def semi_invariance_check(
    rep: UnitaryRepSpec,
    dm: DMOperator,
    g,
    test_states: Sequence[DiscretizedState],
) -> float:
    """Defect of  U(g) D U(g)^{-1} = Delta(g)^{1/2} D  on the test states."""
    G = rep.group
    g = np.asarray(g, dtype=float)
    g_inv = G.inverse(g)
    weight = float(G.modular(g)) ** 0.5
    worst = 0.0
    for v in test_states:
        lhs = rep.act(g, dm.apply(rep.act(g_inv, v)))
        rhs = dm.apply(v).samples * weight
        denom = max(norm(DiscretizedState(rhs, v.grid)), 1e-300)
        worst = max(
            worst,
            norm(DiscretizedState(lhs.samples - rhs, v.grid)) / denom,
        )
    return worst


def mod_K_equiv_check(
    rep: UnitaryRepSpec,
    rho: RhoDensity,
    psi: DiscretizedState,
    phi: DiscretizedState,
    g_grid: QuadratureGrid,
    x_grid: QuadratureGrid,
    proj_rep: UnitaryRepSpec,
):
    """Both sides of  int_G |c^U|^2 dmu_{G,K} = int_X |c^{P_s}|^2 dmu_X.

    Returns (lhs, rhs, relerr).  The left side integrates against the density
    rho over the G grid; the right side is the X-quadrature of the section
    pullback's coefficients.
    """
    c_g = analyze(rep, psi, phi, g_grid).coefficients

    def f(nodes):
        # integrate_mod_K consumes |c|^2 sampled on the same grid
        return np.abs(c_g) ** 2

    lhs = integrate_mod_K(f, rho, g_grid)
    c_x = analyze(proj_rep, psi, phi, x_grid).coefficients
    rhs = float(np.sum(np.abs(c_x) ** 2 * x_grid.weights))
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return lhs, rhs, abs(lhs - rhs) / scale


# ---------------------------------------------------------------------------
# Serialization: coefficients CSV + JSON header
# ---------------------------------------------------------------------------


def save_result_csv(path_prefix: str, result: TransformResult) -> tuple[str, str]:
    """Write <prefix>.csv (node coords, weight, re, im) and <prefix>.json."""
    import json

    csv_path = f"{path_prefix}.csv"
    json_path = f"{path_prefix}.json"
    dim = result.grid.nodes.shape[1]
    # 17 significant digits read back as the same double
    row = "%d," + ",".join(["%.17g"] * (dim + 3)) + "\n"
    c = np.asarray(result.coefficients)
    data = np.column_stack([result.grid.nodes, result.grid.weights, c.real, c.imag]).tolist()
    with open(csv_path, "w") as fh:
        coord_names = ",".join(f"g{i}" for i in range(dim))
        fh.write(f"index,{coord_names},weight,re,im\n")
        fh.write("".join([row % (i, *values) for i, values in enumerate(data)]))
    header = {
        "group": result.grid.group.name,
        "rep": result.rep_id,
        "analyzing_vector": result.analyzing_vector_id,
        "analyzing_vector_sha256": result.analyzing_vector_sha256,
        "dm_norm": result.dm_norm,
        "box": [list(b) for b in result.grid.box],
        "resolution": list(result.grid.resolution),
        "log_axes": list(result.grid.log_axes),
        "meta": {
            k: v for k, v in result.meta.items() if isinstance(v, (int, float, str, bool, list))
        },
    }
    with open(json_path, "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def load_result_csv(path_prefix: str, grid: QuadratureGrid) -> TransformResult:
    """Read a result written by :func:`save_result_csv`; ``grid`` supplies the
    group, the header the box, resolution and log axes (clipping moves the box)."""
    import json

    with open(f"{path_prefix}.json") as fh:
        header = json.load(fh)
    if header.get("group") != grid.group.name:
        raise ValueError(
            f"coefficient file is for group {header.get('group')!r}, "
            f"not {grid.group.name!r}"
        )
    try:
        box = tuple(tuple(map(float, b)) for b in header.get("box", grid.box))
        resolution = tuple(map(int, header.get("resolution", grid.resolution)))
        log_axes = tuple(map(int, header.get("log_axes", grid.log_axes)))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"coefficient header: malformed grid ({exc})") from None
    if (box, resolution, log_axes) != (grid.box, grid.resolution, grid.log_axes):
        grid = haar_grid(grid.group, box, resolution, log_axes=log_axes)
    re, im = np.loadtxt(f"{path_prefix}.csv", delimiter=",", skiprows=1,
                        usecols=(-2, -1), ndmin=2).T
    coeffs = re + 1j * im
    if coeffs.size != grid.n_nodes:
        raise ValueError("coefficient count does not match the grid")
    return TransformResult(
        coefficients=coeffs,
        grid=grid,
        analyzing_vector_id=header.get("analyzing_vector", "?"),
        rep_id=header.get("rep", "?"),
        dm_norm=header.get("dm_norm"),
        meta=header.get("meta", {}),
        analyzing_vector_sha256=header.get("analyzing_vector_sha256"),
    )
