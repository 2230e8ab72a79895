"""groupwave: coherent-state and wavelet transforms built from square
integrable group representations, verified numerically.

The package implements concrete locally compact groups as charts on R^d,
their unitary and projective representations on sampled L2 states, the
measure decomposition over a relatively central subgroup, the induced
representations intertwining the analysis operators, and the generalized
wavelet transforms with their Duflo-Moore orthogonality relations.
"""

from .groups import (
    GroupDescriptor,
    QuadratureGrid,
    haar_grid,
    make_affine,
    make_exotic,
    make_polarized_wh,
    make_standard_wh,
    delta_iso,
)
from .multipliers import (
    Multiplier,
    RelCentralSubgroup,
    Section,
    central_extension,
    check_cocycle,
    conjugate,
    kappa_from_section,
    multiplier_from_section,
    similar,
)
from .states import (
    DiscretizedState,
    StateGrid,
    centered_grid,
    fourier_plancherel,
    gaussian_state,
    hermite_state,
    inner,
    morlet_state,
    norm,
)
from .representations import (
    ProjectiveRepSpec,
    UnitaryRepSpec,
    affine_rep,
    coefficient,
    displacement,
    exotic_rep,
    lift_to_extension,
    projective_from_section,
    wh_rep,
)
from .measures import (
    RhoDensity,
    center_divergence_probe,
    coord_product,
    decompose_check,
    gamma_s,
    gamma_s_inv,
    integrate_mod_K,
    make_rho,
    translate_rho,
)
from .induced import R_chi_s, intertwine_defect, left_reg_m
from .transforms import (
    DMOperator,
    TransformResult,
    admissibility,
    analyze,
    coefficient_energy,
    duflo_moore,
    kernel,
    mod_K_equiv_check,
    orthogonality_check,
    reproduce_check,
    semi_invariance_check,
    synthesize,
)
from .configs import affine_setup, exotic_setup, gabor_setup

__version__ = "0.1.0"
