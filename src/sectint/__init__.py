"""Weighted section integration for isometric actions on matrix spaces.

The package reduces integrals over a matrix space carrying an
isometric action of SO(n), SU(n) or Sp(n) to weighted integrals over a
minimal section, provides the weight function (generic and closed
form), exact Haar and ensemble sampling, the two sides of the reduction
identity (deterministic Monte Carlo on the ambient side, quadrature on
the section), and quotient-volume bookkeeping.
"""

from .fields import ScalarField
from .matrices import (
    DimensionError,
    MatK,
    abs_det_between,
    eye,
    from_real_vector,
    gaussian,
    inner,
    mat,
    qr,
    to_real_vector,
    zeros,
)
from .groups import (
    Family,
    GroupElement,
    GroupSpec,
    adjoint,
    algebra_basis,
    haar_sample,
    torus_basis,
    torus_point,
    torus_points,
)
from .actions import (
    ActionSpec,
    AlgebraSplit,
    ConjugationAction,
    DirectSumAction,
    OrbitMapDifferential,
    RegularityClass,
    SectionFrame,
    act,
    action_from_json,
    algebra_split,
    classify_point,
    embed_section,
    isotropy_algebra,
    killing_field,
    normalizer_sample,
    orbit_normal,
    orbit_tangent,
    random_regular_section_point,
    reduce_to_section,
    section_coordinate,
    section_frame,
)
from .weights import (
    WeightValue,
    delta_d,
    delta_e_batch,
    delta_e_closed_form,
    delta_e_generic,
    orbit_map_differential,
    orbit_volume,
    torus_weight_batch,
    weight_value,
)
from .mc import McEstimate, agree, mc_run
from .integrate import (
    CalibrationReport,
    ContractViolation,
    TestFunction,
    calibrate_vol_gn,
    integrate_direct,
    integrate_reduced,
    make_test_function,
)
from .volumes import (
    group_volume,
    torus_volume,
    vol_gh_estimate,
    w_group_volume,
)
from .ensembles import EnsembleSpec, HistogramComparison, compare_densities, sample_ensemble
from .checks import CheckResult, run_action_checks

__version__ = "0.1.0"
