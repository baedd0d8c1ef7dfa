"""Exact-arithmetic workbench for Euler-characteristic obstructions to
Bott vanishing on weak Fano threefolds of Picard rank 2."""

from .exact import Affine, Rational, T, UniPoly, binom
from .chow import GradedClass, H_class, LineBase4, PlaneBase2, U_class, unit
from .chern import (
    SurfaceChern,
    SymPowerPolys,
    cotangent_twist_e_classes,
    sym_power_polys,
    sym_power_splitting_oracle,
    tangent_chern_plane_bundle,
)
from .rr import (
    HypothesisViolation,
    chi_plane,
    euler_jaczewski_chi,
    f_formula,
    f_splitting_oracle,
    hrr_threefold,
)
from .theorems import (
    DivisorCaseInput,
    PlaneBundleInput,
    ThreefoldNumerics,
    thm1_closed,
    thm1_derived,
    thm2_chain,
    thm2_closed,
    thm3_Q,
    thm3_h0_split,
    thm3_hrr_crosscheck,
    thm3_value,
)
from .bottcases import (
    CaseRecord,
    Verdict,
    builtin_registry,
    evaluate_case,
    load_registry,
    report_json,
    report_rows,
    report_text,
    serialize_registry,
)

__version__ = "0.1.0"
