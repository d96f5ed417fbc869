"""Reflection-positivity numerics for Hardy-space kernels on the disc, the
upper half-plane and the horizontal strip."""

from .config import Defaults
from .domains import DISC, HALF_PLANE, Disc, Domain, HalfPlane, Strip, \
    hardy_transfer, sample_interior, transfer_map
from .errors import RPHardyError
from .kernels import (
    bergman_strip,
    boundary_inner,
    boundary_restriction,
    flip_pairing_check,
    h_boundary,
    h_boundary_at,
    hua_ratio,
    kernel_gram,
    outer_f,
    outer_from_modulus,
    poisson,
    poisson_at,
    poisson_midline_strip,
    power_kernel,
    szego,
    szego_at,
    szego_diag,
    szego_transfer_check,
    theta_apply,
)
from .measures import (
    Gamma_inverse,
    Gamma_map,
    M_kappa,
    MeasureOnR,
    atomic,
    bergman_strip_measure,
    fourier,
    gamma_map,
    geometric_splitting,
    gridded,
    kernel_from_measure,
    kms_check,
    laplace,
    reflection_check,
    riesz_hat,
    riesz_hat_quad,
    rp_circle_from_measure,
    szego_strip_measure,
    theta_involution_check,
)
from .modular import (
    DiscretizedSpace,
    ModularData,
    build_modular,
    commutation_check,
    modular_coefficient,
    psi_hardy_midline,
    standard_membership,
)
from .numerics import GramReport, IdentityCheck, gram_report
from .periodize import (
    SeriesEval,
    bergman_series,
    cosecant_series,
    sinh_series,
    szego_series,
    szego_series_split,
)
from .rpfunc import (
    c_func,
    g_func,
    param_rp_check,
    pd_gram,
    phi_circle,
    phi_circle_fourier,
    phi_int,
    phi_line,
    rp_gram,
    strip_membership,
)
from .verify import SUITE_NAMES, CheckResult, SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
