"""Reflection-positivity numerics for Hardy-space kernels on the disc, the
upper half-plane and the horizontal strip.

Importing the package loads none of its modules: each public name below is
imported from its home module on first use (PEP 562), so a caller that needs
the kernels pays for neither the measures nor the verification suites."""

__version__ = "0.1.0"

# home module -> the public names it exports through the package
_EXPORTS = {
    "config": ("Defaults", "SUITE_NAMES"),
    "domains": ("DISC", "HALF_PLANE", "Disc", "Domain", "HalfPlane", "Strip",
                "hardy_transfer", "sample_interior", "transfer_map"),
    "errors": ("RPHardyError",),
    "kernels": ("bergman_strip", "boundary_inner", "boundary_restriction",
                "flip_pairing_check", "h_boundary", "h_boundary_at", "hua_ratio",
                "kernel_gram", "outer_f", "outer_from_modulus", "poisson", "poisson_at",
                "poisson_midline_strip", "power_kernel", "szego", "szego_at", "szego_diag",
                "szego_transfer_check", "theta_apply"),
    "measures": ("Gamma_inverse", "Gamma_map", "M_kappa", "MeasureOnR", "atomic",
                 "bergman_strip_measure", "fourier", "gamma_map", "geometric_splitting",
                 "gridded", "kernel_from_measure", "kms_check", "laplace",
                 "reflection_check", "riesz_hat", "riesz_hat_quad", "rp_circle_from_measure",
                 "szego_strip_measure", "theta_involution_check"),
    "modular": ("DiscretizedSpace", "ModularData", "build_modular", "commutation_check",
                "modular_coefficient", "psi_hardy_midline", "standard_membership"),
    "numerics": ("GramReport", "IdentityCheck", "gram_report"),
    "periodize": ("SeriesEval", "bergman_series", "cosecant_series", "sinh_series",
                  "szego_series", "szego_series_split"),
    "rpfunc": ("c_func", "g_func", "param_rp_check", "pd_gram", "phi_circle",
               "phi_circle_fourier", "phi_int", "phi_line", "rp_gram", "strip_membership"),
    "verify": ("CheckResult", "SuiteReport", "run_suite"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    home = name if name in _EXPORTS else _HOME.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    # the builtin __import__: unlike importlib.import_module, ``python -X
    # importtime`` reports what it imports
    module = __import__(__name__ + "." + home, fromlist=[name])
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
