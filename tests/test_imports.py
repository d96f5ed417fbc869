"""Imports are lazy.  ``import rphardy`` loads none of its modules: each
public name is imported from its home module on first use.  Each closed-form
CLI subcommand loads only the modules it uses, and never scipy; only a
quadrature loads scipy, and of scipy only its compiled QUADPACK extension
(and the few modules that extension imports), never ``scipy.integrate`` and
the subpackages it pulls in.

Each case runs in a fresh child interpreter, because the test session itself
has long since imported every module and scipy."""

import ast
import json
import math
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# prints, as the last line of stdout, the sorted scipy modules and the sorted
# rphardy submodules (without the "rphardy." prefix) loaded so far
_REPORT = ("import sys; print(); print(("
           "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
           "sorted(m[8:] for m in sys.modules if m.startswith('rphardy.'))))")


def _child(code: str):
    """Run ``code`` in a fresh interpreter; returns the process and the
    (scipy modules, rphardy submodules) it had loaded at the end."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code + "\n" + _REPORT],
                          env=env, capture_output=True, text=True, timeout=60)
    lines = proc.stdout.splitlines()
    return proc, (ast.literal_eval(lines[-1]) if lines else (None, None))


# the public names of the package, by home module: 79 re-exports, and the
# ten submodules themselves
EXPORTS = {
    "config": ["Defaults", "SUITE_NAMES"],
    "domains": ["DISC", "HALF_PLANE", "Disc", "Domain", "HalfPlane", "Strip",
                "hardy_transfer", "sample_interior", "transfer_map"],
    "errors": ["RPHardyError"],
    "kernels": ["bergman_strip", "boundary_inner", "boundary_restriction",
                "flip_pairing_check", "h_boundary", "h_boundary_at", "hua_ratio",
                "kernel_gram", "outer_f", "outer_from_modulus", "poisson", "poisson_at",
                "poisson_midline_strip", "power_kernel", "szego", "szego_at", "szego_diag",
                "szego_transfer_check", "theta_apply"],
    "measures": ["Gamma_inverse", "Gamma_map", "M_kappa", "MeasureOnR", "atomic",
                 "bergman_strip_measure", "fourier", "gamma_map", "geometric_splitting",
                 "gridded", "kernel_from_measure", "kms_check", "laplace",
                 "reflection_check", "riesz_hat", "riesz_hat_quad", "rp_circle_from_measure",
                 "szego_strip_measure", "theta_involution_check"],
    "modular": ["DiscretizedSpace", "ModularData", "build_modular", "commutation_check",
                "modular_coefficient", "psi_hardy_midline", "standard_membership"],
    "numerics": ["GramReport", "IdentityCheck", "gram_report"],
    "periodize": ["SeriesEval", "bergman_series", "cosecant_series", "sinh_series",
                  "szego_series", "szego_series_split"],
    "rpfunc": ["c_func", "g_func", "param_rp_check", "pd_gram", "phi_circle",
               "phi_circle_fourier", "phi_int", "phi_line", "rp_gram", "strip_membership"],
    "verify": ["CheckResult", "SuiteReport", "run_suite"],
}
PUBLIC = sorted([*EXPORTS, *(name for names in EXPORTS.values() for name in names)])


def test_importing_the_package_loads_none_of_its_modules():
    proc, (scipy, loaded) = _child("import rphardy")
    assert proc.returncode == 0, proc.stderr
    assert loaded == [] and scipy == []


def test_the_package_exports_its_89_names_from_their_home_modules():
    # in a fresh child, so each name goes through the lazy lookup
    proc, _ = _child(
        "import importlib, json, rphardy\n"
        "listed = dir(rphardy)\n"
        "exports = %r\n"
        "same = {name: getattr(rphardy, name) is getattr("
        "importlib.import_module('rphardy.' + home), name)\n"
        "        for home, names in exports.items() for name in names}\n"
        "same.update((home, getattr(rphardy, home) is importlib.import_module("
        "'rphardy.' + home)) for home in exports)\n"
        "print(json.dumps([rphardy.__all__, same, sorted(set(listed) & set(same))]))"
        % (EXPORTS,))
    assert proc.returncode == 0, proc.stderr
    names, same, listed = json.loads(proc.stdout.splitlines()[0])
    assert len(PUBLIC) == 89
    assert names == PUBLIC
    assert sorted(same) == PUBLIC and all(same.values())
    assert listed == PUBLIC         # dir(rphardy) lists them before first use


def test_python_x_importtime_reports_the_modules_a_name_loads():
    # the benchmark's import breakdown reads -X importtime, which does not
    # see imports made through importlib.import_module
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "from rphardy import szego, kernels, atomic"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    logged = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
    assert {"rphardy", "rphardy.kernels", "rphardy.measures"} <= logged


def test_a_star_import_binds_all_89_names():
    proc, _ = _child("from rphardy import *\n"
                     "print(sorted(k for k in dir() if not k.startswith('_')))")
    assert proc.returncode == 0, proc.stderr
    assert ast.literal_eval(proc.stdout.splitlines()[0]) == PUBLIC


def test_a_name_the_package_does_not_export_raises_attribute_error():
    import rphardy
    with pytest.raises(AttributeError, match="no attribute 'comp_sum'"):
        rphardy.comp_sum
    assert getattr(rphardy, "cli_main", None) is None


def test_the_parser_choices_have_one_home_each():
    from rphardy import config, rpfunc, verify
    assert verify.SUITE_NAMES is config.SUITE_NAMES
    assert rpfunc.GROUPS is config.GROUPS


def test_importing_the_package_and_cli_loads_no_scipy():
    proc, (scipy, _) = _child("import rphardy, rphardy.cli")
    assert proc.returncode == 0, proc.stderr
    assert scipy == []


# what the CLI module itself loads: the parser reads its choices from config
CLI = ["cli", "config", "errors"]


# each subcommand's help, and an argument argparse refuses: a bad choice, a
# missing required option, and a value its type does not parse
HELP_AND_ARGUMENT_ERRORS = [(["--help"], 0)] + [
    ([cmd, "--help"], 0) for cmd in ("kernel", "verify", "rp", "measure", "series", "modular")
] + [(["verify", "--suite", "nope"], 2), (["series", "--kind", "sinh"], 2),
     (["series", "--kind", "sinh", "--z=0.3+0.2i", "--terms", "2.5"], 2)]


@pytest.mark.parametrize("argv,code", HELP_AND_ARGUMENT_ERRORS,
                         ids=["help"] + ["%s-help" % cmd for cmd in (
                             "kernel", "verify", "rp", "measure", "series", "modular")]
                         + ["bad-choice", "missing-option", "bad-int"])
def test_python_m_cli_help_and_argument_errors_load_no_numpy(argv, code):
    proc, (scipy, loaded) = _child(
        "import runpy, sys\nsys.argv = %r\n"
        "try:\n    runpy.run_module('rphardy.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n    assert exc.code == %d, exc.code\n"
        "assert 'numpy' not in sys.modules" % (["rphardy"] + argv, code))
    assert proc.returncode == 0, proc.stderr
    assert loaded == ["config", "errors"] and scipy == []


# one call of each kind the one-shot CLI benchmark makes, and the rphardy
# modules it loads besides those of CLI
CLOSED_FORM_CALLS = [
    (["kernel", "--domain", "strip", "--kind", "poisson", "--beta", "1.5",
      "--z=0.3+0.5i", "--x=0.2", "--component", "upper", "--json"],
     ["domains", "kernels", "numerics"]),
    (["series", "--kind", "bergman", "--beta", "2.0", "--z=0.4+0.7i",
      "--w=-0.2+1.1i", "--terms", "2000", "--json"],
     ["domains", "kernels", "numerics", "periodize"]),
    (["measure", "--op", "kms", "--atoms", "0.8:0.69,-0.8:0.31", "--beta", "1.0",
      "--json"],
     ["measures", "numerics"]),
    (["rp", "--characterize", "--beta", "1.0", "--z=0.3+0.4i", "--json"],
     ["numerics", "rpfunc"]),
    (["modular", "--atoms", "0.5:1.0,1.5:0.3", "--beta", "1.2", "--t=0.7",
      "--json"],
     ["measures", "modular", "numerics"]),
]


@pytest.mark.parametrize("argv,modules", CLOSED_FORM_CALLS,
                         ids=[a[0][0] for a in CLOSED_FORM_CALLS])
def test_closed_form_cli_calls_load_only_their_modules_and_no_scipy(argv, modules):
    proc, (scipy, loaded) = _child("import sys\nfrom rphardy.cli import main\n"
                                   "code = main(%r)\nsys.stdout.flush()\n"
                                   "assert code == 0, code" % (argv,))
    assert proc.returncode == 0, proc.stderr
    json.loads(proc.stdout.splitlines()[0])      # the call printed its result
    assert scipy == []
    assert loaded == sorted(CLI + modules)
    assert "verify" not in loaded


def test_python_m_cli_kernel_leaves_the_other_modules_unloaded():
    # as ``python -m rphardy.cli kernel ...`` runs it: the CLI is __main__
    argv = ["rphardy"] + CLOSED_FORM_CALLS[0][0]
    proc, (scipy, loaded) = _child(
        "import runpy, sys\nsys.argv = %r\n"
        "try:\n    runpy.run_module('rphardy.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n    assert exc.code == 0, exc.code\n"
        "sys.stdout.flush()" % (argv,))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[0])["kind"] == "poisson"
    assert loaded == ["config", "domains", "errors", "kernels", "numerics"]
    assert scipy == []


# scipy's subpackages that the scipy.integrate package pulls in; a quadrature
# loads only scipy's compiled QUADPACK extension, and none of them
HEAVY_SCIPY = ("scipy.integrate", "scipy.special", "scipy.optimize", "scipy.sparse",
               "scipy.linalg", "scipy.spatial")


def _heavy(scipy_modules):
    """The modules of ``scipy_modules`` that belong to a HEAVY_SCIPY package."""
    return [m for m in scipy_modules if ".".join(m.split(".")[:2]) in HEAVY_SCIPY]


_GAUSS_LINE = ("import math\nfrom rphardy import numerics\n"
               "val, err = numerics.quad_real(lambda x: math.exp(-x * x), "
               "-math.inf, math.inf)\nprint(repr(val), repr(err))")


def test_a_quadrature_integrates_without_the_scipy_integrate_package():
    proc, (scipy, _) = _child(_GAUSS_LINE)
    assert proc.returncode == 0, proc.stderr
    val, err = map(float, proc.stdout.splitlines()[0].split())
    assert abs(val - math.sqrt(math.pi)) < 1e-10      # the default tol
    assert err < 1e-10
    assert _heavy(scipy) == []


def test_scipy_integrate_imported_after_a_quadrature_gives_the_same_bits():
    proc, (scipy, _) = _child(
        _GAUSS_LINE + "\nimport scipy.integrate\n"
        "print(*scipy.integrate.quad(lambda x: math.exp(-x * x), -math.inf, math.inf, "
        "epsabs=1e-10 / 4, epsrel=1e-12, limit=400, full_output=1)[:2])")
    assert proc.returncode == 0, proc.stderr
    ours, theirs = proc.stdout.splitlines()[:2]
    assert ours == theirs
    assert "scipy.integrate" in scipy


@pytest.mark.parametrize("suite", ["appendix", "all"])
def test_python_m_cli_verify_loads_none_of_scipys_subpackages(suite):
    proc, (scipy, loaded) = _child(
        "import runpy, sys\nsys.argv = ['rphardy', 'verify', '--suite', %r, '--json']\n"
        "try:\n    runpy.run_module('rphardy.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n    assert exc.code == 0, exc.code\n"
        "sys.stdout.flush()" % suite)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.rsplit("\n\n", 1)[0])["failed"] == 0
    assert "verify" in loaded
    assert _heavy(scipy) == []
