"""The argument contract, with every warning made an error.

Every public function declares its numeric parameters once, by kind, with
``numerics.takes``, and the declarations are collected in
``numerics.CONTRACTS``.  The rows of this file are generated from that
registry, one per declared parameter of each good call in ``CALLS``:

* ``POINT``: anything but one finite complex number raises
  :class:`ParameterOutOfRange`; so does an array of two good points;
* ``POINTS``: the same, except that a rectangular array of finite complex
  numbers is taken (and one bad value inside an array raises);
* ``REAL``: anything but one finite real number raises it;
* ``POSITIVE``: anything but a finite number > 0 raises it;
* ``COUNT(least)``: anything but a Python or numpy integer of at least
  ``least`` raises it;
* ``SIZE(least)``, a count that sizes an array: the same, and so does an
  integer above ``numerics._MAX_SIZE``, before anything is allocated.

Hypothesis fuzzes every generated row with finite numbers up to +-1e308 (and
counts from -10): each call gives a finite value or raises an
:class:`RPHardyError`, and warns of nothing.

A test fails when a function of ``rphardy.__all__`` is neither declared nor
in ``EXEMPT`` (each exemption gives its reason), when a declared function
has no good call, or when one that takes a domain lacks a good call on the
disc, the half-plane or a strip, so a new public function is fuzzed by
construction, on every domain it takes.  The
``Domain`` methods and the maps ``transfer_map`` and ``hardy_transfer``
return are not module-level functions: their guards stay inline, and their
rows are written by hand in ``FORMS``.  A map evaluated on its pole raises
:class:`PoleAtInput`."""

import dataclasses
import functools
import importlib
import inspect
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rphardy
from rphardy import kernels, measures, modular, numerics, periodize, rpfunc
from rphardy.domains import (DISC, HALF_PLANE, Strip, cayley, cayley_inv, hardy_transfer,
                             sample_interior, strip_exp, strip_log, transfer_map)
from rphardy.errors import (DivergentTransform, OutsideDomain, ParameterOutOfRange, PoleAtInput,
                            RPHardyError, ToleranceNotReached)

for _module in rphardy._EXPORTS:     # every declaration is made on import
    importlib.import_module("rphardy." + _module)

STRIP = Strip(1.0)
GOOD = 0.3 + 0.5j
NU = measures.atomic([(0.5, 1.0), (-0.5, 1.0)])
MU = measures.atomic([(0.5, 1.0)])
MD = modular.build_modular(measures.Gamma_map(MU, 1.0), 1.0)
V = np.ones(MD.space.dim)
COMPONENT = object()    # stands for the first boundary component of the domain


def _on_each_domain(name, fn, *args):
    """A good call ``fn(domain, *args)`` on each of the three domains: ids
    ``name-disc``, ``name-half_plane`` and, on the strip, ``name``."""
    for domain, suffix in ((DISC, "-disc"), (HALF_PLANE, "-half_plane"), (STRIP, "")):
        first = domain.boundary_components()[0]
        yield name + suffix, fn, (domain, *(first if a is COMPONENT else a for a in args))


# (id, function, the arguments of a good call); a declared parameter past
# the arguments given is passed by keyword
CALLS = [
    ("oscillatory_ft", numerics.oscillatory_ft, (lambda x: 1.0 / (1.0 + x * x), 0.7)),
    ("trapezoid_circle", numerics.trapezoid_circle, (np.ones_like, 8)),
    ("trapezoid_line", numerics.trapezoid_line, (lambda x: 1.0 / np.cosh(x), 0.3, 1.0)),
    ("gram_report", numerics.gram_report, (np.eye(2),)),
    ("poisson_summation_check", numerics.poisson_summation_check, (1.0, 1.0, 0.3, 10)),
    ("ftcosh_check", numerics.ftcosh_check, (1.0, GOOD)),
    ("sinh_abs_check", numerics.sinh_abs_check, (0.3, 0.3)),
    ("cosh_abs_check", numerics.cosh_abs_check, (0.3, 0.3)),
    ("cayley", cayley, (GOOD,)),
    ("cayley_inv", cayley_inv, (GOOD,)),
    ("strip_exp", strip_exp, (1.0, GOOD)),
    ("strip_log", strip_log, (1.0, GOOD)),
    *_on_each_domain("sample_interior", sample_interior, np.random.default_rng(0), 3),
    *_on_each_domain("szego", kernels.szego, GOOD, GOOD),
    *_on_each_domain("szego_at", kernels.szego_at, GOOD),
    *_on_each_domain("szego_diag", kernels.szego_diag, GOOD),
    *_on_each_domain("poisson", kernels.poisson, GOOD, 0.3),
    *_on_each_domain("poisson_at", kernels.poisson_at, GOOD),
    *_on_each_domain("hua_ratio", kernels.hua_ratio, GOOD, 0.3),
    ("poisson_midline_strip", kernels.poisson_midline_strip, (1.0, 0.3, 0.3)),
    ("bergman_strip", kernels.bergman_strip, (1.0, GOOD, GOOD)),
    *_on_each_domain("power_kernel", kernels.power_kernel, 1.5, GOOD, GOOD),
    *_on_each_domain("outer_f", kernels.outer_f, GOOD, GOOD),
    *_on_each_domain("h_boundary", kernels.h_boundary, GOOD, COMPONENT, 0.3),
    *_on_each_domain("h_boundary_at", kernels.h_boundary_at, GOOD, COMPONENT),
    *_on_each_domain("theta_apply", kernels.theta_apply, GOOD, lambda c, x: 1.0),
    # F Q_w must be integrable on the line, so F is bounded there; elsewhere
    # F grows, so a far w drives |f(w)|^2 past the float range
    ("flip_pairing_check-disc", kernels.flip_pairing_check, (DISC, GOOD, lambda z: z)),
    ("flip_pairing_check-half_plane", kernels.flip_pairing_check,
     (HALF_PLANE, GOOD, lambda z: 1.0)),
    ("flip_pairing_check", kernels.flip_pairing_check, (STRIP, GOOD, lambda z: z)),
    ("outer_from_modulus", kernels.outer_from_modulus, (lambda x: 1.0, GOOD)),
    *_on_each_domain("kernel_gram", kernels.kernel_gram, [GOOD]),
    ("szego_transfer_check", kernels.szego_transfer_check, (DISC, HALF_PLANE, 0.1, 0.1)),
    ("gamma_map", measures.gamma_map, (MU, 1.0)),
    ("Gamma_map", measures.Gamma_map, (MU, 1.0)),
    ("M_kappa", measures.M_kappa, (MU, 1.0)),
    ("Gamma_inverse", measures.Gamma_inverse, (NU, 1.0)),
    ("reflection_check", measures.reflection_check, (NU, 1.0)),
    ("fourier", measures.fourier, (NU, GOOD)),
    ("laplace", measures.laplace, (NU, 0.3)),
    ("kms_check", measures.kms_check, (NU, 1.0)),
    ("kernel_from_measure", measures.kernel_from_measure, (NU, GOOD, GOOD)),
    ("theta_involution_check", measures.theta_involution_check, (NU, 1.0, [(GOOD, GOOD)])),
    ("szego_strip_measure", measures.szego_strip_measure, (1.0, 4.0)),
    ("bergman_strip_measure", measures.bergman_strip_measure, (1.0, 4.0)),
    ("riesz_hat", measures.riesz_hat, (1.0, 1j)),
    ("riesz_hat_quad", measures.riesz_hat_quad, (1.0, 1j)),
    ("riesz_kappa_check", measures.riesz_kappa_check, (0.5, 1.0, 0.3)),
    ("geometric_splitting", measures.geometric_splitting, (NU, 1.0, "alternating")),
    ("standard_membership", modular.standard_membership, (MD.space, V)),
    ("modular_coefficient", modular.modular_coefficient, (MD, V, GOOD)),
    ("psi_hardy_midline", modular.psi_hardy_midline, (1.0, 0.3)),
    ("commutation_check", modular.commutation_check, (1.0, 8, 0.1, 0.2)),
    ("cosecant_series_at", periodize.cosecant_series_at, (GOOD, (10,))),
    ("cosecant_series", periodize.cosecant_series, (GOOD, 10)),
    ("sinh_series", periodize.sinh_series, (1.0, GOOD, 10)),
    ("strip_series_at", periodize.strip_series_at, (1.0, GOOD, GOOD, (10,))),
    ("szego_series", periodize.szego_series, (1.0, GOOD, GOOD, 10)),
    ("bergman_series", periodize.bergman_series, (1.0, GOOD, GOOD, 10)),
    ("szego_series_split", periodize.szego_series_split, (1.0, GOOD, GOOD, 10)),
    ("phi_int", rpfunc.phi_int, (0.5, 2)),
    ("phi_line", rpfunc.phi_line, (0.5, 1.0)),
    ("phi_circle", rpfunc.phi_circle, (1.0, 0.5, 0.3)),
    ("phi_circle_fourier", rpfunc.phi_circle_fourier, (1.0, 0.5, 2)),
    ("phi_circle_partial_sum", rpfunc.phi_circle_partial_sum, (1.0, 1.0, 0.3, 10)),
    ("c_func", rpfunc.c_func, (1.0, 0.5, GOOD)),
    ("c_log_abs", rpfunc.c_log_abs, (1.0, 0.5, GOOD)),
    ("g_func", rpfunc.g_func, (1.0, 0.5, GOOD)),
    ("strip_membership", rpfunc.strip_membership, (1.0, GOOD)),
]

# the public functions that declare nothing, and why
EXEMPT = {
    "run_suite": "its suite name is a key: an unknown one raises KeyError "
                 "(pinned in tests/test_verify_cli.py)",
    "atomic": "its pairs are a sequence of (location, weight), which finite_pairs guards",
    "gridded": "x0 and h are guarded in MeasureOnR, where every measure lands (FAR rows)",
    "boundary_restriction": "it takes a domain and a callable, and no number",
    "boundary_inner": "tol goes to trapezoid_line, which guards it",
    "transfer_map": "it takes two domains; the maps it returns are FORMS rows",
    "hardy_transfer": "it takes two domains and a callable; the maps it returns are FORMS rows",
    "rp_circle_from_measure": "beta goes to Gamma_map",
    "build_modular": "beta goes to reflection_check, which it calls first",
    "pd_gram": "lam and beta go to the family phi_int / phi_line / phi_circle it "
               "evaluates, the samples (group elements) to finite_array",
    "rp_gram": "as pd_gram",
    "param_rp_check": "its power n is a nonnegative integral number, an int or a float, "
                      "which no kind is; that one guard stays inline",
}


# the functions whose value is inf by definition somewhere, and where
INFINITE = {
    measures.reflection_check: "a support with no mirror, or a relative defect past 1e308",
}


@dataclasses.dataclass
class Row:
    """One declared parameter of one good call, or one FORMS row: ``call(v)``
    is the call with that argument replaced by v."""

    id: str
    call: object
    kind: str           # point, points, real, positive or count
    param: str = "p"
    least: int = None   # of a count
    most: int = None    # of a size
    fn: object = None
    good: object = None  # the argument of the good call


def _kind(kind) -> str:
    if isinstance(kind, functools.partial):
        return "count"
    return {numerics.POINT: "point", numerics.POINTS: "points", numerics.REAL: "real",
            numerics.POSITIVE: "positive"}[kind]


def _declared_rows(name, fn, args):
    """A row per declared parameter of the good call ``fn(*args)``: its call
    takes the argument passed where the good call passes it (by keyword past
    the arguments given)."""
    parameters = inspect.signature(fn).parameters
    for param, kind in numerics.CONTRACTS.get(fn, {}).items():
        i = list(parameters).index(param)
        if i < len(args):
            call, good = (lambda v, i=i: fn(*args[:i], v, *args[i + 1:])), args[i]
        else:
            call, good = (lambda v, p=param: fn(*args, **{p: v})), parameters[param].default
        bounds = getattr(kind, "keywords", {})
        yield Row("%s-%s" % (name, param), call, _kind(kind), param,
                  bounds.get("least"), bounds.get("most"), fn, good)


ROWS = [row for name, fn, args in CALLS for row in _declared_rows(name, fn, args)]


def test_every_public_function_is_declared_or_exempt():
    functions = {name: getattr(rphardy, name) for name in rphardy.__all__
                 if inspect.isfunction(getattr(rphardy, name))}
    undeclared = {name for name, fn in functions.items() if fn not in numerics.CONTRACTS}
    assert undeclared == set(EXEMPT)


def test_every_declared_function_has_a_good_call():
    called = {fn for _, fn, _ in CALLS}
    missing = [fn.__qualname__ for fn in numerics.CONTRACTS if fn not in called]
    assert not missing


def test_every_declared_function_that_takes_a_domain_has_a_good_call_on_each():
    called = {}
    for _, fn, args in CALLS:
        if "domain" in inspect.signature(fn).parameters:
            called.setdefault(fn, set()).add(type(args[0]))
    taking = [fn for fn in numerics.CONTRACTS if "domain" in inspect.signature(fn).parameters]
    missing = [fn.__qualname__ for fn in taking
               if called.get(fn) != {type(DISC), type(HALF_PLANE), Strip}]
    assert taking and not missing


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fn,args", [c[1:] for c in CALLS], ids=[c[0] for c in CALLS])
def test_a_good_call_returns(fn, args):
    fn(*args)


# --------------------------------------------------------------------------
# the generated rows, one bad value at a time
# --------------------------------------------------------------------------

# (id, call of the bad point p) of the forms that are not module-level
# functions, each of one point
FORMS = [
    ("require_interior", lambda p: STRIP.require_interior(p)),
    ("contains", lambda p: DISC.contains(p)),
    ("on_boundary", lambda p: STRIP.on_boundary(p)),
    ("sigma", lambda p: HALF_PLANE.sigma(p)),
    ("locate", lambda p: STRIP.locate(p)),
    ("transfer_map-disc-strip", lambda p: transfer_map(DISC, STRIP)[0](p)),
    ("transfer_map-disc-strip-derivative", lambda p: transfer_map(DISC, STRIP)[1](p)),
    ("transfer_map-strip-disc", lambda p: transfer_map(STRIP, DISC)[0](p)),
    ("transfer_map-strip-disc-derivative", lambda p: transfer_map(STRIP, DISC)[1](p)),
    ("hardy_transfer-disc-strip", lambda p: hardy_transfer(DISC, STRIP, np.exp)(p)),
    ("hardy_transfer-strip-disc", lambda p: hardy_transfer(STRIP, DISC, np.exp)(p)),
]
ROWS += [Row(name, call, "point") for name, call in FORMS]


def _rows(*kinds):
    return [pytest.param(row, id=row.id) for row in ROWS if row.kind in kinds]


BAD = [None, "0.5j", math.nan, complex(0.3, math.nan), math.inf, -math.inf,
       [GOOD, [GOOD]]]
BAD_IDS = ["None", "str", "nan", "nan-imag", "inf", "-inf", "ragged"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("row", _rows("point", "points"))
def test_a_point_that_is_not_a_finite_number_raises(row, bad):
    with pytest.raises(ParameterOutOfRange):
        row.call(bad)
    if row.kind == "points":    # the bad value inside an array of good points
        with pytest.raises(ParameterOutOfRange):
            row.call([GOOD, bad])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row", _rows("point"))
def test_an_entry_of_one_point_rejects_an_array_of_two(row):
    with pytest.raises(ParameterOutOfRange):
        row.call(np.array([GOOD, GOOD]))


def _outcome(call, v):
    """The value of ``call(v)``, or the type of the RPHardyError it raises."""
    try:
        return call(v)
    except RPHardyError as exc:
        return type(exc)


def _equal(a, b) -> bool:
    """Whether two outcomes are the same error type or equal values (a
    number, an array, or a tuple, list or result record of them)."""
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    if dataclasses.is_dataclass(a):
        a, b = dataclasses.astuple(a), dataclasses.astuple(b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row", _rows("points"))
def test_a_real_batch_gives_what_its_complex_form_gives(row):
    """The guard hands a real batch on as a float array, so every consumer
    converts for itself: the batch of the real parts of the good argument
    gives the same value, or the same error, in either dtype."""
    real = np.atleast_1d(np.real(np.asarray(row.good, dtype=complex)))
    got = _outcome(row.call, real)
    assert _equal(got, _outcome(row.call, real.astype(complex)))
    assert _equal(got, _outcome(row.call, real.tolist()))


BAD_COUNTS = [None, 2.5, np.float64(3.0), "3", math.nan, math.inf, 0.5j, np.array([1, 2])]
BAD_COUNT_IDS = ["None", "2.5", "float64", "str", "nan", "inf", "complex", "array"]


def _count_cases():
    """(row, bad) for every count row: the bad values above, -1 and least - 1
    below a least that is not None, and the cap + 1 of a size, as a Python
    and as a numpy integer."""
    for row in ROWS:
        if row.kind == "count":
            below = [] if row.least is None else [("-1", -1), ("least-1", row.least - 1)]
            above = [] if row.most is None else [("cap+1", row.most + 1),
                                                 ("int64-cap+1", np.int64(row.most + 1))]
            for bad_id, bad in list(zip(BAD_COUNT_IDS, BAD_COUNTS)) + below + above:
                yield pytest.param(row, bad, id="%s-%s" % (row.id, bad_id))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("row,bad", _count_cases())
def test_a_count_that_is_not_an_integer_of_at_least_its_least_raises(row, bad):
    """A count whose least is None ranges over every integer.  The cap + 1
    of a size is refused by the guard, so nothing of that size is
    allocated."""
    row.call(0 if row.least is None else row.least)
    with pytest.raises(ParameterOutOfRange, match="%s must be an integer%s%s" % (
            row.param, "" if row.least is None else " >= %d" % row.least,
            "" if row.most is None else " and <= %d" % row.most)):
        row.call(bad)


BAD_REALS = [None, "0.5", math.nan, math.inf, -math.inf, 0.5j, np.array([0.1, 0.2])]
BAD_REAL_IDS = ["None", "str", "nan", "inf", "-inf", "complex", "array"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", BAD_REALS, ids=BAD_REAL_IDS)
@pytest.mark.parametrize("row", _rows("real"))
def test_a_real_parameter_that_is_not_one_finite_real_raises(row, bad):
    row.call(int(row.good))     # an int is a real
    with pytest.raises(ParameterOutOfRange, match=row.param):
        row.call(bad)


@pytest.mark.parametrize("bad", [0.3 + 5j, np.complex128(0.3 + 5j), np.array(0.3 + 0j)],
                         ids=["complex", "numpy-complex", "0-d-complex"])
@pytest.mark.parametrize("row", _rows("real"))
def test_a_real_parameter_given_one_complex_number_says_it_must_be_real(row, bad):
    # not "a rectangular array of numbers": the value is one number, whose
    # fault is that it is complex (even with a zero imaginary part)
    with pytest.raises(ParameterOutOfRange, match="%s must be real, got" % row.param):
        row.call(bad)


BAD_POSITIVES = [None, "1", math.nan, math.inf, -math.inf, 0.0, -1.0, 0.5j,
                 np.array([1.0, 2.0]), 10 ** 400]
BAD_POSITIVE_IDS = ["None", "str", "nan", "inf", "-inf", "0", "-1", "complex", "array",
                    "int-past-float"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", BAD_POSITIVES, ids=BAD_POSITIVE_IDS)
@pytest.mark.parametrize("row", _rows("positive"))
def test_a_positive_parameter_that_is_not_a_finite_number_above_0_raises(row, bad):
    with pytest.raises(ParameterOutOfRange, match="need finite %s > 0" % row.param):
        row.call(bad)


def test_phi_circle_fourier_rejects_an_n_that_is_not_an_integer():
    with pytest.raises(ParameterOutOfRange, match="n must be an integer, got 2.5"):
        rpfunc.phi_circle_fourier(1.0, 1.0, 2.5)


# (id, call of a map on its pole)
POLES = [
    ("cayley", lambda: cayley(1.0)),
    ("cayley_inv", lambda: cayley_inv(-1j)),
    ("strip_log", lambda: strip_log(1.0, 0.0)),
    ("transfer_map-disc-half-plane-derivative", lambda: transfer_map(DISC, HALF_PLANE)[1](1.0)),
    ("transfer_map-half-plane-disc-derivative", lambda: transfer_map(HALF_PLANE, DISC)[1](-1j)),
    ("transfer_map-half-plane-strip-derivative",
     lambda: transfer_map(HALF_PLANE, STRIP)[1](0.0)),
    ("transfer_map-disc-strip", lambda: transfer_map(DISC, STRIP)[0](-1.0)),
    ("transfer_map-disc-strip-derivative", lambda: transfer_map(DISC, STRIP)[1](1.0)),
    ("hardy_transfer-disc-half-plane", lambda: hardy_transfer(DISC, HALF_PLANE, np.exp)(-1j)),
    ("hardy_transfer-half-plane-disc", lambda: hardy_transfer(HALF_PLANE, DISC, np.exp)(1.0)),
    ("hardy_transfer-strip-half-plane",
     lambda: hardy_transfer(STRIP, HALF_PLANE, np.exp)(0.0)),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [e[1] for e in POLES], ids=[e[0] for e in POLES])
def test_a_map_on_its_pole_raises_pole_at_input(call):
    with pytest.raises(PoleAtInput):
        call()


@pytest.mark.filterwarnings("error")
def test_a_value_whose_parts_overflow_is_formed_without_them():
    # cosh overflows, the Poisson value underflows to 0
    assert kernels.poisson_midline_strip(1.0, 1000.0, 0.0) == 0.0
    # ... unless beta is tiny: the value is e^{-|u|} / beta, u = pi (lam - x) / beta
    assert kernels.poisson_midline_strip(1e-300, 2.3e-298, 0.0) == pytest.approx(
        math.exp(-math.pi * 230.0 + 300.0 * math.log(10.0)), rel=1e-12)
    # e^{t beta / 2} and e^{itz} overflow and underflow; their product is 1
    assert rpfunc.g_func(1.0, 2000.0, 0.5j) == 1.0
    with pytest.raises(ParameterOutOfRange, match="overflows"):
        rpfunc.g_func(1.0, 2000.0, -0.5j)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [lambda: numerics.sinh_abs_check(1000.0, 0.0),
                                  lambda: numerics.cosh_abs_check(800.0, 0.0),
                                  lambda: numerics.sinh_abs_check(400.0, 0.0)],
                         ids=["sinh-1000", "cosh-800", "sinh-400"])
def test_a_hyperbolic_modulus_that_overflows_raises(call):
    with pytest.raises(ParameterOutOfRange, match="overflows"):
        call()


def test_c_log_abs_takes_t_through_the_array_guard():
    with pytest.raises(ParameterOutOfRange, match="t must be a rectangular array"):
        rpfunc.c_log_abs(1.0, "1", 0.5j)
    assert rpfunc.c_log_abs(1.0, 1, 0.5j) == rpfunc.c_log_abs(1.0, 1.0, 0.5j)


# --------------------------------------------------------------------------
# the contract fuzzed: a finite value or an RPHardyError, and no warning
# --------------------------------------------------------------------------

_EXTREMES = [0.0, -0.0, 0.5, 1.0, -1.0, 5e-324, 1e-308, 1e154, 710.0, -745.0,
             1e308, -1e308]
_REALS = st.one_of(st.sampled_from(_EXTREMES), st.floats(-4.0, 4.0),
                   st.floats(allow_nan=False, allow_infinity=False))
_POINTS = st.builds(complex, _REALS, _REALS)


def _each_extreme(test):
    """Run a real or positive fuzz test at every value of _EXTREMES too, so
    the derandomized draws never leave out 5e-324 or 1e308."""
    for r in _EXTREMES:
        test = example(r=r)(test)
    return test


def _finite(value) -> bool:
    """Whether every number in ``value`` (a number, an array, or a tuple,
    list or result record of them) is finite; a bound form (a callable) is checked
    where it is called.  A series tail bound is inf by definition below the
    truncation its bound needs."""
    if value is None or isinstance(value, (bool, str)) or callable(value):
        return True
    if isinstance(value, (tuple, list)):
        return all(map(_finite, value))
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value)
                   if f.name != "tail_bound")
    return bool(np.all(np.isfinite(value)))


def _keeps_the_contract(row, arg):
    # warnings are made errors here, not by a mark: Hypothesis itself may warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = row.call(arg)
        except RPHardyError:
            return
    assert _finite(value) or row.fn in INFINITE and value == math.inf, (arg, value)


@pytest.mark.parametrize("row", _rows("point", "points"))
@settings(max_examples=40)
@given(data=st.data())
def test_a_point_entry_gives_a_finite_value_or_an_rphardy_error(row, data):
    points = st.lists(_POINTS, min_size=1, max_size=3) if row.kind == "points" else st.nothing()
    _keeps_the_contract(row, data.draw(st.one_of(_POINTS, points)))


@pytest.mark.parametrize("row", _rows("real"))
@settings(max_examples=40)
@given(r=_REALS)
@_each_extreme
def test_a_real_parameter_entry_gives_a_finite_value_or_an_rphardy_error(row, r):
    _keeps_the_contract(row, r)


@pytest.mark.parametrize("row", _rows("count"))
@settings(max_examples=20)
@given(n=st.integers(-10, 64))
def test_a_count_entry_gives_a_finite_value_or_an_rphardy_error(row, n):
    _keeps_the_contract(row, n)


@pytest.mark.parametrize("row", _rows("positive"))
@settings(max_examples=10)
@given(r=_REALS)
@_each_extreme
def test_a_positive_parameter_entry_gives_a_finite_value_or_an_rphardy_error(row, r):
    _keeps_the_contract(row, r)


# --------------------------------------------------------------------------
# what the fuzz found, one row each: a far or tiny argument that leaked an
# exception, a warning or a NaN, or crashed the interpreter
# --------------------------------------------------------------------------

# (id, call, the value it gives, or the RPHardyError it raises)
FAR = [
    ("h_boundary-far-w", lambda: kernels.h_boundary(STRIP, 1e308 + 0.5j, "lower", 0.3), -1j),
    ("h_boundary-far-x", lambda: kernels.h_boundary(STRIP, GOOD, "lower", 1e308), 1j),
    # |f(w)|^2 = |w Q(w, w)|^2 overflowed with OverflowError
    ("flip_pairing_check-far-w",
     lambda: kernels.flip_pairing_check(STRIP, 1e154 + 0.03125j, lambda z: z),
     ParameterOutOfRange),
    # on the half-plane pi (z - conj(w)) overflowed: NaN, OverflowError, a
    # RuntimeWarning, or a kernel of 0 in a denominator (ZeroDivisionError)
    ("szego-half_plane-far-z", lambda: kernels.szego(HALF_PLANE, 1e308 + 1e308j, GOOD),
     (1 + 1j) * 0.25 / math.pi / 1e308),
    ("szego-half_plane-far-apart",
     lambda: kernels.szego(HALF_PLANE, -1e308 + 1j, 1e308 + 1j), -0.25j / math.pi / 1e308),
    ("szego-half_plane-farther-z", lambda: kernels.szego(HALF_PLANE, 1.7e308 + 1.7e308j, GOOD),
     (1 + 1j) * 0.25 / math.pi / 1.7e308),
    ("szego-half_plane-far-w-array",
     lambda: kernels.szego(HALF_PLANE, [GOOD], [5.722234971514057e307j]),
     [0.5 / math.pi / 5.722234971514057e307]),
    ("szego_diag-half_plane-far", lambda: kernels.szego_diag(HALF_PLANE, 1e308 + 1e308j),
     0.25 / math.pi / 1e308),
    ("hua_ratio-half_plane-far",
     lambda: kernels.hua_ratio(HALF_PLANE, 1.7e308 + 1.7e308j, 0.3), 0.5 / math.pi / 1.7e308),
    ("outer_f-half_plane-far-w", lambda: kernels.outer_f(HALF_PLANE, 1e308 + 1e308j, GOOD),
     1j * math.sqrt(1e308 / math.pi) / (GOOD - (1e308 - 1e308j))),
    # h_w(x) = (-x - conj(w)) / (x - conj(w)) on the line
    ("h_boundary-half_plane-far-w",
     lambda: kernels.h_boundary(HALF_PLANE, 1e308 + 1j, "line", 0.3),
     (-0.3 - (1e308 - 1j)) / (0.3 - (1e308 - 1j))),
    ("h_boundary-half_plane-high-w",
     lambda: kernels.h_boundary(HALF_PLANE, 0.3 + 6e307j, "line", 0.3), 1.0),
    ("flip_pairing_check-half_plane-high-w",
     lambda: kernels.flip_pairing_check(HALF_PLANE, 0.3 + 6e307j, lambda z: 1.0).rhs,
     0.25 / math.pi / 6e307),
    ("disc-contains-huge", lambda: DISC.contains(1e308 + 1.5e308j), False),
    # the modulus of the array closure test overflowed with a RuntimeWarning
    ("szego-disc-huge-array", lambda: kernels.szego(DISC, [1e308 + 1e308j], GOOD),
     OutsideDomain),
    ("phi_circle_partial_sum-far-y",
     lambda: rpfunc.phi_circle_partial_sum(1.0, 1.0, 1e308, 10),
     rpfunc.phi_circle_partial_sum(1.0, 1.0, math.fmod(1e308, 1.0), 10)),
    ("strip_exp-overflow", lambda: strip_exp(1.0, 1000.0), ParameterOutOfRange),
    ("c_func-overflow", lambda: rpfunc.c_func(1.0, 0.5, 1e308j), ParameterOutOfRange),
    ("c_log_abs-overflow", lambda: rpfunc.c_log_abs(1.0, 1e3, 1e308j), ParameterOutOfRange),
    ("riesz_hat-next-to-0", lambda: measures.riesz_hat(1.0, 5e-324j), ParameterOutOfRange),
    ("riesz_kappa_check-far-t", lambda: measures.riesz_kappa_check(0.5, 1.0, 1e308),
     ParameterOutOfRange),
    # tol / 4 underflows to 0, which QAWF refused with scipy's bare ValueError
    ("quad_real-tiny-tol", lambda: numerics.quad_real(math.exp, 0.0, 1.0, tol=5e-324),
     ParameterOutOfRange),
    ("quad-tiny-tol", lambda: numerics.quad(math.exp, 0.0, 1.0, tol=5e-324),
     ParameterOutOfRange),
    # GAMMA(s) overflows: the power p^(s - 1) overflowed, or the value was NaN
    ("riesz_hat_quad-huge-s", lambda: measures.riesz_hat_quad(200.0, 1j), ParameterOutOfRange),
    ("riesz_kappa_check-huge-s", lambda: measures.riesz_kappa_check(200.0, 1.0, 0.3),
     ParameterOutOfRange),
    ("riesz_hat_quad-tiny-s", lambda: measures.riesz_hat_quad(5e-324, 1j), ParameterOutOfRange),
    # a Gram matrix of NaN gave a report of NaN; G + G^H overflowed
    ("gram_report-nan", lambda: numerics.gram_report(np.array([[math.nan]])),
     ParameterOutOfRange),
    ("gram_report-huge", lambda: numerics.gram_report(np.full((2, 2), 1e308)),
     ParameterOutOfRange),
    ("gram_report-huge-defect",
     lambda: numerics.gram_report(np.array([[0.0, 1e308], [-1e308, 0.0]])), ParameterOutOfRange),
    # modular_coefficient's v: its values go unchecked into the sum, which raises
    ("modular_coefficient-str-v", lambda: modular.modular_coefficient(MD, "ab", 0.3),
     ParameterOutOfRange),
    ("modular_coefficient-ragged-v", lambda: modular.modular_coefficient(MD, [1.0, [2.0]], 0.3),
     ParameterOutOfRange),
    ("modular_coefficient-nan-v", lambda: modular.modular_coefficient(MD, [math.nan, 1.0], 0.3),
     DivergentTransform),
    ("modular_coefficient-huge-v",
     lambda: modular.modular_coefficient(MD, [1e200, 1e200], 0.3), DivergentTransform),
    # a grid that is not finite made a measure
    ("gridded-nan-h", lambda: measures.gridded(0.0, math.nan, [1.0, 1.0]), ParameterOutOfRange),
    ("gridded-inf-x0", lambda: measures.gridded(math.inf, 0.1, [1.0, 1.0]),
     ParameterOutOfRange),
    ("gridded-str-x0", lambda: measures.gridded("a", 0.1, [1.0, 1.0]), ParameterOutOfRange),
    # the nodes are h k only for x0 = h k0 with |k0| + n < 2**53: where x0 / h
    # overflows, or passes 2**53, they stay x0 + h j and nothing raises
    ("gridded-x0-over-h-overflows",
     lambda: measures.gridded(1e300, 1e-300, [1.0, 1.0]).grid_nodes()[1], 1e300),
    ("gridded-numpy-x0-over-h-overflows",
     lambda: measures.gridded(np.float64(1e300), np.float64(1e-300), [1.0, 1.0]).grid_nodes()[1],
     1e300),
    ("gridded-x0-over-h-past-2-53",
     lambda: measures.gridded(-2.0 ** 60, 1.0, [1.0, 1.0]).grid_nodes()[1], -2.0 ** 60),
    ("fourier-x0-over-h-overflows",
     lambda: measures.fourier(measures.gridded(1e300, 1e-300, [1.0, 1.0]), 0.3, monitor=False),
     0.0),
    ("from_json-nan-h", lambda: measures.MeasureOnR.from_json(
        '{"density": {"x0": 0.0, "h": NaN, "values": [1.0, 1.0]}}'), ParameterOutOfRange),
    # a grid of 6.4e9 nodes (47.7 GiB) raised MemoryError, one past numpy's
    # limit a bare ValueError: refused before anything is allocated
    ("szego_strip_measure-tiny-beta", lambda: measures.szego_strip_measure(1e-6),
     ParameterOutOfRange),
    ("szego_strip_measure-tinier-beta", lambda: measures.szego_strip_measure(1e-300),
     ParameterOutOfRange),
    ("bergman_strip_measure-tiny-beta", lambda: measures.bergman_strip_measure(1e-6),
     ParameterOutOfRange),
    ("szego_strip_measure-one-past-the-cap",
     lambda: measures.szego_strip_measure(1.0, (2 ** 19 + 1) * 0.02), ParameterOutOfRange),
    # a subnormal beta: 1 / (2 beta) overflowed to inf, or u / L warned of overflow
    ("poisson_midline_strip-subnormal-beta",
     lambda: kernels.poisson_midline_strip(5e-324, 0.3, 0.3), ParameterOutOfRange),
    ("commutation_check-subnormal-length", lambda: modular.commutation_check(5e-324, 8, 0.1, 0.2),
     ParameterOutOfRange),
    ("bergman_strip_measure-subnormal-beta", lambda: measures.bergman_strip_measure(5e-324),
     ParameterOutOfRange),
    ("bergman_strip_measure-subnormal-beta-halfwidth",
     lambda: measures.bergman_strip_measure(5e-324, 4.0), ParameterOutOfRange),
    # a huge beta: 2 beta overflowed, so 1 / sinh(0) divided by zero, or
    # 2 i beta n gave inf * 0 in a term of the split series
    ("ftcosh_check-huge-beta", lambda: numerics.ftcosh_check(1e308, 0.3 + 0.5j),
     ParameterOutOfRange),
    ("szego_series_split-huge-beta",
     lambda: periodize.szego_series_split(1e308, GOOD, GOOD, 10), ParameterOutOfRange),
    # the tail past p = 1 + 60 / Im z is not below the tolerance: at s = 20 the
    # value was off by 3.2e-10, at s = 60 it read 0.568 for 1
    ("riesz_hat_quad-s-20", lambda: measures.riesz_hat_quad(20.0, 1j), ToleranceNotReached),
    ("riesz_hat_quad-s-60", lambda: measures.riesz_hat_quad(60.0, 1j), ToleranceNotReached),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call,want", [e[1:] for e in FAR], ids=[e[0] for e in FAR])
def test_a_far_argument_gives_its_value_or_an_rphardy_error(call, want):
    if isinstance(want, type):
        with pytest.raises(want):
            call()
    else:
        assert call() == pytest.approx(want, abs=1e-15)


@pytest.mark.filterwarnings("error")
def test_far_arguments_of_the_checks_warn_of_nothing():
    # the cast of the wrapped periods overflowed int
    rep = modular.commutation_check(1.0, 8, 1e154, 0.2)
    assert math.isfinite(rep.global_defect)
    # 1 / sinh overflowed to NaN on the closed-form side
    chk = numerics.ftcosh_check(1.0, 710.0 + 0.5j)
    assert chk.rhs == pytest.approx(0.5j * np.exp(-math.pi * (710.0 + 0.5j) / 2.0), rel=1e-13)
    assert chk.defect < 1e-12
    # a Gram report next to the float range: the Hermitian part is formed
    # as G / 2 + G^H / 2
    rep = numerics.gram_report(np.full((2, 2), 5e307))
    assert rep.max_eigenvalue == 1e308 and rep.hermiticity_defect == 0.0 and rep.verdict


def test_a_strip_measure_grid_at_the_cap_is_taken():
    nu = measures.szego_strip_measure(1.0, 2 ** 19 * 0.02)
    assert nu.density.size == 2 ** 20 + 1
