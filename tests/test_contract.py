"""The argument contract, with every warning made an error.  Every public
entry that takes a point z or w raises :class:`ParameterOutOfRange` for
anything but one finite complex number (or, where the entry takes arrays, a
rectangular array of them): the guards are ``numerics.finite_point`` and
``numerics.finite_array``.  A real parameter that is not a point raises it
for anything but one finite real number, through the same two guards.  Every
count goes through ``numerics._require_count``.  One row per entry.

A map evaluated on its pole raises :class:`PoleAtInput`.  Hypothesis fuzzes
every entry of the three tables with finite numbers up to +-1e308 and with
negative counts: each call gives a finite value or raises an
:class:`RPHardyError`, and warns of nothing."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rphardy import kernels, measures, modular, numerics, periodize, rpfunc
from rphardy.domains import (DISC, HALF_PLANE, Strip, cayley, cayley_inv, hardy_transfer,
                             sample_interior, strip_exp, strip_log, transfer_map)
from rphardy.errors import ParameterOutOfRange, PoleAtInput, RPHardyError

STRIP = Strip(1.0)
GOOD = 0.3 + 0.5j
NU = measures.atomic([(0.5, 1.0), (-0.5, 1.0)])
MD = modular.build_modular(measures.Gamma_map(measures.atomic([(0.5, 1.0)]), 1.0), 1.0)
V = np.ones(MD.space.dim)

# (id, call of the bad point p, whether the entry takes an array of points)
ENTRIES = [
    ("szego-z", lambda p: kernels.szego(STRIP, p, GOOD), True),
    ("szego-w", lambda p: kernels.szego(STRIP, GOOD, p), True),
    ("szego_at", lambda p: kernels.szego_at(STRIP, p), False),
    ("szego_diag", lambda p: kernels.szego_diag(STRIP, p), False),
    ("require_interior", lambda p: STRIP.require_interior(p), False),
    ("poisson", lambda p: kernels.poisson(STRIP, p, 0.3), False),
    ("poisson_at", lambda p: kernels.poisson_at(STRIP, p), False),
    ("poisson-disc", lambda p: kernels.poisson(DISC, p, 0.3), False),
    ("h_boundary", lambda p: kernels.h_boundary(STRIP, p, "lower", 0.3), False),
    ("h_boundary_at", lambda p: kernels.h_boundary_at(HALF_PLANE, p, "line"), False),
    ("hua_ratio", lambda p: kernels.hua_ratio(STRIP, p, 0.3), False),
    ("power_kernel-z", lambda p: kernels.power_kernel(STRIP, 1.5, p, GOOD), True),
    ("power_kernel-w", lambda p: kernels.power_kernel(STRIP, 1.5, GOOD, p), True),
    ("bergman_strip", lambda p: kernels.bergman_strip(1.0, p, GOOD), True),
    ("kernel_gram", lambda p: kernels.kernel_gram(STRIP, p), True),
    ("outer_f-w", lambda p: kernels.outer_f(STRIP, p, GOOD), False),
    ("outer_f-z", lambda p: kernels.outer_f(STRIP, GOOD, p), True),
    ("flip_pairing_check", lambda p: kernels.flip_pairing_check(STRIP, p, lambda z: z),
     False),
    ("theta_apply", lambda p: kernels.theta_apply(STRIP, p, lambda c, x: 1.0), False),
    ("outer_from_modulus", lambda p: kernels.outer_from_modulus(lambda x: 1.0, p), False),
    ("szego_transfer_check-z",
     lambda p: kernels.szego_transfer_check(DISC, HALF_PLANE, p, 0.1), False),
    ("szego_transfer_check-w",
     lambda p: kernels.szego_transfer_check(DISC, HALF_PLANE, 0.1, p), False),
    ("cosecant_series", lambda p: periodize.cosecant_series(p, 10), False),
    ("sinh_series", lambda p: periodize.sinh_series(1.0, p, 10), False),
    ("szego_series-z", lambda p: periodize.szego_series(1.0, p, GOOD, 10), False),
    ("szego_series-w", lambda p: periodize.szego_series(1.0, GOOD, p, 10), False),
    ("bergman_series", lambda p: periodize.bergman_series(1.0, GOOD, p, 10), False),
    ("szego_series_split", lambda p: periodize.szego_series_split(1.0, p, GOOD, 10), False),
    ("sinh_szego_series_at",
     lambda p: periodize.sinh_szego_series_at(1.0, GOOD, p, (10,)), False),
    ("strip_membership", lambda p: rpfunc.strip_membership(1.0, p), False),
    ("c_func", lambda p: rpfunc.c_func(1.0, 0.5, p), False),
    ("c_log_abs", lambda p: rpfunc.c_log_abs(1.0, 0.5, p), False),
    ("g_func", lambda p: rpfunc.g_func(1.0, 0.5, p), False),
    ("fourier", lambda p: measures.fourier(NU, p), True),
    ("kernel_from_measure-z", lambda p: measures.kernel_from_measure(NU, p, GOOD), False),
    ("kernel_from_measure-w", lambda p: measures.kernel_from_measure(NU, GOOD, p), False),
    ("riesz_hat", lambda p: measures.riesz_hat(1.0, p), False),
    ("riesz_hat_quad", lambda p: measures.riesz_hat_quad(1.0, p), False),
    ("modular_coefficient", lambda p: modular.modular_coefficient(MD, V, p), True),
    ("ftcosh_check", lambda p: numerics.ftcosh_check(1.0, p), False),
    ("contains", lambda p: DISC.contains(p), False),
    ("on_boundary", lambda p: STRIP.on_boundary(p), False),
    ("sigma", lambda p: HALF_PLANE.sigma(p), False),
    ("locate", lambda p: STRIP.locate(p), False),
    ("cayley", lambda p: cayley(p), False),
    ("cayley_inv", lambda p: cayley_inv(p), False),
    ("strip_exp", lambda p: strip_exp(1.0, p), False),
    ("strip_log", lambda p: strip_log(1.0, p), False),
    ("transfer_map-disc-strip", lambda p: transfer_map(DISC, STRIP)[0](p), False),
    ("transfer_map-disc-strip-derivative", lambda p: transfer_map(DISC, STRIP)[1](p), False),
    ("transfer_map-strip-disc", lambda p: transfer_map(STRIP, DISC)[0](p), False),
    ("transfer_map-strip-disc-derivative", lambda p: transfer_map(STRIP, DISC)[1](p), False),
    ("hardy_transfer-disc-strip", lambda p: hardy_transfer(DISC, STRIP, np.exp)(p), False),
    ("hardy_transfer-strip-disc", lambda p: hardy_transfer(STRIP, DISC, np.exp)(p), False),
]

BAD = [None, "0.5j", math.nan, complex(0.3, math.nan), math.inf, -math.inf,
       [GOOD, [GOOD]]]
BAD_IDS = ["None", "str", "nan", "nan-imag", "inf", "-inf", "ragged"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("call,takes_array", [e[1:] for e in ENTRIES],
                         ids=[e[0] for e in ENTRIES])
def test_a_point_that_is_not_a_finite_number_raises(call, takes_array, bad):
    with pytest.raises(ParameterOutOfRange):
        call(bad)
    if takes_array:     # the bad value inside an array of good points
        with pytest.raises(ParameterOutOfRange):
            call([GOOD, bad])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [e[1] for e in ENTRIES if not e[2]],
                         ids=[e[0] for e in ENTRIES if not e[2]])
def test_an_entry_of_one_point_rejects_an_array_of_two(call):
    with pytest.raises(ParameterOutOfRange):
        call(np.array([GOOD, GOOD]))


# (id, call of the count n, the least count the entry takes)
COUNTS = [
    ("sample_interior", lambda n: sample_interior(STRIP, np.random.default_rng(0), n), 0),
    ("poisson_summation_check", lambda n: numerics.poisson_summation_check(1.0, 1.0, 0.3, n), 1),
    ("phi_circle_partial_sum", lambda n: rpfunc.phi_circle_partial_sum(1.0, 1.0, 0.3, n), 0),
    ("commutation_check", lambda n: modular.commutation_check(1.0, n, 0.1, 0.2), 2),
    ("trapezoid_circle", lambda n: numerics.trapezoid_circle(np.ones_like, n), 1),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [None, 2.5, np.float64(3.0), "3", math.nan, -1, "least-1"])
@pytest.mark.parametrize("call,least", [e[1:] for e in COUNTS], ids=[e[0] for e in COUNTS])
def test_a_count_that_is_not_an_integer_of_at_least_its_least_raises(call, least, bad):
    call(least)
    with pytest.raises(ParameterOutOfRange, match="must be an integer >= %d" % least):
        call(least - 1 if bad == "least-1" else bad)


# (id, call of the real parameter r)
REALS = [
    ("g_func-t", lambda r: rpfunc.g_func(1.0, r, GOOD)),
    ("phi_circle_partial_sum-y", lambda r: rpfunc.phi_circle_partial_sum(1.0, 1.0, r, 10)),
    ("phi_circle_fourier-n", lambda r: rpfunc.phi_circle_fourier(1.0, 1.0, r)),
    ("poisson_midline_strip-lam", lambda r: kernels.poisson_midline_strip(1.0, r, 0.3)),
    ("poisson_midline_strip-x", lambda r: kernels.poisson_midline_strip(1.0, 0.3, r)),
    ("riesz_kappa_check-t", lambda r: measures.riesz_kappa_check(0.5, 1.0, r)),
    ("sinh_abs_check-x", lambda r: numerics.sinh_abs_check(r, 0.3)),
    ("sinh_abs_check-y", lambda r: numerics.sinh_abs_check(0.3, r)),
    ("cosh_abs_check-x", lambda r: numerics.cosh_abs_check(r, 0.3)),
    ("cosh_abs_check-y", lambda r: numerics.cosh_abs_check(0.3, r)),
    ("commutation_check-s", lambda r: modular.commutation_check(1.0, 8, r, 0.2)),
    ("commutation_check-t", lambda r: modular.commutation_check(1.0, 8, 0.1, r)),
]

BAD_REALS = [None, "0.5", math.nan, math.inf, -math.inf, 0.5j, np.array([0.1, 0.2])]
BAD_REAL_IDS = ["None", "str", "nan", "inf", "-inf", "complex", "array"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", BAD_REALS, ids=BAD_REAL_IDS)
@pytest.mark.parametrize("call", [e[1] for e in REALS], ids=[e[0] for e in REALS])
def test_a_real_parameter_that_is_not_one_finite_real_raises(call, bad):
    call(1)
    with pytest.raises(ParameterOutOfRange):
        call(bad)


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


def _keeps_the_contract(call, arg):
    # warnings are made errors here, not by a mark: Hypothesis itself may warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = call(arg)
        except RPHardyError:
            return
    assert _finite(value), (arg, value)


@pytest.mark.parametrize("call,takes_array", [e[1:] for e in ENTRIES],
                         ids=[e[0] for e in ENTRIES])
@settings(max_examples=40)
@given(data=st.data())
def test_a_point_entry_gives_a_finite_value_or_an_rphardy_error(call, takes_array, data):
    points = st.lists(_POINTS, min_size=1, max_size=3) if takes_array else st.nothing()
    _keeps_the_contract(call, data.draw(st.one_of(_POINTS, points)))


@pytest.mark.parametrize("call", [e[1] for e in REALS], ids=[e[0] for e in REALS])
@settings(max_examples=40)
@given(r=_REALS)
def test_a_real_parameter_entry_gives_a_finite_value_or_an_rphardy_error(call, r):
    _keeps_the_contract(call, r)


@pytest.mark.parametrize("call", [e[1] for e in COUNTS], ids=[e[0] for e in COUNTS])
@settings(max_examples=20)
@given(n=st.integers(-10, 64))
def test_a_count_entry_gives_a_finite_value_or_an_rphardy_error(call, n):
    _keeps_the_contract(call, n)


# --------------------------------------------------------------------------
# what the fuzz found, one row each: a far or tiny argument that leaked an
# exception, a warning or a NaN, or crashed the interpreter
# --------------------------------------------------------------------------

# (id, call, the value it gives, or the RPHardyError it raises)
FAR = [
    ("h_boundary-far-w", lambda: kernels.h_boundary(STRIP, 1e308 + 0.5j, "lower", 0.3), -1j),
    ("h_boundary-far-x", lambda: kernels.h_boundary(STRIP, GOOD, "lower", 1e308), 1j),
    ("disc-contains-huge", lambda: DISC.contains(1e308 + 1.5e308j), False),
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
    ("oscillatory_ft-tiny-tol",
     lambda: numerics.oscillatory_ft(lambda x: math.exp(-abs(x)), 0.7, tol=5e-324),
     ParameterOutOfRange),
    # GAMMA(s) overflows: the power p^(s - 1) overflowed, or the value was NaN
    ("riesz_hat_quad-huge-s", lambda: measures.riesz_hat_quad(200.0, 1j), ParameterOutOfRange),
    ("riesz_kappa_check-huge-s", lambda: measures.riesz_kappa_check(200.0, 1.0, 0.3),
     ParameterOutOfRange),
    ("riesz_hat_quad-tiny-s", lambda: measures.riesz_hat_quad(5e-324, 1j), ParameterOutOfRange),
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
