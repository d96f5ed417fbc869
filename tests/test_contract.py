"""The argument contract, with every warning made an error.  Every public
entry that takes a point z or w raises :class:`ParameterOutOfRange` for
anything but one finite complex number (or, where the entry takes arrays, a
rectangular array of them): the guards are ``numerics.finite_point`` and
``numerics.finite_array``.  A real parameter that is not a point raises it
for anything but one finite real number, through the same two guards.  Every
count goes through ``numerics._require_count``.  One row per entry."""

import math

import numpy as np
import pytest

from rphardy import kernels, measures, modular, numerics, periodize, rpfunc
from rphardy.domains import (DISC, HALF_PLANE, Strip, cayley, cayley_inv, sample_interior,
                             strip_exp, strip_log)
from rphardy.errors import ParameterOutOfRange

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
