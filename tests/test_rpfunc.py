"""Reflection-positive families, Gram certificates, strip membership."""

import math

import numpy as np
import pytest

from rphardy import rpfunc
from rphardy.errors import ParameterOutOfRange, SampleOutsidePositiveCone


def test_phi_int_values_and_domain():
    assert rpfunc.phi_int(0.6, 3) == pytest.approx(0.216, abs=1e-16)
    assert rpfunc.phi_int(0.6, -3) == rpfunc.phi_int(0.6, 3)
    assert rpfunc.phi_int(-0.5, 2) == 0.25
    assert rpfunc.phi_int(-0.5, 3) == -0.125
    assert rpfunc.phi_int(0.0, 0) == 1.0
    assert rpfunc.phi_int(0.0, 4) == 0.0
    with pytest.raises(ParameterOutOfRange):
        rpfunc.phi_int(1.2, 1)


def test_phi_line_values():
    # frozen 40-digit value of e^{-1.04}
    assert rpfunc.phi_line(0.8, -1.3) == pytest.approx(0.35345468195878015,
                                                       abs=1e-16)
    assert rpfunc.phi_line(0.0, 7.0) == 1.0
    with pytest.raises(ParameterOutOfRange):
        rpfunc.phi_line(-0.1, 1.0)


def test_phi_circle_value_and_periodicity():
    # frozen 40-digit value
    assert rpfunc.phi_circle(2.0, 1.3, 0.7) == pytest.approx(
        0.54645647061562665, abs=1e-15)
    for y in (-3.3, 0.0, 0.7, 5.4):
        assert rpfunc.phi_circle(2.0, 1.3, y) == pytest.approx(
            rpfunc.phi_circle(2.0, 1.3, y + 2.0), abs=1e-15)
    # reflection symmetry through 0 and through beta/2
    assert rpfunc.phi_circle(2.0, 1.3, 0.7) == pytest.approx(
        rpfunc.phi_circle(2.0, 1.3, -0.7), abs=1e-15)
    with pytest.raises(ParameterOutOfRange):
        rpfunc.phi_circle(-2.0, 1.3, 0.7)
    with pytest.raises(ParameterOutOfRange):
        rpfunc.phi_circle(2.0, -1.3, 0.7)


def test_phi_circle_fourier_frozen_values():
    # frozen 40-digit values of the Lorentzian closed form
    assert rpfunc.phi_circle_fourier(2.0, 1.3, 0) == pytest.approx(
        0.66286396870254336, abs=1e-15)
    assert rpfunc.phi_circle_fourier(2.0, 1.3, 1) == pytest.approx(
        0.096909900048286137, abs=1e-15)
    assert rpfunc.phi_circle_fourier(2.0, 1.3, -1) == rpfunc.phi_circle_fourier(
        2.0, 1.3, 1)
    # degenerate family at lam = 0
    assert rpfunc.phi_circle_fourier(2.0, 0.0, 0) == 1.0
    assert rpfunc.phi_circle_fourier(2.0, 0.0, 3) == 0.0


def test_phi_circle_fourier_against_trapezoid():
    # independent route: numerical Fourier coefficient of phi_circle
    beta, lam = 1.4, 0.9
    m = 4096
    y = beta * np.arange(m) / m
    vals = np.array([rpfunc.phi_circle(beta, lam, yy) for yy in y])
    for n in (0, 1, 4):
        cn = np.mean(vals * np.exp(-2j * math.pi * n * y / beta)).real
        assert abs(cn - rpfunc.phi_circle_fourier(beta, lam, n)) < 1e-8


def test_phi_circle_partial_sum_converges():
    beta, lam, y = 2.0, 1.3, 0.7
    target = rpfunc.phi_circle(beta, lam, y)
    assert abs(rpfunc.phi_circle_partial_sum(beta, lam, y, 20000) - target) < 1e-5
    assert rpfunc.phi_circle_partial_sum(beta, 0.0, y, 10) == 1.0


def test_bad_group_name():
    with pytest.raises(ParameterOutOfRange):
        rpfunc.pd_gram("torus", 0.5, [0, 1])


@pytest.mark.parametrize("group,samples,beta", [
    ("integers", [0, 1, 3, 4, 7], None),
    ("line", [-2.0, -0.3, 0.0, 1.1, 2.7], None),
    ("circle", [0.0, 0.3, 0.8, 1.45, 1.9], 2.0),
])
def test_pd_gram_psd(group, samples, beta):
    for lam in (0.2, 0.9):
        rep = rpfunc.pd_gram(group, lam, samples, beta=beta)
        assert rep.verdict, rep


def test_pd_gram_signed_integer_family():
    rep = rpfunc.pd_gram("integers", -0.7, [0, 1, 2, 3, 5])
    assert rep.verdict, rep


@pytest.mark.parametrize("group,samples,beta", [
    ("integers", [0, 1, 2, 5], None),
    ("line", [0.0, 0.4, 1.3, 2.8], None),
    ("circle", [0.05, 0.3, 0.7, 0.95], 2.0),
])
def test_rp_gram_psd_on_cones(group, samples, beta):
    for lam in (0.2, 0.9):
        rep = rpfunc.rp_gram(group, lam, samples, beta=beta)
        assert rep.verdict, rep


def test_rp_gram_cone_violations():
    with pytest.raises(SampleOutsidePositiveCone):
        rpfunc.rp_gram("integers", 0.5, [0, -1])
    with pytest.raises(SampleOutsidePositiveCone):
        rpfunc.rp_gram("integers", 0.5, [0.5, 1])
    with pytest.raises(SampleOutsidePositiveCone):
        rpfunc.rp_gram("line", 0.5, [0.2, -0.1])
    with pytest.raises(SampleOutsidePositiveCone):
        rpfunc.rp_gram("circle", 0.5, [0.2, 1.0], beta=2.0)
    with pytest.raises(SampleOutsidePositiveCone):
        rpfunc.rp_gram("circle", 0.5, [0.0, 0.2], beta=2.0)


def test_param_rp_check_psd_and_validation():
    samples = [(0.0, 1), (0.7, -1), (1.9, 1), (2.3, -1)]
    for n in (0, 1, 2, 5):
        rep = rpfunc.param_rp_check(n, samples)
        assert rep.verdict, (n, rep)
    with pytest.raises(ParameterOutOfRange):
        rpfunc.param_rp_check(-1, samples)
    with pytest.raises(ParameterOutOfRange):
        rpfunc.param_rp_check(2, [(0.0, 2)])


def test_c_func_frozen_value_and_errors():
    got = rpfunc.c_func(1.0, 0.8, 0.4 + 0.3j)
    want = 0.88931287031504383 + 0.046755120342274631j
    assert abs(got - want) < 1e-15
    with pytest.raises(ParameterOutOfRange):
        rpfunc.c_func(1.0, 0.0, 0.4 + 0.3j)
    with pytest.raises(ParameterOutOfRange):
        rpfunc.c_func(-1.0, 0.8, 0.4 + 0.3j)


def test_c_log_abs_matches_direct_log():
    for t in (0.3, 2.0, 7.5):
        for z in (0.4 + 0.3j, -1.1 + 0.9j, 0.2 + 1.7j):
            direct = math.log(abs(rpfunc.c_func(2.0, t, z)))
            assert abs(rpfunc.c_log_abs(2.0, t, z) - direct) < 1e-12


def test_c_log_abs_survives_huge_arguments():
    # the factored form overflows here; the log form must not
    v = rpfunc.c_log_abs(1.0, 500.0, 0.3 + 5.0j)
    assert np.isfinite(v) and v > 0.0


def test_g_func_value_and_midline_modulus():
    beta, t, z = 1.5, 0.9, 0.4 + 0.6j
    want = math.exp(t * beta / 2.0) * np.exp(1j * t * z)
    assert abs(rpfunc.g_func(beta, t, z) - want) < 1e-15
    # on the midline |g_t| = 1 for every t
    for t in (0.2, 1.0, 6.0):
        assert abs(abs(rpfunc.g_func(beta, t, -2.3 + 0.75j)) - 1.0) < 1e-15


def test_strip_membership_interior():
    res = rpfunc.strip_membership(2.0, 0.4 + 1.3j)
    assert res.verdict == "interior"
    assert res.witness_t is None
    assert res.max_log_abs < 0.0


def test_strip_membership_exterior_has_witness():
    res = rpfunc.strip_membership(2.0, 0.4 + 2.3j)
    assert res.verdict == "exterior"
    assert res.witness_t is not None
    assert rpfunc.c_log_abs(2.0, res.witness_t, 0.4 + 2.3j) >= 0.0


def test_strip_membership_boundary_witness_is_exact():
    for z in (1.7 + 0.0j, -0.6 + 2.0j):
        res = rpfunc.strip_membership(2.0, z)
        assert res.verdict == "boundary"
        assert res.witness_t == pytest.approx(2.0 * math.pi / abs(z.real))
        assert abs(rpfunc.c_log_abs(2.0, res.witness_t, z)) < 1e-12


def test_strip_membership_purely_imaginary_boundary():
    res = rpfunc.strip_membership(2.0, 0.0j)
    assert res.verdict == "boundary"
    assert res.witness_t is None


def test_strip_membership_randomized():
    rng = np.random.default_rng(26)
    beta = 1.3
    for _ in range(25):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 0.95) * beta)
        assert rpfunc.strip_membership(beta, z).verdict == "interior"
    for _ in range(25):
        off = rng.uniform(0.05, 2.0)
        side = rng.choice([-1.0, 1.0])
        y = -off if side < 0 else beta + off
        z = complex(rng.uniform(-3, 3), y)
        assert rpfunc.strip_membership(beta, z).verdict == "exterior"
