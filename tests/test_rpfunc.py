"""Reflection-positive families, Gram certificates, strip membership."""

import math
import warnings

import numpy as np
import pytest

from rphardy import numerics, rpfunc
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


@pytest.mark.parametrize("samples", [
    [0.5, 1.0],                     # flat: not the one pair (0.5, 1)
    [(0.0, 1), (0.7, -1, 1)],       # ragged
    [0.0, 1, 0.7],                  # odd length
    [(0.0, 1), (0.7,)],
], ids=["flat", "ragged", "odd", "short-pair"])
def test_param_rp_check_needs_a_sequence_of_pairs(samples):
    with pytest.raises(ParameterOutOfRange):
        rpfunc.param_rp_check(2, samples)


def test_scalar_arguments_give_floats_and_arrays_give_arrays():
    t = np.array([0.0, -1.3, 2.0])
    for f, arg in ((lambda x: rpfunc.phi_int(-0.6, x), -3),
                   (lambda x: rpfunc.phi_line(0.8, x), -1.3),
                   (lambda x: rpfunc.phi_circle(2.0, 0.7, x), -1.3),
                   (lambda x: rpfunc.c_log_abs(1.0, x, 0.3 + 0.4j), 0.7)):
        assert type(f(arg)) is float and type(f(np.float64(arg))) is float
        got = f(np.abs(t) + 0.5)
        assert isinstance(got, np.ndarray) and got.shape == (3,)
        assert got.tolist() == [f(float(x)) for x in np.abs(t) + 0.5]


def test_phi_circle_on_the_fourier_nodes_is_the_scalar_call_bit_for_bit():
    """The 8192 nodes of the series.circle-family.coefficients check: one
    array call gives the scalar values bit for bit, each within 3 ulp of the
    40-digit value.  The formula rounds -y lam, beta - y, two exponentials, a
    sum and a quotient; a math.exp body was 2.31 ulp off at its worst node
    and this numpy one is 2.33 ulp off."""
    mpmath = pytest.importorskip("mpmath")
    beta, lam = 2.0, 0.7
    ys = beta * np.arange(8192) / 8192
    got = rpfunc.phi_circle(beta, lam, ys)
    assert got.tolist() == [rpfunc.phi_circle(beta, lam, y) for y in ys.tolist()]
    with mpmath.workdps(40):
        den = 1 + mpmath.exp(-beta * mpmath.mpf(lam))
        for y, g in zip(ys.tolist(), got.tolist()):
            exact = (mpmath.exp(-y * mpmath.mpf(lam))
                     + mpmath.exp(-(beta - mpmath.mpf(y)) * lam)) / den
            assert abs(g - exact) <= 3.0 * np.spacing(float(exact))


FAMILIES = [
    pytest.param(lambda g: rpfunc.phi_int(0.6, g), id="integers"),
    pytest.param(lambda g: rpfunc.phi_line(0.8, g), id="line"),
    pytest.param(lambda g: rpfunc.phi_circle(2.0, 0.7, g), id="circle"),
]


@pytest.mark.parametrize("phi", FAMILIES)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_group_element_that_is_not_finite_raises(phi, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for g in (bad, np.float64(bad), np.array([0.5, bad]), [[bad]]):
            with pytest.raises(ParameterOutOfRange, match="finite"):
                phi(g)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_lam_and_beta_that_are_not_finite_raise(bad):
    for call in (lambda: rpfunc.phi_int(bad, 1.0),
                 lambda: rpfunc.phi_line(bad, 1.0),
                 lambda: rpfunc.phi_circle(2.0, bad, 0.3),
                 lambda: rpfunc.phi_circle(bad, 0.7, 0.3),
                 lambda: rpfunc.phi_circle_fourier(bad, 0.7, 1),
                 lambda: rpfunc.pd_gram("line", bad, [0.1, 0.2]),
                 lambda: rpfunc.rp_gram("circle", 0.7, [0.1, 0.2], beta=bad),
                 lambda: rpfunc.pd_gram("circle", 0.7, [0.1, 0.2]),     # no beta
                 lambda: rpfunc.param_rp_check(bad, [(0.1, 1)])):
        with pytest.raises(ParameterOutOfRange):
            call()


def test_a_product_that_overflows_gives_zero_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rpfunc.phi_line(1e300, 1e300) == 0.0
        assert rpfunc.phi_circle(1e300, 1e300, [0.5, 5e299]).tolist() == [0.0, 0.0]


def _phi(group, lam, beta):
    return {"integers": lambda g: rpfunc.phi_int(lam, g),
            "line": lambda g: rpfunc.phi_line(lam, g),
            "circle": lambda g: rpfunc.phi_circle(beta, lam, g)}[group]


@pytest.mark.parametrize("group,beta", [("integers", None), ("line", None),
                                        ("circle", 2.0)])
def test_grams_agree_with_a_double_loop_reference(group, beta):
    rng = np.random.default_rng(34)
    lam = 0.6
    phi = _phi(group, lam, beta)
    if group == "integers":
        xs = rng.integers(0, 12, 25).astype(float)
    elif group == "line":
        xs = rng.uniform(0.0, 3.0, 25)
    else:
        xs = rng.uniform(0.01, 0.99, 25)
    for build, op in ((rpfunc.pd_gram, lambda a, b: a - b),
                      (rpfunc.rp_gram, lambda a, b: a + b)):
        ref = numerics.gram_report(np.array([[phi(op(a, b)) for b in xs] for a in xs]))
        got = build(group, lam, xs, beta=beta)
        assert got.size == 25 and got.verdict == ref.verdict
        assert got.min_eigenvalue == pytest.approx(ref.min_eigenvalue,
                                                   abs=1e-13 * ref.spectral_norm)
        assert got.max_eigenvalue == pytest.approx(ref.max_eigenvalue, rel=1e-13)


def test_param_rp_check_agrees_with_a_double_loop_reference():
    rng = np.random.default_rng(35)
    pts = [(float(t), int(e)) for t, e in zip(rng.uniform(-2.0, 2.0, 25),
                                             rng.choice([-1, 1], 25))]
    n = 3
    ref = numerics.gram_report(np.array(
        [[float((ej * ek) ** n) * math.exp(-n * abs(tj - tk)) for tk, ek in pts]
         for tj, ej in pts]))
    got = rpfunc.param_rp_check(n, pts)
    assert got.verdict == ref.verdict
    assert got.min_eigenvalue == pytest.approx(ref.min_eigenvalue,
                                               abs=1e-13 * ref.spectral_norm)
    assert got.max_eigenvalue == pytest.approx(ref.max_eigenvalue, rel=1e-13)


@pytest.mark.parametrize("build", [
    lambda: rpfunc.pd_gram("integers", 0.5, [0, math.nan]),
    lambda: rpfunc.rp_gram("integers", 0.5, [0, math.inf]),
    lambda: rpfunc.rp_gram("line", 0.5, [math.nan, 1.0]),
    lambda: rpfunc.param_rp_check(2, [(math.nan, 1)]),
], ids=["pd_gram", "rp_gram-integers", "rp_gram-line", "param_rp_check"])
def test_grams_reject_non_finite_samples(build):
    with pytest.raises(ParameterOutOfRange):
        build()


@pytest.mark.parametrize("build, what", [
    (lambda: rpfunc.pd_gram("line", 1.0, [1e308, -1e308]), "difference"),
    (lambda: rpfunc.rp_gram("line", 1.0, [1e308, 1.5e308]), "sum"),
], ids=["pd_gram", "rp_gram"])
def test_grams_whose_pairwise_samples_overflow_raise_without_a_warning(build, what):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterOutOfRange, match="pairwise %s" % what):
            build()


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


def test_c_log_abs_on_a_t_array_matches_scalar_calls():
    t = np.geomspace(1e-3, 1e3, 60)
    for z in (0.3 + 0.4j, -2.0 + 1.7j, 5.0 - 0.2j, 40.0 + 0.5j):
        got = rpfunc.c_log_abs(1.0, t, z)
        want = np.array([rpfunc.c_log_abs(1.0, float(tk), z) for tk in t])
        assert np.array_equal(got, want)        # one body for both
    for bad in (np.array([0.5, 0.0]), [0.5, math.nan]):
        with pytest.raises(ParameterOutOfRange):
            rpfunc.c_log_abs(1.0, bad, 0.3j)


@pytest.mark.parametrize("call", [
    lambda bad: rpfunc.phi_line(bad, 1.0),
    lambda bad: rpfunc.phi_int(bad, 1),
    lambda bad: rpfunc.phi_circle(1.0, bad, 0.2),
    lambda bad: rpfunc.param_rp_check(bad, [(0.1, 1)]),
], ids=["phi_line", "phi_int", "phi_circle", "param_rp_check"])
@pytest.mark.parametrize("bad", [None, "a", math.nan], ids=["None", "str", "nan"])
def test_a_family_parameter_that_is_not_a_number_is_out_of_range(call, bad):
    with pytest.raises(ParameterOutOfRange):
        call(bad)
