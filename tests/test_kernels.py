"""Kernels: frozen values, identities, boundary flip machinery."""

import cmath
import math
import warnings

import numpy as np
import pytest

from rphardy import kernels, numerics
from rphardy.domains import DISC, HALF_PLANE, Strip, sample_interior
from rphardy.errors import (
    BranchCutViolation, NonPositiveModulus, OutsideDomain, ParameterOutOfRange, PoleAtInput,
    UnsupportedPair,
)

STRIP = Strip(2.0)

# frozen values from 40-digit evaluations of the closed forms
SZEGO_CASES = [
    (DISC, 0.3 + 0.2j, 0.1 - 0.4j,
     0.14892851817706987 + 0.01985713575694265j),
    (HALF_PLANE, 0.5 + 1.2j, -0.3 + 0.7j,
     0.071151621617553209 + 0.029958577523180298j),
    (STRIP, 0.3 + 0.5j, -0.2 + 1.1j,
     0.12014010030250367 + 0.014587114806343186j),
]


@pytest.mark.parametrize("domain,z,w,expected", SZEGO_CASES,
                         ids=["disc", "half_plane", "strip"])
def test_szego_frozen_values(domain, z, w, expected):
    assert abs(kernels.szego(domain, z, w) - expected) < 1e-15


def test_bergman_strip_frozen_value():
    got = kernels.bergman_strip(2.0, 0.3 + 0.5j, -0.2 + 1.1j)
    want = 0.014220859782322205 + 0.0035049948719164135j
    assert abs(got - want) < 1e-15


@pytest.mark.parametrize("domain", [DISC, HALF_PLANE, STRIP],
                         ids=["disc", "half_plane", "strip"])
def test_szego_hermitian_and_diagonal_positive(domain):
    rng = np.random.default_rng(21)
    pts = sample_interior(domain, rng, 20)
    for z, w in zip(pts[:10], pts[10:]):
        q = kernels.szego(domain, z, w)
        assert abs(q - kernels.szego(domain, w, z).conjugate()) < 1e-15
    for z in pts:
        assert kernels.szego_diag(domain, z) > 0.0


def test_szego_outside_domain():
    with pytest.raises(OutsideDomain):
        kernels.szego(DISC, 1.5 + 0.0j, 0.0j)
    with pytest.raises(OutsideDomain):
        kernels.szego(HALF_PLANE, 1.0 - 1.0j, 1.0 + 1.0j)
    with pytest.raises(OutsideDomain):
        kernels.poisson(STRIP, 0.3 + 2.5j, 0.0)


def test_szego_pole_on_the_disc_boundary():
    z = cmath.exp(0.4j)
    with pytest.raises(PoleAtInput):
        kernels.szego(DISC, z, z)


POISSON_CASES = [
    (DISC, 0.3 + 0.2j, 1.1, None, 0.27617873555741462),
    (HALF_PLANE, 0.5 + 1.2j, -0.7, None, 0.13262911924324611),
    (Strip(1.5), 0.3 + 0.5j, 0.2, "lower", 0.55300399868777995),
    (Strip(1.5), 0.3 + 0.5j, 0.2, "upper", 0.18966670009991344),
]


@pytest.mark.parametrize("domain,z,x,comp,expected", POISSON_CASES,
                         ids=["disc", "half_plane", "strip_lower", "strip_upper"])
def test_poisson_frozen_values(domain, z, x, comp, expected):
    assert abs(kernels.poisson(domain, z, x, comp) - expected) < 1e-15
    assert abs(kernels.hua_ratio(domain, z, x, comp) - expected) < 1e-13


@pytest.mark.parametrize("domain", [DISC, HALF_PLANE, STRIP],
                         ids=["disc", "half_plane", "strip"])
def test_poisson_positive(domain, subtests=None):
    rng = np.random.default_rng(22)
    for z in sample_interior(domain, rng, 10):
        for comp in domain.boundary_components():
            for x in (-2.0, 0.0, 1.3):
                assert kernels.poisson(domain, z, x, comp) > 0.0


@pytest.mark.parametrize("eps", [1e-5, 1e-7, 1e-9])
def test_disc_poisson_near_the_boundary_matches_a_40_digit_oracle(eps):
    """Relative error at most 1e-8 beyond what the rounding of |z| forces.

    P_z depends on 1 - |z|, so a rounding error d in |z| moves it by about
    d / (1 - |z|) relative; on the axes |z| is exact and that term is 0."""
    mpmath = pytest.importorskip("mpmath")
    r = 1.0 - eps
    points = [complex(r, 0.0), complex(0.0, r), complex(-r, 0.0),
              complex(0.0, -r)] + [cmath.rect(r, th) for th in (0.7, -2.5, 3.0)]
    with mpmath.workdps(40):
        for z in points:
            zm = mpmath.mpc(z.real, z.imag)
            rm, th = abs(zm), mpmath.arg(zm)
            slack = 2.0 * float(abs(mpmath.mpf(abs(z)) - rm)) / eps
            for x in (float(th), float(th) + 1e-6, float(th) + 0.3,
                      float(th) + math.pi):
                exact = (1 - rm * rm) / (2 * mpmath.pi
                                         * (1 - 2 * rm * mpmath.cos(th - x) + rm * rm))
                got = kernels.poisson(DISC, z, x)
                assert float(abs(got - exact) / exact) <= 1e-8 + slack, (z, x)


def test_poisson_midline_strip_matches_general_form():
    beta = 1.5
    got = kernels.poisson_midline_strip(beta, 0.4, -0.9)
    # frozen 40-digit sech value
    assert abs(got - 0.043609273793557498) < 1e-16
    general = kernels.poisson(Strip(beta), 0.4 + 0.75j, -0.9, "lower")
    assert abs(got - general) < 1e-15


def test_poisson_asymptotic_branches_are_continuous():
    # half-plane switch at |x - Re z| = 1e150
    z = 0.5 + 1.2j
    lo = kernels.poisson(HALF_PLANE, z, 0.999999e150)
    hi = kernels.poisson(HALF_PLANE, z, 1.000001e150)
    assert abs(lo - hi) <= 1e-5 * abs(lo)
    # strip switch at |u| = 300, i.e. x - Re z = 600 beta / pi
    b = STRIP.beta
    x_here = 0.3 + 2.0 * b * 299.9 / math.pi
    x_there = 0.3 + 2.0 * b * 300.1 / math.pi
    p_here = kernels.poisson(STRIP, 0.3 + 0.5j, x_here, "lower")
    p_there = kernels.poisson(STRIP, 0.3 + 0.5j, x_there, "upper")
    ratio = p_there / p_here
    assert math.exp(-0.5) < ratio / math.exp(-2.0 * 0.2) < math.exp(0.5)


def test_strip_szego_asymptotic_branch_agrees_with_direct():
    # compare the large-argument closed form against direct sinh just past
    # the switch, where both are still representable
    b, w = 2.0, 0.1 + 1.0j
    zb = 2.0 * b * 351.0 / math.pi + 0.0j   # boundary point, Re arg = 351
    direct = 0.25j / (b * cmath.sinh(math.pi * (zb - w.conjugate()) / (2 * b)))
    got = kernels.szego(STRIP, zb, w)
    assert abs(got - direct) <= 1e-15 * abs(direct)


def test_power_kernel_frozen_values():
    got = kernels.power_kernel(DISC, 1.7, 0.3 + 0.1j, 0.2 - 0.4j)
    assert abs(got - (0.1572236226140604 + 0.038679439602658324j)) < 1e-15
    got = kernels.power_kernel(HALF_PLANE, 0.5, 0.5 + 1.2j, -0.3 + 0.7j)
    assert abs(got - (0.6826895610751924 + 0.13786302358365383j)) < 1e-15


def test_power_kernel_interpolates_szego_and_bergman():
    rng = np.random.default_rng(23)
    z, w = sample_interior(STRIP, rng, 2)
    q1 = kernels.power_kernel(STRIP, 1.0, z, w)
    assert abs(q1 - kernels.szego(STRIP, z, w)) < 1e-15
    q2 = kernels.power_kernel(STRIP, 2.0, z, w)
    assert abs(q2 - kernels.bergman_strip(STRIP.beta, z, w)) < 1e-15
    # disc: s = 1 recovers the szego kernel including the 1/2pi
    z, w = sample_interior(DISC, rng, 2)
    assert abs(kernels.power_kernel(DISC, 1.0, z, w)
               - kernels.szego(DISC, z, w)) < 1e-16


def _strip_power_oracle(mpmath, beta, s, z, w):
    """Principal Q(z, w)^s on the strip at 30 digits."""
    with mpmath.workdps(30):
        d = mpmath.mpc(z.real, z.imag) - mpmath.conj(mpmath.mpc(w.real, w.imag))
        q = (1j / (4 * beta)) / mpmath.sinh(mpmath.pi * d / (2 * beta))
        return complex(q ** s)


@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("s", [0.5, 1.0, 1.7, 2.0])
def test_strip_power_kernel_far_apart(beta, s):
    """Past |Re pi (z - conj w) / 2 beta| = 350 the power is taken from the
    asymptotic form: no branch-cut error where the Szego kernel underflows,
    the 30-digit value where the power is representable, and a scalar call
    gives the array element on both sides of the switch."""
    mpmath = pytest.importorskip("mpmath")
    strip = Strip(beta)
    z = np.array([0.5j, 0.1j, 0.9j]) * beta
    w = (np.array([220.0, 223.0, -223.0, 300.0, -300.0, 600.0, -600.0, 1e4])[:, None] * beta
         + np.array([0.5j, 0.05j, 0.95j]) * beta).ravel()
    got = kernels.power_kernel(strip, s, z[:, None], w[None, :])
    for i, zi in enumerate(z):
        for j, wj in enumerate(w):
            want = kernels.power_kernel(strip, s, complex(zi), complex(wj))
            assert got[i, j] == want
            exact = _strip_power_oracle(mpmath, beta, s, zi, wj)
            assert abs(want - exact) <= 1e-12 * abs(exact) + 1e-300
    # the example that used to raise BranchCutViolation
    assert kernels.power_kernel(Strip(1.0), 1.7, 0.5j, 600 + 0.5j) == 0.0
    small = kernels.power_kernel(Strip(1.0), 0.5, 0.5j, 600 + 0.5j)
    assert small != 0.0 and kernels.szego(Strip(1.0), 0.5j, 600 + 0.5j) == 0.0


def test_power_kernel_gram_over_points_600_beta_apart():
    beta = 2.0
    strip = Strip(beta)
    pts = np.array([0.5j, 600.0 + 0.3j, -600.0 + 0.7j, 0.4 + 0.2j]) * beta
    rep = kernels.kernel_gram(strip, pts, kind="power", s=1.7)
    assert rep.verdict and rep.min_eigenvalue > 0.0


# on each domain, a pair z, w where Q_s(z, w) overflows for huge s and a pair
# where it underflows (the base of the power has modulus > 1 and < 1)
POWER_BIG_SMALL = [
    (DISC, (0.3 + 0.1j, 0.1 + 0.5j), (-0.5 + 0.0j, 0.5 + 0.0j)),
    (HALF_PLANE, (0.3 + 0.1j, 0.1 + 0.5j), (0.3 + 2.0j, 0.1 + 3.0j)),
    (STRIP, (0.01j, 0.01j), (0.3 + 1.0j, 2.1 + 1.0j)),
]


@pytest.mark.parametrize("domain,big,small", POWER_BIG_SMALL,
                         ids=["disc", "half_plane", "strip"])
def test_power_kernel_overflow_raises_and_underflow_is_zero(domain, big, small):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (1e300, 1e5):
            with pytest.raises(ParameterOutOfRange, match="overflows"):
                kernels.power_kernel(domain, s, *big)
            with pytest.raises(ParameterOutOfRange, match="overflows"):
                kernels.power_kernel(domain, s, np.array([small[0], big[0]]),
                                     np.array([small[1], big[1]]))
            assert kernels.power_kernel(domain, s, *small) == 0.0
            got = kernels.power_kernel(domain, s, np.array([small[0]] * 2), small[1])
            assert got.tolist() == [0.0, 0.0]
        if domain is STRIP:     # an integer s on either side of numpy's 100
            for s in (99.0, 100.0):
                with pytest.raises(ParameterOutOfRange, match="overflows"):
                    kernels.power_kernel(STRIP, s, 1e-6j, 1e-6j)


def _reflection(domain, comp, x):
    """(component, parameter) of the reflection of the boundary point
    (comp, x), read off a reflected boundary function that returns its
    arguments."""
    probe = kernels.BoundaryFunction(domain, lambda c: lambda t: (c, t))
    return probe.reflected().on(comp)(x)


@pytest.mark.parametrize("domain", [DISC, HALF_PLANE, STRIP],
                         ids=["disc", "half_plane", "strip"])
def test_boundary_reflect_is_an_involution(domain):
    for comp in domain.boundary_components():
        rcomp, rx = _reflection(domain, comp, 0.83)
        comp2, x2 = _reflection(domain, rcomp, rx)
        assert comp2 == comp and x2 == 0.83


@pytest.mark.parametrize("domain,comp", [
    (DISC, "line"), (DISC, "lower"), (DISC, None), (HALF_PLANE, "circle"),
    (HALF_PLANE, "upper"), (HALF_PLANE, None), (STRIP, "line"), (STRIP, None)],
    ids=lambda v: str(v))
def test_boundary_reflect_rejects_a_component_the_domain_lacks(domain, comp):
    with pytest.raises(ParameterOutOfRange):
        _reflection(domain, comp, 0.3)


@pytest.mark.parametrize("domain,z", [
    (DISC, 0.4 + 0.0j), (HALF_PLANE, 0.9j), (STRIP, -0.3 + 1.0j)],
    ids=["disc", "half_plane", "strip"])
@pytest.mark.parametrize("comp", ["middle", ["lower"]], ids=["unknown", "unhashable"])
def test_every_component_entry_point_rejects_a_name_the_domain_lacks_alike(domain, z, comp):
    calls = [
        lambda: domain.boundary_embed(comp, 0.3),
        lambda: domain.embedding(comp),
        lambda: _reflection(domain, comp, 0.3),
        lambda: kernels.poisson_at(domain, z, comp),
        lambda: kernels.poisson(domain, z, 0.3, comp),
        lambda: kernels.hua_ratio(domain, z, 0.3, comp),
        lambda: kernels.h_boundary_at(domain, z, comp),
    ]
    for call in calls:
        with pytest.raises(ParameterOutOfRange, match="%s boundary components are" % domain.name):
            call()


@pytest.mark.parametrize("domain,w", [
    (DISC, 0.4 + 0.0j), (HALF_PLANE, 0.9j), (STRIP, -0.3 + 1.0j)],
    ids=["disc", "half_plane", "strip"])
def test_flip_multiplier_unimodular_on_fixed_points(domain, w):
    assert domain.on_fixed_set(w)
    for comp in domain.boundary_components():
        for x in (-1.7, 0.01, 2.9):
            h = kernels.h_boundary(domain, w, comp, x)
            assert abs(abs(h) - 1.0) < 1e-14


def test_flip_multiplier_cocycle():
    # h_w(x) h_w(sigma x) = 1 for any interior w, not just fixed points
    w = 0.3 + 0.6j
    for comp in STRIP.boundary_components():
        x = 0.45
        rcomp, rx = _reflection(STRIP, comp, x)
        prod = kernels.h_boundary(STRIP, w, comp, x) \
            * kernels.h_boundary(STRIP, w, rcomp, rx)
        assert abs(prod - 1.0) < 1e-14


def test_strip_flip_multiplier_far_tail_stays_finite():
    w = -0.3 + 1.0j
    h = kernels.h_boundary(STRIP, w, "lower", 1e6)
    assert np.isfinite(h.real) and np.isfinite(h.imag)
    assert abs(abs(h) - 1.0) < 1e-12


@pytest.mark.parametrize("domain,w", [
    (DISC, 0.2 - 0.1j), (STRIP, 0.4 + 0.9j)], ids=["disc", "strip"])
def test_theta_apply_is_an_involution(domain, w):
    f = kernels.boundary_restriction(
        domain, lambda z: kernels.szego(domain, z, w) * (1.0 + 0.3 * z))
    t2f = kernels.theta_apply(domain, w, kernels.theta_apply(domain, w, f))
    for comp in domain.boundary_components():
        for x in (-0.9, 0.2, 2.2):
            assert abs(t2f(comp, x) - f(comp, x)) < 1e-13


def _line_points():
    """Parameters inside both switch points of the line Poisson kernels and
    past them: |x| > 1e150 on the half-plane, |u| > 300 on the strip (and
    past the Re arg = 350 of the strip flip multiplier)."""
    rng = np.random.default_rng(41)
    return np.concatenate([rng.uniform(-6.0, 6.0, 200), [0.0, -0.0],
                           rng.uniform(380.0, 2000.0, 20), -rng.uniform(380.0, 2000.0, 20),
                           [1e150, 2e150, -3e200, 1e300]])


def _assert_array_is_scalar_bit_for_bit(got, scalar, xs):
    want = np.array([scalar(x) for x in xs.tolist()])
    assert got.shape == xs.shape and got.dtype == want.dtype
    assert np.array_equal(np.asarray(got).view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("domain", [DISC, HALF_PLANE, STRIP],
                         ids=["disc", "half_plane", "strip"])
def test_boundary_embed_of_an_array_keeps_every_bit(domain):
    xs = np.array([-0.0, 0.0, -1.5, 2.5, 1e300])
    for comp in domain.boundary_components():
        got = domain.boundary_embed(comp, xs)
        want = np.array([domain.boundary_embed(comp, x) for x in xs.tolist()])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        bound = np.array([domain.embedding(comp)(x) for x in xs.tolist()])
        assert np.array_equal(bound.view(np.int64), want.view(np.int64))
    with pytest.raises(ParameterOutOfRange):
        domain.embedding("middle")


@pytest.mark.parametrize("domain,z,comp", [
    (HALF_PLANE, 0.4 + 0.8j, "line"), (STRIP, 0.3 + 0.5j, "lower"),
    (STRIP, -1.0 + 1.5j, "upper")], ids=lambda v: str(v))
@pytest.mark.parametrize("shape", [(0,), (0, 3), (12, 20)], ids=str)
def test_a_line_x_array_of_any_shape_is_the_bound_form_element_by_element(
        domain, z, comp, shape):
    xs = _line_points()[:int(np.prod(shape))].reshape(shape)
    for got, bound, dtype in (
            (kernels.poisson(domain, z, xs, comp),
             kernels.poisson_at(domain, z, comp), np.float64),
            (kernels.h_boundary(domain, z, comp, xs),
             kernels.h_boundary_at(domain, z, comp), np.complex128)):
        assert got.shape == shape and got.dtype == dtype
        want = np.array([bound(x) for x in xs.ravel().tolist()], dtype=dtype)
        assert np.array_equal(got.ravel().view(np.int64), want.view(np.int64))


def test_poisson_and_h_boundary_take_one_base_point():
    with pytest.raises(ParameterOutOfRange):
        kernels.poisson(DISC, np.array([0.1, 0.2]), 0.3)
    with pytest.raises(ParameterOutOfRange):
        kernels.h_boundary(STRIP, np.array([1.0j, 1.5j]), "lower", 0.3)


# --------------------------------------------------------------------------
# bound forms: poisson_at, h_boundary_at, BoundaryFunction.on
# --------------------------------------------------------------------------

def _bits(v):
    v = complex(v)
    return v.real.hex(), v.imag.hex()


@pytest.mark.parametrize("domain,z,comp", [
    (DISC, 0.3 + 0.2j, None), (DISC, -0.8 + 0.1j, "circle"),
    (DISC, (1.0 - 1e-9) * cmath.exp(0.7j), "circle"), (DISC, 1e-12 + 0.0j, None),
    (HALF_PLANE, 0.4 + 0.8j, None), (HALF_PLANE, -2.0 + 1e-9j, "line"),
    (STRIP, 0.3 + 0.5j, "lower"), (STRIP, 0.3 + 0.5j, "upper"),
    (STRIP, -1.0 + (2.0 - 1e-9) * 1j, None), (STRIP, 2.0 + 1e-9j, "upper")],
    ids=lambda v: str(v))
def test_poisson_at_is_poisson_and_its_array_body_bit_for_bit(domain, z, comp):
    bound = kernels.poisson_at(domain, z, comp)
    if domain is DISC:
        xs = np.concatenate([2.0 * math.pi * np.arange(1024) / 1024,
                             [cmath.phase(z), -3.0, 9.0]])
    else:
        xs = _line_points()
        past = np.abs(xs - z.real) > kernels._FAR_DX if domain is HALF_PLANE \
            else np.abs(math.pi * (z.real - xs) / (2.0 * domain.beta)) > kernels._FAR_U
        assert past.any() and not past.all()
    _assert_array_is_scalar_bit_for_bit(kernels.poisson(domain, z, xs, comp), bound, xs)
    for x in xs.tolist():
        assert _bits(bound(x)) == _bits(kernels.poisson(domain, z, x, comp))


@pytest.mark.parametrize("domain,w", [
    (DISC, 0.0j), (DISC, 0.45 + 0.0j), (DISC, 0.2 - 0.6j), (HALF_PLANE, 1.8j),
    (HALF_PLANE, -0.5 + 0.3j), (STRIP, 1.0j), (STRIP, -1.0 + 1.0j), (STRIP, 0.4 + 1e-6j)],
    ids=lambda v: str(v))
def test_h_boundary_at_is_h_boundary_and_its_array_body_bit_for_bit(domain, w):
    xs = 2.0 * math.pi * np.arange(1024) / 1024 - 1.0 if domain is DISC \
        else _line_points()
    if domain is STRIP:
        far = np.abs(math.pi * (xs - w.real) / (2.0 * domain.beta)) > kernels._FAR
        assert far.any() and not far.all()
    for comp in domain.boundary_components():
        bound = kernels.h_boundary_at(domain, w, comp)
        _assert_array_is_scalar_bit_for_bit(kernels.h_boundary(domain, w, comp, xs),
                                            bound, xs)
        for x in xs.tolist():
            assert _bits(bound(x)) == _bits(kernels.h_boundary(domain, w, comp, x))


@pytest.mark.parametrize("domain,w", [
    (DISC, 0.2 - 0.1j), (HALF_PLANE, -0.3 + 0.7j), (STRIP, 0.4 + 0.9j)],
    ids=["disc", "half_plane", "strip"])
def test_boundary_function_on_is_the_function_bit_for_bit(domain, w):
    f = kernels.boundary_restriction(
        domain, lambda z: kernels.szego(domain, z, w) * (1.0 + 0.3 * z))

    def plain(comp, x):
        return math.exp(-x * x) if comp != "upper" else complex(x, 1.0) / (1.0 + x * x)

    def by_hand(comp):
        if comp == "upper":
            return lambda x: complex(x, 1.0) / (1.0 + x * x)
        return (lambda t: np.exp(-t * t)) if domain is DISC else (lambda x: math.exp(-x * x))

    hand = kernels.BoundaryFunction(domain, by_hand)
    theta = kernels.theta_apply(domain, w, f)
    for g in (f, f.reflected(), theta, theta.reflected(),
              kernels.theta_apply(domain, w, theta),
              hand, hand.reflected(), kernels.theta_apply(domain, w, hand),
              kernels.theta_apply(domain, w, plain)):
        for comp in domain.boundary_components():
            on = g.on(comp)
            for x in (-2.5, -0.0, 0.0, 0.3, 1.7, 40.0, 900.0):
                got = g(comp, x)
                assert type(got) is complex
                assert _bits(on(x)) == _bits(got)


@pytest.mark.parametrize("domain,w", [
    (HALF_PLANE, -0.3 + 0.7j), (STRIP, 0.4 + 0.9j)], ids=["half_plane", "strip"])
@pytest.mark.parametrize("shape", [(0,), (12, 20)], ids=str)
def test_a_boundary_function_on_a_line_array_is_its_form_element_by_element(
        domain, w, shape):
    f = kernels.boundary_restriction(
        domain, lambda z: kernels.szego(domain, z, w) * (1.0 + 0.3 * z))
    xs = _line_points()[:int(np.prod(shape))].reshape(shape)
    for g in (f, f.reflected(), kernels.theta_apply(domain, w, f),
              kernels.theta_apply(domain, w, lambda comp, x: complex(x, 1.0) / (1.0 + x * x))):
        for comp in domain.boundary_components():
            on = g.on(comp)
            got = g(comp, xs)
            assert got.shape == shape and got.dtype == np.complex128
            want = np.array([on(x) for x in xs.ravel().tolist()], dtype=complex)
            assert np.array_equal(got.ravel().view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("x", [0.0, -0.0, 1.25, -3.0, 9.0, np.float64(0.7), np.array(2.5)],
                         ids=repr)
def test_scalar_disc_poisson_and_h_boundary_are_python_scalars_equal_to_the_array_element(x):
    z = (1.0 - 1e-9) * cmath.exp(0.7j)
    xs = np.array([-1.0, float(x), 4.0])
    p = kernels.poisson(DISC, z, x)
    h = kernels.h_boundary(DISC, z, "circle", x)
    assert type(p) is float and type(h) is complex
    assert p.hex() == kernels.poisson(DISC, z, xs)[1].hex()
    assert _bits(h) == _bits(kernels.h_boundary(DISC, z, "circle", xs)[1])
    assert type(kernels.poisson_at(DISC, z)(x)) is float
    assert type(kernels.h_boundary_at(DISC, z, "circle")(x)) is complex


def test_line_boundary_inner_integrates_the_bound_forms():
    calls = []

    def on(component):
        calls.append(component)
        return lambda x: cmath.exp(-x * x + 0.5j * x)

    f = kernels.BoundaryFunction(STRIP, on)
    val = kernels.boundary_inner(STRIP, f, f)
    assert calls == ["lower", "lower", "upper", "upper"]
    assert abs(val - 2.0 * math.sqrt(math.pi / 2.0)) < 1e-12


def test_a_plain_callable_in_theta_apply_on_the_strip_is_one_form_per_component():
    w = 0.3 + 0.5j * STRIP.beta      # on the fixed set, where theta_w is unitary
    seen = set()

    def plain(comp, x):
        seen.add((comp, type(x)))
        return cmath.exp(-x * x) * (1.0 if comp == "lower" else 0.5j)

    tf = kernels.theta_apply(STRIP, w, plain)
    forms = []
    spy = kernels.BoundaryFunction(STRIP, lambda comp: forms.append(comp) or tf.on(comp))
    val = kernels.boundary_inner(STRIP, spy, spy)
    assert forms == ["lower", "lower", "upper", "upper"]
    assert seen == {("lower", float), ("upper", float)}
    assert abs(val - 1.25 * math.sqrt(math.pi / 2.0)) < 1e-12


# lhs of flip_pairing_check on the half-plane (no verify id covers it), as
# the per-node integrands computed it before the bound forms: unchanged bits
HALF_PLANE_FLIP_LHS = [
    (0.8j, lambda z: 1.0, ("0x1.976fc893c3aa4p-4", "0x0.0p+0")),
    (1.3j, lambda z: 1.0 / (z + 1j), ("0x1.7b2d1a1c71bf6p-7", "0x0.0p+0")),
    (0.45j, lambda z: 2.0 - 1j, ("0x1.c4b517c0a0844p-1", "-0x1.0ad281c315c7cp-56")),
]


@pytest.mark.parametrize("w,F,lhs", HALF_PLANE_FLIP_LHS, ids=["1", "1/(z+i)", "2-i"])
def test_half_plane_flip_pairing_keeps_its_bits(w, F, lhs):
    chk = kernels.flip_pairing_check(HALF_PLANE, w, F)
    assert _bits(chk.lhs) == lhs
    assert chk.defect < 1e-15


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, None, "0.3", 0.3j])
@pytest.mark.parametrize("call", [
    lambda x: kernels.poisson(DISC, 0.1, x),
    lambda x: kernels.poisson(HALF_PLANE, 1j, x),
    lambda x: kernels.poisson(Strip(1.0), 0.5j, x),
    lambda x: kernels.poisson(Strip(1.0), 0.5j, x, "upper"),
    lambda x: kernels.h_boundary(DISC, 0.3, "circle", x),
    lambda x: kernels.h_boundary(HALF_PLANE, 1j, "line", x),
    lambda x: kernels.h_boundary(Strip(1.0), 0.5j, "lower", x),
    lambda x: kernels.hua_ratio(DISC, 0.1, x),
    lambda x: kernels.hua_ratio(Strip(1.0), 0.5j, x),
    lambda x: DISC.boundary_embed("circle", x),
    lambda x: HALF_PLANE.boundary_embed("line", x),
    lambda x: Strip(1.0).boundary_embed("upper", x),
], ids=["poisson-disc", "poisson-half_plane", "poisson-lower", "poisson-upper",
        "h-disc", "h-half_plane", "h-strip", "hua-disc", "hua-strip",
        "embed-disc", "embed-half_plane", "embed-strip"])
def test_a_boundary_parameter_that_is_not_finite_raises(call, bad):
    """A float goes to the form, which checks it; None, a string and a
    complex go through numerics.finite_array, as every array does."""
    if isinstance(bad, float):
        cases, match = (bad, np.float64(bad), np.array([0.0, bad, 1.0])), "finite"
    else:
        cases, match = (bad, [0.0, bad, 1.0]), "rectangular array of numbers"
    for x in cases:
        with pytest.raises(ParameterOutOfRange, match=match):
            call(x)


@pytest.mark.parametrize("bound", [
    kernels.poisson_at(DISC, 0.1), kernels.poisson_at(HALF_PLANE, 1j),
    kernels.poisson_at(Strip(1.0), 0.5j, "lower"),
    kernels.h_boundary_at(DISC, 0.3, "circle"),
    kernels.h_boundary_at(HALF_PLANE, 1j, "line"),
    kernels.h_boundary_at(Strip(1.0), 0.5j, "upper")],
    ids=["poisson-disc", "poisson-half_plane", "poisson-strip",
         "h-disc", "h-half_plane", "h-strip"])
def test_a_bound_form_rejects_a_parameter_that_is_not_finite(bound):
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterOutOfRange, match="finite"):
            bound(x)


@pytest.mark.parametrize("beta", [1e300, 1.7e308])
def test_strip_poisson_whose_denominator_underflows_raises(beta):
    """On the lower line near x = Re z both terms of sinh(u)^2 + sin^2(pi Im z
    / 2 beta) underflow for a beta this large; the upper line keeps cos^2 = 1
    and its value underflows to 0."""
    strip = Strip(beta)
    with pytest.raises(ParameterOutOfRange, match="underflows"):
        kernels.poisson(strip, 0.3 + 0.1j, 0.7)
    with pytest.raises(ParameterOutOfRange, match="underflows"):
        kernels.poisson(strip, 0.3 + 0.1j, np.array([0.7, 0.8]), "lower")
    assert kernels.poisson(strip, 0.3 + 0.1j, 0.7, "upper") == 0.0


def test_wide_strip_szego_is_the_half_plane_limit_not_a_pole():
    """On Strip(1e13) sinh(pi (z - conj w) / 2 beta) is about 1e-13 at these
    points, far from any pole; the kernel is i / (2 pi (z - conj w))."""
    z, w = 0.3 + 0.1j, 0.1 + 0.5j
    want = 1j / (2.0 * math.pi * (z - w.conjugate()))
    strip = Strip(1e13)
    assert abs(kernels.szego(strip, z, w) - want) <= 1e-12 * abs(want)
    got = kernels.szego(strip, np.array([z, z]), np.array([w, w]))
    assert np.all(np.abs(got - want) <= 1e-12 * abs(want))


def test_strip_szego_still_raises_on_the_lattice():
    for strip in (Strip(1.0), Strip(1e13)):
        with pytest.raises(PoleAtInput):
            kernels.szego(strip, 0.3, 0.3)
        with pytest.raises(PoleAtInput):
            kernels.szego(strip, np.array([0.3, 0.5j]), np.array([0.3, 0.5j]))
    with pytest.raises(PoleAtInput):      # z - conj(w) = 2 i beta
        kernels.szego(Strip(1.0), 0.3 + 1j, 0.3 + 1j)


def test_strip_poisson_with_a_subnormal_denominator_raises():
    """Past beta ~ 1e154 sinh(u)^2 + sin^2(pi Im z / 2 beta) is subnormal
    near x = Re z and has lost relative accuracy; at beta = 1e150 it has not."""
    with pytest.raises(ParameterOutOfRange, match="underflows"):
        kernels.poisson(Strip(1e160), 0.3 + 0.1j, 0.4)
    want = 0.1 / (math.pi * ((0.3 - 0.4) ** 2 + 0.1 ** 2))
    assert kernels.poisson(Strip(1e150), 0.3 + 0.1j, 0.4) == pytest.approx(want, rel=1e-12)


def test_a_bound_form_checks_its_point_and_component_when_bound():
    with pytest.raises(ParameterOutOfRange):
        kernels.poisson_at(HALF_PLANE, np.array([1j, 2j]))
    with pytest.raises(OutsideDomain):
        kernels.poisson_at(STRIP, 3.0j, "lower")
    with pytest.raises(ParameterOutOfRange):
        kernels.poisson_at(STRIP, 1.0j, "middle")
    with pytest.raises(ParameterOutOfRange):
        kernels.h_boundary_at(STRIP, np.array([1.0j]), "lower")
    with pytest.raises(OutsideDomain):
        kernels.h_boundary_at(DISC, 1.5, "circle")
    with pytest.raises(ParameterOutOfRange):
        kernels.h_boundary_at(DISC, 0.5, "line")


def test_boundary_inner_on_the_circle_calls_each_function_once():
    calls = []

    def f(comp, t):
        calls.append((comp, np.shape(t)))
        return np.exp(2j * t) / (2.0 * math.pi)

    val = kernels.boundary_inner(DISC, f, f)
    assert abs(val - 1.0 / (2.0 * math.pi)) < 1e-15
    assert calls == [("circle", (1024,))] * 2


def test_theta_fixes_its_kernel_section():
    # theta_w applied to the boundary section of Q(., w) returns it unchanged
    w = 0.25 + 0.15j
    f = kernels.boundary_restriction(DISC, lambda z: kernels.szego(DISC, z, w))
    tf = kernels.theta_apply(DISC, w, f)
    for x in (-2.0, 0.3, 1.9):
        assert abs(tf("circle", x) - f("circle", x)) < 1e-14


def test_flip_pairing_disc_polynomial():
    chk = kernels.flip_pairing_check(DISC, 0.35 + 0.0j,
                                     lambda z: 1.0 + 0.5 * z, tol=1e-10)
    assert chk.defect < 1e-9


def test_boundary_inner_circle_matches_coefficients():
    # <z^m Q_0, z^n Q_0> on the circle = delta_{mn} / (2 pi) for the disc
    # kernel at w = 0 (constant 1/2pi on the boundary)
    f = kernels.boundary_restriction(DISC, lambda z: z ** 2 / (2 * math.pi))
    g = kernels.boundary_restriction(DISC, lambda z: z ** 2 / (2 * math.pi))
    val = kernels.boundary_inner(DISC, f, g)
    assert abs(val - 1.0 / (2.0 * math.pi) ** 2 * 2 * math.pi) < 1e-14
    h = kernels.boundary_restriction(DISC, lambda z: z ** 3 / (2 * math.pi))
    assert abs(kernels.boundary_inner(DISC, f, h)) < 1e-15


def test_outer_f_square_modulus_is_poisson_on_fixed_points():
    w = 1.3j
    for x in (-0.8, 0.0, 2.1):
        F = kernels.outer_f(HALF_PLANE, w, complex(x))
        assert abs(abs(F) ** 2 - kernels.poisson(HALF_PLANE, w, x)) < 1e-14


def test_outer_from_modulus_reconstructs_kernel_modulus():
    w = 0.9j
    psi = lambda p: kernels.poisson(HALF_PLANE, w, p)
    z = 0.4 + 0.8j
    F = kernels.outer_from_modulus(psi, z)
    assert abs(abs(F) - abs(kernels.outer_f(HALF_PLANE, w, z))) < 1e-8


def test_outer_from_modulus_rejects_nonpositive():
    with pytest.raises(NonPositiveModulus):
        kernels.outer_from_modulus(lambda p: -1.0, 0.5j)


def test_kernel_gram_psd():
    rng = np.random.default_rng(24)
    pts = sample_interior(STRIP, rng, 6)
    rep = kernels.kernel_gram(STRIP, pts, kind="szego")
    assert rep.verdict
    rep = kernels.kernel_gram(STRIP, pts, kind="bergman")
    assert rep.verdict


@pytest.mark.parametrize("domain,kind,s,error", [
    (DISC, "power", None, ParameterOutOfRange),
    (DISC, "bergman", None, UnsupportedPair),
    (HALF_PLANE, "bergman", None, UnsupportedPair),
    (STRIP, "cauchy", 1.0, UnsupportedPair)],
    ids=["power-without-s", "bergman-on-the-disc", "bergman-on-the-half-plane", "unknown-kind"])
def test_kernel_gram_refuses_a_missing_exponent_and_a_kernel_it_lacks(domain, kind, s, error):
    with pytest.raises(error):
        kernels.kernel_gram(domain, [0.3 + 0.5j, 0.1 + 0.2j], kind=kind, s=s)


def test_szego_transfer_check_exact():
    rng = np.random.default_rng(25)
    z, w = sample_interior(DISC, rng, 2)
    chk = kernels.szego_transfer_check(DISC, STRIP, z, w)
    assert chk.defect < 1e-14


def test_szego_transfer_check_refuses_a_derivative_on_the_branch_cut():
    # at z = -1 on the line, the derivative of (beta / pi) Log z is -1 / pi
    with pytest.raises(BranchCutViolation, match="branch cut"):
        kernels.szego_transfer_check(HALF_PLANE, Strip(1.0), -1.0 + 0.0j, 0.5j)


# --------------------------------------------------------------------------
# array evaluation
# --------------------------------------------------------------------------

ARRAY_KERNELS = [
    ("szego", lambda d, z, w: kernels.szego(d, z, w)),
    ("power0.5", lambda d, z, w: kernels.power_kernel(d, 0.5, z, w)),
    ("power1.7", lambda d, z, w: kernels.power_kernel(d, 1.7, z, w)),
    ("bergman", lambda d, z, w: kernels.bergman_strip(d.beta, z, w)),
    # integer exponents take the repeated-squaring branch; on the disc the
    # exponent is -s, so these also cover a negative integer exponent
    ("power1", lambda d, z, w: kernels.power_kernel(d, 1.0, z, w)),
    ("power2", lambda d, z, w: kernels.power_kernel(d, 2.0, z, w)),
    ("power5", lambda d, z, w: kernels.power_kernel(d, 5.0, z, w)),
]


def _array_points(domain, rng):
    """Interior points, points 1e-6 from the boundary and, on the strip,
    points 300 beta to the side (the asymptotic branches)."""
    pts = [sample_interior(domain, rng, 10), sample_interior(domain, rng, 4, margin=1e-6)]
    if domain is STRIP:
        pts.append(sample_interior(domain, rng, 3) + 300.0 * STRIP.beta)
    return np.concatenate(pts)


@pytest.mark.parametrize("domain,k", [
    pytest.param(domain, k, id="%s-%s" % (domain.name, name))
    for domain in (DISC, HALF_PLANE, STRIP)
    for name, k in ARRAY_KERNELS if name != "bergman" or domain is STRIP])
def test_array_kernels_match_scalar_calls(domain, k):
    pts = _array_points(domain, np.random.default_rng(31))
    got = k(domain, pts[:, None], pts[None, :])
    assert got.shape == (pts.size, pts.size)
    want = np.array([[k(domain, complex(z), complex(w)) for w in pts] for z in pts])
    assert np.array_equal(got, want)
    # a 0-d call returns a Python scalar
    assert type(k(domain, np.asarray(pts[0]), pts[1])) is complex


def _power_oracle(mpmath, domain, s, z, w):
    """Principal Q_s(z, w) at 40 digits, from the closed forms in the
    kernels module header."""
    with mpmath.workdps(40):
        d = mpmath.mpc(z) - mpmath.conj(mpmath.mpc(w))
        if domain is DISC:
            return (1 - mpmath.mpc(z) * mpmath.conj(mpmath.mpc(w))) ** (-s) / (2 * mpmath.pi)
        if domain is HALF_PLANE:
            return (1j / d) ** s
        b = domain.beta
        return ((1j / (4 * b)) / mpmath.sinh(mpmath.pi * d / (2 * b))) ** s


@pytest.mark.parametrize("domain", [DISC, HALF_PLANE, STRIP],
                         ids=["disc", "half_plane", "strip"])
@pytest.mark.parametrize("s", [0.5, 1.0, 1.7, 2.0, 3.3, 5.0, 99.0, 100.0, 100.5])
@pytest.mark.filterwarnings("error")
def test_power_kernel_matches_a_40_digit_oracle(domain, s):
    """The power kernel has one body, so an array call and a scalar call give
    the same bits; the oracle checks the values themselves.  numpy's complex
    power takes repeated squaring for an integer exponent below 100 in
    modulus and exp(s log base) otherwise (numpy 2.4); the disc raises its
    base to -s.  base**s multiplies the relative error of its base by s, so
    the bound is 1e-14 up to s = 5 and grows as s / 5 beyond it.  Worst
    relative errors over these draws: 2.6e-15 on the disc, 1.1e-15 on the
    half-plane and 4.2e-15 on the strip up to s = 5, and 6.6e-14, 3.6e-14
    and 1.4e-13 over s = 99, 100 and 100.5 (where the CPython rule that
    numpy's power replaced gave 5.4e-14, 2.7e-14 and 7.1e-14)."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(41)
    z, w = sample_interior(domain, rng, 300), sample_interior(domain, rng, 300)
    got = kernels.power_kernel(domain, s, z, w)
    bound = 1e-14 * max(1.0, s / 5.0)
    with mpmath.workdps(40):
        for a, b, g in zip(z.tolist(), w.tolist(), got.tolist()):
            exact = _power_oracle(mpmath, domain, s, a, b)
            assert abs(mpmath.mpc(g) - exact) <= bound * abs(exact)


BAD_ELEMENTS = [
    (DISC, 1.5 + 0.0j, 0.2j, OutsideDomain),
    (DISC, 1.0 + 0.0j, 1.0 + 0.0j, PoleAtInput),
    (HALF_PLANE, 0.3 - 0.5j, 1.0j, OutsideDomain),
    (HALF_PLANE, 0.5 + 0.0j, 0.5 + 0.0j, PoleAtInput),
    (STRIP, 0.3 + 2.5j, 1.0j, OutsideDomain),
    (STRIP, 0.7 + 0.0j, 0.7 + 0.0j, PoleAtInput),
]


@pytest.mark.parametrize("domain,z,w,exc,k", [
    pytest.param(domain, z, w, exc, k, id="%s-%s-%s" % (domain.name, exc.__name__, name))
    for domain, z, w, exc in BAD_ELEMENTS for name, k in ARRAY_KERNELS[:3]])
def test_one_bad_element_raises_what_the_scalar_call_raises(domain, z, w, exc, k):
    with pytest.raises(exc):
        k(domain, z, w)
    good = sample_interior(domain, np.random.default_rng(32), 5)
    with pytest.raises(exc):
        k(domain, np.append(good, z), np.append(good[::-1], w))


@pytest.mark.parametrize("kind,s", [("szego", None), ("bergman", None), ("power", 1.7)])
def test_kernel_gram_agrees_with_a_double_loop_reference(kind, s):
    pts = sample_interior(STRIP, np.random.default_rng(33), 25)
    k = {"szego": lambda a, b: kernels.szego(STRIP, a, b),
         "bergman": lambda a, b: kernels.bergman_strip(STRIP.beta, a, b),
         "power": lambda a, b: kernels.power_kernel(STRIP, s, a, b)}[kind]
    ref = numerics.gram_report(np.array([[k(a, b) for b in pts] for a in pts]))
    got = kernels.kernel_gram(STRIP, pts, kind=kind, s=s)
    assert got.size == 25 and got.verdict == ref.verdict
    for field in ("min_eigenvalue", "max_eigenvalue", "hermiticity_defect"):
        assert getattr(got, field) == pytest.approx(getattr(ref, field),
                                                    abs=1e-13 * ref.spectral_norm)


def _szego_at_points(domain):
    """Interior points and, on the strip, points 300 beta to either side
    (the far branches, Re arg = +-471) and 500 beta to the right (Re arg
    = 785, past the underflow of e^{-arg} to a signed zero); on the
    half-plane, points past the far branch 1e307 to either side, 3e307
    high, and near 1e308 + 1e308 i, where z - conj(w) overflows."""
    pts = sample_interior(domain, np.random.default_rng(34), 8)
    if domain is STRIP:
        pts = np.concatenate([pts, pts[:3] + 300.0 * STRIP.beta,
                              pts[3:6] - 300.0 * STRIP.beta, pts[6:] + 500.0 * STRIP.beta])
    if domain is HALF_PLANE:
        pts = np.concatenate([pts, pts[:2] + 1.5e307, pts[2:4] - 1.5e307, pts[4:6] + 3e307j,
                              pts[6:] + (1e308 + 1e308j), [-1.7e308 + 1e308j]])
    return [complex(p) for p in pts]


@pytest.mark.parametrize("domain", [DISC, HALF_PLANE, STRIP],
                         ids=["disc", "half_plane", "strip"])
def test_szego_at_is_szego_and_its_array_body_bit_for_bit(domain):
    pts = _szego_at_points(domain)
    arr = np.array(pts)
    grid = kernels._szego_array(domain, arr[:, None], arr[None, :])
    branches = set()
    for j, z in enumerate(pts):
        for k, w in enumerate(pts):
            got = kernels.szego_at(domain, w)(z)
            assert type(got) is complex
            assert _bits(got) == _bits(kernels.szego(domain, z, w)) == _bits(grid[j, k])
            if domain is STRIP:
                re_arg = math.pi * (z - w.conjugate()).real / (2.0 * STRIP.beta)
                branches.add("far" if re_arg > 350.0 else "near" if re_arg < -350.0 else "mid")
                if re_arg > 745.0:
                    # a signed zero, its sign held to the array body's above
                    assert got == 0.0
                    branches.add("zero")
            if domain is HALF_PLANE:
                d = z - w.conjugate()
                branches.add("far" if max(abs(d.real), abs(d.imag)) > 1e307 else "near")
                if math.isinf(d.real) or math.isinf(d.imag):
                    branches.add("overflow")
                assert got != 0.0 and cmath.isfinite(got)
    assert branches == {DISC: set(), HALF_PLANE: {"far", "near", "overflow"},
                        STRIP: {"far", "near", "mid", "zero"}}[domain]


@pytest.mark.parametrize("domain,z,w", [
    (DISC, 1.0 + 0.0j, 1.0 + 0.0j),
    (HALF_PLANE, 0.5 + 0.0j, 0.5 + 0.0j),
    (STRIP, 0.7 + 0.0j, 0.7 + 0.0j),
    (STRIP, 0.7 + 2.0j, 0.7 + 2.0j),     # z - conj(w) = 2 i beta
], ids=["disc", "half_plane", "strip-0", "strip-2i-beta"])
def test_szego_at_raises_pole_at_input_on_the_lattice(domain, z, w):
    q = kernels.szego_at(domain, w)
    with pytest.raises(PoleAtInput):
        q(z)


def test_szego_at_checks_w_when_it_is_bound():
    with pytest.raises(OutsideDomain):
        kernels.szego_at(STRIP, 3.0j)
    with pytest.raises(OutsideDomain):
        kernels.szego_at(DISC, 1.5)
    with pytest.raises(ParameterOutOfRange):
        kernels.szego_at(HALF_PLANE, complex(0.0, math.inf))
    with pytest.raises(ParameterOutOfRange):
        kernels.szego_at(STRIP, None)


def test_szego_names_z_when_both_points_are_bad():
    with pytest.raises(ParameterOutOfRange, match="'a'"):
        kernels.szego(STRIP, "a", None)
    with pytest.raises(OutsideDomain, match=r"^\(1\+3j\) is outside"):
        kernels.szego(STRIP, 1.0 + 3.0j, 2.0 + 5.0j)
