"""Geometry of the three domains and the transfers between them."""

import cmath
import math

import numpy as np
import pytest

from rphardy.domains import (
    DISC, HALF_PLANE, Domain, Strip, cayley, cayley_inv, hardy_transfer,
    sample_interior, strip_exp, strip_log, transfer_map,
)
from rphardy.errors import OutsideDomain, ParameterOutOfRange

STRIP = Strip(2.0)
DOMAINS = [DISC, HALF_PLANE, STRIP]
DOMAIN_IDS = [d.name for d in DOMAINS]


@pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
def test_membership_classification(domain):
    rng = np.random.default_rng(11)
    for z in sample_interior(domain, rng, 50):
        assert domain.contains(z)
        assert domain.locate(z) == "interior"
    for comp in domain.boundary_components():
        zb = domain.boundary_embed(comp, 0.37)
        assert domain.locate(zb) == "boundary"
        assert not domain.contains(zb)


def test_exterior_points():
    assert DISC.locate(1.2 + 0.1j) == "exterior"
    assert HALF_PLANE.locate(0.4 - 0.3j) == "exterior"
    assert STRIP.locate(0.4 + 2.5j) == "exterior"
    assert STRIP.locate(0.4 - 0.1j) == "exterior"


@pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
def test_require_interior_raises(domain):
    zb = domain.boundary_embed(domain.boundary_components()[0], 0.0)
    with pytest.raises(OutsideDomain):
        domain.require_interior(zb)


@pytest.mark.parametrize("domain", DOMAINS, ids=DOMAIN_IDS)
def test_sigma_is_an_involution_preserving_the_domain(domain):
    rng = np.random.default_rng(12)
    for z in sample_interior(domain, rng, 50):
        s = domain.sigma(z)
        assert domain.contains(s)
        assert abs(domain.sigma(s) - z) <= 1e-15 * (1.0 + abs(z))


def test_fixed_sets():
    assert DISC.on_fixed_set(0.3 + 0.0j)
    assert not DISC.on_fixed_set(0.3 + 0.2j)
    assert HALF_PLANE.on_fixed_set(0.7j)
    assert not HALF_PLANE.on_fixed_set(0.1 + 0.7j)
    assert STRIP.on_fixed_set(-1.3 + 1.0j)   # midline Im z = beta/2
    assert not STRIP.on_fixed_set(-1.3 + 0.9j)


def test_strip_boundary_reflection_swaps_components():
    z_low = STRIP.boundary_embed("lower", 0.8)
    assert STRIP.sigma(z_low) == STRIP.boundary_embed("upper", 0.8)
    z_up = STRIP.boundary_embed("upper", -1.1)
    assert STRIP.sigma(z_up) == STRIP.boundary_embed("lower", -1.1)


def test_bad_boundary_component():
    with pytest.raises(ParameterOutOfRange):
        DISC.boundary_embed("line", 0.0)
    with pytest.raises(ParameterOutOfRange):
        STRIP.boundary_embed("left", 0.0)


def test_bad_strip_height():
    for beta in (0.0, -1.0, math.inf, math.nan, None, "1"):
        with pytest.raises(ParameterOutOfRange, match="finite beta > 0"):
            Strip(beta)


def test_cayley_pair_inverts():
    rng = np.random.default_rng(13)
    for z in sample_interior(DISC, rng, 30):
        w = cayley(z)
        assert HALF_PLANE.contains(w)
        assert abs(cayley_inv(w) - z) < 1e-14
    # boundary goes to boundary: the unit circle to the real line
    assert abs(cayley(cmath.exp(0.9j)).imag) < 1e-15


def test_strip_exp_log_invert():
    rng = np.random.default_rng(14)
    beta = 1.7
    for z in sample_interior(Strip(beta), rng, 30):
        w = strip_exp(beta, z)
        assert HALF_PLANE.contains(w)
        assert abs(strip_log(beta, w) - z) < 1e-13 * (1.0 + abs(z))


@pytest.mark.parametrize("src", DOMAINS, ids=DOMAIN_IDS)
@pytest.mark.parametrize("dst", DOMAINS, ids=DOMAIN_IDS)
def test_transfer_map_lands_inside_and_derivative_matches(src, dst):
    rng = np.random.default_rng(15)
    phi, dphi = transfer_map(src, dst)
    h = 1e-6
    for z in sample_interior(src, rng, 10, margin=0.1):
        assert dst.contains(phi(z))
        fd = (phi(z + h) - phi(z - h)) / (2.0 * h)
        assert abs(fd - dphi(z)) < 5e-7 * (1.0 + abs(dphi(z)))


def test_transfer_roundtrip_is_identity():
    rng = np.random.default_rng(16)
    for src, dst in [(DISC, STRIP), (STRIP, HALF_PLANE), (DISC, HALF_PLANE)]:
        fwd, _ = transfer_map(src, dst)
        back, _ = transfer_map(dst, src)
        for z in sample_interior(src, rng, 10):
            assert abs(back(fwd(z)) - z) < 1e-12 * (1.0 + abs(z))


@pytest.mark.parametrize("src", DOMAINS, ids=DOMAIN_IDS)
@pytest.mark.parametrize("dst", DOMAINS, ids=DOMAIN_IDS)
def test_hardy_transfer_reproducing_property(src, dst):
    # the unitary sends normalized kernel functions to functions whose value
    # at the transferred point reproduces the kernel relation; concretely the
    # composition with the inverse is the identity on samples
    from rphardy.kernels import szego
    rng = np.random.default_rng(17)
    w0 = sample_interior(src, rng, 1)[0]
    f = lambda z: szego(src, z, w0)
    g = hardy_transfer(src, dst, f)
    f_back = hardy_transfer(dst, src, g)
    for z in sample_interior(src, rng, 12):
        assert abs(f_back(z) - f(z)) < 1e-12 * (1.0 + abs(f(z)))


def test_hardy_transfer_rejects_mismatched_strips():
    with pytest.raises(ParameterOutOfRange, match="strip heights differ: 1 vs 2"):
        hardy_transfer(Strip(1.0), Strip(2.0), lambda z: 1.0)


def test_transfer_map_rejects_mismatched_strips():
    with pytest.raises(ParameterOutOfRange, match="strip heights differ: 2 vs 1"):
        transfer_map(Strip(2.0), Strip(1.0))


def test_sample_interior_respects_margin():
    rng = np.random.default_rng(18)
    pts = sample_interior(DISC, rng, 200, margin=0.2)
    assert np.max(np.abs(pts)) <= 0.8 + 1e-12
    pts = sample_interior(STRIP, rng, 200, margin=0.1)
    assert np.min(pts.imag) >= 0.1 * STRIP.beta - 1e-12
    assert np.max(pts.imag) <= 0.9 * STRIP.beta + 1e-12


def test_sample_interior_refuses_a_domain_it_does_not_know():
    with pytest.raises(ParameterOutOfRange, match="unknown domain"):
        sample_interior(Domain(), np.random.default_rng(0), 3)
