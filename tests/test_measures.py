"""Measures on R: transforms gamma/Gamma/kappa, reflection, KMS, splittings."""

import math
import re
import sys
import warnings

import numpy as np
import pytest

from rphardy import kernels, measures
from rphardy.domains import Strip
from rphardy.errors import (
    AsymmetricInput, AtomAtZero, DivergentTransform, NegativeSupport,
    ParameterOutOfRange, ToleranceNotReached, ZeroDenominator,
)
from rphardy.numerics import comp_sum


# --------------------------------------------------------------------------
# the container
# --------------------------------------------------------------------------

def test_atoms_sorted_and_merged():
    mu = measures.atomic([(1.9, 0.4), (0.7, 1.0), (0.7 + 1e-14, 0.5)])
    assert list(mu.atom_locs) == [0.7, 1.9]
    assert mu.atom_weights[0] == pytest.approx(1.5)


def test_merging_is_chained_to_the_lowest_location():
    """Each gap is at most 1e-12, so the three atoms form one chain, although
    the last lies 1.6e-12 from the first."""
    mu = measures.atomic([(0.7 + 1.6e-12, 0.25), (0.7, 1.0), (0.7 + 0.8e-12, 0.5)])
    assert mu.atom_locs.tolist() == [0.7]
    assert mu.atom_weights.tolist() == [1.75]


def test_no_atom_left_after_merging_lies_within_the_merge_tolerance_of_another():
    rng = np.random.default_rng(5)
    gaps = rng.choice([0.0, 0.5e-12, 1e-12, 1.1e-12, 3e-12, 0.2], size=2000)
    locs = np.cumsum(gaps) - 7.0
    weights = rng.choice([0.0, 0.5, 1.0], size=locs.size)
    mu = measures.MeasureOnR(rng.permutation(locs), rng.permutation(weights))
    assert np.all(np.diff(mu.atom_locs) > 1e-12)
    assert np.all(mu.atom_weights > 0.0)
    assert mu.total_mass() == math.fsum(weights)


def test_atom_arrays_of_two_lengths_are_rejected():
    with pytest.raises(ParameterOutOfRange, match="must be parallel"):
        measures.MeasureOnR(np.array([1.0, 2.0]), np.array([1.0]))


def test_negative_weight_rejected():
    with pytest.raises(ParameterOutOfRange):
        measures.atomic([(0.7, -1.0)])
    with pytest.raises(ParameterOutOfRange):
        measures.gridded(0.0, 0.1, [1.0, -0.5, 1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_rejected(bad):
    with pytest.raises(ParameterOutOfRange):
        measures.atomic([(bad, 1.0), (2.0, 1.0)])
    with pytest.raises(ParameterOutOfRange):
        measures.atomic([(1.0, bad), (2.0, 1.0)])
    with pytest.raises(ParameterOutOfRange):
        measures.gridded(0.0, 0.1, [1.0, bad, 1.0])


@pytest.mark.parametrize("pairs", [[(1.0,)], [1.0, 2.0], [(1.0, 2.0, 3.0)],
                                   [(1.0, 2.0), (3.0,)], [(1.0, 2.0), 3.0],
                                   [("a", 1.0)], 4.0, ["12", "34"]],
                         ids=["short-pair", "flat", "long-pair", "ragged", "not-a-pair",
                              "not-a-number", "not-a-sequence", "strings"])
def test_atomic_rejects_anything_but_pairs(pairs):
    with pytest.raises(ParameterOutOfRange):
        measures.atomic(pairs)


def test_atomic_takes_pairs_in_any_sequence():
    want = measures.atomic([(1.9, 0.4), (0.7, 1.0)])
    for pairs in (iter([(1.9, 0.4), (0.7, 1.0)]), [[1.9, 0.4], np.array([0.7, 1.0])],
                  np.array([[1.9, 0.4], [0.7, 1.0]])):
        mu = measures.atomic(pairs)
        assert mu.atom_locs.tolist() == want.atom_locs.tolist() == [0.7, 1.9]
        assert mu.atom_weights.tolist() == want.atom_weights.tolist()
    assert measures.atomic([]).atom_locs.size == 0


def test_total_mass():
    mu = measures.atomic([(0.7, 1.0), (1.9, 0.4)])
    assert mu.total_mass() == pytest.approx(1.4)
    # trapezoid grid integrates a linear function exactly
    grid = measures.gridded(0.0, 0.5, [1.0, 1.0, 1.0, 1.0, 1.0])
    assert grid.total_mass() == pytest.approx(2.0, abs=1e-15)


def test_support_bounds_and_require_support():
    mu = measures.MeasureOnR(np.array([0.7]), np.array([1.0]),
                             grid_x0=1.0, grid_h=0.5,
                             density=np.array([1.0, 1.0, 1.0]))
    lo, hi = mu.support_bounds()
    assert lo == 0.7 and hi == 2.0
    mu.require_support(0.0, 2.0)
    with pytest.raises(NegativeSupport):
        mu.require_support(1.0, 3.0)


def test_plus_rejects_mixed_representations():
    with pytest.raises(ParameterOutOfRange):
        measures.atomic([(0.7, 1.0)]).plus(measures.gridded(1.0, 0.5, [1, 1, 1]))


def test_plus_adds_the_densities_on_one_grid_and_refuses_two_grids():
    mu = measures.gridded(-1.0, 0.5, [1.0, 2.0, 3.0])
    total = mu.plus(measures.gridded(-1.0, 0.5, [0.5, 0.25, 0.125]))
    assert (total.grid_x0, total.grid_h) == (-1.0, 0.5)
    assert total.density.tolist() == [1.5, 2.25, 3.125]
    for other in (measures.gridded(-0.5, 0.5, [1.0, 1.0, 1.0]),
                  measures.gridded(-1.0, 0.25, [1.0, 1.0, 1.0]),
                  measures.gridded(-1.0, 0.5, [1.0, 1.0])):
        with pytest.raises(ParameterOutOfRange, match="grids must match"):
            mu.plus(other)


def test_json_roundtrip():
    mu = measures.MeasureOnR(np.array([-0.3, 0.7]), np.array([0.2, 1.0]),
                             grid_x0=-1.0, grid_h=0.25,
                             density=np.array([0.5, 1.0, 0.75]))
    back = measures.MeasureOnR.from_json(mu.to_json())
    assert np.array_equal(back.atom_locs, mu.atom_locs)
    assert np.array_equal(back.atom_weights, mu.atom_weights)
    assert back.grid_x0 == mu.grid_x0 and back.grid_h == mu.grid_h
    assert np.array_equal(back.density, mu.density)


@pytest.mark.parametrize("text", ['{"atoms": [[1.0]]}', '{"atoms": [1.0, 2.0]}',
                                  '{"atoms": [[1.0, 2.0, 3.0]]}', '{"atoms": [[NaN, 1.0]]}',
                                  '{"atoms": [[1.0, Infinity]]}', '{"atoms": [["a", 1.0]]}'],
                         ids=["short-pair", "flat", "long-pair", "nan", "inf", "not-a-number"])
def test_from_json_reads_atoms_as_atomic_does(text):
    with pytest.raises(ParameterOutOfRange):
        measures.MeasureOnR.from_json(text)


def _same_bits(a, b):
    """Equal arrays of floats, the sign of every zero included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("m", [3, 40])
@pytest.mark.parametrize("h", [0.01, 0.02, 0.05, 0.1, 0.3, 1.0 / 3.0, 0.7])
@pytest.mark.parametrize("image", [measures.gamma_map, measures.Gamma_map])
def test_an_image_grid_is_mu_grid_and_its_exact_mirror(h, m, image):
    """A gamma or Gamma image of a density on 0, h, ..., L = h m lives on the
    nodes h k, k = -m, ..., m: at lam >= 0 the nodes of mu bit for bit, where
    its density values were formed, and each negative node the exact
    negation of its mirror.  With h = 0.1 and m = 3, L / h is
    3.0000000000000004, so k0 must be rounded, not tested for being whole."""
    mu = measures.gridded(0.0, h, np.exp(-h * np.arange(m + 1)))
    nodes = image(mu, 1.3).grid_nodes()
    assert nodes.size == 2 * m + 1
    assert _same_bits(nodes[m:], mu.grid_nodes())
    assert _same_bits(nodes[:m], -nodes[:-m - 1:-1])
    assert measures._mirrored(nodes) == m


@pytest.mark.parametrize("build", [measures.szego_strip_measure,
                                   measures.bergman_strip_measure], ids=["szego", "bergman"])
@pytest.mark.parametrize("beta,halfwidth", [(2.0, None), (2.0, 40.0), (0.7, 3.3), (5.0, 0.05)])
def test_a_strip_measure_lives_on_its_symmetric_grid_bit_for_bit(build, beta, halfwidth):
    nu = build(beta, halfwidth)
    assert _same_bits(nu.grid_nodes(), measures._symmetric_grid(beta, halfwidth))


@pytest.mark.parametrize("h", [0.01, 0.05, 0.1, 1.0 / 3.0, 2.5, 1e-300, 1e300])
def test_a_grid_from_0_keeps_the_nodes_x0_plus_h_j(h):
    nu = measures.gridded(0.0, h, np.ones(101))
    assert _same_bits(nu.grid_nodes(), 0.0 + h * np.arange(101))
    assert _same_bits(measures.gridded(-0.0, h, np.ones(3)).grid_nodes(), [0.0, h, 2.0 * h])


@pytest.mark.parametrize("x0,h", [
    (-3.975, 0.05),             # a half-offset grid: x0 / h = -79.5
    (0.5, 0.3), (-1.0, 0.7), (1e-17, 0.1),
    (1e300, 1e-300),            # x0 / h overflows to inf
    (2.0 ** 53, 1.0),           # x0 = h k0, but |k0| + n >= 2**53
    (-3.0 * 2.0 ** 60, 4.0),
    (5e-324, 5e-324),           # x0 = h k0 with k0 = 1: the exact path
], ids=str)
def test_a_grid_off_the_multiples_of_h_or_past_2_53_keeps_x0_plus_h_j(x0, h):
    nu = measures.gridded(x0, h, np.ones(7))
    q = x0 / h
    exact = abs(q) + 7 < 2.0 ** 53 and h * round(q) == x0
    want = h * np.arange(round(q), round(q) + 7) if exact else x0 + h * np.arange(7)
    assert exact == ((x0, h) == (5e-324, 5e-324))
    assert _same_bits(nu.grid_nodes(), want)
    assert nu.grid_nodes()[0] == x0


# --------------------------------------------------------------------------
# gamma, Gamma, kappa
# --------------------------------------------------------------------------

def test_gamma_map_single_atom():
    nu = measures.gamma_map(measures.atomic([(0.7, 1.0)]), 1.0)
    assert list(nu.atom_locs) == [-0.7, 0.7]
    # frozen 40-digit weight e^{-0.7}
    assert nu.atom_weights[0] == pytest.approx(0.49658530379140951, abs=1e-16)
    assert nu.atom_weights[1] == 1.0


def test_gamma_map_doubles_an_atom_at_zero():
    nu = measures.gamma_map(measures.atomic([(0.0, 0.5)]), 1.0)
    assert list(nu.atom_locs) == [0.0]
    assert nu.atom_weights[0] == pytest.approx(1.0)


def test_Gamma_map_single_atom():
    nu = measures.Gamma_map(measures.atomic([(0.7, 1.0)]), 1.0)
    # frozen 40-digit Fermi weights; they sum to the original mass
    assert nu.atom_weights[list(nu.atom_locs).index(0.7)] == pytest.approx(
        0.66818777216816611, abs=1e-16)
    assert nu.atom_weights[list(nu.atom_locs).index(-0.7)] == pytest.approx(
        0.33181222783183389, abs=1e-16)
    assert nu.total_mass() == pytest.approx(1.0, abs=1e-15)


def test_Gamma_map_survives_exp_overflow():
    # e^{beta lam} overflows past beta lam ~ 709.8; the mirror weight is
    # e^{-beta lam} / (1 + e^{-beta lam}) there, and underflows to 0 at 1000
    nu = measures.Gamma_map(measures.atomic([(1000.0, 1.0)]), 1.0)
    assert list(nu.atom_locs) == [1000.0]
    assert list(nu.atom_weights) == [1.0]
    nu = measures.Gamma_map(measures.atomic([(705.0, 2.0), (700.0, 2.0)]), 1.0)
    weights = dict(zip(nu.atom_locs, nu.atom_weights))
    assert weights[-705.0] == pytest.approx(2.0 * math.exp(-705.0), rel=1e-15)
    # below the switch the mirror weight keeps its original form bit for bit
    assert weights[-700.0] == 2.0 / (1.0 + math.exp(700.0))
    assert weights[705.0] == weights[700.0] == 2.0


# beta lam from 1e-3 to 750, across the x = 700 switch of Gamma_map and past
# x = 709.8, where e^x overflows; beta a power of 2 keeps beta lam exact
ORACLE_X = np.concatenate([np.geomspace(1e-3, 750.0, 60),
                           [699.9, 700.0, 700.1, 708.0, 709.7, 709.8, 709.9, 710.0, 745.0]])


@pytest.mark.parametrize("beta", [0.5, 1.0, 4.0])
def test_gamma_and_Gamma_atom_weights_against_a_40_digit_oracle(beta):
    """Every weight within 1e-15 relative of the 40-digit value (worst
    measured: 2.1e-16).  With w = 1e300 every mirror weight w e^{-beta lam}
    is a normal double, also past beta lam = 708.4, where e^{-beta lam}
    alone is subnormal, and past 745.2, where it is 0."""
    mpmath = pytest.importorskip("mpmath")
    w = 1e300
    locs = ORACLE_X / beta
    mu = measures.atomic(np.column_stack([locs, np.full(locs.size, w)]))
    g, G = measures.gamma_map(mu, beta), measures.Gamma_map(mu, beta)
    g = dict(zip(g.atom_locs.tolist(), g.atom_weights.tolist()))
    G = dict(zip(G.atom_locs.tolist(), G.atom_weights.tolist()))
    worst = 0.0
    with mpmath.workdps(40):
        for lam in locs.tolist():
            e = mpmath.exp(-mpmath.mpf(beta) * mpmath.mpf(lam))
            for got, ref in ((g[lam], w), (G[lam], w / (1 + e)),
                             (g[-lam], w * e), (G[-lam], w * e / (1 + e))):
                assert ref >= sys.float_info.min
                worst = max(worst, float(abs(got - ref) / ref))
    assert worst <= 1e-15


def test_atoms_on_both_sides_of_zero_keep_their_mass():
    """Two atoms within 1e-12 of 0 but more than 1e-12 apart stay two atoms;
    the splitting and the inverse Gamma map both sum them into the atom at 0."""
    mu = measures.MeasureOnR([-2.0, -0.9e-12, 0.9e-12, 2.0], [1.0, 1.0, 1.0, 1.0])
    nu, plus, minus = measures.geometric_splitting(mu, 1.0, "alternating")
    assert nu.atom_weights.sum() == 2.0
    assert plus.atom_weights.sum() + minus.atom_weights.sum() == pytest.approx(2.0, rel=1e-15)
    assert plus.atom_weights[0] == minus.atom_weights[-1] == pytest.approx(0.5, rel=1e-12)
    inv = measures.Gamma_inverse(measures.MeasureOnR([-0.9e-12, 0.9e-12], [1.0, 1.0]), 1.0)
    assert inv.atom_locs.tolist() == [0.0] and inv.atom_weights.tolist() == [2.0]


def test_Gamma_map_keeps_an_atom_at_zero():
    nu = measures.Gamma_map(measures.atomic([(0.0, 0.8)]), 1.0)
    assert list(nu.atom_locs) == [0.0]
    assert nu.atom_weights[0] == pytest.approx(0.8)


@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
def test_factorization_gamma_kappa_equals_Gamma(beta):
    mu = measures.atomic([(0.0, 0.5), (0.7, 1.0), (1.9, 0.4)])
    via_kappa = measures.gamma_map(measures.M_kappa(mu, beta), beta)
    direct = measures.Gamma_map(mu, beta)
    assert np.allclose(via_kappa.atom_locs, direct.atom_locs, atol=1e-15)
    assert np.allclose(via_kappa.atom_weights, direct.atom_weights,
                       rtol=0.0, atol=1e-16)


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_Gamma_inverse_roundtrip_atoms(beta):
    mu = measures.atomic([(0.0, 0.5), (0.7, 1.0), (1.9, 0.4)])
    back = measures.Gamma_inverse(measures.Gamma_map(mu, beta), beta)
    assert np.allclose(back.atom_locs, mu.atom_locs, atol=1e-15)
    assert np.allclose(back.atom_weights, mu.atom_weights, rtol=0.0, atol=1e-16)


def test_Gamma_inverse_roundtrip_grid():
    beta = 1.0
    lam = 0.05 * np.arange(121)
    mu = measures.gridded(0.0, 0.05, np.exp(-lam))
    back = measures.Gamma_inverse(measures.Gamma_map(mu, beta), beta)
    assert back.grid_x0 == pytest.approx(0.0)
    assert np.allclose(back.density, mu.density, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("x0", [-3.0, -1.0])
def test_Gamma_inverse_of_a_density_below_zero_raises(x0):
    # grid -3, -2 has no node at lam >= 0, grid -1, 0 only one
    with pytest.raises(ParameterOutOfRange):
        measures.Gamma_inverse(measures.gridded(x0, 1.0, [1.0, 2.0]), 1.0)


def test_markov_weight_range():
    lam = np.linspace(-5, 5, 41)
    kappa = measures.markov_weight(2.0, lam)
    assert np.all(kappa > 0.0) and np.all(kappa < 1.0)
    assert measures.markov_weight(2.0, 0.0) == pytest.approx(0.5)


# --------------------------------------------------------------------------
# reflection, fourier, KMS
# --------------------------------------------------------------------------

def test_reflection_check_gamma_image():
    mu = measures.atomic([(0.7, 1.0), (1.9, 0.4)])
    nu = measures.gamma_map(mu, 1.0)
    assert measures.reflection_check(nu, 1.0) < 1e-15
    # a plain symmetric measure fails the e^{-beta lam} law
    sym = measures.atomic([(0.7, 1.0), (-0.7, 1.0)])
    assert measures.reflection_check(sym, 1.0) > 0.4
    # and one-sided support has no mirror at all
    assert measures.reflection_check(mu, 1.0) == math.inf
    # nor has a grid that is not symmetric about 0
    assert measures.reflection_check(measures.gridded(-1.0, 0.5, [1.0] * 6), 1.0) == math.inf
    # e^{-800} underflows: the reflected density is 0 where its mirror is 1
    assert measures.reflection_check(measures.gridded(-800.0, 800.0, [1.0, 0.0, 1.0]),
                                     1.0) == math.inf


def test_a_density_off_a_grid_from_0_is_not_extended():
    with pytest.raises(ParameterOutOfRange, match="grid to start at lam = 0"):
        measures.Gamma_map(measures.gridded(0.5, 0.1, [1.0, 1.0]), 1.0)


def test_fourier_frozen_value():
    mu = measures.atomic([(0.7, 1.0), (1.9, 0.4)])
    got = measures.fourier(mu, 0.3 + 0.5j, monitor=False)
    want = 0.81944579489544531 + 0.23037834893199205j
    assert abs(got - want) < 5e-16


def test_fourier_monitor_flags_divergence():
    wide = measures.gridded(0.0, 0.5, np.ones(81))   # support [0, 40]
    with pytest.raises(DivergentTransform):
        measures.fourier(wide, -1.0j)    # e^{lam} against a flat tail
    # same input is accepted when the caller vouches for compact support
    val = measures.fourier(wide, -1.0j, monitor=False)
    assert np.isfinite(val.real)


def test_fourier_of_an_array_matches_scalar_calls_bit_for_bit():
    mu = measures.gridded(0.0, 0.05, np.exp(-0.5 * (0.05 * np.arange(400)) ** 2))
    g = measures.Gamma_map(mu, 1.0)
    nu = measures.MeasureOnR([0.3, -0.3], [0.2, 0.1], grid_x0=g.grid_x0,
                             grid_h=g.grid_h, density=g.density)
    zs = np.array([[0.3 + 0.5j, -1.2 + 0.9j, 2.5], [0.0, 1j, -3.0 + 0.1j]])
    got = measures.fourier(nu, zs)
    assert got.shape == zs.shape
    for z, val in zip(zs.ravel(), got.ravel()):
        assert val == measures.fourier(nu, complex(z))
    assert type(measures.fourier(nu, 0.2)) is complex


@pytest.mark.parametrize("nu,z", [
    (measures.atomic([(-800.0, 1.0), (-801.0, 1.0)]), 1 + 2j),
    (measures.atomic([(-700.0, 1e300)]), 1j),
    (measures.gridded(-800.0, 0.5, np.ones(5)), np.array([0.5, 2j, 1.0])),
])
def test_fourier_raises_when_the_transform_overflows(nu, z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergentTransform, match="overflows"):
            measures.fourier(nu, z, monitor=False)


def test_kms_check_raises_when_a_transform_overflows():
    nu = measures.atomic([(-800.0, 1.0), (-801.0, 1.0), (3.0, 1.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # e^{-beta lam} w overflows at the atoms: the transform at i beta + t
        with pytest.raises(DivergentTransform, match=re.escape("overflows at z = (-4+2j)")):
            measures.kms_check(nu, 2.0)
        # only nu_hat(t) overflows, and kms_check names it as fourier does
        heavy = measures.atomic([(1.0, 1e308), (1.0 + 1e-9, 1e308)])
        with pytest.raises(DivergentTransform) as plain:
            measures.fourier(heavy, measures._KMS_T_GRID)
        with pytest.raises(DivergentTransform, match=re.escape(str(plain.value))):
            measures.kms_check(heavy, 1.0)
        # finite transforms whose difference overflows: +-1e308 i at t = 4
        big = measures.MeasureOnR(np.array([math.pi / 8]), np.array([1e308]))
        with pytest.raises(DivergentTransform, match="differ by more than 1e308"):
            measures.kms_check(big, 1e-300)


def test_laplace_value():
    mu = measures.atomic([(0.7, 1.0)])
    assert measures.laplace(mu, 0.5) == pytest.approx(0.70468808971871343,
                                                      abs=1e-16)


@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
def test_kms_for_both_transforms(beta):
    mu = measures.atomic([(0.7, 1.0), (1.9, 0.4), (0.0, 0.3)])
    for image in (measures.gamma_map(mu, beta), measures.Gamma_map(mu, beta)):
        assert measures.kms_check(image, beta) < 1e-12


def test_kms_fails_for_raw_measure():
    mu = measures.atomic([(0.7, 1.0), (1.9, 0.4)])
    assert measures.kms_check(mu, 1.0) > 0.1


def _np_exp_sum(parts, z):
    """sum_j e^{i z lam_j} w_j over the (nodes, weights) ``parts`` at the z
    array with every phase from np.exp: the body measures._exp_sum had
    before it formed real-z phases as cos + i sin."""
    iz = 1j * np.asarray(z, dtype=complex)[:, None]
    return sum(comp_sum(np.exp(iz * nodes) * weights) for nodes, weights in parts if nodes.size)


def _measure_parts(nu):
    return ((nu.atom_locs, nu.atom_weights), (nu.grid_nodes(), nu.grid_quad_weights()))


def _np_exp_transform(nu, z):
    """nu_hat at the z array, every phase from np.exp."""
    return _np_exp_sum(_measure_parts(nu), z)


def _reweighted_parts(nu, beta):
    """The parts of e^{-beta lam} d nu, each weight w e^{-beta lam} as
    measures._mirror_weight forms it."""
    return [(nodes, measures._mirror_weight(weights, beta * nodes))
            for nodes, weights in _measure_parts(nu)]


def _np_exp_shifted(nu, beta, t):
    """nu_hat(i beta + t) as kms_check promises it, bit for bit: the np.exp
    sum at the real t over the reweighted parts."""
    return _np_exp_sum(_reweighted_parts(nu, beta), t)


def _bits(values):
    return [(v.real.hex(), v.imag.hex()) for v in np.asarray(values).tolist()]


def _gridded_gamma_image(beta):
    """A Gamma image of the kind array workloads check: a smooth density on
    a 4001-node grid of step 0.01, so 8001 nodes on [-40, 40]."""
    lam = 0.01 * np.arange(4001)
    density = sum(a * np.exp(-0.5 * ((lam - c) / w) ** 2)
                  for c, w, a in ((0.8, 2.5, 1.0), (2.9, 3.1, 0.4), (1.7, 2.2, 0.7)))
    return measures.Gamma_map(measures.gridded(0.0, 0.01, density), beta)


@pytest.mark.parametrize("nu,beta", [
    (_gridded_gamma_image(1.37), 1.37),
    (measures.atomic([(0.7, 1.0), (1.9, 0.4), (-2.3, 0.25), (0.0, 0.3)]), 0.8),
    # beta lam = +-705 at the atoms +-352.5: e^{-beta lam} near the end of the float range
    (measures.Gamma_map(measures.atomic([(352.5, 1.0), (0.7, 0.5)]), 2.0), 2.0),
], ids=["gridded-gamma-image", "atomic", "far-atoms"])
def test_kms_check_is_the_np_exp_sum_over_the_reweighted_row_bit_for_bit(nu, beta):
    """nu_hat(i beta + t) is the transform at t of e^{-beta lam} d nu:
    kms_check sums the weight rows (e^{-beta lam} w, w) over one table of
    phases at the real t, each row bit for bit its own np.exp sum, and the
    shifted row agrees with fourier at i beta + t to a few ulps of its
    absolute mass."""
    t = measures._KMS_T_GRID
    shifted, plain = _np_exp_shifted(nu, beta, t), _np_exp_transform(nu, t)
    assert _bits(plain) == _bits(measures.fourier(nu, t))
    want = measures._worst_gap(shifted, np.conj(plain))
    assert measures.kms_check(nu, beta).hex() == want.hex()
    rows = [(nodes, np.stack((shifted_w, w)), False) for (nodes, w), (_, shifted_w)
            in zip(_measure_parts(nu), _reweighted_parts(nu, beta))]
    got = measures._exp_sum(rows, t)
    assert got.shape == (2, t.size)
    assert _bits(got[0]) == _bits(shifted) and _bits(got[1]) == _bits(plain)
    # fourier at i beta + t takes its phases from np.exp
    direct = measures.fourier(nu, 1j * beta + t)
    assert _bits(direct) == _bits(_np_exp_transform(nu, 1j * beta + t))
    mass = sum(comp_sum(np.abs(w)) for _, w in _reweighted_parts(nu, beta))
    assert np.max(np.abs(shifted - direct)) <= 4.0 * sys.float_info.epsilon * mass


def test_libm_identities_behind_the_real_phases():
    """The bits measures._exp_sum relies on (libm's cexp, numpy's complex
    exp): e^{i y} is (cos y, sin y), and e^{x + i y} is (E cos y, E sin y)
    with E = exp(x + 0j).real, on |x| <= 700 (past about 709 cexp
    rescales).  np.cos and np.sin give those bits written into the parts of
    a complex block as well.  A zero may differ in sign, which no exactly
    rounded sum sees, so the comparison is by value.  numpy's exp of a real
    array is its own SIMD code, not libm's: it differs from E in the last
    bit for some x, so it must not stand in for E."""
    rng = np.random.default_rng(30)
    y = rng.uniform(-1e4, 1e4, 300_000)
    phases = np.exp(1j * y)
    assert np.array_equal(phases.real, np.cos(y))
    assert np.array_equal(phases.imag, np.sin(y))
    block = np.empty((3, y.size // 3), dtype=complex)
    np.cos(y.reshape(block.shape), out=block.real)
    np.sin(y.reshape(block.shape), out=block.imag)
    assert np.array_equal(block, phases.reshape(block.shape))
    x = rng.uniform(-700.0, 700.0, y.size)
    e = np.exp(x + 0j).real
    shifted = np.exp(x + 1j * y)
    assert np.array_equal(shifted.real, e * np.cos(y))
    assert np.array_equal(shifted.imag, e * np.sin(y))
    assert np.any(np.exp(x) != e)


def test_parity_identities_behind_the_folded_phases():
    """The bits the fold of measures._summands relies on: t (-lam) is
    -(t lam), cos(-y) is cos(y) and sin(-y) is -sin(y), bit for bit and the
    sign of a zero too, over arguments from subnormal to 1e308."""
    rng = np.random.default_rng(32)
    y = np.concatenate([rng.uniform(0.0, 1e4, 200_000),
                        rng.uniform(1.0, 2.0, 20_000) * 2.0 ** rng.integers(-1074, 1023, 20_000),
                        [0.0, 5e-324, math.pi / 2, math.pi, 1e22, 1.7e308]])
    for neg in (-y, np.negative(y[::-1])[::-1]):
        assert _same_bits(np.cos(neg), np.cos(y))
        assert _same_bits(np.sin(neg), -np.sin(y))
    t = rng.uniform(-4.0, 4.0, y.size) * 10.0 ** rng.integers(-5, 5, y.size)
    t[:3] = (0.0, -0.0, 5e-324)
    lam = rng.uniform(0.0, 40.0, y.size)
    lam[-3:] = (0.0, 5e-324, 40.0)
    assert _same_bits(t * -lam, -(t * lam))


def _symmetric_measures():
    """Measures whose nodes are exactly symmetric: odd and even counts, an
    atom at 0, a grid, and atoms beside a grid."""
    density = np.exp(-0.5 * (0.05 * np.arange(301) - 1.0) ** 2)
    grid = measures.Gamma_map(measures.gridded(0.0, 0.05, density), 1.1)
    atoms = measures.Gamma_map(measures.atomic([(0.7, 1.0), (1.9, 0.4), (3.25, 0.2)]), 0.8)
    with_zero = measures.Gamma_map(measures.atomic([(0.0, 0.3), (0.7, 1.0), (1.9, 0.4)]), 0.8)
    both = measures.MeasureOnR(np.array([-0.71, 0.71]), np.array([0.2, 0.2 * math.exp(-1.1 * 0.71)]),
                               grid.grid_x0, grid.grid_h, grid.density)
    return {"grid-odd": grid, "atoms-even": atoms, "atom-at-0-odd": with_zero,
            "atoms-and-grid": both}


_SYMMETRIC = _symmetric_measures()
_REAL_T = [0.37, -2.5, 0.0, np.array([-4.0, -0.0, 0.0, 0.11, 1.5, 3.999]),
           np.linspace(-3.0, 3.0, 40).reshape(5, 8)]


@pytest.mark.parametrize("name", list(_SYMMETRIC))
def test_the_folded_table_is_the_table_taken_node_by_node(name):
    """For one weight row and for a stack of two, each row of the stack
    being the table of that row alone."""
    nu = _SYMMETRIC[name]
    t = np.linspace(-4.0, 4.0, 33)
    for nodes, weights in _measure_parts(nu):
        if not nodes.size:
            continue
        half = measures._mirrored(nodes)
        assert half == nodes.size // 2 > 0
        rows = np.stack((measures._mirror_weight(weights, 1.1 * nodes), weights))
        for w in (weights, rows):
            folded = measures._summands(t, nodes, w, half)
            full = measures._summands(t, nodes, w)
            assert _same_bits(folded.view(float), full.view(float))
        stacked = measures._summands(t, nodes, rows, half)
        for k in range(2):
            assert _same_bits(stacked[k].view(float),
                              measures._summands(t, nodes, rows[k], half).view(float))


@pytest.mark.parametrize("name", list(_SYMMETRIC))
def test_real_z_fold_the_table_at_every_size(name, monkeypatch):
    """A scalar t on a few atoms folds as a long grid does: every part whose
    nodes mirror reaches _summands with half its nodes."""
    nu, halves = _SYMMETRIC[name], []
    summands = measures._summands

    def spy(z, nodes, weights, half=0):
        halves.append((nodes.size, half))
        return summands(z, nodes, weights, half)

    monkeypatch.setattr(measures, "_summands", spy)
    measures.fourier(nu, 0.37)
    measures.kms_check(nu, 0.8)
    assert halves and all(half == n // 2 for n, half in halves)
    halves.clear()
    measures.fourier(nu, 0.37 + 0.1j)       # complex z take np.exp on every node
    assert halves and all(half == 0 for _, half in halves)


@pytest.mark.parametrize("t", _REAL_T, ids=["scalar", "negative", "zero", "array", "2d"])
@pytest.mark.parametrize("name", list(_SYMMETRIC))
def test_fourier_on_a_symmetric_grid_is_the_np_exp_sum_bit_for_bit(name, t):
    nu = _SYMMETRIC[name]
    got = measures.fourier(nu, t)
    want = _np_exp_transform(nu, np.ravel(t))
    assert np.shape(got) == np.shape(t)
    assert _bits(np.ravel(got)) == _bits(want)


@pytest.mark.parametrize("name", list(_SYMMETRIC))
def test_kms_check_on_a_symmetric_grid_is_the_np_exp_pair_bit_for_bit(name):
    nu, t = _SYMMETRIC[name], measures._KMS_T_GRID
    for beta in (0.8, 1.1):
        want = measures._worst_gap(_np_exp_shifted(nu, beta, t),
                                   np.conj(_np_exp_transform(nu, t)))
        assert measures.kms_check(nu, beta).hex() == want.hex()


_NEXT = math.nextafter(0.7, 1.0)


@pytest.mark.parametrize("locs,half", [
    ([0.7], 0),                             # one node: nothing to mirror
    ([-0.7, 0.3, _NEXT], 0),                # the ends one ulp apart
    ([-1.9, -_NEXT, 0.7, 1.9], 0),          # an inner pair one ulp apart
    ([-1.9, -0.7, 0.2, 0.7, 1.9], 2),       # a centre off 0 is taken on its own
    ([-1.9, -0.7, 0.7, 1.9, 3.25], 0),      # mirrored but for one node past the end
], ids=["one-node", "ends-off", "inner-off", "centre-off-0", "one-past"])
def test_real_z_fold_exactly_where_the_nodes_mirror(locs, half):
    """_mirrored folds a table only where its nodes mirror bit for bit, and
    on these near misses fourier and kms_check are still the np.exp sums."""
    nu = measures.atomic([(x, 1.0 + 0.1 * k) for k, x in enumerate(locs)])
    assert measures._mirrored(nu.atom_locs) == half
    for t in _REAL_T:
        got = measures.fourier(nu, t)
        assert _bits(np.ravel(got)) == _bits(_np_exp_transform(nu, np.ravel(t)))
    t = measures._KMS_T_GRID
    want = measures._worst_gap(_np_exp_shifted(nu, 0.8, t), np.conj(_np_exp_transform(nu, t)))
    assert measures.kms_check(nu, 0.8).hex() == want.hex()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta_lam", [-700.0, 708.0, 708.5, 720.0, 744.0, 745.5, 800.0])
def test_kms_check_across_the_subnormal_range_of_the_shifted_row(beta_lam):
    """e^{-beta lam} near the ends of the float range, subnormal past 708.4
    and 0 past 745.2: the shifted row warns nothing, is bit for bit the
    np.exp sum over _mirror_weight's row, and agrees with fourier at
    i beta + t to a few ulps of its absolute mass."""
    beta, t = 1.25, measures._KMS_T_GRID
    nu = measures.atomic([(beta_lam / beta, 1.0), (0.7, 0.5)])
    shifted = _np_exp_shifted(nu, beta, t)
    want = measures._worst_gap(shifted, np.conj(_np_exp_transform(nu, t)))
    assert measures.kms_check(nu, beta).hex() == want.hex()
    mass = sum(comp_sum(np.abs(w)) for _, w in _reweighted_parts(nu, beta))
    direct = measures.fourier(nu, 1j * beta + t)
    assert np.max(np.abs(shifted - direct)) <= 4.0 * sys.float_info.epsilon * mass


@pytest.mark.parametrize("t", _REAL_T, ids=["scalar", "negative", "zero", "array", "2d"])
@pytest.mark.parametrize("name", ["grid-odd", "atoms-even", "atom-at-0-odd"])
def test_modular_coefficient_on_a_symmetric_grid_is_the_np_exp_sum_bit_for_bit(name, t):
    from rphardy import modular
    beta = 1.1 if name == "grid-odd" else 0.8
    md = modular.build_modular(_SYMMETRIC[name], beta)
    assert measures._mirrored(md.space.nodes) == md.space.dim // 2
    v = md.space.random_standard_vector(np.random.default_rng(32))
    weights = np.abs(v) ** 2 * md.space.weights
    want = [comp_sum(np.exp(1j * tk * md.space.nodes) * weights)
            for tk in np.ravel(t).tolist()]
    got = modular.modular_coefficient(md, v, t)
    assert np.shape(got) == np.shape(t)
    assert _bits(np.ravel(got)) == _bits(want)


def _first_divergent(nu, zs):
    """The z the divergence monitor named when it read |summand| row by row:
    the first z, in order, whose heavier 5% grid tail carries more than
    1e-12 of the absolute mass."""
    nodes, weights = nu.grid_nodes(), nu.grid_quad_weights()
    k = max(1, math.ceil(0.05 * nodes.size))
    for z in zs:
        mags = np.abs(np.exp(1j * z * nodes) * weights)
        s = np.sum(mags)
        if s > 0.0 and max(np.sum(mags[:k]), np.sum(mags[-k:])) > 1e-12 * s:
            return complex(z)
    return None


@pytest.mark.filterwarnings("error")
def test_the_monitor_names_the_first_divergent_z_across_row_blocks():
    """1001 nodes take 8 rows a block, so the 60 z span 8 blocks; those with
    Im z = 25 or -25 see e^{25 |lam|} beat the density e^{-lam^2} at the
    tails of [-10, 10], and the monitor names the first of them in order."""
    lam = 0.02 * np.arange(-500, 501)
    nu = measures.gridded(-10.0, 0.02, np.exp(-lam ** 2))
    rng = np.random.default_rng(32)
    zs = rng.uniform(-3.0, 3.0, 60) + 1j * rng.uniform(-2.0, 2.0, 60)
    for bad in ([43, 51], [20, 9], [59]):
        z = zs.copy()
        z[bad] += np.array([25j, -25j])[:len(bad)]
        want = _first_divergent(nu, z)
        assert want == z[min(bad)]
        with pytest.raises(DivergentTransform, match=r"at z = %s;" % re.escape(str(want))):
            measures.fourier(nu, z)
        with pytest.raises(DivergentTransform, match=r"at z = %s;" % re.escape(str(want))):
            measures.fourier(nu, z.reshape(6, 10))
    assert measures.fourier(nu, zs).shape == (60,)


@pytest.mark.filterwarnings("error")
def test_kms_check_names_the_first_divergent_z_of_the_shifted_row():
    # not reflected: e^{-beta lam} grows into the flat left tail, so the
    # transform at i beta + t first fails at the first t of the grid
    nu = measures.gridded(-20.0, 0.01, np.exp(-0.01 * np.abs(np.arange(-2000, 2001))))
    t = measures._KMS_T_GRID
    assert _first_divergent(nu, 1j * 2.0 + t) == complex(-4.0, 2.0)
    with pytest.raises(DivergentTransform, match=re.escape("at z = (-4+2j);")):
        measures.kms_check(nu, 2.0)


@pytest.mark.filterwarnings("error")
def test_kms_check_names_t_when_only_the_plain_transform_diverges():
    # flat on the right, where e^{-beta lam} makes the shifted transform
    # decay: only nu_hat(t) diverges, first at the first t of the grid
    lam = 0.01 * np.arange(-2000, 2001)
    nu = measures.gridded(-20.0, 0.01, np.where(lam < 0.0, np.exp(-lam ** 2), 1.0))
    t = measures._KMS_T_GRID
    assert _first_divergent(nu, 2j + t) is None
    assert _first_divergent(nu, t) == complex(-4.0, 0.0)
    with pytest.raises(DivergentTransform, match=re.escape("at z = (-4+0j);")):
        measures.kms_check(nu, 2.0)


def test_rp_circle_from_measure_consistency():
    mu = measures.atomic([(0.4, 0.7), (1.2, 0.3)])
    beta = 2.0
    phi_T, phi_R = measures.rp_circle_from_measure(mu, beta)
    from rphardy.rpfunc import phi_circle
    for y in (0.0, 0.3, 1.1):
        want = 0.7 * phi_circle(beta, 0.4, y) + 0.3 * phi_circle(beta, 1.2, y)
        assert phi_T(y) == pytest.approx(want, abs=1e-15)
    # phi_R is a positive-definite function: even, maximal at 0
    assert phi_R(0.0) == pytest.approx(1.0, abs=1e-15)
    assert phi_R(0.3) == pytest.approx(phi_R(-0.3), abs=1e-15)
    assert abs(phi_R(0.9)) <= phi_R(0.0)


def test_theta_check_rejects_non_finite_points():
    nu = measures.Gamma_map(measures.atomic([(0.7, 1.0)]), 1.0)
    with pytest.raises(ParameterOutOfRange):
        measures.theta_involution_check(nu, 1.0, [(complex(math.nan, 0.2), 0.3j)])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    lambda nu, z, w: measures.theta_involution_check(nu, 1.0, [(0.3 + 0.5j, 0.2j), (z, w)]),
    lambda nu, z, w: measures.kernel_from_measure(nu, z, w)],
    ids=["theta_involution_check", "kernel_from_measure"])
def test_a_pair_whose_difference_overflows_is_named_without_a_warning(call):
    # z - conj(w) = 2e308 overflowed with a RuntimeWarning, and fourier's
    # guard then named an inf the caller never passed
    nu = measures.Gamma_map(measures.atomic([(0.7, 1.0)]), 1.0)
    with pytest.raises(ParameterOutOfRange, match=r"overflows at the pair \(\(1e\+308\+0\.5j\), "
                                                   r"\(-1e\+308\+0\.5j\)\)"):
        call(nu, 1e308 + 0.5j, -1e308 + 0.5j)


@pytest.mark.parametrize("pairs", [
    [0.3 + 0.4j, 0.1 + 0.6j],                       # flat: not the pair (z, w)
    [(0.3 + 0.4j, 0.1 + 0.6j), (0.2j,)],            # ragged
    [0.3 + 0.4j, 0.1 + 0.6j, 0.2j],                 # odd length
], ids=["flat", "ragged", "odd"])
def test_theta_involution_check_needs_a_sequence_of_pairs(pairs):
    nu = measures.Gamma_map(measures.atomic([(0.7, 1.0)]), 1.0)
    with pytest.raises(ParameterOutOfRange):
        measures.theta_involution_check(nu, 1.0, pairs)


def test_kms_and_theta_checks_read_nan_when_a_transform_is_nan(monkeypatch):
    # the one exponential sum under fourier and kms_check, whose weight rows
    # (e^{-beta lam} w, w) give the pair of transforms at i beta + t and at t:
    # a NaN at the last z of the first row
    def exp_sum_with_one_nan(parts, z):
        out = np.zeros(np.shape(parts[0][1])[:-1] + np.shape(z), dtype=complex)
        out.flat[np.size(z) - 1] = complex(math.nan, 0.0)
        return out

    nu = measures.Gamma_map(measures.atomic([(0.7, 1.0)]), 1.0)
    monkeypatch.setattr(measures, "_exp_sum", exp_sum_with_one_nan)
    assert math.isnan(measures.kms_check(nu, 1.0))
    assert math.isnan(measures.theta_involution_check(
        nu, 1.0, [(0.3 + 0.4j, 0.1 + 0.6j), (-0.5 + 0.7j, 0.2 + 0.2j)]))


def test_theta_involution_check_small():
    # needs the 2 beta reflection law: w(-lam) = e^{-2 beta lam} w(lam)
    beta = 1.0
    nu = measures.atomic([
        (0.4, 0.7), (-0.4, 0.7 * math.exp(-2.0 * beta * 0.4)),
        (1.2, 0.3), (-1.2, 0.3 * math.exp(-2.0 * beta * 1.2))])
    pairs = [(0.3 + 0.4j, 0.1 + 0.6j), (-0.5 + 0.7j, 0.2 + 0.2j)]
    assert measures.theta_involution_check(nu, beta, pairs) < 1e-14


# --------------------------------------------------------------------------
# spectral densities and kernel recovery
# --------------------------------------------------------------------------

def test_szego_strip_measure_recovers_kernel():
    beta = 2.0
    nu = measures.szego_strip_measure(beta)
    z, w = 0.3 + 1.1j, -0.4 + 0.9j
    got = measures.kernel_from_measure(nu, z, w)
    want = kernels.szego(Strip(beta), z, w)
    assert abs(got - want) < 1e-8 * abs(want)


def test_bergman_strip_measure_recovers_kernel():
    beta = 2.0
    nu = measures.bergman_strip_measure(beta)
    z, w = 0.3 + 1.1j, -0.4 + 0.9j
    got = measures.kernel_from_measure(nu, z, w)
    want = kernels.bergman_strip(beta, z, w)
    assert abs(got - want) < 1e-8 * abs(want)


def test_bergman_density_value_at_zero_is_the_limit():
    beta = 2.0
    nu = measures.bergman_strip_measure(beta, halfwidth=1.0)
    nodes = nu.grid_nodes()
    j = int(np.argmin(np.abs(nodes)))
    assert nodes[j] == pytest.approx(0.0)
    assert nu.density[j] == pytest.approx(1.0 / (8.0 * math.pi ** 2 * beta),
                                          rel=1e-14)


@pytest.mark.parametrize("build", [measures.szego_strip_measure,
                                   measures.bergman_strip_measure],
                         ids=["szego", "bergman"])
@pytest.mark.parametrize("grid,name", [
    ({"halfwidth": math.nan}, "halfwidth"), ({"halfwidth": -1.0}, "halfwidth"),
    ({"halfwidth": math.inf}, "halfwidth")], ids=str)
def test_strip_measures_reject_a_bad_grid_by_name(build, grid, name):
    with pytest.raises(ParameterOutOfRange, match=name):
        build(1.0, **grid)


# --------------------------------------------------------------------------
# Riesz family
# --------------------------------------------------------------------------

def test_riesz_hat_frozen_value():
    got = measures.riesz_hat(0.5, 0.3 + 1.1j)
    want = 0.92822730660675873 + 0.1243064221051814j
    assert abs(got - want) < 5e-16
    with pytest.raises(ParameterOutOfRange):
        measures.riesz_hat(0.5, 0.3 - 0.1j)


@pytest.mark.parametrize("s", [0.5, 1.0, 1.7])
def test_riesz_hat_quad_matches_closed_form(s):
    for z in (0.3 + 1.1j, -1.0 + 0.8j):
        got = measures.riesz_hat_quad(s, z)
        assert abs(got - measures.riesz_hat(s, z)) < 1e-9


@pytest.mark.parametrize("s", [3.0, 10.0, 17.0, 18.0])
def test_riesz_hat_quad_returns_a_value_only_where_its_tail_bound_holds(s):
    """At z = i the tail dropped past p = 61 is provably below 2.5e-11 up to
    s = 17, and the value is within 1e-10 of (i/z)^s; from s = 18 it is not,
    and the call raises."""
    if s > 17.0:
        with pytest.raises(ToleranceNotReached, match="may exceed 2.5e-11"):
            measures.riesz_hat_quad(s, 1j)
    else:
        assert abs(measures.riesz_hat_quad(s, 1j) - 1.0) < 1e-10


def _gamma_ulps(mpmath, s):
    """|math.gamma(s) - GAMMA(s)| in ulps of GAMMA(s), against 40 digits."""
    truth = mpmath.gamma(mpmath.mpf(s))
    return float(abs(mpmath.mpf(math.gamma(s)) - truth) / math.ulp(float(truth)))


def test_math_gamma_against_a_40_digit_oracle():
    """The Riesz transforms take GAMMA(s) from math.gamma: at most 3 ulp at
    the s of check_riesz and 8 ulp on a grid over (0.05, 20), as their
    docstring states."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        assert max(_gamma_ulps(mpmath, s) for s in (0.5, 1.0, 1.3, 1.7)) <= 3.0
        grid = np.linspace(0.05, 20.0, 801)[1:-1].tolist()
        assert max(_gamma_ulps(mpmath, s) for s in grid) <= 8.0


@pytest.mark.parametrize("s,t", [(0.5, 0.7), (1.3, 2.0)])
def test_riesz_kappa_check(s, t):
    assert measures.riesz_kappa_check(s, 1.0, t) < 1e-12


# --------------------------------------------------------------------------
# geometric splitting
# --------------------------------------------------------------------------

def _sym_atoms():
    return measures.atomic([(0.7, 1.0), (-0.7, 1.0), (1.9, 0.4), (-1.9, 0.4)])


def test_splitting_rejects_asymmetric_input():
    with pytest.raises(AsymmetricInput):
        measures.geometric_splitting(measures.atomic([(0.7, 1.0)]), 1.0,
                                     "alternating")
    # a grid that is not symmetric about 0
    with pytest.raises(AsymmetricInput):
        measures.geometric_splitting(measures.gridded(-1.0, 0.5, [1.0] * 6), 1.0, "plain")


def test_splitting_plain_rejects_atom_at_zero():
    mu = _sym_atoms().plus(measures.atomic([(0.0, 0.5)]))
    with pytest.raises(AtomAtZero):
        measures.geometric_splitting(mu, 1.0, "plain")


def test_splitting_rejects_grid_node_at_zero():
    grid = measures.gridded(-1.0, 0.5, [1.0, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ZeroDenominator):
        measures.geometric_splitting(grid, 1.0, "alternating")


def test_splitting_mode_validation():
    with pytest.raises(ParameterOutOfRange):
        measures.geometric_splitting(_sym_atoms(), 1.0, "geometric")


@pytest.mark.parametrize("mode", ["alternating", "plain"])
def test_splitting_reflection_law_and_one_sided_identity(mode):
    beta = 1.0
    nu, nu_plus, nu_minus = measures.geometric_splitting(_sym_atoms(), beta, mode)
    assert measures.reflection_check(nu, beta, factor=2.0) < 1e-14
    for zeta in (0.2 + 0.4j, -1.0 + 1.1j):
        lhs = measures.fourier(nu, zeta, monitor=False)
        rhs = measures.fourier(nu_plus, zeta, monitor=False) \
            + measures.fourier(nu_plus, 2j * beta - zeta, monitor=False)
        assert abs(lhs - rhs) < 1e-13
    # the two halves exactly partition nu's mass
    assert nu_plus.total_mass() + nu_minus.total_mass() == pytest.approx(
        nu.total_mass(), abs=1e-14)


def test_splitting_alternating_halves_an_atom_at_zero():
    mu = _sym_atoms().plus(measures.atomic([(0.0, 0.8)]))
    nu, nu_plus, nu_minus = measures.geometric_splitting(mu, 1.0, "alternating")
    w_plus = nu_plus.atom_weights[list(nu_plus.atom_locs).index(0.0)]
    w_minus = nu_minus.atom_weights[list(nu_minus.atom_locs).index(0.0)]
    assert w_plus == pytest.approx(0.2)   # nu keeps 0.8/2, each half gets 0.2
    assert w_minus == pytest.approx(0.2)


def test_splitting_grid_halves_carry_trapezoid_weights():
    half = 0.25 * (0.5 + np.arange(8))
    nodes = np.concatenate([-half[::-1], half])
    grid = measures.gridded(float(nodes[0]), 0.25, np.exp(-nodes ** 2))
    nu, nu_plus, nu_minus = measures.geometric_splitting(grid, 1.0, "plain")
    assert nu_plus.density is None          # halves are atomic
    assert nu_plus.total_mass() + nu_minus.total_mass() == pytest.approx(
        nu.total_mass(), abs=1e-15)
