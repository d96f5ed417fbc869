"""Measures on R: transforms gamma/Gamma/kappa, reflection, KMS, splittings."""

import math
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
        with pytest.raises(DivergentTransform):
            measures.kms_check(nu, 2.0)
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
    def fourier_with_one_nan(nu, z, monitor=True):
        out = np.zeros(np.shape(z), dtype=complex)
        out[-1] = complex(math.nan, 0.0)
        return out

    nu = measures.Gamma_map(measures.atomic([(0.7, 1.0)]), 1.0)
    monkeypatch.setattr(measures, "fourier", fourier_with_one_nan)
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
