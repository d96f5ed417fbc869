"""Pairing lam with -lam: reflection_check, the symmetry test of the
geometric splitting and the modular mirror, each against a brute-force
O(n^2) reference that scans every node for every node."""

import math

import numpy as np
import pytest

from rphardy import measures, modular
from rphardy.errors import AsymmetricInput, ParameterOutOfRange

ATOM_TOL = 1e-12        # measures: absolute merge tolerance


def _ref_mirror_weight(locs, weights, loc):
    """Weight of the first atom within ATOM_TOL of -loc, or None."""
    for l, w in zip(locs, weights):
        if abs(l + loc) <= ATOM_TOL:
            return w
    return None


def _ref_reflection(nu, beta, factor=1.0):
    """Atom half of the reflection defect, one full scan per atom."""
    c = factor * beta
    locs, weights = list(nu.atom_locs), list(nu.atom_weights)
    worst = 0.0
    for loc, w in zip(locs, weights):
        mirror = _ref_mirror_weight(locs, weights, loc)
        if loc < -ATOM_TOL:
            if mirror is None:
                return math.inf
            continue
        target = w * math.exp(-c * loc)
        mirror = 0.0 if mirror is None else mirror
        if target == 0.0 and mirror == 0.0:
            continue
        if target == 0.0 or mirror == 0.0:
            return math.inf
        worst = max(worst, abs(mirror - target) / abs(target))
    return worst


def _ref_space_mirror(nodes):
    """Index of the unique node within 1e-9 max(1, |lam|) of -lam, or None
    when some node has no such partner or more than one."""
    mirror = []
    for lam in nodes:
        hits = [j for j, x in enumerate(nodes)
                if abs(x + lam) <= 1e-9 * max(1.0, abs(lam))]
        if len(hits) != 1:
            return None
        mirror.append(hits[0])
    return np.array(mirror)


def _gamma_image(seed=5, n=150, beta=1.3):
    """Gamma image of n atoms: 2 n atoms paired by lam -> -lam."""
    rng = np.random.default_rng(seed)
    mu = measures.atomic(zip(rng.uniform(0.01, 8.0, n), rng.uniform(0.1, 1.0, n)))
    return measures.Gamma_map(mu, beta), beta


def _with_atoms(nu, locs, weights):
    return measures.MeasureOnR(np.asarray(locs), np.asarray(weights))


def _variants():
    nu, beta = _gamma_image()
    locs, weights = nu.atom_locs, nu.atom_weights
    n = locs.size
    neg = int(np.nonzero(locs < 0.0)[0][17])
    pos = n - 1 - neg                       # the mirror of ``neg``
    perturbed = weights.copy()
    perturbed[neg] *= 1.0 + 1e-6
    keep = np.arange(n) != neg
    drop_pos = np.arange(n) != pos
    return {
        "exact": (nu, beta),
        "perturbed": (_with_atoms(nu, locs, perturbed), beta),
        "mirror-removed": (_with_atoms(nu, locs[keep], weights[keep]), beta),
        "unpaired-negative": (_with_atoms(nu, locs[drop_pos], weights[drop_pos]), beta),
    }


@pytest.mark.parametrize("name", ["exact", "perturbed", "mirror-removed",
                                  "unpaired-negative"])
def test_reflection_check_matches_brute_force(name):
    nu, beta = _variants()[name]
    got = measures.reflection_check(nu, beta)
    assert got == _ref_reflection(nu, beta)
    expected = {"exact": (0.0, 1e-15), "perturbed": (1e-6, 1e-6 + 1e-12)}
    if name in expected:
        lo, hi = expected[name]
        assert lo - 1e-15 <= got <= hi
    else:
        assert got == math.inf


def test_reflection_check_skips_an_unpaired_atom_whose_target_underflows():
    nu = measures.atomic([(800.0, 1.0), (0.5, 1.0), (-0.5, math.exp(-0.5))])
    assert measures.reflection_check(nu, 1.0) == _ref_reflection(nu, 1.0)
    assert measures.reflection_check(nu, 1.0) <= 1e-15


@pytest.mark.parametrize("name", ["exact", "perturbed", "mirror-removed",
                                  "unpaired-negative"])
def test_space_mirror_matches_brute_force(name):
    nu, _ = _variants()[name]
    ref = _ref_space_mirror(list(nu.atom_locs))
    if ref is None:
        with pytest.raises(ParameterOutOfRange):
            modular.DiscretizedSpace.from_measure(nu)
    else:
        space = modular.DiscretizedSpace.from_measure(nu)
        assert np.array_equal(space.mirror, ref)


def test_space_mirror_of_a_grid_with_atoms_matches_brute_force():
    nu, beta = _gamma_image(n=40)
    grid = measures.Gamma_map(measures.gridded(0.0, 0.25, np.linspace(1.0, 0.5, 9)), beta)
    both = measures.MeasureOnR(nu.atom_locs, nu.atom_weights,
                               grid.grid_x0, grid.grid_h, grid.density)
    space = modular.DiscretizedSpace.from_measure(both)
    assert np.array_equal(space.mirror, _ref_space_mirror(list(space.nodes)))


def test_space_rejects_an_atom_on_a_grid_node():
    nu = measures.MeasureOnR(np.array([-1.0, 1.0]), np.array([1.0, 1.0]),
                             -2.0, 0.5, np.ones(9))
    with pytest.raises(ParameterOutOfRange):
        modular.DiscretizedSpace.from_measure(nu)


def test_space_pairs_nodes_by_relative_tolerance():
    # |1e4 + (-(1e4 + 1e-8))| is far above the 1e-12 atom tolerance but
    # within 1e-9 |lam|: the modular space pairs them, the reflection law not
    nu = measures.atomic([(1e4, 1.0), (-(1e4 + 1e-8), 1.0)])
    space = modular.DiscretizedSpace.from_measure(nu)
    assert list(space.mirror) == [1, 0]
    assert measures.reflection_check(nu, 1.0) == math.inf


@pytest.mark.parametrize("rel, rejected", [(1e-12, False), (1e-6, True)])
def test_splitting_symmetry_test_on_a_perturbed_mirror(rel, rejected):
    locs = np.array([-2.5, -0.8, 0.0, 0.8, 2.5])
    weights = np.array([0.3, 1.0, 0.5, 1.0, 0.3])
    weights[1] *= 1.0 + rel
    mu = measures.MeasureOnR(locs, weights)
    if rejected:
        with pytest.raises(AsymmetricInput):
            measures.geometric_splitting(mu, 1.0, "alternating")
    else:
        measures.geometric_splitting(mu, 1.0, "alternating")
