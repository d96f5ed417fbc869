"""Modular pair (Delta, J): algebra, standard vectors, coefficient functions."""

import math
import warnings

import mpmath
import numpy as np
import pytest

from rphardy import measures, modular
from rphardy.errors import DivergentTransform, ParameterOutOfRange, ReflectionViolation


def _setup(beta=1.0):
    mu = measures.atomic([(0.6, 1.0), (1.7, 0.4), (2.9, 0.8), (0.0, 0.5)])
    nu = measures.Gamma_map(mu, beta)
    return modular.build_modular(nu, beta)


def test_space_from_measure_merges_and_mirrors():
    nu = measures.atomic([(0.7, 0.4), (-0.7, 0.6), (0.0, 1.0)])
    space = modular.DiscretizedSpace.from_measure(nu)
    assert list(space.nodes) == [-0.7, 0.0, 0.7]
    assert np.allclose(space.nodes[space.mirror], -space.nodes)
    # mirror is an involution
    assert np.array_equal(space.mirror[space.mirror], np.arange(3))


def test_space_rejects_asymmetric_node_set():
    nu = measures.atomic([(0.7, 0.4), (1.9, 0.6)])
    with pytest.raises(ParameterOutOfRange):
        modular.DiscretizedSpace.from_measure(nu)


def test_space_rejects_an_empty_measure():
    with pytest.raises(ParameterOutOfRange):
        modular.DiscretizedSpace.from_measure(measures.MeasureOnR())


def test_space_rejects_a_zero_weight():
    # the density vanishes at both ends of its grid, and so do their weights
    with pytest.raises(ParameterOutOfRange, match="strictly positive weights"):
        modular.DiscretizedSpace.from_measure(measures.gridded(-1.0, 0.5, [0, 1, 1, 1, 0]))


def test_inner_is_positive_definite():
    md = _setup()
    rng = np.random.default_rng(41)
    for _ in range(5):
        v = md.space.random_vector(rng)
        n2 = md.space.inner(v, v).real
        assert n2 > 0.0
        assert abs(md.space.norm(v) - math.sqrt(n2)) < 1e-15


def test_build_modular_requires_reflected_measure():
    raw = measures.atomic([(0.7, 1.0), (-0.7, 1.0)])
    with pytest.raises(ReflectionViolation):
        modular.build_modular(raw, 1.0)


@pytest.mark.parametrize("beta,lam", [(1.0, 480.0), (2.0, 240.0)])
def test_build_modular_refuses_a_support_past_beta_lam_470(beta, lam):
    nu = measures.Gamma_map(measures.atomic([(lam, 1.0)]), beta)
    with pytest.raises(ParameterOutOfRange, match="exceeds 470"):
        modular.build_modular(nu, beta)
    md = modular.build_modular(measures.Gamma_map(measures.atomic([(469.0 / beta, 1.0)]), beta),
                               beta)
    assert md.space.dim == 2


def test_delta_and_j_algebra():
    md = _setup()
    rng = np.random.default_rng(42)
    assert modular.j_involution_defect(md, rng) < 1e-14
    assert modular.jdj_defect(md, rng) < 1e-13
    assert modular.flow_unitarity_defect(md, rng) < 1e-13


def test_delta_inverse_undoes_delta():
    md = _setup()
    rng = np.random.default_rng(43)
    v = md.space.random_vector(rng)
    w = md.delta_inverse_apply(md.delta_apply(v))
    assert np.max(np.abs(w - v)) < 1e-14


def test_delta_power_at_minus_i_beta_is_delta():
    # Delta^{-it/beta} at t = i beta multiplies by e^{-beta lam}
    md = _setup()
    rng = np.random.default_rng(44)
    v = md.space.random_vector(rng)
    lhs = md.delta_power_apply(1j * md.beta, v)
    rhs = md.delta_apply(v)
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_standard_vectors_are_j_fixed():
    md = _setup()
    rng = np.random.default_rng(45)
    for _ in range(5):
        v = md.space.random_standard_vector(rng)
        assert modular.standard_membership(md.space, v) < 1e-15
        w = md.j_apply(md.delta_power_apply(0.5j * md.beta, v))
        # J Delta^{1/2} fixes the standard cone's real subspace members:
        # J Delta^{1/2} v = v for v(lam) = conj(v(-lam))
        assert np.max(np.abs(w - v)) < 1e-13


def test_a_standard_membership_defect_that_overflows_raises():
    space = modular.DiscretizedSpace.from_measure(measures.atomic([(-1.0, 1.0), (1.0, 1.0)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterOutOfRange, match="overflows"):
            modular.standard_membership(space, [1e308, -1e308])


def test_modular_coefficient_of_an_array_matches_scalar_calls_bit_for_bit():
    mu = measures.gridded(0.0, 0.05, np.exp(-(0.05 * np.arange(300)) ** 2))
    md = modular.build_modular(measures.Gamma_map(mu, 1.0), 1.0)
    v = md.space.random_standard_vector(np.random.default_rng(36))
    ts = np.linspace(-3.0, 3.0, 7)
    got = modular.modular_coefficient(md, v, ts[:, None] - ts[None, :] + 0.2j)
    assert got.shape == (7, 7)
    for j, tj in enumerate(ts):
        for k, tk in enumerate(ts):
            assert got[j, k] == modular.modular_coefficient(md, v, tj - tk + 0.2j)
    assert type(modular.modular_coefficient(md, v, 0.4)) is complex


def test_modular_coefficient_is_positive_definite_and_kms():
    md = _setup()
    rng = np.random.default_rng(46)
    v = md.space.random_standard_vector(rng)
    ts = np.linspace(-3.0, 3.0, 13)
    G = np.array([[modular.modular_coefficient(md, v, t1 - t2)
                   for t2 in ts] for t1 in ts])
    eig = np.linalg.eigvalsh(0.5 * (G + G.conj().T))
    assert eig.min() >= -1e-12 * max(1.0, eig.max())
    # KMS boundary relation psi(i beta + t) = conj(psi(t))
    for t in (-1.3, 0.0, 0.8):
        lhs = modular.modular_coefficient(md, v, 1j * md.beta + t)
        rhs = modular.modular_coefficient(md, v, t).conjugate()
        assert abs(lhs - rhs) < 1e-13


def test_psi_and_its_coefficient_measure_match_a_40_digit_sum():
    md = _setup()
    rng = np.random.default_rng(47)
    v = md.space.random_standard_vector(rng)
    cm = modular.coefficient_measure(md, v)
    mass = [mpmath.mpf(float(a)) ** 2 * mpmath.mpf(float(w))
            for a, w in zip(np.abs(v), md.space.weights)]
    with mpmath.workdps(40):
        for t in (0.0, 0.7, -2.1, 0.4 + 0.3j):
            want = complex(mpmath.fsum(m * mpmath.exp(1j * mpmath.mpc(t) * mpmath.mpf(lam))
                                       for m, lam in zip(mass, md.space.nodes)))
            assert abs(modular.modular_coefficient(md, v, t) - want) <= 1e-14
            assert abs(measures.fourier(cm, t) - want) <= 1e-14


def test_psi_that_overflows_raises_divergent_transform_without_a_warning():
    md = _setup()
    v = md.space.random_standard_vector(np.random.default_rng(49))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergentTransform):
            modular.modular_coefficient(md, v, 300j)


@pytest.mark.parametrize("v,message", [
    ([1.0, 2.0], "one number per node"), (None, "one number per node"),
    ("x", "one number per node"), ([1e200] * 4, "atom weights must be finite")],
    ids=["short", "None", "str", "overflowing"])
def test_coefficient_measure_refuses_a_malformed_v_without_a_warning(v, message):
    md = modular.build_modular(
        measures.Gamma_map(measures.atomic([(0.5, 1.0), (1.5, 1.0)]), 1.0), 1.0)
    assert md.space.dim == 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterOutOfRange, match=message):
            modular.coefficient_measure(md, v)


def _parent_space(pairs):
    """Nodes, weights and mirror of the weighted nodes ``pairs``, built
    without numpy: sorted by node, mirror the index of -node."""
    pairs = sorted(pairs)
    nodes = [x for x, _ in pairs]
    return nodes, [w for _, w in pairs], [nodes.index(-x) for x in nodes]


@pytest.mark.parametrize("kind", ["atoms", "grid", "mixed"])
def test_space_from_measure_has_the_nodes_weights_and_mirror_of_its_parts(kind):
    atoms = [(-0.55, 0.3), (0.55, 0.2), (-1.25, 0.7), (1.25, 0.1)]
    density = [0.5, 1.0, 2.0, 1.5, 0.25]
    grid = [(-1.0 + 0.5 * j, 0.5 * d * (0.5 if j in (0, 4) else 1.0))
            for j, d in enumerate(density)]
    if kind == "atoms":
        nu, pairs = measures.atomic(atoms), atoms
    elif kind == "grid":
        nu, pairs = measures.gridded(-1.0, 0.5, density), grid
    else:
        nu = measures.MeasureOnR([x for x, _ in atoms], [w for _, w in atoms],
                                 -1.0, 0.5, density)
        pairs = atoms + grid
    space = modular.DiscretizedSpace.from_measure(nu)
    nodes, weights, mirror = _parent_space(pairs)
    assert space.nodes.tolist() == nodes
    assert space.weights.tolist() == weights
    assert space.mirror.tolist() == mirror


@pytest.mark.parametrize("beta,t", [(1.0, 0.0), (1.0, 0.7), (2.5, -1.3)])
def test_psi_hardy_midline_two_forms_agree(beta, t):
    chk = modular.psi_hardy_midline(beta, t)
    assert chk.defect < 1e-10


def test_commutation_compatible_translation_is_exact():
    L, n = 4.0, 256
    t = 3.0 * 2.0 * math.pi / L
    rep = modular.commutation_check(L, n, 0.7, t)
    assert rep.wrap_phase < 1e-12
    assert rep.global_defect < 1e-12


def test_commutation_generic_translation_interior_exact():
    rep = modular.commutation_check(4.0, 256, 0.7, 1.234)
    assert rep.interior_defect < 1e-13
    assert rep.n_wrapped > 0
    assert rep.global_defect <= rep.wrap_phase + 1e-13
