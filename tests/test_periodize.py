"""Partial-fraction series: values, tail bounds, soundness."""

import cmath
import math
import warnings

import numpy as np
import pytest

from rphardy import kernels, numerics, periodize
from rphardy.domains import Strip
from rphardy.errors import ParameterOutOfRange, PoleOnLattice


def test_cosecant_series_frozen_value():
    ev = periodize.cosecant_series(0.3, 2000)
    # frozen 40-digit value of pi / sin(0.3 pi)
    assert abs(complex(ev.closed_form) - 3.8832220774509332) < 1e-15
    assert ev.defect < ev.tail_bound
    assert ev.sound


def test_a_series_below_its_threshold_is_not_sound():
    # N = 10 < 2|z|: no tail bound is proven (inf), and pi / sin(pi z) has
    # no digits left at this z, so the defect is of order 1
    ev = periodize.cosecant_series(1e154 + 0.5j, 10)
    assert ev.tail_bound == math.inf
    assert ev.defect > 1.0
    assert not ev.sound


def test_cosecant_series_complex_argument():
    ev = periodize.cosecant_series(0.4 + 0.7j, 5000)
    want = math.pi / cmath.sin(math.pi * (0.4 + 0.7j))
    assert abs(complex(ev.closed_form) - want) < 1e-15
    assert abs(complex(ev.value) - want) < 1e-3
    assert ev.sound


def test_cosecant_pole_on_lattice():
    with pytest.raises(PoleOnLattice):
        periodize.cosecant_series(2.0, 100)
    with pytest.raises(PoleOnLattice):
        periodize.cosecant_series(0.0, 100)


def test_series_terms_validation():
    with pytest.raises(ParameterOutOfRange):
        periodize.cosecant_series(0.3, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_series_reject_non_finite_input(bad):
    z, w, beta = 0.3 + 0.2j, -0.1 + 0.5j, 1.0
    calls = [
        lambda: periodize.cosecant_series(complex(bad, 0.2), 100),
        lambda: periodize.sinh_series(bad, z, 100),
        lambda: periodize.sinh_series(beta, complex(0.3, bad), 100),
    ]
    for series in (periodize.szego_series, periodize.bergman_series,
                   periodize.szego_series_split):
        calls += [lambda f=series: f(bad, z, w, 100),
                  lambda f=series: f(beta, complex(bad, 0.2), w, 100),
                  lambda f=series: f(beta, z, complex(-0.1, bad), 100)]
    for call in calls:
        with pytest.raises(ParameterOutOfRange):
            call()


def test_cosecant_tail_bound_is_inf_outside_its_regime():
    # N < 2|z| is outside the bound's regime; the bound must not pretend
    ev = periodize.cosecant_series(30.5, 20)
    assert ev.tail_bound == math.inf


def test_sinh_series_matches_closed_form():
    beta = 1.5
    for zeta in (0.4 + 0.8j, -1.0 + 1.1j):
        ev = periodize.sinh_series(beta, zeta, 4000)
        assert abs(complex(ev.value) - complex(ev.closed_form)) < 1e-4
        assert ev.defect <= ev.tail_bound
        assert ev.sound


def test_sinh_series_closed_form_is_reciprocal_sinh():
    beta, zeta = 1.5, 0.4 + 0.8j
    ev = periodize.sinh_series(beta, zeta, 100)
    want = 1.0 / cmath.sinh(math.pi * zeta / (2.0 * beta)) * math.pi / (2.0 * beta)
    # the periodization closed form equals (pi/2beta)/sinh(pi zeta/2beta)
    assert abs(complex(ev.closed_form) - want) < 1e-14


def test_szego_series_matches_kernel():
    beta = 1.5
    z, w = 0.4 + 0.8j, 0.1 + 0.7j
    ev = periodize.szego_series(beta, z, w, 20000)
    from rphardy.domains import Strip
    want = kernels.szego(Strip(beta), z, w)
    assert abs(complex(ev.closed_form) - want) < 1e-15
    assert abs(complex(ev.value) - want) < 1e-5
    assert ev.defect <= ev.tail_bound
    assert ev.sound


def test_bergman_series_matches_kernel():
    beta = 1.5
    z, w = 0.4 + 0.8j, 0.1 + 0.7j
    ev = periodize.bergman_series(beta, z, w, 20000)
    want = kernels.bergman_strip(beta, z, w)
    assert abs(complex(ev.closed_form) - want) < 1e-16
    assert abs(complex(ev.value) - want) < 1e-6
    assert ev.defect <= ev.tail_bound
    assert ev.sound


def test_szego_series_pole_on_lattice():
    beta = 1.0
    # z - conj(w) = 0 at a shared boundary point
    with pytest.raises(PoleOnLattice):
        periodize.szego_series(beta, 0.3 + 0.0j, 0.3 + 0.0j, 100)


@pytest.mark.parametrize("N", [100, 1000, 10000])
def test_soundness_randomized(N):
    rng = np.random.default_rng(31)
    beta = float(rng.uniform(1.5, 3.0))
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 0.9) * beta)
        w = complex(rng.uniform(-2, 2), rng.uniform(0.1, 0.9) * beta)
        for ev in (periodize.sinh_series(beta, z - w.conjugate(), N),
                   periodize.szego_series(beta, z, w, N),
                   periodize.bergman_series(beta, z, w, N)):
            assert ev.defect <= ev.tail_bound, ev


def test_split_series_identity():
    beta = 1.5
    z, w = 0.4 + 0.8j, 0.1 + 0.7j
    plus, minus, total = periodize.szego_series_split(beta, z, w, 3000)
    q = kernels.szego(Strip(beta), z, w)
    assert abs(plus + minus - complex(total.value)) < 1e-16
    assert abs(complex(total.value) - q) < 1e-3
    assert total.defect <= total.tail_bound


def test_split_series_tail_bound_regime():
    beta = 1.5
    z, w = 0.4 + 0.8j, 0.1 + 0.7j
    _, _, total = periodize.szego_series_split(beta, z, w, 1)
    assert total.tail_bound == math.inf


def test_alternating_signs_equal_the_float_modulo_expression():
    k = np.arange(1.0, 10_001.0)
    ref = np.where(k % 2 == 0, 1.0, -1.0)
    for n in range(1, k.size + 1):
        assert np.array_equal(periodize._alternating(n), ref[:n])
    n = np.arange(0.0, 10_000.0)
    assert np.array_equal(periodize._alternating(n.size, 1),
                          np.where(np.mod(n, 2) == 0, 1.0, -1.0))
    assert np.array_equal(periodize._alternating(n.size, -1),
                          np.where(np.mod(-n - 1.0, 2) == 0, 1.0, -1.0))


def _bits(ev: periodize.SeriesEval) -> tuple:
    value, closed = complex(ev.value), complex(ev.closed_form)
    return (value.real.hex(), value.imag.hex(), closed.real.hex(), closed.imag.hex(),
            float(ev.defect).hex(), ev.n_terms, float(ev.tail_bound).hex())


@pytest.mark.parametrize("Ns", [(10_000, 100, 1000), (1, 2, 511, 512, 513, 3, 1),
                                (600,), (100, 300)])
def test_each_truncation_of_one_term_array_equals_the_single_truncation_call(Ns):
    rng = np.random.default_rng(41)
    for _ in range(8):
        beta = float(rng.uniform(1.5, 3.0))
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 0.9) * beta)
        w = complex(rng.uniform(-2, 2), rng.uniform(0.1, 0.9) * beta)
        zeta = z - w.conjugate()
        c = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
        sinh, szego = periodize.sinh_szego_series_at(beta, z, w, Ns)
        pairs = [(periodize.cosecant_series_at(c, Ns),
                  [periodize.cosecant_series(c, N) for N in Ns]),
                 (sinh, [periodize.sinh_series(beta, zeta, N) for N in Ns]),
                 (szego, [periodize.szego_series(beta, z, w, N) for N in Ns]),
                 (periodize.bergman_series_at(beta, z, w, Ns),
                  [periodize.bergman_series(beta, z, w, N) for N in Ns])]
        for many, single in pairs:
            assert [_bits(ev) for ev in many] == [_bits(ev) for ev in single]


# a truncation numpy would refuse at once (or sum wrongly), or one past the
# cap of every count that sizes an array, as a Python or numpy integer (2**40
# terms would be 8 TiB): never one it would try to allocate
BAD_TERMS = [0, -3, 2.5, math.nan, math.inf, 10 ** 20, numerics._MAX_SIZE + 1,
             np.int64(numerics._MAX_SIZE + 1), 2 ** 40, "5", None]


@pytest.mark.parametrize("N", BAD_TERMS)
def test_series_reject_a_truncation_that_is_not_a_positive_integer(N):
    z, w, beta = 0.3 + 0.2j, -0.1 + 0.5j, 2.0
    calls = [lambda: periodize.cosecant_series(z, N),
             lambda: periodize.sinh_series(beta, z, N),
             lambda: periodize.szego_series(beta, z, w, N),
             lambda: periodize.bergman_series(beta, z, w, N),
             lambda: periodize.szego_series_split(beta, z, w, N),
             lambda: periodize.cosecant_series_at(z, (100, N)),
             lambda: periodize.sinh_szego_series_at(beta, z, w, (N, 100)),
             lambda: periodize.sinh_szego_series_at(beta, z, w, [N]),
             lambda: periodize.bergman_series_at(beta, z, w, (100, N, 10))]
    for call in calls:
        with pytest.raises(ParameterOutOfRange):
            call()


def test_a_fractional_truncation_no_longer_sums_its_ceiling():
    # 2.5 used to sum 3 terms and report n_terms=2.5 with the bound for 2.5
    with pytest.raises(ParameterOutOfRange):
        periodize.sinh_series(2.0, 0.3 + 0.2j, 2.5)
    assert periodize.sinh_series(2.0, 0.3 + 0.2j, np.int64(3)).n_terms == 3


@pytest.mark.parametrize("Ns", [(), 100, None])
def test_series_siblings_need_a_sequence_of_truncations(Ns):
    with pytest.raises(ParameterOutOfRange):
        periodize.sinh_szego_series_at(2.0, 0.3 + 0.2j, -0.1 + 0.5j, Ns)


def test_a_truncation_at_the_cap_is_taken():
    ev = periodize.cosecant_series(0.3 + 0.5j, numerics._MAX_SIZE)
    assert ev.n_terms == numerics._MAX_SIZE and ev.sound


def test_szego_series_is_i_over_2_pi_times_the_sinh_series_bit_for_bit():
    # the two series share their terms, and each keeps its own closed form
    rng = np.random.default_rng(42)
    two_pi = 2.0 * math.pi
    for _ in range(100):
        beta = float(rng.uniform(1.5, 3.0))
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 0.9) * beta)
        w = complex(rng.uniform(-2, 2), rng.uniform(0.1, 0.9) * beta)
        Ns = (1000, 100, 1)
        sinh, szego = periodize.sinh_szego_series_at(beta, z, w, Ns)
        for s, q in zip(sinh, szego):
            assert q.value == (1j / two_pi) * s.value
            assert q.closed_form == kernels.szego(Strip(beta), z, w)
            assert s.closed_form != q.closed_form


@pytest.mark.parametrize("call", [
    lambda: periodize.sinh_series(1e-320, 0.5 + 0.5j, 100),
    lambda: periodize.sinh_series(1.0, 1e300 + 0.5j, 100),
    lambda: periodize.bergman_series(1.0, 1e300 + 0.5j, 0.1 + 0.2j, 100),
    lambda: periodize.cosecant_series(1e200 + 1e200j, 100),
], ids=["sinh-tiny-beta", "sinh-far-z", "bergman-far-z", "cosecant-huge-z"])
def test_a_series_or_closed_form_that_overflows_raises_without_a_warning(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterOutOfRange, match="overflows"):
            call()


def test_the_sinh_series_names_its_own_lattice_pole():
    with pytest.raises(PoleOnLattice, match="z lies"):
        periodize.sinh_series(1.0, 2j, 100)


def test_sinh_szego_series_at_is_the_two_series_bit_for_bit():
    # one sum of the shared terms gives both series, each against its own
    # closed form and with its own tail bound, each entry the single-N call
    rng = np.random.default_rng(43)
    for _ in range(20):
        beta = float(rng.uniform(1.5, 3.0))
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 0.9) * beta)
        w = complex(rng.uniform(-2, 2), rng.uniform(0.1, 0.9) * beta)
        Ns = (3000, 100, 1000, 1)
        sinh, szego = periodize.sinh_szego_series_at(beta, z, w, Ns)
        assert [_bits(ev) for ev in sinh] == \
            [_bits(periodize.sinh_series(beta, z - w.conjugate(), N)) for N in Ns]
        assert [_bits(ev) for ev in szego] == \
            [_bits(periodize.szego_series(beta, z, w, N)) for N in Ns]


@pytest.mark.parametrize("z,w", [(0.3 + 0.5j, 0.3 - 0.5j), (0.3 + 0.5j, 0.3 + 1.5j)],
                         ids=["zeta-0", "zeta-2i-beta"])
def test_sinh_szego_series_at_raises_the_lattice_pole_of_both(z, w):
    for call in (lambda: periodize.sinh_series(1.0, z - w.conjugate(), 10),
                 lambda: periodize.szego_series(1.0, z, w, 10),
                 lambda: periodize.sinh_szego_series_at(1.0, z, w, (10,))):
        with pytest.raises(PoleOnLattice):
            call()


def test_sinh_szego_series_at_raises_where_the_sinh_closed_form_overflows():
    # past Re zeta ~ 452 beta the sinh closed form overflows, while the Szego
    # kernel takes its far branch and its series still returns
    z, w = 1000.0 + 0.5j, 0.5j
    assert periodize.szego_series(1.0, z, w, 10).closed_form == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterOutOfRange, match="overflows"):
            periodize.sinh_series(1.0, z - w.conjugate(), 10)
        with pytest.raises(ParameterOutOfRange, match="overflows"):
            periodize.sinh_szego_series_at(1.0, z, w, (10,))
        with pytest.raises(ParameterOutOfRange, match="overflows"):
            periodize.sinh_szego_series_at(1.0, 1e300 + 0.5j, 0.1 + 0.2j, (10,))
