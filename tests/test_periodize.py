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


def _signs(n, first=-1.0):
    rows = np.ones((2, n))
    periodize._alternate(rows, first)
    assert np.array_equal(rows[0], rows[1])
    return rows[0]


def test_alternating_signs_equal_the_float_modulo_expression():
    k = np.arange(1.0, 10_001.0)
    ref = np.where(k % 2 == 0, 1.0, -1.0)
    for n in range(1, k.size + 1):
        assert np.array_equal(_signs(n), ref[:n])
    n = np.arange(0.0, 10_000.0)
    assert np.array_equal(_signs(n.size, 1), np.where(np.mod(n, 2) == 0, 1.0, -1.0))
    assert np.array_equal(_signs(n.size, -1), np.where(np.mod(-n - 1.0, 2) == 0, 1.0, -1.0))


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
        sinh, szego, bergman = periodize.strip_series_at(beta, z, w, Ns)
        pairs = [(periodize.cosecant_series_at(c, Ns),
                  [periodize.cosecant_series(c, N) for N in Ns]),
                 (sinh, [periodize.sinh_series(beta, zeta, N) for N in Ns]),
                 (szego, [periodize.szego_series(beta, z, w, N) for N in Ns]),
                 (bergman, [periodize.bergman_series(beta, z, w, N) for N in Ns]),
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
    # the single-truncation series take N as a SIZE, whose rows are generated
    # in tests/test_contract.py; no kind declares the Ns of the siblings
    calls = [lambda: periodize.cosecant_series_at(z, (100, N)),
             lambda: periodize.strip_series_at(beta, z, w, (N, 100)),
             lambda: periodize.strip_series_at(beta, z, w, [N]),
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
        periodize.strip_series_at(2.0, 0.3 + 0.2j, -0.1 + 0.5j, Ns)


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
        sinh, szego, _ = periodize.strip_series_at(beta, z, w, Ns)
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


def test_strip_series_at_is_the_three_series_bit_for_bit():
    # one sum of the four rows gives the three series, each against its own
    # closed form and with its own tail bound, each entry the single-N call
    rng = np.random.default_rng(43)
    for _ in range(20):
        beta = float(rng.uniform(1.5, 3.0))
        z = complex(rng.uniform(-2, 2), rng.uniform(0.1, 0.9) * beta)
        w = complex(rng.uniform(-2, 2), rng.uniform(0.1, 0.9) * beta)
        Ns = (3000, 100, 1000, 1)
        sinh, szego, bergman = periodize.strip_series_at(beta, z, w, Ns)
        assert [_bits(ev) for ev in sinh] == \
            [_bits(periodize.sinh_series(beta, z - w.conjugate(), N)) for N in Ns]
        assert [_bits(ev) for ev in szego] == \
            [_bits(periodize.szego_series(beta, z, w, N)) for N in Ns]
        assert [_bits(ev) for ev in bergman] == \
            [_bits(periodize.bergman_series(beta, z, w, N)) for N in Ns]


@pytest.mark.parametrize("z,w", [(0.3 + 0.5j, 0.3 - 0.5j), (0.3 + 0.5j, 0.3 + 1.5j)],
                         ids=["zeta-0", "zeta-2i-beta"])
def test_strip_series_at_raises_the_lattice_pole_of_all_three(z, w):
    for call in (lambda: periodize.sinh_series(1.0, z - w.conjugate(), 10),
                 lambda: periodize.szego_series(1.0, z, w, 10),
                 lambda: periodize.bergman_series(1.0, z, w, 10),
                 lambda: periodize.strip_series_at(1.0, z, w, (10,))):
        with pytest.raises(PoleOnLattice):
            call()


def test_strip_series_at_raises_where_the_sinh_closed_form_overflows():
    # past Re zeta ~ 452 beta the sinh closed form overflows, while the Szego
    # kernel takes its far branch and its series still returns
    z, w = 1000.0 + 0.5j, 0.5j
    assert periodize.szego_series(1.0, z, w, 10).closed_form == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterOutOfRange, match="overflows"):
            periodize.sinh_series(1.0, z - w.conjugate(), 10)
        with pytest.raises(ParameterOutOfRange, match="overflows"):
            periodize.strip_series_at(1.0, z, w, (10,))
        with pytest.raises(ParameterOutOfRange, match="overflows"):
            periodize.strip_series_at(1.0, 1e300 + 0.5j, 0.1 + 0.2j, (10,))


# The complex formulas the real term rows replaced, kept as their oracle.
# Near a pole of the lattice both round D = zeta^2 + y^2 from the same
# parts, so each side errs by a few ulps of the term's scale times the
# condition number (|zeta|^2 + y^2) / |D| of that sum.

_EPS = 2.0 ** -53
_FLOOR = 2.0 ** -1068   # a few subnormal ulps: both sides underflow alike


def _oracle_sinh(beta, zeta, k):
    return np.where(k % 2 == 0, 1.0, -1.0) * 2.0 * zeta \
        / (zeta * zeta + 4.0 * beta * beta * k * k)


def _oracle_bergman(beta, zeta, k):
    return 1.0 / (zeta + 2j * beta * k) ** 2 + 1.0 / (zeta - 2j * beta * k) ** 2


def _oracle_split(beta, zeta, n):
    return np.where(np.mod(n, 2) == 0, 1.0, -1.0) / (zeta + 2j * beta * n)


def _assert_terms_match(got, want, scale):
    both = np.isfinite(got) & np.isfinite(want)
    assert np.array_equal(both, np.isfinite(got)) and np.array_equal(both, np.isfinite(want))
    tol = 32.0 * _EPS * scale + _FLOOR
    for part in (np.real, np.imag):
        bad = np.abs(part(got) - part(want)) > tol
        assert not bad.any(), (got[bad][:3], want[bad][:3], scale[bad][:3])


def _log_uniform(rng):
    return 10.0 ** rng.uniform(-150.0, 150.0)


@pytest.mark.parametrize("seed", range(4))
def test_the_real_term_rows_match_the_complex_formulas(seed):
    rng = np.random.default_rng(900 + seed)
    K = 1000
    k = np.arange(1.0, K + 1.0)
    for _ in range(60):
        beta = _log_uniform(rng)
        zeta = cmath.rect(_log_uniform(rng), rng.uniform(-math.pi, math.pi))
        try:
            periodize._zeta(beta, zeta)
        except PoleOnLattice:
            continue    # the pole guard both sides share raises before any term
        with np.errstate(all="ignore"):
            rows = periodize._strip_rows(beta, zeta, K, bergman=True)
            y2 = (2.0 * beta * k) ** 2
            cond = (abs(zeta) ** 2 + y2) / np.abs(zeta * zeta + y2)
            sinh = _oracle_sinh(beta, zeta, k)
            _assert_terms_match(rows[0] + 1j * rows[1], sinh, np.abs(sinh) * cond)
            scale = cond * (1.0 / np.abs(zeta + 2j * beta * k) ** 2
                            + 1.0 / np.abs(zeta - 2j * beta * k) ** 2)
            _assert_terms_match(rows[2] + 1j * rows[3], _oracle_bergman(beta, zeta, k), scale)
            # the cosecant terms: i times the sinh terms at beta = 1/2 and i z
            z = zeta
            c = periodize._strip_rows(0.5, complex(-z.imag, z.real), K)
            want = np.where(k % 2 == 0, 1.0, -1.0) * 2.0 * z / (z * z - k * k)
            cond = (abs(z) ** 2 + k * k) / np.abs(z * z - k * k)
            _assert_terms_match(-c[1] + 1j * c[0], want, np.abs(want) * cond)
            split = periodize._split_rows(beta, zeta, K)
            for j, n in ((0, k - 1.0), (2, -k)):
                want = _oracle_split(beta, zeta, n)
                v = zeta + 2j * beta * n
                cond = (abs(zeta) + np.abs(2.0 * beta * n)) / np.abs(v)
                _assert_terms_match(split[j] + 1j * split[j + 1], want, np.abs(want) * cond)


def test_a_series_whose_squared_denominator_overflows_keeps_its_value():
    # |D| ~ 4e200 here, so |D|^2 and |D|^4 overflow where the complex
    # division did not; the scale by a power of two keeps every digit
    beta, z, w = 1e100, 0.3 + 1e99j, 0.1 + 2e99j
    sinh, _, bergman = periodize.strip_series_at(beta, z, w, (1000, 10))
    assert bergman[0].value.real == pytest.approx(3.0322734095217233e-201, rel=1e-14)
    assert sinh[0].value.real == pytest.approx(2.1333254492557685e-200, rel=1e-14)
    assert _bits(periodize.bergman_series_at(beta, z, w, (1000, 10))[0]) == _bits(bergman[0])
    assert _bits(periodize.sinh_series(beta, z - w.conjugate(), 1000)) == _bits(sinh[0])
