"""Tests for the shared quadrature / summation / Gram machinery."""

import cmath
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rphardy import kernels, modular, numerics, periodize, rpfunc
from rphardy.domains import DISC, HALF_PLANE, Strip
from rphardy.errors import ParameterOutOfRange, PoleAtInput, ToleranceNotReached

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# mpmath oracles (40 digits, rounded to double)
SECH_FT_AT_07 = 1.8835305904575709       # pi / cosh(0.35 pi)
SECH2_FT_AT_13 = 0.43009452950455228     # sqrt(pi/2) * 1.3 / sinh(0.65 pi)
EXP_M18 = 0.16529888822158654            # e^{-1.8}
PSUM_RHS = 0.74582106433381893           # beta=2, lam=1.3, x=0.45
FTCOSH_RHS = 0.16895814227056924 + 0.019705207075393896j  # beta=1, z=0.6+0.9i


# --------------------------------------------------------------------------
# compensated summation
# --------------------------------------------------------------------------

def test_comp_sum_is_exactly_rounded():
    vals = [1e16, 1.0, -1e16]
    assert sum(vals) == 0.0          # the naive sum loses the small term
    assert numerics.comp_sum(vals) == 1.0


def test_comp_sum_complex_parts_and_empty():
    vals = [1e16 + 1e16j, 1.0 + 2.0j, -1e16 - 1e16j]
    assert numerics.comp_sum(vals) == 1.0 + 2.0j
    assert numerics.comp_sum(np.array([1 + 2j, 3 + 4j])) == 4 + 6j
    assert numerics.comp_sum([]) == 0.0 + 0.0j
    assert numerics.comp_sum(np.zeros((0,), dtype=complex)) == 0.0 + 0.0j


# Property tests: every row sum must be the float math.fsum returns, bit for
# bit (sign of zero and NaN included), or fsum's exception.  LONG rows are
# long enough for the vectorized path.

LONG = numerics._VECTOR_MIN_TERMS


def _outcome(f, arg):
    try:
        return f(arg)
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _fsum_outcome(row: np.ndarray):
    return _outcome(math.fsum, row.tolist())


def _same(a, b) -> bool:
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _assert_matches_fsum(row: np.ndarray) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # no numpy RuntimeWarning escapes
        got = _outcome(numerics.comp_sum, row)
    want = _fsum_outcome(row)
    assert _same(got, want), (got, want)


def _gen_sum(rng, n: int, cond: float) -> np.ndarray:
    """An ill-conditioned sum as in Ogita, Rump and Oishi's GenSum: half the
    terms with exponents spread over log2(cond)/2, the other half cancelling
    the running exact sum down to a small target."""
    b = math.log2(cond)
    n2 = n // 2
    e = np.round(rng.uniform(0.0, b / 2.0, n2))
    e[0], e[-1] = round(b / 2.0) + 1, 0
    head = rng.uniform(-1.0, 1.0, n2) * 2.0 ** e
    total = sum((Fraction(float(v)) for v in head), Fraction(0))
    tail = []
    for ek in np.round(np.linspace(b / 2.0, 0.0, n - n2)):
        v = rng.uniform(-1.0, 1.0) * 2.0 ** ek - float(total)
        tail.append(v)
        total += Fraction(v)
    row = np.concatenate([head, tail])
    rng.shuffle(row)
    return row


@pytest.mark.parametrize("n", [2, 7, LONG, 3 * LONG])
def test_complex_terms_keep_their_imaginary_parts(n):
    rng = np.random.default_rng(n)
    z = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n) + 1j * _gen_sum(rng, n, 1e20)
    got = numerics.comp_sum(z)
    assert type(got) is complex
    assert _same(got.real, math.fsum(z.real.tolist()))
    assert _same(got.imag, math.fsum(z.imag.tolist()))


def test_a_list_mixing_real_and_complex_numbers_sums_as_complex():
    got = numerics.comp_sum([1e16, 1.0 + 2.0j, -1e16, 3])
    assert type(got) is complex and got == 4.0 + 2.0j
    got = numerics.comp_sum([[0.5, 1j], [2, 3.0]])
    assert got.dtype == complex and got.tolist() == [0.5 + 1j, 5.0 + 0j]


def test_real_terms_give_floats():
    assert type(numerics.comp_sum([1, 2, 3.5])) is float
    assert type(numerics.comp_sum(np.arange(3.0 * LONG))) is float
    got = numerics.comp_sum(np.ones((2, 3, LONG)))
    assert got.dtype == float and got.shape == (2, 3)
    got = numerics.comp_sum(np.ones(LONG), (1, LONG))
    assert got.dtype == float and got.tolist() == [1.0, float(LONG)]


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(LONG, 3 * LONG),
       log_cond=st.integers(0, 120))
def test_comp_sum_matches_fsum_on_ill_conditioned_sums(seed, n, log_cond):
    row = _gen_sum(np.random.default_rng(seed), n, 10.0 ** log_cond)
    _assert_matches_fsum(row)


@settings(max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3 * LONG),
       lo=st.integers(-1100, 890), span=st.integers(0, 130), one_signed=st.booleans())
def test_comp_sum_matches_fsum_on_random_magnitudes(seed, n, lo, span, one_signed):
    rng = np.random.default_rng(seed)
    row = np.ldexp(rng.standard_normal(n), rng.integers(lo, lo + span + 1, n))
    _assert_matches_fsum(np.abs(row) if one_signed else row)


@settings(max_examples=40)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(LONG, 16 * LONG),
       decay=st.floats(0.0, 50.0))
def test_comp_sum_matches_fsum_on_positive_quadrature_like_rows(seed, n, decay):
    # all terms of one sign: the partial sums grow to n times the largest
    # term, the case that sizes the extraction constant
    rng = np.random.default_rng(seed)
    row = rng.uniform(0.0, 1.0, n) * np.exp(-decay * np.linspace(-1.0, 1.0, n) ** 2)
    _assert_matches_fsum(row)
    _assert_matches_fsum(-row)


@given(a=st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300,
                   max_value=1e300),
       nudge=st.sampled_from([0.0, 1.0, -1.0]), seed=st.integers(0, 2 ** 32 - 1))
def test_comp_sum_matches_fsum_at_and_next_to_half_ulp_ties(a, nudge, seed):
    # a + half an ulp of a, exactly a tie (or just off it), padded to the
    # tree length with pairs that cancel exactly
    half = 0.5 * (math.nextafter(a, math.inf) - a)
    rng = np.random.default_rng(seed)
    pad = rng.standard_normal(LONG // 2) * (abs(a) + 1.0)
    row = np.concatenate([[a, half, nudge * half * 2.0 ** -40], pad, -pad])
    rng.shuffle(row)
    _assert_matches_fsum(row)


TINY = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
        -2.2250738585072014e-308, 1e-310, -1e-310, 3e-320]


@given(picks=st.lists(st.sampled_from(TINY), min_size=1, max_size=8),
       n=st.sampled_from([3, LONG, 2 * LONG + 1]), seed=st.integers(0, 2 ** 32 - 1))
def test_comp_sum_matches_fsum_on_signed_zeros_and_subnormals(picks, n, seed):
    row = np.random.default_rng(seed).choice(picks, n)
    _assert_matches_fsum(row)


SPECIAL = [math.inf, -math.inf, math.nan, 1.7e308, -1.7e308, 1e308]


@given(specials=st.lists(st.sampled_from(SPECIAL), min_size=1, max_size=4),
       n=st.sampled_from([5, LONG, 2 * LONG]), seed=st.integers(0, 2 ** 32 - 1))
def test_comp_sum_matches_fsum_on_inf_nan_and_overflow(specials, n, seed):
    rng = np.random.default_rng(seed)
    row = rng.standard_normal(n) * 1e300
    row[rng.choice(n, len(specials), replace=False)] = specials
    _assert_matches_fsum(row)


@settings(max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(0, 6),
       n=st.sampled_from([0, 7, LONG, 3 * LONG]))
def test_a_batch_of_rows_equals_separate_calls(seed, m, n):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-20, 20, (m, n))
    if m and n:
        rows[rng.integers(m)] = 0.0
        rows[rng.integers(m)] *= -0.0
    got = numerics.comp_sum(rows)
    assert got.shape == (m,)
    for row, s in zip(rows, got):
        assert _same(float(s), numerics.comp_sum(row))
    z = rows + 1j * rng.standard_normal((m, n))
    got = numerics.comp_sum(z.reshape(1, m, n))
    assert got.shape == (1, m)
    for row, s in zip(z, got[0]):
        assert _same(s.real, math.fsum(row.real.tolist()))
        assert _same(s.imag, math.fsum(row.imag.tolist()))


def test_a_batch_raises_the_exception_of_its_first_failing_row():
    rows = np.ones((3, LONG))
    rows[1, :2] = math.inf, -math.inf          # fsum: ValueError
    rows[2, :2] = 1e308, 1e308                 # fsum: OverflowError
    with pytest.raises(ValueError):
        numerics.comp_sum(rows)
    with pytest.raises(OverflowError):
        numerics.comp_sum(rows[2:])


# Directed cases for the certificate order: a long row is certified by the
# bound sum|p| <= n eps sigma, by the measured sum|p|, after the second
# extraction, or summed by fsum; each later path sees only the rows the one
# before refused.

def _cancelling_row(n: int, seed: int) -> np.ndarray:
    """Terms of size 1 summing to about 1e-9: the first extraction leaves a
    remainder too large for either first certificate, the second does not."""
    row = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    row[-1] = 0.0
    row[-1] = 1e-9 - math.fsum(row.tolist())
    return row


def _gridded_row(n: int, seed: int) -> np.ndarray:
    """Multiples of 2**-20 of size 1 summing to exactly 2**-27: the first
    extraction leaves every remainder 0, so the measured sum|p| certifies the
    small sum, while the bound n eps sigma is too coarse for it."""
    row = np.round(np.random.default_rng(seed).uniform(-1.0, 1.0, n) * 2.0 ** 20) * 2.0 ** -20
    row[-1] = 0.0
    row[-1] = 2.0 ** -27 - math.fsum(row.tolist())
    return row


def _tie_row(n: int) -> np.ndarray:
    """1 + 2**-53 + 2**-106: the first two terms round to a tie at 1, and only
    the last one, far below either extraction, breaks it upward."""
    row = np.zeros(n)
    row[:3] = 1.0, 2.0 ** -53, 2.0 ** -106
    return row


@pytest.fixture
def certificates(monkeypatch):
    """The verdicts of every rounding certificate ``_fsum_prefixes`` checks,
    in the order it checks them (the bound for every prefix, then per prefix
    the measured sum and the second extraction), and the number of math.fsum
    calls."""
    seen = {"ok": [], "fsum": 0}
    certify, fsum = numerics._certify, math.fsum

    def spy_certify(*args):
        r, ok = certify(*args)
        seen["ok"].append(list(ok))
        return r, ok

    def spy_fsum(values):
        seen["fsum"] += 1
        return fsum(values)

    monkeypatch.setattr(numerics, "_certify", spy_certify)
    monkeypatch.setattr(math, "fsum", spy_fsum)
    return seen


def _fsum_of_rows(rows: np.ndarray) -> list:
    return [math.fsum(row.tolist()) for row in rows]


def _assert_rows_match_fsum(rows: np.ndarray, certificates) -> None:
    want = _fsum_of_rows(rows)
    certificates["fsum"] = 0
    got = numerics.comp_sum(rows)
    assert all(_same(g, w) for g, w in zip(got.tolist(), want))


def test_a_row_the_bound_certifies_needs_no_other_certificate(certificates):
    _assert_rows_match_fsum(np.random.default_rng(2).uniform(-1.0, 1.0, (1, LONG)),
                            certificates)
    assert certificates["ok"] == [[True]]
    assert certificates["fsum"] == 0


def test_a_row_the_bound_refuses_is_certified_by_the_measured_sum(certificates):
    _assert_rows_match_fsum(_gridded_row(LONG, 3)[None, :], certificates)
    assert certificates["ok"] == [[False], [True]]
    assert certificates["fsum"] == 0


def test_a_row_both_first_certificates_refuse_is_certified_after_the_second_extraction(
        certificates):
    _assert_rows_match_fsum(_cancelling_row(LONG, 3)[None, :], certificates)
    assert certificates["ok"] == [[False], [False], [True]]
    assert certificates["fsum"] == 0


def test_a_row_every_certificate_refuses_falls_back_to_fsum(certificates):
    row = _tie_row(LONG)
    got = numerics.comp_sum(row)
    assert certificates["ok"] == [[False], [False], [False]]
    assert certificates["fsum"] == 1
    assert _same(got, 1.0 + 2.0 ** -52)


def test_a_batch_mixing_all_four_paths_sums_every_row_exactly(certificates):
    rng = np.random.default_rng(8)
    rows = rng.uniform(0.0, 1.0, (6, 2 * LONG))
    rows[1] = _cancelling_row(2 * LONG, 5)
    rows[3] = _gridded_row(2 * LONG, 6)
    rows[4] = _tie_row(2 * LONG)
    _assert_rows_match_fsum(rows, certificates)
    # the bound, then the measured sum on rows 1, 3 and 4, then the second
    # extraction on rows 1 and 4, then fsum on row 4
    assert certificates["ok"] == [[True, False, True, False, False, True],
                                  [False, True, False], [True, False]]
    assert certificates["fsum"] == 1


def test_a_batch_where_every_row_needs_the_second_extraction(certificates):
    rows = np.stack([_cancelling_row(LONG, 3), _cancelling_row(LONG, 4)])
    _assert_rows_match_fsum(rows, certificates)
    assert certificates["ok"] == [[False, False], [False, False], [True, True]]
    assert certificates["fsum"] == 0


def test_all_zero_and_non_finite_rows_take_no_certificate_beyond_the_bound(certificates):
    rows = np.random.default_rng(9).uniform(0.0, 1.0, (4, LONG))
    rows[0] = 0.0
    rows[1] = -0.0
    rows[2, 7] = math.inf
    rows[3, 5] = math.nan
    _assert_rows_match_fsum(rows, certificates)
    # all-zero rows sum to +0.0 and the others go to fsum, with no second try
    assert certificates["ok"] == [[False, False, False, False]]
    assert certificates["fsum"] == 2


def test_a_well_conditioned_complex_row_never_reaches_fsum(certificates):
    rng = np.random.default_rng(10)
    row = rng.uniform(-1.0, 1.0, 10 ** 4) + 1j * rng.uniform(0.0, 1.0, 10 ** 4)
    want = complex(math.fsum(row.real.tolist()), math.fsum(row.imag.tolist()))
    certificates["fsum"] = 0
    got = numerics.comp_sum(row)
    assert certificates["ok"] == [[True, True]]
    assert certificates["fsum"] == 0
    assert _same(got.real, want.real) and _same(got.imag, want.imag)


def _array_eval_rows():
    """Rows of the shapes the array batch sums, built as it builds them: the
    Fourier summands e^{i t lam} w of an 8001- and a 3201-node grid, the
    4001-node modular coefficient, and the four N = 10^5 strip series rows
    with the truncations a series check reads."""
    rng = np.random.default_rng(11)
    lam = np.linspace(-40.0, 40.0, 8001)
    w = np.exp(-0.5 * lam * lam) * 0.01
    yield np.exp(1j * rng.uniform(-3.0, 3.0, (2, 1)) * lam) * w, None
    lam = np.linspace(0.0, 32.0, 3201)
    yield np.exp(1j * (rng.uniform(-5.0, 5.0, (4, 1)) + 0.3j) * lam) * np.exp(-lam), None
    lam = np.linspace(-20.0, 20.0, 4001)
    yield np.exp(1j * rng.uniform(-2.0, 2.0, (2, 1)) * lam) * (1.0 / np.cosh(lam)), None
    rows = periodize._strip_rows(2.0, 0.3 - 1.1j, 10 ** 5, bergman=True)
    yield rows, (10 ** 5, 100, 1000)


@pytest.mark.parametrize("rows, ends", list(_array_eval_rows()),
                         ids=["2x8001", "4x3201", "2x4001", "series-1e5"])
def test_the_array_batch_shapes_sum_to_fsum_bit_for_bit(rows, ends):
    if rows.dtype.kind == "c":
        got = numerics.comp_sum(rows, ends)
        parts = [(got.real, rows.real), (got.imag, rows.imag)]
    else:
        parts = [(numerics.comp_sum(rows, ends), rows)]
    for sums, terms in parts:
        for L, row_sums in zip(ends or (terms.shape[1],), sums.reshape(-1, terms.shape[0])):
            for s, row in zip(row_sums.tolist(), terms):
                assert _same(s, math.fsum(row[:L].tolist()))


# Prefix sums: comp_sum(row, ends) reads every sum of row[:L] off one
# extraction of the whole row; each must be math.fsum(row[:L]) bit for bit,
# or the exception of the first prefix (in the order of ends) that fsum
# refuses.

PREFIX_KINDS = ["random", "tie", "cancel", "zero-head", "tiny-set", "below-2**-800",
                "near-2**990", "inf-nan"]


def _prefix_row(kind: str, rng, n: int) -> np.ndarray:
    row = rng.standard_normal(n) * 2.0 ** rng.integers(-30, 30, n)
    if kind == "tie":
        # a, half an ulp of a, then cancelling pairs (v, -v): every prefix
        # that ends between pairs sums to an exact tie, or just off it; pairs
        # far above a make the extraction of the whole row coarse for a
        a = float(rng.standard_normal() * 2.0 ** rng.integers(-100, 100))
        half = 0.5 * (math.nextafter(a, math.inf) - a)
        row[:3] = a, half, rng.choice([0.0, 1.0, -1.0]) * half * 2.0 ** -40
        pad = rng.standard_normal((n - 3) // 2) * (abs(a) + 1.0) \
            * 2.0 ** rng.integers(0, 40)
        row[3:3 + 2 * pad.size:2] = pad
        row[4:4 + 2 * pad.size:2] = -pad
    elif kind == "cancel":
        # two ill-conditioned sums back to back: the prefix that ends
        # between them cancels heavily too
        cut = int(rng.integers(2, n))
        cond = 10.0 ** rng.integers(0, 120)
        row[:cut] = _gen_sum(rng, cut, cond)
        if n - cut >= 2:
            row[cut:] = _gen_sum(rng, n - cut, cond)
    elif kind == "zero-head":
        # an all-zero prefix, of both signs, of a nonzero row
        head = int(rng.integers(1, n))
        row[:head] = rng.choice([0.0, -0.0], head)
    elif kind == "tiny-set":
        row = rng.choice(TINY, n)
    elif kind == "below-2**-800":
        row = np.ldexp(rng.standard_normal(n), rng.integers(-1080, -790, n))
    elif kind == "near-2**990":
        row = np.ldexp(rng.standard_normal(n), rng.integers(960, 1023, n))
    elif kind == "inf-nan":
        specials = rng.choice(SPECIAL, int(rng.integers(1, 4)))
        row[rng.choice(n, min(n, specials.size), replace=False)] = specials[:n]
    return row


def _assert_prefixes_match_fsum(row: np.ndarray, ends: list) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # no numpy RuntimeWarning escapes
        got = _outcome(lambda r: numerics.comp_sum(r, ends), row)
    want = [_fsum_outcome(row[:L]) for L in ends]
    refused = [w for w in want if isinstance(w, type)]
    if refused:
        assert got is refused[0], (got, want)
        return
    assert got.shape == (len(ends),)
    assert all(_same(g, w) for g, w in zip(got.tolist(), want)), (got, want)


@settings(max_examples=200)
@given(kind=st.sampled_from(PREFIX_KINDS), seed=st.integers(0, 2 ** 32 - 1),
       n=st.one_of(st.integers(3, LONG - 1), st.integers(LONG, 4 * LONG)),
       cuts=st.lists(st.integers(0, 4 * LONG), max_size=4))
def test_prefix_sums_equal_fsum_of_each_prefix(kind, seed, n, cuts):
    rng = np.random.default_rng(seed)
    row = _prefix_row(kind, rng, n)
    # the whole row, a prefix below the vector threshold, a few random ones,
    # and the short prefixes where the tie row has its (near) ties
    ends = [n, int(rng.integers(0, min(n, LONG - 1) + 1))]
    ends += [min(c, n) for c in [2, 3, 5, 7] + cuts]
    _assert_prefixes_match_fsum(row, ends)


def test_prefix_sums_of_a_batch_and_of_complex_rows():
    rng = np.random.default_rng(12)
    n = 3 * LONG
    rows = np.stack([_prefix_row(kind, rng, n) for kind in
                     ("random", "tie", "cancel", "zero-head", "tiny-set")])
    rows[4] = 0.0
    ends = (n, 100, LONG, 3, 0, n - 1)
    got = numerics.comp_sum(rows, ends)
    assert got.shape == (len(ends), rows.shape[0])
    for j, L in enumerate(ends):
        for i, row in enumerate(rows):
            assert _same(float(got[j, i]), math.fsum(row[:L].tolist()))
    z = rows + 1j * rows[::-1]
    got = numerics.comp_sum(z.reshape(5, 1, n), ends)
    assert got.shape == (len(ends), 5, 1)
    for j, L in enumerate(ends):
        for i, row in enumerate(z):
            assert _same(got[j, i, 0].real, math.fsum(row[:L].real.tolist()))
            assert _same(got[j, i, 0].imag, math.fsum(row[:L].imag.tolist()))


def test_the_one_end_case_is_the_plain_sum():
    row = np.random.default_rng(13).standard_normal(2 * LONG)
    assert _same(numerics.comp_sum(row, (row.size,))[0], numerics.comp_sum(row))
    z = row + 1j * row[::-1]
    assert numerics.comp_sum(z, [z.size])[0] == numerics.comp_sum(z)
    assert numerics.comp_sum([], ()).shape == (0,)


@pytest.mark.parametrize("ends", [(2 * LONG + 1,), (-1,), (2.0,), (math.nan,), ("3",)])
def test_prefix_ends_outside_the_row_are_rejected(ends):
    with pytest.raises(ParameterOutOfRange):
        numerics.comp_sum(np.ones(2 * LONG), ends)


def test_a_prefix_the_bound_refuses_takes_the_measured_sum_then_the_second_extraction(
        certificates):
    # the cancelling prefix is refused by the bound and the measured sum
    # after the extraction of the whole row and certified after its own
    # second extraction; the whole row is certified by the bound at once
    row = np.concatenate([_cancelling_row(LONG, 3),
                          np.random.default_rng(4).uniform(0.0, 1.0, 3 * LONG)])
    want = [math.fsum(row[:LONG].tolist()), math.fsum(row.tolist())]
    certificates["fsum"] = 0
    got = numerics.comp_sum(row, (LONG, row.size))
    assert certificates["ok"] == [[False], [True], [False], [True]]
    assert certificates["fsum"] == 0
    assert all(_same(g, w) for g, w in zip(got.tolist(), want))


def test_a_prefix_the_measured_sum_certifies_leaves_the_others_on_the_bound(certificates):
    # the measured sum certifies the gridded prefix; the whole row, which
    # the bound certifies, never reads the |p| written over its head
    row = np.concatenate([_gridded_row(LONG, 5),
                          np.random.default_rng(6).uniform(0.0, 1.0, 3 * LONG)])
    want = [math.fsum(row[:LONG].tolist()), math.fsum(row.tolist())]
    certificates["fsum"] = 0
    got = numerics.comp_sum(row, (LONG, row.size))
    assert certificates["ok"] == [[False], [True], [True]]
    assert certificates["fsum"] == 0
    assert all(_same(g, w) for g, w in zip(got.tolist(), want))


# --------------------------------------------------------------------------
# quadrature
# --------------------------------------------------------------------------

def test_quad_real_polynomial_on_finite_interval():
    val, err = numerics.quad_real(lambda x: x * x, 0.0, 1.0)
    assert abs(val - 1.0 / 3.0) < 1e-13
    assert err < 1e-10


def test_quad_real_gaussian_over_the_line():
    val, _ = numerics.quad_real(lambda x: math.exp(-x * x), -np.inf, np.inf)
    assert abs(val - math.sqrt(math.pi)) < 5e-10


def test_quad_real_breakpoints_handle_a_kink():
    val, _ = numerics.quad_real(lambda x: abs(x - 0.5), 0.0, 1.0, points=[0.5])
    assert abs(val - 0.25) < 1e-13


def test_quad_complex_exponential():
    # int_0^inf e^{-(1-i)x} dx = 1/(1-i) = (1+i)/2
    val, err = numerics.quad(lambda x: cmath.exp(-(1.0 - 1.0j) * x), 0.0, np.inf)
    assert abs(val - (0.5 + 0.5j)) < 5e-10
    assert err < 1e-9


@pytest.mark.parametrize("a,b,points", [
    (-np.inf, np.inf, None), (-3.0, 5.0, [0.5]), (0.0, np.inf, [1.0, 2.0])])
def test_quad_calls_its_integrand_once_per_distinct_x(a, b, points):
    # the imaginary-part run reuses what the real-part run computed, so the
    # result is that of two independent runs bit for bit
    f = lambda x: kernels.h_boundary(Strip(1.0), 0.3 + 0.5j, "lower", x) \
        / (1.0 + x * x)
    seen = []

    def counted(x):
        seen.append(x)
        return f(x)

    val, err = numerics.quad(counted, a, b, points=points)
    assert len(seen) == len(set(seen))
    re, re_err = numerics.quad_real(lambda x: f(x).real, a, b, points=points)
    im, im_err = numerics.quad_real(lambda x: f(x).imag, a, b, points=points)
    assert val.real.hex() == re.hex() and val.imag.hex() == im.hex()
    assert err == re_err + im_err


def test_quad_real_raises_when_the_estimate_misses():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ToleranceNotReached):
            numerics.quad_real(lambda x: math.sin(1e7 * x), 0.0, 1.0, tol=1e-13)


def test_quad_real_takes_breakpoints_on_infinite_intervals():
    # |x| e^{-x^2} has a kink at 0; its integral over the line is 1
    f = lambda x: abs(x) * math.exp(-x * x)
    for pts in ([0.0], [-1.0, 0.0, 2.5], np.array([0.0, 0.0])):
        val, err = numerics.quad_real(f, -np.inf, np.inf, points=pts)
        assert abs(val - 1.0) <= max(err, 1e-15)
    half, _ = numerics.quad_real(f, -np.inf, 0.0, points=[-1.0])
    assert abs(half - 0.5) < 1e-13
    tail, _ = numerics.quad_real(f, 1.0, np.inf, points=[1.0, 3.0])
    assert abs(tail - 0.5 * math.exp(-1.0)) < 1e-13
    flipped, _ = numerics.quad_real(f, np.inf, -np.inf, points=[0.0])
    assert abs(flipped + 1.0) < 1e-13
    # breakpoints outside the open interval are ignored, as QUADPACK does
    for a, b, pts in ((0.0, 1.0, [2.0, 0.0]), (-np.inf, 0.0, [1.0, 0.0])):
        assert (numerics.quad_real(f, a, b, points=pts)
                == numerics.quad_real(f, a, b))


def test_quad_real_rejects_a_tail_that_decays_no_faster_than_one_over_x():
    # QUADPACK alone returns 0 with a zero error estimate for this odd tail
    with pytest.raises(ToleranceNotReached, match="decay"):
        numerics.quad_real(lambda x: x / (1.0 + x * x), -np.inf, np.inf)
    for a, b in ((1.0, np.inf), (-np.inf, -1.0)):
        with pytest.raises(ToleranceNotReached):
            numerics.quad_real(lambda x: 1.0 / (1.0 + abs(x)), a, b)
    with pytest.raises(ToleranceNotReached, match="decay"):
        kernels.flip_pairing_check(HALF_PLANE, 1.3j, lambda z: z)


@pytest.mark.parametrize("f,a,points,want,tol", [
    (lambda x: 1.0 / (1.0 + x * x), -np.inf, None, math.pi, 1e-10),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, [1e3], 0.5 * math.pi, 1e-10),
    (lambda x: math.exp(-abs(x)), -np.inf, [0.0], 2.0, 1e-10),
    (lambda x: math.cos(x) / (1.0 + x * x), -np.inf, None, math.pi / math.e, 1e-5)],
    ids=["1/x^2", "1/x^2-half-line", "exp", "cos/x^2"])
def test_quad_real_still_integrates_decaying_tails(f, a, points, want, tol):
    val, err = numerics.quad_real(f, a, np.inf, tol=tol, points=points)
    assert abs(val - want) <= 20.0 * tol


def test_quad_real_lets_no_integration_warning_escape():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ToleranceNotReached):
            numerics.quad_real(lambda x: math.sin(1e7 * x), 0.0, 1.0, tol=1e-13)
        with pytest.raises(ToleranceNotReached):
            numerics.quad_real(lambda x: 1.0 / (1.0 + abs(x)), -np.inf, np.inf)
        with pytest.raises(ToleranceNotReached):
            numerics.oscillatory_ft(lambda x: 1.0 / math.sqrt(1.0 + abs(x)), 1e-250)


@pytest.mark.parametrize("a,b,points", [
    (math.nan, 1.0, None), (0.0, math.nan, None), (math.nan, np.inf, None),
    (-np.inf, math.nan, [0.0]), (0.0, 1.0, [math.nan]), (-np.inf, np.inf, [np.inf])])
def test_quad_real_rejects_nan_endpoints_and_non_finite_breakpoints(a, b, points):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterOutOfRange):
            numerics.quad_real(lambda x: math.exp(-x * x), a, b, points=points)


# --------------------------------------------------------------------------
# the QUADPACK binding: numerics._quadpack against scipy.integrate.quad
# --------------------------------------------------------------------------

_PEAK = lambda x: 1.0 / (1e-4 + (x - 0.3) ** 2)
_GAUSS = lambda x: math.exp(-(x - 0.7) ** 2)
_LORENTZ = lambda x: 1.0 / (1.0 + x * x)

# (f, a, b, tol, opts): every dispatch _quadpack makes, at the options the
# package passes; "flags" sets QUADPACK failure flags
BINDING = {
    "qags": (lambda x: math.exp(-x * x) * math.cos(3.0 * x), 0.0, 2.0, 1e-10,
             {"limit": 400}),
    "qags-flags": (lambda x: math.sin(1e7 * x), 0.0, 1.0, 1e-13, {"limit": 400}),
    "qagp": (_PEAK, 0.0, 2.0, 1e-10, {"limit": 400, "points": np.array([0.3, 1.5])}),
    # at a small limit a duplicate breakpoint, kept, would take up a
    # subinterval and move the bits
    "qagp-duplicates-and-outside": (_PEAK, 0.0, 2.0, 1e-10,
                                    {"limit": 10,
                                     "points": [1.5, 0.3, -1.0, 0.3, 2.0, 3.0, 0.0]}),
    "qagi-right": (_GAUSS, -0.5, np.inf, 1e-10, {"limit": 400}),
    "qagi-left": (_GAUSS, -np.inf, 1.25, 1e-9, {"limit": 400}),
    "qagi-line": (_LORENTZ, -np.inf, np.inf, 1e-10, {"limit": 400}),
    "qawf-cos": (_LORENTZ, 0, np.inf, 1e-10, {"weight": "cos", "wvar": 0.7}),
    "qawf-sin": (lambda x: x / (1.0 + x * x), 0, np.inf, 1e-10,
                 {"weight": "sin", "wvar": 0.7}),
}


@pytest.mark.parametrize("f,a,b,tol,opts", BINDING.values(), ids=BINDING.keys())
def test_the_quadpack_binding_gives_scipys_bits(f, a, b, tol, opts):
    import scipy.integrate

    got = numerics._quadpack(f, a, b, tol, **opts)
    want = scipy.integrate.quad(f, a, b, epsabs=tol / 4, epsrel=1e-12, limlst=120,
                                full_output=1, **opts)[:2]
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


@pytest.mark.parametrize("a,b,opts", [
    (0.0, 1.0, {}), (0.0, 1.0, {"points": [0.5]}), (0.0, np.inf, {}),
    (0, np.inf, {"weight": "cos", "wvar": 0.7})], ids=["qags", "qagp", "qagi", "qawf"])
def test_an_error_raised_by_the_integrand_comes_out_of_quadpack_unchanged(a, b, opts):
    error = PoleAtInput("raised inside f")

    def f(x):
        raise error

    with pytest.raises(PoleAtInput) as info:
        numerics._quadpack(f, a, b, 1e-10, **opts)
    assert info.value is error


@pytest.mark.parametrize("a,b,opts", [
    (0.0, 1.0, {"limit": 0}),
    (0.0, 1.0, {"limit": 2, "points": [0.2, 0.4, 0.6]})],
    ids=["limit-0", "points-beyond-limit"])
def test_input_quadpack_refuses_raises_parameter_out_of_range(a, b, opts):
    """QUADPACK's flag 6, on which scipy.integrate.quad raises a bare
    ValueError."""
    import scipy.integrate

    with pytest.raises(ParameterOutOfRange, match="QUADPACK refused"):
        numerics._quadpack(math.exp, a, b, 1e-10, **opts)
    with pytest.raises(ValueError):
        scipy.integrate.quad(math.exp, a, b, epsabs=1e-10 / 4, full_output=1, **opts)


def _near_edge(rng, beta):
    """A height 1e-3 to 0.3 beta from one of the two edges of the strip."""
    d = beta * 10.0 ** rng.uniform(-3.0, math.log10(0.3))
    return d if rng.uniform() < 0.5 else beta - d


ORACLE_FUNCS = [(lambda z: 1.0, lambda z: 1),
                (lambda z: z, lambda z: z),
                (lambda z: 1.0 + 0.5 * z, lambda z: 1 + z / 2),
                (lambda z: z ** 3 - 2.0 * z, lambda z: z ** 3 - 2 * z)]


@pytest.fixture
def mp():
    """mpmath at 30 digits for the duration of one test."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        yield mpmath


def test_quadrature_error_estimates_bound_the_true_error_near_the_boundary(mp):
    """About 300 seeded near-boundary line integrals against exact or
    30-digit values, each by QUADPACK and by the line rule centred at the
    peak with the pole distance: every reported error estimate must cover
    the true error."""
    rng = np.random.default_rng(20261018)
    misses = []

    def expect(what, value, err, truth):
        if not abs(mp.mpmathify(value) - truth) <= err:
            misses.append((what, value, err, complex(truth)))

    # strip Poisson masses of the two lines: 1 - y/beta and y/beta
    for _ in range(150):
        beta = rng.uniform(0.5, 2.0)
        strip = Strip(beta)
        z = complex(rng.uniform(-3.0, 3.0), _near_edge(rng, beta))
        for comp, truth, dist in (("lower", 1 - mp.mpf(z.imag) / beta, z.imag),
                                  ("upper", mp.mpf(z.imag) / beta, beta - z.imag)):
            form = kernels.poisson_at(strip, z, comp)
            expect(("strip", beta, z, comp), *numerics.quad_real(form, -np.inf, np.inf),
                   truth)
            expect(("strip-line-rule", beta, z, comp),
                   *numerics.trapezoid_line(form, z.real, dist), truth)
    # half-plane Poisson masses: 1
    for _ in range(100):
        z = complex(rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, math.log10(0.3)))
        form = kernels.poisson_at(HALF_PLANE, z)
        expect(("half-plane", z), *numerics.quad_real(form, -np.inf, np.inf), mp.mpf(1))
        expect(("half-plane-line-rule", z), *numerics.trapezoid_line(form, z.real, z.imag),
               mp.mpf(1))
    # strip flip pairing <f*, theta_w f*> for f = F Q_w; the closed form
    # Q(w, w) conj(F(w)) F(sigma w), sigma w = i beta + conj(w), is
    # |F(w)|^2 Q(w, w) on the midline and holds for every interior w
    for k in range(40):
        beta = rng.uniform(0.5, 2.0)
        strip = Strip(beta)
        w = complex(rng.uniform(-1.5, 1.5), _near_edge(rng, beta))
        F, F_mp = ORACLE_FUNCS[k % len(ORACLE_FUNCS)]
        fstar = kernels.boundary_restriction(
            strip, lambda zb: F(zb) * kernels.szego(strip, zb, w))
        tfstar = kernels.theta_apply(strip, w, fstar)
        dist = min(w.imag, beta - w.imag)
        val, err, line_val, line_err = 0.0j, 0.0, 0.0j, 0.0
        for comp in strip.boundary_components():
            v, e = numerics.quad(lambda x: fstar(comp, x).conjugate() * tfstar(comp, x),
                                 -np.inf, np.inf, tol=1e-9)
            val += v
            err += e
            v, e = numerics.trapezoid_line(
                lambda x: np.conj(fstar(comp, x)) * tfstar(comp, x), w.real, dist, tol=1e-9)
            line_val += v
            line_err += e
        wm = mp.mpc(w.real, w.imag)
        truth = (mp.conj(F_mp(wm)) * F_mp(mp.mpc(w.real, beta - w.imag))
                 / (4 * beta * mp.sin(mp.pi * w.imag / beta)))
        expect(("flip-pairing", beta, w, k % len(ORACLE_FUNCS)), val, err, truth)
        expect(("flip-pairing-line-rule", beta, w, k % len(ORACLE_FUNCS)), line_val, line_err,
               truth)
    assert misses == []


def test_outer_function_error_estimate_bounds_its_true_error(mp, monkeypatch):
    """One outer function 2e-3 above the line against mpmath: the estimate E
    of its one quadrature, summed over the three pieces of the line, bounds
    |F - F_true| by |F| (e^{E / 2 pi} - 1)."""
    lam, z = 0.7, 0.3 + 0.002j
    errs = []
    real_quad = numerics.quad

    def recording_quad(*args, **kwargs):
        val, err = real_quad(*args, **kwargs)
        errs.append(err)
        return val, err

    monkeypatch.setattr(numerics, "quad", recording_quad)
    F = kernels.outer_from_modulus(lambda x: kernels.poisson(HALF_PLANE, 1j * lam, x), z)
    assert len(errs) == 1
    zm, a = mp.mpc(z.real, z.imag), mp.mpf(z.real)
    integral = mp.quad(
        lambda p: (1 / (p - zm) - p / (1 + p * p))
        * mp.log(lam / (mp.pi * (p * p + lam * lam))),
        [-mp.inf, a - 2, a - 0.1, a - 0.01, a, a + 0.01, a + 0.1, a + 2, mp.inf])
    truth = mp.exp(integral / (2j * mp.pi))
    assert abs(mp.mpc(F) - truth) <= abs(F) * math.expm1(sum(errs) / (2.0 * math.pi))


def test_oscillatory_ft_of_lorentzian_is_two_sided_exponential():
    s = 0.9
    f = lambda x: numerics.lorentzian(s, x)
    for t in (2.0, -2.0):
        val = numerics.oscillatory_ft(f, t)
        assert abs(val.real - EXP_M18) < 1e-12
        assert abs(val.imag) < 1e-12
    # t = 0 takes the path of a small |t| and returns the total mass
    assert abs(numerics.oscillatory_ft(f, 0.0) - 1.0) < 1e-10


@pytest.mark.parametrize("t", [1e-2 * (1 - 2**-52), 1e-4, -1e-6, 1e-300, 5e-324])
def test_oscillatory_ft_at_a_tiny_frequency_sees_all_of_f(t):
    # QAWF's first cycle [0, pi/|t|] stepped over e^{-|x|}: it returned 0 at
    # t = 1e-4 and crashed the interpreter at a subnormal t
    val = numerics.oscillatory_ft(lambda x: math.exp(-abs(x)), t)
    assert abs(val - 2.0 / (1.0 + t * t)) < 1e-10


def test_oscillatory_ft_at_a_tiny_frequency_hands_a_slow_tail_to_qawf():
    lorentzian = lambda x: 1.0 / (1.0 + x * x)
    # the line quadrature misses its tolerance on the 1/x^2 tail; QAWF meets it
    val = numerics.oscillatory_ft(lorentzian, 1e-3)
    assert abs(val - math.pi * math.exp(-1e-3)) < 1e-10
    # ... except where its cycle pi/|t| nears the float range
    with pytest.raises(ToleranceNotReached):
        numerics.oscillatory_ft(lorentzian, 1e-250)


def test_oscillatory_ft_asymmetric_gaussian_phase():
    # int e^{-(x-a)^2} e^{itx} dx = sqrt(pi) e^{ita} e^{-t^2/4}
    a = 0.3
    f = lambda x: math.exp(-((x - a) ** 2))
    for t in (1.5, -1.5):
        val = numerics.oscillatory_ft(f, t)
        want = math.sqrt(math.pi) * cmath.exp(1j * t * a) * math.exp(-t * t / 4.0)
        assert abs(val - want) < 1e-12


def test_trapezoid_circle_calls_f_once_on_the_node_array():
    calls = []

    def f(t):
        calls.append(t)
        return np.exp(2j * t)

    assert abs(numerics.trapezoid_circle(f, 64)) < 1e-14
    assert len(calls) == 1
    assert calls[0].shape == (64,)
    assert np.array_equal(calls[0], 2.0 * math.pi * np.arange(64) / 64)


@pytest.mark.parametrize("shape", [(3,), (1024, 1), (2, 1024)])
def test_trapezoid_circle_rejects_values_that_do_not_fit_the_nodes(shape):
    with pytest.raises(ParameterOutOfRange):
        numerics.trapezoid_circle(lambda t: np.ones(shape))


def test_trapezoid_circle_integrates_fourier_modes_exactly():
    assert abs(numerics.trapezoid_circle(lambda t: np.exp(3j * t))) < 1e-13


# --------------------------------------------------------------------------
# the line rule
# --------------------------------------------------------------------------

def test_trapezoid_line_calls_f_once_per_level_on_new_nodes_only():
    calls = []

    def sech(x):
        calls.append(x.copy())
        return 1.0 / np.cosh(x)

    value, err = numerics.trapezoid_line(sech, 0.0, 1.0)
    assert abs(value - math.pi) <= err <= 1e-12 and type(value) is float
    assert 3 <= len(calls) <= 5 and all(x.ndim == 1 for x in calls)
    # no node twice, and with the first level's nodes in their window the
    # later ones make one uniform grid in s = asinh(x)
    assert np.unique(np.concatenate(calls)).size == sum(x.size for x in calls)
    later = np.arcsinh(np.concatenate(calls[1:]))
    step = 2.0 ** -len(calls[1:]) * 0.5
    s = np.sort(np.arcsinh(np.concatenate(calls)))
    s = s[(s > later.min() - 1.5 * step) & (s < later.max() + 1.5 * step)]
    assert np.allclose(np.diff(s), step, rtol=0.0, atol=1e-12)


def test_trapezoid_line_integrates_a_complex_integrand_to_a_complex():
    value, err = numerics.trapezoid_line(lambda x: np.exp(-(x - 0.3) ** 2 + 2j * x), 0.3, 1.0)
    want = math.sqrt(math.pi) * cmath.exp(0.6j - 1.0)
    assert type(value) is complex and abs(value - want) <= err <= 1e-12


@pytest.mark.parametrize("peak", [1e3, 1e5])
def test_an_off_centre_peak_raises_or_is_right(peak):
    poisson = kernels.poisson_at(HALF_PLANE, peak + 1j)
    try:
        value, err = numerics.trapezoid_line(poisson, 0.0, 1.0)
    except ToleranceNotReached:
        return
    assert abs(value - 1.0) <= err
    # centred at the peak, as the callers pass it
    value, err = numerics.trapezoid_line(poisson, peak, 1.0)
    assert abs(value - 1.0) <= max(err, 1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("f", [lambda x: 1.0 / (1.0 + np.abs(x)), lambda x: x / (1.0 + x * x),
                               lambda x: np.ones_like(x), lambda x: 2.0],
                         ids=["1/|x|", "odd-1/x", "ones", "constant"])
def test_a_tail_that_decays_no_faster_than_one_over_x_raises(f):
    with pytest.raises(ToleranceNotReached, match="decay"):
        numerics.trapezoid_line(f, 0.0, 1.0)


@pytest.mark.filterwarnings("error")
def test_a_line_integrand_that_is_not_finite_or_does_not_fit_raises():
    with pytest.raises(ToleranceNotReached, match="not finite.* near x = 0.0"):
        numerics.trapezoid_line(lambda x: np.where(x == 0.0, math.nan, 1.0 / np.cosh(x)), 0.0, 1.0)
    with pytest.raises(ToleranceNotReached, match="not finite"):
        numerics.trapezoid_line(lambda x: np.exp(x * x), 0.0, 1.0)
    with pytest.raises(ParameterOutOfRange, match="shape"):
        numerics.trapezoid_line(lambda x: np.ones(3), 0.0, 1.0)
    with pytest.raises(ToleranceNotReached, match="float range"):
        numerics.trapezoid_line(lambda x: 1.0 / np.cosh(x), 0.0, 1.7e308)


@pytest.mark.filterwarnings("error")
def test_trapezoid_line_reports_the_rounding_floor_of_nodes_next_to_the_centre():
    """At pole distance 1e-6 from a centre near 3 the nodes are rounded by
    about 1e-10 of the distance: the levels agree to the last bit while the
    value is off by some 1e-12, which the estimate must cover."""
    a, y = 2.9, 1e-6
    value, err = numerics.trapezoid_line(kernels.poisson_at(HALF_PLANE, complex(a, y)), a, y)
    assert abs(value - 1.0) <= err <= 1e-8
    assert abs(numerics.trapezoid_circle(lambda t: 1.0 + 0.0j) - 2.0 * math.pi) < 1e-13
    val = numerics.trapezoid_circle(lambda t: np.cos(t) ** 2 + 0.0j)
    assert abs(val - math.pi) < 1e-13


# --------------------------------------------------------------------------
# Gram reports
# --------------------------------------------------------------------------

def test_gram_report_accepts_a_psd_matrix():
    A = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    rep = numerics.gram_report(A)
    assert rep.verdict
    assert rep.size == 2
    assert rep.hermiticity_defect == 0.0
    assert abs(rep.min_eigenvalue - 1.0) < 1e-12
    assert abs(rep.max_eigenvalue - 3.0) < 1e-12
    assert abs(rep.spectral_norm - 3.0) < 1e-12


def test_gram_report_rejects_an_indefinite_matrix():
    A = np.diag([1.0, -0.5]).astype(complex)
    rep = numerics.gram_report(A)
    assert not rep.verdict
    assert rep.min_eigenvalue < -0.4


def test_gram_report_scales_tolerance_with_the_norm():
    # -1e-6 is within 1e-10 * ||G|| of 0 when ||G|| = 1e6, and not when it is 1
    big = numerics.gram_report(np.diag([1e6, -1e-6]).astype(complex))
    assert big.verdict and big.tolerance == 1e-10
    assert not numerics.gram_report(np.diag([1.0, -1e-6]).astype(complex)).verdict


@pytest.mark.parametrize("diagonal,deficit", [
    ([2.0, 1.0], 0.0), ([1.0, -1e-6], 1e-6), ([1e6, -1e-6], 1e-12), ([0.5, -0.25], 0.25)],
    ids=["psd", "unit-norm", "large-norm", "norm-below-1"])
def test_gram_report_deficit_is_the_eigenvalue_deficit_its_verdict_reads(diagonal, deficit):
    rep = numerics.gram_report(np.diag(diagonal).astype(complex))
    assert rep.deficit == pytest.approx(deficit, rel=1e-15)
    assert rep.verdict == (rep.deficit <= rep.tolerance)


def _line_gram(n: int, seed: int) -> np.ndarray:
    """A real PSD Gram, e^{-|x_j - x_k|} on random samples, with a rounding-
    level asymmetry so its hermiticity defect is not 0."""
    x = np.random.default_rng(seed).uniform(0.0, 5.0, n)
    G = np.exp(-np.abs(x[:, None] - x[None, :]))
    G[0, 1] += 2.0 ** -52
    return G


@pytest.fixture
def eigvalsh_dtypes(monkeypatch):
    """The dtype of every matrix ``gram_report`` hands the eigensolver."""
    seen, eigvalsh = [], np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        seen.append(a.dtype)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return seen


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_real_gram_takes_the_real_solver_and_agrees_with_the_complex_one(
        seed, eigvalsh_dtypes):
    G = _line_gram(60, seed)
    rep = numerics.gram_report(G)
    # the same matrix as complex numbers with imaginary part 0 is the same
    # real matrix, and takes the same path
    assert numerics.gram_report(G.astype(complex)) == rep
    assert eigvalsh_dtypes == [np.float64, np.float64]
    half = 0.5 * G.astype(complex)
    assert rep.hermiticity_defect == 2.0 * float(np.max(np.abs(half - half.conj().T)))
    eigs = np.linalg.eigvalsh(half + half.conj().T)
    slack = G.shape[0] * numerics._EPS * rep.spectral_norm
    assert abs(rep.min_eigenvalue - eigs[0]) <= slack
    assert abs(rep.max_eigenvalue - eigs[-1]) <= slack
    assert rep.verdict and rep.deficit <= rep.tolerance


def test_the_points_guard_passes_a_real_gram_on_uncopied(eigvalsh_dtypes):
    # a complex copy of this Gram would be 640 KB; the guard's isfinite
    # mask is 40 KB
    G = _line_gram(200, 1)
    tracemalloc.start()
    try:
        assert numerics.finite_points(G, "G") is G
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    numerics.gram_report(G)
    assert eigvalsh_dtypes == [np.float64]


def test_points_keep_a_real_batch_real():
    assert numerics.finite_points([1, 2], "z").dtype == float
    assert numerics.finite_points(np.float32([0.5]), "z").dtype == float
    assert numerics.finite_points([1, 2j], "z").dtype == complex
    assert type(numerics.finite_points(1.0, "z")) is complex   # one point


@pytest.mark.parametrize("im", [1e-300, -5e-324, 0.25])
def test_a_gram_with_any_nonzero_imaginary_part_keeps_the_complex_solver(
        im, eigvalsh_dtypes):
    G = _line_gram(8, 3).astype(complex)
    G[2, 5] += im * 1j
    G[5, 2] -= im * 1j
    numerics.gram_report(G)
    assert eigvalsh_dtypes == [np.complex128]


def test_finite_array_takes_a_number_and_names_the_first_value_not_finite():
    assert numerics.finite_array(2.5, "x").shape == ()
    assert numerics.finite_array(np.float64(2.5), "x").shape == ()
    with pytest.raises(ParameterOutOfRange, match="x must be finite, got inf"):
        numerics.finite_array([1.0, math.inf, math.nan], "x")
    with pytest.raises(ParameterOutOfRange, match="x must be finite, got nan"):
        numerics.finite_array(math.nan, "x")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("values,dtype", [
    (None, float), ("1.5", float), (["1.5", "2"], float), (b"15", float),
    ([1.0, None], float), (1j, float), ([0.5, 1j], float), (np.ones(2, complex), float),
    ("1j", complex), ([1j, None], complex), ([1.0, [2.0]], complex), (10 ** 400, float),
], ids=["None", "str", "str-list", "bytes", "None-in-list", "complex", "complex-in-list",
        "complex-array", "str-complex", "None-complex", "ragged", "huge-int"])
def test_finite_array_takes_only_numbers_its_dtype_holds(values, dtype):
    """numpy reads None as NaN, "1.5" as a number and b"15" as [49, 53];
    the guard passes only numeric dtypes, and no complex for float."""
    with pytest.raises(ParameterOutOfRange, match="x must be a rectangular array of numbers"):
        numerics.finite_array(values, "x", dtype)


def test_finite_array_keeps_numbers_of_every_numeric_kind():
    assert numerics.finite_array([True, 2, np.uint8(3), 4.5], "x").tolist() == [1.0, 2.0, 3.0, 4.5]
    got = numerics.finite_array([1, 2.5, 1j], "x", complex)
    assert got.dtype == complex and got.tolist() == [1, 2.5, 1j]
    assert numerics.finite_array((v for v in (1.0, 2.0)), "x").tolist() == [1.0, 2.0]


@pytest.mark.filterwarnings("error")
def test_finite_point_is_complex_of_one_finite_number():
    for z in (1, 2.5, 1j, np.float32(0.5), np.complex128(1 + 2j), np.array(3.0), Fraction(1, 2)):
        got = numerics.finite_point(z)
        assert type(got) is complex and got == complex(z)
    for bad in (None, "1j", b"1", math.nan, complex(math.inf, 0.0), [1.0], np.ones(1),
                [1, [2]], object(), 10 ** 400):
        with pytest.raises(ParameterOutOfRange, match="^w must be a finite complex number"):
            numerics.finite_point(bad, "w")


def test_is_batch_counts_a_ragged_sequence_as_a_batch():
    assert numerics.is_batch(0.5, [1, [2]])
    assert numerics.is_batch((1.0,))
    assert not numerics.is_batch(0.5, 1j, np.float64(2.0), np.array(1.0), None)


@pytest.mark.parametrize("call", [
    "numerics.oscillatory_ft(lambda x: 1 / (1 + x * x), float('nan'))",
    "numerics.oscillatory_ft(lambda x: 1 / (1 + x * x), float('-inf'))",
    "numerics.ftcosh_check(1.0, complex(float('nan'), 0.5))",
    "modular.psi_hardy_midline(1.0, float('inf'))",
], ids=["oscillatory_ft-nan", "oscillatory_ft--inf", "ftcosh_check", "psi_hardy_midline"])
def test_a_frequency_that_is_not_finite_raises_before_quadpack(call):
    """QUADPACK's QAWF ends the interpreter with SIGSEGV on a NaN or
    infinite frequency, so each call runs in a child process: a regression
    fails this test instead of ending the test run."""
    proc = _child("import warnings; warnings.simplefilter('error')\n"
                  "from rphardy import modular, numerics\n"
                  "from rphardy.errors import ParameterOutOfRange\n"
                  "try:\n    %s\nexcept ParameterOutOfRange:\n    print('raised')\n" % call)
    assert (proc.returncode, proc.stdout.strip()) == (0, "raised"), proc.stderr


def test_psi_hardy_midline_where_beta_lam_overflows_gives_0():
    """At beta = 1e308 the envelope's argument beta lam is inf at a finite
    lam; the NaN it gave there crashed QAWF, hence the child process."""
    proc = _child("from rphardy import modular\n"
                  "print(modular.psi_hardy_midline(1e308, 0.3).defect)\n")
    assert (proc.returncode, proc.stdout.strip()) == (0, "0.0"), proc.stderr


@pytest.mark.parametrize("bad,t", [("nan", 0.3), ("nan", 0.003), ("inf", 0.5)])
def test_an_integrand_that_is_nan_at_a_finite_x_raises_before_qawf(bad, t):
    """A NaN value of f crashed QAWF with SIGSEGV, at t = 0.003 after the
    QAGI try failed on it, and so does an inf; hence the child process."""
    proc = _child("import math\n"
                  "from rphardy import numerics\n"
                  "from rphardy.errors import ToleranceNotReached\n"
                  "f = lambda x: math.%s if abs(x) > 5 else math.exp(-x * x)\n"
                  "try:\n    numerics.oscillatory_ft(f, %r)\n"
                  "except ToleranceNotReached:\n    print('raised')\n" % (bad, t))
    assert (proc.returncode, proc.stdout.strip()) == (0, "raised"), proc.stderr


def _child(code: str):
    """Run ``code`` in a fresh interpreter on this source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)


def test_oscillatory_ft_rejects_an_array_of_frequencies():
    with pytest.raises(ParameterOutOfRange, match="t must be one number"):
        numerics.oscillatory_ft(lambda x: 1.0 / (1.0 + x * x), np.array([0.5, 1.0]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf, None])
@pytest.mark.parametrize("call", [
    lambda tol: numerics.quad_real(lambda x: x, 0.0, 1.0, tol=tol),
    lambda tol: numerics.quad(lambda x: 1j * x, 0.0, 1.0, tol=tol),
], ids=["quad_real", "quad"])
def test_a_quadrature_tolerance_that_is_not_a_finite_positive_number_raises(call, tol):
    with pytest.raises(ParameterOutOfRange, match="finite tol > 0"):
        call(tol)


@pytest.mark.parametrize("value", [None, "1", 1j, [1.0, 2.0], np.ones(2)],
                         ids=["None", "str", "complex", "list", "array"])
def test_require_positive_rejects_a_value_that_is_not_a_number(value):
    with pytest.raises(ParameterOutOfRange, match="finite beta > 0"):
        numerics._require_positive(value)


def test_gram_report_flags_hermiticity_defect():
    A = np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.3j, 1.0]])
    rep = numerics.gram_report(A)
    assert abs(rep.hermiticity_defect - 0.2) < 1e-15


def test_gram_report_rejects_non_square_input():
    with pytest.raises(ParameterOutOfRange):
        numerics.gram_report(np.ones((2, 3)))


@pytest.mark.parametrize("build", [
    lambda: rpfunc.pd_gram("line", 1.0, []),
    lambda: rpfunc.rp_gram("line", 1.0, []),
    lambda: rpfunc.param_rp_check(2, []),
    lambda: kernels.kernel_gram(DISC, []),
], ids=["pd_gram", "rp_gram", "param_rp_check", "kernel_gram"])
def test_an_empty_gram_is_rejected(build):
    with pytest.raises(ParameterOutOfRange):
        build()


def test_gram_report_extremes_on_a_diagonal_matrix():
    rep = numerics.gram_report(np.diag([-2.0, 0.5, 7.0]))
    assert rep.min_eigenvalue == -2.0 and rep.max_eigenvalue == 7.0


# --------------------------------------------------------------------------
# closed-form identities
# --------------------------------------------------------------------------

def test_lorentzian_normalization():
    val, _ = numerics.quad_real(lambda x: numerics.lorentzian(0.37, x),
                                -np.inf, np.inf)
    assert abs(val - 1.0) < 1e-10


def test_poisson_summation_defect_within_tail_bound():
    chk = numerics.poisson_summation_check(2.0, 1.3, 0.45, K=4000)
    assert abs(chk.rhs - PSUM_RHS) < 5e-16
    assert chk.defect <= chk.tail_bound
    assert chk.tail_bound < 1e-3


def test_poisson_summation_tail_shrinks_with_more_terms():
    loose = numerics.poisson_summation_check(2.0, 1.3, 0.45, K=100)
    tight = numerics.poisson_summation_check(2.0, 1.3, 0.45, K=10000)
    assert tight.tail_bound < loose.tail_bound
    assert tight.defect < loose.tail_bound


def test_poisson_summation_rejects_bad_parameters():
    with pytest.raises(ParameterOutOfRange):
        numerics.poisson_summation_check(-1.0, 1.0, 0.2, K=10)
    with pytest.raises(ParameterOutOfRange):
        numerics.poisson_summation_check(1.0, 0.0, 0.2, K=10)
    with pytest.raises(ParameterOutOfRange):
        numerics.poisson_summation_check(1.0, 1.0, 1.5, K=10)


def test_sech_ft_against_closed_form():
    chk = numerics.sech_ft_check(0.7)
    assert abs(chk.rhs - SECH_FT_AT_07) < 5e-16
    assert chk.defect < 1e-11


def test_sech2_ft_value_and_zero_limit():
    chk = numerics.sech2_ft_check(1.3)
    assert abs(chk.rhs - SECH2_FT_AT_13) < 5e-16
    assert chk.defect < 1e-11
    chk0 = numerics.sech2_ft_check(0.0)
    assert abs(chk0.rhs - math.sqrt(2.0 / math.pi)) < 1e-15
    assert chk0.defect < 1e-11


def test_sech_power_recursion_holds_for_small_n():
    for n in (1, 2, 3):
        chk = numerics.sech_power_recursion_check(n, 0.7)
        assert chk.defect < 1e-10


def test_sech_power_recursion_rejects_n_below_one():
    with pytest.raises(ParameterOutOfRange):
        numerics.sech_power_recursion_check(0, 0.7)


def test_ftcosh_matches_the_sinh_closed_form():
    chk = numerics.ftcosh_check(1.0, 0.6 + 0.9j)
    assert abs(chk.rhs - FTCOSH_RHS) < 5e-16
    assert chk.defect < 1e-10


@pytest.mark.parametrize("z", [300.0 + 0.5j, -300.0 + 0.5j], ids=["far-right", "far-left"])
def test_ftcosh_past_far_takes_the_exponential_form_of_1_over_sinh(mp, z):
    # |Re u| = 471 > _FAR: sinh u overflows there, 1 / sinh u = +-2 e^{-+u};
    # the rounding of u = pi z / 2 costs e^u up to |u| eps ~ 1e-13 relative
    chk = numerics.ftcosh_check(1.0, z)
    want = complex(0.25j / mp.sinh(mp.pi * mp.mpc(z) / 2))
    assert abs(chk.rhs - want) <= 1e-13 * abs(want)
    assert chk.defect < 1e-10


def test_ftcosh_rejects_points_outside_the_strip_of_convergence():
    with pytest.raises(ParameterOutOfRange):
        numerics.ftcosh_check(1.0, 0.6 + 0.0j)
    with pytest.raises(ParameterOutOfRange):
        numerics.ftcosh_check(1.0, 0.6 + 2.0j)
    with pytest.raises(ParameterOutOfRange):
        numerics.ftcosh_check(1.0, 0.6 - 0.3j)
    with pytest.raises(ParameterOutOfRange):
        numerics.ftcosh_check(-1.0, 0.6 + 0.5j)


def test_hyperbolic_modulus_identities():
    for x, y in ((0.3, 1.1), (-2.0, 0.4), (5.0, -2.7), (0.0, 0.9)):
        s = numerics.sinh_abs_check(x, y)
        c = numerics.cosh_abs_check(x, y)
        assert s.defect <= 1e-12 * (1.0 + abs(s.lhs))
        assert c.defect <= 1e-12 * (1.0 + abs(c.lhs))


def test_a_c_log_abs_t_that_is_not_finite_raises_without_a_warning():
    # t is the one parameter of c_log_abs that no kind declares
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterOutOfRange):
            rpfunc.c_log_abs(1.0, [1.0, math.inf], 0.5j)


def test_a_narrow_peak_far_from_zero_is_found_through_points():
    peak = kernels.poisson_at(HALF_PLANE, 1e5 + 1j)
    value, err = numerics.quad_real(peak, -math.inf, math.inf, points=[1e5])
    assert abs(value - 1.0) < 1e-10 and err < 1e-10


def test_a_peak_beyond_the_tail_ladder_raises_and_names_points():
    peak = kernels.poisson_at(HALF_PLANE, 1e7 + 1j)
    with pytest.raises(ToleranceNotReached, match="points"):
        numerics.quad_real(peak, -math.inf, math.inf)
    with pytest.raises(ToleranceNotReached, match="points"):
        numerics.quad(peak, -math.inf, math.inf)
    value, _ = numerics.quad_real(peak, -math.inf, math.inf, points=[1e7])
    assert abs(value - 1.0) < 1e-9
