"""Partial-fraction / image-charge series for the strip kernels, with
explicit a-priori tail bounds, plus the geometric splitting of the Szego
kernel into one-sided pieces.

The two scalar building blocks are

    pi / sin(pi z)              = sum_n (-1)^n / (z - n),
    (pi / 2 beta) / sinh(pi z / (2 beta)) = sum_k (-1)^k / (z + 2 k i beta),

both summed symmetrically: the k = 0 term plus paired terms (k, -k), which
turns the conditionally convergent sums into absolutely convergent ones with
paired terms O(1/k^2).  The strip kernels follow by specializing to
zeta = z - conj(w):

    szego:    Q(z, w)  = (i / 2 pi) sum_n (-1)^n / (zeta + 2 n beta i),
    bergman:  Q(z, w)^2 = -(1 / 4 pi^2) sum_k 1 / (zeta + 2 k i beta)^2.

The Szego image series is (i / 2 pi) times the sinh series at zeta: both sum
the same terms, each against its own closed form.  Every evaluator returns a
:class:`SeriesEval` carrying the proven tail bound (valid once N exceeds the
stated threshold; below it the bound is reported as inf) together with the
closed-form value and the actual defect, so soundness ``defect <=
tail_bound`` is a one-line assertion; an overflow raises
:class:`ParameterOutOfRange`.

Terms in real arithmetic.  With y = 2 beta k, D = zeta^2 + y^2 and
zeta = a + i b, the paired sinh term and the paired Bergman term are

    t_k = (-1)^k 2 zeta / D
        = (-1)^k 2 [a (|zeta|^2 + y^2) + i b (y^2 - |zeta|^2)] / |D|^2,
    1 / (zeta + i y)^2 + 1 / (zeta - i y)^2 = t_k^2 - 2 / D,

since 1/(zeta + iy) + 1/(zeta - iy) = 2 zeta / D and their product is 1/D.
:func:`_strip_rows` builds each real and imaginary part as one float row,
with no complex division, and one :func:`numerics.comp_sum_real` call sums
the rows (the cosecant terms are i times the sinh terms at beta = 1/2 and
i z; the one-sided Szego halves are (-1)^n (a - i v) / (a^2 + v^2), v = b +
2 beta n).  |D|^2 overflows where |D| passes 1e154, so zeta and beta are
first divided by 2**m, the power of two that brings |zeta| + 2 beta n to at
most 2**125 for every n a series takes: |D|^2 then stays below 2**502, and
the 2**-m left over goes into the scalar coefficients, at no array pass.  m
depends on beta and zeta alone, and a power of two scales without rounding
(away from subnormals), so a term has the same bits at every truncation.

``strip_series_at`` gives the sinh, Szego and Bergman series at one zeta,
and ``cosecant_series_at`` and ``bergman_series_at`` one series each, as one
:class:`SeriesEval` per truncation in ``Ns`` (positive integers of at most
2**20 + 1): the rows are built once, for the largest N, and every partial
sum is an exactly rounded prefix sum of them (:func:`numerics.comp_sum_real`
with ``ends``), bit for bit the single-N value.  An exactly rounded sum does
not depend on which rows are summed with it, so the three series of
``strip_series_at`` are bit for bit the single-series calls.

Tail bounds, all elementary alternating/absolute estimates:

    cosecant:  8 |z| / (3 N)            for N >= 2 |z|,
    sinh:      2 |z| / (3 beta^2 N)     for N >= |z| / beta,
    szego:     |zeta| / (3 pi beta^2 N) for N >= |zeta| / beta,
    bergman:   5 / (18 pi^2 beta^2 N)   for N >= |zeta| / beta.

``szego_series_split`` sums the two one-sided halves (images n >= 0 and
n <= -1 separately, adjacent pairs (2j, 2j+1) for absolute convergence);
their sum reproduces the full kernel.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .domains import Strip
from .errors import ParameterOutOfRange, PoleOnLattice
from .kernels import bergman_strip, szego
from .numerics import _MAX_SIZE, POINT, POSITIVE, SIZE, comp_sum_real, takes

_LATTICE_TOL = 1e-12


@dataclass
class SeriesEval:
    """A partial sum together with its certificate."""

    value: complex
    closed_form: complex
    defect: float
    n_terms: int         # pairs (or pair-blocks) beyond the central term
    tail_bound: float    # proven bound on |value - limit|; inf below threshold

    @property
    def sound(self) -> bool:
        """defect <= tail_bound under a proven bound; false below the
        threshold, where the bound is inf and proves nothing."""
        return self.defect <= self.tail_bound < math.inf


def _alternate(rows: np.ndarray, first: float = -1.0) -> None:
    """Multiply the last axis of ``rows`` in place by signs alternating from
    ``first``: (-1)^k for k = 1.. by default, (-1)^n for n = 0.. with
    ``first`` = 1 (a negation of every other entry)."""
    every_other = rows[..., 0 if first < 0 else 1::2]
    np.negative(every_other, out=every_other)


def _truncations(Ns) -> tuple:
    """``Ns`` as a tuple of truncations; rejects anything but a non-empty
    sequence of positive integers of at most ``numerics._MAX_SIZE``, the
    cap of every count that sizes an array, before anything is allocated."""
    try:
        Ns = tuple(Ns)
    except TypeError:
        Ns = None
    if not Ns or not all(isinstance(N, (int, np.integer)) and 1 <= N <= _MAX_SIZE
                         for N in Ns):
        raise ParameterOutOfRange("truncations must be positive integers of at most "
                                  "%d, got %r" % (_MAX_SIZE, Ns))
    return Ns


_OVERFLOW = "the series or its closed form overflows double precision"


@np.errstate(all="ignore")      # what overflows is caught below
def _row_sums(Ns, rows_of) -> list:
    """Per truncation N in ``Ns``, the exactly rounded sums of the first N
    entries of each row of ``rows_of(max(Ns))`` (one
    :func:`numerics.comp_sum_real` call with ``ends``), as a list of lists
    of floats; an overflow raises :class:`ParameterOutOfRange`."""
    try:
        return comp_sum_real(rows_of(max(Ns)), Ns).tolist()
    except (OverflowError, ValueError):     # fsum of inf - inf
        raise ParameterOutOfRange(_OVERFLOW) from None


def _pairs(sums, j: int) -> list:
    """The complex sums whose real and imaginary parts are rows j and j + 1
    of each truncation's row sums."""
    return [complex(s[j], s[j + 1]) for s in sums]


def _evals(Ns, sums, value_of, closed_of, bound_of) -> list:
    """One :class:`SeriesEval` per truncation N, of ``value_of(s)`` at the
    prefix sum s of N terms (a complex from :func:`_row_sums`) against
    ``closed_of()``; an overflow raises :class:`ParameterOutOfRange`."""
    try:
        closed = closed_of()
        values = [value_of(s) for s in sums]
        finite = all(cmath.isfinite(v) for v in values + [closed])
    except (OverflowError, ValueError, ZeroDivisionError):  # cmath
        finite = False
    if not finite:
        raise ParameterOutOfRange(_OVERFLOW)
    return [SeriesEval(v, closed, abs(v - closed), N, bound_of(N))
            for v, N in zip(values, Ns)]


# --------------------------------------------------------------------------
# terms in real arithmetic
# --------------------------------------------------------------------------

_SPAN = 2 * _MAX_SIZE + 2       # the largest |n| of a term (the split's 2N)
_UNIT = 125                     # |zeta| + 2 beta n <= 2**_UNIT after the scale


def _scale(beta: float, zeta: complex) -> tuple:
    """(a, b, h, m): Re zeta, Im zeta and beta divided by 2**m, with m the
    exponent that brings |zeta| + 2 beta _SPAN to at most 2**_UNIT (from the
    binary exponents alone: |zeta| < 2 max(|a|, |b|))."""
    e = max(math.frexp(zeta.real)[1], math.frexp(zeta.imag)[1]) + 1
    e = max(e, math.frexp(beta)[1] + (2 * _SPAN).bit_length()) + 1
    m = e - _UNIT
    return math.ldexp(zeta.real, -m), math.ldexp(zeta.imag, -m), math.ldexp(beta, -m), m


def _strip_rows(beta: float, zeta: complex, K: int, sinh: bool = True,
                bergman: bool = False) -> np.ndarray:
    """The rows Re t_k, Im t_k of the sinh terms t_k = (-1)^k 2 zeta / D_k,
    k = 1..K, if ``sinh``, followed if ``bergman`` by Re and Im of the paired
    Bergman terms t_k^2 - 2 / D_k (module docstring); the Bergman rows alone
    build t in a scratch pair of rows, freed before the sum.  Every array
    holds zeta and y over 2**m (:func:`_scale`): g = 2 / |D|^2 there,
    t = zeta conj(D) g / 4**m and 2 / D = conj(D) g / 4**m, so 4**-m goes
    into the coefficients."""
    a, b, h, m = _scale(beta, zeta)
    r2 = a * a + b * b
    rows = np.empty((2 * (sinh + bergman), K))
    u = np.arange(1.0, K + 1.0)
    u *= u                                  # k^2, exact
    u *= 4.0 * h * h                        # y^2
    x = u + (a * a - b * b)                 # Re D
    g = x * x
    g += (2.0 * a * b) ** 2                 # |D|^2 <= 2**502
    np.divide(2.0, g, out=g)
    t_re, t_im = rows[:2] if sinh else np.empty((2, K))
    np.add(u, r2, out=t_re)
    t_re *= g
    t_re *= math.ldexp(zeta.real, -2 * m)
    np.subtract(u, r2, out=t_im)
    t_im *= g
    t_im *= math.ldexp(zeta.imag, -2 * m)
    if bergman:
        s_re, s_im, q = rows[-2], rows[-1], math.ldexp(1.0, -2 * m)
        np.multiply(t_re, t_re, out=s_re)
        s_re -= np.multiply(t_im, t_im, out=s_im)
        x *= g
        x *= q
        s_re -= x
        np.multiply(t_re, t_im, out=s_im)
        s_im *= 2.0
        s_im += np.multiply(g, 2.0 * a * b * q, out=u)
    if sinh:
        _alternate(rows[:2])    # the Bergman rows do not depend on the sign
    return rows


@takes(z=POINT)
def cosecant_series_at(z: complex, Ns) -> list:
    """:func:`cosecant_series` at each truncation N in ``Ns``: the terms are
    built once, for the largest N, and each partial sum is the exactly
    rounded sum of its first N terms, bit for bit the single-N value."""
    Ns = _truncations(Ns)
    if abs(z - round(z.real)) <= _LATTICE_TOL and abs(z.imag) <= _LATTICE_TOL:
        raise PoleOnLattice("z is an integer")
    # the terms are i times the sinh terms at beta = 1/2 and i z
    sums = _row_sums(Ns, lambda K: _strip_rows(0.5, complex(-z.imag, z.real), K))
    return _evals(Ns, [complex(-im, re) for re, im in sums], lambda s: 1.0 / z + s,
                  lambda: math.pi / cmath.sin(math.pi * z),
                  lambda N: 8.0 * abs(z) / (3.0 * N) if N >= 2.0 * abs(z) else math.inf)


@takes(z=POINT, N=SIZE(1))
def cosecant_series(z: complex, N: int) -> SeriesEval:
    """Partial sum of  pi / sin(pi z) = 1/z + sum_{k>=1} (-1)^k 2z / (z^2 - k^2)."""
    return cosecant_series_at.__wrapped__(z, (N,))[0]


def _zeta(beta, z, w=None) -> complex:
    """z - conj(w) (z when w is None) of complex z and w, off the pole
    lattice 2 i beta Z."""
    zeta = z if w is None else z - w.conjugate()
    if not cmath.isfinite(zeta):
        raise ParameterOutOfRange("z - conj(w) overflows double precision")
    if abs(zeta.real) <= _LATTICE_TOL and \
            abs(math.remainder(zeta.imag, 2.0 * beta)) <= _LATTICE_TOL:
        raise PoleOnLattice("%s lies on the lattice 2 i beta Z"
                            % ("z" if w is None else "z - conj(w)"))
    return zeta


@takes(beta=POSITIVE, z=POINT, N=SIZE(1))
def sinh_series(beta: float, z: complex, N: int) -> SeriesEval:
    """Partial sum of  (pi/2 beta) / sinh(pi z / 2 beta)
    = 1/z + sum_{k>=1} (-1)^k 2z / (z^2 + 4 k^2 beta^2)."""
    Ns = (N,)
    z = _zeta(beta, z)
    sums = _row_sums(Ns, lambda K: _strip_rows(beta, z, K))
    return _sinh_evals(beta, z, Ns, _pairs(sums, 0))[0]


@takes(beta=POSITIVE, z=POINT, w=POINT)
def strip_series_at(beta: float, z: complex, w: complex, Ns) -> tuple:
    """The lists of ``sinh_series(beta, zeta, N)``, ``szego_series(beta, z,
    w, N)`` and ``bergman_series(beta, z, w, N)`` for N in ``Ns``, at zeta =
    z - conj(w), bit for bit, from one exactly rounded sum of the four rows
    of their terms; it raises wherever one of the three raises."""
    Ns = _truncations(Ns)
    zeta = _zeta(beta, z, w)
    sums = _row_sums(Ns, lambda K: _strip_rows(beta, zeta, K, bergman=True))
    sinh = _pairs(sums, 0)
    return (_sinh_evals(beta, zeta, Ns, sinh), _szego_evals(beta, z, w, zeta, Ns, sinh),
            _bergman_evals(beta, z, w, zeta, Ns, _pairs(sums, 2)))


def _sinh_evals(beta: float, z: complex, Ns, sums) -> list:
    """The sinh series at z from the prefix sums of its terms: 1/z + s
    against (pi / 2 beta) / sinh(pi z / 2 beta), tail 2|z| / (3 beta^2 N)."""
    return _evals(Ns, sums, lambda s: 1.0 / z + s,
                  lambda: (math.pi / (2.0 * beta)) / cmath.sinh(math.pi * z / (2.0 * beta)),
                  lambda N: 2.0 * abs(z) / (3.0 * beta * beta * N)
                  if N >= abs(z) / beta else math.inf)


def _szego_evals(beta: float, z: complex, w: complex, zeta: complex, Ns, sums) -> list:
    """The Szego series from the prefix sums of the sinh terms at zeta:
    (i / 2 pi)(1/zeta + s) against :func:`kernels.szego`, tail
    |zeta| / (3 pi beta^2 N)."""
    return _evals(Ns, sums, lambda s: (1j / (2.0 * math.pi)) * (1.0 / zeta + s),
                  lambda: szego.__wrapped__(Strip(beta), z, w),
                  lambda N: abs(zeta) / (3.0 * math.pi * beta * beta * N)
                  if N >= abs(zeta) / beta else math.inf)


def _bergman_evals(beta: float, z: complex, w: complex, zeta: complex, Ns, sums) -> list:
    """The Bergman series from the prefix sums of its paired terms:
    -(1 / 4 pi^2)(1/zeta^2 + s) against :func:`kernels.bergman_strip`, tail
    5 / (18 pi^2 beta^2 N)."""
    return _evals(Ns, sums, lambda s: -(1.0 / (4.0 * math.pi ** 2)) * (1.0 / zeta ** 2 + s),
                  lambda: bergman_strip.__wrapped__(beta, z, w),
                  lambda N: 5.0 / (18.0 * math.pi ** 2 * beta * beta * N)
                  if N >= abs(zeta) / beta else math.inf)


@takes(beta=POSITIVE, z=POINT, w=POINT, N=SIZE(1))
def szego_series(beta: float, z: complex, w: complex, N: int) -> SeriesEval:
    """Image-charge series of the strip Szego kernel,
    Q(z, w) = (i / 2 pi) sum_n (-1)^n / (z - conj(w) + 2 n beta i)."""
    Ns = (N,)
    zeta = _zeta(beta, z, w)
    sums = _row_sums(Ns, lambda K: _strip_rows(beta, zeta, K))
    return _szego_evals(beta, z, w, zeta, Ns, _pairs(sums, 0))[0]


@takes(beta=POSITIVE, z=POINT, w=POINT)
def bergman_series_at(beta: float, z: complex, w: complex, Ns) -> list:
    """:func:`bergman_series` at each truncation N in ``Ns``, from one build
    of the rows as in :func:`cosecant_series_at`; only the two Bergman rows
    are summed."""
    Ns = _truncations(Ns)
    zeta = _zeta(beta, z, w)
    sums = _row_sums(Ns, lambda K: _strip_rows(beta, zeta, K, sinh=False, bergman=True))
    return _bergman_evals(beta, z, w, zeta, Ns, _pairs(sums, 0))


@takes(beta=POSITIVE, z=POINT, w=POINT, N=SIZE(1))
def bergman_series(beta: float, z: complex, w: complex, N: int) -> SeriesEval:
    """Image-charge series of the squared kernel,
    Q(z, w)^2 = -(1 / 4 pi^2) sum_k 1 / (z - conj(w) + 2 k i beta)^2,
    absolutely convergent with paired terms ~ -1 / (2 beta^2 k^2)."""
    return bergman_series_at.__wrapped__(beta, z, w, (N,))[0]


def _split_rows(beta: float, zeta: complex, K: int) -> np.ndarray:
    """Rows Re, Im of the terms (-1)^n / (zeta + 2 n beta i) for n = 0..K-1
    (the plus half), then for n = -1..-K (the minus half): each term is
    (a - i v) / (a^2 + v^2) with v = b + 2 beta n, over 2**m as in
    :func:`_strip_rows`."""
    a, b, h, m = _scale(beta, zeta)
    rows = np.empty((4, K))
    n = np.arange(float(K))
    for j, v in enumerate((n * (2.0 * h) + b, b - (n + 1.0) * (2.0 * h))):
        g = v * v
        g += a * a
        np.divide(1.0, g, out=g)
        np.multiply(g, math.ldexp(zeta.real, -2 * m), out=rows[2 * j])
        np.multiply(v, g, out=rows[2 * j + 1])
        rows[2 * j + 1] *= -math.ldexp(1.0, -m)
    _alternate(rows[:2], 1.0)
    _alternate(rows[2:])
    return rows


@takes(beta=POSITIVE, z=POINT, w=POINT, N=SIZE(1))
def szego_series_split(beta: float, z: complex, w: complex, N: int):
    """One-sided halves of the Szego image series:

        Q_plus  = (i / 2 pi) sum_{n >= 0}  (-1)^n / (zeta + 2 n beta i),
        Q_minus = (i / 2 pi) sum_{n <= -1} (-1)^n / (zeta + 2 n beta i),

    each summed over adjacent pairs; returns (plus, minus, recombined)
    where ``recombined`` is a :class:`SeriesEval` of plus + minus against the
    closed-form kernel.  Each adjacent pair beyond index 2N has magnitude at
    most 1 / (2 beta j^2) once 2 j beta >= |zeta|, so each half carries a tail
    of at most 1 / (4 pi beta (N - 1)) and the recombined bound is
    1 / (2 pi beta (N - 1)), valid for N >= max(2, |zeta| / (2 beta) + 1)."""
    zeta = _zeta(beta, z, w)
    # 2N terms of each half, so adjacent pairing keeps each absolutely convergent
    sums = _row_sums((2 * N,), lambda K: _split_rows(beta, zeta, K))
    plus, minus = ((1j / (2.0 * math.pi)) * _pairs(sums, j)[0] for j in (0, 2))
    return plus, minus, _evals((N,), [plus + minus], lambda s: s,
                               lambda: szego.__wrapped__(Strip(beta), z, w),
                               lambda N: 1.0 / (2.0 * math.pi * beta * (N - 1))
                               if N >= max(2.0, abs(zeta) / (2.0 * beta) + 1.0)
                               else math.inf)[0]
