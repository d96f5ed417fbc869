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
the terms of :func:`_sinh_terms`, each against its own closed form, and
:func:`sinh_szego_series_at` gives both from one sum.  Every
evaluator returns a :class:`SeriesEval` carrying the proven tail bound (valid
once N exceeds the stated threshold; below it the bound is reported as inf)
together with the closed-form value and the actual defect, so soundness
``defect <= tail_bound`` is a one-line assertion; an overflow raises
:class:`ParameterOutOfRange`.

``cosecant_series_at``, ``bergman_series_at`` and ``sinh_szego_series_at``
give one :class:`SeriesEval` per truncation in ``Ns`` (positive integers of
at most 2**20 + 1): the terms are built once, for the largest N, and every
partial sum is an exactly rounded prefix sum of them
(:func:`numerics.comp_sum` with ``ends``), bit for bit the single-N value.

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
from .numerics import _MAX_SIZE, POINT, POSITIVE, SIZE, comp_sum, takes

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


def _alternating(n: int, first: float = -1.0) -> np.ndarray:
    """n signs alternating from ``first``: (-1)^k for k = 1..n by default,
    filled by slicing (a float ``k % 2`` costs about 25x more)."""
    s = np.full(n, -float(first))
    s[::2] = first
    return s


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
def _prefix_sums(Ns, terms_of) -> list:
    """The exactly rounded sum of the first N terms ``terms_of(k)``, k = 1..
    max(Ns), for each N in ``Ns`` (:func:`numerics.comp_sum` with ``ends``),
    as Python complexes; an overflow raises :class:`ParameterOutOfRange`."""
    try:
        return comp_sum(terms_of(np.arange(1.0, max(Ns) + 1.0)), Ns).tolist()
    except (OverflowError, ValueError):     # fsum of inf - inf
        raise ParameterOutOfRange(_OVERFLOW) from None


def _evals(Ns, sums, value_of, closed_of, bound_of) -> list:
    """One :class:`SeriesEval` per truncation N, of ``value_of(s)`` at the
    prefix sum s of N terms (from :func:`_prefix_sums`) against
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


@takes(z=POINT)
def cosecant_series_at(z: complex, Ns) -> list:
    """:func:`cosecant_series` at each truncation N in ``Ns``: the terms are
    built once, for the largest N, and each partial sum is the exactly
    rounded sum of its first N terms, bit for bit the single-N value."""
    Ns = _truncations(Ns)
    if abs(z - round(z.real)) <= _LATTICE_TOL and abs(z.imag) <= _LATTICE_TOL:
        raise PoleOnLattice("z is an integer")
    sums = _prefix_sums(Ns, lambda k: _alternating(k.size) * 2.0 * z / (z * z - k * k))
    return _evals(Ns, sums, lambda s: 1.0 / z + s, lambda: math.pi / cmath.sin(math.pi * z),
                  lambda N: 8.0 * abs(z) / (3.0 * N) if N >= 2.0 * abs(z) else math.inf)


@takes(z=POINT, N=SIZE(1))
def cosecant_series(z: complex, N: int) -> SeriesEval:
    """Partial sum of  pi / sin(pi z) = 1/z + sum_{k>=1} (-1)^k 2z / (z^2 - k^2)."""
    return cosecant_series_at.__wrapped__(z, (N,))[0]


def _sinh_terms(beta: float, zeta: complex):
    """The terms (-1)^k 2 zeta / (zeta^2 + 4 k^2 beta^2) of the sinh series
    as a function of k: the one term builder of the sinh and Szego series."""
    return lambda k: _alternating(k.size) * 2.0 * zeta \
        / (zeta * zeta + 4.0 * beta * beta * k * k)


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
    return _sinh_evals(beta, z, Ns, _prefix_sums(Ns, _sinh_terms(beta, z)))[0]


@takes(beta=POSITIVE, z=POINT, w=POINT)
def sinh_szego_series_at(beta: float, z: complex, w: complex, Ns) -> tuple:
    """The lists of ``sinh_series(beta, zeta, N)`` and ``szego_series(beta,
    z, w, N)`` for N in ``Ns``, at zeta = z - conj(w), bit for bit, from one
    sum of the sinh terms; it raises wherever either of the two raises."""
    Ns = _truncations(Ns)
    zeta = _zeta(beta, z, w)
    sums = _prefix_sums(Ns, _sinh_terms(beta, zeta))
    return _sinh_evals(beta, zeta, Ns, sums), _szego_evals(beta, z, w, zeta, Ns, sums)


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


@takes(beta=POSITIVE, z=POINT, w=POINT, N=SIZE(1))
def szego_series(beta: float, z: complex, w: complex, N: int) -> SeriesEval:
    """Image-charge series of the strip Szego kernel,
    Q(z, w) = (i / 2 pi) sum_n (-1)^n / (z - conj(w) + 2 n beta i)."""
    Ns = (N,)
    zeta = _zeta(beta, z, w)
    return _szego_evals(beta, z, w, zeta, Ns, _prefix_sums(Ns, _sinh_terms(beta, zeta)))[0]


@takes(beta=POSITIVE, z=POINT, w=POINT)
def bergman_series_at(beta: float, z: complex, w: complex, Ns) -> list:
    """:func:`bergman_series` at each truncation N in ``Ns``, from one term
    array as in :func:`cosecant_series_at`."""
    Ns = _truncations(Ns)
    zeta = _zeta(beta, z, w)
    sums = _prefix_sums(Ns, lambda k: 1.0 / (zeta + 2j * beta * k) ** 2
                        + 1.0 / (zeta - 2j * beta * k) ** 2)
    return _evals(Ns, sums, lambda s: -(1.0 / (4.0 * math.pi ** 2)) * (1.0 / zeta ** 2 + s),
                  lambda: bergman_strip.__wrapped__(beta, z, w),
                  lambda N: 5.0 / (18.0 * math.pi ** 2 * beta * beta * N)
                  if N >= abs(zeta) / beta else math.inf)


@takes(beta=POSITIVE, z=POINT, w=POINT, N=SIZE(1))
def bergman_series(beta: float, z: complex, w: complex, N: int) -> SeriesEval:
    """Image-charge series of the squared kernel,
    Q(z, w)^2 = -(1 / 4 pi^2) sum_k 1 / (z - conj(w) + 2 k i beta)^2,
    absolutely convergent with paired terms ~ -1 / (2 beta^2 k^2)."""
    return bergman_series_at.__wrapped__(beta, z, w, (N,))[0]


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
    # k = 1..2N stands for n = k - 1 in the plus half and for n = -k in the
    # minus half; adjacent pairing keeps each absolutely convergent
    plus, minus = ((1j / (2.0 * math.pi)) * _prefix_sums(
        (2 * N,), lambda k: _alternating(k.size, sign) / (zeta + 2j * beta * n_of(k)))[0]
        for sign, n_of in ((1.0, lambda k: k - 1.0), (-1.0, lambda k: -k)))
    return plus, minus, _evals((N,), [plus + minus], lambda s: s,
                               lambda: szego.__wrapped__(Strip(beta), z, w),
                               lambda N: 1.0 / (2.0 * math.pi * beta * (N - 1))
                               if N >= max(2.0, abs(zeta) / (2.0 * beta) + 1.0)
                               else math.inf)[0]
