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
the terms of :func:`_sinh_terms`, each against its own closed form.  Every
evaluator returns a :class:`SeriesEval` carrying the proven tail bound (valid
once N exceeds the stated threshold; below it the bound is reported as inf)
together with the closed-form value and the actual defect, so soundness
``defect <= tail_bound`` is a one-line assertion; an overflow raises
:class:`ParameterOutOfRange`.

``*_series(..., N)`` is ``*_series_at(..., (N,))``, which gives one
:class:`SeriesEval` per truncation in ``Ns`` (positive integers of at most
2**53): the terms are built once, for the largest N, and every partial sum
is an exactly rounded prefix sum of them (:func:`numerics.comp_sum` with
``ends``), bit for bit the single-N value.

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
from .numerics import _require_positive, comp_sum

_LATTICE_TOL = 1e-12
_MAX_TERMS = 2 ** 53


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
        return self.defect <= self.tail_bound


def _alternating(n: int, first: float = -1.0) -> np.ndarray:
    """n signs alternating from ``first``: (-1)^k for k = 1..n by default,
    filled by slicing (a float ``k % 2`` costs about 25x more)."""
    s = np.full(n, -float(first))
    s[::2] = first
    return s


def _check_inputs(Ns, *points) -> tuple:
    """``Ns`` as a tuple of truncations; rejects anything but a non-empty
    sequence of positive integers of at most 2**53 (beyond it the float
    indices k are no longer exact), and non-finite points: NaN would pass
    the pole tests and come back as a NaN defect."""
    try:
        Ns = tuple(Ns)
    except TypeError:
        Ns = None
    if not Ns or not all(isinstance(N, (int, np.integer)) and 1 <= N <= _MAX_TERMS
                         for N in Ns):
        raise ParameterOutOfRange("truncations must be positive integers of at most "
                                  "2**53, got %r" % (Ns,))
    if not all(cmath.isfinite(complex(p)) for p in points):
        raise ParameterOutOfRange("series points must be finite, got %r"
                                  % (points,))
    return Ns


@np.errstate(all="ignore")      # what overflows is caught below
def _evals(Ns, terms_of, value_of, closed_of, bound_of) -> list:
    """One :class:`SeriesEval` per truncation N, of ``value_of(s)`` at the
    exactly rounded sum s of the first N terms ``terms_of(k)``, k = 1..max(Ns),
    against ``closed_of()``; an overflow raises :class:`ParameterOutOfRange`."""
    try:
        terms = terms_of(np.arange(1.0, max(Ns) + 1.0))
        closed = closed_of()
        values = [value_of(s) for s in comp_sum(terms, Ns).tolist()]
        finite = all(cmath.isfinite(v) for v in values + [closed])
    except (OverflowError, ValueError, ZeroDivisionError):  # cmath, fsum of inf - inf
        finite = False
    if not finite:
        raise ParameterOutOfRange("the series or its closed form overflows double precision")
    return [SeriesEval(v, closed, abs(v - closed), N, bound_of(N))
            for v, N in zip(values, Ns)]


def cosecant_series_at(z: complex, Ns) -> list:
    """:func:`cosecant_series` at each truncation N in ``Ns``: the terms are
    built once, for the largest N, and each partial sum is the exactly
    rounded sum of its first N terms, bit for bit the single-N value."""
    Ns = _check_inputs(Ns, z)
    z = complex(z)
    if abs(z - round(z.real)) <= _LATTICE_TOL and abs(z.imag) <= _LATTICE_TOL:
        raise PoleOnLattice("z is an integer")
    return _evals(Ns, lambda k: _alternating(k.size) * 2.0 * z / (z * z - k * k),
                  lambda s: 1.0 / z + s, lambda: math.pi / cmath.sin(math.pi * z),
                  lambda N: 8.0 * abs(z) / (3.0 * N) if N >= 2.0 * abs(z) else math.inf)


def cosecant_series(z: complex, N: int) -> SeriesEval:
    """Partial sum of  pi / sin(pi z) = 1/z + sum_{k>=1} (-1)^k 2z / (z^2 - k^2)."""
    return cosecant_series_at(z, (N,))[0]


def _sinh_terms(beta: float, zeta: complex):
    """The terms (-1)^k 2 zeta / (zeta^2 + 4 k^2 beta^2) of the sinh series
    as a function of k: the one term builder of the sinh and Szego series."""
    return lambda k: _alternating(k.size) * 2.0 * zeta \
        / (zeta * zeta + 4.0 * beta * beta * k * k)


def _zeta(beta, z, w=None) -> complex:
    """z - conj(w) (z when w is None), off the pole lattice 2 i beta Z."""
    zeta = complex(z) if w is None else complex(z) - complex(w).conjugate()
    if not cmath.isfinite(zeta):
        raise ParameterOutOfRange("z - conj(w) overflows double precision")
    if abs(zeta.real) <= _LATTICE_TOL and \
            abs(math.remainder(zeta.imag, 2.0 * beta)) <= _LATTICE_TOL:
        raise PoleOnLattice("%s lies on the lattice 2 i beta Z"
                            % ("z" if w is None else "z - conj(w)"))
    return zeta


def sinh_series_at(beta: float, z: complex, Ns) -> list:
    """:func:`sinh_series` at each truncation N in ``Ns``, from one term
    array as in :func:`cosecant_series_at`."""
    Ns = _check_inputs(Ns, z)
    _require_positive(beta)
    z = _zeta(beta, z)
    return _evals(Ns, _sinh_terms(beta, z), lambda s: 1.0 / z + s,
                  lambda: (math.pi / (2.0 * beta)) / cmath.sinh(math.pi * z / (2.0 * beta)),
                  lambda N: 2.0 * abs(z) / (3.0 * beta * beta * N)
                  if N >= abs(z) / beta else math.inf)


def sinh_series(beta: float, z: complex, N: int) -> SeriesEval:
    """Partial sum of  (pi/2 beta) / sinh(pi z / 2 beta)
    = 1/z + sum_{k>=1} (-1)^k 2z / (z^2 + 4 k^2 beta^2)."""
    return sinh_series_at(beta, z, (N,))[0]


def szego_series_at(beta: float, z: complex, w: complex, Ns) -> list:
    """:func:`szego_series` at each truncation N in ``Ns``: (i / 2 pi) times
    the sinh series at zeta = z - conj(w), from its terms."""
    Ns = _check_inputs(Ns, z, w)
    _require_positive(beta)
    zeta = _zeta(beta, z, w)
    return _evals(Ns, _sinh_terms(beta, zeta),
                  lambda s: (1j / (2.0 * math.pi)) * (1.0 / zeta + s),
                  lambda: szego(Strip(beta), z, w),
                  lambda N: abs(zeta) / (3.0 * math.pi * beta * beta * N)
                  if N >= abs(zeta) / beta else math.inf)


def szego_series(beta: float, z: complex, w: complex, N: int) -> SeriesEval:
    """Image-charge series of the strip Szego kernel,
    Q(z, w) = (i / 2 pi) sum_n (-1)^n / (z - conj(w) + 2 n beta i)."""
    return szego_series_at(beta, z, w, (N,))[0]


def bergman_series_at(beta: float, z: complex, w: complex, Ns) -> list:
    """:func:`bergman_series` at each truncation N in ``Ns``, from one term
    array as in :func:`cosecant_series_at`."""
    Ns = _check_inputs(Ns, z, w)
    _require_positive(beta)
    zeta = _zeta(beta, z, w)
    return _evals(Ns, lambda k: 1.0 / (zeta + 2j * beta * k) ** 2
                  + 1.0 / (zeta - 2j * beta * k) ** 2,
                  lambda s: -(1.0 / (4.0 * math.pi ** 2)) * (1.0 / zeta ** 2 + s),
                  lambda: bergman_strip(beta, z, w),
                  lambda N: 5.0 / (18.0 * math.pi ** 2 * beta * beta * N)
                  if N >= abs(zeta) / beta else math.inf)


def bergman_series(beta: float, z: complex, w: complex, N: int) -> SeriesEval:
    """Image-charge series of the squared kernel,
    Q(z, w)^2 = -(1 / 4 pi^2) sum_k 1 / (z - conj(w) + 2 k i beta)^2,
    absolutely convergent with paired terms ~ -1 / (2 beta^2 k^2)."""
    return bergman_series_at(beta, z, w, (N,))[0]


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
    (N,) = _check_inputs((N,), z, w)
    _require_positive(beta)
    zeta = _zeta(beta, z, w)

    def one_sided(sign):
        # n runs over sign * {0, 1, ..., 2N-1} for sign=+1, and
        # sign * {1, ..., 2N} for sign=-1; adjacent pairing keeps it absolute.
        n = np.arange(0.0, 2.0 * N) if sign > 0 else -np.arange(1.0, 2.0 * N + 1.0)
        terms = _alternating(n.size, sign) / (zeta + 2j * beta * n)
        return (1j / (2.0 * math.pi)) * comp_sum(terms)

    plus = one_sided(+1)
    minus = one_sided(-1)
    total = plus + minus
    closed = szego(Strip(beta), z, w)
    bound = 1.0 / (2.0 * math.pi * beta * (N - 1)) \
        if N >= max(2.0, abs(zeta) / (2.0 * beta) + 1.0) else math.inf
    return plus, minus, SeriesEval(total, closed, abs(total - closed), N, bound)
