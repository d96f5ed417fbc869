"""Shared numerical machinery: quadrature, exactly rounded sums, Gram reports,
Fourier conventions, and the closed-form transform identities used as oracles
by the higher-level modules.

Summation
---------
:func:`comp_sum` sums real or complex terms along the last axis, so an
(m, n) array gives m row sums, and every real row sum (each part of a
complex one) is bit for bit the float ``math.fsum`` returns (or fsum's
exception).  Given ``ends``, a sequence of prefix lengths L, it returns
instead the sums of every prefix ``[..., :L]``, each again fsum's float, all
read off one extraction of the whole rows: a series checked at several
truncations builds its terms once, for the largest.  A row takes one of two
paths, chosen by its length:

* rows of at least ``_VECTOR_MIN_TERMS`` terms go through numpy, a whole
  batch at once: an error-free extraction splits the row into exactly
  summable high parts and a small remainder (the ExtractVector step of
  Rump, Ogita and Oishi, "Accurate floating-point summation part I", SIAM J.
  Sci. Comput. 31(1), 2008), the pieces are combined with the error-free
  TwoSum of Ogita, Rump and Oishi, "Accurate sum and dot product", SIAM J.
  Sci. Comput. 26(6), 2005, and a rounding certificate checks that the
  result is the float nearest the exact sum.  The reductions over a row
  stay in numpy; the few operations per row sum after them are Python
  float arithmetic;
* a prefix: the extraction works term by term with a sigma chosen for the
  whole row, which bounds every prefix too, so the first L high parts sum
  exactly and the certificate holds with n = L (proof at
  ``_fsum_prefixes``);
* early exit: a sum certified after that first extraction is done, as in
  AccSum.  The certificate is sound after either extraction, because each
  leaves sum(x) = tau1 + tau2 + sum(p) exactly (tau2 = 0 after the first)
  and the bound covers every rounding made after that.  It is tried first
  with the proven bound sum|p| <= n eps sigma, which reads no remainder;
  only the sums that bound refuses measure sum|p|, and only those that
  still fail take a second extraction, continued from their remainder,
  and the certificate again.  Of the 32,260 long-row sums a verify suite
  takes over rng seeds 7-26, prefixes included, the bound certifies 31,518
  (97.7%); of the other 742, 340 are all-zero rows, which sum to 0, 7
  certify on the measured sum|p| and 395 take the second extraction (365
  certify).  An ``array-eval`` operation of the benchmark takes 850 such
  sums; the bound refuses 21, 19 all-zero and the two N = 10^5 strip
  series rows, which the measured sum certifies: it spares each of them a
  second extraction, a copy and four passes over 10^5 terms;
* shorter rows, rows with an inf, a NaN or terms near overflow or
  underflow, and every sum all three certificates refuse (a near tie at
  half an ulp, cancellation with sum|x| / |sum x| beyond about 1e17) go to
  ``math.fsum(row.tolist())``, which on a list is 2-4x faster than on an
  ndarray.

Quadrature strategy
-------------------
The library's own boundary integrands go to array rules that call them
once per level on an array of nodes: :func:`trapezoid_circle` and, centred
where the caller knows them peaked, :func:`trapezoid_line`.  The others (an
outer function's modulus, the Riesz, sech and Fourier transforms) go to
QUADPACK (Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, *QUADPACK*,
Springer 1983), one node at a time, whose routines :func:`_quadpack` calls
on scipy's compiled extension as ``scipy.integrate.quad`` would, bit for bit:

* finite intervals: adaptive Gauss-Kronrod (QAGS), or QAGP with breakpoints;
* infinite intervals: QAGI, Gauss-Kronrod on the map x = a + (1 - t)/t, which
  never evaluates the integrand at an infinite point; breakpoints split the
  line into two QAGI tails and one QAGP piece between the outermost points;
* oscillatory Fourier integrals on the line: QAWF cosine/sine weights.

The line rules' error estimates bound the true error of the peaked boundary
integrands used here (Poisson masses near the boundary, flip pairings, the
outer function), which the test suite checks against mpmath.

The first QUADPACK quadrature loads scipy's compiled extension and nothing
else of scipy's: the ``scipy.integrate`` package, and with it scipy's other
subpackages, is never imported (the binding was verified on scipy 1.17.1, and
the tests pin it against ``scipy.integrate.quad``).  Importing the package, and
every closed-form evaluation, leaves scipy unloaded.

Every routine returns an error estimate together with the value, and raises
:class:`ToleranceNotReached` instead of silently returning garbage when the
estimate misses the requested tolerance by a wide margin.  The sech checks
integrate to _SECH_TOL = 1e-11; every Gram report judges positivity at the
one relative tolerance _PSD_TOL = 1e-10.
"""

from __future__ import annotations

import cmath
import functools
import importlib.machinery
import importlib.util
import inspect
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterOutOfRange, ToleranceNotReached

TWO_PI = 2.0 * math.pi
SQRT_TWO_PI = math.sqrt(TWO_PI)


# --------------------------------------------------------------------------
# exactly rounded summation
# --------------------------------------------------------------------------

# Rows shorter than this go straight to math.fsum.  The vectorized path
# costs about 20-25 us per call plus about 3 ns per term against fsum's
# 35-45 ns per term, so for one complex sum (two rows) the two break even
# between 256 and 448 terms, and a batch of 16 rows wins from 128 (timeit,
# min of 15 runs, on a shared Xeon with 2 vCPUs, numpy 2.4).  A verify suite
# sums no row of 192 to 959 terms, so a move inside 256-448 would change
# nothing there; the constant stays at 512.
_VECTOR_MIN_TERMS = 512
_EPS = 2.0 ** -53          # unit roundoff of float64


def _two_sum(a, b):
    """Knuth's error-free TwoSum: s + e == a + b exactly (no overflow)."""
    s = a + b
    bv = s - a
    return s, (a - (s - bv)) + (b - bv)


def _extract(x: np.ndarray, sigma: np.ndarray, q: np.ndarray, out: np.ndarray) -> None:
    """One ExtractVector step: q = (x + sigma) - sigma into the buffer ``q``,
    and the remainder p = x - q into the buffer ``out``."""
    np.add(x, sigma, out=q)
    q -= sigma
    np.subtract(x, q, out=out)


def _certify(tau1, tau2, p_sums, p_abs_sums, n: int):
    """Per row, r = fl(tau1 + tau2 + sum(p)) and whether r is certified to be
    the float nearest that exact sum, for a sum of at most ``n`` remainders p
    (proof at :func:`_fsum_prefixes`).  Takes each row's tau1, tau2, sum(p)
    and sum|p| as lists of floats and returns the list of r and the list of
    verdicts: on the few rows of one sum, Python float arithmetic costs less
    than a numpy call per operation."""
    r, ok = [], []
    for t1, t2, s, a in zip(tau1, tau2, p_sums, p_abs_sums):
        hi, lo = _two_sum(t1, t2)
        c = lo + s
        v, g = _two_sum(hi, c)
        bound = abs(g) + (2.0 * _EPS * abs(c) + 2.0 * n * _EPS * a + 2.0 ** -1022)
        av = abs(v)
        r.append(v)
        ok.append(bound < 0.5 * (av - math.nextafter(av, 0.0)))
    return r, ok


def _fsum_prefixes(x: np.ndarray, ends) -> np.ndarray:
    """Exactly rounded sums of the prefixes ``x[:, :L]`` of each row of the
    2-d float array ``x``, one row of the (len(ends), m) result per L in
    ``ends`` (0 <= L <= n).

    Long rows take the vectorized path: one error-free extraction of the
    whole rows in one scratch block (|x|, then q, then p overwrite it), and
    per prefix three certificates in turn, each tried only on the prefixes
    the one before refused: first with the bound sum|p[:L]| <= L eps sigma,
    which needs no pass over p; then with the measured sum|p[:L]|, for which
    |p| overwrites p in place on those rows; then after a second extraction
    of those prefixes (:func:`_second_extraction`).  A prefix that fails all
    three, and every prefix of a short row, is summed by ``math.fsum``, so
    each sum is the float fsum returns for ``x[i, :L]``, or fsum's exception
    is raised.

    Proof of the certificate.  Each extraction leaves sum(x) = tau1 + tau2
    + sum(p) exactly, with tau2 = 0 after the first.  a + b = tau1 + tau2 and
    r + g = a + c exactly (TwoSum), c = fl(b + fl(sum(p))), so |sum(x) - r|
    <= |g| + eps |c| + n eps sum|p|; the bound doubles both rounding terms
    and adds 2**-1022 for underflow.  Below half the gap from |r| down to
    its neighbour (the smaller gap), r is the float nearest the exact sum.
    The first extraction leaves |p| <= eps sigma term by term, so n eps sigma
    may stand for sum|p| there, and the measured sum is needed only where
    that is too coarse; both leave too large a remainder for a row with
    heavy cancellation, which the second extraction shrinks by
    2**(grow - 53).

    Why one extraction serves every prefix.  The extraction is elementwise:
    q and p of the first L terms do not depend on the terms after them.
    sigma, chosen from the whole row, is at least (n + 2) max|x| >= (L + 2)
    max|x[:L]|, so the first L terms of q are multiples of eps sigma whose
    partial sums stay below sigma, and sum(q[:L]) is exact in any order; the
    identity x[:L] = q[:L] + p[:L] holds term by term.  So a prefix of L
    terms has tau1 = sum(q[:L]) and the remainders p[:L], and the proof
    above holds with n = L.  The second extraction of a prefix continues
    from p[:L] with the row's second sigma, which is again at least
    (L + 2) max|p[:L]|.
    """
    m, n = x.shape
    out = np.empty((len(ends), m))
    if n < _VECTOR_MIN_TERMS:
        for j, L in enumerate(ends):
            out[j] = [math.fsum(row) for row in x[:, :L].tolist()]
        return out
    with np.errstate(all="ignore"):
        p = np.abs(x)
        mu = p.max(1)
        # sigma = 2**k >= (n + 2) max|x|: then q = (sigma + x) - sigma is
        # exact, a multiple of eps * sigma, and sum(q) is exact in any order,
        # while p = x - q is exact with |p| <= eps * sigma (the ExtractVector
        # step of Rump, Ogita and Oishi).  max|x| >= 2**-800 keeps both
        # sigmas normal; sigma <= 2**990 keeps fsum's partials from
        # overflowing; a row with an inf or NaN has no such sigma
        grow = (n + 1).bit_length()
        k = np.frexp(mu)[1] + grow
        sigma = np.ldexp(1.0, k)[:, None]
        np.add(x, sigma, out=p)
        p -= sigma
        tau1 = [p[:, :L].sum(1).tolist() for L in ends]
        np.subtract(x, p, out=p)
        p_sums = [p[:, :L].sum(1).tolist() for L in ends]
        # a row out of range is never certified; of the refused rows, one in
        # range goes on to the next certificate, an all-zero one sums to
        # exactly 0 (for which fsum gives +0.0), and the rest go to fsum
        mus, sigmas = mu.tolist(), sigma.ravel().tolist()
        in_range = [grow - 800 <= e <= 990 and a < math.inf
                    for e, a in zip(k.tolist(), mus)]
        zeros = [0.0] * m
        first = [_certify(t, zeros, s, [L * _EPS * v for v in sigmas], L)
                 for t, s, L in zip(tau1, p_sums, ends)]
        refused = [[i for i, good in enumerate(ok) if not good and in_range[i] and mus[i] != 0.0]
                   for _, ok in first]
        # every signed sum of p is taken: |p| overwrites the rows refused
        for i in {i for rows in refused for i in rows}:
            np.abs(p[i], out=p[i])
        for j, L in enumerate(ends):
            r, ok = first[j]
            ok = [good and fine for good, fine in zip(ok, in_range)]
            rows = refused[j]
            if rows:
                measured = _certify([tau1[j][i] for i in rows], zeros,
                                    [p_sums[j][i] for i in rows],
                                    [float(p[i, :L].sum()) for i in rows], L)
                for i, v, good in zip(rows, *measured):
                    r[i], ok[i] = v, good
                again = [i for i in rows if not ok[i]]
                if again:
                    second = _second_extraction(x, sigma, grow, again, L,
                                                [tau1[j][i] for i in again])
                    for i, v, good in zip(again, *second):
                        r[i], ok[i] = v, good
            for i, good in enumerate(ok):
                if not good:
                    r[i] = 0.0 if mus[i] == 0.0 else math.fsum(x[i, :L].tolist())
            out[j] = r
    return out


def _second_extraction(x: np.ndarray, sigma: np.ndarray, grow: int, rows: list, L: int,
                       tau1: list):
    """r and the verdicts, as :func:`_certify` gives them, for the prefixes
    ``x[rows, :L]`` after a second extraction: their first remainders p are
    formed again (the same bits; the scratch block holds |p| by now), and
    the second extraction continues from them with sigma * 2**(grow - 53)."""
    p = x[rows, :L]                     # a copy, which p overwrites
    q = np.empty_like(p)
    s = sigma[rows]
    _extract(p, s, q, p)
    _extract(p, s * 2.0 ** (grow - 53), q, p)
    return _certify(tau1, q.sum(1).tolist(), p.sum(1).tolist(),
                    np.abs(p, out=q).sum(1).tolist(), L)


def _rows(values):
    """``values`` as a 2-d array of rows, complex if it holds a complex
    number and float otherwise, plus the shape of the row sums."""
    arr = np.atleast_1d(np.asarray(
        values if isinstance(values, np.ndarray) else list(values)))
    arr = arr.astype(complex if arr.dtype.kind == "c" else float, copy=False)
    return arr.reshape(math.prod(arr.shape[:-1]), arr.shape[-1]), arr.shape[:-1]


def _prefix_ends(ends, n: int) -> tuple:
    """The prefix lengths to sum in rows of n terms: ``ends``, or the whole
    row when it is None."""
    if ends is None:
        return (n,)
    return tuple(_require_count(L, "a prefix end", 0, n) for L in ends)


def comp_sum(values, ends=None):
    """Exactly rounded sum of real or complex terms along the last axis.

    A 1-d input (or any iterable) gives one sum, an (m, n) input m row
    sums.  Real terms give floats, and every sum is bit for bit the float
    ``math.fsum`` returns for that row (fsum's ``OverflowError`` /
    ``ValueError`` is raised where it would raise); complex terms give
    complex sums, whose real and imaginary parts are each summed so.

    Given a sequence ``ends`` of prefix lengths, it returns instead the array
    of the sums of ``values[..., :L]`` for each L, stacked along a new first
    axis, all read off one extraction of the whole rows.
    """
    rows, shape = _rows(values)
    m, n = rows.shape
    prefixes = _prefix_ends(ends, n)
    if rows.dtype.kind == "c":
        parts = _fsum_prefixes(np.concatenate((rows.real, rows.imag)), prefixes)
        sums = _complex(parts[:, :m], parts[:, m:])
    else:
        sums = _fsum_prefixes(rows, prefixes)
    if ends is None:
        return sums[0, 0].item() if shape == () else sums[0].reshape(shape)
    return sums.reshape(sums.shape[:1] + shape)


# --------------------------------------------------------------------------
# array arguments
# --------------------------------------------------------------------------

_SCALARS = (complex, float, int)       # numpy float64/complex128 subclass these
_ARRAY_LIKE = (np.ndarray, np.generic, str, bytes) + _SCALARS   # np.asarray takes these whole
# 2**13 complex terms are 128 KiB, glibc's default mmap threshold: blocks of
# up to about 150 KiB are reused from the heap, while (4, 3201) and larger
# complex blocks are mapped afresh and fault in on every call
_BLOCK_TERMS = 1 << 13


def is_batch(*args) -> bool:
    """Whether any argument is an array (or sequence) with at least one axis.

    :func:`~rphardy.kernels.szego` keeps a scalar math/cmath body beside
    its numpy one and picks it when this is false (Python and numpy scalars
    and 0-d arrays): one element through numpy costs about 20x more, and a
    verify suite makes some 660 one-point calls.  Functions with
    one numpy body, such as :func:`~rphardy.kernels.power_kernel`, run it on
    0-d arrays.  A list or tuple is a batch even where numpy cannot shape it
    (ragged), so that :func:`finite_array` rejects it.
    """
    for a in args:      # a plain loop: any() over a generator costs 3x more
        if not isinstance(a, _SCALARS) and (isinstance(a, (list, tuple)) or np.ndim(a)):
            return True
    return False


def _complex(re, im) -> np.ndarray:
    """The complex array re + i im in the shape of ``re``, each part stored
    exactly as given (re + 1j * im would turn a -0.0 real part into +0.0)."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def finite_array(values, what: str, dtype=float) -> np.ndarray:
    """``values`` (a number, an array or any iterable) as a float array, 0-d
    for a number, or with ``dtype`` complex as a complex array if it holds a
    complex number (a real one stays real); raises
    :class:`ParameterOutOfRange` naming ``what`` unless it is a number or a
    rectangular array of numbers that ``dtype`` holds (not a complex for
    float, nor None or "1j", which numpy would read as NaN and a number),
    every one finite (the message then names the first value that is
    not)."""
    try:
        arr = np.asarray(values if isinstance(values, _ARRAY_LIKE) else list(values))
    except (TypeError, ValueError):     # not iterable, or ragged
        arr = None
    if arr is None or arr.dtype.kind not in ("biufc" if dtype is complex else "biuf"):
        raise ParameterOutOfRange("%s must be a rectangular array of numbers" % what)
    arr = arr.astype(complex if arr.dtype.kind == "c" else float, copy=False)
    finite = np.isfinite(arr)
    if not finite.all():
        raise ParameterOutOfRange("%s must be finite, got %r" % (what, arr[~finite][0].item()))
    return arr


def finite_point(z, what: str = "a point") -> complex:
    """z as a Python complex: the guard of one point, the kind ``POINT``.  A
    Python or numpy number costs ``complex()`` and ``cmath.isfinite``; None,
    a string, an array with an axis, anything ``complex()`` does not take,
    NaN and +-inf raise :class:`ParameterOutOfRange` naming ``what``."""
    try:
        if isinstance(z, _SCALARS) or not (isinstance(z, (str, bytes)) or np.ndim(z)):
            p = complex(z)      # complex() would read the string "1j" as a number
            if cmath.isfinite(p):
                return p
    except (TypeError, ValueError, OverflowError):  # not a number, ragged, or huge
        pass
    raise ParameterOutOfRange("%s must be a finite complex number, got %r" % (what, z))


def finite_points(z, what: str):
    """One point as :func:`finite_point` gives it, or a batch (see
    :func:`is_batch`) as :func:`finite_array` gives it with ``complex``, a
    real batch as a float array: the kind ``POINTS``."""
    if isinstance(z, _SCALARS) or not is_batch(z):
        return finite_point(z, what)
    return finite_array(z, what, complex)


def finite_real(r, what: str) -> float:
    """r as a Python float: the guard of one real number, the kind ``REAL``.
    It takes what :func:`finite_array` takes as floats, with no axis; one
    complex number, whatever its imaginary part, is refused as not real."""
    if isinstance(r, (complex, np.complexfloating)) or \
            (isinstance(r, np.ndarray) and r.dtype.kind == "c" and not r.ndim):
        raise ParameterOutOfRange("%s must be real, got %r" % (what, r))
    r = finite_array(r, what)
    if r.ndim:
        raise ParameterOutOfRange("%s must be one number, got shape %r" % (what, r.shape))
    return float(r)


def _require_positive(value, name: str = "beta"):
    """``value`` unchanged if it is a finite number > 0, else
    :class:`ParameterOutOfRange` naming ``name``: the kind ``POSITIVE``."""
    try:
        ok = value > 0.0 and math.isfinite(value)
    except (TypeError, ValueError, OverflowError):  # not a number, an array, or an int past float
        ok = False
    if not ok:
        raise ParameterOutOfRange("need finite %s > 0, got %r" % (name, value))
    return value


def _require_count(n, what: str, least=None, most=None):
    """``n`` unchanged if it is a Python or numpy integer in [least, most]
    (an end that is None is open), else :class:`ParameterOutOfRange` naming
    ``what``: the kinds ``COUNT(least)`` and ``SIZE(least)``."""
    if not (isinstance(n, (int, np.integer)) and (least is None or n >= least)
            and (most is None or n <= most)):
        raise ParameterOutOfRange("%s must be an integer%s%s, got %r" % (
            what, "" if least is None else " >= %d" % least,
            "" if most is None else " and <= %d" % most, n))
    return n


POINT, POINTS, REAL, POSITIVE = finite_point, finite_points, finite_real, _require_positive


def COUNT(least):
    """The kind of an integer of at least ``least`` (of any integer, None)."""
    return functools.partial(_require_count, least=least)


# the most terms, nodes or points a SIZE takes (16 MiB of complex)
_MAX_SIZE = 2 ** 20 + 1


def SIZE(least):
    """The kind of a count that sizes an array: COUNT(least), at most _MAX_SIZE."""
    return functools.partial(_require_count, least=least, most=_MAX_SIZE)


# public function -> its declaration {parameter: kind}, in the order declared
CONTRACTS: dict = {}


def takes(**kinds):
    """Declare the numeric parameters of a public function by kind, as in
    ``@takes(z=POINT, beta=POSITIVE, N=COUNT(1))``, its one argument
    contract: each call passes every declared argument it is given (not a
    default) through the kind's guard ``(value, name) -> value``, in the
    order declared, and calls the function with what the guards return.  The
    declaration goes into :data:`CONTRACTS`, which the contract tests read.
    A declared function passes arguments it has guarded to another one's
    ``__wrapped__`` body."""
    def declare(f):
        code = inspect.unwrap(f).__code__   # np.errstate's wrapper shows *args
        names = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
        guards = [(names.index(name), name, kind) for name, kind in kinds.items()]

        @functools.wraps(f)
        def guarded(*args, **kwargs):
            args = list(args)
            for i, name, kind in guards:
                if i < len(args):
                    args[i] = kind(args[i], name)
                elif name in kwargs:
                    kwargs[name] = kind(kwargs[name], name)
            return f(*args, **kwargs)

        CONTRACTS[guarded] = kinds
        return guarded
    return declare


def finite_pairs(values, what: str, dtype=float) -> np.ndarray:
    """:func:`finite_array` of a sequence of pairs, as an (m, 2) array; raises
    :class:`ParameterOutOfRange` for anything but pairs (a flat list of two
    numbers is not one pair)."""
    arr = finite_array(values, what, dtype)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ParameterOutOfRange("%s must be a sequence of pairs, got shape %r"
                                  % (what, arr.shape))
    return arr


def row_blocks(m: int, n: int) -> list:
    """Slices covering ``range(m)`` with at most about 2**13 / n rows each
    (one row at least), so an (m, n) batch of summands is built and summed
    one block at a time and peak memory stays near that of a single
    block."""
    step = max(1, _BLOCK_TERMS // max(n, 1))
    return [slice(i, i + step) for i in range(0, m, step)]


# --------------------------------------------------------------------------
# quadrature
# --------------------------------------------------------------------------

def _tolerance_guard(value: complex, err: float, tol: float,
                     what: str = "quadrature error estimate") -> None:
    if not np.isfinite(err) or err > 50.0 * tol * (1.0 + abs(value)):
        raise ToleranceNotReached("%s %.3e misses target %.3e" % (what, err, tol))


@functools.cache
def _extension():
    """scipy's compiled QUADPACK extension, ``scipy/integrate/_quadpack``,
    loaded by itself on the first quadrature.  Importing it through the
    ``scipy.integrate`` package would run that package's ``__init__``, which
    loads some 350 scipy modules (optimize, sparse, linalg, special, ...)."""
    scipy = importlib.util.find_spec("scipy")
    spec = scipy and importlib.machinery.PathFinder.find_spec(
        "_quadpack", [os.path.join(d, "integrate") for d in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError("scipy's compiled QUADPACK extension scipy/integrate/_quadpack "
                          "was not found")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _quadpack(f, a, b, tol, *, limit=50, points=None, weight=None, wvar=None):
    """QUADPACK over [a, b], a < b, returning ``(value, error_estimate)``: bit
    for bit ``scipy.integrate.quad(f, a, b, epsabs=tol / 4, epsrel=1e-12,
    limlst=120, full_output=1, ...)[:2]``, whose dispatch (scipy 1.17.1,
    ``_quad`` and ``_quad_weight``) it repeats for the four routines used here:

    * finite [a, b]: QAGS, or QAGP with the distinct ``points`` inside (a, b);
    * an infinite end, no ``points``: QAGI on [a, inf), (-inf, b] or the line;
    * ``weight`` "cos" / "sin" on [a, inf): QAWF at frequency ``wvar``.

    QUADPACK's failure flags do not raise: the error estimate goes through
    :func:`_tolerance_guard` instead.  Its flag 6, input it refuses, raises
    :class:`ParameterOutOfRange`, as does a ``tol`` that is not a finite
    number > 0 or whose quarter underflows to 0.  An exception raised by
    ``f`` comes out unchanged."""
    _require_positive(tol, "tol")
    epsabs = tol / 4
    if epsabs == 0.0:
        raise ParameterOutOfRange("tol / 4 underflows to 0 at tol = %r" % (tol,))
    quadpack = _extension()
    if weight is not None:
        code = {"cos": 1, "sin": 2}[weight]
        out = quadpack._qawfe(f, a, wvar, code, (), 1, epsabs, _QAWF_CYCLES, limit, 50)
    elif points is not None:
        pts = np.unique(points)
        pts = np.concatenate((pts[(a < pts) & (pts < b)], (0.0, 0.0)))
        out = quadpack._qagpe(f, a, b, pts, (), 1, epsabs, _QUAD_EPSREL, limit)
    elif math.isinf(a) or math.isinf(b):
        bound, inf = (b, -1) if math.isinf(a) else (a, 1)
        if math.isinf(bound):
            bound, inf = 0.0, 2
        out = quadpack._qagie(f, bound, inf, (), 1, epsabs, _QUAD_EPSREL, limit)
    else:
        out = quadpack._qagse(f, a, b, (), 1, epsabs, _QUAD_EPSREL, limit)
    if out[-1] == 6:
        raise ParameterOutOfRange("QUADPACK refused its input on [%r, %r] at tol = %r"
                                  % (a, b, tol))
    return out[:2]


def quad_real(f, a, b, *, tol: float = 1e-10, points=None):
    """Integrate a real scalar function over [a, b], returning
    ``(value, error_estimate)``.

    Infinite endpoints are allowed, with or without ``points``; as in
    QUADPACK, only breakpoints strictly inside (a, b) are used.  Raises
    :class:`ParameterOutOfRange` for a NaN endpoint or a breakpoint that is
    not finite, and :class:`ToleranceNotReached` when the estimate misses
    ``tol`` or an infinite end fails :func:`_require_tail_decay`.
    A narrow peak far from 0 needs its location in ``points``, or QAGI may
    step over it: the half-plane Poisson kernel at 1e5 + 1j integrates to
    -6.3e-11 (estimated error 2.2e-12), and to 1 with ``points=[1e5]``.
    """
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        raise ParameterOutOfRange("quadrature endpoints must not be NaN, got [%r, %r]"
                                  % (a, b))
    if b < a:
        value, err = quad_real(f, b, a, tol=tol, points=points)
        return -value, err
    pieces, pts = [(a, b, None)], np.empty(0)
    if points is not None:
        pts = finite_array(points, "quadrature breakpoints").ravel()
        pts = pts[(pts > a) & (pts < b)]
        if pts.size and (math.isinf(a) or math.isinf(b)):
            # QAGP takes no infinite endpoint: QAGI tails outside the
            # outermost breakpoints, QAGP between them (it drops the two
            # that are its own endpoints)
            lo, hi = float(pts.min()), float(pts.max())
            pieces = [(a, lo, None), (lo, hi, pts), (hi, b, None)]
        elif pts.size:
            pieces = [(a, b, pts)]
    value = err = 0.0
    for lo, hi, piece_pts in pieces:
        if lo < hi:
            v, e = _quadpack(f, lo, hi, tol, limit=400, points=piece_pts)
            value += v
            err += e
    _tolerance_guard(value, err, tol)
    if a < b:
        finite = [v for v in (a, b) if math.isfinite(v)] + pts.tolist()
        if math.isinf(a):
            _require_tail_decay(f, min(finite, default=0.0), -1.0)
        if math.isinf(b):
            _require_tail_decay(f, max(finite, default=0.0), 1.0)
    return value, err


# rungs of the tail ladder of _require_tail_decay, in units of max(1, |c|)
_TAIL_LADDER = (2.0 ** 8, 2.0 ** 12, 2.0 ** 16, 2.0 ** 20)


def _require_tail_decay(f, c: float, sign: float) -> None:
    """Raise :class:`ToleranceNotReached` unless |f(x)| |x| falls along the
    ladder x = c + sign max(1, |c|) 16^k, k = 2..5, past the outermost
    finite point c of an infinite end: its last rung must be 0 or below half
    the largest of the others.  A tail that decays no faster than 1/|x| has
    no integral, and QUADPACK can still return a value for it (an odd 1/x
    tail gives 0 with a zero error estimate)."""
    s = max(1.0, abs(c))
    v = [abs(f(x)) * abs(x) for x in (c + sign * s * r for r in _TAIL_LADDER)]
    if not (v[-1] == 0.0 or v[-1] < 0.5 * max(v[:-1])):
        raise ToleranceNotReached(
            "integrand does not decay faster than 1/|x| toward %s: |f(x) x| = %r; "
            "a narrow peak far from 0 needs its location in points"
            % ("+inf" if sign > 0 else "-inf", v))


def quad(f, a, b, *, tol: float = 1e-10, points=None):
    """Integrate a complex-valued scalar function over [a, b].

    Infinite endpoints are allowed.  Returns ``(value, error_estimate)`` where
    the estimate is the sum of the real- and imaginary-part estimates.  A
    narrow peak far from 0 needs ``points``, as in :func:`quad_real`.

    The real and imaginary parts are two QUADPACK runs; ``f`` is called once
    per distinct x, because the second run reuses the values the first one
    computed (``f`` must be deterministic).
    """
    seen = {}

    def real_part(x):
        v = seen[x] = f(x)
        return v.real

    def imag_part(x):
        # 0.0 and -0.0 share one key but may give different values
        v = seen.get(x) if x else None
        return (f(x) if v is None else v).imag

    re, re_err = quad_real(real_part, a, b, tol=tol, points=points)
    im, im_err = quad_real(imag_part, a, b, tol=tol, points=points)
    return complex(re, im), re_err + im_err


_QAWF_LEAST_T = 1e-2    # below it oscillatory_ft tries QAGI first
_QAWF_FLOOR = 1e-200    # below it oscillatory_ft never calls QAWF
_FT_TOL = 1e-10         # the quadrature tolerance of oscillatory_ft
_QAWF_CYCLES = 120      # the most cycles QAWF sums (its limlst)
_QUAD_EPSREL = 1e-12    # the relative tolerance of QAGS, QAGP and QAGI


@takes(t=REAL)
def oscillatory_ft(f, t: float) -> complex:
    """Fourier integral  Integral_R f(x) e^{itx} dx  for real-valued decaying f.

    Splits into even/odd parts and uses QUADPACK's cosine/sine weights on
    [0, inf).  Two kinds of f are known to come back wrong without an
    error: an f much narrower than QAWF's first cycle, as e^{-|x|/0.01} at
    t = 0.02, which returns 2.6e-29 against 0.02, and a slowly decaying f
    at small |t|, as 1/(1 + x^2), whose transform pi e^{-|t|} comes back off
    by 3.1e-4 at t = 1e-4 and as -3.1e-6 at t = 1e-6.  t must be one finite
    real (QAWF crashes on NaN or inf),
    and a value of f that is not finite raises :class:`ToleranceNotReached`
    before QAWF sees it, as it would crash QAWF too.

    Below |t| = _QAWF_LEAST_T, t = 0 included, f(x) e^{itx} is first
    integrated over the line by :func:`quad`, one call of f per node: QAWF's
    first cycle, [0, pi/|t|], is then so long that its nodes can step over f
    altogether (it returned 0 for e^{-|x|} at t = 1e-4).  QAWF takes over only
    where that misses the tolerance (an f that decays like 1/x^2), and never
    below |t| = _QAWF_FLOOR, where a cycle near the float range crashed it.
    """
    if abs(t) < _QAWF_LEAST_T:
        def weighted(x):
            v = f(x)
            return complex(v * math.cos(t * x), v * math.sin(t * x))
        try:
            value, err = quad(weighted, -np.inf, np.inf, tol=_FT_TOL)
            _tolerance_guard(value, err, _FT_TOL)
            return value
        except ToleranceNotReached:
            if abs(t) < _QAWF_FLOOR:
                raise
    w = abs(t)

    def part(sign):     # the even (sign 1) or odd (sign -1) part of f
        def g(x):
            v = f(x) + sign * f(-x)
            if not math.isfinite(v):
                raise ToleranceNotReached("the integrand is %r at x = %r" % (v, x))
            return v
        return g

    re, re_err = _quadpack(part(1.0), 0, np.inf, _FT_TOL, weight="cos", wvar=w)
    im, im_err = _quadpack(part(-1.0), 0, np.inf, _FT_TOL, weight="sin", wvar=w)
    value = complex(re, math.copysign(1.0, t) * im)
    _tolerance_guard(value, re_err + im_err, _FT_TOL)
    return value


@takes(n_nodes=SIZE(1))
def trapezoid_circle(f, n_nodes: int = 1024) -> complex:
    """Integral_0^{2 pi} f(t) dt by the n-node trapezoid rule.

    ``f`` is called once, with the (n_nodes,) array of nodes 2 pi j / n, and
    returns the (n_nodes,) array of values; a scalar result is taken as
    constant on the circle.  Any other shape, and an ``n_nodes`` that is not
    a positive integer, raises :class:`ParameterOutOfRange`.

    For smooth 2 pi-periodic integrands the rule converges geometrically, so
    2**10 nodes deliver machine accuracy for every circle integral used here.
    """
    t = TWO_PI * np.arange(n_nodes) / n_nodes
    vals = np.asarray(f(t), dtype=complex)
    try:
        vals = np.broadcast_to(vals, t.shape)
    except ValueError:
        raise ParameterOutOfRange("circle integrand gave shape %r on %d nodes"
                                  % (vals.shape, n_nodes)) from None
    return complex(TWO_PI / n_nodes * comp_sum(vals))


# trapezoid_line's widest window, |s| <= 48 (a 1/x^2 tail is e^{-|s|} in s),
# and first step, whose error by a pole pi/2 off the axis is e^{-pi^2/h} = 3e-9
_LINE_REACH = 48
_LINE_STEP = 0.5
_FLOAT_MAX = sys.float_info.max


@takes(centre=REAL, dist=POSITIVE, tol=POSITIVE)
def trapezoid_line(f, centre: float, dist: float, tol: float = 1e-10):
    """Integral_R f(x) dx by the trapezoid rule in s on x = centre + dist
    sinh(s), returning ``(value, error_estimate)`` (a float for a real f).

    For f analytic about the line and decaying at least like 1/x^2 the rule
    converges geometrically (Trefethen and Weideman, SIAM Review 56, 2014;
    it is the sinh-sinh rule of Takahasi and Mori, 1974) when ``centre`` is
    where f peaks and ``dist`` the distance of its nearest pole, which then
    lies about pi/2 from the real s-axis; a peak narrower than the step far
    from the centre may be stepped over.  ``f`` is called once per level on
    the array of that level's new nodes.  The first level, at step
    _LINE_STEP over |s| <= _LINE_REACH (less where x would overflow), keeps
    the window outside which each term f(x) dist cosh(s) is below 2**-53 of
    their sum, and a node on each side; each further level halves the step
    in it.  The value is accepted once two levels agree within tol or within
    the rounding floor.  The estimate adds the terms outside the window, the
    two outermost ones (for the tails) and the floor eps h sum_k (100 |term_k|
    + 2 |f_k| (|x_k| + |centre|)): the 50 machine epsilons a term under
    QUADPACK's estimates, and f next to a double pole at arguments rounded by
    eps (|x| + |centre|).  A tail that does not decay, a level past _MAX_SIZE
    nodes, a missed tol and a value of f that is not finite raise
    :class:`ToleranceNotReached`.
    """
    reach = int(min(_LINE_REACH, math.asinh(0.5 * (_FLOAT_MAX - abs(centre)) / float(dist))))
    if reach == 0:
        raise ToleranceNotReached("the line about %r at scale %r leaves the float range"
                                  % (centre, dist))
    h = _LINE_STEP
    s = h * np.arange(-reach / h, reach / h + 1.0)
    g, floor_terms = _line_terms(f, centre, dist, s)
    size = np.abs(g)
    big = np.flatnonzero(size > _EPS * size.sum())
    if not big.size:
        return comp_sum(g), 0.0
    lo, hi = max(big[0] - 1, 0), min(big[-1] + 1, s.size - 1)
    parts = [comp_sum(g[lo:hi + 1])]
    value = h * parts[0]
    tail = float(h * (size[:lo].sum() + size[hi + 1:].sum()) + size[0] + size[-1])
    _tolerance_guard(value, tail, tol, "the line integrand does not decay: its tail")
    floor_sum, steps = floor_terms[lo:hi + 1].sum(), hi - lo
    while True:
        h *= 0.5
        if 2 * steps + 1 > _MAX_SIZE:
            raise ToleranceNotReached("the line rule took %d nodes and did not converge to %.3e"
                                      % (steps + 1, tol))
        g, floor_terms = _line_terms(f, centre, dist, s[lo] + h * np.arange(1, 2 * steps, 2))
        parts.append(comp_sum(g))
        floor_sum += floor_terms.sum()
        steps *= 2
        new, floor = h * comp_sum(parts), _EPS * h * float(floor_sum)
        diff, value = abs(new - value), new
        if diff <= max(tol, floor):
            break
    err = diff + floor + tail
    _tolerance_guard(value, err, tol)
    return value, err


def _line_terms(f, centre: float, dist: float, s: np.ndarray):
    """The terms f(x) dist cosh(s) at x = centre + dist sinh(s), and those of
    the rounding floor; f runs with numpy's warnings off (a far node may
    overflow an intermediate of a finite value), and a value that is not
    finite raises :class:`ToleranceNotReached`."""
    x = centre + dist * np.sinh(s)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v = np.asarray(f(x))
        try:
            g = v * (dist * np.cosh(s))
        except ValueError:
            raise ParameterOutOfRange("line integrand gave shape %r on %d nodes"
                                      % (v.shape, x.size)) from None
        floor_terms = 100.0 * np.abs(g) + 2.0 * np.abs(v) * (np.abs(x) + abs(centre))
        total = floor_terms.sum()
    if not math.isfinite(total):
        bad = float(x[np.argmax(~np.isfinite(floor_terms))])
        raise ToleranceNotReached("the line integrand is not finite, or too large to sum, "
                                  "near x = %r" % (bad,))
    return g, floor_terms


# --------------------------------------------------------------------------
# Gram matrices
# --------------------------------------------------------------------------

_PSD_TOL = 1e-10    # of every PSD verdict, which GramReport.tolerance reports


@dataclass
class GramReport:
    """Result of a positive-semidefiniteness test of a Gram matrix."""

    size: int
    hermiticity_defect: float
    min_eigenvalue: float
    max_eigenvalue: float
    spectral_norm: float
    deficit: float       # max(0, -min_eigenvalue) / max(1, spectral_norm)
    tolerance: float
    verdict: bool        # deficit <= tolerance


@takes(G=POINTS)
def gram_report(G: np.ndarray) -> GramReport:
    """PSD verdict for a (nominally Hermitian) Gram matrix.

    The verdict is ``deficit <= _PSD_TOL``; the spectral norm in the deficit
    is that of the Hermitian part, which is what the eigenvalue test sees.
    A real matrix, or a complex one whose imaginary part is identically
    zero, is solved as the real symmetric matrix it is, at about a third of
    the complex solver's cost.  A defect or an eigenvalue that overflows
    raises :class:`ParameterOutOfRange`.
    """
    G = np.atleast_2d(G)
    if G.shape[0] != G.shape[1]:
        raise ParameterOutOfRange("Gram matrix must be square, got %r" % (G.shape,))
    if G.size == 0:
        raise ParameterOutOfRange("Gram matrix is empty: no sample points")
    if G.dtype.kind == "c" and not G.imag.any():
        G = G.real
    # G / 2 + G^H / 2, the Hermitian part, and G / 2 - G^H / 2 do not overflow
    half = 0.5 * G
    half_h = half.conj().T
    herm_defect = 2.0 * float(np.max(np.abs(half - half_h)))
    eigs = np.linalg.eigvalsh(half + half_h)
    lo, hi = float(eigs[0]), float(eigs[-1])
    norm = max(abs(lo), abs(hi))
    if not math.isfinite(herm_defect + norm):
        raise ParameterOutOfRange("the Gram matrix's defect or spectrum overflows")
    deficit = max(0.0, -lo) / max(1.0, norm)
    return GramReport(
        size=G.shape[0],
        hermiticity_defect=herm_defect,
        min_eigenvalue=lo,
        max_eigenvalue=hi,
        spectral_norm=norm,
        deficit=deficit,
        tolerance=_PSD_TOL,
        verdict=deficit <= _PSD_TOL,
    )


# --------------------------------------------------------------------------
# closed-form transform identities (used as oracles elsewhere)
# --------------------------------------------------------------------------

@dataclass
class IdentityCheck:
    """One numerically evaluated identity: lhs, rhs, and their disagreement."""

    lhs: complex
    rhs: complex
    defect: float
    tail_bound: float | None = None


def lorentzian(s: float, x) -> float:
    """Normalized Lorentzian density (1/pi) s / (s^2 + x^2), total mass 1."""
    return s / (math.pi * (s * s + x * x))


@takes(beta=POSITIVE, lam=POSITIVE, x=REAL, K=SIZE(1))
def poisson_summation_check(beta: float, lam: float, x: float, K: int) -> IdentityCheck:
    """Periodization of the Lorentzian against its closed geometric form.

    lhs: sum over |k| <= K of  psi_s(k) e^{i k x 2 pi / beta},  s = beta lam / (2 pi)
    rhs: (e^{-lam x} + e^{-lam (beta - x)}) / (1 - e^{-lam beta}),  0 <= x <= beta.

    The omitted tail is bounded by 2 s / (pi K): |psi_s(k)| <= s/(pi k^2) and
    sum_{k>K} k^{-2} < 1/K.
    """
    if not 0.0 <= x <= beta:
        raise ParameterOutOfRange("x must lie in [0, beta]")
    if not beta * lam >= 1e-150:    # psi_s(0) = 1 / (pi s) overflows
        raise ParameterOutOfRange("beta lam must be at least 1e-150, got %r" % (beta * lam,))
    s = beta * lam / TWO_PI
    lhs = _periodized_lorentzian(beta, lam, x, K)
    rhs = (math.exp(-lam * x) + math.exp(-lam * (beta - x))) / (-math.expm1(-lam * beta))
    tail = 2.0 * s / (math.pi * K)
    return IdentityCheck(lhs=lhs, rhs=rhs, defect=abs(lhs - rhs), tail_bound=tail)


def _periodized_lorentzian(beta: float, lam: float, x: float, K: int) -> float:
    """sum over |k| <= K of psi_s(k) cos(2 pi k x / beta), s = beta lam / (2 pi),
    exactly rounded: the one body of this series, which
    :func:`rphardy.rpfunc.phi_circle_partial_sum` rescales."""
    s = beta * lam / TWO_PI
    k = np.arange(1, K + 1, dtype=float)
    terms = 2.0 * lorentzian(s, k) * np.cos(k * TWO_PI * x / beta)
    return lorentzian(s, 0.0) + comp_sum(terms)


_SECH_TOL = 1e-11   # the quadrature tolerance of the sech checks


def _sech_ft(p: float, n: int) -> float:
    """Integral cos(p u) / cosh(u)^n du over the line, the one integral of the
    sech checks; 1 / cosh^n is formed overflow-free (0 in the far tails)."""
    def integrand(u):
        e = math.exp(-abs(u))
        return math.cos(p * u) * (2.0 * e / (1.0 + e * e)) ** n
    return quad_real(integrand, -np.inf, np.inf, tol=_SECH_TOL)[0]


def sech_ft_check(xi: float) -> IdentityCheck:
    """Integral e^{i x xi} / cosh(x) dx  =  pi / cosh(pi xi / 2)."""
    lhs = _sech_ft(xi, 1)
    rhs = math.pi / math.cosh(math.pi * xi / 2.0)
    return IdentityCheck(lhs=lhs, rhs=rhs, defect=abs(lhs - rhs))


def sech2_ft_check(lam: float) -> IdentityCheck:
    """(1/sqrt(2 pi)) Integral e^{i x lam} / cosh(x)^2 dx
    = sqrt(pi/2) * lam / sinh(pi lam / 2),  with limit sqrt(2/pi) at lam = 0."""
    lhs = _sech_ft(lam, 2) / SQRT_TWO_PI
    if lam == 0.0:
        rhs = math.sqrt(2.0 / math.pi)
    else:
        rhs = math.sqrt(math.pi / 2.0) * lam / math.sinh(math.pi * lam / 2.0)
    return IdentityCheck(lhs=lhs, rhs=rhs, defect=abs(lhs - rhs))


def sech_power_recursion_check(n: int, p: float) -> IdentityCheck:
    """Two-quadrature check of the step-two recursion between sech-power transforms:

    Integral e^{ixp} cosh(x)^{-n-2} dx
      = (n^2 + p^2) / (n (n + 1)) * Integral e^{ixp} cosh(x)^{-n} dx.
    """
    if n < 1:
        raise ParameterOutOfRange("recursion needs n >= 1")
    low, high = _sech_ft(p, n), _sech_ft(p, n + 2)
    rhs = (n * n + p * p) / (n * (n + 1.0)) * low
    return IdentityCheck(lhs=high, rhs=rhs, defect=abs(high - rhs))


# past |Re u| = _FAR, 1 / sinh u is +-2 e^{-+u} to double precision (sinh u
# overflows past 710): the far form of ftcosh_check and of the strip kernels
_FAR = 350.0


@takes(beta=POSITIVE, z=POINT)
def ftcosh_check(beta: float, z: complex) -> IdentityCheck:
    """Fourier transform of the Fermi-type density against its sinh closed form:

    (1/2 pi) Integral e^{i z lam} / (1 + e^{-2 beta lam}) d lam
      =  (i / 4 beta) / sinh(pi z / (2 beta)),     0 < Im z < 2 beta.

    The integrand decays like e^{-Im(z) lam} at +inf and e^{-(2 beta - Im z)|lam|}
    at -inf, so the transform only exists on the open strip of height 2 beta.
    """
    if not 0.0 < z.imag < 2.0 * beta < math.inf:
        raise ParameterOutOfRange("need 0 < Im z < 2 beta < inf for convergence")

    y = z.imag

    def density(lam: float) -> float:
        # e^{-y lam} / (1 + e^{-2 beta lam}), with the overflowing factor
        # folded into the exponent on the left tail where the product decays
        # like e^{(2 beta - y) lam}
        if lam >= 0.0:
            return math.exp(-y * lam) / (1.0 + math.exp(-2.0 * beta * lam))
        return math.exp((2.0 * beta - y) * lam) / (1.0 + math.exp(2.0 * beta * lam))

    lhs = oscillatory_ft(density, z.real) / TWO_PI
    u = math.pi * z / (2.0 * beta)
    if u.real > _FAR:     # 1 / sinh u = +-2 e^{-+u}, where sinh u overflows
        rhs = 0.5j * cmath.exp(-u) / beta
    elif u.real < -_FAR:
        rhs = -0.5j * cmath.exp(u) / beta
    else:
        rhs = 0.25j / (beta * np.sinh(u))
    return IdentityCheck(lhs=lhs, rhs=rhs, defect=abs(lhs - rhs))


@np.errstate(over="ignore", invalid="ignore")     # a side that overflows raises below
def _hyperbolic_abs_check(fn, trig, x, y) -> IdentityCheck:
    """|fn(x + iy)|^2 = sinh(x)^2 + trig(y)^2; raises
    :class:`ParameterOutOfRange` once a side overflows."""
    lhs = abs(fn(complex(x, y))) ** 2
    try:
        rhs = math.sinh(x) ** 2 + trig(y) ** 2
    except OverflowError:
        rhs = math.inf
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise ParameterOutOfRange("|%s(x + iy)|^2 overflows at x = %r" % (fn.__name__, x))
    return IdentityCheck(lhs=lhs, rhs=rhs, defect=abs(lhs - rhs))


@takes(x=REAL, y=REAL)
def sinh_abs_check(x: float, y: float) -> IdentityCheck:
    """|sinh(x + iy)|^2 = sinh(x)^2 + sin(y)^2."""
    return _hyperbolic_abs_check(np.sinh, math.sin, x, y)


@takes(x=REAL, y=REAL)
def cosh_abs_check(x: float, y: float) -> IdentityCheck:
    """|cosh(x + iy)|^2 = sinh(x)^2 + cos(y)^2."""
    return _hyperbolic_abs_check(np.cosh, math.cos, x, y)
