"""Reflection-positive function families on the integers, the line, and the
circle of circumference beta, together with their positivity certificates.

The three basic families (lam is the spectral parameter):

* integers:  phi_lam(n) = lam^{|n|},            lam in [-1, 1];
* line:      phi_lam(t) = e^{-lam |t|},         lam >= 0;
* circle:    phi_lam([y]) = (e^{-y lam} + e^{-(beta - y) lam}) / (1 + e^{-beta lam}),
             y reduced mod beta, lam >= 0.

The circle family has the explicit Fourier coefficients

    c_n = (1/pi) * s / (s^2 + n^2) * (1 - e^{-beta lam}) / (1 + e^{-beta lam}),
    s = beta lam / (2 pi),

all nonnegative, which is the positive-definiteness certificate made concrete;
``phi_circle_partial_sum`` is that ratio times numerics' periodized Lorentzian.

Positivity is checked two ways: ``pd_gram`` builds the group Gram
phi(g_j - g_k) for samples anywhere on the group, while ``rp_gram`` builds the
reflected Gram phi(s_j + s_k) for samples in the positive semigroup
(nonnegative integers / half-line / the arc (0, beta/2)).

The strip enters through the functions c_t and g_t:

    c_t(z) = (e^{itz} + e^{-beta t} e^{-itz}) / (1 + e^{-beta t}),
    g_t(z) = e^{t beta / 2} e^{itz},

with sup_strip |c_t| = 1, c_t(0) = 1, and the membership characterization
``z interior to the strip  iff  |c_t(z)| < 1 for all t > 0`` implemented by
:func:`strip_membership` on the fixed logarithmic t-grid _MEMBERSHIP_T_GRID
(boundary points, within _BOUNDARY_TOL, get an exact unimodularity witness
t = 2 pi / |Re z|).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import GROUPS
from .errors import ParameterOutOfRange, SampleOutsidePositiveCone
from .numerics import (COUNT, POINT, POSITIVE, REAL, SIZE, GramReport, _periodized_lorentzian,
                       finite_array, finite_pairs, gram_report, lorentzian, takes)


def _check_group(group: str) -> str:
    if group not in GROUPS:
        raise ParameterOutOfRange("group must be one of %r" % (GROUPS,))
    return group


# --------------------------------------------------------------------------
# the three families
# --------------------------------------------------------------------------

def _check_family(group: str, lam: float) -> None:
    """The range of the (guarded) lam of each family."""
    if not (-1.0 <= lam <= 1.0 if group == "integers" else lam >= 0.0):
        raise ParameterOutOfRange("integer family needs lam in [-1, 1]" if group == "integers"
                                  else "%s family needs a finite lam >= 0" % group)


@takes(lam=REAL)
def phi_int(lam: float, n):
    """lam^{|n|} on the integers; lam in [-1, 1].  ``n`` may be an array; a
    scalar ``n`` gives a float."""
    _check_family("integers", lam)
    return _as_float(np.power(lam, np.abs(np.trunc(finite_array(n, "group element")))))


@takes(lam=REAL)
@np.errstate(over="ignore")     # lam |t| = inf gives e^{-inf} = 0
def phi_line(lam: float, t):
    """e^{-lam |t|} on the line; lam >= 0.  ``t`` may be an array; a scalar
    ``t`` gives a float."""
    _check_family("line", lam)
    return _as_float(np.exp(-lam * np.abs(finite_array(t, "group element"))))


def _as_float(values):
    """A 0-d result as a Python float, an array result as it is."""
    return float(values) if np.ndim(values) == 0 else values


@takes(beta=POSITIVE, lam=REAL)
@np.errstate(over="ignore")     # y lam = inf gives e^{-inf} = 0
def phi_circle(beta: float, lam: float, y):
    """The circle family at the class [y]; beta > 0, lam >= 0.  ``y`` may be
    an array; a scalar ``y`` gives a float."""
    _check_family("circle", lam)
    r = np.fmod(finite_array(y, "group element"), beta)
    y = np.where(r < 0.0, r + beta, r)
    return _as_float((np.exp(-y * lam) + np.exp(-(beta - y) * lam))
                     / (1.0 + math.exp(-beta * lam)))


@takes(beta=POSITIVE, lam=REAL, n=COUNT(None))
def phi_circle_fourier(beta: float, lam: float, n: int) -> float:
    """Fourier coefficient c_n of the circle family (all nonnegative).

    For lam = 0 the family degenerates to the constant 1: c_0 = 1, c_n = 0.
    """
    _check_family("circle", lam)
    if n == 0 and beta * lam < _TINY_BETA_LAM:
        return 1.0
    # c_n underflows to 0 long before float(n) would overflow
    return lorentzian(beta * lam / (2.0 * math.pi), float(min(abs(n), 1e300))) \
        * _circle_ratio(beta, lam)


# below it the family is 1 to double precision: c_0 = tanh(u) / u, u = beta
# lam / 2, is 1 and the other c_n are O(u^2); the Lorentzian 1 / (pi s) of
# c_0 alone may overflow
_TINY_BETA_LAM = 1e-100


def _circle_ratio(beta: float, lam: float) -> float:
    """(1 - e^{-beta lam}) / (1 + e^{-beta lam}) = c_n / psi_s(n)."""
    return -math.expm1(-beta * lam) / (1.0 + math.exp(-beta * lam))


@takes(beta=POSITIVE, lam=REAL, y=REAL, N=SIZE(0))
def phi_circle_partial_sum(beta: float, lam: float, y: float, N: int) -> float:
    """Resummation  sum_{|n| <= N} c_n e^{2 pi i n y / beta}  (real by symmetry):
    the periodized Lorentzian of :func:`numerics.poisson_summation_check`
    times the ratio c_n / psi_s(n)."""
    _check_family("circle", lam)
    # fmod is exact and leaves |y| < beta as it is; far past beta the phases
    # 2 pi n y / beta would lose every digit of y, and overflow near 1e308
    y = math.fmod(y, beta)
    if beta * lam < _TINY_BETA_LAM:
        return 1.0
    return _circle_ratio(beta, lam) * _periodized_lorentzian(beta, lam, y, N)


# --------------------------------------------------------------------------
# Gram certificates
# --------------------------------------------------------------------------

def _phi_of(group, beta, lam):
    if group == "integers":
        return lambda g: phi_int(lam, g)
    if group == "line":
        return lambda g: phi_line(lam, g)
    return lambda g: phi_circle(beta, lam, g)


def pd_gram(group: str, lam: float, samples, beta: float = None) -> GramReport:
    """Gram matrix phi(g_j - g_k) over arbitrary group samples (mod beta on
    the circle); PSD verdict certifies positive definiteness on the group."""
    _check_group(group)
    xs = finite_array(samples, "samples").ravel()
    phi = _phi_of(group, beta, lam)
    return gram_report(phi(_pairwise(np.subtract, xs, "difference")))


def rp_gram(group: str, lam: float, samples, beta: float = None) -> GramReport:
    """Reflected Gram phi(s_j + s_k) over positive-semigroup samples.

    The admissible cones: nonnegative integers, the half-line [0, inf), and
    the open arc (0, beta/2) on the circle; anything else raises
    :class:`SampleOutsidePositiveCone`.  The family guards lam and beta.
    """
    _check_group(group)
    xs = finite_array(samples, "samples").ravel()
    G = _phi_of(group, beta, lam)(_pairwise(np.add, xs, "sum"))
    if group == "integers":
        cone, inside = "integer cone is n >= 0", (np.trunc(xs) == xs) & (xs >= 0.0)
    elif group == "line":
        cone, inside = "line cone is t >= 0", xs >= 0.0
    else:
        cone = "circle cone is the open arc (0, beta/2)"
        inside = (0.0 < xs) & (xs < beta / 2.0)
    outside = ~inside
    if np.any(outside):
        raise SampleOutsidePositiveCone("%s, got %r" % (cone, float(xs[outside][0])))
    return gram_report(G)


def _pairwise(op, xs: np.ndarray, what: str) -> np.ndarray:
    """The matrix op(x_j, x_k) of the samples, the pairwise ``what``; an
    entry that overflows raises :class:`ParameterOutOfRange` naming it."""
    with np.errstate(over="ignore"):
        g = op(xs[:, None], xs[None, :])
    bad = ~np.isfinite(g)
    if np.any(bad):
        j, k = np.argwhere(bad)[0]
        raise ParameterOutOfRange(
            "the pairwise %s of samples %r and %r overflows"
            % (what, float(xs[j]), float(xs[k])))
    return g


@np.errstate(over="ignore")     # n |t_j - t_k| = inf gives e^{-inf} = 0
def param_rp_check(n: int, samples) -> GramReport:
    """Gram of the signed power family p_n(t, eps) = eps^n e^{-n |t|} on the
    group R x {+1, -1} with the flip involution: entries

        K_{jk} = p_n(g_j g_k^{-1}) = (eps_j eps_k)^n e^{-n |t_j - t_k|}.
    """
    try:
        ok = 0 <= n < math.inf and int(n) == n
    except (TypeError, ValueError):     # not a number, or an array
        ok = False
    if not ok:
        raise ParameterOutOfRange("power must be a nonnegative integer, got %r" % (n,))
    t, eps = finite_pairs(samples, "samples").T
    if not np.all((eps == 1.0) | (eps == -1.0)):
        raise ParameterOutOfRange("sign component must be +1 or -1")
    G = (eps[:, None] * eps[None, :]) ** n * np.exp(-n * np.abs(t[:, None] - t[None, :]))
    return gram_report(G)


# --------------------------------------------------------------------------
# the strip functions c_t and g_t
# --------------------------------------------------------------------------

@takes(beta=POSITIVE, t=POSITIVE, z=POINT)
def c_func(beta: float, t: float, z: complex) -> complex:
    """c_t(z) = (e^{itz} + e^{-beta t} e^{-itz}) / (1 + e^{-beta t}),  t > 0.

    Computed in factored form so the value stays finite whenever the true
    value does; for points far outside the closed strip and large t the value
    genuinely overflows (|c_t| grows like e^{t(2|Im z - beta/2| - beta)}).
    """
    a = 1j * t * z            # exponent of the first term
    b = -beta * t - 1j * t * z
    m = max(a.real, b.real)
    try:
        val = cmath.exp(m) * (cmath.exp(a - m) + cmath.exp(b - m)) / (1.0 + math.exp(-beta * t))
    except (OverflowError, ValueError):     # too large, or an exponent that overflowed
        val = math.inf
    if not cmath.isfinite(val):
        raise ParameterOutOfRange("c_t(z) overflows at t = %r, z = %r" % (t, z))
    return val


@takes(beta=POSITIVE, z=POINT)
@np.errstate(divide="ignore", over="ignore", invalid="ignore")   # checked below
def c_log_abs(beta: float, t, z: complex):
    """log |c_t(z)|, overflow-free unless t z itself overflows, which raises
    :class:`ParameterOutOfRange`; |c_t| = 0 gives -inf.  ``t`` may be an
    array; a scalar ``t`` gives a float."""
    t = finite_array(t, "t")
    if not (t > 0.0).all():     # the method: np.all costs 4 us more
        raise ParameterOutOfRange("need finite t > 0")
    a = 1j * t * z
    b = -beta * t - a
    m = np.maximum(a.real, b.real)
    s = np.exp(a - m) + np.exp(b - m)
    logs = m + np.log(np.hypot(s.real, s.imag)) - np.log1p(np.exp(-beta * t))
    if not logs.max() < math.inf:       # +inf, or NaN from an exponent that overflowed
        raise ParameterOutOfRange("t z overflows at z = %r" % (z,))
    return _as_float(logs)


@takes(beta=POSITIVE, t=REAL, z=POINT)
def g_func(beta: float, t: float, z: complex) -> complex:
    """g_t(z) = e^{t beta/2 + itz}; its Hardy norm on the strip is e^{|t| beta/2}.
    The exponent is formed once, so the two factors may each overflow while
    their product does not; a value that overflows raises
    :class:`ParameterOutOfRange`."""
    try:
        val = cmath.exp(t * beta / 2.0 + 1j * t * z)
    except (OverflowError, ValueError):     # too large, or an exponent that overflowed
        val = math.inf
    if not cmath.isfinite(val):
        raise ParameterOutOfRange("g_t(z) overflows at t = %r, z = %r" % (t, z))
    return val


# the scan grid, built once: np.geomspace costs more than the scan
_MEMBERSHIP_T_GRID = np.geomspace(1e-3, 1e3, 60)
_MEMBERSHIP_T_GRID.flags.writeable = False
# |Im z| or |Im z - beta| up to this is on the boundary
_BOUNDARY_TOL = 1e-12


@dataclass
class StripMembership:
    """Outcome of the |c_t| < 1 characterization scan."""

    verdict: str          # "interior" | "exterior" | "boundary" | "unknown"
    witness_t: float | None   # a t with |c_t(z)| >= 1, when one exists
    max_log_abs: float    # max of log |c_t(z)| over the scanned grid


@takes(beta=POSITIVE, z=POINT)
def strip_membership(beta: float, z: complex) -> StripMembership:
    """Scan of the characterization ``z in open strip iff |c_t(z)| < 1 for
    all t > 0`` over the 60-point log grid _MEMBERSHIP_T_GRID, 1e-3 to 1e3.

    Boundary points are detected exactly: there |c_t| = 1 is attained at
    t = 2 pi / |Re z| (and c_t = 1 identically when Re z = 0).  A point that
    is geometrically outside but for which the grid finds no unimodularity
    witness is reported as "unknown" rather than misclassified.
    """
    y = z.imag
    if abs(y) <= _BOUNDARY_TOL or abs(y - beta) <= _BOUNDARY_TOL:
        x = z.real
        witness = 2.0 * math.pi / abs(x) if x != 0.0 else math.inf
        witness = witness if witness < math.inf else None     # none a float holds
        return StripMembership("boundary", witness, 0.0)

    logs = c_log_abs.__wrapped__(beta, _MEMBERSHIP_T_GRID, z)
    worst = float(np.max(logs))
    if worst >= 0.0:
        witness = float(_MEMBERSHIP_T_GRID[int(np.argmax(logs >= 0.0))])
        return StripMembership("exterior", witness, worst)
    if 0.0 < y < beta:
        return StripMembership("interior", None, worst)
    return StripMembership("unknown", None, worst)
