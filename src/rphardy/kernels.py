"""Reproducing kernels on the disc, half-plane and strip, and the boundary
operators built from them.

Normalizations
--------------
The Szego kernels carry the boundary measure of each domain:

* disc        Q(z, w) = (1/2 pi) / (1 - z conj(w))
* half-plane  Q(z, w) = (1/2 pi) i / (z - conj(w))
* strip       Q(z, w) = (i / 4 beta) / sinh(pi (z - conj(w)) / (2 beta))

The Poisson kernels are the boundary densities normalized to total mass one
(for the strip the two boundary components together carry mass one).  They are
related to the Szego kernel by the ratio identity

    P_z(x) = |Q(z, x)|^2 / Q(z, z)

which :func:`hua_ratio` evaluates directly so the closed forms can be checked
against it.

Power kernels follow the convention that the half-plane version is the bare
principal power (i/(z - conj(w)))^s with no 2 pi factor, the strip version is
the s-th power of the strip Szego kernel above, and the disc version is
(1/2 pi) (1 - z conj(w))^{-s}.  The power is numpy's principal complex power,
``np.power(base, s)``.

Boundary functions are sampled as ``f(component, x)`` where ``component``
names a boundary component of the domain ("circle", "line", "lower"/"upper"),
read with its reflection from the domain's table by ``Domain._side``, the one
check of a name, and ``x`` is the boundary parameter (angle on the circle,
real coordinate on the lines); a plain callable of that signature is accepted
wherever a :class:`BoundaryFunction` is.

Scalar and array bodies
-----------------------
The kernels :func:`szego`, :func:`power_kernel` and :func:`bergman_strip`
take arrays.  :func:`power_kernel` has one body, the numpy one; a scalar
call runs it on 0-d arrays and returns a complex.  :func:`szego` alone keeps
a scalar math/cmath body beside its numpy one :func:`_szego_array` (chosen
by :func:`~rphardy.numerics.is_batch`), for the reason its docstring gives,
and :func:`bergman_strip` squares what it returns.  The scalar body is the
bound form :func:`szego_at`, z -> Q(z, w) with w checked once, which a
scalar :func:`szego` call runs after checking z.  The two bodies give the
same bits: complex products and quotients on arrays go through
:func:`_cmul` and :func:`_cdiv`, which round as CPython does, and both strip
bodies form the argument pi d / (2 beta), d = z - conj(w), from the real and
imaginary parts of d (:func:`_strip_arg` on arrays), so a d whose real part
overflows to +-inf takes the far form and gives 0, not a NaN.  The array
body takes the mid form on every entry and overwrites the far and near ones
where there are any.

Every boundary object has one form per boundary component, the integrand
its quadrature calls: :func:`poisson_at`, :func:`h_boundary_at` and
:attr:`BoundaryFunction.on` return it.  It is one numpy body on every
component, since both boundary rules call it once per level on an array
of nodes (:func:`~rphardy.numerics.trapezoid_circle`,
:func:`~rphardy.numerics.trapezoid_line`); a float gives the bits of the
matching array element.  The half-plane Poisson body is float arithmetic
that floats and arrays share, so QUADPACK, which calls it one x at a time
in the outer-function and Fourier checks, pays 0.1 us a node.
:func:`poisson`, :func:`h_boundary` and ``f(component, x)`` check x and
evaluate the form (:func:`_at_x`).  :func:`hua_ratio` stays a separate
scalar computation, since the ``kernels.hua.*`` checks compare it with
:func:`poisson`.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import numerics
from .domains import (_CLOSURE_TOL, _PARAMETER, HALF_PLANE, Disc, Domain, HalfPlane, Strip,
                      transfer_map)
from .errors import (
    BranchCutViolation,
    DivergentLogIntegral,
    NonPositiveModulus,
    OutsideDomain,
    ParameterOutOfRange,
    PoleAtInput,
    ToleranceNotReached,
    UnsupportedPair,
)
from .numerics import (_FAR, POINT, POINTS, POSITIVE, REAL, GramReport, IdentityCheck,
                       _complex, finite_array, gram_report, is_batch, takes)

_POLE_TOL = 1e-13


def _require_closure(domain: Domain, z: complex) -> None:
    """:class:`OutsideDomain` for a (guarded) point outside the closed domain."""
    if domain.locate(z, _CLOSURE_TOL) == "exterior":
        raise OutsideDomain("%r is outside the closed %s" % (z, domain.name))


def _closure_arrays(domain: Domain, *pts):
    """The (guarded) points as broadcast complex arrays, each required to
    lie in the closed domain (the first one outside raises, as in the scalar
    call).  Each is checked before it is broadcast: the first point outside
    is the same, and a Gram's n points are checked once, not n times."""
    pts = [np.asarray(p, dtype=complex) for p in pts]
    for p in pts:
        inside = domain.in_closure(p)
        if not np.all(inside):
            bad = complex(p[~inside][0])
            raise OutsideDomain("%r is outside the closed %s" % (bad, domain.name))
    return np.broadcast_arrays(*pts)


def _require_no_pole(near_pole: np.ndarray, message: str) -> None:
    if np.any(near_pole):
        raise PoleAtInput(message)


# --------------------------------------------------------------------------
# Szego / Poisson / Bergman
# --------------------------------------------------------------------------

@takes(z=POINTS, w=POINTS)
def szego(domain: Domain, z: complex, w: complex) -> complex:
    """Szego kernel Q(z, w); z and w may lie in the closure as long as the
    kernel stays finite (the boundary-extended evaluation).

    Arrays take the numpy body, a scalar pair the math/cmath body of
    :func:`szego_at` with the same bits: one point through numpy costs
    27.7 us against 1.4 us.  A verify suite makes about 660 one-point calls
    here; the boundary nodes of the flip pairings come as arrays.
    """
    if is_batch(z, w):
        return _szego_array(domain, *_closure_arrays(domain, z, w))
    _require_closure(domain, z)
    return szego_at.__wrapped__(domain, w)(z)


@takes(w=POINT)
def szego_at(domain: Domain, w: complex):
    """Q(., w) as a scalar function z -> complex, the one scalar body of the
    Szego kernel.  ``w`` is checked and the domain resolved once; ``z`` is
    not checked, so it must lie in the closure (:func:`szego` checks it).
    A pole raises :class:`PoleAtInput` at the call."""
    _require_closure(domain, w)
    wc, pi = w.conjugate(), math.pi
    if isinstance(domain, Disc):
        def disc(z):
            den = 1.0 - z * wc
            if abs(den) <= _POLE_TOL:
                raise PoleAtInput("szego pole: z conj(w) = 1")
            return 1.0 / (2.0 * pi * den)

        return disc
    if isinstance(domain, HalfPlane):
        hr, hi, scaled = 0.125 * wc.real, 0.125 * wc.imag, 0.0625j / pi

        def half_plane(z):
            den = z - wc
            if abs(den.real) > _FAR_LINE or abs(den.imag) > _FAR_LINE:
                return scaled / complex(0.125 * z.real - hr, 0.125 * z.imag - hi)
            if abs(den) <= _POLE_TOL:
                raise PoleAtInput("szego pole: z = conj(w)")
            return 0.5j / (pi * den)

        return half_plane
    if isinstance(domain, Strip):
        b = domain.beta
        b2, exp, sinh, hypot = 2.0 * b, cmath.exp, cmath.sinh, math.hypot

        def strip(z):
            d = z - wc
            # from the parts of d, as _strip_arg forms it: pi * d would
            # multiply 0 by an inf real part of d into a NaN
            arg = complex(pi * d.real / b2 + 0.0, pi * d.imag / b2)
            if arg.real > _FAR:
                # 1/sinh(arg) = 2 e^{-arg} up to relative error e^{-2 Re arg}
                return 0.5j * exp(-arg) / b
            if arg.real < -_FAR:
                return -0.5j * exp(arg) / b
            # the distance of d to the lattice, not |sinh(arg)|: on a wide
            # strip sinh(arg) is tiny at points far from any pole
            if hypot(d.real, d.imag - b2 * round(d.imag / b2)) <= _POLE_TOL:
                raise PoleAtInput("szego pole: z - conj(w) on the lattice 2 i beta Z")
            return 0.25j / (b * sinh(arg))

        return strip
    raise UnsupportedPair("no szego kernel for %r" % (domain,))


def _szego_array(domain: Domain, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """:func:`szego` on broadcast arrays already checked to lie in the closure."""
    if isinstance(domain, Disc):
        den = 1.0 - _cmul(z, np.conj(w))
        _require_no_pole(np.abs(den) <= _POLE_TOL, "szego pole: z conj(w) = 1")
        return _cdiv(1.0, 2.0 * math.pi * den)
    if isinstance(domain, HalfPlane):
        z, wc = np.broadcast_arrays(z, np.conj(w))
        with np.errstate(over="ignore"):    # an inf part takes the far branch
            den = z - wc
        far = (np.abs(den.real) > _FAR_LINE) | (np.abs(den.imag) > _FAR_LINE)
        out = np.empty(den.shape, dtype=complex)
        z, wc = z[far], wc[far]
        out[far] = _cdiv(0.0625j / math.pi, _complex(0.125 * z.real - 0.125 * wc.real,
                                                     0.125 * z.imag - 0.125 * wc.imag))
        den = den[~far]
        _require_no_pole(np.abs(den) <= _POLE_TOL, "szego pole: z = conj(w)")
        out[~far] = _cdiv(0.5j, math.pi * den)
        return out
    if isinstance(domain, Strip):
        b = domain.beta
        # every entry takes the mid form, and the far and near ones, where
        # sinh may overflow (and d itself), are then overwritten; only a mid
        # entry can be a pole (on a strip of width 1e-300 a far d may be tiny)
        with np.errstate(over="ignore", invalid="ignore"):
            d = z - np.conj(w)
            arg = _strip_arg(b, d)
            far, near = arg.real > _FAR, arg.real < -_FAR
            pole = np.hypot(d.real, d.imag - 2.0 * b * np.round(d.imag / (2.0 * b))) <= _POLE_TOL
            _require_no_pole(pole & ~(far | near),
                             "szego pole: z - conj(w) on the lattice 2 i beta Z")
            out = _cdiv(0.25j, b * np.sinh(arg))
        if far.any():
            e = np.exp(-arg[far])
            out[far] = _complex(-0.5 * e.imag / b, 0.5 * e.real / b)
        if near.any():
            e = np.exp(arg[near])
            out[near] = _complex(0.5 * e.imag / b, -0.5 * e.real / b)
        return out
    raise UnsupportedPair("no szego kernel for %r" % (domain,))


def _strip_arg(b: float, d: np.ndarray) -> np.ndarray:
    """pi d / (2 beta), d = z - conj(w), on arrays, formed from the parts of
    d as the scalar body forms it.  For a finite d those are the bits of
    CPython's complex product and quotient, which never leave a -0.0 real
    part here, hence the + 0.0; an inf real part of d stays an inf real
    part, which takes the far branch."""
    return _complex(math.pi * d.real / (2.0 * b) + 0.0, math.pi * d.imag / (2.0 * b))


# Past |Re d| or |Im d| = _FAR_LINE, d = z - conj(w), pi d may overflow (and
# d itself), so the half-plane Szego kernel is (i / 16 pi) / (z/8 - conj(w)/8):
# each part of that difference is at most a quarter of the float range, and
# the denominator of its Smith quotient at most half of it.
_FAR_LINE = 1e307


# Complex products and quotients on arrays, computed as CPython computes them
# for Python complex numbers: numpy's complex loops fuse multiply-adds and
# divide by reciprocals, which moves array values up to ~30 ulp away from the
# scalar ones where 1 - z conj(w) or sinh cancels.  np.exp and np.sinh on
# complex arrays already agree with cmath bit for bit.

def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _cdiv(a, b: np.ndarray) -> np.ndarray:
    """a / b by Smith's method as CPython writes it (dividing by the scaled
    denominator); b must have no zero element."""
    a = np.asarray(a, dtype=complex)
    big = np.abs(b.real) >= np.abs(b.imag)
    ratio = np.where(big, b.imag, b.real) / np.where(big, b.real, b.imag)
    denom = np.where(big, b.real + b.imag * ratio, b.real * ratio + b.imag)
    return _complex(np.where(big, a.real + a.imag * ratio, a.real * ratio + a.imag) / denom,
                    np.where(big, a.imag - a.real * ratio, a.imag * ratio - a.real) / denom)


@takes(z=POINT)
def szego_diag(domain: Domain, z: complex) -> float:
    """Q(z, z) for interior z (always real and positive)."""
    domain.require_interior(z)
    return szego.__wrapped__(domain, z, z).real


@takes(z=POINT)
def poisson(domain: Domain, z: complex, x: float, component: str = None) -> float:
    """Poisson kernel P_z at the boundary point of parameter ``x``.

    * disc:       x is the boundary angle, kernel w.r.t. dt on [0, 2 pi);
    * half-plane: x is the real coordinate, kernel w.r.t. dx, prefactor 1/pi
      (total mass one, and the Fourier transform at i lam is e^{-lam |t|});
    * strip:      x is the real coordinate of the "lower" (Im = 0) or "upper"
      (Im = beta) component; the two components together have mass one.

    ``z`` is one interior point; an array ``x`` gives the array of the
    scalar values, bit for bit.  The value is that of the form
    ``poisson_at(domain, z, component)``.  A boundary parameter that is not
    finite raises :class:`ParameterOutOfRange`.
    """
    return _at_x(poisson_at.__wrapped__(domain, z, component), x, float)


@takes(z=POINT)
def poisson_at(domain: Domain, z: complex, component: str = None):
    """P_z on one boundary component as a numpy body x -> P_z(x), which takes
    an array of boundary parameters or a float; ``z`` and ``component`` are
    checked, and every factor that depends only on them computed, once.  The
    line bodies do not check x (:func:`poisson` does): at +-inf they give 0,
    the kernel's limit."""
    domain.require_interior(z)
    if component is None:
        component = domain.boundary_components()[0]
    domain._side(component)
    pi = math.pi
    if isinstance(domain, Disc):
        # 1 - 2r cos(th - x) + r^2 = (1 - r)^2 + 4r sin^2((th - x)/2): the sum
        # of squares keeps full relative accuracy as r -> 1 at th = x, where
        # the expanded form cancels to nothing
        r = abs(z)
        d = 1.0 - r
        num, dd, r4, th = d * (1.0 + r), d * d, 4.0 * r, cmath.phase(z)
        two_pi = 2.0 * pi

        def disc(x):
            half = np.sin(0.5 * (th - finite_array(x, _PARAMETER)))
            p = num / (two_pi * (dd + r4 * half * half))
            return p if p.ndim else float(p)

        return disc
    if isinstance(domain, HalfPlane):
        a, y, inv_pi = z.real, z.imag, 1.0 / pi

        def half_plane(x):
            # y / (pi (dx^2 + y^2)), where dx (dx / y) overflows only once
            # the kernel is below 1 / (pi * 1.8e308)
            dx = x - a
            return inv_pi / (y + dx * (dx / y))

        return half_plane
    if isinstance(domain, Strip):
        b, y = domain.beta, z.imag
        # sin^2 (lower) or cos^2 (upper) of pi y / 2 beta and sin(pi y / beta)
        # as sines of the distance to a line, exact where it is beta - y: a
        # sine near pi or a cosine near pi/2 would lose a small mass's digits
        trig = math.sin(0.5 * pi * ((y if component == "lower" else b - y) / b)) ** 2
        # the bracket below is at least min(2 trig, 1); subnormal, it has
        # lost its relative accuracy (beta near the double range)
        if not 2.0 * trig >= _TINY:
            raise ParameterOutOfRange("strip Poisson kernel underflows, beta %r" % (b,))
        num, a, b2 = math.sin(pi * (min(y, b - y) / b)), z.real, 2.0 * b

        def strip(x):
            # num / (4 beta (sinh(u)^2 + trig)) = num E / (beta ((1 - E)^2 +
            # 4 trig E)), E = e^{-2|u|}: no overflow, and 1 - E from expm1
            t = -2.0 * np.abs(pi * (a - x) / b2)
            e, em = np.exp(t), -np.expm1(t)
            p = num * e / b / (em * em + 4.0 * trig * e)
            return p if p.ndim else float(p)

        return strip
    raise UnsupportedPair("no poisson kernel for %r" % (domain,))


_TINY = sys.float_info.min


def _at_x(form, x, dtype):
    """The per-component ``form`` at the checked x: a ``dtype`` scalar for one
    number, an array of the shape of an array x, evaluated with numpy's
    overflow warnings off (far out an intermediate may overflow where the
    value is finite, as dx (dx / y) of the half-plane Poisson body)."""
    if isinstance(x, float) and math.isfinite(x):     # numpy's float64 is one
        return dtype(form(x))
    x = finite_array(x, _PARAMETER)
    if not x.ndim:
        return dtype(form(float(x)))
    with np.errstate(over="ignore"):
        return np.asarray(form(x), dtype=dtype)


@takes(z=POINT)
def hua_ratio(domain: Domain, z: complex, x: float, component: str = None) -> float:
    """|Q(z, x)|^2 / Q(z, z) evaluated from the Szego kernel alone.

    Coincides with :func:`poisson` on all three domains; keeping the two
    computations separate is what makes the consistency check meaningful.
    """
    comp = component or domain.boundary_components()[0]
    xb = domain.boundary_embed(comp, x)
    q = szego.__wrapped__(domain, xb, z)
    return abs(q) ** 2 / szego_diag.__wrapped__(domain, z)


@takes(beta=POSITIVE, lam=REAL, x=REAL)
def poisson_midline_strip(beta: float, lam: float, x: float) -> float:
    """Closed sech form of the strip Poisson kernel at a midline base point:

    P_{lam + i beta/2}("lower", x) = (1/2 beta) / cosh(pi (lam - x) / beta).

    Where cosh overflows the value is e^{-|u|} / beta, u = pi (lam - x) / beta,
    which underflows to 0 unless beta is tiny.
    """
    u = math.pi * (lam - x) / beta
    try:
        value = 0.5 / (beta * math.cosh(u))
    except OverflowError:
        return math.exp(-abs(u) - math.log(beta))
    if value == math.inf:       # 1 / (2 beta) at a subnormal beta
        raise ParameterOutOfRange("the midline Poisson kernel overflows at beta = %r" % (beta,))
    return value


@takes(z=POINTS, w=POINTS)
def bergman_strip(beta: float, z: complex, w: complex) -> complex:
    """Bergman kernel of the strip,

        K(z, w) = -1 / (4 beta sinh(pi (z - conj(w)) / (2 beta)))^2,

    i.e. exactly the square of the strip Szego kernel."""
    q = szego.__wrapped__(Strip(beta), z, w)
    return _times(q, q)


@takes(s=POSITIVE, z=POINTS, w=POINTS)
# a value that overflows raises below; the reciprocal of an underflowed power is a 1/0
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def power_kernel(domain: Domain, s: float, z: complex, w: complex) -> complex:
    """Power kernel Q_s with the conventions documented in the module header,
    for a finite s > 0; z and w may be arrays.  A value that overflows raises
    :class:`ParameterOutOfRange`; one that underflows is 0."""
    z, w = _closure_arrays(domain, z, w)
    if isinstance(domain, Disc):
        base = 1.0 - _cmul(z, np.conj(w))
        _require_no_pole(np.abs(base) <= _POLE_TOL, "power kernel pole on the disc")
        p = np.power(base, -s)
        out = _complex(p.real / (2.0 * math.pi), p.imag / (2.0 * math.pi))
    elif isinstance(domain, HalfPlane):
        den = z - np.conj(w)
        _require_no_pole(np.abs(den) <= _POLE_TOL, "power kernel pole on the half-plane")
        out = _power_of_base(_cdiv(1j, den), s)
    elif isinstance(domain, Strip):
        b = domain.beta
        arg = _strip_arg(b, z - np.conj(w))
        out = np.empty(arg.shape, dtype=complex)
        for sign in (1.0, -1.0):
            # past _FAR, Q^s = exp(s (log(1/2 beta) + sign i pi/2 - sign arg)),
            # the principal branch: the phase stays in [-pi/2, pi/2] on the
            # closed strip, and it underflows only where Q^s does
            far = sign * arg.real > _FAR
            e = complex(math.log(0.5 / b), sign * 0.5 * math.pi) - sign * arg[far]
            out[far] = np.exp(_complex(s * e.real, s * e.imag))
        mid = np.abs(arg.real) <= _FAR
        out[mid] = _power_of_base(_szego_array(domain, z[mid], w[mid]), s)
    else:
        raise UnsupportedPair("no power kernel for %r" % (domain,))
    if not np.all(np.isfinite(out)):
        raise ParameterOutOfRange("Q_s overflows at s = %r" % (s,))
    return out if out.ndim else complex(out)


def _power_of_base(base: np.ndarray, s: float) -> np.ndarray:
    if np.any((base.real <= 0.0) & (base.imag == 0.0)):
        raise BranchCutViolation("power kernel base on the negative real axis")
    return np.power(base, s)


# --------------------------------------------------------------------------
# outer functions and the boundary flip
# --------------------------------------------------------------------------

@takes(w=POINT, z=POINTS)
def outer_f(domain: Domain, w: complex, z: complex) -> complex:
    """Normalized kernel function F_w(z) = Q(z, w) / sqrt(Q(w, w)).

    For w on the fixed set of the reflection, |F_w|^2 on the boundary is the
    Poisson kernel P_w (the outer representative of that modulus).
    """
    return szego.__wrapped__(domain, z, w) / math.sqrt(szego_diag.__wrapped__(domain, w))


@takes(w=POINT)
def h_boundary(domain: Domain, w: complex, component: str, x: float) -> complex:
    """The flip multiplier h_w(x) = Q_w*(x) / Q_w*(sigma(x)) on the boundary.

    Unimodular whenever w lies on the fixed set of sigma.  ``w`` is one
    interior point; an array ``x`` gives the array of the scalar values, bit
    for bit.  The value is that of the form ``h_boundary_at(domain, w,
    component)``.  A boundary parameter that is not finite raises
    :class:`ParameterOutOfRange`.
    """
    return _at_x(h_boundary_at.__wrapped__(domain, w, component), x, complex)


@takes(w=POINT)
def h_boundary_at(domain: Domain, w: complex, component: str):
    """h_w on one boundary component as a numpy body x -> h_w(x), which takes
    an array of boundary parameters or a float; ``w`` and ``component`` are
    checked and resolved once, x at each call."""
    domain.require_interior(w)
    rcomp, _ = domain._side(component)
    if isinstance(domain, Strip):
        b, wc = domain.beta, w.conjugate()
        # the sinh factors of the ratio are sinh(arg) and sinh(arg + i pi/2)
        # = i cosh(arg), arg = pi (x - conj(w)) / 2 beta: h is i coth(arg) on
        # the lower line and -i tanh(arg) on the upper, O(1) where each kernel
        # underflows, and arg never holds beta + Im w, whose rounding would
        # swamp beta - Im w
        lower = component == "lower"

        def strip(x):
            with np.errstate(over="ignore"):    # an inf real part: tanh is +-1 there
                t = np.tanh(_strip_arg(b, domain.boundary_embed("lower", x) - wc))
            h = 1j / t if lower else _complex(t.imag, -t.real)
            return h if h.ndim else complex(h)

        return strip

    def circle_or_line(x):      # sigma negates the parameter on both
        zb = domain.boundary_embed(component, x)
        zr = domain.boundary_embed(rcomp, np.negative(x))
        return _over(szego.__wrapped__(domain, zb, w), szego.__wrapped__(domain, zr, w))

    return circle_or_line


def _times(a, b):
    """a * b, with array products rounded as CPython rounds complex ones."""
    if is_batch(a, b):
        return _cmul(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    return a * b


def _over(a, b):
    """a / b, with array quotients rounded as CPython rounds complex ones."""
    if is_batch(a, b):
        return _cdiv(a, np.asarray(b, dtype=complex))
    return a / b


@dataclass
class BoundaryFunction:
    """A function on the boundary of ``domain``, held as one form per
    component and sampled as f(component, x).

    ``on(component)`` returns the form the quadrature of that component
    calls, a numpy body that takes the array of nodes (and a float);
    f(component, x) is that form at the checked x.
    """

    domain: Domain
    on: object  # callable component -> form

    def __call__(self, component: str, x: float) -> complex:
        return _at_x(self.on(component), x, complex)

    def reflected(self) -> "BoundaryFunction":
        """f composed with the boundary reflection."""
        dom, on = self.domain, self.on

        def reflected_on(component):
            rcomp, negate = dom._side(component)
            g = on(rcomp)
            return (lambda x: g(-x)) if negate else g

        return BoundaryFunction(dom, reflected_on)


def boundary_restriction(domain: Domain, holo) -> BoundaryFunction:
    """Boundary values of a function given by a closed form on the closure,
    which is called on the array of embedded boundary points."""
    return BoundaryFunction(
        domain, lambda component: lambda x: holo(domain.boundary_embed(component, x)))


@takes(w=POINT)
def theta_apply(domain: Domain, w: complex, f) -> BoundaryFunction:
    """The flip operator (theta_w f)(x) = h_w(x) * f(sigma(x)).

    It is an involution for every interior w (h_w(x) h_w(sigma x) = 1 holds by
    construction) and fixes the boundary kernel Q_w*.
    """
    domain.require_interior(w)
    fr = _boundary_function(domain, f).reflected()

    def on(component):
        h = h_boundary_at.__wrapped__(domain, w, component)
        g = fr.on(component)
        return lambda x: _times(h(x), g(x))

    return BoundaryFunction(domain, on)


def boundary_inner(domain: Domain, f, g, *, tol: float = 1e-10) -> complex:
    """L^2 inner product <f, g> over the boundary (conjugate-linear in f).

    f and g are called on the arrays of nodes: of the trapezoid rule on 1024
    nodes on the circle, of :func:`~rphardy.numerics.trapezoid_line` about 0
    at the domain's scale (1, or beta / 2 on the strip) to ``tol`` on a
    line.  Line functions must decay; a peak far from 0 may raise
    :class:`ToleranceNotReached`.
    """
    scale = 0.5 * domain.beta if isinstance(domain, Strip) else 1.0
    return _boundary_inner(domain, f, g, tol, 0.0, scale)


def _boundary_inner(domain: Domain, f, g, tol: float, centre: float, dist: float) -> complex:
    """:func:`boundary_inner` with the line rule about ``centre`` at the pole
    distance ``dist`` (the circle rule takes neither)."""
    f, g = _boundary_function(domain, f), _boundary_function(domain, g)
    total = 0.0 + 0.0j
    for comp in domain.boundary_components():
        fc, gc = f.on(comp), g.on(comp)

        def integrand(x):
            return _times(np.conj(fc(x)), gc(x))

        if isinstance(domain, Disc):
            total += numerics.trapezoid_circle(integrand)
        else:
            total += numerics.trapezoid_line(integrand, centre, dist, tol)[0]
    return total


def _boundary_function(domain: Domain, f) -> BoundaryFunction:
    """f itself, or a plain callable f(component, x) as a BoundaryFunction."""
    if isinstance(f, BoundaryFunction):
        return f
    return BoundaryFunction(domain, lambda component: lambda x: f(component, x))


@takes(w=POINT)
def flip_pairing_check(domain: Domain, w: complex, F, *,
                       tol: float = 1e-10) -> IdentityCheck:
    """Quadrature check of  <f*, theta_w f*> = |f(w)|^2 / Q(w, w)  for f = F Q_w.

    F should be holomorphic on the closure with at most polynomial growth (the
    kernel factor supplies the decay on unbounded boundaries); it is called
    on arrays of boundary points.  A line rule is centred at Re w, at the
    distance of w to the nearest line.
    """
    domain.require_interior(w)
    q = szego_diag.__wrapped__(domain, w)
    fw = F(w) * q
    try:
        rhs = abs(fw) ** 2 / q
    except OverflowError:
        raise ParameterOutOfRange("|f(w)|^2 overflows at w = %r" % (w,)) from None
    fstar = boundary_restriction(
        domain, lambda zb: _times(F(zb), szego.__wrapped__(domain, zb, w)))
    dist = min(w.imag, domain.beta - w.imag) if isinstance(domain, Strip) else w.imag
    lhs = _boundary_inner(domain, fstar, theta_apply(domain, w, fstar), tol, w.real, dist)
    return IdentityCheck(lhs=lhs, rhs=rhs, defect=abs(lhs - rhs))


# --------------------------------------------------------------------------
# outer function from a boundary modulus
# --------------------------------------------------------------------------

_OUTER_TOL = 1e-9       # the quadrature tolerance of outer_from_modulus


@takes(z=POINT)
def outer_from_modulus(psi, z: complex) -> complex:
    """Outer function on the half-plane with boundary modulus psi^{1/2}:

        F(z) = exp( (1/2 pi i) Int_R [ 1/(p - z) - p/(1 + p^2) ] log psi(p) dp )

    psi must be strictly positive on the line and log psi integrable against
    (1 + p^2)^{-1}; non-positive samples raise NonPositiveModulus and a
    quadrature failure raises DivergentLogIntegral.
    """
    HALF_PLANE.require_interior(z)

    def integrand(p: float) -> complex:
        if abs(p) > 1e100:
            # the Herglotz weight is O(1/p^2) while log psi grows at most
            # logarithmically for any polynomially bounded modulus, so this
            # region contributes nothing at double precision (and psi itself
            # may underflow to 0 out here).
            return 0.0j
        v = psi(p)
        if not v > 0.0:
            raise NonPositiveModulus("psi(%g) = %r is not positive" % (p, v))
        return (1.0 / (p - z) - p / (1.0 + p * p)) * math.log(v)

    a = z.real
    try:
        total, _ = numerics.quad(integrand, -np.inf, np.inf, tol=_OUTER_TOL,
                                 points=[a - 2.0, a, a + 2.0])
    except ToleranceNotReached as exc:
        raise DivergentLogIntegral(str(exc)) from exc
    return cmath.exp(total / (2j * math.pi))


# --------------------------------------------------------------------------
# Gram positivity and the kernel transfer identity
# --------------------------------------------------------------------------

@takes(points=POINTS)
def kernel_gram(domain: Domain, points, kind: str = "szego",
                s: float = None) -> GramReport:
    """PSD report for the Gram matrix K(z_j, z_k) of one of the built-in kernels.

    ``kind`` is "szego", "power" (requires ``s``) or "bergman" (strip only).
    """
    pts = np.ravel(points)
    if kind == "szego":
        k = lambda a, b: szego(domain, a, b)
    elif kind == "power":     # power_kernel's guard refuses a missing s
        k = lambda a, b: power_kernel(domain, s, a, b)
    elif kind == "bergman":
        if not isinstance(domain, Strip):
            raise UnsupportedPair("bergman kernel is implemented on the strip")
        k = lambda a, b: bergman_strip(domain.beta, a, b)
    else:
        raise UnsupportedPair("unknown kernel kind %r" % (kind,))
    return gram_report(k(pts[:, None], pts[None, :]))


def _safe_sqrt(v: complex) -> complex:
    v = complex(v)
    if v.imag == 0.0 and v.real <= 0.0:
        raise BranchCutViolation(
            "transfer derivative %r lies on the branch cut" % (v,)
        )
    return cmath.sqrt(v)


@takes(z=POINT, w=POINT)
def szego_transfer_check(src: Domain, dst: Domain, z: complex,
                         w: complex) -> IdentityCheck:
    """Pointwise check of the kernel transformation rule under the canonical
    biholomorphism phi: src -> dst,

        Q_src(z, w) = sqrt(phi'(z)) conj(sqrt(phi'(w))) Q_dst(phi z, phi w).

    The principal square roots are asserted to stay off the cut at the two
    evaluation points (they do for all strip points and for disc points with
    |z| bounded away from the critical circle through 1).
    """
    phi, dphi = transfer_map(src, dst)
    lhs = szego.__wrapped__(src, z, w)
    pref = _safe_sqrt(dphi(z)) * _safe_sqrt(dphi(w)).conjugate()
    rhs = pref * szego(dst, phi(z), phi(w))
    return IdentityCheck(lhs=lhs, rhs=rhs, defect=abs(lhs - rhs))
