"""The three standard domains, their reflections, and the maps between them.

Domains
-------
* ``DISC``        : open unit disc, involution  sigma(z) = conj(z),
                    fixed set (-1, 1), boundary = unit circle;
* ``HALF_PLANE``  : upper half-plane Im z > 0, involution  sigma(z) = -conj(z),
                    fixed set the positive imaginary axis, boundary = real line;
* ``Strip(beta)`` : 0 < Im z < beta, involution  sigma(z) = beta*i + conj(z),
                    fixed set the midline  beta*i/2 + R, boundary = two lines
                    Im z = 0 ("lower") and Im z = beta ("upper").

Each involution is an antiholomorphic map of the closure onto itself; on the
boundary it induces the reflection that the boundary-function operators use
(on the strip it swaps the two boundary components at equal real part).
Each domain holds that reflection as one table, ``_SIDES``: component ->
(image component, whether the parameter is negated), in quadrature order; it
names the components, and ``Domain._side`` is the one check of a name.

Conformal maps
--------------
``cayley`` maps the disc onto the half-plane, ``strip_exp`` maps the strip onto
the half-plane; ``transfer_map`` composes these for any ordered pair.  The
corresponding unitaries between the Hardy spaces, with their explicit
square-root prefactors, are produced by :func:`hardy_transfer`.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import OutsideDomain, ParameterOutOfRange, PoleAtInput
from .numerics import (POINT, POSITIVE, REAL, SIZE, _complex, _require_positive, finite_array,
                       finite_point, takes)

SQRT_2I = cmath.sqrt(2j)  # = (1 + i), principal branch
_PARAMETER = "boundary parameter x"
_CLOSURE_TOL = 1e-9     # how far outside the closed domain a kernel argument may lie


def _modulus(z: complex) -> float:
    """|z|, and inf where it overflows (``abs`` raises there)."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


class Domain:
    """Base class; concrete domains implement the geometry hooks."""

    name: str = "?"

    def contains(self, z: complex) -> bool:
        """Strict interior membership (boundary points are not interior)."""
        raise NotImplementedError

    def on_boundary(self, z: complex, tol: float = 1e-12) -> bool:
        raise NotImplementedError

    def sigma(self, z: complex) -> complex:
        """The antiholomorphic involution of the closed domain."""
        raise NotImplementedError

    def on_fixed_set(self, z: complex) -> bool:
        """Whether z lies on the fixed-point set of sigma (inside the closure)."""
        return _modulus(self.sigma(z) - z) <= 1e-12 * (1.0 + _modulus(z))

    def locate(self, z: complex, tol: float = 1e-12) -> str:
        if self.contains(z):
            return "interior"
        if self.on_boundary(z, tol):
            return "boundary"
        return "exterior"

    def in_closure(self, z: np.ndarray) -> np.ndarray:
        """Elementwise ``locate(z, _CLOSURE_TOL) != "exterior"`` (False for NaN)."""
        raise NotImplementedError

    def require_interior(self, z: complex) -> complex:
        z = finite_point(z)
        if not self.contains(z):
            raise OutsideDomain("%r is not in the open %s" % (z, self.name))
        return z

    # boundary component -> (the component sigma maps it to, whether sigma
    # negates the parameter), in quadrature order
    _SIDES: dict = {}

    def boundary_components(self):
        """Names of the boundary components, in quadrature order."""
        return tuple(self._SIDES)

    def _side(self, component: str) -> tuple:
        """The table entry of ``component``; the one check of a component
        name, raising :class:`ParameterOutOfRange` for a name the domain lacks."""
        try:
            return self._SIDES[component]
        except (KeyError, TypeError):   # TypeError: a name that is not hashable
            raise ParameterOutOfRange("%s boundary components are %s, got %r" % (
                self.name, "/".join(map(repr, self._SIDES)), component)) from None

    def boundary_embed(self, component: str, x: float) -> complex:
        """Embed the boundary parameter x of a component into the plane; an
        array x gives the complex array of the same shape, each element the
        scalar embedding bit for bit.  An x that is not a finite float goes
        through :func:`numerics.finite_array`."""
        raise NotImplementedError

    def __repr__(self):
        return self.name


class Disc(Domain):
    name = "disc"
    _SIDES = {"circle": ("circle", True)}

    def contains(self, z):
        return _modulus(finite_point(z)) < 1.0

    def on_boundary(self, z, tol=1e-12):
        return abs(_modulus(finite_point(z)) - 1.0) <= tol

    @np.errstate(over="ignore")     # a modulus that overflows is outside
    def in_closure(self, z):
        # np.hypot is the modulus Python's abs(complex) computes
        r = np.hypot(z.real, z.imag)
        return (r < 1.0) | (np.abs(r - 1.0) <= _CLOSURE_TOL)

    def sigma(self, z):
        return finite_point(z).conjugate()

    def boundary_embed(self, component, x):
        self._side(component)
        if isinstance(x, float) and math.isfinite(x):     # numpy's float64 is one
            return cmath.exp(1j * x)
        # complex np.exp agrees with cmath.exp bit for bit
        z = np.exp(1j * finite_array(x, _PARAMETER))
        return z if z.ndim else complex(z)


class HalfPlane(Domain):
    name = "half_plane"
    _SIDES = {"line": ("line", True)}

    def contains(self, z):
        return finite_point(z).imag > 0.0

    def on_boundary(self, z, tol=1e-12):
        return abs(finite_point(z).imag) <= tol

    def in_closure(self, z):
        return (z.imag > 0.0) | (np.abs(z.imag) <= _CLOSURE_TOL)

    def sigma(self, z):
        return -finite_point(z).conjugate()

    def boundary_embed(self, component, x):
        self._side(component)
        if isinstance(x, float) and math.isfinite(x):
            return complex(x)
        z = _complex(finite_array(x, _PARAMETER), 0.0)
        return z if z.ndim else complex(z)


class Strip(Domain):
    """The horizontal strip 0 < Im z < beta."""

    name = "strip"
    _SIDES = {"lower": ("upper", False), "upper": ("lower", False)}

    def __init__(self, beta: float):
        _require_positive(beta)
        self.beta = float(beta)

    def contains(self, z):
        return 0.0 < finite_point(z).imag < self.beta

    def on_boundary(self, z, tol=1e-12):
        y = finite_point(z).imag
        return abs(y) <= tol or abs(y - self.beta) <= tol

    def in_closure(self, z):
        y = z.imag
        return (((0.0 < y) & (y < self.beta)) | (np.abs(y) <= _CLOSURE_TOL)
                | (np.abs(y - self.beta) <= _CLOSURE_TOL))

    def sigma(self, z):
        return self.beta * 1j + finite_point(z).conjugate()

    def boundary_embed(self, component, x):
        y = self._height(component)
        if isinstance(x, float) and math.isfinite(x):
            return complex(x, y)
        z = _complex(finite_array(x, _PARAMETER), y)
        return z if z.ndim else complex(z)

    def _height(self, component: str) -> float:
        """Im z on the boundary line ``component``: 0 or beta."""
        self._side(component)
        return 0.0 if component == "lower" else self.beta

    def __repr__(self):
        return "strip(beta=%g)" % self.beta


DISC = Disc()
HALF_PLANE = HalfPlane()


# --------------------------------------------------------------------------
# conformal maps
# --------------------------------------------------------------------------

def _quotient(num: complex, den: complex, pole: str) -> complex:
    """num / den, where den vanishes at the pole named by ``pole``: a zero
    den, or a quotient that overflows next to the pole, raises
    :class:`PoleAtInput`."""
    q = num / den if den != 0 else math.inf
    if not cmath.isfinite(q):
        raise PoleAtInput("pole of %s" % pole)
    return q


def _over_square(num: complex, d: complex, pole: str) -> complex:
    """num / d**2, 0 where d**2 overflows (the quotient underflows there)."""
    try:
        d2 = d ** 2
    except OverflowError:
        return 0j
    return _quotient(num, d2, pole)


@takes(z=POINT)
def cayley(z: complex) -> complex:
    """Disc -> half-plane:  z |-> i (1 + z) / (1 - z); z = 1 is its pole."""
    return _quotient(1j * (1.0 + z), 1.0 - z, "cayley at z = 1")


@takes(w=POINT)
def cayley_inv(w: complex) -> complex:
    """Half-plane -> disc:  w |-> (w - i) / (w + i); w = -i is its pole."""
    return _quotient(w - 1j, w + 1j, "cayley_inv at w = -i")


@takes(beta=POSITIVE, z=POINT)
@np.errstate(over="ignore", invalid="ignore")      # a value that overflows raises below
def strip_exp(beta: float, z: complex) -> complex:
    """Strip -> half-plane:  z |-> exp(pi z / beta); a value that overflows
    raises :class:`ParameterOutOfRange`."""
    w = np.exp(math.pi * z / beta)
    if not cmath.isfinite(w):
        raise ParameterOutOfRange("strip_exp overflows at z = %r" % (z,))
    return w


@takes(beta=POSITIVE, w=POINT)
def strip_log(beta: float, w: complex) -> complex:
    """Half-plane -> strip:  w |-> (beta/pi) Log w  (principal branch); the
    branch point w = 0 raises :class:`PoleAtInput`."""
    if w == 0:
        raise PoleAtInput("pole of strip_log at w = 0")
    return beta / math.pi * cmath.log(w)


def _same(src: Domain, dst: Domain) -> bool:
    """Whether src and dst are one domain; strips of two heights raise."""
    if type(src) is not type(dst):
        return False
    if isinstance(src, Strip) and src.beta != dst.beta:
        raise ParameterOutOfRange("strip heights differ: %g vs %g" % (src.beta, dst.beta))
    return True


def _onto_half_plane(src: Domain):
    """The canonical map of the disc or a strip onto the half-plane and its
    derivative."""
    if isinstance(src, Disc):
        return cayley, lambda z: _over_square(2j, 1.0 - finite_point(z), "cayley' at z = 1")
    b = src.beta
    return (lambda z: strip_exp(b, z)), (lambda z: math.pi / b * strip_exp(b, z))


def _off_half_plane(dst: Domain):
    """The canonical map of the half-plane onto the disc or a strip and its
    derivative."""
    if isinstance(dst, Disc):
        return cayley_inv, lambda w: _over_square(2j, finite_point(w) + 1j,
                                                  "cayley_inv' at w = -i")
    b = dst.beta
    return (lambda w: strip_log(b, w),
            lambda w: _quotient(b, math.pi * finite_point(w), "strip_log' at w = 0"))


def transfer_map(src: Domain, dst: Domain):
    """The canonical biholomorphism src -> dst and its derivative.

    Returns a pair of callables ``(phi, dphi)``.  All six ordered pairs of the
    three domains are supported (identity included).
    """
    if _same(src, dst):
        return finite_point, lambda z: 1.0 + 0.0j
    if isinstance(src, HalfPlane):
        return _off_half_plane(dst)
    phi, dphi = _onto_half_plane(src)
    if isinstance(dst, HalfPlane):
        return phi, dphi
    psi, dpsi = _off_half_plane(dst)
    return (lambda z: psi(phi(z))), (lambda z: dpsi(phi(z)) * dphi(z))


# --------------------------------------------------------------------------
# Hardy-space unitaries
# --------------------------------------------------------------------------

def _disc_to_half_plane(f):
    # (G f)(z) = sqrt(2i) / (z + i) * f((z - i)/(z + i)),  z in C_+
    return lambda z: _quotient(SQRT_2I, finite_point(z) + 1j, "the Cayley unitary at z = -i") \
        * f(cayley_inv(z))


def _half_plane_to_disc(f):
    # (G^{-1} f)(z) = sqrt(2i) / (1 - z) * f(i (1 + z)/(1 - z)),  z in D
    return lambda z: _quotient(SQRT_2I, 1.0 - finite_point(z), "the Cayley unitary at z = 1") \
        * f(cayley(z))


def _half_plane_to_strip(beta, f):
    # (Phi f)(z) = sqrt(pi/beta) e^{pi z / 2 beta} f(e^{pi z / beta}),  z in S_beta
    c = math.sqrt(math.pi / beta)

    def phi(z):
        w = strip_exp(beta, z)          # raises before the half-size exponential overflows
        return c * np.exp(math.pi * finite_point(z) / (2 * beta)) * f(w)
    return phi


def _strip_to_half_plane(beta, f):
    # (Phi^{-1} f)(z) = sqrt(beta/pi) z^{-1/2} f((beta/pi) Log z),  z in C_+
    c = math.sqrt(beta / math.pi)
    return lambda z: _quotient(c, cmath.sqrt(finite_point(z)), "the log unitary at z = 0") \
        * f(strip_log(beta, z))


def hardy_transfer(src: Domain, dst: Domain, f):
    """Unitary H^2(src) -> H^2(dst), returned as a callable on dst.

    The prefactors are the explicit closed forms (sqrt(2i)/(z+i) and friends);
    no square root of a composed derivative is ever taken, so there is no
    branch tracking to do.  Disc <-> strip goes through the half-plane.
    """
    if _same(src, dst):
        return f
    if isinstance(src, Disc):
        f = _disc_to_half_plane(f)
    elif isinstance(src, Strip):
        f = _strip_to_half_plane(src.beta, f)
    if isinstance(dst, Disc):
        f = _half_plane_to_disc(f)
    elif isinstance(dst, Strip):
        f = _half_plane_to_strip(dst.beta, f)
    return f


# --------------------------------------------------------------------------
# sampling helpers (shared by tests and the verification suites)
# --------------------------------------------------------------------------

@takes(n=SIZE(0), margin=REAL)
def sample_interior(domain: Domain, rng: np.random.Generator, n: int,
                    margin: float = 0.05):
    """n pseudo-random interior points, keeping ``margin`` (in [0, 1/2))
    away from the boundary."""
    if not 0.0 <= margin < 0.5:
        raise ParameterOutOfRange("margin must lie in [0, 1/2), got %r" % (margin,))
    if isinstance(domain, Disc):
        r = (1.0 - margin) * np.sqrt(rng.uniform(0.0, 1.0, n))
        th = rng.uniform(0.0, 2.0 * math.pi, n)
        return r * np.exp(1j * th)
    if isinstance(domain, HalfPlane):
        x = rng.uniform(-3.0, 3.0, n)
        y = rng.uniform(margin, 3.0, n)
        return x + 1j * y
    if isinstance(domain, Strip):
        b = domain.beta
        x = rng.uniform(-2.0 * b, 2.0 * b, n)
        y = rng.uniform(margin * b, (1.0 - margin) * b, n)
        return x + 1j * y
    raise ParameterOutOfRange("unknown domain %r" % (domain,))
