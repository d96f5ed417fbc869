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

from .errors import OutsideDomain, ParameterOutOfRange
from .numerics import _complex, _require_positive, is_batch

SQRT_2I = cmath.sqrt(2j)  # = (1 + i), principal branch


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

    def on_fixed_set(self, z: complex, tol: float = 1e-12) -> bool:
        """Whether z lies on the fixed-point set of sigma (inside the closure)."""
        return abs(self.sigma(z) - z) <= tol * (1.0 + abs(z))

    def locate(self, z: complex, tol: float = 1e-12) -> str:
        if self.contains(z):
            return "interior"
        if self.on_boundary(z, tol):
            return "boundary"
        return "exterior"

    def in_closure(self, z: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        """Elementwise ``locate(z, tol) != "exterior"`` for a complex array
        (False for NaN)."""
        raise NotImplementedError

    def require_interior(self, z: complex) -> complex:
        z = complex(z)
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
        scalar embedding bit for bit."""
        raise NotImplementedError

    def embedding(self, component: str):
        """:meth:`boundary_embed` on one component as a scalar function
        x -> complex, the component checked once."""
        raise NotImplementedError

    def __repr__(self):
        return self.name


class Disc(Domain):
    name = "disc"
    _SIDES = {"circle": ("circle", True)}

    def contains(self, z):
        return abs(complex(z)) < 1.0

    def on_boundary(self, z, tol=1e-12):
        return abs(abs(complex(z)) - 1.0) <= tol

    def in_closure(self, z, tol=1e-12):
        # np.hypot is the modulus Python's abs(complex) computes
        r = np.hypot(z.real, z.imag)
        return (r < 1.0) | (np.abs(r - 1.0) <= tol)

    def sigma(self, z):
        return complex(z).conjugate()

    def boundary_embed(self, component, x):
        self._side(component)
        if is_batch(x):
            # complex np.exp agrees with cmath.exp bit for bit
            return np.exp(1j * np.asarray(x, dtype=float))
        return cmath.exp(1j * x)

    def embedding(self, component):
        self._side(component)
        return lambda x: cmath.exp(1j * x)


class HalfPlane(Domain):
    name = "half_plane"
    _SIDES = {"line": ("line", True)}

    def contains(self, z):
        return complex(z).imag > 0.0

    def on_boundary(self, z, tol=1e-12):
        return abs(complex(z).imag) <= tol

    def in_closure(self, z, tol=1e-12):
        return (z.imag > 0.0) | (np.abs(z.imag) <= tol)

    def sigma(self, z):
        return -complex(z).conjugate()

    def boundary_embed(self, component, x):
        self._side(component)
        if is_batch(x):
            return _complex(x, 0.0)
        return complex(x)

    def embedding(self, component):
        self._side(component)
        return complex


class Strip(Domain):
    """The horizontal strip 0 < Im z < beta."""

    name = "strip"
    _SIDES = {"lower": ("upper", False), "upper": ("lower", False)}

    def __init__(self, beta: float):
        _require_positive(beta)
        self.beta = float(beta)

    def contains(self, z):
        return 0.0 < complex(z).imag < self.beta

    def on_boundary(self, z, tol=1e-12):
        y = complex(z).imag
        return abs(y) <= tol or abs(y - self.beta) <= tol

    def in_closure(self, z, tol=1e-12):
        y = z.imag
        return (((0.0 < y) & (y < self.beta)) | (np.abs(y) <= tol)
                | (np.abs(y - self.beta) <= tol))

    def sigma(self, z):
        return self.beta * 1j + complex(z).conjugate()

    def boundary_embed(self, component, x):
        y = self._height(component)
        return _complex(x, y) if is_batch(x) else complex(x, y)

    def embedding(self, component):
        y = self._height(component)
        return lambda x: complex(x, y)

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

def cayley(z: complex) -> complex:
    """Disc -> half-plane:  z |-> i (1 + z) / (1 - z)."""
    z = complex(z)
    return 1j * (1.0 + z) / (1.0 - z)


def cayley_inv(w: complex) -> complex:
    """Half-plane -> disc:  w |-> (w - i) / (w + i)."""
    w = complex(w)
    return (w - 1j) / (w + 1j)


def strip_exp(beta: float, z: complex) -> complex:
    """Strip -> half-plane:  z |-> exp(pi z / beta)."""
    return np.exp(math.pi * complex(z) / beta)


def strip_log(beta: float, w: complex) -> complex:
    """Half-plane -> strip:  w |-> (beta/pi) Log w  (principal branch)."""
    return beta / math.pi * cmath.log(complex(w))


def transfer_map(src: Domain, dst: Domain):
    """The canonical biholomorphism src -> dst and its derivative.

    Returns a pair of callables ``(phi, dphi)``.  All six ordered pairs of the
    three domains are supported (identity included).
    """
    def ident(z):
        return complex(z)

    def one(z):
        return 1.0 + 0.0j

    if src.name == dst.name and not isinstance(src, Strip):
        return ident, one
    if isinstance(src, Strip) and isinstance(dst, Strip) and src.beta == dst.beta:
        return ident, one

    if isinstance(src, Disc) and isinstance(dst, HalfPlane):
        return cayley, lambda z: 2j / (1.0 - complex(z)) ** 2
    if isinstance(src, HalfPlane) and isinstance(dst, Disc):
        return cayley_inv, lambda w: 2j / (complex(w) + 1j) ** 2
    if isinstance(src, Strip) and isinstance(dst, HalfPlane):
        b = src.beta
        return (lambda z: strip_exp(b, z),
                lambda z: math.pi / b * strip_exp(b, z))
    if isinstance(src, HalfPlane) and isinstance(dst, Strip):
        b = dst.beta
        return (lambda w: strip_log(b, w),
                lambda w: b / (math.pi * complex(w)))

    # compositions through the half-plane
    if (isinstance(src, Disc) and isinstance(dst, Strip)
            or isinstance(src, Strip) and isinstance(dst, Disc)):
        mid1, dmid1 = transfer_map(src, HALF_PLANE)
        mid2, dmid2 = transfer_map(HALF_PLANE, dst)
        return (lambda z: mid2(mid1(z)),
                lambda z: dmid2(mid1(z)) * dmid1(z))
    raise ParameterOutOfRange("unsupported domain pair %r -> %r" % (src, dst))


# --------------------------------------------------------------------------
# Hardy-space unitaries
# --------------------------------------------------------------------------

def _disc_to_half_plane(f):
    # (G f)(z) = sqrt(2i) / (z + i) * f((z - i)/(z + i)),  z in C_+
    return lambda z: SQRT_2I / (complex(z) + 1j) * f(cayley_inv(z))


def _half_plane_to_disc(f):
    # (G^{-1} f)(z) = sqrt(2i) / (1 - z) * f(i (1 + z)/(1 - z)),  z in D
    return lambda z: SQRT_2I / (1.0 - complex(z)) * f(cayley(z))


def _half_plane_to_strip(beta, f):
    # (Phi f)(z) = sqrt(pi/beta) e^{pi z / 2 beta} f(e^{pi z / beta}),  z in S_beta
    c = math.sqrt(math.pi / beta)
    return lambda z: c * np.exp(math.pi * complex(z) / (2 * beta)) * f(strip_exp(beta, z))


def _strip_to_half_plane(beta, f):
    # (Phi^{-1} f)(z) = sqrt(beta/pi) z^{-1/2} f((beta/pi) Log z),  z in C_+
    c = math.sqrt(beta / math.pi)
    return lambda z: c / cmath.sqrt(complex(z)) * f(strip_log(beta, z))


def hardy_transfer(src: Domain, dst: Domain, f):
    """Unitary H^2(src) -> H^2(dst), returned as a callable on dst.

    The prefactors are the explicit closed forms (sqrt(2i)/(z+i) and friends);
    no square root of a composed derivative is ever taken, so there is no
    branch tracking to do.  Disc <-> strip goes through the half-plane.
    """
    if isinstance(src, Disc) and isinstance(dst, HalfPlane):
        return _disc_to_half_plane(f)
    if isinstance(src, HalfPlane) and isinstance(dst, Disc):
        return _half_plane_to_disc(f)
    if isinstance(src, HalfPlane) and isinstance(dst, Strip):
        return _half_plane_to_strip(dst.beta, f)
    if isinstance(src, Strip) and isinstance(dst, HalfPlane):
        return _strip_to_half_plane(src.beta, f)
    if isinstance(src, Disc) and isinstance(dst, Strip):
        return _half_plane_to_strip(dst.beta, _disc_to_half_plane(f))
    if isinstance(src, Strip) and isinstance(dst, Disc):
        return _half_plane_to_disc(_strip_to_half_plane(src.beta, f))
    if type(src) is type(dst):
        if isinstance(src, Strip) and src.beta != dst.beta:
            raise ParameterOutOfRange("strip heights differ: %g vs %g"
                                      % (src.beta, dst.beta))
        return f
    raise ParameterOutOfRange("unsupported transfer %r -> %r" % (src, dst))


# --------------------------------------------------------------------------
# sampling helpers (shared by tests and the verification suites)
# --------------------------------------------------------------------------

def sample_interior(domain: Domain, rng: np.random.Generator, n: int,
                    margin: float = 0.05):
    """n pseudo-random interior points, keeping ``margin`` away from the boundary."""
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
