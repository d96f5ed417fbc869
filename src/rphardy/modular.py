"""Finite-dimensional modular data (Delta, J) attached to a beta-reflected
spectral measure, and the associated dynamical checks.

A measure nu with d nu(-lam) = e^{-beta lam} d nu(lam) is discretized into a
weighted node space (:class:`DiscretizedSpace`, nodes symmetric under
lam -> -lam).  On it:

    (Delta v)(lam) = e^{-beta lam} v(lam)            (positive, self-adjoint),
    (J v)(lam)     = e^{-beta lam / 2} conj(v(-lam)) (antilinear),

and the algebraic relations hold to rounding accuracy:

    J^2 = 1,    J Delta J = Delta^{-1},    Delta^{-it/beta} v = e^{i t lam} v.

The standard subspace V consists of the vectors with v(lam) = conj(v(-lam));
membership is J Delta^{1/2}-invariance spelled out on nodes.  For v in V the
coefficient function

    psi(t) = <v, Delta^{-it/beta} v> = sum_j |v_j|^2 e^{i t lam_j} w_j

is positive definite and satisfies the KMS boundary relation
psi(i beta + t) = conj(psi(t)), inherited from the reflection law of the
spectral measure |v|^2 d nu.  psi is the Fourier transform of that measure,
and :func:`modular_coefficient` sums it with the body of
:func:`rphardy.measures.fourier`; this module has no exponential sum of its own.

:func:`psi_hardy_midline` cross-checks the two integral representations of
the coefficient function of the canonical midline vector over the Szego
spectral density,

    (1/4 pi) Integral e^{-beta lam / 2} (1 + e^{-beta lam})^{-2} e^{i t lam} d lam
  = (1/2 pi) Integral e^{-beta lam} (1 + e^{-2 beta lam})^{-2} e^{2 i t lam} d lam,

equal exactly (substitute lam -> lam / 2 in the second integral).

:func:`commutation_check` realizes the Weyl pair on a periodic grid, where
U_t V_s = e^{i t s} V_s U_t holds exactly at the nodes whose translate does
not wrap, and a wrapped node picks up at most the phase defect |e^{i t L} - 1|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterOutOfRange, ReflectionViolation
from .measures import MeasureOnR, _exp_sum, _mirror_index, reflection_check
from .numerics import (POINTS, POSITIVE, REAL, SIZE, IdentityCheck, comp_sum, oscillatory_ft,
                       takes)

_REFLECTION_TOL = 1e-10     # the reflection defect build_modular accepts
_MAX_EXPONENT = 470.0       # keeps e^{3 beta |lam| / 2}, met inside J Delta J, finite


# --------------------------------------------------------------------------
# discretized space and modular pair
# --------------------------------------------------------------------------

@dataclass
class DiscretizedSpace:
    """Weighted nodes (lam_j, w_j), w_j > 0, with the node set symmetric
    under lam -> -lam; ``mirror[j]`` is the index of -lam_j."""

    nodes: np.ndarray
    weights: np.ndarray
    mirror: np.ndarray

    @staticmethod
    def from_measure(nu: MeasureOnR) -> "DiscretizedSpace":
        nodes = np.concatenate([nu.atom_locs, nu.grid_nodes()])
        weights = np.concatenate([nu.atom_weights, nu.grid_quad_weights()])
        if not nodes.size:
            raise ParameterOutOfRange("discretization needs atoms or a density")
        order = np.argsort(nodes, kind="stable")
        nodes, weights = nodes[order], weights[order]
        if np.any(weights <= 0.0):
            raise ParameterOutOfRange("discretization needs strictly positive weights")
        mirror, count = _mirror_index(nodes, 1e-9 * np.maximum(1.0, np.abs(nodes)))
        if np.any(count != 1):
            raise ParameterOutOfRange("node set must be symmetric with distinct nodes")
        return DiscretizedSpace(nodes, weights, mirror)

    @property
    def dim(self) -> int:
        return self.nodes.size

    def inner(self, v, u) -> complex:
        """<v, u> = sum conj(v_j) u_j w_j."""
        return complex(comp_sum(np.conjugate(np.asarray(v)) * np.asarray(u) * self.weights))

    def norm(self, v) -> float:
        return math.sqrt(max(0.0, self.inner(v, v).real))

    def random_vector(self, rng) -> np.ndarray:
        return rng.standard_normal(self.dim) + 1j * rng.standard_normal(self.dim)

    def random_standard_vector(self, rng) -> np.ndarray:
        """Random element of the standard subspace: v(lam) = conj(v(-lam))."""
        v = self.random_vector(rng)
        return 0.5 * (v + np.conjugate(v[self.mirror]))


@dataclass
class ModularData:
    """The pair (Delta, J) over a discretized beta-reflected measure."""

    space: DiscretizedSpace
    beta: float

    def delta_apply(self, v) -> np.ndarray:
        return np.exp(-self.beta * self.space.nodes) * np.asarray(v)

    def delta_inverse_apply(self, v) -> np.ndarray:
        return np.exp(self.beta * self.space.nodes) * np.asarray(v)

    def delta_power_apply(self, t: float, v) -> np.ndarray:
        """Delta^{-i t / beta} v = e^{i t lam} v (the modular flow)."""
        return np.exp(1j * t * self.space.nodes) * np.asarray(v)

    def j_apply(self, v) -> np.ndarray:
        v = np.asarray(v)
        return np.exp(-0.5 * self.beta * self.space.nodes) \
            * np.conjugate(v[self.space.mirror])


def build_modular(nu: MeasureOnR, beta: float) -> ModularData:
    """Discretize nu and attach (Delta, J); nu must satisfy the
    beta-reflection law to within 1e-10 or :class:`ReflectionViolation` is
    raised, and beta |lam| stay below 470 on its support, so that every
    product of Delta, Delta^{-1} and J is finite, or
    :class:`ParameterOutOfRange` is."""
    defect = reflection_check(nu, beta)
    if not defect <= _REFLECTION_TOL:
        raise ReflectionViolation(
            "measure violates the beta-reflection law (defect %.3g)" % defect)
    space = DiscretizedSpace.from_measure(nu)
    if np.max(np.abs(space.nodes)) > _MAX_EXPONENT / beta:
        raise ParameterOutOfRange("beta |lam| exceeds %g on the support" % _MAX_EXPONENT)
    return ModularData(space, beta)


# --------------------------------------------------------------------------
# algebraic checks
# --------------------------------------------------------------------------

def _worst(md: ModularData, rng, n: int, defect) -> float:
    """The largest ``defect(v)`` over n random vectors v."""
    return max(defect(md.space.random_vector(rng)) for _ in range(n))


def j_involution_defect(md: ModularData, rng) -> float:
    """max relative defect of J^2 = 1 on 5 random vectors."""
    return _worst(md, rng, 5, lambda v: float(np.max(np.abs(md.j_apply(md.j_apply(v)) - v)))
                  / float(np.max(np.abs(v))))


def jdj_defect(md: ModularData, rng) -> float:
    """max relative defect of J Delta J = Delta^{-1} on 5 random vectors,
    measured entrywise against the entries of Delta^{-1} v."""
    def defect(v):
        rhs = md.delta_inverse_apply(v)
        return float(np.max(np.abs(md.j_apply(md.delta_apply(md.j_apply(v))) - rhs)
                            / np.abs(rhs)))
    return _worst(md, rng, 5, defect)


def flow_unitarity_defect(md: ModularData, rng) -> float:
    """max relative defect of ||Delta^{-it/beta} v|| = ||v|| on 3 random
    vectors, each at the times 0.7, -2.3 and 11."""
    def defect(v):
        n0 = md.space.norm(v)
        return max(abs(md.space.norm(md.delta_power_apply(t, v)) - n0) / n0
                   for t in (0.7, -2.3, 11.0))
    return _worst(md, rng, 3, defect)


def _vector(space: DiscretizedSpace, v) -> np.ndarray:
    """v as an array of one number per node.  Its values are not checked
    here (a sum of them that is not finite raises where it is taken)."""
    try:
        v = np.asarray(v)
    except ValueError:      # ragged
        v = None
    if v is None or v.shape != (space.dim,) or v.dtype.kind not in "biufc":
        raise ParameterOutOfRange("v must hold one number per node, %d" % (space.dim,))
    return v


@takes(v=POINTS)
@np.errstate(over="ignore")     # a defect that overflows raises below
def standard_membership(space: DiscretizedSpace, v) -> float:
    """Defect of v from the standard subspace: max |v_j - conj(v_{-j})|."""
    v = _vector(space, v)
    defect = float(np.max(np.abs(v - np.conjugate(v[space.mirror]))))
    if defect == math.inf:
        raise ParameterOutOfRange("the defect of v from the standard subspace overflows")
    return defect


@takes(t=POINTS)
@np.errstate(over="ignore")     # |v|^2 = inf: the sum raises DivergentTransform
def modular_coefficient(md: ModularData, v, t):
    """psi(t) = <v, Delta^{-it/beta} v> = sum_j e^{i t lam_j} (|v_j|^2 w_j) for
    complex t (t = i beta gives the KMS dual), by the body and with the
    contract of :func:`rphardy.measures.fourier`.  ``t`` may be an array; the
    result then has its shape, and each value is the one a scalar call gives.
    A v that is not finite, or whose |v|^2 overflows, raises
    :class:`DivergentTransform` from the sum, which tests its result anyway."""
    space = md.space
    weights = np.abs(_vector(space, v)).astype(float, copy=False)
    weights *= weights
    weights *= space.weights
    return _exp_sum(((space.nodes, weights, False),), t)


@np.errstate(over="ignore")     # |v|^2 = inf: MeasureOnR refuses the weight
def coefficient_measure(md: ModularData, v) -> MeasureOnR:
    """The spectral measure |v|^2 d nu of psi, as an atomic measure; for
    v in the standard subspace it inherits the beta-reflection law."""
    return MeasureOnR(md.space.nodes.copy(), np.abs(_vector(md.space, v)) ** 2 * md.space.weights)


# --------------------------------------------------------------------------
# the midline coefficient function, two ways
# --------------------------------------------------------------------------

@takes(beta=POSITIVE)
def psi_hardy_midline(beta: float, t: float) -> IdentityCheck:
    """Two integral forms of the midline coefficient function (equal exactly
    by the substitution lam -> lam / 2 in the second); oscillatory_ft guards t."""

    # e^{-x} (1 + e^{-2x})^{-2} = e^{x} / (2 cosh x)^2; evaluating through
    # log(2 cosh x) = |x| + log1p(e^{-2|x|}) keeps both tails finite.
    # x is inf at a finite lam when beta is near 1e308: a NaN there crashed QAWF
    def envelope(x):
        if not math.isfinite(x):
            return 0.0
        return math.exp(x - 2.0 * (abs(x) + math.log1p(math.exp(-2.0 * abs(x)))))

    a = oscillatory_ft(lambda lam: envelope(0.5 * beta * lam), t)
    b = oscillatory_ft(lambda lam: envelope(beta * lam), 2.0 * t)
    a /= 4.0 * math.pi
    b /= 2.0 * math.pi
    return IdentityCheck(a, b, abs(a - b))


# --------------------------------------------------------------------------
# Weyl commutation on a periodic grid
# --------------------------------------------------------------------------

@dataclass
class CommutationReport:
    """Node-wise defects of the Weyl relation V_s U_t = e^{i t s} U_t V_s
    on the periodic grid."""

    global_defect: float      # max over all nodes
    interior_defect: float    # max over nodes whose translate does not wrap
    wrap_phase: float         # |e^{i t L} - 1|, the single-wrap phase defect
    n_wrapped: int


@takes(beta_length=POSITIVE, n_nodes=SIZE(2), s=REAL, t=REAL)
def commutation_check(beta_length: float, n_nodes: int, s: float,
                      t: float) -> CommutationReport:
    """Realize U_t (multiplication by e^{itx}) and V_s (translation by s,
    arguments wrapped into [-L/2, L/2)) on the grid of n_nodes points over a
    period L = beta_length, applied to a periodized Gaussian test function of
    width L / 6; reports the node-wise defect of V_s U_t = e^{its} U_t V_s."""
    L = float(beta_length)
    if not abs(s) / L < math.inf:   # every u / L below is at most |s| / L + 1
        raise ParameterOutOfRange("s / beta_length overflows at beta_length = %r" % (L,))
    h = L / n_nodes
    x = -L / 2.0 + h * np.arange(n_nodes)
    width = L / 6.0

    def wrap(u):
        return u - L * np.round(u / L)

    f = lambda u: np.exp(-(wrap(u) / width) ** 2)

    shifted = x + s
    wrapped = wrap(shifted)
    m = np.round((shifted - wrapped) / L)     # the periods wrapped over

    lhs = np.exp(1j * t * wrapped) * f(shifted)          # (V_s U_t f)(x)
    rhs = np.exp(1j * t * s) * np.exp(1j * t * x) * f(shifted)  # e^{its} (U_t V_s f)(x)
    defect = np.abs(lhs - rhs)

    interior = m == 0
    interior_defect = float(np.max(defect[interior])) if np.any(interior) else 0.0
    return CommutationReport(
        global_defect=float(np.max(defect)),
        interior_defect=interior_defect,
        wrap_phase=abs(np.exp(1j * t * L) - 1.0),
        n_wrapped=int(np.sum(~interior)),
    )
