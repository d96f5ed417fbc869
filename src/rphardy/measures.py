"""Positive measures on the real line and the transforms that move them
between the positivity pictures.

A :class:`MeasureOnR` is a finite positive measure stored as a list of atoms
plus an optional density sampled on a uniform grid (integrated by the
trapezoid rule).  The two pictures are connected by the maps (beta > 0):

    gamma(mu) = mu + e_beta mu^vee            (mu supported on [0, inf)),
    Gamma(mu) = (mu + mu^vee) / (1 + e_{-beta}),

where mu^vee is the pushforward under lam -> -lam and e_c denotes the density
e^{c lam}.  They agree after the Markov reweighting M_kappa with
kappa(lam) = 1 / (1 + e^{-beta lam}):  gamma(M_kappa mu) = Gamma(mu).

A measure nu in the image satisfies the beta-reflection law
d nu(-lam) = e^{-beta lam} d nu(lam); :func:`reflection_check` measures the
relative defect.  Its Fourier transform

    nu_hat(z) = Integral e^{i z lam} d nu(lam)

is the bridge to the strip: nu_hat extends holomorphically to 0 < Im z < c
whenever e^{-c lam} is integrable at +infinity, the KMS boundary relation
nu_hat(i beta + t) = conj(nu_hat(t)) holds iff the reflection law does, and
K(z, w) = nu_hat(z - conj(w)) is a positive-definite reflection-invariant
kernel.  Two concrete 2 beta-reflected spectral densities reproduce the strip
kernels exactly,

    szego:    (1/2 pi)   d lam / (1 + e^{-2 beta lam})      -> (i/4 beta) / sinh(pi (z - conj w) / (2 beta)),
    bergman:  (1/4 pi^2) lam d lam / (1 - e^{-2 beta lam})  -> the squared kernel,

and the Riesz family d mu_s = p^{s-1} dp / GAMMA(s) on (0, inf) has
mu_s_hat(z) = (i/z)^s.  All numerical transforms are guarded by a divergence
monitor: if either 5% tail of the grid still contributes more than 1e-12 of
the total absolute mass of the summand, :class:`DivergentTransform` is raised
instead of returning a silently truncated value.  That mass, e^{-Im z lam}
|w| per node, depends on Im z alone, so it is read once per Im z of a call.
:func:`kms_check` samples t on the fixed grid _KMS_T_GRID, 33 points on
[-4, 4].

Every transform is one exponential sum, :func:`_exp_sum`, over one table of
phases e^{i z lam}.  For real z they are cos(z lam) + i sin(z lam), the bits
np.exp gives there; complex z take np.exp.  A part may carry a stack of
weight rows, each summed over the same table: :func:`kms_check` reads
nu_hat(t) and nu_hat(i beta + t), the transform at t of e^{-beta lam} d nu,
off one table of phases at real t.  Nodes symmetric bit for bit (gamma and
Gamma images, the strip measures, the modular spaces built on them) take cos
and sin at lam >= 0 only, for real z: cos is even and sin odd, so the
mirrored half of the table is its conjugate, the same bits.

Atoms are kept sorted by location and merged by a chained rule: atoms whose
gap to the next atom is at most 1e-12 form one atom, at the lowest location
of the chain, so the atoms kept lie more than 1e-12 apart.  That invariant is
what pairing lam with -lam relies on:
the mirror of every node is found by binary search in one pass
(:func:`_mirror_index`), which serves the reflection law, the symmetry test
of :func:`geometric_splitting` and the modular conjugation J alike.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymmetricInput,
    AtomAtZero,
    DivergentTransform,
    NegativeSupport,
    ParameterOutOfRange,
    ToleranceNotReached,
    ZeroDenominator,
)
from .numerics import (_MAX_SIZE, POINT, POINTS, POSITIVE, REAL, _require_positive, comp_sum,
                       finite_array, finite_pairs, finite_real, quad, row_blocks, takes)

_MERGE_TOL = 1e-12


# --------------------------------------------------------------------------
# the measure container
# --------------------------------------------------------------------------

@dataclass
class MeasureOnR:
    """Finite positive measure: atoms plus an optional gridded density.

    ``atom_locs`` / ``atom_weights`` are parallel arrays (finite, sorted,
    weights > 0).  Merging is chained: a run of atoms each within 1e-12 of
    the next becomes one atom at the run's lowest location carrying the
    run's total weight, so kept atoms lie more than 1e-12 apart.  The
    density part (finite, nonnegative values) lives on the uniform grid of
    :meth:`grid_nodes`, x0 + h j for j < len(values), and is integrated with
    trapezoid weights (half weight at both ends).  Where x0 is h k0 exactly,
    the nodes are h k, one rounding each: a grid symmetric about 0 is then
    symmetric bit for bit, and a gamma or Gamma image keeps the nodes of mu.
    """

    atom_locs: np.ndarray = field(default_factory=lambda: np.empty(0))
    atom_weights: np.ndarray = field(default_factory=lambda: np.empty(0))
    grid_x0: float | None = None
    grid_h: float | None = None
    density: np.ndarray | None = None

    def __post_init__(self):
        self.atom_locs = finite_array(self.atom_locs, "atom locations")
        self.atom_weights = finite_array(self.atom_weights, "atom weights")
        if self.atom_locs.shape != self.atom_weights.shape:
            raise ParameterOutOfRange("atom arrays must be parallel")
        if np.any(self.atom_weights < 0.0):
            raise ParameterOutOfRange("atom weights must be nonnegative")
        order = np.argsort(self.atom_locs, kind="stable")
        self.atom_locs = self.atom_locs[order]
        self.atom_weights = self.atom_weights[order]
        self._merge_atoms()
        if self.density is not None:
            self.grid_x0 = finite_real(self.grid_x0, "grid x0")
            _require_positive(self.grid_h, "grid h")
            self.density = finite_array(self.density, "density values")
            if self.density.ndim != 1 or self.density.size < 2:
                raise ParameterOutOfRange("density must be a 1-d array, >= 2 nodes")
            if np.any(self.density < 0.0):
                raise ParameterOutOfRange("density must be nonnegative")

    @np.errstate(over="ignore")     # an inf gap is as far as any
    def _merge_atoms(self):
        """The chained merge of the sorted atoms; atoms of weight 0 go."""
        starts = np.flatnonzero(np.diff(self.atom_locs, prepend=-np.inf) > _MERGE_TOL)
        weights = np.add.reduceat(self.atom_weights, starts)
        if np.any(weights == math.inf):
            raise ParameterOutOfRange("a merged atom weight overflows")
        keep = weights > 0.0
        self.atom_locs = self.atom_locs[starts][keep]
        self.atom_weights = weights[keep]

    # -- basic geometry ----------------------------------------------------

    def grid_nodes(self) -> np.ndarray:
        """h k for k = k0, ..., k0 + n - 1 when x0 is exactly h k0 for an
        integer k0 with |k0| + n < 2**53, else x0 + h j for j < n."""
        if self.density is None:
            return np.empty(0)
        n, x0, h = self.density.size, float(self.grid_x0), float(self.grid_h)
        q = x0 / h      # a Python float: inf where it overflows, and then no k0
        if abs(q) + n < 2.0 ** 53 and h * round(q) == x0:
            k0 = round(q)
            return h * np.arange(k0, k0 + n)
        return x0 + h * np.arange(n)

    def grid_quad_weights(self) -> np.ndarray:
        """Trapezoid weights h * (1/2, 1, ..., 1, 1/2) times the density."""
        if self.density is None:
            return np.empty(0)
        w = np.full(self.density.size, self.grid_h)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w * self.density

    def total_mass(self) -> float:
        return comp_sum(self.atom_weights) + comp_sum(self.grid_quad_weights())

    def support_bounds(self) -> tuple[float, float]:
        live = self.grid_nodes()[self.density > 0.0] if self.density is not None else ()
        points = np.concatenate([self.atom_locs, live])
        if not points.size:
            return (0.0, 0.0)
        return (float(np.min(points)), float(np.max(points)))

    def require_support(self, lo: float, hi: float):
        a, b = self.support_bounds()
        if a < lo - _MERGE_TOL or b > hi + _MERGE_TOL:
            raise NegativeSupport(
                "support [%g, %g] escapes the required interval [%g, %g]"
                % (a, b, lo, hi))

    def map_density(self, factor) -> "MeasureOnR":
        """New measure with atoms and density multiplied pointwise by
        ``factor(lam)`` (vectorized, must be nonnegative on the support)."""
        atoms_w = self.atom_weights * np.asarray(factor(self.atom_locs), dtype=float) \
            if self.atom_locs.size else self.atom_weights.copy()
        dens = None
        if self.density is not None:
            dens = self.density * np.asarray(factor(self.grid_nodes()), dtype=float)
        return MeasureOnR(self.atom_locs.copy(), atoms_w,
                          self.grid_x0, self.grid_h, dens)

    def plus(self, other: "MeasureOnR") -> "MeasureOnR":
        """Sum of measures; gridded parts must share the same grid."""
        if (self.density is None) != (other.density is None):
            raise ParameterOutOfRange("cannot add gridded and atom-only densities")
        dens = x0 = h = None
        if self.density is not None:
            same = (abs(self.grid_x0 - other.grid_x0) <= _MERGE_TOL
                    and abs(self.grid_h - other.grid_h) <= _MERGE_TOL
                    and self.density.size == other.density.size)
            if not same:
                raise ParameterOutOfRange("grids must match to add densities")
            dens, x0, h = self.density + other.density, self.grid_x0, self.grid_h
        return MeasureOnR(np.concatenate([self.atom_locs, other.atom_locs]),
                          np.concatenate([self.atom_weights, other.atom_weights]),
                          x0, h, dens)

    # -- (de)serialization ---------------------------------------------------

    def to_json(self) -> str:
        obj = {"atoms": np.column_stack([self.atom_locs, self.atom_weights]).tolist()}
        if self.density is not None:
            obj["density"] = {"x0": self.grid_x0, "h": self.grid_h,
                              "values": self.density.tolist()}
        return json.dumps(obj)

    @staticmethod
    def from_json(text: str) -> "MeasureOnR":
        """The measure :meth:`to_json` writes; text that does not hold one
        raises :class:`ParameterOutOfRange`."""
        try:
            obj = json.loads(text)
            atoms = finite_pairs(obj.get("atoms", []), "atoms")
            dens = obj.get("density")
            grid = () if dens is None else (float(dens["x0"]), float(dens["h"]),
                                            np.asarray(dens["values"], dtype=float))
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            raise ParameterOutOfRange("not a measure JSON: %s" % (exc,)) from exc
        return MeasureOnR(atoms[:, 0], atoms[:, 1], *grid)


def atomic(pairs) -> MeasureOnR:
    """Measure sum w_j delta_{lam_j} from (location, weight) pairs; raises
    :class:`ParameterOutOfRange` for anything but finite pairs."""
    locs, weights = finite_pairs(pairs, "atoms").T
    return MeasureOnR(locs, weights)


def gridded(x0: float, h: float, values) -> MeasureOnR:
    """Density measure on the uniform grid x0 + h * arange(len(values)),
    whose nodes are h k where x0 = h k0 (:meth:`MeasureOnR.grid_nodes`)."""
    return MeasureOnR(grid_x0=x0, grid_h=h, density=np.asarray(values, dtype=float))


# --------------------------------------------------------------------------
# the maps gamma, Gamma, M_kappa; a weight or density value that overflows
# in them is caught by MeasureOnR's finiteness check
# --------------------------------------------------------------------------

@takes(beta=POSITIVE)
@np.errstate(over="ignore")
def gamma_map(mu: MeasureOnR, beta: float) -> MeasureOnR:
    """gamma(mu) = mu + e_beta mu^vee for mu supported on [0, inf).

    An atom w delta_lam with lam > 0 acquires the mirror atom
    w e^{-beta lam} delta_{-lam}; an atom at 0 doubles.  A density m(lam)
    extends to m(-lam) e^{-beta lam} on the negative axis; at the lone shared
    node lam = 0 the two branches agree (value m(0)), so nothing doubles.
    """
    mu.require_support(0.0, math.inf)

    zero = np.abs(mu.atom_locs) <= _MERGE_TOL
    locs, weights = mu.atom_locs[~zero], mu.atom_weights[~zero]
    out_locs = np.concatenate([np.zeros(np.count_nonzero(zero)), locs, -locs])
    out_weights = np.concatenate([2.0 * mu.atom_weights[zero], weights,
                                  _mirror_weight(weights, beta * locs)])
    return _extended(mu, out_locs, out_weights, lambda nodes: np.concatenate(
        [(mu.density * np.exp(-beta * nodes))[::-1][:-1], mu.density]))


@takes(beta=POSITIVE)
@np.errstate(over="ignore")
def Gamma_map(mu: MeasureOnR, beta: float) -> MeasureOnR:
    """Gamma(mu) = (mu + mu^vee) / (1 + e^{-beta lam}) for mu on [0, inf)."""
    mu.require_support(0.0, math.inf)

    zero = np.abs(mu.atom_locs) <= _MERGE_TOL
    locs, w = mu.atom_locs[~zero], mu.atom_weights[~zero]
    x = beta * locs
    # past x ~ 700 e^{x} overflows; w e^{-x} / (1 + e^{-x}) does not
    mirror = np.where(x <= 700.0, w / (1.0 + np.exp(x)),
                      _mirror_weight(w, x) / (1.0 + np.exp(-x)))
    out_locs = np.concatenate([np.zeros(np.count_nonzero(zero)), locs, -locs])
    # an atom at 0 keeps its weight: (w + w) / (1 + 1)
    out_weights = np.concatenate([mu.atom_weights[zero], w / (1.0 + np.exp(-x)), mirror])

    def density(nodes):
        full = np.concatenate([nodes[::-1][:-1] * -1.0, nodes])
        vals = np.concatenate([mu.density[::-1][:-1], mu.density])
        return vals / (1.0 + np.exp(-beta * full))
    return _extended(mu, out_locs, out_weights, density)


def _extended(mu: MeasureOnR, locs, weights, density_of) -> MeasureOnR:
    """The atoms (locs, weights) and, when mu has a density on a grid
    0, h, ..., L, the density ``density_of(grid nodes)`` on -L, ..., L."""
    if mu.density is None:
        return MeasureOnR(locs, weights)
    nodes = mu.grid_nodes()
    if abs(nodes[0]) > _MERGE_TOL:
        raise ParameterOutOfRange("density extension needs the grid to start at lam = 0")
    return MeasureOnR(locs, weights, -float(nodes[-1]), mu.grid_h, density_of(nodes))


def _mirror_weight(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """w e^{-x}.  Past x = 708.4 e^{-x} is subnormal (0 past 745.2) and has
    lost relative accuracy, so there it is formed as (w e^{-x/2}) e^{-x/2};
    everywhere else the value is w * e^{-x} as rounded."""
    e = np.exp(-x)
    out = w * e
    tiny = e < sys.float_info.min
    half = np.exp(-0.5 * x[tiny])
    out[tiny] = w[tiny] * half * half
    return out


def _weight_at_zero(m: MeasureOnR) -> np.ndarray:
    """The total weight of the atoms of m within 1e-12 of 0 (there may be
    two, on either side of 0), as the one-element array of the atom at 0
    they stand for; empty when there are none."""
    w = m.atom_weights[np.abs(m.atom_locs) <= _MERGE_TOL]
    return w.sum(keepdims=True) if w.size else w


@np.errstate(over="ignore")     # e^{-beta lam} = inf gives kappa = 0
def markov_weight(beta: float, lam):
    """kappa(lam) = 1 / (1 + e^{-beta lam}), the reweighting with
    gamma(M_kappa mu) = Gamma(mu)."""
    return 1.0 / (1.0 + np.exp(-beta * np.asarray(lam, dtype=float)))


@takes(beta=POSITIVE)
def M_kappa(mu: MeasureOnR, beta: float) -> MeasureOnR:
    return mu.map_density(lambda lam: markov_weight(beta, lam))


@takes(beta=POSITIVE)
@np.errstate(over="ignore")
def Gamma_inverse(nu: MeasureOnR, beta: float) -> MeasureOnR:
    """Recover mu on [0, inf) from nu = Gamma(mu).

    Atoms: mu({lam}) = (1 + e^{-beta lam}) nu({lam}) for lam > 0, while an
    atom at 0 passes through unchanged (Gamma sends w delta_0 to w delta_0).
    Densities use the factor (1 + e^{-beta lam}) at every node including 0,
    where its value 2 undoes the halving m(0) -> m(0)/2 that continuity
    forces on the Gamma density at the origin."""
    keep = nu.atom_locs > _MERGE_TOL
    locs = nu.atom_locs[keep]
    weights = nu.atom_weights[keep] * (1.0 + np.exp(-beta * locs))
    w0 = _weight_at_zero(nu)
    locs = np.concatenate([np.zeros(w0.size), locs])
    weights = np.concatenate([w0, weights])

    if nu.density is None:
        return MeasureOnR(locs, weights)
    nodes = nu.grid_nodes()
    keep = nodes >= -_MERGE_TOL
    if not keep.any():
        raise ParameterOutOfRange("the density of nu has no node at lam >= 0")
    dens = nu.density[keep] * (1.0 + np.exp(-beta * nodes[keep]))
    return MeasureOnR(locs, weights, float(nodes[keep][0]), nu.grid_h, dens)


# --------------------------------------------------------------------------
# reflection law, Fourier transform, KMS
# --------------------------------------------------------------------------

def _mirror_index(nodes: np.ndarray, tol) -> tuple[np.ndarray, np.ndarray]:
    """Pair every node of the sorted array ``nodes`` with its mirror.

    Returns ``(first, count)``: ``count[j]`` nodes lie within ``tol`` of
    -nodes[j] and ``first[j]`` is the index of the lowest of them (meaningful
    only where ``count[j] > 0``).  ``tol`` is a scalar or one tolerance per
    node."""
    first = np.searchsorted(nodes, -nodes - tol, side="left")
    last = np.searchsorted(nodes, -nodes + tol, side="right")
    return first, last - first


def _reflected(weights: np.ndarray, c: float, locs: np.ndarray) -> np.ndarray:
    """The reflection target weights e^{-c lam}; raises
    :class:`ParameterOutOfRange` where it is not finite."""
    target = weights * np.exp(-c * locs)
    if not np.all(target < math.inf):
        raise ParameterOutOfRange("the reflected weight e^{-c lam} w is not finite")
    return target


@np.errstate(over="ignore")     # a relative defect past 1e308 is inf
def _atom_reflection_defect(mu: MeasureOnR, c: float, sources) -> float:
    """Largest relative defect of  mu({-lam}) = e^{-c lam} mu({lam})  over
    the atoms selected by the mask ``sources``; inf when an atom outside
    ``sources`` has no mirror, or when exactly one of target and mirror
    vanishes."""
    locs, weights = mu.atom_locs, mu.atom_weights
    first, count = _mirror_index(locs, _MERGE_TOL)
    found = count > 0
    if np.any(~found & ~sources):
        return math.inf
    mirror = np.where(found, np.take(weights, first, mode="clip"), 0.0)[sources]
    target = _reflected(weights[sources], c, locs[sources])
    if np.any((target == 0.0) != (mirror == 0.0)):
        return math.inf
    live = target != 0.0
    if not np.any(live):
        return 0.0
    return float(np.max(np.abs(mirror[live] - target[live]) / np.abs(target[live])))


@takes(beta=POSITIVE, factor=REAL)
@np.errstate(over="ignore")     # a relative defect past 1e308 is inf
def reflection_check(nu: MeasureOnR, beta: float, factor: float = 1.0) -> float:
    """Largest relative defect in  d nu(-lam) = e^{-factor * beta * lam} d nu(lam).

    Returns inf when the support itself is asymmetric (for example a bare
    delta_lam with no mirror atom), or the defect exceeds double precision.
    """
    c = factor * beta
    worst = _atom_reflection_defect(nu, c, nu.atom_locs >= -_MERGE_TOL)

    if nu.density is not None:
        nodes = nu.grid_nodes()
        if abs(nodes[0] + nodes[-1]) > 1e-9 * max(1.0, abs(nodes[-1])):
            return math.inf
        vals = nu.density
        pos = nodes > _MERGE_TOL
        lam = nodes[pos]
        right = vals[pos]
        left = vals[::-1][pos]          # value at -lam
        target = _reflected(right, c, lam)
        if np.any((target == 0.0) & (left != 0.0)):
            return math.inf
        live = target != 0.0            # a node where both vanish is exact
        worst = max(worst, float(np.max(
            np.abs(left[live] - target[live]) / np.abs(target[live]), initial=0.0)))
    return worst


@takes(z=POINTS)
def fourier(nu: MeasureOnR, z, monitor: bool = True):
    """nu_hat(z) = Integral e^{i z lam} d nu(lam).

    ``z`` may be an array; the result then has its shape, and each value is
    the one a scalar call gives.  With ``monitor`` on, the gridded part must
    have decayed: if either 5% tail of the grid contributes more than 1e-12
    of the total absolute mass of the summand, :class:`DivergentTransform`
    is raised.  So is a transform whose terms or sum overflow double
    precision (|e^{i z lam}| = e^{-Im z lam} past about 1e308).  A z that is
    not finite raises :class:`ParameterOutOfRange`.

    The phases e^{i z lam} of a block of real z are cos(z lam) + i sin(z lam),
    the bits np.exp gives for them without its complex exponential; a block
    with a complex z takes np.exp.
    """
    return _exp_sum(_parts(nu, monitor), z)


def _parts(nu: MeasureOnR, monitor: bool) -> tuple:
    """The (nodes, weights, watch) parts of nu that :func:`_exp_sum` sums."""
    return ((nu.atom_locs, nu.atom_weights, False),
            (nu.grid_nodes(), nu.grid_quad_weights(), monitor))


@np.errstate(over="ignore", invalid="ignore")
def _exp_sum(parts, z):
    """sum_j e^{i z lam_j} w_j over the (nodes, weights, watch) ``parts``: the
    one body of :func:`fourier`, :func:`kms_check` and
    :func:`modular.modular_coefficient`, whose declarations guard z.

    Each part's weights are one row of n, or, in every part alike, a (k, n)
    stack of rows: each z then gets k sums, all over one table of phases,
    returned with a leading axis of k.  Real z fold a part's table where its nodes
    are symmetric bit for bit (:func:`_mirrored`, :func:`_summands`).  A
    watched part, of one weight row, goes to the monitor,
    :func:`_require_decay`, one block of z at a time."""
    zs = np.asarray(z, dtype=complex)
    flat = zs.ravel()
    lead = parts[0][1].shape[:-1]
    total = np.zeros(lead + flat.shape, dtype=complex)
    real = not flat.imag.any()
    for nodes, weights, watch in parts:
        if not nodes.size:
            continue
        half = _mirrored(nodes) if real else 0
        magnitudes, shares = np.abs(weights) if watch else None, {}
        for rows in row_blocks(flat.size, weights.size):
            if watch:
                _require_decay(nodes, magnitudes, flat[rows], shares)
            summand = _summands(flat[rows], nodes, weights, half)
            try:
                total[..., rows] += comp_sum(summand)
            except (OverflowError, ValueError):     # fsum: inf - inf, overflow
                total[..., rows] = np.nan
    finite = np.isfinite(total)
    if not finite.all():
        raise DivergentTransform("the transform overflows at z = %s"
                                 % complex(flat[np.argmin(finite) % flat.size]))
    return complex(total[0]) if zs.ndim == 0 and not lead else total.reshape(lead + zs.shape)


def _mirrored(nodes: np.ndarray) -> int:
    """n // 2 when the first n // 2 nodes are the last n // 2 negated and in
    reverse order, bit for bit (the sign of a zero too), else 0."""
    half = nodes.size // 2
    if not half or nodes[0] != -nodes[-1]:
        return 0
    head, tail = nodes[:half], nodes[:-half - 1:-1]
    return half if np.array_equal(head.view(np.int64), np.negative(tail).view(np.int64)) else 0


def _summands(z: np.ndarray, nodes: np.ndarray, weights: np.ndarray,
              half: int = 0) -> np.ndarray:
    """The block e^{i z lam} w, one row per z, as a (len(z), len(nodes))
    table, or for a (k, n) stack of weight rows the k tables stacked, all
    from one table of phases.  For real z and nodes whose first ``half``
    mirror their last (:func:`_mirrored`), cos and sin are taken on the rest
    alone: z (-lam) = -(z lam), cos is even and sin odd, so the first
    ``half`` phases are the conjugates of the last, and the table is bit for
    bit the one taken node by node."""
    rows = weights.reshape(-1, nodes.size)
    out = np.empty((len(rows), z.size, nodes.size), dtype=complex)
    phases = out[-1]
    if not z.imag.any():
        # np.exp(i y) is (exp(+-0) cos y, exp(+-0) sin y): the same bits
        y = np.multiply.outer(z.real, nodes[half:])
        np.cos(y, out=phases.real[:, half:])
        np.sin(y, out=phases.imag[:, half:])
        if half:
            np.conjugate(phases[:, :-half - 1:-1], out=phases[:, :half])
    else:
        np.exp(np.multiply.outer(1j * z, nodes), out=phases)
    np.multiply(phases, rows[:-1, None], out=out[:-1])
    phases *= rows[-1]
    return out.reshape(weights.shape[:-1] + phases.shape)


def _require_decay(nodes: np.ndarray, magnitudes: np.ndarray, zs: np.ndarray,
                   shares: dict) -> None:
    """The divergence monitor of :func:`_exp_sum` for the z of one block,
    given the ``magnitudes`` |w| of the weights.  |e^{i z lam} w| is
    e^{-Im z lam} |w|, so the tail share of a z depends on Im z alone:
    ``shares`` keeps it for each Im z already met, and those the block meets
    first are read off one row of magnitudes each."""
    new = [c for c in dict.fromkeys(zs.imag.tolist()) if c not in shares]
    if not new:
        return
    mags = np.exp(np.multiply.outer(np.negative(new), nodes))
    mags *= magnitudes
    s = np.sum(mags, axis=1)
    k = max(1, int(math.ceil(0.05 * nodes.size)))
    edge = np.maximum(np.sum(mags[:, :k], axis=1), np.sum(mags[:, -k:], axis=1))
    for c, sc, ec in zip(new, s.tolist(), edge.tolist()):
        shares[c] = ec / sc if sc > 0.0 and ec > 1e-12 * sc else None
    for z in zs.tolist():
        if shares[z.imag] is not None:
            raise DivergentTransform(
                "grid tails still carry %.3g of the transform mass at z = %s; "
                "enlarge the grid" % (shares[z.imag], complex(z)))


@takes(y=REAL)
def laplace(nu: MeasureOnR, y: float) -> float:
    """Laplace transform Integral e^{-y lam} d nu(lam) = nu_hat(i y)."""
    return fourier(nu, 1j * y).real


@np.errstate(over="ignore")
def _worst_gap(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """max |lhs - rhs|: NaN if any difference is NaN, 0.0 when empty; one
    that overflows raises :class:`DivergentTransform`.  The modulus is
    np.hypot, which is libm's hypot as in Python's abs(complex); np.abs on
    complex arrays may differ from it in the last bit."""
    d = lhs - rhs
    gap = float(np.max(np.hypot(d.real, d.imag), initial=0.0))
    if gap == math.inf:
        raise DivergentTransform("the transforms differ by more than 1e308")
    return gap


_KMS_T_GRID = np.linspace(-4.0, 4.0, 33)      # the t grid of kms_check
_KMS_T_GRID.flags.writeable = False


@takes(beta=POSITIVE)
@np.errstate(over="ignore", invalid="ignore")   # e^{-beta lam} w = inf (or 0 inf): the sum raises
def kms_check(nu: MeasureOnR, beta: float) -> float:
    """max_t |nu_hat(i beta + t) - conj(nu_hat(t))| over t in _KMS_T_GRID.

    nu_hat(i beta + t) is the transform at t of e^{-beta lam} d nu, so every
    part of nu is summed as the two weight rows (e^{-beta lam} w, w) over one
    table of phases e^{i t lam} (:func:`_exp_sum`, :func:`_mirror_weight`).
    The monitor reads the grid as :func:`fourier` does at i beta + t and at
    t, e^{-beta lam} |w| and |w|, and names the first point that diverges; a
    sum that overflows is named as fourier names it, at i beta + t for the
    shifted one."""
    t, parts = _KMS_T_GRID, []
    for nodes, weights, watch in _parts(nu, True):
        if watch and nodes.size:
            _require_decay(nodes, np.abs(weights), np.array([1j * beta + t[0], t[0]]), {})
        parts.append((nodes, np.stack((_mirror_weight(weights, beta * nodes), weights)), False))
    try:
        shifted, plain = _exp_sum(parts, t)
    except DivergentTransform:
        fourier(nu, 1j * beta + t, monitor=False)     # raises where the shifted sum overflows
        raise
    return _worst_gap(shifted, np.conj(plain))


def rp_circle_from_measure(mu: MeasureOnR, beta: float):
    """From mu on [0, inf), the pair of positive-definite functions

        phi_T(y) = Gamma(mu)_hat(i y)   on the circle of circumference beta,
        phi_R(x) = Gamma(mu)_hat(x)     on the line,

    returned as (phi_T, phi_R) callables."""
    nu = Gamma_map(mu, beta)
    return (lambda y: laplace(nu, y), lambda x: fourier(nu, x).real)


@takes(z=POINT, w=POINT)
def kernel_from_measure(nu: MeasureOnR, z: complex, w: complex) -> complex:
    """K(z, w) = nu_hat(z - conj(w)) on the strip."""
    return fourier(nu, _zeta(np.array([z]), np.array([w]))[0])


@takes(beta=POSITIVE)
def theta_involution_check(nu: MeasureOnR, beta: float, pairs) -> float:
    """Invariance of K(z, w) = nu_hat(z - conj w) under the strip flip
    z -> beta i + conj(z) for a 2 beta-reflected nu:  checks
    |nu_hat(2 beta i - zeta) - nu_hat(zeta)| over zeta = z - conj(w)."""
    zw = finite_pairs(pairs, "pair points", complex)
    zeta = _zeta(zw[:, 0], zw[:, 1])
    return _worst_gap(fourier(nu, 2j * beta - zeta), fourier(nu, zeta))


def _zeta(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """z - conj(w); :class:`ParameterOutOfRange` names a pair where it overflows."""
    with np.errstate(over="ignore"):
        zeta = z - np.conj(w)
    bad = ~np.isfinite(zeta)
    if bad.any():
        raise ParameterOutOfRange("z - conj(w) overflows at the pair (%r, %r)"
                                  % (complex(z[bad][0]), complex(w[bad][0])))
    return zeta


# --------------------------------------------------------------------------
# named spectral measures
# --------------------------------------------------------------------------

# a strip measure grid has 2 n + 1 <= _MAX_SIZE nodes, spaced _STRIP_STEP apart
_MAX_HALF_NODES = _MAX_SIZE // 2
_STRIP_STEP = 0.02


def _symmetric_grid(beta: float, halfwidth) -> np.ndarray:
    """The nodes _STRIP_STEP * (-n, ..., n), n = round(halfwidth /
    _STRIP_STEP), of a strip measure; halfwidth None is 64 / beta, and must
    be finite and > 0.  An n above _MAX_HALF_NODES raises
    :class:`ParameterOutOfRange` before anything is allocated."""
    if halfwidth is None:
        halfwidth = 64.0 / beta
    _require_positive(halfwidth, "halfwidth")
    if not halfwidth / _STRIP_STEP <= _MAX_HALF_NODES:
        raise ParameterOutOfRange("a strip measure grid has at most %d nodes; halfwidth %r "
                                  "asks for more" % (_MAX_SIZE, halfwidth))
    n = int(round(halfwidth / _STRIP_STEP))
    return _STRIP_STEP * np.arange(-n, n + 1)


@takes(beta=POSITIVE)
@np.errstate(over="ignore")     # e^{-2 beta lam} = inf gives the density 0
def szego_strip_measure(beta: float, halfwidth: float = None) -> MeasureOnR:
    """Spectral density (1/2 pi) / (1 + e^{-2 beta lam}) of the strip Szego
    kernel, sampled on a symmetric grid."""
    nodes = _symmetric_grid(beta, halfwidth)
    # -beta * nodes * 2, not -2 beta * nodes: no 0 * inf at the node 0
    dens = (1.0 / (2.0 * math.pi)) / (1.0 + np.exp(-beta * nodes * 2.0))
    return MeasureOnR(grid_x0=float(nodes[0]), grid_h=_STRIP_STEP, density=dens)


@takes(beta=POSITIVE)
# e^{-2 beta lam} = inf gives the density 0, a subnormal beta an inf one (refused)
@np.errstate(over="ignore", divide="ignore")
def bergman_strip_measure(beta: float, halfwidth: float = None) -> MeasureOnR:
    """Spectral density (1/4 pi^2) lam / (1 - e^{-2 beta lam}) of the squared
    kernel; the lam = 0 node takes the continuous value 1 / (8 pi^2 beta)."""
    nodes = _symmetric_grid(beta, halfwidth)
    dens = np.empty(nodes.size)
    nz = nodes != 0.0
    dens[nz] = nodes[nz] / (-np.expm1(-2.0 * beta * nodes[nz]))
    dens[~nz] = 1.0 / (2.0 * beta)
    dens /= 4.0 * math.pi ** 2
    return MeasureOnR(grid_x0=float(nodes[0]), grid_h=_STRIP_STEP, density=dens)


# --------------------------------------------------------------------------
# Riesz family
# --------------------------------------------------------------------------

@takes(s=POSITIVE, z=POINT)
def riesz_hat(s: float, z: complex) -> complex:
    """mu_s_hat(z) = (i / z)^s for Im z > 0 (principal power; the base lies
    in the right half-plane there)."""
    if z.imag <= 0.0:
        raise ParameterOutOfRange("closed form needs Im z > 0")
    try:
        val = (1j / z) ** s
    except OverflowError:       # next to 0, where i / z overflows too
        val = math.inf
    if not cmath.isfinite(val):
        raise ParameterOutOfRange("(i/z)^s overflows at z = %r" % (z,))
    return val


def _gamma(s: float) -> float:
    """GAMMA(s) for s > 0 by ``math.gamma``; raises
    :class:`ParameterOutOfRange` where it overflows (s above about 171.6,
    or below about 5.6e-309)."""
    try:
        return math.gamma(s)
    except OverflowError:
        raise ParameterOutOfRange("GAMMA(s) overflows at s = %r" % (s,)) from None


@takes(s=POSITIVE, z=POINT)
def riesz_hat_quad(s: float, z: complex) -> complex:
    """mu_s_hat(z) by adaptive quadrature of p^{s-1} e^{izp} / GAMMA(s) over
    (0, inf), avoiding the O(step^s) first-cell error a uniform grid makes
    for s < 1.  The endpoint singularity is flattened by p = q^m on (0, 1]
    and the tail cut at U = 1 + 60 / Im z, where :class:`ToleranceNotReached`
    is raised unless what it drops is provably below 2.5e-11, tol / 4.

    GAMMA(s) is ``math.gamma``, within 8 ulp of the 40-digit value on
    (0.05, 20) and within 3 ulp at the s of the verify suite (tested
    against mpmath); where it overflows, :class:`ParameterOutOfRange`."""
    if z.imag <= 0.0:
        raise ParameterOutOfRange("transform needs Im z > 0")
    g = _gamma(s)
    if not 2.0 / s < 2.0 ** 53:
        raise ParameterOutOfRange("s = %r is too small for the substitution p = q^m" % (s,))
    m = max(2, math.ceil(2.0 / s))  # makes the q-exponent m*s - 1 >= 1
    y, upper = z.imag, 1.0 + 60.0 / z.imag
    # the tail is at most 2 U^{s-1} e^{-U y} / (y GAMMA(s)) once U y >= 2 (s - 1),
    # as (p / U)^{s-1} <= e^{(p - U) y / 2} there; in logs, U^{s-1} may overflow
    log_tail = math.log(2.0 / y) + (s - 1.0) * math.log(upper) - upper * y - math.lgamma(s)
    if not (upper * y >= 2.0 * (s - 1.0) and log_tail < math.log(0.25e-10)):
        raise ToleranceNotReached("the tail past p = %r may exceed 2.5e-11" % (upper,))
    head, _ = quad(lambda q: m * q ** (m * s - 1.0)
                   * cmath.exp(1j * z * q ** m) / g, 0.0, 1.0)
    tail, _ = quad(lambda p: p ** (s - 1.0) * cmath.exp(1j * z * p) / g,
                   1.0, upper)
    return head + tail


_RIESZ_STEP = 0.01      # riesz_kappa_check's nodes p_j = 0.01 (j + 1/2) below 40


@takes(s=POSITIVE, beta=POSITIVE, t=REAL)
@np.errstate(divide="ignore", over="ignore", invalid="ignore")     # checked below
def riesz_kappa_check(s: float, beta: float, t: float) -> float:
    """Matched-truncation identity for the odd part of the Riesz transforms.

    The pointwise density algebra gives, for p > 0,

        nu_s(p) - nu_s(-p) = p^{s-1} / GAMMA(s)  =  mu_s density,

    so with one positive node set {p_j} (half-offset grid, plain weight
    _RIESZ_STEP per node) the antisymmetrized sums

        A = sum_j v_j [nu_s(p_j) - nu_s(-p_j)] (e^{i t p_j} - e^{-i t p_j}),
        B = sum_j v_j mu_s(p_j) (e^{i t p_j} - e^{-i t p_j})
          = 2 i Im(truncated mu_s_hat(t))

    agree exactly; the defect |A - B| is pure floating-point noise.  (Each
    transform alone diverges on the real axis; only the difference is a
    measure-theoretic object, which is why the comparison is made at matched
    symmetric truncation rather than through the monitored transforms.)
    """
    n = int(round(40.0 / _RIESZ_STEP))
    p = _RIESZ_STEP * (0.5 + np.arange(n))
    if not math.isfinite(t * float(p[-1])):
        raise ParameterOutOfRange("t p overflows at t = %r" % (t,))
    v = np.full(n, _RIESZ_STEP)
    g = _gamma(s)
    dens_mu = p ** (s - 1.0) / g
    dens_plus = p ** (s - 1.0) / (-np.expm1(-2.0 * beta * p)) / g
    dens_minus = p ** (s - 1.0) / (np.expm1(2.0 * beta * p)) / g
    if not np.isfinite(dens_plus - dens_minus).all():
        raise ParameterOutOfRange("nu_s(p) - nu_s(-p) overflows at beta = %r" % (beta,))
    osc = np.exp(1j * t * p) - np.exp(-1j * t * p)
    a = comp_sum(v * (dens_plus - dens_minus) * osc)
    b = comp_sum(v * dens_mu * osc)
    return abs(a - b)


# --------------------------------------------------------------------------
# geometric splitting
# --------------------------------------------------------------------------

@takes(beta=POSITIVE)
@np.errstate(over="ignore")     # e^{-2 beta lam} = inf gives the weight 0
def geometric_splitting(mu: MeasureOnR, beta: float, mode: str):
    """Split a symmetric measure mu into a 2 beta-reflected nu and its
    positive / negative halves, nu = nu_plus + nu_minus.

    mode "alternating":  d nu = d mu / (1 + e^{-2 beta lam});
    mode "plain":        d nu = sgn(lam) d mu / (1 - e^{-2 beta lam}),
                         which has a pole at lam = 0: an atom there raises
                         :class:`AtomAtZero`, a grid node there raises
                         :class:`ZeroDenominator` (use a half-offset grid).

    An atom of mu at 0 contributes half its nu-weight to each half in the
    alternating mode.  Gridded mu must use a symmetric grid without a node at
    the origin; the halves of its nu come back as atomic measures carrying
    the parent trapezoid weights, so the splitting is exact at the
    quadrature level (a standalone half-grid would halve the weight of the
    innermost node and break nu = nu_plus + nu_minus).
    """
    if mode not in ("alternating", "plain"):
        raise ParameterOutOfRange("mode must be 'alternating' or 'plain'")

    if _symmetry_defect(mu) > 1e-9:
        raise AsymmetricInput("geometric splitting needs a symmetric measure")

    if mode == "plain" and np.any(np.abs(mu.atom_locs) <= _MERGE_TOL):
        raise AtomAtZero("the plain splitting density has a pole at lam = 0")

    if mode == "alternating":
        f = lambda lam: 1.0 / (1.0 + np.exp(-2.0 * beta * lam))
    else:
        f = lambda lam: np.sign(lam) / (-np.expm1(-2.0 * beta * lam))

    if mu.density is not None:
        nodes = mu.grid_nodes()
        if np.any(np.abs(nodes) <= _MERGE_TOL):
            raise ZeroDenominator(
                "splitting a gridded measure needs a grid without the node 0")

    nu = mu.map_density(f)
    # only the alternating mode gets here with an atom at 0
    half = 0.5 * _weight_at_zero(nu)
    nodes, qw = nu.grid_nodes(), nu.grid_quad_weights()

    def side(sign):
        atoms, grid = sign * nu.atom_locs > _MERGE_TOL, sign * nodes > _MERGE_TOL
        locs = np.concatenate([nu.atom_locs[atoms], np.zeros(half.size), nodes[grid]])
        return MeasureOnR(locs, np.concatenate([nu.atom_weights[atoms], half, qw[grid]]))

    return nu, side(1.0), side(-1.0)


def _symmetry_defect(mu: MeasureOnR) -> float:
    """Relative defect of mu under lam -> -lam."""
    worst = _atom_reflection_defect(mu, 0.0, np.ones(mu.atom_locs.size, dtype=bool))
    if mu.density is not None:
        nodes = mu.grid_nodes()
        if abs(nodes[0] + nodes[-1]) > 1e-9 * max(1.0, abs(nodes[-1])):
            return math.inf
        vals = mu.density
        rev = vals[::-1]
        scale = float(np.max(np.abs(vals))) or 1.0
        worst = max(worst, float(np.max(np.abs(vals - rev))) / scale)
    return worst
