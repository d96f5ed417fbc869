"""Named numerical checks of every closed-form identity in the package,
grouped into suites and reported with one (defect, tolerance) pair each.

Suites: "kernels", "series", "measures", "modular", "appendix" (and "all").
Every check is deterministic — random draws are seeded from the
configuration — so a report is reproducible bit-for-bit.  Each check is a
stream of ``(id, anchor, tol, defect)`` samples, one per input it tries; an
identity's reported defect is the worst of its samples, and a NaN sample
makes it fail.  Gram positivity checks report the normalized eigenvalue
deficit max(0, -lambda_min) / max(1, ||G||) against the PSD tolerance; series
soundness checks report the margin defect - tail_bound, which must be <= 0.
"""

from __future__ import annotations

import cmath
import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels, measures, modular, numerics, periodize, rpfunc
from .config import SUITE_NAMES, Defaults
from .domains import DISC, HALF_PLANE, Strip, sample_interior, transfer_map


@dataclass
class CheckResult:
    """One verified identity: its defect against the pinned tolerance."""

    id: str
    anchor: str
    defect: float
    tol: float
    passed: bool


def _res(cid: str, anchor: str, defect: float, tol: float) -> CheckResult:
    d = float(defect)
    return CheckResult(cid, anchor, d, float(tol), bool(d <= tol))


def _check(stream):
    """Make a suite check ``check(cfg) -> list[CheckResult]`` from a sample
    stream: ``stream(cfg)`` yields ``(id, anchor, tol, defect)`` per sample,
    and each ``(id, anchor, tol)``, in order of first appearance, is reported
    with the largest of its defects (``np.max``, so NaN wins)."""

    @functools.wraps(stream)
    def check(cfg: Defaults) -> list[CheckResult]:
        samples: dict[tuple, list] = {}
        for cid, anchor, tol, defect in stream(cfg):
            samples.setdefault((cid, anchor, tol), []).append(defect)
        return [_res(cid, anchor, np.max(defects), tol)
                for (cid, anchor, tol), defects in samples.items()]

    return check


def _gram(cid: str, anchor: str, rep: numerics.GramReport) -> tuple:
    """The sample of a Gram positivity id: its PSD deficit and tolerance."""
    return cid, anchor, rep.tolerance, rep.deficit


def _rng(cfg: Defaults, salt: int) -> np.random.Generator:
    return np.random.default_rng(cfg.rng_seed + salt)


# --------------------------------------------------------------------------
# kernels suite
# --------------------------------------------------------------------------

@_check
def check_hua(cfg: Defaults):
    for domain in (DISC, HALF_PLANE, Strip(cfg.beta)):
        rng = _rng(cfg, 11)
        for z in sample_interior(domain, rng, 50):
            comp = domain.boundary_components()[
                int(rng.integers(len(domain.boundary_components())))]
            x = rng.uniform(0.0, 2.0 * math.pi) if domain is DISC \
                else rng.uniform(-4.0, 4.0)
            yield ("kernels.hua.%s" % domain.name,
                   "P_z(x) = |Q(z, x)|^2 / Q(z, z)", 1e-10,
                   abs(kernels.poisson(domain, z, x, comp)
                       - kernels.hua_ratio(domain, z, x, comp)))


@_check
def check_poisson_mass(cfg: Defaults):
    for domain in (DISC, HALF_PLANE, Strip(cfg.beta)):
        rng = _rng(cfg, 12)
        for z in sample_interior(domain, rng, 5):
            if domain is DISC:
                mass = numerics.trapezoid_circle(
                    lambda t: kernels.poisson(domain, z, t)).real
            else:
                mass = 0.0
                for comp in domain.boundary_components():
                    val, _ = numerics.quad_real(kernels.poisson_at(domain, z, comp),
                                                -np.inf, np.inf)
                    mass += val
            yield ("kernels.poisson-mass.%s" % domain.name,
                   "Integral_boundary P_z(x) dx = 1", 1e-8, abs(mass - 1.0))


@_check
def check_poisson_ft(cfg: Defaults):
    for lam in (0.5, 1.0, 2.0):
        density = kernels.poisson_at(HALF_PLANE, 1j * lam)
        for t in (-1.3, 0.4, 2.0):
            val = numerics.oscillatory_ft(density, t)
            yield ("kernels.poisson-ft.half_plane",
                   "Integral P_{i lam}(x) e^{itx} dx = e^{-lam |t|}", 1e-8,
                   abs(val - math.exp(-lam * abs(t))))


@_check
def check_disc_moments(cfg: Defaults):
    for lam in (0.3, 0.7, 0.95):
        for n in range(6):
            val = numerics.trapezoid_circle(
                lambda t: np.exp(1j * n * t) * kernels.poisson(DISC, lam, t))
            yield ("kernels.disc-moments",
                   "Integral e^{int} P_lam(t) dt = lam^n", 1e-8,
                   abs(val - lam ** n))


@_check
def check_midline(cfg: Defaults):
    beta = cfg.beta
    strip = Strip(beta)
    for lam in (-1.0, 0.0, 0.8):
        for x in (-2.0, 0.3, 1.7):
            yield ("kernels.strip-midline-poisson",
                   "P_{lam + i beta/2}(x) = 1 / (2 beta cosh(pi (lam - x)/beta))",
                   1e-12,
                   abs(kernels.poisson(strip, lam + 0.5j * beta, x, "lower")
                       - kernels.poisson_midline_strip(beta, lam, x)))
    mid = kernels.bergman_strip(beta, 0.5j * beta, 0.5j * beta)
    yield ("kernels.bergman-midline",
           "Q(i beta/2, i beta/2)^2 = 1 / (16 beta^2)", 1e-13,
           abs(mid - 1.0 / (16.0 * beta * beta)))


@_check
def check_rp_grams(cfg: Defaults):
    rng = _rng(cfg, 13)
    for lam in rng.uniform(-1.0, 1.0, size=4):
        pts = rng.integers(-20, 21, size=25)
        yield _gram("kernels.rp-gram.integers-pd",
                    "[lam^{|n_j - n_k|}] is PSD",
                    rpfunc.pd_gram("integers", float(lam), pts))
        yield _gram("kernels.rp-gram.integers-rp",
                    "[lam^{n_j + n_k}] is PSD on n >= 0",
                    rpfunc.rp_gram("integers", float(lam),
                                   rng.integers(0, 16, size=25)))
    for lam in rng.uniform(0.0, 4.0, size=4):
        yield _gram("kernels.rp-gram.line-pd",
                    "[e^{-lam |t_j - t_k|}] is PSD",
                    rpfunc.pd_gram("line", float(lam),
                                   rng.uniform(-8.0, 8.0, size=25)))
        yield _gram("kernels.rp-gram.line-rp",
                    "[e^{-lam (t_j + t_k)}] is PSD on t >= 0",
                    rpfunc.rp_gram("line", float(lam),
                                   rng.uniform(0.0, 8.0, size=25)))
    for beta in (0.7, 2.0):
        for lam in rng.uniform(0.0, 5.0, size=3):
            yield _gram("kernels.rp-gram.circle-pd",
                        "[phi_lam([y_j - y_k])] is PSD",
                        rpfunc.pd_gram("circle", float(lam),
                                       rng.uniform(0.0, beta, size=25), beta=beta))
            yield _gram("kernels.rp-gram.circle-rp",
                        "[phi_lam([y_j + y_k])] is PSD on (0, beta/2)",
                        rpfunc.rp_gram("circle", float(lam),
                                       rng.uniform(0.01 * beta, 0.49 * beta, size=25),
                                       beta=beta))
    for n in (0, 1, 2, 3):
        pairs = [(float(t), int(e)) for t, e in
                 zip(rng.uniform(-3.0, 3.0, size=20),
                     rng.choice([-1, 1], size=20))]
        yield _gram("kernels.rp-gram.signed-power",
                    "[(eps_j eps_k)^n e^{-n |t_j - t_k|}] is PSD",
                    rpfunc.param_rp_check(n, pairs))


@_check
def check_power_kernels(cfg: Defaults):
    rng = _rng(cfg, 14)
    strip = Strip(cfg.beta)
    for domain, scale in ((DISC, 1.0), (HALF_PLANE, 2.0 * math.pi), (strip, 1.0)):
        pts = sample_interior(domain, rng, 6)
        for z, w in zip(pts[:3], pts[3:]):
            yield ("kernels.power.s1",
                   "Q_1 recovers the Szego kernel (x 2 pi on the half-plane)",
                   1e-13, abs(kernels.power_kernel(domain, 1.0, z, w)
                              - scale * kernels.szego(domain, z, w)))
    pts = sample_interior(strip, rng, 6)
    b = cfg.beta
    for z, w in zip(pts[:3], pts[3:]):
        # Q^2 in closed form, not bergman_strip: that squares the Szego value
        # with the very product power_kernel forms, so the two agree bit for bit
        sh = cmath.sinh(math.pi * (complex(z) - complex(w).conjugate()) / (2.0 * b))
        closed = -1.0 / (16.0 * b * b * sh * sh)
        yield ("kernels.power.s2-bergman", "Q_2 = Q^2 on the strip", 1e-13,
               abs(kernels.power_kernel(strip, 2.0, z, w) - closed))
    for domain in (DISC, HALF_PLANE, strip):
        pts = sample_interior(domain, rng, 10)
        for s in (0.5, 1.7):
            yield _gram("kernels.power.gram", "[Q_s(z_j, z_k)] is PSD for s > 0",
                        kernels.kernel_gram(domain, pts, kind="power", s=s))
    yield _gram("kernels.bergman.gram", "[Q^2(z_j, z_k)] is PSD",
                kernels.kernel_gram(strip, sample_interior(strip, rng, 10),
                                    kind="bergman"))


@_check
def check_transfer(cfg: Defaults):
    rng = _rng(cfg, 15)
    strip = Strip(cfg.beta)
    disc_pts = 0.6 * np.sqrt(rng.uniform(0.1, 1.0, size=8)) \
        * np.exp(2j * math.pi * rng.uniform(size=8))
    for src, dst in ((DISC, HALF_PLANE), (HALF_PLANE, DISC),
                     (HALF_PLANE, strip), (strip, HALF_PLANE),
                     (DISC, strip), (strip, DISC)):
        lift = transfer_map(DISC, src)[0]
        for d1, d2 in zip(disc_pts[:4], disc_pts[4:]):
            chk = kernels.szego_transfer_check(src, dst, lift(d1), lift(d2))
            yield ("kernels.transfer.%s-to-%s" % (src.name, dst.name),
                   "Q_src(z, w) = sqrt(phi'(z)) conj(sqrt(phi'(w))) "
                   "Q_dst(phi z, phi w)", 1e-12, chk.defect)


@_check
def check_outer(cfg: Defaults):
    for lam in (0.7, 1.6):
        w = 1j * lam
        psi = kernels.poisson_at(HALF_PLANE, w)
        for z in (0.4 + 0.9j, -1.1 + 0.5j, 2.0 + 2.0j):
            f = kernels.outer_from_modulus(psi, z)
            yield ("kernels.outer-modulus",
                   "outer(|F_w|) and F_w agree in modulus", 1e-7,
                   abs(abs(f) - abs(kernels.outer_f(HALF_PLANE, w, z))))
    rng = _rng(cfg, 16)
    for domain in (DISC, HALF_PLANE, Strip(cfg.beta)):
        if domain is DISC:
            ws = [0.0, 0.45, -0.7]
        elif domain is HALF_PLANE:
            ws = [0.3j, 1.8j]
        else:
            ws = [0.5j * cfg.beta, -1.0 + 0.5j * cfg.beta]
        for w in ws:
            for _ in range(5):
                comp = domain.boundary_components()[
                    int(rng.integers(len(domain.boundary_components())))]
                x = float(rng.uniform(-3.0, 3.0))
                h = kernels.h_boundary(domain, w, comp, x)
                yield ("kernels.flip-multiplier",
                       "|h_w| = 1 on the boundary for w on the fixed set",
                       1e-12, abs(abs(h) - 1.0))


@_check
def check_flip_pairing(cfg: Defaults):
    funcs = [lambda z: 1.0,
             lambda z: z,
             lambda z: z * z,
             lambda z: 1.0 + 0.5 * z,
             lambda z: z ** 3 - 2.0 * z]
    for w, F in zip((0.0, 0.35, -0.5, 0.72, 0.9), funcs):
        chk = kernels.flip_pairing_check(DISC, w, F)
        yield ("kernels.flip-pairing.disc",
               "<f*, theta_w f*> = |f(w)|^2 / Q(w, w)", 1e-7, chk.defect)
    beta = cfg.beta
    for x0, F in zip((-1.0, -0.3, 0.0, 0.6, 1.4), funcs):
        chk = kernels.flip_pairing_check(Strip(beta), x0 + 0.5j * beta, F,
                                         tol=1e-9)
        yield ("kernels.flip-pairing.strip",
               "<f*, theta_w f*> = |f(w)|^2 / Q(w, w)", 1e-7, chk.defect)


@_check
def check_strip_characterization(cfg: Defaults):
    beta = cfg.beta
    rng = _rng(cfg, 17)
    strip = Strip(beta)
    miss_in = sum(rpfunc.strip_membership(beta, z).verdict != "interior"
                  for z in sample_interior(strip, rng, 100))
    yield ("kernels.strip-membership.interior",
           "|c_t(z)| < 1 for all t > 0 inside the strip", 0.0, float(miss_in))
    miss_out = 0
    for _ in range(20):
        x = rng.uniform(-3.0, 3.0)
        y = -rng.uniform(0.05, 2.0) if rng.uniform() < 0.5 \
            else beta + rng.uniform(0.05, 2.0)
        r = rpfunc.strip_membership(beta, complex(x, y))
        if r.verdict != "exterior" or r.witness_t is None:
            miss_out += 1
    yield ("kernels.strip-membership.exterior",
           "|c_t(z)| >= 1 for some t > 0 outside the strip", 0.0, float(miss_out))
    for x in (1.3, -0.4, 2.6):
        for z in (complex(x, 0.0), complex(x, beta)):
            r = rpfunc.strip_membership(beta, z)
            found = r.verdict == "boundary" and r.witness_t is not None
            yield ("kernels.strip-membership.boundary-witness",
                   "|c_{2 pi / |x|}(z)| = 1 on the boundary", 1e-12,
                   abs(rpfunc.c_log_abs(beta, r.witness_t, z)) if found
                   else math.inf)


# --------------------------------------------------------------------------
# series suite
# --------------------------------------------------------------------------

@_check
def check_series_soundness(cfg: Defaults):
    rng = _rng(cfg, 21)
    # the 1e-6 accuracy tolerance is pinned to this N: the worst Bergman
    # defect falls like 1/N, 5.6e-7 here and 1.4e-6 at N = 4000
    n_top = 10_000
    for _ in range(100):
        beta = rng.uniform(1.5, 3.0)
        strip = Strip(beta)
        z, w = sample_interior(strip, rng, 2, margin=0.1)
        # n_top first, so each soundness id is reported just before its
        # accuracy id; the terms of the three series are built once, for
        # n_top, and summed by one call
        ns = (n_top, 100, 1000)
        evs = dict(zip(("sinh", "szego", "bergman"),
                       periodize.strip_series_at(beta, z, w, ns)))
        for j, n in enumerate(ns):
            for name, series in evs.items():
                ev = series[j]
                yield ("series.soundness.%s" % name,
                       "partial-sum defect <= proven tail bound", 0.0,
                       ev.defect - ev.tail_bound)
                if n == n_top:
                    yield ("series.accuracy.%s" % name,
                           "defect at N = %d below 1e-6" % n_top, 1e-6,
                           ev.defect)
    for _ in range(50):
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0))
        if abs(z - round(z.real)) < 0.1 and abs(z.imag) < 0.1:
            z += 0.3j
        for ev in periodize.cosecant_series_at(z, (100, 1000)):
            yield ("series.soundness.cosecant",
                   "pi/sin(pi z) partial-sum defect <= 8|z|/(3N)", 0.0,
                   ev.defect - ev.tail_bound)


@_check
def check_split(cfg: Defaults):
    rng = _rng(cfg, 22)
    for _ in range(10):
        beta = rng.uniform(1.5, 3.0)
        strip = Strip(beta)
        z, w = sample_interior(strip, rng, 2, margin=0.1)
        _, _, total = periodize.szego_series_split(beta, z, w, 2000)
        yield ("series.split.soundness",
               "Q^+ + Q^- recombination defect <= 1/(2 pi beta (N-1))", 0.0,
               total.defect - total.tail_bound)
        yield ("series.split.accuracy", "Q^+ + Q^- = Q at N = 2000", 1e-4,
               total.defect)


@_check
def check_circle_fourier(cfg: Defaults):
    for beta, lam in ((1.0, 1.0), (2.0, 0.7), (0.8, 2.0)):
        for y in (0.0, 0.3 * beta, 0.5 * beta):
            val = rpfunc.phi_circle_partial_sum(beta, lam, y, 20000)
            yield ("series.circle-family.resummation",
                   "sum c_n e^{2 pi i n y / beta} returns phi_lam([y])", 1e-5,
                   abs(val - rpfunc.phi_circle(beta, lam, y)))
    beta, lam = 2.0, 0.7
    nodes = 8192
    ys = beta * np.arange(nodes) / nodes
    vals = rpfunc.phi_circle(beta, lam, ys)
    for n in (0, 1, 5):
        approx = np.mean(vals * np.exp(-2j * math.pi * n * ys / beta))
        yield ("series.circle-family.coefficients",
               "c_n = (1/pi) s/(s^2+n^2) (1-e^{-beta lam})/(1+e^{-beta lam})",
               1e-6, abs(approx - rpfunc.phi_circle_fourier(beta, lam, n)))
    for beta, lam in ((1.0, 0.5), (1.0, 2.0), (2.0, 1.0)):
        for y in (0.0, 0.3 * beta, 0.8 * beta):
            chk = numerics.poisson_summation_check(beta, lam, y, 1000)
            yield ("series.circle-family.geometric-form",
                   "phi_lam([y]) matches the two-sided geometric sum", 1e-13,
                   abs(rpfunc.phi_circle(beta, lam, y)
                       - rpfunc._circle_ratio(beta, lam) * chk.rhs))


# --------------------------------------------------------------------------
# measures suite
# --------------------------------------------------------------------------

def _random_positive_atoms(rng, include_zero=False):
    locs = list(rng.uniform(0.0, 4.0, size=3))
    if include_zero:
        locs[0] = 0.0
    weights = rng.uniform(0.2, 2.0, size=3)
    return measures.atomic(zip(locs, weights))


@_check
def check_markov_semigroup(cfg: Defaults):
    rng = _rng(cfg, 31)
    betas = (0.5, 1.0, 3.0)
    for k in range(10):
        beta = betas[k % 3]
        mu = _random_positive_atoms(rng, include_zero=(k % 3 == 2))
        nu = measures.Gamma_map(mu, beta)
        yield ("measures.reflection",
               "d Gamma(mu)(-lam) = e^{-beta lam} d Gamma(mu)(lam)", 1e-12,
               measures.reflection_check(nu, beta))
        yield ("measures.kms", "nu_hat(i beta + t) = conj(nu_hat(t))", 1e-8,
               measures.kms_check(nu, beta))
        phi_T, _ = measures.rp_circle_from_measure(mu, beta)
        for y in (0.0, 0.2 * beta, 0.5 * beta, 0.9 * beta):
            direct = math.fsum(
                w * rpfunc.phi_circle(beta, lam, y)
                for lam, w in zip(mu.atom_locs, mu.atom_weights))
            yield ("measures.circle-consistency",
                   "Gamma(mu)_hat(iy) = Integral phi_lam([y]) d mu(lam)", 1e-10,
                   abs(phi_T(y) - direct))


def _measure_rel_defect(a: measures.MeasureOnR, b: measures.MeasureOnR) -> float:
    """Worst relative defect of a's atom weights and density against b's;
    inf when their atoms or grids do not line up."""
    if (a.atom_locs.size != b.atom_locs.size
            or (a.density is None) != (b.density is None)
            or (a.density is not None and a.density.size != b.density.size)):
        return math.inf
    defects = [0.0]
    if a.atom_locs.size:
        if float(np.max(np.abs(a.atom_locs - b.atom_locs))) > 1e-12:
            return math.inf
        scale = np.maximum(np.abs(b.atom_weights), 1e-300)
        defects.append(np.max(np.abs(a.atom_weights - b.atom_weights) / scale))
    if a.density is not None:
        scale = float(np.max(np.abs(b.density))) or 1.0
        defects.append(float(np.max(np.abs(a.density - b.density))) / scale)
    return float(np.max(defects))


@_check
def check_factorization(cfg: Defaults):
    rng = _rng(cfg, 32)
    betas = (0.5, 1.0, 3.0)
    cases = [(_random_positive_atoms(rng, include_zero=(k % 2 == 0)), betas[k % 3])
             for k in range(10)]
    grid = measures.gridded(0.0, 0.05, np.exp(-np.arange(121) * 0.05))
    cases += [(grid, 0.5), (grid, 2.0)]
    for mu, beta in cases:
        lhs = measures.gamma_map(measures.M_kappa(mu, beta), beta)
        rhs = measures.Gamma_map(mu, beta)
        yield ("measures.factorization",
               "gamma(M_kappa mu) = Gamma(mu), kappa = 1/(1+e^{-beta lam})",
               1e-15, _measure_rel_defect(lhs, rhs))
        yield ("measures.gamma-roundtrip", "Gamma^{-1}(Gamma(mu)) = mu", 1e-15,
               _measure_rel_defect(measures.Gamma_inverse(rhs, beta), mu))


def _safe_strip_pairs(rng, beta, n):
    pairs = []
    for _ in range(n):
        z = complex(rng.uniform(-2.0, 2.0), beta * rng.uniform(0.35, 0.65))
        w = complex(rng.uniform(-2.0, 2.0), beta * rng.uniform(0.35, 0.65))
        pairs.append((z, w))
    return pairs


@_check
def check_kernel_recovery(cfg: Defaults):
    rng = _rng(cfg, 33)
    beta = 2.0
    strip = Strip(beta)
    nu_q = measures.szego_strip_measure(beta, halfwidth=40.0)
    nu_b = measures.bergman_strip_measure(beta, halfwidth=40.0)
    pairs = _safe_strip_pairs(rng, beta, 10)
    for z, w in pairs:
        yield ("measures.kernel-recovery.szego",
               "nu_hat(z - conj w) = (i/4 beta)/sinh(pi (z - conj w)/(2 beta))",
               1e-8, abs(measures.kernel_from_measure(nu_q, z, w)
                         - kernels.szego(strip, z, w)))
        yield ("measures.kernel-recovery.bergman",
               "nu_hat(z - conj w) = Q(z, w)^2 for the lam d lam density",
               1e-8, abs(measures.kernel_from_measure(nu_b, z, w)
                         - kernels.bergman_strip(beta, z, w)))
    yield ("measures.theta-invariance", "nu_hat(2 i beta - zeta) = nu_hat(zeta)",
           1e-8, measures.theta_involution_check(nu_q, beta, pairs))


@_check
def check_riesz(cfg: Defaults):
    for s in (0.5, 1.0, 1.7):
        for z in (0.3 + 1.1j, -1.0 + 0.8j):
            yield ("measures.riesz.transform",
                   "Integral p^{s-1} e^{izp} dp / GAMMA(s) = (i/z)^s", 1e-8,
                   abs(measures.riesz_hat_quad(s, z)
                       - measures.riesz_hat(s, z)))
    for s in (0.5, 1.3):
        for t in (0.7, 2.0):
            yield ("measures.riesz.odd-part",
                   "nu_s - nu_s^vee has density p^{s-1}/GAMMA(s) on p > 0",
                   1e-10, measures.riesz_kappa_check(s, 1.0, t))


@_check
def check_splitting(cfg: Defaults):
    rng = _rng(cfg, 34)
    beta = 1.0
    w = rng.uniform(0.2, 1.0, size=3)
    sym_atoms = measures.atomic([(0.7, w[0]), (-0.7, w[0]),
                                 (1.9, w[1]), (-1.9, w[1]),
                                 (3.1, w[2]), (-3.1, w[2])])
    with_zero = sym_atoms.plus(measures.atomic([(0.0, 0.8)]))
    half = 0.05 * (0.5 + np.arange(80))
    nodes = np.concatenate([-half[::-1], half])
    sym_grid = measures.gridded(float(nodes[0]), 0.05, np.exp(-nodes ** 2))
    cases = [("alternating-atoms", with_zero, "alternating"),
             ("plain-atoms", sym_atoms, "plain"),
             ("alternating-grid", sym_grid, "alternating"),
             ("plain-grid", sym_grid, "plain")]
    zetas = [0.2 + 0.4j * beta, -1.0 + 1.1j * beta, 0.5 + 1.6j * beta]
    for name, mu, mode in cases:
        nu, nu_plus, _ = measures.geometric_splitting(mu, beta, mode)
        yield ("measures.splitting.%s.reflection" % name,
               "d nu(-lam) = e^{-2 beta lam} d nu(lam)", 1e-13,
               measures.reflection_check(nu, beta, factor=2.0))
        for zeta in zetas:
            lhs = measures.fourier(nu, zeta, monitor=False)
            rhs = measures.fourier(nu_plus, zeta, monitor=False) \
                + measures.fourier(nu_plus, 2j * beta - zeta, monitor=False)
            yield ("measures.splitting.%s.one-sided" % name,
                   "nu_hat(z) = nu_hat_+(z) + nu_hat_+(2 i beta - z)", 1e-12,
                   abs(lhs - rhs))


# --------------------------------------------------------------------------
# modular suite
# --------------------------------------------------------------------------

def _standard_setup(cfg: Defaults):
    beta = cfg.beta
    mu = measures.atomic([(0.6, 1.0), (1.7, 0.4), (2.9, 0.8), (0.0, 0.5)])
    nu = measures.Gamma_map(mu, beta)
    md = modular.build_modular(nu, beta)
    return beta, md


@_check
def check_modular_algebra(cfg: Defaults):
    beta, md = _standard_setup(cfg)
    rng = _rng(cfg, 41)
    yield ("modular.jdj", "J Delta J = Delta^{-1}", 1e-12,
           modular.jdj_defect(md, rng))
    yield ("modular.j-involution", "J^2 = 1", 1e-14,
           modular.j_involution_defect(md, rng))
    yield ("modular.flow-unitarity", "||Delta^{-it/beta} v|| = ||v||", 1e-13,
           modular.flow_unitarity_defect(md, rng))


@_check
def check_modular_dynamics(cfg: Defaults):
    beta, md = _standard_setup(cfg)
    rng = _rng(cfg, 42)
    v = md.space.random_standard_vector(rng)
    yield ("modular.standard-membership",
           "v(lam) = conj(v(-lam)) on the standard subspace", 1e-15,
           modular.standard_membership(md.space, v))
    ts = np.linspace(-3.0, 3.0, 15)
    G = modular.modular_coefficient(md, v, ts[:, None] - ts[None, :])
    yield _gram("modular.coefficient-pd",
                "psi(t) = <v, Delta^{-it/beta} v> is positive definite",
                numerics.gram_report(G))
    yield ("modular.coefficient-kms", "psi(i beta + t) = conj(psi(t))", 1e-8,
           measures.kms_check(modular.coefficient_measure(md, v), beta))
    for t in (0.3, 1.1, 2.7):
        yield ("modular.coefficient-symmetry", "psi(-t) = conj(psi(t))", 1e-14,
               abs(modular.modular_coefficient(md, v, -t)
                   - modular.modular_coefficient(md, v, t).conjugate()))
    for b in (1.0, 2.0):
        for t in (0.0, 0.6, 1.9):
            yield ("modular.midline-forms",
                   "the two integral forms of the midline psi agree", 1e-8,
                   modular.psi_hardy_midline(b, t).defect)


@_check
def check_commutation(cfg: Defaults):
    L, n = 4.0, 256
    rep = modular.commutation_check(L, n, s=3.0 * L / n,
                                    t=3.0 * (2.0 * math.pi) / L)
    yield ("modular.weyl-compatible",
           "V_s U_t = e^{its} U_t V_s exactly when t L in 2 pi Z", 1e-12,
           rep.global_defect)
    rep = modular.commutation_check(L, n, s=0.7, t=1.234)
    yield ("modular.weyl-interior",
           "Weyl relation exact at nodes that do not wrap", 1e-13,
           rep.interior_defect)
    yield ("modular.weyl-wrap-bound",
           "wrapped-node defect bounded by |e^{itL} - 1|", 1e-13,
           rep.global_defect - rep.wrap_phase)


# --------------------------------------------------------------------------
# appendix suite
# --------------------------------------------------------------------------

@_check
def check_poisson_summation(cfg: Defaults):
    for beta, lam in ((1.0, 0.5), (1.0, 2.0), (2.0, 1.0)):
        chk = numerics.poisson_summation_check(beta, lam, 0.3 * beta, 10000)
        yield ("appendix.poisson-summation.beta%g-lam%g" % (beta, lam),
               "periodized Lorentzian = two-sided geometric sum",
               chk.tail_bound, chk.defect)


@_check
def check_sech(cfg: Defaults):
    for xi in (0.0, 0.7, 2.3):
        yield ("appendix.sech-ft",
               "Integral e^{ix xi} sech x dx = pi / cosh(pi xi / 2)", 1e-10,
               numerics.sech_ft_check(xi).defect)
    for lam in (0.0, 1.1, 3.0):
        yield ("appendix.sech2-ft",
               "FT(sech^2)(lam) = sqrt(pi/2) lam / sinh(pi lam / 2)", 1e-8,
               numerics.sech2_ft_check(lam).defect)
    for n in (1, 2, 3):
        for p in (0.5, 2.0):
            yield ("appendix.sech-power-recursion",
                   "FT(sech^{n+2}) = (n^2+p^2)/(n(n+1)) FT(sech^n)", 1e-8,
                   numerics.sech_power_recursion_check(n, p).defect)


@_check
def check_ftcosh(cfg: Defaults):
    for beta in (1.0, 2.0):
        for z in (0.4 + 0.5j * beta, -1.2 + 1.3j * beta):
            yield ("appendix.fermi-ft",
                   "(1/2 pi) Int e^{iz lam}/(1+e^{-2 beta lam}) d lam "
                   "= (i/4 beta)/sinh(pi z/(2 beta))", 1e-9,
                   numerics.ftcosh_check(beta, z).defect)


@_check
def check_hyperbolic_abs(cfg: Defaults):
    grid = np.linspace(-2.0, 2.0, 5)
    for x in grid:
        for y in grid:
            for chk in (numerics.sinh_abs_check(x, y), numerics.cosh_abs_check(x, y)):
                yield ("appendix.hyperbolic-modulus",
                       "|sinh(x+iy)|^2 = sinh^2 x + sin^2 y (and the cosh twin)",
                       1e-13, chk.defect)


# --------------------------------------------------------------------------
# suite runner
# --------------------------------------------------------------------------

SUITES = {
    "kernels": [check_hua, check_poisson_mass, check_poisson_ft,
                check_disc_moments, check_midline, check_rp_grams,
                check_power_kernels, check_transfer, check_outer,
                check_flip_pairing, check_strip_characterization],
    "series": [check_series_soundness, check_split, check_circle_fourier],
    "measures": [check_markov_semigroup, check_factorization,
                 check_kernel_recovery, check_riesz, check_splitting],
    "modular": [check_modular_algebra, check_modular_dynamics,
                check_commutation],
    "appendix": [check_poisson_summation, check_sech, check_ftcosh,
                 check_hyperbolic_abs],
}


@dataclass
class SuiteReport:
    suite: str
    results: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def n_passed(self) -> int:
        return sum(1 for r in self.results if r.passed)

    @property
    def n_failed(self) -> int:
        return len(self.results) - self.n_passed

    @property
    def ok(self) -> bool:
        return self.n_failed == 0

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seconds": round(self.seconds, 3),
            "results": [{"id": r.id, "anchor": r.anchor, "defect": r.defect,
                         "tol": r.tol, "pass": r.passed} for r in self.results],
            "passed": self.n_passed,
            "failed": self.n_failed,
        }


def run_suite(name: str, cfg: Defaults = None) -> SuiteReport:
    """Run one suite (or "all")."""
    if name not in SUITE_NAMES:
        raise KeyError("unknown suite %r; pick one of %r" % (name, SUITE_NAMES))
    cfg = cfg or Defaults()
    cfg.validate()
    checks = []
    if name == "all":
        for group in SUITES.values():
            checks.extend(group)
    else:
        checks = SUITES[name]
    start = time.perf_counter()
    results = []
    for check in checks:
        results.extend(check(cfg))
    seconds = time.perf_counter() - start
    return SuiteReport(name, results, seconds)
