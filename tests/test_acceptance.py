"""Acceptance gate: one test per advertised guarantee, each pinned at its
stated tolerance.  Every test prints a single pass/fail line under
``pytest -v``; the final test runs the complete verify suite inside its
wall-clock budget.
"""

import math

import numpy as np

from rphardy import kernels, numerics, rpfunc, verify
from rphardy.config import Defaults
from rphardy.domains import DISC, HALF_PLANE

CFG = Defaults()


def _assert_green(results):
    bad = ["%s defect=%.3e tol=%.1e" % (r.id, r.defect, r.tol)
           for r in results if not r.passed]
    assert not bad, "failing checks: " + "; ".join(bad)


def _only(results, *ids):
    picked = [r for r in results if r.id in ids]
    assert len(picked) == len(ids), "missing check ids in %r" % (
        [r.id for r in results],)
    return picked


def test_c01_hua_formula_all_domains_1e10():
    # 50 random (interior, boundary) pairs per domain
    _assert_green(verify.check_hua(CFG))


def test_c02_poisson_normalization_1e8():
    # 5 interior points per domain; strip sums both boundary components
    _assert_green(verify.check_poisson_mass(CFG))


def test_c03_poisson_fourier_transform_1e8():
    # FT of the half-plane kernel at height lam equals e^{-lam |t|}
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        for t in (0.5, 1.0, 2.0):
            val = numerics.oscillatory_ft(
                lambda x: kernels.poisson(HALF_PLANE, 1j * lam, x), t)
            worst = max(worst, abs(val - math.exp(-lam * abs(t))))
    assert worst < 1e-8


def test_c04_disc_boundary_moments_1e8():
    # Integral e^{int} P_lam(t) dt = lam^n, including a negative base point
    worst = 0.0
    for lam in (-0.5, 0.3, 0.9):
        for n in range(6):
            val = numerics.trapezoid_circle(
                lambda t: np.exp(1j * n * t) * kernels.poisson(DISC, lam, t),
                1024)
            worst = max(worst, abs(val - lam ** n))
    assert worst < 1e-8


def test_c05_reflection_positive_grams_psd_1e10():
    # 10 parameter draws x 30 samples for each (group, gram-kind) pair
    rng = np.random.default_rng(CFG.rng_seed + 5)
    reports = []
    for lam in rng.uniform(-1.0, 1.0, size=10):
        reports.append(rpfunc.pd_gram("integers", float(lam),
                                      rng.integers(-30, 31, size=30)))
        reports.append(rpfunc.rp_gram("integers", float(lam),
                                      rng.integers(0, 20, size=30)))
    for lam in rng.uniform(0.0, 4.0, size=10):
        reports.append(rpfunc.pd_gram("line", float(lam),
                                      rng.uniform(-8.0, 8.0, size=30)))
        reports.append(rpfunc.rp_gram("line", float(lam),
                                      rng.uniform(0.0, 8.0, size=30)))
    for beta in (0.5, 1.0, 3.0):
        for lam in rng.uniform(0.0, 5.0, size=10):
            reports.append(rpfunc.pd_gram(
                "circle", float(lam), rng.uniform(0.0, beta, size=30),
                beta=beta))
            reports.append(rpfunc.rp_gram(
                "circle", float(lam),
                rng.uniform(0.01 * beta, 0.49 * beta, size=30), beta=beta))
    bad = [rep for rep in reports
           if rep.min_eigenvalue < -1e-10 * max(1.0, rep.spectral_norm)]
    assert not bad, "%d/%d Grams failed the eigenvalue floor" % (
        len(bad), len(reports))


def test_c06_markov_measures_reflection_kms_circle():
    # Gamma images: reflection < 1e-12, KMS < 1e-8, circle mixture < 1e-10
    _assert_green(verify.check_markov_semigroup(CFG))


def test_c07_factorization_and_roundtrip_1e15():
    _assert_green(verify.check_factorization(CFG))


def test_c08_series_tail_bounds_sound_and_1e6_accurate():
    # 100 random strip points, N in {100, 1000, 10000}
    _assert_green(verify.check_series_soundness(CFG))


def test_c09_kernel_recovery_from_measures_1e8():
    _assert_green(verify.check_kernel_recovery(CFG))


def test_c10_appendix_fourier_identities():
    worst_margin = -math.inf
    for lam in (0.5, 1.0, 2.0):
        for beta in (1.0, 2.0):
            chk = numerics.poisson_summation_check(beta, lam, 0.3 * beta, 10000)
            worst_margin = max(worst_margin, chk.defect - chk.tail_bound)
    assert worst_margin <= 0.0
    assert max(numerics.sech_ft_check(xi).defect
               for xi in (0.0, 0.7, 2.3)) < 1e-10
    assert max(numerics.sech2_ft_check(lam).defect
               for lam in (0.0, 1.1, 3.0)) < 1e-8
    assert max(numerics.sech_power_recursion_check(n, p).defect
               for n in (1, 2, 3) for p in (0.5, 2.0)) < 1e-8
    worst = 0.0
    for beta in (1.0, 2.0):
        for z in (0.4 + 0.5j * beta, -1.2 + 1.3j * beta):
            worst = max(worst, numerics.ftcosh_check(beta, z).defect)
    assert worst < 1e-9
    grid = np.linspace(-2.0, 2.0, 5)
    worst = max(max(numerics.sinh_abs_check(x, y).defect,
                    numerics.cosh_abs_check(x, y).defect)
                for x in grid for y in grid)
    assert worst < 1e-13


def test_c11_modular_pair_jdj_pd_kms_midline():
    algebra = verify.check_modular_algebra(CFG)
    _assert_green(_only(algebra, "modular.jdj"))
    dynamics = verify.check_modular_dynamics(CFG)
    _assert_green(_only(dynamics, "modular.coefficient-pd",
                        "modular.coefficient-kms", "modular.midline-forms"))


def test_c12_flip_pairing_disc_and_strip_1e7():
    _assert_green(verify.check_flip_pairing(CFG))


def test_c13_strip_membership_classification():
    # 100 interior, 20 exterior with witnesses, boundary witness exact
    _assert_green(verify.check_strip_characterization(CFG))


def test_full_suite_green_inside_wall_clock_budget():
    report = verify.run_suite("all")
    _assert_green(report.results)
    assert report.seconds < 120.0
