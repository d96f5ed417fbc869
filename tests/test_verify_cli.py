"""Verify-suite plumbing and the command-line interface."""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rphardy import cli, config, kernels, measures, numerics, verify
from rphardy.config import Defaults
from rphardy.errors import ParameterOutOfRange

DISC_SZEGO = 0.14892851817706987 + 0.01985713575694265j  # z=0.3+0.2i, w=0.1-0.4i
PI_CSC_03PI = 3.8832220774509332                          # pi / sin(0.3 pi)

# (id, anchor, tol) of every run_suite("all") result at Defaults(), in order
VERIFY_CONTRACT = [
    ("kernels.hua.disc", "P_z(x) = |Q(z, x)|^2 / Q(z, z)", 1e-10),
    ("kernels.hua.half_plane", "P_z(x) = |Q(z, x)|^2 / Q(z, z)", 1e-10),
    ("kernels.hua.strip", "P_z(x) = |Q(z, x)|^2 / Q(z, z)", 1e-10),
    ("kernels.poisson-mass.disc", "Integral_boundary P_z(x) dx = 1", 1e-08),
    ("kernels.poisson-mass.half_plane", "Integral_boundary P_z(x) dx = 1", 1e-08),
    ("kernels.poisson-mass.strip", "Integral_boundary P_z(x) dx = 1", 1e-08),
    ("kernels.poisson-ft.half_plane",
     "Integral P_{i lam}(x) e^{itx} dx = e^{-lam |t|}", 1e-08),
    ("kernels.disc-moments", "Integral e^{int} P_lam(t) dt = lam^n", 1e-08),
    ("kernels.strip-midline-poisson",
     "P_{lam + i beta/2}(x) = 1 / (2 beta cosh(pi (lam - x)/beta))", 1e-12),
    ("kernels.bergman-midline", "Q(i beta/2, i beta/2)^2 = 1 / (16 beta^2)", 1e-13),
    ("kernels.rp-gram.integers-pd", "[lam^{|n_j - n_k|}] is PSD", 1e-10),
    ("kernels.rp-gram.integers-rp", "[lam^{n_j + n_k}] is PSD on n >= 0", 1e-10),
    ("kernels.rp-gram.line-pd", "[e^{-lam |t_j - t_k|}] is PSD", 1e-10),
    ("kernels.rp-gram.line-rp", "[e^{-lam (t_j + t_k)}] is PSD on t >= 0", 1e-10),
    ("kernels.rp-gram.circle-pd", "[phi_lam([y_j - y_k])] is PSD", 1e-10),
    ("kernels.rp-gram.circle-rp",
     "[phi_lam([y_j + y_k])] is PSD on (0, beta/2)", 1e-10),
    ("kernels.rp-gram.signed-power",
     "[(eps_j eps_k)^n e^{-n |t_j - t_k|}] is PSD", 1e-10),
    ("kernels.power.s1",
     "Q_1 recovers the Szego kernel (x 2 pi on the half-plane)", 1e-13),
    ("kernels.power.s2-bergman", "Q_2 = Q^2 on the strip", 1e-13),
    ("kernels.power.gram", "[Q_s(z_j, z_k)] is PSD for s > 0", 1e-10),
    ("kernels.bergman.gram", "[Q^2(z_j, z_k)] is PSD", 1e-10),
    ("kernels.transfer.disc-to-half_plane",
     "Q_src(z, w) = sqrt(phi'(z)) conj(sqrt(phi'(w))) Q_dst(phi z, phi w)", 1e-12),
    ("kernels.transfer.half_plane-to-disc",
     "Q_src(z, w) = sqrt(phi'(z)) conj(sqrt(phi'(w))) Q_dst(phi z, phi w)", 1e-12),
    ("kernels.transfer.half_plane-to-strip",
     "Q_src(z, w) = sqrt(phi'(z)) conj(sqrt(phi'(w))) Q_dst(phi z, phi w)", 1e-12),
    ("kernels.transfer.strip-to-half_plane",
     "Q_src(z, w) = sqrt(phi'(z)) conj(sqrt(phi'(w))) Q_dst(phi z, phi w)", 1e-12),
    ("kernels.transfer.disc-to-strip",
     "Q_src(z, w) = sqrt(phi'(z)) conj(sqrt(phi'(w))) Q_dst(phi z, phi w)", 1e-12),
    ("kernels.transfer.strip-to-disc",
     "Q_src(z, w) = sqrt(phi'(z)) conj(sqrt(phi'(w))) Q_dst(phi z, phi w)", 1e-12),
    ("kernels.outer-modulus", "outer(|F_w|) and F_w agree in modulus", 1e-07),
    ("kernels.flip-multiplier",
     "|h_w| = 1 on the boundary for w on the fixed set", 1e-12),
    ("kernels.flip-pairing.disc", "<f*, theta_w f*> = |f(w)|^2 / Q(w, w)", 1e-07),
    ("kernels.flip-pairing.strip", "<f*, theta_w f*> = |f(w)|^2 / Q(w, w)", 1e-07),
    ("kernels.strip-membership.interior",
     "|c_t(z)| < 1 for all t > 0 inside the strip", 0.0),
    ("kernels.strip-membership.exterior",
     "|c_t(z)| >= 1 for some t > 0 outside the strip", 0.0),
    ("kernels.strip-membership.boundary-witness",
     "|c_{2 pi / |x|}(z)| = 1 on the boundary", 1e-12),
    ("series.soundness.sinh", "partial-sum defect <= proven tail bound", 0.0),
    ("series.accuracy.sinh", "defect at N = 10000 below 1e-6", 1e-06),
    ("series.soundness.szego", "partial-sum defect <= proven tail bound", 0.0),
    ("series.accuracy.szego", "defect at N = 10000 below 1e-6", 1e-06),
    ("series.soundness.bergman", "partial-sum defect <= proven tail bound", 0.0),
    ("series.accuracy.bergman", "defect at N = 10000 below 1e-6", 1e-06),
    ("series.soundness.cosecant", "pi/sin(pi z) partial-sum defect <= 8|z|/(3N)", 0.0),
    ("series.split.soundness",
     "Q^+ + Q^- recombination defect <= 1/(2 pi beta (N-1))", 0.0),
    ("series.split.accuracy", "Q^+ + Q^- = Q at N = 2000", 0.0001),
    ("series.circle-family.resummation",
     "sum c_n e^{2 pi i n y / beta} returns phi_lam([y])", 1e-05),
    ("series.circle-family.coefficients",
     "c_n = (1/pi) s/(s^2+n^2) (1-e^{-beta lam})/(1+e^{-beta lam})", 1e-06),
    ("series.circle-family.geometric-form",
     "phi_lam([y]) matches the two-sided geometric sum", 1e-13),
    ("measures.reflection",
     "d Gamma(mu)(-lam) = e^{-beta lam} d Gamma(mu)(lam)", 1e-12),
    ("measures.kms", "nu_hat(i beta + t) = conj(nu_hat(t))", 1e-08),
    ("measures.circle-consistency",
     "Gamma(mu)_hat(iy) = Integral phi_lam([y]) d mu(lam)", 1e-10),
    ("measures.factorization",
     "gamma(M_kappa mu) = Gamma(mu), kappa = 1/(1+e^{-beta lam})", 1e-15),
    ("measures.gamma-roundtrip", "Gamma^{-1}(Gamma(mu)) = mu", 1e-15),
    ("measures.kernel-recovery.szego",
     "nu_hat(z - conj w) = (i/4 beta)/sinh(pi (z - conj w)/(2 beta))", 1e-08),
    ("measures.kernel-recovery.bergman",
     "nu_hat(z - conj w) = Q(z, w)^2 for the lam d lam density", 1e-08),
    ("measures.theta-invariance", "nu_hat(2 i beta - zeta) = nu_hat(zeta)", 1e-08),
    ("measures.riesz.transform",
     "Integral p^{s-1} e^{izp} dp / GAMMA(s) = (i/z)^s", 1e-08),
    ("measures.riesz.odd-part",
     "nu_s - nu_s^vee has density p^{s-1}/GAMMA(s) on p > 0", 1e-10),
    ("measures.splitting.alternating-atoms.reflection",
     "d nu(-lam) = e^{-2 beta lam} d nu(lam)", 1e-13),
    ("measures.splitting.alternating-atoms.one-sided",
     "nu_hat(z) = nu_hat_+(z) + nu_hat_+(2 i beta - z)", 1e-12),
    ("measures.splitting.plain-atoms.reflection",
     "d nu(-lam) = e^{-2 beta lam} d nu(lam)", 1e-13),
    ("measures.splitting.plain-atoms.one-sided",
     "nu_hat(z) = nu_hat_+(z) + nu_hat_+(2 i beta - z)", 1e-12),
    ("measures.splitting.alternating-grid.reflection",
     "d nu(-lam) = e^{-2 beta lam} d nu(lam)", 1e-13),
    ("measures.splitting.alternating-grid.one-sided",
     "nu_hat(z) = nu_hat_+(z) + nu_hat_+(2 i beta - z)", 1e-12),
    ("measures.splitting.plain-grid.reflection",
     "d nu(-lam) = e^{-2 beta lam} d nu(lam)", 1e-13),
    ("measures.splitting.plain-grid.one-sided",
     "nu_hat(z) = nu_hat_+(z) + nu_hat_+(2 i beta - z)", 1e-12),
    ("modular.jdj", "J Delta J = Delta^{-1}", 1e-12),
    ("modular.j-involution", "J^2 = 1", 1e-14),
    ("modular.flow-unitarity", "||Delta^{-it/beta} v|| = ||v||", 1e-13),
    ("modular.standard-membership",
     "v(lam) = conj(v(-lam)) on the standard subspace", 1e-15),
    ("modular.coefficient-pd",
     "psi(t) = <v, Delta^{-it/beta} v> is positive definite", 1e-10),
    ("modular.coefficient-kms", "psi(i beta + t) = conj(psi(t))", 1e-08),
    ("modular.coefficient-symmetry", "psi(-t) = conj(psi(t))", 1e-14),
    ("modular.midline-forms", "the two integral forms of the midline psi agree", 1e-08),
    ("modular.weyl-compatible",
     "V_s U_t = e^{its} U_t V_s exactly when t L in 2 pi Z", 1e-12),
    ("modular.weyl-interior", "Weyl relation exact at nodes that do not wrap", 1e-13),
    ("modular.weyl-wrap-bound", "wrapped-node defect bounded by |e^{itL} - 1|", 1e-13),
    ("appendix.poisson-summation.beta1-lam0.5",
     "periodized Lorentzian = two-sided geometric sum", 5.066059182116889e-06),
    ("appendix.poisson-summation.beta1-lam2",
     "periodized Lorentzian = two-sided geometric sum", 2.0264236728467556e-05),
    ("appendix.poisson-summation.beta2-lam1",
     "periodized Lorentzian = two-sided geometric sum", 2.0264236728467556e-05),
    ("appendix.sech-ft", "Integral e^{ix xi} sech x dx = pi / cosh(pi xi / 2)", 1e-10),
    ("appendix.sech2-ft", "FT(sech^2)(lam) = sqrt(pi/2) lam / sinh(pi lam / 2)", 1e-08),
    ("appendix.sech-power-recursion",
     "FT(sech^{n+2}) = (n^2+p^2)/(n(n+1)) FT(sech^n)", 1e-08),
    ("appendix.fermi-ft",
     "(1/2 pi) Int e^{iz lam}/(1+e^{-2 beta lam}) d lam "
     "= (i/4 beta)/sinh(pi z/(2 beta))", 1e-09),
    ("appendix.hyperbolic-modulus",
     "|sinh(x+iy)|^2 = sinh^2 x + sin^2 y (and the cosh twin)", 1e-13),
]


# --------------------------------------------------------------------------
# verify.run_suite
# --------------------------------------------------------------------------

def test_run_suite_kernels_is_green_and_well_formed():
    rep = verify.run_suite("kernels")
    assert rep.ok
    assert rep.n_failed == 0
    assert rep.n_passed == len(rep.results) > 0
    for r in rep.results:
        assert r.id.startswith("kernels.")
        assert r.defect >= 0.0
        assert r.tol >= 0.0    # counting checks pin tol = 0 exactly
        assert r.passed == (r.defect <= r.tol)
        assert r.anchor


def test_run_suite_rejects_unknown_names():
    with pytest.raises(KeyError):
        verify.run_suite("nonsense")


def test_run_suite_is_deterministic():
    a = verify.run_suite("modular")
    b = verify.run_suite("modular")
    assert [r.defect for r in a.results] == [r.defect for r in b.results]


def test_inject_defect_flips_exactly_one_result():
    rep = verify.run_suite("appendix", inject_defect=True)
    assert not rep.ok
    assert rep.n_failed == 1
    assert "defect injected" in rep.suite


def test_suite_report_to_dict_schema():
    rep = verify.run_suite("series")
    d = rep.to_dict()
    assert set(d) == {"suite", "seconds", "results", "passed", "failed"}
    assert d["passed"] == rep.n_passed and d["failed"] == 0
    for row in d["results"]:
        assert set(row) == {"id", "anchor", "defect", "tol", "pass"}
    json.dumps(d)  # must be serializable as-is


def test_run_suite_all_keeps_its_ids_anchors_tolerances_and_order(monkeypatch):
    returned = []

    def spy(check):
        def call(cfg):
            returned.append(check(cfg))
            return returned[-1]
        return call

    for group, checks in verify.SUITES.items():
        monkeypatch.setitem(verify.SUITES, group, [spy(c) for c in checks])
    rep = verify.run_suite("all")
    assert [(r.id, r.anchor, r.tol) for r in rep.results] == VERIFY_CONTRACT
    # SUITES entries are plain calls that return their results, so timing
    # a call times the check
    assert len(returned) == sum(len(c) for c in verify.SUITES.values())
    for out in returned:
        assert type(out) is list
        assert all(isinstance(r, verify.CheckResult) for r in out)


def test_check_hua_fails_when_every_sample_is_nan(monkeypatch):
    monkeypatch.setattr(kernels, "hua_ratio", lambda *args: math.nan)
    results = verify.check_hua(Defaults())
    assert [r.id for r in results] == ["kernels.hua.disc", "kernels.hua.half_plane",
                                       "kernels.hua.strip"]
    for r in results:
        assert math.isnan(r.defect)
        assert not r.passed


def test_check_hua_fails_on_one_nan_sample(monkeypatch):
    real = kernels.hua_ratio
    calls = []

    def hua_ratio(*args):
        calls.append(args)
        return math.nan if len(calls) == 7 else real(*args)

    monkeypatch.setattr(kernels, "hua_ratio", hua_ratio)
    disc, half_plane, strip = verify.check_hua(Defaults())
    assert math.isnan(disc.defect) and not disc.passed
    assert half_plane.passed and strip.passed


def test_suite_names_cover_the_registry():
    # the CLI parser offers config.SUITE_NAMES without importing verify, so
    # the names and their order must be the registry's
    assert config.SUITE_NAMES[0] == "all"
    assert tuple(verify.SUITES) == config.SUITE_NAMES[1:]


# --------------------------------------------------------------------------
# CLI helpers
# --------------------------------------------------------------------------

def test_parse_complex_accepts_the_documented_forms():
    assert cli.parse_complex("0.5+0.3i") == 0.5 + 0.3j
    assert cli.parse_complex("1.2") == 1.2 + 0.0j
    assert cli.parse_complex("-0.7i") == -0.7j
    assert cli.parse_complex("0.4 - 1.2i") == 0.4 - 1.2j
    assert cli.parse_complex("2I") == 2.0j


def test_parse_complex_rejects_garbage():
    with pytest.raises(argparse.ArgumentTypeError):
        cli.parse_complex("abc")


def test_fmt_complex_roundtrips_through_parse():
    for z in (0.5 + 0.0j, 0.5 + 0.3j, -1.25 - 0.75j, 0.0 - 2.0j):
        assert cli.parse_complex(cli.fmt_complex(z)) == z


# --------------------------------------------------------------------------
# CLI subcommands (exit codes and output payloads)
# --------------------------------------------------------------------------

def test_cli_kernel_szego_json(capsys):
    rc = cli.main(["kernel", "--domain", "disc", "--z", "0.3+0.2i",
                   "--w", "0.1-0.4i", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    got = complex(payload["value"][0], payload["value"][1])
    assert abs(got - DISC_SZEGO) < 1e-15


def test_cli_kernel_poisson_requires_x():
    with pytest.raises(SystemExit) as exc:
        cli.main(["kernel", "--domain", "disc", "--kind", "poisson",
                  "--z", "0.3"])
    assert exc.value.code == 2


def test_cli_kernel_bergman_rejects_non_strip_domains():
    with pytest.raises(SystemExit) as exc:
        cli.main(["kernel", "--domain", "disc", "--kind", "bergman",
                  "--z", "0.1", "--w", "0.2"])
    assert exc.value.code == 2


def test_cli_kernel_outside_domain_exits_3(capsys):
    rc = cli.main(["kernel", "--domain", "disc", "--z", "1.5", "--w", "0.1"])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("domain,z", [("half-plane", "0+1i"), ("strip", "0+0.5i"),
                                      ("disc", "0.1")])
def test_cli_kernel_poisson_at_a_nan_boundary_parameter_exits_3(capsys, domain, z):
    rc = cli.main(["kernel", "--domain", domain, "--kind", "poisson", "--z=" + z,
                   "--x=nan", "--json"])
    assert rc == 3
    assert "finite" in capsys.readouterr().err


def test_cli_kernel_disc_poisson_next_to_the_boundary_exits_0(capsys):
    rc = cli.main(["kernel", "--domain", "disc", "--kind", "poisson",
                   "--z", "0.999999999", "--x", "0", "--json"])
    assert rc == 0
    r = 0.999999999
    expected = (1.0 + r) / (2.0 * math.pi * (1.0 - r))   # 1 - r is exact
    got = json.loads(capsys.readouterr().out)["value"][0]
    assert abs(got - expected) <= 1e-12 * expected


def test_cli_verify_appendix_json(capsys):
    rc = cli.main(["verify", "--suite", "appendix", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] == 0
    assert payload["passed"] == len(payload["results"]) > 0


def test_cli_verify_inject_defect_exits_1(capsys):
    rc = cli.main(["verify", "--suite", "appendix", "--inject-defect"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_cli_verify_writes_a_report_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc = cli.main(["verify", "--suite", "series", "--report", str(path)])
    assert rc == 0
    capsys.readouterr()
    payload = json.loads(path.read_text())
    assert payload["suite"] == "series"
    assert payload["failed"] == 0


def test_cli_verify_has_no_config_file_option(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"beta": 2.5}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "series", "--config", str(path)])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_cli_verify_beta_and_seed_are_applied(capsys, monkeypatch):
    seen = []
    real_run_suite = verify.run_suite

    def spy(name, cfg, **kwargs):
        seen.append(cfg)
        return real_run_suite(name, cfg, **kwargs)

    monkeypatch.setattr(verify, "run_suite", spy)
    rc = cli.main(["verify", "--suite", "appendix", "--beta", "2.5",
                   "--seed", "123", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["failed"] == 0
    assert seen == [Defaults(beta=2.5, rng_seed=123)]


def test_cli_verify_quadratures_run_at_their_pinned_tolerances(capsys, monkeypatch):
    """Every quadrature of the suite runs at the library's 1e-10, except the
    checks pinned at 1e-9 (outer modulus, strip flip pairing) and 1e-11
    (sech)."""
    tols = set()
    real_quadpack = numerics._quadpack

    def spy(f, a, b, tol, **opts):
        tols.add(tol)
        return real_quadpack(f, a, b, tol, **opts)

    monkeypatch.setattr(numerics, "_quadpack", spy)
    assert cli.main(["verify", "--suite", "all", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["failed"] == 0
    assert tols == {1e-10, 1e-9, 1e-11}


@pytest.mark.parametrize("argv", [
    ["--beta", "nan"],
    ["--beta", "inf"],
    ["--beta", "0"],
    ["--seed", "-1"],
])
def test_cli_verify_bad_setting_values_exit_3(capsys, argv):
    rc = cli.main(["verify", "--suite", "series"] + argv)
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_cli_rp_characterize_boundary_point(capsys):
    rc = cli.main(["rp", "--beta", "1.0", "--characterize", "--z", "0.4",
                   "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "boundary"
    assert abs(payload["witness_t"] - 2.0 * math.pi / 0.4) < 1e-12


@pytest.mark.parametrize("argv", [["--z", "nan+0.5i"],
                                  ["--z", "0.3+0.5i", "--beta", "nan"]])
def test_cli_rp_characterize_non_finite_input_exits_3(capsys, argv):
    rc = cli.main(["rp", "--characterize"] + argv)
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_cli_rp_gram_pd_is_psd(capsys):
    rc = cli.main(["rp", "--group", "line", "--lam", "1.0", "--gram", "pd",
                   "--samples", "0.1,0.5,2.0", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["psd"] is True


@pytest.mark.parametrize("samples", ["", "1,,2", "abc", "0.5,nan"])
def test_cli_rp_malformed_samples_exit_3(capsys, samples):
    rc = cli.main(["rp", "--group", "line", "--lam", "1", "--gram", "pd",
                   "--samples=" + samples])
    assert rc == 3
    assert "--samples" in capsys.readouterr().err


def test_cli_rp_gram_whose_sample_difference_overflows_exits_3(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["rp", "--group", "line", "--lam", "1", "--gram", "pd",
                       "--samples", "1e308,-1e308"])
    assert rc == 3
    assert "overflows" in capsys.readouterr().err


@pytest.mark.parametrize("domain", ["disc", "half-plane", "strip"])
@pytest.mark.parametrize("s", ["inf", "nan", "-inf", "0", "1e300"])
def test_cli_kernel_power_with_a_bad_or_overflowing_s_exits_3(capsys, domain, s):
    # |base| > 1 at z = w = 0.01i on all three domains, so s = 1e300 overflows
    rc = cli.main(["kernel", "--domain", domain, "--kind", "power", "--s=" + s,
                   "--z=0.01i", "--w=0.01i", "--beta=2"])
    assert rc == 3
    assert "power kernel" in capsys.readouterr().err


@pytest.mark.parametrize("group", ["integers", "line", "circle"])
@pytest.mark.parametrize("argv", [["--at=nan"], ["--at=inf"], ["--at=-inf", "--json"],
                                  ["--at=0.5", "--lam=nan"], ["--at=0.5", "--beta=inf"]])
def test_cli_rp_at_a_value_that_is_not_finite_exits_3(capsys, group, argv):
    lam = [] if "--lam=nan" in argv else ["--lam=0.7"]
    rc = cli.main(["rp", "--group", group] + lam + argv)
    if group != "circle" and "--beta=inf" in argv:     # beta is the circle's
        assert rc == 0
        return
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_cli_rp_integers_truncates_the_element(capsys):
    assert cli.main(["rp", "--group", "integers", "--lam=0.5", "--at=-2.9"]) == 0
    assert capsys.readouterr().out.strip() == "0.25"


@pytest.mark.parametrize("lam", ["nan", "2.5", "-0.5"])
def test_cli_rp_param_gram_with_a_lam_that_is_not_a_count_exits_3(capsys, lam):
    rc = cli.main(["rp", "--gram", "param", "--lam=" + lam, "--samples=0.1,0.5"])
    assert rc == 3
    assert "--lam" in capsys.readouterr().err


def _run_quietly(argv):
    """cli.main on argv with its output captured and every warning an error:
    (exit status, stdout)."""
    out = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error")
        try:
            rc = cli.main(argv)
        except SystemExit as exc:   # argparse errors
            rc = exc.code
    return rc, out.getvalue()


# finite, huge, tiny, NaN and infinite values for the numeric options
NUMBERS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, 0.7, 2.0, -1.5, 1e300, -1e300, 5e-324, 1.7e308,
                     math.nan, math.inf, -math.inf]))


@settings(max_examples=300)
@given(kind=st.sampled_from(["szego", "poisson", "bergman", "power"]),
       domain=st.sampled_from(["disc", "half-plane", "strip"]),
       s=NUMBERS, beta=NUMBERS, x=NUMBERS,
       z=st.sampled_from(["0.3+0.1i", "0.1+0.5i", "0", "0.4+1e-300i", "1e300+0.5i"]),
       as_json=st.booleans())
def test_cli_kernel_fuzz_exits_0_2_or_3(kind, domain, s, beta, x, z, as_json):
    rc, out = _run_quietly(["kernel", "--domain", domain, "--kind", kind, "--s=%r" % s,
                            "--beta=%r" % beta, "--x=%r" % x, "--z=" + z,
                            "--w=0.1+0.5i"] + ["--json"] * as_json)
    assert rc in (0, 2, 3)
    if rc == 0:
        assert "nan" not in out.lower() and "inf" not in out.lower()


@settings(max_examples=300)
@given(group=st.sampled_from(["integers", "line", "circle"]),
       lam=NUMBERS, beta=NUMBERS, at=NUMBERS,
       mode=st.sampled_from(["at", "pd", "rp", "param"]), as_json=st.booleans())
def test_cli_rp_fuzz_exits_0_2_or_3(group, lam, beta, at, mode, as_json):
    argv = ["rp", "--group", group, "--lam=%r" % lam, "--beta=%r" % beta]
    if mode == "at":
        argv.append("--at=%r" % at)
    else:
        argv += ["--gram", mode, "--samples=0.1,0.2,%r" % at]
    rc, out = _run_quietly(argv + ["--json"] * as_json)
    assert rc in (0, 2, 3)
    if rc == 0:
        assert "nan" not in out.lower() and "inf" not in out.lower()


def test_cli_rp_needs_a_mode():
    with pytest.raises(SystemExit) as exc:
        cli.main(["rp", "--group", "line"])
    assert exc.value.code == 2


def test_cli_measure_gamma_roundtrip(tmp_path, capsys):
    rc = cli.main(["measure", "--op", "Gamma", "--beta", "1.0",
                   "--atoms", "0.7:1.0,1.3:0.2"])
    assert rc == 0
    gamma_json = capsys.readouterr().out
    path = tmp_path / "gamma.json"
    path.write_text(gamma_json)

    rc = cli.main(["measure", "--op", "inverse", "--beta", "1.0",
                   "--measure-json", str(path)])
    assert rc == 0
    back = measures.MeasureOnR.from_json(capsys.readouterr().out)
    assert np.allclose(sorted(back.atom_locs), [0.7, 1.3])
    w = dict(zip(back.atom_locs, back.atom_weights))
    assert abs(w[0.7] - 1.0) < 1e-14
    assert abs(w[1.3] - 0.2) < 1e-14


@pytest.mark.parametrize("atoms", ["1:nan,2:1", "nan:1,2:1", "inf:1", "1:inf"])
def test_cli_measure_non_finite_atom_exits_3(capsys, atoms):
    rc = cli.main(["measure", "--op", "Gamma", "--atoms", atoms])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_cli_measure_nan_beta_names_beta(capsys):
    rc = cli.main(["measure", "--op", "Gamma", "--beta", "nan", "--atoms", "1:1"])
    assert rc == 3
    assert "beta" in capsys.readouterr().err


def test_cli_measure_requires_a_source():
    with pytest.raises(SystemExit) as exc:
        cli.main(["measure", "--op", "kms"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["measure", "--atoms", "1", "--op", "kms"],
    ["modular", "--atoms", "0.5"],
    ["measure", "--atoms", "1:x", "--op", "kms"],
], ids=["no-weight", "modular-no-weight", "weight-not-a-number"])
def test_cli_malformed_atoms_exit_3(capsys, argv):
    rc = cli.main(argv)
    assert rc == 3
    assert "--atoms" in capsys.readouterr().err


@pytest.mark.parametrize("text", ['{"atoms": [[1.0]]}', "[1, 2]", "not json",
                                  '{"atoms": [[1, 2, 3]]}',
                                  '{"atoms": [], "density": {"x0": 0, "h": 1}}',
                                  '{"atoms": [["1", "2"]]}'],
                         ids=["short-atom", "list", "not-json", "long-atom",
                              "density-without-values", "string-atom"])
def test_cli_malformed_measure_json_exits_3(tmp_path, capsys, text):
    path = tmp_path / "mu.json"
    path.write_text(text)
    rc = cli.main(["measure", "--op", "kms", "--measure-json", str(path)])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["measure", "--op", "kms", "--measure-json", "{missing}"],
    ["verify", "--suite", "appendix", "--report", "{missing_dir}"],
], ids=["measure-json", "report"])
def test_cli_a_file_that_cannot_be_opened_exits_2(tmp_path, capsys, argv):
    paths = {"{missing}": str(tmp_path / "missing.json"),
             "{missing_dir}": str(tmp_path / "no-such-dir" / "r.json")}
    with pytest.raises(SystemExit) as exc:
        cli.main([paths.get(a, a) for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "No such file" in err


def test_cli_verify_opens_its_report_before_running_the_suite(tmp_path, capsys,
                                                             monkeypatch):
    def run_suite(*args, **kwargs):
        raise AssertionError("the suite ran before the report path was opened")

    monkeypatch.setattr(verify, "run_suite", run_suite)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "all", "--report",
                  str(tmp_path / "no-such-dir" / "r.json")])
    assert exc.value.code == 2
    assert "No such file" in capsys.readouterr().err


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, None])
def test_defaults_reject_a_beta_that_is_not_finite_and_positive_by_name(value):
    with pytest.raises(ParameterOutOfRange, match="finite beta > 0"):
        Defaults(beta=value).validate()


@pytest.mark.parametrize("argv", [["--beta", "-1"], ["--beta", "nan"], []],
                         ids=["negative-beta", "nan-beta", "suite-error"])
def test_cli_verify_that_fails_leaves_an_existing_report_as_it_was(tmp_path, capsys,
                                                                  monkeypatch, argv):
    def run_suite(name, cfg, **kwargs):
        cfg.validate()
        raise ParameterOutOfRange("the suite failed")

    monkeypatch.setattr(verify, "run_suite", run_suite)
    path = tmp_path / "r.json"
    path.write_text('{"suite": "earlier"}')
    rc = cli.main(["verify", "--suite", "series", "--report", str(path)] + argv)
    assert rc == 3
    assert "error:" in capsys.readouterr().err
    assert path.read_text() == '{"suite": "earlier"}'


def test_cli_verify_replaces_a_longer_existing_report(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text("x" * 100_000)
    rc = cli.main(["verify", "--suite", "appendix", "--report", str(path)])
    assert rc == 0
    capsys.readouterr()
    assert json.loads(path.read_text())["suite"] == "appendix"


def test_cli_measure_kms_on_gamma_image(tmp_path, capsys):
    mu = measures.atomic([(0.7, 1.0), (1.3, 0.2)])
    nu = measures.Gamma_map(mu, 1.0)
    path = tmp_path / "nu.json"
    path.write_text(nu.to_json())
    rc = cli.main(["measure", "--op", "kms", "--beta", "1.0",
                   "--measure-json", str(path), "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["defect"] < 1e-12


def test_cli_series_cosecant_sound(capsys):
    rc = cli.main(["series", "--kind", "cosecant", "--z", "0.3", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["terms"] == 10_000
    assert payload["sound"] is True
    assert abs(payload["closed_form"][0] - PI_CSC_03PI) < 1e-12
    assert payload["defect"] <= payload["tail_bound"]


def test_cli_series_below_its_threshold_is_unsound(capsys):
    argv = ["series", "--kind", "cosecant", "--z=1e154+0.5i", "--terms", "10"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.rstrip().endswith("tail_bound=inf UNSOUND")
    assert cli.main(argv + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tail_bound"] == math.inf and payload["sound"] is False


def test_cli_series_szego_requires_w():
    with pytest.raises(SystemExit) as exc:
        cli.main(["series", "--kind", "szego", "--z", "0.3+0.5i"])
    assert exc.value.code == 2


def test_cli_series_nan_beta_exits_3(capsys):
    rc = cli.main(["series", "--kind", "sinh", "--beta", "nan", "--z", "0.3+0.2i"])
    assert rc == 3
    assert "beta" in capsys.readouterr().err


def test_cli_series_pole_exits_3(capsys):
    rc = cli.main(["series", "--kind", "cosecant", "--z", "2.0"])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_cli_modular_diagnostics(capsys):
    rc = cli.main(["modular", "--atoms", "0.6:1.0,1.7:0.4", "--beta", "1.0",
                   "--t", "0.8", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim"] == 4          # Gamma image symmetrizes the atoms
    assert payload["jdj_defect"] < 1e-12
    assert payload["j_involution_defect"] < 1e-12
    assert payload["kms_defect"] < 1e-10
    psi = complex(*payload["psi_at_t"])
    assert abs(psi) <= 1.0 + 1e-12      # psi(0) = 1 dominates |psi(t)|


def test_cli_modular_empty_measure_exits_3(capsys):
    # a zero weight drops the only atom, leaving nothing to discretize
    rc = cli.main(["modular", "--atoms", "0.5:0"])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_cli_measure_Gamma_far_atom_exits_0(capsys):
    rc = cli.main(["measure", "--op", "Gamma", "--atoms", "1000:1"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["atoms"] == [[1000.0, 1.0]]


def test_cli_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["series", "--kind", "sinh", "--z", "0.5+0.5i", "--beta", "1e-320"],
    ["series", "--kind", "sinh", "--z", "1e300+0.5i"],
    ["series", "--kind", "bergman", "--z", "1e300+0.5i", "--w", "0.1+0.2i"],
    ["modular", "--atoms", "0.6:1", "--t", "nan"],
])
def test_cli_overflow_and_non_finite_inputs_exit_3(argv):
    rc, out = _run_quietly(argv)
    assert rc == 3 and out == ""


def _complex_arg(re: float, im: float) -> str:
    return "%r%s%ri" % (re, "" if repr(im).startswith("-") else "+", im)


def _printed_finite(out: str, allowed=()) -> bool:
    """No NaN or inf in the output, apart from the fields named in
    ``allowed`` (a series tail bound is inf below its threshold)."""
    text = out
    for name in allowed:
        text = re.sub(r'"%s": [^,}]*|%s=\S*' % (name, name), "", text)
    return "nan" not in text.lower() and "inf" not in text.lower()


POINTS = st.one_of(
    st.sampled_from(["0.3+0.1i", "0.5+0.5i", "0", "2i", "1e300+0.5i", "0.4+1e-300i",
                     "-1.7+1e300i", "1e155+1e155i", "nan+0.5i"]),
    st.builds(_complex_arg, NUMBERS, NUMBERS))


@settings(max_examples=300)
@given(kind=st.sampled_from(["cosecant", "sinh", "szego", "bergman"]),
       beta=NUMBERS, z=POINTS, w=POINTS, terms=st.integers(-3, 3000),
       as_json=st.booleans())
def test_cli_series_fuzz_exits_0_2_or_3(kind, beta, z, w, terms, as_json):
    rc, out = _run_quietly(["series", "--kind", kind, "--beta=%r" % beta, "--z=" + z,
                            "--w=" + w, "--terms=%d" % terms] + ["--json"] * as_json)
    assert rc in (0, 2, 3)
    if rc == 0:
        assert _printed_finite(out, allowed=("tail_bound",))


ATOMS = st.lists(st.tuples(NUMBERS, NUMBERS), min_size=1, max_size=4).map(
    lambda pairs: ",".join("%r:%r" % pair for pair in pairs))


@settings(max_examples=300)
@given(op=st.sampled_from(["gamma", "Gamma", "inverse", "kappa", "reflect", "kms",
                           "fourier", "laplace"]),
       atoms=ATOMS, beta=NUMBERS, at=POINTS, factor=NUMBERS, as_json=st.booleans())
def test_cli_measure_fuzz_exits_0_2_or_3(op, atoms, beta, at, factor, as_json):
    rc, out = _run_quietly(["measure", "--op", op, "--atoms=" + atoms, "--beta=%r" % beta,
                            "--at=" + at, "--factor=%r" % factor] + ["--json"] * as_json)
    assert rc in (0, 2, 3)
    if rc == 0:
        # a reflection defect is inf where the support is asymmetric
        assert "nan" not in out.lower() if op == "reflect" else _printed_finite(out)


@settings(max_examples=300)
@given(atoms=ATOMS, beta=NUMBERS, t=st.one_of(st.none(), NUMBERS), as_json=st.booleans())
def test_cli_modular_fuzz_exits_0_2_or_3(atoms, beta, t, as_json):
    argv = ["modular", "--atoms=" + atoms, "--beta=%r" % beta]
    if t is not None:
        argv.append("--t=%r" % t)
    rc, out = _run_quietly(argv + ["--json"] * as_json)
    assert rc in (0, 2, 3)
    if rc == 0:
        assert _printed_finite(out)


@pytest.mark.parametrize("value", [None, 1.5, math.nan, "5", -1])
def test_defaults_reject_an_rng_seed_that_is_not_an_integer_by_name(value):
    with pytest.raises(ParameterOutOfRange, match="rng_seed must be an integer"):
        Defaults(rng_seed=value).validate()


def test_defaults_hold_beta_and_rng_seed_only():
    assert [f.name for f in dataclasses.fields(Defaults)] == ["beta", "rng_seed"]
    Defaults(rng_seed=0).validate()
    Defaults(rng_seed=np.int32(3)).validate()


def test_main_builds_its_parser_once_per_process(monkeypatch, capsys):
    argv = ["kernel", "--domain", "disc", "--z", "0.3+0.2i", "--w", "0.1"]
    assert cli.main(argv) == 0
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("the parser was rebuilt"))
    assert cli.main(argv) == 0
    first, second = capsys.readouterr().out.splitlines()
    assert first == second
