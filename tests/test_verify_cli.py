"""Verify-suite plumbing and the command-line interface."""

import argparse
import json
import math

import numpy as np
import pytest

from rphardy import cli, measures, verify
from rphardy.config import Defaults

DISC_SZEGO = 0.14892851817706987 + 0.01985713575694265j  # z=0.3+0.2i, w=0.1-0.4i
PI_CSC_03PI = 3.8832220774509332                          # pi / sin(0.3 pi)


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


def test_suite_names_cover_the_registry():
    assert verify.SUITE_NAMES[0] == "all"
    assert set(verify.SUITE_NAMES[1:]) == set(verify.SUITES)


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


def test_cli_verify_bad_config_exits_3(tmp_path, capsys):
    bad = tmp_path / "cfg.json"
    bad.write_text("not json at all")
    rc = cli.main(["verify", "--suite", "series", "--config", str(bad)])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_cli_verify_config_overrides_are_applied(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"beta": 2.5, "rng_seed": 123}))
    rc = cli.main(["verify", "--suite", "appendix", "--config", str(cfg),
                   "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["failed"] == 0


def test_cli_rp_characterize_boundary_point(capsys):
    rc = cli.main(["rp", "--beta", "1.0", "--characterize", "--z", "0.4",
                   "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "boundary"
    assert abs(payload["witness_t"] - 2.0 * math.pi / 0.4) < 1e-12


def test_cli_rp_gram_pd_is_psd(capsys):
    rc = cli.main(["rp", "--group", "line", "--lam", "1.0", "--gram", "pd",
                   "--samples", "0.1,0.5,2.0", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["psd"] is True


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


def test_cli_measure_requires_a_source():
    with pytest.raises(SystemExit) as exc:
        cli.main(["measure", "--op", "kms"])
    assert exc.value.code == 2


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
    assert payload["sound"] is True
    assert abs(payload["closed_form"][0] - PI_CSC_03PI) < 1e-12
    assert payload["defect"] <= payload["tail_bound"]


def test_cli_series_szego_requires_w():
    with pytest.raises(SystemExit) as exc:
        cli.main(["series", "--kind", "szego", "--z", "0.3+0.5i"])
    assert exc.value.code == 2


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
