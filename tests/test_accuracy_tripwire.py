"""Accuracy tripwire: the full verify suite reproduces, bit for bit, the
defect of every check id that the newest committed ``BENCH_<n>.json``
records in its ``accuracy`` block (written by ``scripts/accuracy_sweep.py``),
and the ids whose recorded defect is exactly 0 at every seed are the ones
pinned below, each exact for a stated reason.

A change that reorders floating-point work moves some defect by an ulp and
fails here.  When the move is intended, the change commits a new BENCH file
with the new sweep.  The bits depend on the interpreter and the numeric
libraries, so the test skips unless Python, numpy and scipy are the versions
in that file's ``host`` block.  The last test pins that the sweep's
comparison fails when an id of the earlier sweep is gone or its bits moved.
"""

import importlib.util
import json
import platform
import re
from importlib.metadata import version
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 99)

_GRAM = "a PSD deficit max(0, -lambda_min) / max(1, ||G||): 0 for a positive definite Gram"
_MISSES = "a count of misclassified points: 0 when the scan classifies every one"
# Every id whose defect is 0 at every seed, with the reason it is exact.  A
# check that compares a value with a copy of itself reads 0 too and can never
# fail; such an id turns up here as unexpected.
EXACT_IDS = {
    "kernels.bergman-midline": "1 / (16 beta^2) and the kernel are exact at beta = 1",
    "kernels.rp-gram.line-pd": _GRAM,
    "kernels.rp-gram.circle-pd": _GRAM,
    "kernels.power.gram": _GRAM,
    "kernels.bergman.gram": _GRAM,
    "kernels.strip-membership.interior": _MISSES,
    "kernels.strip-membership.exterior": _MISSES,
    "modular.standard-membership":
        "v = (u + conj(u(-lam))) / 2 is built symmetric, and conj and / 2 are exact",
    "modular.coefficient-symmetry":
        "e^{-i t lam} is conj(e^{i t lam}) bit for bit, and both sums are exactly rounded",
}


def _sweep():
    """scripts/accuracy_sweep.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "accuracy_sweep", ROOT / "scripts" / "accuracy_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def _newest_bench():
    """(file name, parsed contents) of the newest BENCH_<n>.json."""
    benches = [(int(m.group(1)), path) for path in ROOT.glob("BENCH_*.json")
               if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))]
    if not benches:
        pytest.skip("no BENCH_<n>.json in %s" % ROOT)
    path = max(benches)[1]
    return path.name, json.loads(path.read_text())


def test_the_ids_whose_recorded_defect_is_exactly_0_are_the_pinned_ones():
    name, bench = _newest_bench()
    exact = set(_sweep().exact_ids(bench["accuracy"]))
    assert exact == EXACT_IDS.keys(), "%s: unexpected %s, no longer exact %s" % (
        name, sorted(exact - EXACT_IDS.keys()), sorted(EXACT_IDS.keys() - exact))


def test_every_verify_defect_has_the_bits_the_newest_bench_file_records(capsys):
    name, bench = _newest_bench()
    here = {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy")}
    host = bench.get("host", {})
    differ = {k: (host.get(k), v) for k, v in here.items() if host.get(k) != v}
    if differ:
        pytest.skip("%s was recorded with other versions (recorded, here): %s"
                    % (name, differ))
    sweep = _sweep()
    now = sweep.sweep(SEEDS)
    # stricter than the sweep's comparison: an id the BENCH file lacks fails
    failed = sweep.compare(now, bench["accuracy"]) \
        or not now["ids"].keys() <= bench["accuracy"]["ids"].keys()
    assert not failed, "against %s at rng seeds %s:\n%s" % (
        name, SEEDS, capsys.readouterr().out)


def test_the_sweep_comparison_fails_on_a_gone_id_and_not_on_a_new_one(capsys):
    sweep = _sweep()
    entry = {"defect_hex": {"0": (0.0).hex()}, "worst_slack": 0.0}
    one = {"ids": {"a": entry}, "failing_ids": {}}
    two = {"ids": {"a": entry, "b": entry}, "failing_ids": {}}
    assert not sweep.compare(two, one)      # a new id only prints
    assert "new id      b" in capsys.readouterr().out
    assert sweep.compare(one, two)
    assert "gone id     b" in capsys.readouterr().out
    # one ulp more at one seed is a moved id, which needs a new BENCH file
    nudged = {"defect_hex": {"0": (5e-324).hex()}, "worst_slack": 5e-324}
    assert sweep.compare({"ids": {"a": nudged}, "failing_ids": {}}, one)
    assert "moved       a" in capsys.readouterr().out
    # a 1-seed sweep is compared on its seed alone, which the base must have
    both = {"ids": {"a": {"defect_hex": {"0": (0.0).hex(), "99": (5e-324).hex()},
                          "worst_slack": 5e-324}}, "failing_ids": {}}
    assert not sweep.compare(one, both)
    assert "1 of 1 ids bit-identical" in capsys.readouterr().out
    assert sweep.compare({"ids": {"a": nudged}, "failing_ids": {}}, both)
    assert "at seeds 0\n" in capsys.readouterr().out
    only_99 = {"defect_hex": {"99": (0.0).hex()}, "worst_slack": 0.0}
    assert sweep.compare({"ids": {"a": only_99}, "failing_ids": {}}, one)
    assert "at seeds 99\n" in capsys.readouterr().out
