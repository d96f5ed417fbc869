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
comparison fails when an id of the earlier sweep is gone.
"""

import importlib.util
import json
import platform
import re
from importlib.metadata import version
from pathlib import Path

import pytest

from rphardy.config import Defaults
from rphardy.verify import run_suite

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


@pytest.fixture(scope="module")
def recorded():
    """(file name, per-id accuracy entries) of the newest BENCH file."""
    name, bench = _newest_bench()
    here = {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy")}
    host = bench.get("host", {})
    differ = {k: (host.get(k), v) for k, v in here.items() if host.get(k) != v}
    if differ:
        pytest.skip("%s was recorded with other versions (recorded, here): %s"
                    % (name, differ))
    return name, bench["accuracy"]["ids"]


@pytest.mark.parametrize("seed", SEEDS)
def test_every_verify_defect_has_the_bits_the_newest_bench_file_records(recorded, seed):
    name, ids = recorded
    got = {r.id: r.defect.hex() for r in run_suite("all", Defaults(rng_seed=seed)).results}
    want = {cid: entry["defect_hex"][str(seed)] for cid, entry in ids.items()}
    moved = {cid: (want.get(cid), got.get(cid)) for cid in want.keys() | got.keys()
             if want.get(cid) != got.get(cid)}
    assert not moved, "defects differ from %s at rng seed %d (recorded, now): %s" % (
        name, seed, dict(sorted(moved.items())))


def test_the_sweep_comparison_fails_on_a_gone_id_and_not_on_a_new_one(capsys):
    sweep = _sweep()
    entry = {"defect_hex": {"0": (0.0).hex()}, "worst_slack": 0.0}
    one = {"ids": {"a": entry}, "failing_ids": {}}
    two = {"ids": {"a": entry, "b": entry}, "failing_ids": {}}
    assert not sweep.compare(two, one)      # a new id only prints
    assert "new id      b" in capsys.readouterr().out
    assert sweep.compare(one, two)
    assert "gone id     b" in capsys.readouterr().out
