"""Accuracy tripwire: the full verify suite reproduces, bit for bit, the
defect of every check id that the newest committed ``BENCH_<n>.json``
records in its ``accuracy`` block (written by ``scripts/accuracy_sweep.py``).

A change that reorders floating-point work moves some defect by an ulp and
fails here.  When the move is intended, the change commits a new BENCH file
with the new sweep.  The bits depend on the interpreter and the numeric
libraries, so the test skips unless Python, numpy and scipy are the versions
in that file's ``host`` block.
"""

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


@pytest.fixture(scope="module")
def recorded():
    """(file name, per-id accuracy entries) of the newest BENCH file."""
    benches = [(int(m.group(1)), path) for path in ROOT.glob("BENCH_*.json")
               if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))]
    if not benches:
        pytest.skip("no BENCH_<n>.json in %s" % ROOT)
    path = max(benches)[1]
    bench = json.loads(path.read_text())
    here = {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy")}
    host = bench.get("host", {})
    differ = {k: (host.get(k), v) for k, v in here.items() if host.get(k) != v}
    if differ:
        pytest.skip("%s was recorded with other versions (recorded, here): %s"
                    % (path.name, differ))
    return path.name, bench["accuracy"]["ids"]


@pytest.mark.parametrize("seed", SEEDS)
def test_every_verify_defect_has_the_bits_the_newest_bench_file_records(recorded, seed):
    name, ids = recorded
    got = {r.id: r.defect.hex() for r in run_suite("all", Defaults(rng_seed=seed)).results}
    want = {cid: entry["defect_hex"][str(seed)] for cid, entry in ids.items()}
    moved = {cid: (want.get(cid), got.get(cid)) for cid in want.keys() | got.keys()
             if want.get(cid) != got.get(cid)}
    assert not moved, "defects differ from %s at rng seed %d (recorded, now): %s" % (
        name, seed, dict(sorted(moved.items())))
