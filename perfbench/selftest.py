"""Self-tests of the benchmark itself (not of rphardy).

    python3 perfbench/selftest.py          # or: python -m pytest perfbench/selftest.py

They run the benchmark as the harness does, from the checkout root, and
check that:
  * a verify-all run covering rng_seed 99 counts the known
    kernels.poisson-mass.strip failure in ``failed`` instead of crashing or
    dropping it;
  * the metric names printed match BENCHMARK.json, in both modes;
  * the ``-X importtime`` parser attributes time to the right package;
  * without the rphardy sources the benchmark exits non-zero and prints no
    result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def _bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def _result(*args):
    proc, lines = _bench(*args)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def test_known_verify_defect_is_counted():
    detail, result = _result("--workload", "verify-all", "--seed", "99",
                             "--seconds", "1", "--trace", "0")
    seeds = detail["rng_seeds"]
    assert seeds[0] == 99 and result["correct"] is True
    run.load_workload("verify-all", 0)      # puts the checkout's src on sys.path
    from rphardy import Defaults, verify
    expected = sum(verify.run_suite("all", Defaults(rng_seed=s)).n_failed for s in seeds)
    assert expected >= 1
    assert result["failed"] == expected
    assert result["attempted"] == len(detail["accuracy"]) * len(seeds)
    assert 99 in detail["accuracy"]["kernels.poisson-mass.strip"]["failing_seeds"]
    assert detail["e2e"]["fail_frac"]["value"] == expected / result["attempted"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        _, result = _result("--workload", "array-build", "--seed", "0",
                            "--seconds", "1", "--trace", trace)
        assert result["correct"] is True and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in spec[key]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == declared


def test_import_breakdown():
    sample = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.linalg",
        "import time:        50 |        150 |     numpy",
        "import time:        30 |         30 |       json",
        "import time:        20 |         50 |     scipy.integrate",
        "import time:         7 |          7 |     argparse",
        "import time:        10 |        217 |   rphardy.numerics",
        "import time:         5 |        222 | rphardy",
        "import time:         3 |          3 | site",
    ])
    got = run.import_breakdown(sample)
    assert got == {"numpy": 150e-6, "scipy": 50e-6, "rphardy": 22e-6}


def test_refuses_to_run_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, lines = _bench("--workload", "verify-all", "--seed", "1",
                             "--seconds", "1", "--trace", "0",
                             cwd=tmp, script=Path(tmp) / HERE.name / "run.py")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok", name)
