#!/usr/bin/env python3
"""Per-id accuracy of the full verify suite over a fixed set of rng seeds.

    python3 scripts/accuracy_sweep.py OUT.json [BASE.json]

Runs ``verify.run_suite("all")`` at rng seeds 0-39 and 99 with the ``src``
next to this directory (never an installed copy) and writes OUT.json: for
every check id its tolerance, the worst defect and slack over the seeds, the
seed where the worst occurred, the failing seeds, and ``defect.hex()`` per
seed.  Slack is defect / tol, or the raw defect for the soundness ids whose
tolerance is 0 (they report defect - tail_bound).

It prints the ids whose defect is exactly 0 at every seed: such a check
cannot fail, so it is either exact on purpose (tests/test_accuracy_tripwire.py
pins that set with a reason per id) or compares a value with itself.

Given BASE.json, an earlier output of this script or a BENCH_<n>.json whose
``accuracy`` block is one, it prints every id whose defect moved at any seed
of the new sweep (worst slack before and after, and those seeds), every id
that fails now and did not fail in BASE, and every id of BASE that is gone,
and exits with status 1 if there is a moved, a newly failing or a gone id:
where bits move, a new BENCH file records the new sweep.  A new id only
prints.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rphardy import __version__  # noqa: E402
from rphardy.config import Defaults  # noqa: E402
from rphardy.verify import run_suite  # noqa: E402

SEEDS = list(range(40)) + [99]


def _slack(defect: float, tol: float) -> float:
    return defect / tol if tol > 0.0 else defect


def sweep(seeds) -> dict:
    """The accuracy block of ``run_suite("all")`` at each of ``seeds``."""
    ids: dict[str, dict] = {}
    for seed in seeds:
        for r in run_suite("all", Defaults(rng_seed=seed)).results:
            entry = ids.setdefault(r.id, {"tol": r.tol, "worst_defect": None,
                                          "worst_slack": None, "at_seed": None,
                                          "failing_seeds": [], "defect_hex": {}})
            entry["defect_hex"][str(seed)] = r.defect.hex()
            if not r.passed:
                entry["failing_seeds"].append(seed)
            slack = _slack(r.defect, r.tol)
            # a NaN defect is the worst there is
            if entry["worst_slack"] is None or not slack <= entry["worst_slack"]:
                entry.update(worst_defect=r.defect, worst_slack=slack, at_seed=seed)
    return {
        "method": "verify.run_suite('all', Defaults(rng_seed=s)) for s in seeds; per "
                  "check id the worst defect and slack (defect/tol, raw defect for tol "
                  "0), its seed, the failing seeds and defect.hex() per seed",
        "rphardy": __version__,
        "seeds": list(seeds),
        "failing_ids": {cid: e["failing_seeds"] for cid, e in ids.items()
                        if e["failing_seeds"]},
        "ids": ids,
    }


def exact_ids(accuracy: dict) -> list[str]:
    """The ids of an accuracy block whose defect is 0 at every seed."""
    return sorted(cid for cid, e in accuracy["ids"].items()
                  if all(float.fromhex(h) == 0.0 for h in e["defect_hex"].values()))


def compare(new: dict, base: dict) -> bool:
    """Print the ids that are new, moved, gone or newly fail; True if one
    moved, newly fails or is gone.  An id moved if its defect differs at a
    seed of ``new``, or BASE lacks that seed; seeds only BASE ran are not
    compared."""
    moved = []
    for cid, e in new["ids"].items():
        old = base["ids"].get(cid)
        if old is None:
            print("new id      %s" % cid)
            continue
        seeds = [seed for seed, h in e["defect_hex"].items() if old["defect_hex"].get(seed) != h]
        if seeds:
            moved.append(cid)
            print("moved       %-40s worst slack %.4e -> %.4e at seeds %s"
                  % (cid, old["worst_slack"], e["worst_slack"], ",".join(seeds)))
    gone = [cid for cid in base["ids"] if cid not in new["ids"]]
    for cid in gone:
        print("gone id     %s" % cid)
    newly = [cid for cid, seeds in new["failing_ids"].items()
             if set(seeds) - set(base["failing_ids"].get(cid, []))]
    for cid in newly:
        print("newly fails %-40s at seeds %s" % (cid, new["failing_ids"][cid]))
    print("%d of %d ids bit-identical at every seed, %d newly failing, %d gone"
          % (len(new["ids"]) - len(moved), len(new["ids"]), len(newly), len(gone)))
    return bool(moved or newly or gone)


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    result = sweep(SEEDS)
    Path(argv[0]).write_text(json.dumps(result, indent=1) + "\n")
    exact = exact_ids(result)
    print("%d ids with defect exactly 0 at every seed: %s" % (len(exact), ", ".join(exact)))
    if len(argv) == 2:
        base = json.loads(Path(argv[1]).read_text())
        return int(compare(result, base.get("accuracy", base)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
