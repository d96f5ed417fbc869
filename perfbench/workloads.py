"""The four workloads.  Each is a closed loop with one client: the next
operation starts only when the previous one has returned.

A workload object is built once per process (its set-up: inputs and any
precomputed structures), then ``run_op`` is called repeatedly inside the
timed window and ``check`` afterwards, outside it.  ``check`` returns
``(attempted, failed, problems)`` for one operation, where ``problems``
lists whatever makes the run's output incorrect.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import numpy as np

from rphardy import kernels, measures, modular, numerics, periodize, rpfunc, verify
from rphardy.config import Defaults
from rphardy.domains import DISC, HALF_PLANE, Strip

import inputs

# tolerances pinned by the verify checks that cover the same identities
KMS_TOL = 1e-8              # measures.kms
THETA_TOL = 1e-8            # measures.theta-invariance
MASS_TOL = 1e-12            # disc Poisson mass by the trapezoid rule
FACTORIZATION_TOL = 1e-15   # measures.factorization / measures.gamma-roundtrip
REFLECTION_TOL = 1e-12      # measures.reflection
CLI_REL_TOL = 1e-12         # CLI value against the in-process library value


def _rel_defect(a, b) -> float:
    """Largest relative difference of two measures' atoms and densities
    (inf when their supports differ)."""
    if a.atom_locs.size != b.atom_locs.size or (a.density is None) != (b.density is None):
        return math.inf
    worst = 0.0
    if a.atom_locs.size:
        if float(np.max(np.abs(a.atom_locs - b.atom_locs))) > 1e-12:
            return math.inf
        worst = float(np.max(np.abs(a.atom_weights - b.atom_weights)
                             / np.abs(b.atom_weights)))
    if a.density is not None:
        if a.density.size != b.density.size or abs(a.grid_x0 - b.grid_x0) > 1e-12:
            return math.inf
        worst = max(worst, float(np.max(np.abs(a.density - b.density)))
                    / float(np.max(np.abs(b.density))))
    return worst


def _tally(checks):
    """checks: (name, passed) pairs -> (attempted, failed, problems)."""
    problems = [name for name, ok in checks if not ok]
    return len(checks), len(problems), problems


class VerifyAll:
    """``verify.run_suite("all")`` in-process; operation i runs with
    ``rng_seed = seed + i``.

    A run makes a fixed number of suites, one per ``nominal_op_s`` of
    ``--seconds``, instead of as many as fit in the time.  Some rng seeds
    hit a known defect (NOTES.md), so a time-bound loop would count a
    different number of failures from run to run of the same seed; a fixed
    count makes ``attempted`` and ``failed`` depend on the seed alone."""

    name = "verify-all"
    in_process = True
    nominal_op_s = 1.0      # about one suite's time on a 2-vCPU host

    def __init__(self, seed: int):
        self.seed = seed
        self.ids = None
        self.rng_seeds: list[int] = []
        self.accuracy: dict[str, dict] = {}

    def run_op(self):
        cfg = Defaults(rng_seed=self.seed + len(self.rng_seeds))
        self.rng_seeds.append(cfg.rng_seed)
        return cfg.rng_seed, verify.run_suite("all", cfg)

    def check(self, out):
        rng_seed, report = out
        ids = [r.id for r in report.results]
        problems = []
        if len(set(ids)) != len(ids):
            problems.append("duplicate check ids")
        if self.ids is None:
            self.ids = ids
        elif ids != self.ids:
            problems.append("check ids changed between seeds")
        failed = 0
        for r in report.results:
            if math.isnan(r.defect) or r.passed != (r.defect <= r.tol):
                problems.append("inconsistent result for %s" % r.id)
            acc = self.accuracy.setdefault(
                r.id, {"defect": r.defect, "tol": r.tol, "failing_seeds": []})
            acc["defect"] = max(acc["defect"], r.defect)
            if not r.passed:
                failed += 1
                acc["failing_seeds"].append(rng_seed)
        if failed != report.n_failed:
            problems.append("suite failure count disagrees with its results")
        # a failing identity is the suite's own verdict: it counts as a failed
        # operation, while only a malformed report is a problem
        return len(ids), failed, problems

    def worst_slack(self) -> float:
        return max((a["defect"] / a["tol"] for a in self.accuracy.values()
                    if a["tol"] > 0), default=0.0)

    def accuracy_block(self) -> dict:
        return {cid: {"defect": a["defect"], "tol": a["tol"],
                      "slack": a["defect"] / a["tol"] if a["tol"] > 0 else None,
                      "failing_seeds": a["failing_seeds"]}
                for cid, a in sorted(self.accuracy.items())}


class ArrayEval:
    """The eval half of the array batch: Gram assembly, transforms on large
    grids, long series, a membership scan and a psi-Gram."""

    name = "array-eval"
    in_process = True

    def __init__(self, seed: int):
        inp = inputs.array_inputs(seed)
        self.inp = inp
        beta = inp["beta"]
        self.strip = Strip(inputs.STRIP_BETA)
        mu = measures.gridded(0.0, inputs.GRID_STEP, inp["grid_density"])
        self.nu_grid = measures.Gamma_map(mu, beta)
        self.nu_szego = measures.szego_strip_measure(inputs.STRIP_BETA)
        psi_mu = measures.gridded(0.0, inputs.GRID_STEP, inp["psi_density"])
        self.md = modular.build_modular(measures.Gamma_map(psi_mu, beta), beta)
        self.v = self.md.space.random_standard_vector(np.random.default_rng(inp["psi_seed"]))

    def run_op(self):
        inp, strip, b = self.inp, self.strip, inputs.STRIP_BETA
        z0 = inp["trapezoid_z"]
        z, w = inp["series_zw"]
        ts = inp["psi_times"]
        return {
            "gram.szego": kernels.kernel_gram(strip, inp["strip_points"], "szego"),
            "gram.bergman": kernels.kernel_gram(strip, inp["strip_points"], "bergman"),
            "gram.power": kernels.kernel_gram(DISC, inp["disc_points"], "power",
                                              s=inp["power_s"]),
            "gram.pd-circle": rpfunc.pd_gram("circle", inp["circle_lam"],
                                             inp["circle_samples"], beta=b),
            "gram.rp-line": rpfunc.rp_gram("line", inp["line_lam"], inp["line_samples"]),
            "kms": measures.kms_check(self.nu_grid, inp["beta"]),
            "theta": measures.theta_involution_check(self.nu_szego, b, inp["theta_pairs"]),
            "trapezoid": numerics.trapezoid_circle(
                lambda t: kernels.poisson(DISC, z0, t), inputs.TRAPEZOID_NODES),
            "series.szego": periodize.szego_series(b, z, w, inputs.SERIES_TERMS),
            "series.bergman": periodize.bergman_series(b, z, w, inputs.SERIES_TERMS),
            "membership": [rpfunc.strip_membership(b, p).verdict
                           for p in inp["membership_points"]],
            "gram.psi": numerics.gram_report(np.array(
                [[modular.modular_coefficient(self.md, self.v, tj - tk) for tk in ts]
                 for tj in ts])),
        }

    def check(self, out):
        b = inputs.STRIP_BETA
        expected = ["interior" if 0.0 < p.imag < b else "exterior"
                    for p in self.inp["membership_points"]]
        checks = [(name, out[name].verdict) for name in
                  ("gram.szego", "gram.bergman", "gram.power", "gram.pd-circle",
                   "gram.rp-line", "gram.psi")]
        checks += [("kms", out["kms"] <= KMS_TOL),
                   ("theta", out["theta"] <= THETA_TOL),
                   ("trapezoid", abs(out["trapezoid"] - 1.0) <= MASS_TOL),
                   ("series.szego", out["series.szego"].sound),
                   ("series.bergman", out["series.bergman"].sound),
                   ("membership", out["membership"] == expected)]
        return _tally(checks)


class ArrayBuild:
    """The build half of the array batch: measure construction and
    transforms on many atoms, the O(n^2) mirror and atom-index scans, and a
    JSON round trip."""

    name = "array-build"
    in_process = True

    def __init__(self, seed: int):
        inp = inputs.array_inputs(seed)
        self.beta = inp["beta"]
        self.atoms = inp["atoms"]
        self.grid_density = inp["grid_density"]

    def run_op(self):
        beta = self.beta
        mu = measures.atomic(self.atoms)
        nu = measures.Gamma_map(mu, beta)
        fact = measures.gamma_map(measures.M_kappa(mu, beta), beta)
        mu_grid = measures.gridded(0.0, inputs.GRID_STEP, self.grid_density)
        nu_grid = measures.Gamma_map(mu_grid, beta)
        return {
            "mu": mu, "nu": nu, "fact": fact,
            "back": measures.Gamma_inverse(nu, beta),
            "reflect": max(measures.reflection_check(nu, beta),
                           measures.reflection_check(fact, beta)),
            "md_atoms": modular.build_modular(nu, beta),
            "md_grid": modular.build_modular(nu_grid, beta),
            "nu_grid": nu_grid,
            "json": measures.MeasureOnR.from_json(nu_grid.to_json()),
        }

    def check(self, out):
        checks = [
            ("factorization", _rel_defect(out["fact"], out["nu"]) <= FACTORIZATION_TOL),
            ("roundtrip.atoms", _rel_defect(out["back"], out["mu"]) <= FACTORIZATION_TOL),
            ("reflection", out["reflect"] <= REFLECTION_TOL),
            ("modular.atoms", out["md_atoms"].space.dim == 2 * len(self.atoms)),
            ("modular.grid", out["md_grid"].space.dim == out["nu_grid"].density.size),
            ("json", _rel_defect(out["json"], out["nu_grid"]) <= FACTORIZATION_TOL),
        ]
        return _tally(checks)


def _cli_reference(p) -> dict:
    """What the CLI should print for parameters p, from the library."""
    beta = p["beta"]
    if p["cmd"] == "kernel":
        domain = {"disc": DISC, "half-plane": HALF_PLANE}.get(p["domain"]) or Strip(beta)
        kind = p["kind"]
        if kind == "szego":
            val = kernels.szego(domain, p["z"], p["w"])
        elif kind == "poisson":
            val = kernels.poisson(domain, p["z"], p["x"], p["component"])
        elif kind == "bergman":
            val = kernels.bergman_strip(beta, p["z"], p["w"])
        else:
            val = kernels.power_kernel(domain, p["s"], p["z"], p["w"])
        return {"value": complex(val)}
    if p["cmd"] == "series":
        f = periodize.szego_series if p["kind"] == "szego" else periodize.bergman_series
        ev = f(beta, p["z"], p["w"], inputs.CLI_SERIES_TERMS)
        return {"value": complex(ev.value), "sound": ev.sound}
    if p["cmd"] == "measure":
        return {"defect": measures.kms_check(measures.atomic(p["atoms"]), beta)}
    if p["cmd"] == "rp":
        return {"verdict": rpfunc.strip_membership(beta, p["z"]).verdict}
    md = modular.build_modular(measures.Gamma_map(measures.atomic(p["atoms"]), beta), beta)
    v = md.space.random_standard_vector(np.random.default_rng(Defaults().rng_seed))
    return {"dim": md.space.dim, "psi": modular.modular_coefficient(md, v, p["t"])}


def _close(a: complex, b: complex) -> bool:
    return abs(a - b) <= CLI_REL_TOL * max(1.0, abs(b))


def _cli_matches(p, ref, out) -> bool:
    if p["cmd"] in ("kernel", "series"):
        ok = _close(complex(*out["value"]), ref["value"])
        return ok and out.get("sound", True) is True
    if p["cmd"] == "measure":
        return out["defect"] <= KMS_TOL and _close(out["defect"], ref["defect"])
    if p["cmd"] == "rp":
        return out["verdict"] == ref["verdict"] == "interior"
    return (out["dim"] == ref["dim"] and _close(complex(*out["psi_at_t"]), ref["psi"])
            and out["kms_defect"] <= KMS_TOL)


class CliOneshot:
    """One ``python -m rphardy.cli ...`` child at a time, with PYTHONPATH set
    to the checkout's src; every output is compared with the in-process
    library value."""

    name = "cli-oneshot"
    in_process = False

    def __init__(self, seed: int, env: dict, cwd: str):
        self.calls = inputs.cli_calls(seed)
        self.refs = [_cli_reference(p) for _, p in self.calls]
        self.env = env
        self.cwd = cwd
        self.i = 0
        self.importtime = False    # run children under -X importtime

    def run_op(self):
        args, p = self.calls[self.i % len(self.calls)]
        ref = self.refs[self.i % len(self.calls)]
        self.i += 1
        flags = ["-X", "importtime"] if self.importtime else []
        proc = subprocess.run([sys.executable, *flags, "-m", "rphardy.cli", *args],
                              env=self.env, cwd=self.cwd, capture_output=True,
                              text=True, timeout=120)
        return args, p, ref, proc

    def check(self, out):
        args, p, ref, proc = out
        ok = proc.returncode == 0
        if ok:
            try:
                ok = _cli_matches(p, ref, json.loads(proc.stdout.strip().splitlines()[-1]))
            except (ValueError, KeyError, IndexError, TypeError):
                ok = False
        return _tally([(" ".join(args[:3]), ok)])


def make(name: str, seed: int, env: dict, cwd: str):
    if name == "verify-all":
        return VerifyAll(seed)
    if name == "array-eval":
        return ArrayEval(seed)
    if name == "array-build":
        return ArrayBuild(seed)
    return CliOneshot(seed, env, cwd)
