#!/usr/bin/env python3
"""rphardy benchmark: end-to-end and per-layer timings of four workloads.

    python3 perfbench/run.py --workload verify-all --seed 3 --seconds 20 --trace 0

Run it from the root of a source checkout; it times the ``src`` next to this
directory, never an installed copy.  Workloads:

    verify-all   verify.run_suite("all") in-process, seed + i for operation i,
                 one suite per second of --seconds
    cli-oneshot  one ``python -m rphardy.cli ...`` child at a time
    array-eval   large-input evaluation round (Grams, transforms, series)
    array-build  large-input construction round (measures, modular spaces)

``--trace 0`` measures for ``--seconds`` and prints the end-to-end metrics;
``--trace 1`` measures half the time untraced and half with every layer
wrapped, and prints the per-layer metrics.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it holds the detail (environment, inputs, the
verify accuracy block, per-workload metric names).  See NOTES.md.
"""

from __future__ import annotations

import os

# one BLAS thread (at most nproc), fixed before numpy loads, here and in
# every child process: the run is one client, and a shared 2-core machine
# gives steadier numbers without BLAS threads competing for it
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify-all", "cli-oneshot", "array-eval", "array-build")
SETUP_PROBES = 5
CHILD_TIMEOUT = 120

# per-workload names for op_s_p50 / op_s_tail in the detail line
OP_NAMES = {"verify-all": "verify_s", "cli-oneshot": "cli_s",
            "array-eval": "batch_eval_s", "array-build": "batch_build_s"}

SLACK_IDS = ("measures.gamma-roundtrip", "measures.factorization",
             "series.accuracy.bergman", "series.circle-family.resummation")

PER_LAYER = (
    [("import.interp_s", "s"), ("import.numpy_s", "s"), ("import.scipy_s", "s"),
     ("import.rphardy_s", "s"), ("cli.run_s", "s/op")]
    + [("verify.%s_s" % g, "s/op")
       for g in ("kernels", "series", "measures", "modular", "appendix")]
    + [("kernels.%s.%s" % (k, m), u) for k in ("szego", "poisson", "h_boundary",
                                               "bergman", "power")
       for m, u in (("calls", "count/op"), ("self_s", "s/op"))]
    + [("kernels.kernel_gram.self_s", "s/op"),
       ("numerics.comp_sum.calls", "count/op"), ("numerics.comp_sum.terms", "count/op"),
       ("numerics.comp_sum.self_s", "s/op"),
       ("numerics.quad.calls", "count/op"), ("numerics.quad.integrand_evals", "count/op"),
       ("numerics.quad.self_s", "s/op"), ("numerics.quad.failed", "count/op"),
       ("numerics.trapezoid.self_s", "s/op"),
       ("numerics.gram.calls", "count/op"), ("numerics.gram.self_s", "s/op"),
       ("measures.fourier.calls", "count/op"), ("measures.fourier.nodes", "count/op"),
       ("measures.fourier.self_s", "s/op"),
       ("measures.transform.self_s", "s/op"), ("measures.reflection.self_s", "s/op"),
       ("periodize.series.calls", "count/op"), ("periodize.series.terms", "count/op"),
       ("periodize.series.self_s", "s/op"), ("periodize.series.tightness", "ratio"),
       ("rpfunc.gram.self_s", "s/op"),
       ("rpfunc.membership.calls", "count/op"), ("rpfunc.membership.self_s", "s/op"),
       ("modular.build.self_s", "s/op"),
       ("modular.coefficient.calls", "count/op"), ("modular.coefficient.self_s", "s/op"),
       ("trace.overhead_frac", "ratio"), ("slack.worst", "ratio")]
    + [("slack." + cid, "ratio") for cid in SLACK_IDS]
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def load_workload(name: str, seed: int):
    """Set-up: import the checkout's rphardy and generate the inputs."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import rphardy
    if Path(rphardy.__file__).resolve() != (SRC / "rphardy" / "__init__.py").resolve():
        raise SystemExit("rphardy resolved to %s, not the checkout's src" % rphardy.__file__)
    import workloads
    return workloads.make(name, seed, child_env(), str(ROOT))


def check_child_origin():
    """The CLI children must import the same src as this process."""
    code = "import importlib.util as u; print(u.find_spec('rphardy').origin)"
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    origin = out.stdout.strip()
    if out.returncode != 0 or Path(origin).resolve() != (SRC / "rphardy" / "__init__.py").resolve():
        raise SystemExit("CLI children import rphardy from %r" % origin)


# -- child-process probes ----------------------------------------------------

def probe_setup(name: str, seed: int, importtime: bool) -> str:
    """Set up in a fresh process, which exits without teardown right after;
    returns its stderr."""
    flags = ["-X", "importtime"] if importtime else []
    cmd = [sys.executable, *flags, str(HERE / "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    proc = subprocess.run(cmd, env=dict(os.environ), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0 or proc.stdout.strip() != "ready":
        raise SystemExit("set-up probe failed:\n" + proc.stderr[-2000:])
    return proc.stderr


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)$")
IMPORT_GROUPS = ("numpy", "scipy", "rphardy")


def import_breakdown(stderr: str) -> dict:
    """Seconds of ``-X importtime`` self time owned by numpy, scipy and
    rphardy: a module belongs to the nearest of itself and its importers
    whose name is in one of those packages (so the stdlib modules rphardy
    pulls in count as rphardy, and numpy inside scipy as numpy)."""
    entries = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(1))))
    totals = dict.fromkeys(IMPORT_GROUPS, 0)
    owners: list = []
    # importtime prints children before their parent; reversed, every parent
    # comes first and ``owners[level - 1]`` is the group of the parent
    for level, name, self_us in reversed(entries):
        del owners[level:]
        group = next((g for g in IMPORT_GROUPS if name == g or name.startswith(g + ".")),
                     owners[-1] if owners else None)
        owners.append(group)
        if group is not None:
            totals[group] += self_us
    return {g: us / 1e6 for g, us in totals.items()}


# -- the closed loop ---------------------------------------------------------

# Calibration.  This host's speed drifts by up to 50% over tens of seconds (a
# shared machine), in CPU time as much as in wall time, so raw medians of
# runs made a minute apart disagree by more than any useful bound.  Every
# timed operation is therefore bracketed by a fixed slice of similar work,
# and its time is scaled by (reference slice time) / (the slice's time
# around it): seconds at the speed the host has when the slice takes its
# reference time.  In-process operations use a slice of the kinds of work
# rphardy does (scalar complex math in Python calls, numpy exp, math.fsum, a
# small Hermitian eigensolve);
# child processes (CLI calls, set-up probes) use a bare interpreter start,
# because process start and import do not follow the in-process slice.  The
# raw wall times are reported next to the scaled ones in the detail.
IN_PROCESS_REF_S = 0.02
PROCESS_REF_S = 0.06


def in_process_slice() -> float:
    import cmath
    import math

    import numpy as np
    t0 = time.perf_counter()
    acc = 0j
    for k in range(6000):
        acc += 1.0 / cmath.sinh(complex(1e-4 * k + 0.1, 0.3)) + math.exp(-1e-4 * k)
    lam = np.arange(16000.0)
    for _ in range(10):
        acc += math.fsum(np.exp(-1e-4 * lam))
    x = 0.05 * np.arange(200.0)
    d = np.subtract.outer(x, x)
    for _ in range(2):
        acc += np.linalg.eigvalsh(np.exp(-np.abs(d)) + 1j * np.sin(d) * 1e-3)[0]
    return time.perf_counter() - t0


def process_slice() -> float:
    """Wall seconds of a bare, isolated ``python -I -c pass`` child (also
    import.interp_s); isolated, so nothing in the checkout can change it."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", "pass"], cwd=ROOT, check=True,
                   timeout=CHILD_TIMEOUT)
    return time.perf_counter() - t0


class Tally:
    """Times of the operations of one loop, the mean calibration slice time
    around each, and what their checks found."""

    def __init__(self, in_process: bool = True):
        self.slice, self.ref = ((in_process_slice, IN_PROCESS_REF_S) if in_process
                                else (process_slice, PROCESS_REF_S))
        self.times: list[float] = []
        self.calibration: list[float] = []
        self._last_slice = None
        self.outputs: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted, failed, problems):
        self.attempted += attempted
        self.failed += failed
        self.problems += problems

    def timed(self, op):
        """Run op bracketed by calibration slices (the slice after one
        operation is the slice before the next) and return its result."""
        before = self._last_slice if self._last_slice is not None else self.slice()
        t0 = time.perf_counter()
        try:
            return op()
        finally:
            self.times.append(time.perf_counter() - t0)
            self._last_slice = self.slice()
            self.calibration.append(0.5 * (before + self._last_slice))

    def scaled(self) -> list[float]:
        return [t * self.ref / c for t, c in zip(self.times, self.calibration)]


def run_one(wl, tally: Tally, keep_output=False):
    try:
        out = tally.timed(wl.run_op)
    except Exception as exc:    # a failed operation is counted, not fatal
        tally.add(1, 1, ["%s raised %s: %s" % (wl.name, type(exc).__name__, exc)])
        return
    tally.add(*wl.check(out))
    if keep_output:
        tally.outputs.append(out)


def measure(wl, seconds: float, keep_output=False) -> Tally:
    """Closed loop: operations back to back until ``seconds`` have passed
    (at least one); a workload with ``nominal_op_s`` instead runs
    ``seconds / nominal_op_s`` operations (at least one), however long they
    take."""
    tally = Tally(wl.in_process)
    nominal = getattr(wl, "nominal_op_s", None)
    if nominal is not None:
        for _ in range(max(1, round(seconds / nominal))):
            run_one(wl, tally, keep_output)
        return tally
    end = time.perf_counter() + seconds
    while True:
        run_one(wl, tally, keep_output)
        if time.perf_counter() >= end:
            return tally


def probe_setups(name: str, seed: int, importtime: bool) -> Tally:
    """SETUP_PROBES set-ups in fresh processes; their stderr lands in
    ``outputs``."""
    probes = Tally(in_process=False)
    for _ in range(SETUP_PROBES):
        probes.outputs.append(probes.timed(lambda: probe_setup(name, seed, importtime)))
    return probes


def tail(times: list[float]):
    """The highest order statistic with at least ten samples above it (the
    minimum when there are fewer than eleven), and its percentile."""
    s = sorted(times)
    k = max(0, len(s) - 11)
    return s[k], (100.0 * k / (len(s) - 1) if len(s) > 1 else 0.0)


# -- environment -------------------------------------------------------------

def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import platform

    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": blas_threads(), "blas_threads_requested": int(BLAS_THREADS),
            "nproc": len(os.sched_getaffinity(0))}


def input_sizes(name: str) -> dict:
    import inputs
    import workloads
    if name == "verify-all":
        return {"suite": "all", "rng_seed": "seed + i for operation i",
                "suites_per_second": 1.0 / workloads.VerifyAll.nominal_op_s}
    if name == "cli-oneshot":
        return {"calls_per_cycle": len(inputs.CLI_KINDS) * inputs.CLI_ROUNDS,
                "kinds": ["%s" % " ".join(k) for k in inputs.CLI_KINDS],
                "series_terms": inputs.CLI_SERIES_TERMS, "atoms": inputs.CLI_ATOMS}
    if name == "array-eval":
        return {"gram_points": inputs.GRAM_POINTS, "kms_grid_nodes": 2 * inputs.GRID_NODES - 1,
                "theta_pairs": inputs.THETA_PAIRS, "trapezoid_nodes": inputs.TRAPEZOID_NODES,
                "series_terms": inputs.SERIES_TERMS,
                "membership_points": inputs.MEMBERSHIP_POINTS,
                "psi_gram": inputs.PSI_TIMES, "psi_space_nodes": 2 * inputs.PSI_GRID_NODES - 1}
    return {"atoms": inputs.ATOMS, "grid_nodes": inputs.GRID_NODES}


# -- metrics -----------------------------------------------------------------

def per_layer(name, wl, tracer, plain: Tally, traced: Tally, imports: dict,
              interp_s: float, cli_runs: list) -> dict:
    n = max(1, len(traced.times))
    totals = tracer.layer_totals()
    counts = tracer.counts
    values = {"import.interp_s": interp_s,
              "cli.run_s": statistics.median(cli_runs) if cli_runs else 0.0,
              "trace.overhead_frac": statistics.median(traced.scaled())
              / statistics.median(plain.scaled()) - 1.0,
              "periodize.series.tightness": tracer.median_tightness()}
    for group in IMPORT_GROUPS:
        values["import.%s_s" % group] = imports[group]
    for layer, t in totals.items():
        if layer.startswith("verify."):
            values[layer + "_s"] = t["total_s"] / n
        else:
            values[layer + ".calls"] = t["calls"] / n
            values[layer + ".self_s"] = t["self_s"] / n
    for key, v in counts.items():
        values[key] = v / n
    acc = wl.accuracy_block() if name == "verify-all" else {}
    values["slack.worst"] = wl.worst_slack() if name == "verify-all" else 0.0
    for cid in SLACK_IDS:
        values["slack." + cid] = (acc[cid]["slack"] or 0.0) if cid in acc else 0.0
    return {m: {"value": float(values.get(m, 0.0)), "unit": u} for m, u in PER_LAYER}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "rphardy" / "__init__.py").is_file():
        print("no rphardy sources at %s: run from a source checkout" % SRC, file=sys.stderr)
        return 2
    wl = load_workload(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        sys.stderr.flush()
        os._exit(0)
    if args.workload == "cli-oneshot":
        check_child_origin()

    probes = probe_setups(args.workload, args.seed, importtime=bool(args.trace))
    warm = Tally(wl.in_process)
    run_one(wl, warm)           # lazy imports and first-call costs, untimed

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "loop": "closed, 1 client",
              "inputs": input_sizes(args.workload), "env": environment()}
    if args.trace:
        from tracing import Tracer
        plain = measure(wl, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        cli = args.workload == "cli-oneshot"
        if cli:
            wl.importtime = True
        try:
            traced = measure(wl, args.seconds / 2, keep_output=cli)
        finally:
            tracer.uninstall()
        interp_s = statistics.median(probes.calibration)
        cli_runs = []
        if cli:
            # import shares and the CLI's own run time, per traced child
            breakdowns = []
            for dt, (_, _, _, proc) in zip(traced.times, traced.outputs):
                b = import_breakdown(proc.stderr)
                breakdowns.append(b)
                cli_runs.append(dt - interp_s - sum(b.values()))
        else:
            breakdowns = [import_breakdown(err) for err in probes.outputs]
        imports = {g: statistics.median(b[g] for b in breakdowns) for g in IMPORT_GROUPS}
        metrics = per_layer(args.workload, wl, tracer, plain, traced, imports,
                            interp_s, cli_runs)
        runs = [warm, plain, traced]
        detail["traced_ops"] = len(traced.times)
        detail["spans"] = len(tracer.span_layer)
    else:
        run = measure(wl, args.seconds)
        runs = [warm, run]
        p50 = statistics.median(run.scaled())
        tail_s, tail_pct = tail(run.scaled())
        setup_s = statistics.median(probes.scaled())
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
                   "op_s_p50": {"value": p50, "unit": "s"},
                   "op_s_tail": {"value": tail_s, "unit": "s"}}
        op = OP_NAMES[args.workload]
        attempted = sum(r.attempted for r in runs)
        e2e = {"setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"],
               op + "_p50": metrics["op_s_p50"],
               op + "_tail": dict(metrics["op_s_tail"], percentile=tail_pct, n=len(run.times)),
               "fail_frac": {"value": sum(r.failed for r in runs) / attempted,
                             "unit": "1", "attempted": attempted},
               "raw_wall_s": {"setup_p50": statistics.median(probes.times),
                              "op_p50": statistics.median(run.times),
                              "op_samples": run.times},
               "calibration_s": {"op_reference": run.ref,
                                 "op_slice_p50": statistics.median(run.calibration),
                                 "setup_reference": probes.ref,
                                 "setup_slice_p50": statistics.median(probes.calibration)}}
        if args.workload == "verify-all":
            e2e["verify_worst_slack"] = {"value": wl.worst_slack(), "unit": "ratio"}
        detail["e2e"] = e2e
    if args.workload == "verify-all":
        detail["rng_seeds"] = wl.rng_seeds
        detail["accuracy"] = wl.accuracy_block()
    problems = [q for r in runs for q in r.problems]
    detail["problems"] = problems[:50]
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not problems,
                      "attempted": sum(r.attempted for r in runs),
                      "failed": sum(r.failed for r in runs),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
