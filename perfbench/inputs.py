"""Seeded input generator shared by every workload.

Everything here is plain numbers and strings made from ``--seed``; the
library only ever sees these values, never the seed itself.  The same seed
gives the same inputs on every commit.
"""

from __future__ import annotations

import math

import numpy as np

# array workloads
GRAM_POINTS = 200          # points per kernel / rp Gram
SERIES_TERMS = 100_000     # N for the two image-charge series
TRAPEZOID_NODES = 4096
MEMBERSHIP_POINTS = 200
THETA_PAIRS = 50
PSI_TIMES = 16             # psi-Gram is PSI_TIMES x PSI_TIMES
ATOMS = 4000
GRID_NODES = 4001          # nodes of the gridded mu on [0, inf)
GRID_STEP = 0.01
PSI_GRID_NODES = 2001      # mu nodes behind the 4001-node modular space
STRIP_BETA = 2.0

# cli-oneshot
CLI_SERIES_TERMS = 1000
CLI_ATOMS = 6
CLI_ROUNDS = 4             # draws of every call kind in one shuffled cycle


def _strip_points(rng, beta, n, margin=0.05):
    x = rng.uniform(-2.0 * beta, 2.0 * beta, n)
    y = beta * rng.uniform(margin, 1.0 - margin, n)
    return [complex(a, b) for a, b in zip(x, y)]


def _disc_points(rng, n, rmax=0.9):
    r = rmax * np.sqrt(rng.uniform(0.0, 1.0, n))
    th = rng.uniform(0.0, 2.0 * math.pi, n)
    return [complex(v) for v in r * np.exp(1j * th)]


def _half_plane_points(rng, n):
    return [complex(a, b) for a, b in
            zip(rng.uniform(-3.0, 3.0, n), rng.uniform(0.05, 3.0, n))]


def _grid_density(rng, n_nodes, step):
    """A smooth density on [0, (n-1) step]: a sum of three Gaussian bumps
    centred in [0, 4] with widths in [2, 4].  Every transform the array
    workloads take has decayed far inside the grid, while the density stays
    above 1e-200 at the grid's end, so its discretization keeps strictly
    positive weights."""
    lam = step * np.arange(n_nodes)
    dens = np.zeros(n_nodes)
    for c, s, a in zip(rng.uniform(0.0, 4.0, 3), rng.uniform(2.0, 4.0, 3),
                       rng.uniform(0.2, 1.0, 3)):
        dens += a * np.exp(-((lam - c) / s) ** 2)
    return dens


def _jittered_atoms(rng, n, hi):
    """n positive atoms on a jittered grid in (0, hi): neighbours stay at
    least 0.2 hi / n apart, far above every merge and mirror tolerance."""
    cell = hi / n
    locs = cell * (np.arange(n) + 0.5 + rng.uniform(-0.4, 0.4, n))
    weights = rng.uniform(0.2, 2.0, n)
    return [(float(l), float(w)) for l, w in zip(locs, weights)]


def array_inputs(seed: int) -> dict:
    """Inputs for one array round (eval half and build half)."""
    rng = np.random.default_rng([seed, 1])
    beta = float(rng.uniform(0.5, 2.0))
    strip_in = _strip_points(rng, STRIP_BETA, MEMBERSHIP_POINTS // 2)
    strip_out = []
    for _ in range(MEMBERSHIP_POINTS - len(strip_in)):
        off = rng.uniform(0.05, 2.0)
        y = -off if rng.uniform() < 0.5 else STRIP_BETA + off
        strip_out.append(complex(rng.uniform(-3.0, 3.0), y))
    theta = list(zip(
        [complex(a, STRIP_BETA * b) for a, b in
         zip(rng.uniform(-2.0, 2.0, THETA_PAIRS), rng.uniform(0.35, 0.65, THETA_PAIRS))],
        [complex(a, STRIP_BETA * b) for a, b in
         zip(rng.uniform(-2.0, 2.0, THETA_PAIRS), rng.uniform(0.35, 0.65, THETA_PAIRS))]))
    z_series, w_series = _strip_points(rng, STRIP_BETA, 2, margin=0.1)
    return {
        "beta": beta,
        "strip_points": _strip_points(rng, STRIP_BETA, GRAM_POINTS),
        "disc_points": _disc_points(rng, GRAM_POINTS),
        "power_s": 1.5,
        "circle_lam": float(rng.uniform(0.5, 4.0)),
        "circle_samples": [float(v) for v in rng.uniform(0.0, STRIP_BETA, GRAM_POINTS)],
        "line_lam": float(rng.uniform(0.5, 4.0)),
        "line_samples": [float(v) for v in rng.uniform(0.0, 8.0, GRAM_POINTS)],
        "grid_density": _grid_density(rng, GRID_NODES, GRID_STEP),
        "psi_density": _grid_density(rng, PSI_GRID_NODES, GRID_STEP),
        "psi_times": [float(t) for t in np.sort(rng.uniform(-3.0, 3.0, PSI_TIMES))],
        "psi_seed": int(rng.integers(2 ** 31)),
        "theta_pairs": theta,
        "trapezoid_z": _disc_points(rng, 1)[0],
        "series_zw": (z_series, w_series),
        "membership_points": strip_in + strip_out,
        "atoms": _jittered_atoms(rng, ATOMS, 15.0),
    }


def _fmt(z: complex) -> str:
    """Exact text for the CLI's complex parser (``repr`` round-trips)."""
    z = complex(z)
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return "%r%s%ri" % (z.real, sign, abs(z.imag))


def _atoms(rng, n):
    locs = np.sort(rng.uniform(0.05, 4.0, n))
    return [(float(l), float(w)) for l, w in zip(locs, rng.uniform(0.2, 2.0, n))]


def _atoms_arg(pairs):
    return ",".join("%r:%r" % p for p in pairs)


CLI_KINDS = [("kernel", "szego", "disc"), ("kernel", "szego", "half-plane"),
             ("kernel", "szego", "strip"), ("kernel", "poisson", "disc"),
             ("kernel", "poisson", "half-plane"), ("kernel", "poisson", "strip"),
             ("kernel", "bergman", "strip"), ("kernel", "power", "disc"),
             ("kernel", "power", "half-plane"), ("kernel", "power", "strip"),
             ("series",), ("measure",), ("rp",), ("modular",)]


def _cli_call(rng, kind):
    """One CLI call as (argument list, the parameter values it encodes)."""
    beta = float(rng.uniform(0.5, 3.0))
    p = {"cmd": kind[0], "beta": beta}
    if kind[0] == "kernel":
        _, p["kind"], p["domain"] = kind
        if p["domain"] == "disc":
            p["z"], p["w"] = _disc_points(rng, 2)
        elif p["domain"] == "half-plane":
            p["z"], p["w"] = _half_plane_points(rng, 2)
        else:
            p["z"], p["w"] = _strip_points(rng, beta, 2)
        args = ["kernel", "--domain", p["domain"], "--kind", p["kind"],
                "--beta", repr(beta), "--z=" + _fmt(p["z"]), "--json"]
        if p["kind"] == "poisson":
            p["x"] = float(rng.uniform(0.0, 2.0 * math.pi) if p["domain"] == "disc"
                           else rng.uniform(-4.0, 4.0))
            p["component"] = None
            args.append("--x=%r" % p["x"])
            if p["domain"] == "strip":
                p["component"] = ("lower", "upper")[int(rng.integers(2))]
                args += ["--component", p["component"]]
        else:
            args.append("--w=" + _fmt(p["w"]))
        if p["kind"] == "power":
            p["s"] = float(rng.uniform(0.5, 2.5))
            args.append("--s=%r" % p["s"])
        return args, p
    if kind[0] == "series":
        p["beta"] = beta = float(rng.uniform(1.5, 3.0))
        p["kind"] = ("szego", "bergman")[int(rng.integers(2))]
        p["z"], p["w"] = _strip_points(rng, beta, 2, margin=0.1)
        return ["series", "--kind", p["kind"], "--beta", repr(beta),
                "--z=" + _fmt(p["z"]), "--w=" + _fmt(p["w"]),
                "--terms", str(CLI_SERIES_TERMS), "--json"], p
    if kind[0] == "measure":
        # a beta-reflected measure (the Gamma image of positive atoms, written
        # out here), so its KMS defect is a rounding-level number
        pairs = []
        for lam, w in _atoms(rng, CLI_ATOMS):
            pairs += [(lam, w / (1.0 + math.exp(-beta * lam))),
                      (-lam, w / (1.0 + math.exp(beta * lam)))]
        p["atoms"] = pairs
        return ["measure", "--op", "kms", "--atoms", _atoms_arg(pairs),
                "--beta", repr(beta), "--json"], p
    if kind[0] == "rp":
        p["z"] = _strip_points(rng, beta, 1)[0]
        return ["rp", "--characterize", "--beta", repr(beta),
                "--z=" + _fmt(p["z"]), "--json"], p
    p["atoms"] = _atoms(rng, CLI_ATOMS)
    p["t"] = float(rng.uniform(-3.0, 3.0))
    return ["modular", "--atoms", _atoms_arg(p["atoms"]), "--beta", repr(beta),
            "--t=%r" % p["t"], "--json"], p


def cli_calls(seed: int) -> list:
    """A shuffled mix of one-shot CLI calls, each an (argument list without
    the ``python -m rphardy.cli`` prefix, parameters) pair: CLI_ROUNDS draws
    of every kind in CLI_KINDS, each expected to exit 0."""
    rng = np.random.default_rng([seed, 2])
    calls = [_cli_call(rng, kind) for _ in range(CLI_ROUNDS) for kind in CLI_KINDS]
    return [calls[j] for j in rng.permutation(len(calls))]
