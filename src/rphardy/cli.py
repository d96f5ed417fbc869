"""Command-line interface.

Subcommands
-----------
kernel   evaluate a kernel (szego / poisson / bergman / power) at a point pair
verify   run the identity-check suites and report defects vs. tolerances
rp       reflection-positive families: evaluate, Gram certificates, strip test
measure  build / transform spectral measures and their Fourier data
series   partial-fraction series values with tail bounds
modular  modular pair diagnostics for an atomic spectral measure

Each subcommand imports only the modules it uses, so a ``kernel`` call loads
neither the measures nor the verification suites.

Complex arguments are written with a trailing ``i``, e.g. ``0.5+0.3i`` (a bare
``1.2`` is fine for reals).  Exit codes: 0 success, 1 a verify suite reported
a failing identity, 2 malformed arguments or a file that cannot be opened, 3
malformed input values or file contents, or a mathematical domain error (pole
hit, divergent transform, sample outside its cone, ...).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys

from .config import GROUPS, SUITE_NAMES, Defaults
from .errors import ParameterOutOfRange, RPHardyError

_DOMAINS = ("disc", "half-plane", "strip")
_SERIES_TERMS = 10_000


def parse_complex(text: str) -> complex:
    """Parse '0.4-1.2i' (or plain '0.7') into a complex number."""
    cleaned = text.strip().replace(" ", "").replace("I", "i")
    try:
        return complex(cleaned.replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError("cannot parse complex number %r" % text)


def fmt_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return "%.12g" % z.real
    return "%.12g%+.12gi" % (z.real, z.imag)


def _domain_of(name: str, beta: float):
    from .domains import DISC, HALF_PLANE, Strip
    if name == "disc":
        return DISC
    if name == "half-plane":
        return HALF_PLANE
    return Strip(beta)


def _parse_atoms(text: str):
    """Parse '0.7:1.0,1.3:0.2' into an atomic measure; an entry that is not
    two numbers joined by ':' raises ParameterOutOfRange."""
    from .measures import atomic
    pairs = []
    for chunk in text.split(","):
        loc, _, weight = chunk.partition(":")
        try:
            pairs.append((float(loc), float(weight)))
        except ValueError:
            raise ParameterOutOfRange("--atoms needs loc:weight pairs separated by "
                                      "commas, got %r" % text)
    return atomic(pairs)


def _parse_samples(text: str) -> list:
    """Parse '0.1,0.5,2' into finite floats; an empty list or entry, or a
    non-number, raises ParameterOutOfRange."""
    try:
        samples = [float(chunk) for chunk in text.split(",")]
    except ValueError:
        raise ParameterOutOfRange("--samples needs comma-separated numbers, "
                                  "got %r" % text)
    if not all(map(math.isfinite, samples)):
        raise ParameterOutOfRange("--samples must be finite, got %r" % text)
    return samples


def _load_measure(args):
    if getattr(args, "measure_json", None):
        from .measures import MeasureOnR
        with open(args.measure_json) as fh:
            return MeasureOnR.from_json(fh.read())
    if getattr(args, "atoms", None):
        return _parse_atoms(args.atoms)
    raise argparse.ArgumentTypeError("provide --atoms or --measure-json")


def _print_gram(rep, as_json: bool):
    if as_json:
        print(json.dumps({
            "size": rep.size, "min_eigenvalue": rep.min_eigenvalue,
            "max_eigenvalue": rep.max_eigenvalue,
            "hermiticity_defect": rep.hermiticity_defect,
            "tolerance": rep.tolerance, "psd": rep.verdict}))
    else:
        print("gram %dx%d  min_eig=%.6g  max_eig=%.6g  herm_defect=%.3g  %s"
              % (rep.size, rep.size, rep.min_eigenvalue, rep.max_eigenvalue,
                 rep.hermiticity_defect, "PSD" if rep.verdict else "NOT PSD"))


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------

def cmd_kernel(args) -> int:
    from . import kernels
    domain = _domain_of(args.domain, args.beta)
    if args.kind == "poisson":
        if args.x is None:
            raise argparse.ArgumentTypeError("poisson needs the boundary point --x")
        val = kernels.poisson(domain, args.z, args.x, args.component)
    else:
        if args.w is None:
            raise argparse.ArgumentTypeError("kernel evaluation needs --w")
        if args.kind == "szego":
            val = kernels.szego(domain, args.z, args.w)
        elif args.kind == "bergman":
            if args.domain != "strip":
                raise argparse.ArgumentTypeError("bergman kernel lives on the strip")
            val = kernels.bergman_strip(args.beta, args.z, args.w)
        else:
            try:
                val = kernels.power_kernel(domain, args.s, args.z, args.w)
            except ParameterOutOfRange as exc:      # the message names s, not the kernel
                raise ParameterOutOfRange("power kernel: %s" % exc) from None
    if args.json:
        print(json.dumps({"kind": args.kind, "domain": args.domain,
                          "value": [val.real, complex(val).imag]}))
    else:
        print(fmt_complex(val))
    return 0


def cmd_verify(args) -> int:
    from . import verify
    cfg = Defaults(beta=args.beta, rng_seed=args.seed).validate()
    # the report is opened before the suite runs, so a path that cannot be
    # written fails at once; it is opened to append and emptied only once the
    # suite has run, so a suite that fails leaves an existing report as it was
    with open(args.report, "a") if args.report else contextlib.nullcontext() as fh:
        report = verify.run_suite(args.suite, cfg, inject_defect=args.inject_defect)
        if fh is not None:
            fh.truncate(0)
            json.dump(report.to_dict(), fh, indent=2)
    if args.json:
        print(json.dumps(report.to_dict()))
    else:
        for r in report.results:
            print("%s  %-45s defect=%.3e  tol=%.1e  %s"
                  % ("PASS" if r.passed else "FAIL", r.id, r.defect, r.tol,
                     r.anchor))
        print("suite %s: %d passed, %d failed (%.1fs)"
              % (report.suite, report.n_passed, report.n_failed, report.seconds))
    return 0 if report.ok else 1


def cmd_rp(args) -> int:
    from . import rpfunc
    if args.characterize:
        res = rpfunc.strip_membership(args.beta, args.z)
        out = {"verdict": res.verdict, "witness_t": res.witness_t,
               "max_log_abs_c": res.max_log_abs}
        print(json.dumps(out) if args.json else
              "verdict=%s witness_t=%s max log|c_t|=%.6g"
              % (res.verdict, res.witness_t, res.max_log_abs))
        return 0
    if args.gram:
        samples = _parse_samples(args.samples)
        if args.gram == "pd":
            rep = rpfunc.pd_gram(args.group, args.lam, samples, beta=args.beta)
        elif args.gram == "rp":
            rep = rpfunc.rp_gram(args.group, args.lam, samples, beta=args.beta)
        else:
            pairs = [(t, 1 if t >= 0 else -1) for t in samples]
            try:
                rep = rpfunc.param_rp_check(args.lam, pairs)
            except ParameterOutOfRange as exc:  # the samples are checked above
                raise ParameterOutOfRange("--lam: %s" % exc) from exc
        _print_gram(rep, args.json)
        return 0
    if args.at is None:
        raise argparse.ArgumentTypeError("provide --at, --gram or --characterize")
    if args.group == "integers":
        val = rpfunc.phi_int(args.lam, args.at)
    elif args.group == "line":
        val = rpfunc.phi_line(args.lam, args.at)
    else:
        val = rpfunc.phi_circle(args.beta, args.lam, args.at)
    print(json.dumps({"value": val}) if args.json else "%.15g" % val)
    return 0


def cmd_measure(args) -> int:
    from . import measures
    mu = _load_measure(args)
    if args.op in ("gamma", "Gamma", "inverse", "kappa"):
        f = {"gamma": measures.gamma_map, "Gamma": measures.Gamma_map,
             "inverse": measures.Gamma_inverse, "kappa": measures.M_kappa}[args.op]
        print(f(mu, args.beta).to_json())
        return 0
    if args.op == "reflect":
        defect = measures.reflection_check(mu, args.beta, factor=args.factor)
        print(json.dumps({"defect": defect}) if args.json else "%.6g" % defect)
        return 0
    if args.op == "kms":
        defect = measures.kms_check(mu, args.beta)
        print(json.dumps({"defect": defect}) if args.json else "%.6g" % defect)
        return 0
    if args.op == "fourier":
        val = measures.fourier(mu, args.at)
        print(json.dumps({"value": [val.real, val.imag]}) if args.json
              else fmt_complex(val))
        return 0
    # laplace
    val = measures.laplace(mu, args.at.real)
    print(json.dumps({"value": val}) if args.json else "%.15g" % val)
    return 0


def cmd_series(args) -> int:
    from . import periodize
    if args.kind in ("szego", "bergman") and args.w is None:
        raise argparse.ArgumentTypeError("%s series needs --w" % args.kind)
    if args.kind == "cosecant":
        ev = periodize.cosecant_series(args.z, args.terms)
    elif args.kind == "sinh":
        ev = periodize.sinh_series(args.beta, args.z, args.terms)
    elif args.kind == "szego":
        ev = periodize.szego_series(args.beta, args.z, args.w, args.terms)
    else:
        ev = periodize.bergman_series(args.beta, args.z, args.w, args.terms)
    payload = {"value": [ev.value.real, complex(ev.value).imag],
               "closed_form": [complex(ev.closed_form).real,
                               complex(ev.closed_form).imag],
               "defect": ev.defect, "tail_bound": ev.tail_bound,
               "terms": ev.n_terms, "sound": ev.sound}
    if args.json:
        print(json.dumps(payload))
    else:
        print("value=%s closed=%s defect=%.3e tail_bound=%.3e %s"
              % (fmt_complex(ev.value), fmt_complex(ev.closed_form), ev.defect,
                 ev.tail_bound, "SOUND" if ev.sound else "UNSOUND"))
    return 0


def cmd_modular(args) -> int:
    import numpy as np

    from . import measures, modular
    mu = _load_measure(args)
    nu = measures.Gamma_map(mu, args.beta)
    md = modular.build_modular(nu, args.beta)
    rng = np.random.default_rng(Defaults().rng_seed)
    v = md.space.random_standard_vector(rng)
    payload = {
        "dim": md.space.dim,
        "jdj_defect": modular.jdj_defect(md, rng),
        "j_involution_defect": modular.j_involution_defect(md, rng),
        "psi_at_t": None,
        "kms_defect": measures.kms_check(modular.coefficient_measure(md, v),
                                         args.beta),
    }
    if args.t is not None:
        psi = modular.modular_coefficient(md, v, args.t)
        payload["psi_at_t"] = [psi.real, psi.imag]
    if args.json:
        print(json.dumps(payload))
    else:
        print("dim=%d  JdJ=%.3e  J^2=%.3e  kms=%.3e"
              % (payload["dim"], payload["jdj_defect"],
                 payload["j_involution_defect"], payload["kms_defect"]))
        if payload["psi_at_t"] is not None:
            print("psi(%g) = %s" % (args.t, fmt_complex(complex(*payload["psi_at_t"]))))
    return 0


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rphardy",
        description="Reflection-positivity numerics on the disc, half-plane "
                    "and strip.")
    sub = p.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kernel", help="evaluate a kernel")
    k.add_argument("--domain", choices=_DOMAINS, required=True)
    k.add_argument("--kind", choices=("szego", "poisson", "bergman", "power"),
                   default="szego")
    k.add_argument("--beta", type=float, default=1.0)
    k.add_argument("--s", type=float, default=1.0, help="power-kernel exponent")
    k.add_argument("--z", type=parse_complex, required=True)
    k.add_argument("--w", type=parse_complex)
    k.add_argument("--x", type=float, help="boundary parameter (poisson)")
    k.add_argument("--component", default=None,
                   help="boundary component for the strip (lower/upper)")
    k.add_argument("--json", action="store_true")
    k.set_defaults(func=cmd_kernel)

    v = sub.add_parser("verify", help="run identity-check suites")
    v.add_argument("--suite", choices=SUITE_NAMES, default="all")
    v.add_argument("--beta", type=float, default=Defaults.beta)
    v.add_argument("--seed", type=int, default=Defaults.rng_seed)
    v.add_argument("--report", help="write the JSON report to this path")
    v.add_argument("--json", action="store_true", help="print JSON to stdout")
    v.add_argument("--inject-defect", action="store_true",
                   help="force one check to fail (reporting self-test)")
    v.set_defaults(func=cmd_verify)

    r = sub.add_parser("rp", help="reflection-positive function families")
    r.add_argument("--group", choices=GROUPS, default="line")
    r.add_argument("--beta", type=float, default=1.0)
    r.add_argument("--lam", type=float, default=1.0)
    r.add_argument("--at", type=float, default=None, help="evaluation point")
    r.add_argument("--gram", choices=("pd", "rp", "param"), default=None)
    r.add_argument("--samples", default="", help="comma-separated samples")
    r.add_argument("--characterize", action="store_true",
                   help="strip membership scan of --z")
    r.add_argument("--z", type=parse_complex, default=0.5 + 0.5j)
    r.add_argument("--json", action="store_true")
    r.set_defaults(func=cmd_rp)

    m = sub.add_parser("measure", help="spectral-measure transforms")
    m.add_argument("--atoms", help="atoms as loc:weight,loc:weight,...")
    m.add_argument("--measure-json", help="path to a measure JSON file")
    m.add_argument("--beta", type=float, default=1.0)
    m.add_argument("--op", choices=("gamma", "Gamma", "inverse", "kappa",
                                    "reflect", "kms", "fourier", "laplace"),
                   required=True)
    m.add_argument("--at", type=parse_complex, default=0j,
                   help="transform argument")
    m.add_argument("--factor", type=float, default=1.0,
                   help="reflection factor c in e^{-c beta lam}")
    m.add_argument("--json", action="store_true")
    m.set_defaults(func=cmd_measure)

    s = sub.add_parser("series", help="partial-fraction series")
    s.add_argument("--kind", choices=("cosecant", "sinh", "szego", "bergman"),
                   required=True)
    s.add_argument("--beta", type=float, default=1.0)
    s.add_argument("--z", type=parse_complex, required=True)
    s.add_argument("--w", type=parse_complex, default=None)
    s.add_argument("--terms", type=int, default=_SERIES_TERMS)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_series)

    d = sub.add_parser("modular", help="modular pair diagnostics")
    d.add_argument("--atoms", help="atoms of mu as loc:weight,...")
    d.add_argument("--measure-json")
    d.add_argument("--beta", type=float, default=1.0)
    d.add_argument("--t", type=float, default=None)
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=cmd_modular)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: building it costs more than
    most in-process calls of :func:`main`."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (argparse.ArgumentTypeError, OSError) as exc:  # OSError: an unopenable file
        parser.error(str(exc))        # exits with status 2
    except RPHardyError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
