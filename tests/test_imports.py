"""scipy is a lazy dependency: importing the package and every closed-form
CLI call leave it unloaded; only a quadrature loads it.

Each case runs in a fresh child interpreter, because the test session itself
has long since imported scipy."""

import ast
import json
import math
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# prints the sorted scipy modules loaded so far as the last line of stdout
_REPORT = ("import sys; print(); print(sorted(m for m in sys.modules "
           "if m.split('.')[0] == 'scipy'))")


def _child(code: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code + "\n" + _REPORT],
                          env=env, capture_output=True, text=True, timeout=60)
    lines = proc.stdout.splitlines()
    return proc, (ast.literal_eval(lines[-1]) if lines else None)


def test_importing_the_package_and_cli_loads_no_scipy():
    proc, loaded = _child("import rphardy, rphardy.cli")
    assert proc.returncode == 0, proc.stderr
    assert loaded == []


# one call of each kind the one-shot CLI benchmark makes
CLOSED_FORM_CALLS = [
    ["kernel", "--domain", "strip", "--kind", "poisson", "--beta", "1.5",
     "--z=0.3+0.5i", "--x=0.2", "--component", "upper", "--json"],
    ["series", "--kind", "bergman", "--beta", "2.0", "--z=0.4+0.7i",
     "--w=-0.2+1.1i", "--terms", "2000", "--json"],
    ["measure", "--op", "kms", "--atoms", "0.8:0.69,-0.8:0.31", "--beta", "1.0",
     "--json"],
    ["rp", "--characterize", "--beta", "1.0", "--z=0.3+0.4i", "--json"],
    ["modular", "--atoms", "0.5:1.0,1.5:0.3", "--beta", "1.2", "--t=0.7",
     "--json"],
]


@pytest.mark.parametrize("argv", CLOSED_FORM_CALLS,
                         ids=[a[0] for a in CLOSED_FORM_CALLS])
def test_closed_form_cli_calls_load_no_scipy(argv):
    proc, loaded = _child("import sys\nfrom rphardy.cli import main\n"
                          "code = main(%r)\nsys.stdout.flush()\n"
                          "assert code == 0, code" % (argv,))
    assert proc.returncode == 0, proc.stderr
    json.loads(proc.stdout.splitlines()[0])      # the call printed its result
    assert loaded == []


def test_a_quadrature_still_loads_scipy_and_integrates():
    proc, loaded = _child(
        "import math\nfrom rphardy import numerics\n"
        "val, err = numerics.quad_real(lambda x: math.exp(-x * x), "
        "-math.inf, math.inf)\nprint(repr(val), repr(err))")
    assert proc.returncode == 0, proc.stderr
    val, err = map(float, proc.stdout.splitlines()[0].split())
    assert abs(val - math.sqrt(math.pi)) < 1e-10      # the default tol
    assert err < 1e-10
    assert "scipy.integrate" in loaded
