"""Package-level properties."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_import_does_not_load_scipy():
    assert run_python("import sys, elastinc; print('scipy' in sys.modules)") == "False"


def test_reference_solve_does_not_load_scipy():
    # the README config, solved by the Nystrom reference at q = 64
    code = (
        "import sys\n"
        "from elastinc import ConformalMap, LoadingSpec, MaterialPair, solve_oracle\n"
        "sol = solve_oracle(ConformalMap(1.0, [0.5, 0.3]),\n"
        "                   MaterialPair(2.0, 1.0, lam_int=4.0, mu_int=3.0),\n"
        "                   LoadingSpec(A=[0.0], B=[0.0, 1.0]), 64)\n"
        "print(sol.condition_estimate > 1.0, 'scipy' in sys.modules)"
    )
    assert run_python(code) == "True False"
