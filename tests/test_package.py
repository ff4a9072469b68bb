"""Package-level properties."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import elastinc

SRC = Path(__file__).resolve().parents[1] / "src"
REFERENCE = Path(__file__).resolve().parent / "layer_reference.py"

# names deleted from the package: the monomial Faber substrate and the
# sixteen-block system now live in tests/layer_reference.py as references,
# and the single-point field wrappers and the square Grunsky alias are gone
REMOVED = ("faber_matrix", "faber_inverse", "monomial_derivative_matrix", "poly_eval",
           "loading_pair", "_polyder", "eval_exterior", "eval_interior",
           "eval_traction_potential", "_sample", "grunsky_matrix",
           "_sided_blocks", "exterior_blocks", "interior_blocks", "m_blocks")


def defined_names(path: Path) -> set[str]:
    """Every function, class and assigned name a module defines, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


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


def test_every_public_name_resolves():
    missing = [name for name in elastinc.__all__ if not hasattr(elastinc, name)]
    assert missing == []
    assert len(set(elastinc.__all__)) == len(elastinc.__all__)


def test_package_defines_no_reference_substrate():
    # one Faber substrate in the package: every Faber sum runs the recurrence
    # on point values, and the monomial references stay in the tests
    reference = {node.name for node in ast.parse(REFERENCE.read_text()).body
                 if isinstance(node, ast.FunctionDef)}
    assert {"faber_matrix", "poly_eval", "loading_pair"} <= reference
    modules = sorted(Path(elastinc.__file__).parent.glob("*.py"))
    assert len(modules) >= 8
    for module in modules:
        clash = defined_names(module) & (reference | set(REMOVED))
        assert not clash, f"{module.name} defines {sorted(clash)}"
