"""What a fresh interpreter pays for on `import demonscatter`.

Each test runs its script in a new `sys.executable` with `PYTHONPATH=src`,
so no module loaded by the test session can hide an import.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_fresh(script, cwd, **env):
    """Run `script` in a new interpreter; return the JSON on its last line."""
    environ = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    environ.update(env, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=environ,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


IMPORT_GUARD = """
import json, sys
import demonscatter, demonscatter.cli
loaded = {"import": "scipy.optimize" in sys.modules}
rc = demonscatter.cli.main(["scatter", "--b", "50", "--c", "40", "--x0", "0.1",
                            "--delta", "20", "--n", "201", "--v", "4"])
loaded["scatter"] = "scipy.optimize" in sys.modules
result = demonscatter.optimize(demonscatter.DeviceTarget.named("half-demon"),
                               budget=100, restarts=1,
                               grid=demonscatter.make_grid(-1.5, 1.5, 401))
loaded["optimize"] = "scipy.optimize" in sys.modules
print(json.dumps({"rc": rc, "loaded": loaded, "evaluations": result.evaluations}))
"""


def test_scipy_optimize_loads_on_the_first_design_only(tmp_path):
    out = run_fresh(IMPORT_GUARD, tmp_path)
    assert out["rc"] == 0
    assert out["loaded"] == {"import": False, "scatter": False, "optimize": True}
    assert 0 < out["evaluations"] <= 100


THREAD_CAP = """
import json, os, sys

seen = {}


class NumpySpy:
    # records the BLAS variables as numpy is first imported
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update((var, os.environ.get(var)) for var in %r)


assert "numpy" not in sys.modules
sys.meta_path.insert(0, NumpySpy())
import demonscatter.cli
print(json.dumps(seen))
""" % (BLAS_VARS,)


def test_import_sets_no_blas_variable(tmp_path):
    """The package keeps no environment option: the BLAS thread caps are the
    vendors' own variables, and a leftover DEMONSCATTER_THREADS sets none."""
    seen = run_fresh(THREAD_CAP, tmp_path, DEMONSCATTER_THREADS="1")
    assert seen == dict.fromkeys(BLAS_VARS)


PUBLIC_NAMES = """
import json, types
import demonscatter
print(json.dumps(sorted(
    name for name, value in vars(demonscatter).items()
    if not isinstance(value, types.ModuleType)
    and (not name.startswith("_") or name == "__version__"))))
"""


def package_users():
    """Every `ds.<name>` of the benchmark's workloads and every name that the
    README's quick start imports from the package."""
    workloads = ast.parse((ROOT / "benchmarks" / "workloads.py").read_text())
    names = {node.attr for node in ast.walk(workloads) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "ds"}
    readme = (ROOT / "README.md").read_text()
    quick_start = readme.split("## Quick start", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    names.update(alias.name for node in ast.walk(ast.parse(quick_start))
                 if isinstance(node, ast.ImportFrom) and node.module == "demonscatter"
                 for alias in node.names)
    return names


def test_package_exports_exactly_the_names_its_users_import(tmp_path):
    exported = set(run_fresh(PUBLIC_NAMES, tmp_path))
    used = package_users()
    assert sorted(used - exported) == []
    assert exported == used | {"__version__"}


def referenced(tree, strings=False):
    """Every identifier that `tree` reads as a name or an attribute, and with
    `strings`, every string constant."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_public_src_name_has_a_program_user():
    """A public module-level function or class of the package, or a public
    method or property of a public class, is read by the package outside its
    own definition, by the benchmark (code, or a string that is the bare
    name, as in its TRACED table), or by the README quick start; a name only
    the tests read belongs with them (tests/oracles.py)."""
    defined, used = [], []  # used: (module-level statement, part of it, names the part reads)
    for path in sorted((SRC / "demonscatter").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            parts = [stmt]
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    and not stmt.name.startswith("_"):
                defined.append((f"{path.stem}.{stmt.name}", stmt))
                if isinstance(stmt, ast.ClassDef):
                    parts = [*stmt.bases, *stmt.keywords, *stmt.decorator_list, *stmt.body]
                    defined += [(f"{path.stem}.{stmt.name}.{member.name}", member)
                                for member in stmt.body if isinstance(member, ast.FunctionDef)
                                and not member.name.startswith("_")]
            used += [(stmt, part, referenced(part)) for part in parts]
    program = set()
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        program |= referenced(ast.parse(path.read_text()), strings=True)
    readme = (ROOT / "README.md").read_text()
    quick_start = readme.split("## Quick start", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    program |= referenced(ast.parse(quick_start))
    # a class's own methods and a method's own body are not its users
    unused = [qualified for qualified, own in defined if own.name not in program
              and not any(own.name in names for stmt, part, names in used
                          if own is not stmt and own is not part)]
    assert unused == []
