"""The package's layering, read from its source: every import but one sits
at module level, and only the entry points import the command-line front end,
so no library module depends on it.

The one exception is `sets._nnls`, which imports scipy's compiled NNLS routine
on first use, or the public `nnls` where scipy has no such routine:
`scipy.optimize` is most of the time `import projlab` takes, and only cone
projections and `check_strong_regularity` need it.  A fresh interpreter
checks that `import projlab` and a scenario that solves no NNLS problem
leave scipy unloaded."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "projlab"
MODULES = sorted(SRC.glob("*.py"))
ENTRY_POINTS = ("__init__", "__main__")
# (module, function, imported name) of every import inside a function body.
DEFERRED_IMPORTS = {("sets.py", "_nnls", "scipy.optimize._nnls._nnls"),
                    ("sets.py", "_nnls", "scipy.optimize.nnls")}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _imported(node):
    """The modules an import statement names, package-relative where they
    are in the package."""
    if isinstance(node, ast.Import):
        return [alias.name.removeprefix("projlab.") for alias in node.names]
    base = node.module or ""
    if node.level == 0 and base.split(".")[0] != "projlab":
        return [base]
    base = base.removeprefix("projlab").lstrip(".")
    return [base] if base else [alias.name for alias in node.names]


def _bound(node):
    """The dotted names an import statement binds, `module.name` for a
    from-import."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = "." * node.level + (node.module or "")
    return [f"{base}.{alias.name}" if node.module else base + alias.name
            for alias in node.names]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_imports_sit_at_module_level(path):
    inner = [(path.name, fn.name, name)
             for fn in ast.walk(_tree(path))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
             for name in _bound(node)]
    assert inner == [entry for entry in sorted(DEFERRED_IMPORTS) if entry[0] == path.name]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_only_the_entry_points_import_the_cli(path):
    names = [name for node in ast.walk(_tree(path))
             if isinstance(node, (ast.Import, ast.ImportFrom)) for name in _imported(node)]
    imports_cli = any(name == "cli" or name.startswith("cli.") for name in names)
    assert imports_cli == (path.stem in ENTRY_POINTS)


_SCIPY_PROBE = """
import json, sys
def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import projlab
seen = [scipy_loaded()]
for name in ("two_lines_angle_30", "degenerate_three_halfspaces"):
    report = projlab.execute_scenario(projlab.load_bundled(name))
    seen.append([report["passed"], scipy_loaded()])
print(json.dumps(seen))
"""


def test_scipy_loads_on_first_use():
    """`import projlab` and a scenario that solves no NNLS problem load no
    scipy module; `degenerate_three_halfspaces`, whose strong-regularity
    checks solve NNLS problems, loads scipy.optimize."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    on_import, (lines_pass, on_lines), (cone_pass, on_cone) = json.loads(done.stdout)
    assert on_import == []
    assert lines_pass and on_lines == []
    assert cone_pass and "scipy.optimize" in on_cone
