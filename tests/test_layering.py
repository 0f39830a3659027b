"""The package's layering, read from its source: every import sits at module
level, and only the entry points import the command-line front end, so no
library module depends on it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "projlab"
MODULES = sorted(SRC.glob("*.py"))
ENTRY_POINTS = ("__init__", "__main__")


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


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_imports_sit_at_module_level(path):
    inner = [f"{path.name}:{node.lineno}"
             for fn in ast.walk(_tree(path))
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inner == []


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_only_the_entry_points_import_the_cli(path):
    names = [name for node in ast.walk(_tree(path))
             if isinstance(node, (ast.Import, ast.ImportFrom)) for name in _imported(node)]
    imports_cli = any(name == "cli" or name.startswith("cli.") for name in names)
    assert imports_cli == (path.stem in ENTRY_POINTS)
