"""Every parameter with a default in `src/projlab/*.py`, by module and
function.  A new knob, or one that goes, is a deliberate edit of this list."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "projlab"

KNOBS = {
    "affine.affine_hull": ("seed",),
    "affine.verify_affine_identities": ("samples", "seed"),
    "analysis.margin_report": ("samples", "empty_margin"),
    "analysis.check_quasi_firm_fejer": ("samples", "seed"),
    "analysis.check_quasi_coercive": ("samples", "seed"),
    "analysis.check_injectable": ("samples", "seed"),
    "analysis.estimate_eps_regularity": ("samples", "seed"),
    "analysis.estimate_linear_regularity": ("samples", "seed"),
    "analysis.estimate_theta_bar": ("samples", "seed"),
    "analysis.check_strong_regularity": ("samples", "seed"),
    "cli.verify_suite": ("workers", "out_root", "seed"),
    "cli.main": ("argv",),
    "errors.check_range": ("lo_open", "hi_open"),
    "errors.check_keys": ("required", "modifiers"),
    "errors.table_entry": ("tag",),
    "intersection.exact": ("members",),
    "rates._certificate": ("start_prefactor", "stated_block"),
    "runner.run": ("max_cycles", "tol", "seed"),
    "runner.fit_rlinear": ("tail_fraction", "burn_in"),
    "runner.detect_cycle": ("tol",),
    "runner.compare_certificate": ("slack",),
    "scenario._fields_dict": ("drop",),
    "scenario._reference": ("cls",),
    "scenario.execute_scenario": ("out_dir", "seed_override"),
    "sets.as_vector": ("dim",),
    "sets.svd_rank": ("full_matrices",),
    "sets._dedupe": ("tol",),
    "sets.ClosedSet.contains": ("tol",),
    "sets.is_obtuse_cone": ("samples", "seed"),
}


def _defaulted(args):
    """Names of the positional and keyword-only parameters with a default."""
    positional = args.posonlyargs + args.args
    named = positional[len(positional) - len(args.defaults):]
    named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return tuple(a.arg for a in named)


def _walk(node, prefix):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = f"{prefix}.{getattr(child, 'name', '<lambda>')}"
            if _defaulted(child.args):
                yield name, _defaulted(child.args)
            yield from _walk(child, name)
        elif isinstance(child, ast.ClassDef):
            yield from _walk(child, f"{prefix}.{child.name}")
        else:
            yield from _walk(child, prefix)


def knob_inventory():
    """{"module.function": defaulted parameter names}, in source order."""
    inventory = {}
    for path in sorted(SRC.glob("*.py")):
        inventory.update(_walk(ast.parse(path.read_text(encoding="utf-8")), path.stem))
    return inventory


def test_knob_inventory_is_pinned():
    """A change that adds or removes a defaulted parameter says so and
    regenerates the list from the repository root with

        PYTHONPATH=src:tests python -c "import pprint, test_knobs as t; pprint.pprint(t.knob_inventory(), width=100, sort_dicts=False)"
    """
    assert knob_inventory() == KNOBS
    assert sum(map(len, KNOBS.values())) == 48
