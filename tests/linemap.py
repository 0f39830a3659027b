"""Run tier-1 in-process under a line tracer and list the library lines that
no test runs.

From the repository root:

    PYTHONPATH=src:tests python tests/linemap.py [pytest arguments]

The tracer is the standard library's: `sys.settrace` for the main thread and
`threading.settrace` for the threads `verify_suite` starts; it records line
events in `src/projlab` only, and tier-1 takes about twice as long under
it (86 s against 40 s on a 2-vCPU x86-64 host).  A module's executable
lines are those its code objects map an instruction to, less a
function's first line, which runs as its `def` does.
Tests run in a subprocess are not traced.  The script prints, for each
module, its executed and executable line counts and the lines that did not
run, and it exits nonzero when a test fails or a line outside `ALLOWED`
goes unrun.  Pytest does not collect this file, as its name does not start
with "test_".
"""

import ast
import sys
import threading
import types
from pathlib import Path

import pytest

LIBRARY = Path(__file__).resolve().parent.parent / "src" / "projlab"

# The regions tier-1 leaves unrun, as (module, region): a top-level
# function or class by name, "__main__" for the module's
# `if __name__ == "__main__":` block, or None for the whole module.
ALLOWED = {
    # `python -m projlab` runs it; the tests that do so run it in a subprocess
    ("__main__.py", None),
    # the script guard; the tests that run cli.py as a script run a subprocess
    ("cli.py", "__main__"),
    # only perfbench calls the oracle intersection (ROADMAP item 15)
    ("intersection.py", "oracle"),
}


def executable_lines(path):
    """The lines of a source file that its code objects map an instruction
    to, less each function's and class body's first line, which runs as its
    `def` or `class` statement does."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        own = {line for _, _, line in code.co_lines() if line}  # a module starts at line 0
        if code.co_name != "<module>":
            own.discard(code.co_firstlineno)
        lines |= own
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _is_main_guard(node):
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and ast.unparse(node.test) == "__name__ == '__main__'")


def allowed_lines(path, region):
    """The lines of `region` (an `ALLOWED` entry's second part) in the
    source file `path`; a region the file lacks raises LookupError, so a
    stale entry fails."""
    text = path.read_text(encoding="utf-8")
    if region is None:
        return set(range(1, len(text.splitlines()) + 1))
    for node in ast.parse(text).body:
        named = isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == region
        if named or (region == "__main__" and _is_main_guard(node)):
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            return set(range(start, node.end_lineno + 1))
    raise LookupError(f"{path.name} has no region {region!r}")


def traced_pytest(args):
    """(exit code, {file name: executed lines}) of `pytest.main(args)` run
    under the line tracer."""
    executed = {}
    library = str(LIBRARY)

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(library):
            return None
        lines = executed.setdefault(name, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, {Path(name).name: lines for name, lines in executed.items()}


def _spans(lines):
    """Sorted lines as "a-b" runs of consecutive numbers."""
    spans = []
    for n in sorted(lines):
        if spans and spans[-1][1] == n - 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(args):
    code, executed = traced_pytest(args)
    unrun_total, failing = 0, {}
    for path in sorted(LIBRARY.glob("*.py")):
        lines = executable_lines(path)
        unrun = lines - executed.get(path.name, set())
        allowed = set().union(*(allowed_lines(path, region)
                                for module, region in ALLOWED if module == path.name))
        unrun_total += len(unrun)
        print(f"{path.name:16} {len(lines) - len(unrun):5} of {len(lines):5} lines run"
              + (f"; unrun: {_spans(unrun)}" if unrun else ""))
        if unrun - allowed:
            failing[path.name] = unrun - allowed
    print(f"{unrun_total} unrun lines, {sum(map(len, failing.values()))} outside the allowlist")
    for name, lines in failing.items():
        print(f"unrun and not allowed: {name} {_spans(lines)}")
    return int(code) or int(bool(failing))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["-q", "-p", "no:cacheprovider"]))
