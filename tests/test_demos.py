"""Each script under demos/ runs to a clean exit in-process and prints the
bytes of its golden, tests/golden/<kernel>/demo_<stem>.txt: demos 05 and 06
print sums whose last bits depend on the OpenBLAS kernel."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

from repin import check_golden
from test_cli import blas_kernel

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _demo_output(path):
    """The demo's stdout, run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()
    return out.getvalue()


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    """A demo prints the same bytes on every run.  A change meant to move a
    demo's output says which lines moved and rewrites the goldens with
    `tests/repin.py --write`; a moved line fails here, listed by its number."""
    check_golden(f"demo_{path.stem}.txt", _demo_output(path), blas_kernel())
