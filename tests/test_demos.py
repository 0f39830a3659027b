"""Each script under demos/ runs to a clean exit in-process and prints the
bytes pinned below."""

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

from test_cli import kernel_pin

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

# Demos 05 and 06 print sums whose last bits depend on the OpenBLAS kernel,
# so their pins are {kernel: digest} tables (`test_cli.kernel_pin`).
DIGESTS = {
    "01_set_catalog_tour": "7f4984051951301d58ff4361bdd782902ae4c0f6362c2fa99d140b05ebe9bb9d",
    "02_operator_gallery": "78d67fc4bb93a911f166cc8f0caea605ada01c48a82c641a02bd9cfb7372d23f",
    "03_nonconvergent_cycles": "95fe0f6a3267d410c71949ea8ac84607a1350b1eddf9f6ec96c4124efdbe30bb",
    "04_two_line_rates": "ef53ecf30ec81533b947015f8e0b3704e42764cfaa370303bd5238500c9463a7",
    "05_regularity_estimates": {
        "SkylakeX": "c347f940d463a3c2c92affbf4ad316deb617ac3d0c23b8a7ab7622581e4f7b02",
        "Haswell": "34cc80467ec8c1307da35373060c9e82e3374e046f62fd86bb1bf4f74eecec38"},
    "06_affine_reduction": {
        "SkylakeX": "f6c21b0641585af26f338b46d274d86d8c096881b0952f7f843a8be3a9f496aa",
        "Haswell": "083d90435a3761bbb341864c0bd129cdd759d48edb40af0db8bcd404f558b700"},
}


def _demo_output(path):
    """The demo's stdout, run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()
    return out.getvalue()


def _demo_digest(path):
    """sha256 of the demo's stdout, run in-process."""
    return hashlib.sha256(_demo_output(path).encode()).hexdigest()


def pinned(stem):
    """The demo's pin: its digest, or its kernel's from a {kernel: digest} table."""
    pin = DIGESTS[stem]
    return pin if isinstance(pin, str) else kernel_pin(pin)


def test_demos_found():
    assert DEMOS
    assert sorted(DIGESTS) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    """A demo prints the same bytes on every run.  A change meant to move a
    demo's output says which lines moved and re-pins with `tests/repin.py`,
    which prints every demo's digest and lists the lines that moved."""
    assert _demo_digest(path) == pinned(path.stem)
