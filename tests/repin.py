"""Check or rewrite the test suite's goldens, and print its CSV digest.

A golden is a committed output that tier-1 pins byte for byte:
`tests/golden/<kernel>/verify_default.json` and `verify_12345.json`, the
timing-stripped `verify` reports at the scenarios' own seeds and at
`--seed 12345` (`test_cli.VERIFY_GOLDENS`), and `demo_<stem>.txt`, each
demo's stdout.  `<kernel>` is the OpenBLAS kernel (`test_cli.blas_kernel`),
as their last bits differ by kernel: AVX-512 CPUs take SkylakeX, AVX2 ones
Haswell, and `OPENBLAS_CORETYPE=Haswell` picks Haswell on any AVX2 CPU.
`check_golden` is the tests' one compare; on a mismatch it lists every
moved report leaf (`moved_leaves`) or demo line (`moved_lines`).  The
exported CSV stays a digest per kernel (`test_cli.CSV_DIGEST`).  From the
repository root:

    PYTHONPATH=src:tests python tests/repin.py
    PYTHONPATH=src:tests python tests/repin.py --write
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src:tests python tests/repin.py --fingerprints

The first prints the kernel, then each golden, `kept` or with what moved,
then the CSV digest, marked `moved` where it differs from its pin.
`--write` rewrites the kernel's goldens instead; a change meant to move an
output says what moved and writes them on each kernel, and pastes the
printed CSV digest into `test_cli.CSV_DIGEST`.  `--fingerprints` also
prints the benchmark's fingerprint digests: a sha256 over the non-timing
output of every item of perfbench's workloads at pass seeds 3 and 11, one
per workload and one over all of them.  It reads `perfbench/` and writes
nothing there.  `tests/fingerprints.txt` holds those digests on OpenBLAS's
Haswell kernel, which CI pins because the digests differ by CPU kernel,
and CI diffs them against it, so a change that moves a bit re-pins that
file with the other pins:

    OPENBLAS_CORETYPE=Haswell OPENBLAS_NUM_THREADS=1 PYTHONPATH=src:tests \\
        python -c "import repin; print(*repin.fingerprint_lines(), sep='\\n')" \\
        > tests/fingerprints.txt
"""

import argparse
import hashlib
import itertools
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


def _leaves(obj, path=""):
    """{path: value} for every leaf of a JSON document, list entries as [i]."""
    if isinstance(obj, dict):
        return {k: v for key, value in obj.items()
                for k, v in _leaves(value, f"{path}.{key}" if path else key).items()}
    if isinstance(obj, list):
        return {k: v for i, value in enumerate(obj) for k, v in _leaves(value, f"{path}[{i}]").items()}
    return {path: obj}


def moved_leaves(old, new):
    """Lines `path: old -> new (relative change)` for each leaf whose JSON
    text differs, or that only one of the two documents has."""
    old, new = _leaves(old), _leaves(new)
    lines = []
    for path in sorted(old.keys() | new.keys()):
        a, b = old.get(path, "(absent)"), new.get(path, "(absent)")
        if json.dumps(a) == json.dumps(b):
            continue
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        change = f" ({(b - a) / abs(a):+.1e})" if numbers and a != 0 else ""
        lines.append(f"{path}: {json.dumps(a)} -> {json.dumps(b)}{change}")
    return lines


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def moved_lines(old, new):
    """Lines `line n: old -> new` for each line of two texts that differs,
    or that only one of them has; where both hold as many numbers, the
    largest relative change among them follows."""
    lines = []
    for n, (a, b) in enumerate(itertools.zip_longest(
            old.splitlines(), new.splitlines(), fillvalue="(absent)"), 1):
        if a == b:
            continue
        x, y = ([float(v) for v in _NUMBER.findall(line)] for line in (a, b))
        changes = [abs(v - u) / abs(u) for u, v in zip(x, y) if u != v and u != 0]
        change = f" ({max(changes):.1e})" if len(x) == len(y) and changes else ""
        lines.append(f"line {n}: {json.dumps(a)} -> {json.dumps(b)}{change}")
    return lines


def check_golden(name, text, kernel):
    """Fail unless `text` is byte for byte the golden `name` of `kernel`,
    counting and listing what moved: each report leaf of a `.json` golden,
    each line of any other.  A kernel with no golden fails, naming it."""
    __tracebackhide__ = True
    path = GOLDEN / kernel / name
    if not path.is_file():
        pytest.fail(f"no golden {name} for the OpenBLAS kernel {kernel} "
                    f"(goldens: {', '.join(sorted(p.name for p in GOLDEN.iterdir()))})")
    old = path.read_bytes().decode()
    if old != text:
        moved = (moved_leaves(json.loads(old), json.loads(text)) if name.endswith(".json")
                 else moved_lines(old, text))
        pytest.fail(f"{name} on {kernel}: {len(moved)} moved\n" + "\n".join(moved))


def fingerprint_lines():
    """`<count> <workload> item fingerprints: <sha256>` for each workload of
    perfbench, then `<count> perfbench item fingerprints at pass seeds 3
    and 11: <sha256>` over all of them, each over the item fingerprints of
    the passes built at seeds 3 and 11, in order."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads
    digest, count, lines = hashlib.sha256(), 0, []
    for name, build in workloads.WORKLOADS.items():
        own, own_count = hashlib.sha256(), 0
        for seed in (3, 11):
            for item in build(seed):
                line = item.fingerprint(item.call()).encode()
                digest.update(line)
                own.update(line)
                own_count += 1
        count += own_count
        lines.append(f"{own_count} {name} item fingerprints: {own.hexdigest()}")
    return lines + [f"{count} perfbench item fingerprints at pass seeds 3 and 11: "
                    f"{digest.hexdigest()}"]


def main(argv=None):
    import test_cli
    import test_demos
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite this kernel's goldens in place of checking them")
    parser.add_argument("--fingerprints", action="store_true",
                        help="also print the benchmark items' fingerprint digests")
    args = parser.parse_args(argv)

    kernel = test_cli.blas_kernel()
    print(f"OpenBLAS kernel: {kernel}")
    outputs = {name: test_cli.verify_text(seed) for seed, name in test_cli.VERIFY_GOLDENS.items()}
    outputs.update((f"demo_{path.stem}.txt", test_demos._demo_output(path))
                   for path in test_demos.DEMOS)
    for name, text in outputs.items():
        if args.write:
            (GOLDEN / kernel).mkdir(parents=True, exist_ok=True)
            (GOLDEN / kernel / name).write_bytes(text.encode())
            print(f"{name}: written")
            continue
        try:
            check_golden(name, text, kernel)
            print(f"{name}: kept")
        except pytest.fail.Exception as exc:
            print(exc.msg.replace("\n", "\n  "))
    with tempfile.TemporaryDirectory() as out:
        digest, pinned = test_cli._csv_digest(Path(out)), test_cli.CSV_DIGEST.get(kernel)
        print(f"exported CSV: {digest}" + ("" if digest == pinned else f"  moved (pinned {pinned})"))
    if args.fingerprints:
        print("\n".join(fingerprint_lines()))


if __name__ == "__main__":
    sys.exit(main())
