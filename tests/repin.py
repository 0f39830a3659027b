"""Print every pinned digest of the test suite afresh, and list the report
leaves that moved against saved reports.

The pins are the two `verify` digests (`test_cli.VERIFY_DIGESTS`), the
exported-CSV digest (`test_cli.CSV_DIGEST`) and the demos' digests
(`test_demos.DIGESTS`).  From the repository root:

    PYTHONPATH=src:tests python tests/repin.py
    PYTHONPATH=src:tests python tests/repin.py --save DIR
    PYTHONPATH=src:tests python tests/repin.py --against DIR

The first prints each pin, marked `moved` where it differs from the pinned
value.  `--save` also writes the timing-stripped `verify` reports to DIR;
`--against` lists each leaf of them that differs from DIR's, with its old
value, its new value and the relative change.  To see what a change moves,
save the reports with the parent commit's `src` first on PYTHONPATH, then
list against them with the change's.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

import test_cli
import test_demos


def _leaves(obj, path=""):
    """{path: value} for every leaf of a JSON document, list entries as [i]."""
    if isinstance(obj, dict):
        return {k: v for key, value in obj.items()
                for k, v in _leaves(value, f"{path}.{key}" if path else key).items()}
    if isinstance(obj, list):
        return {k: v for i, value in enumerate(obj) for k, v in _leaves(value, f"{path}[{i}]").items()}
    return {path: obj}


def moved_leaves(old, new):
    """Lines `path: old -> new (relative change)` for each leaf that
    differs, or that only one of the two documents has."""
    old, new = _leaves(old), _leaves(new)
    lines = []
    for path in sorted(old.keys() | new.keys()):
        a, b = old.get(path, "(absent)"), new.get(path, "(absent)")
        if a == b and type(a) is type(b):
            continue
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        change = f" ({(b - a) / abs(a):+.1e})" if numbers and a != 0 else ""
        lines.append(f"{path}: {json.dumps(a)} -> {json.dumps(b)}{change}")
    return lines


def _report_file(root, seed):
    return Path(root) / f"verify_{'default' if seed is None else seed}.json"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", metavar="DIR", help="write the timing-stripped verify reports")
    parser.add_argument("--against", metavar="DIR", help="list the leaves that moved against DIR's")
    args = parser.parse_args(argv)

    def pin(name, value, pinned):
        print(f"{name}: {value}" + ("" if value == pinned else f"  moved (pinned {pinned})"))

    for seed, pinned in test_cli.VERIFY_DIGESTS.items():
        report = test_cli._verify_report(seed)
        pin(f"verify seed {seed}", test_cli._report_digest(report), pinned)
        if args.save:
            Path(args.save).mkdir(parents=True, exist_ok=True)
            _report_file(args.save, seed).write_text(json.dumps(report, indent=2, sort_keys=True))
        if args.against:
            old = json.loads(_report_file(args.against, seed).read_text())
            for line in moved_leaves(old, report):
                print(f"  {line}")
    with tempfile.TemporaryDirectory() as out:
        pin("exported CSV", test_cli._csv_digest(Path(out)), test_cli.CSV_DIGEST)
    for path in test_demos.DEMOS:
        pin(f"demo {path.stem}", test_demos._demo_digest(path), test_demos.DIGESTS[path.stem])


if __name__ == "__main__":
    sys.exit(main())
