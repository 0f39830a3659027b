"""Print every pinned digest of the test suite afresh, and list the report
leaves and demo lines that moved against saved ones.

The pins are the two `verify` digests (`test_cli.VERIFY_DIGESTS`), the
exported-CSV digest (`test_cli.CSV_DIGEST`) and the demos' digests
(`test_demos.DIGESTS`).  From the repository root:

    PYTHONPATH=src:tests python tests/repin.py
    PYTHONPATH=src:tests python tests/repin.py --save DIR
    PYTHONPATH=src:tests python tests/repin.py --against DIR
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src:tests python tests/repin.py --fingerprints

The first prints each pin, marked `moved` where it differs from the pinned
value.  `--save` also writes the timing-stripped `verify` reports and each
demo's stdout to DIR; `--against` lists each leaf of those reports that
differs from DIR's, with its old value, its new value and the relative
change, and each demo line that differs, with its line number, its old and
new text and the largest relative change of its numbers.  To see what a
change moves, save with the parent commit's `src` first on PYTHONPATH,
then list against that with the change's.  `--fingerprints` also prints the
benchmark's fingerprint digests: a sha256 over the non-timing output of
every item of perfbench's workloads at pass seeds 3 and 11, one per
workload and one over all of them.  It reads `perfbench/` and writes
nothing there.  `tests/fingerprints.txt` holds those digests on OpenBLAS's
Haswell kernel, which CI pins because the digests differ by CPU kernel,
and CI diffs them against it, so a change that moves a bit re-pins that
file with the other pins:

    OPENBLAS_CORETYPE=Haswell OPENBLAS_NUM_THREADS=1 PYTHONPATH=src:tests \
        python -c "import repin; print(*repin.fingerprint_lines(), sep='\\n')" \
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


def _report_file(root, seed):
    return Path(root) / f"verify_{'default' if seed is None else seed}.json"


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
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", metavar="DIR",
                        help="write the timing-stripped verify reports and the demos' output")
    parser.add_argument("--against", metavar="DIR",
                        help="list the leaves and demo lines that moved against DIR's")
    parser.add_argument("--fingerprints", action="store_true",
                        help="also print the benchmark items' fingerprint digests")
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
        output = test_demos._demo_output(path)
        pin(f"demo {path.stem}", hashlib.sha256(output.encode()).hexdigest(),
            test_demos.DIGESTS[path.stem])
        if args.save:
            Path(args.save, f"demo_{path.stem}.txt").write_text(output)
        if args.against:
            old = Path(args.against, f"demo_{path.stem}.txt").read_text()
            for line in moved_lines(old, output):
                print(f"  {line}")
    if args.fingerprints:
        print("\n".join(fingerprint_lines()))


if __name__ == "__main__":
    sys.exit(main())
