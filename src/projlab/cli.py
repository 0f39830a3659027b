"""Command-line front end: run scenarios, verify the bundled suite, list the
catalog.

Exit codes: 0 = all requested assertions pass, 1 = an assertion failed,
2 = usage or configuration error, whether found when the scenario loads or
when it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

from .errors import ConfigError, DomainError, ProjlabError, check_count
from .operators import OPERATOR_TYPES
from .scenario import (
    ANALYSES,
    THEOREMS,
    bundled_scenario_names,
    execute_scenario,
    load_bundled,
    load_scenario,
)
from .sets import SET_TYPES, is_obtuse_cone  # is_obtuse_cone: perfbench/tracing.py patches it here


# ---------------------------------------------------------------------------
# subcommand implementations


def _number(value, spec):
    """A report number formatted by `spec`; a number that is not finite is
    held in the report as its string ("inf", "-inf", "nan"), shown as it is."""
    return value if isinstance(value, str) else format(value, spec)


def _format_report_text(report) -> str:
    lines = []
    sc = report["scenario"]
    lines.append(f"scenario {sc['name']}: stop={sc['stop_reason']} "
                 f"cycles={sc['n_cycles']} final_dC={_number(sc['final_dC'], '.3e')}")
    for label in sorted(report["constants"]):
        c = report["constants"][label]
        lines.append(f"  constant {label}: {_number(c['value'], '.6g')} ({c['kind']})")
    for label in sorted(report["certificates"]):
        c = report["certificates"][label]
        lines.append(
            f"  certificate {label}: {c['theorem']} rho_block={_number(c['rho_block'], '.6g')} "
            f"block={c['block_len']} applicable={c['applicable']}")
    for label in sorted(report["fit"]):
        f = report["fit"][label]
        lines.append(f"  fit {label}: rho={_number(f['rho'], '.6g')} "
                     f"R2={_number(f['r_squared'], '.4f')} non_convergent={f['non_convergent']}")
    for comp in report["comparisons"]:
        status = "PASS" if comp.get("ok", True) else "FAIL"
        lines.append(
            f"  compare {comp['name']}: fit={comp.get('rho_fit_per_iterate')} "
            f"cert={comp.get('rho_cert_per_iterate')} [{status}]")
    for check in report["checks"]:
        status = "PASS" if check.get("passed", True) else "FAIL"
        detail = ""
        if "worst_margin" in check:
            detail = f" worst_margin={_number(check['worst_margin'], '.3e')}"
        elif "value" in check:
            detail = f" value={_number(check['value'], '.6g')}"
        lines.append(f"  check {check['name']} ({check['kind']}): [{status}]{detail}")
    lines.append(f"result: {'PASS' if report['passed'] else 'FAIL'}")
    return "\n".join(lines)


def run_scenario(config_path, out_root, force, seed, fmt) -> int:
    """Load, execute, and report one scenario; returns the exit code."""
    try:
        sc = load_scenario(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = os.path.join(out_root, sc.name)
    targets = [os.path.join(out_dir, f)
               for f in ("trajectory.csv", "report.json", "shadow.csv")]
    if any(os.path.exists(t) for t in targets) and not force:
        print(f"output in {out_dir} exists; use --force to overwrite",
              file=sys.stderr)
        return 2
    try:
        report = execute_scenario(sc, out_dir=out_dir, seed_override=seed)
    except ConfigError as exc:
        print(f"config error: {config_path}: {exc}", file=sys.stderr)
        return 2
    except ProjlabError as exc:
        print(f"scenario failed: {exc}", file=sys.stderr)
        return 1
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_format_report_text(report))
    return 0 if report["passed"] else 1


def verify_suite(workers=1, out_root=None, seed=None) -> dict:
    """Execute every bundled scenario on `workers` threads and collect the
    reports.  Threads do not speed the suite up (small numpy calls hold the
    GIL), so the default is one.  A `seed` other than None overrides every
    scenario's seed, and is checked once, before any runs."""
    if seed is not None:
        seed = check_count("seed", seed, 0)
    t0 = time.perf_counter()
    names = bundled_scenario_names()

    def one(name):
        try:
            sc = load_bundled(name)
            out_dir = os.path.join(out_root, name) if out_root else None
            return execute_scenario(sc, out_dir=out_dir, seed_override=seed)
        except ProjlabError as exc:
            return {
                "scenario": {"name": name},
                "constants": {}, "certificates": {}, "fit": {},
                "comparisons": [], "checks": [],
                "error": f"{type(exc).__name__}: {exc}",
                "passed": False,
                "timing": {"wall_time_s": 0.0},
            }

    with ThreadPoolExecutor(max_workers=workers) as pool:
        reports = list(pool.map(one, names))
    failed = sum(1 for r in reports if not r["passed"])
    return {
        "suite": dict(zip(names, reports)),  # names come sorted
        "passed": failed == 0,
        "counts": {"scenarios": len(names), "failed": failed},
        "timing": {"wall_time_s": time.perf_counter() - t0},
    }


def _format_suite_text(summary) -> str:
    lines = []
    for name in sorted(summary["suite"]):
        report = summary["suite"][name]
        if "error" in report:
            lines.append(f"{name}: ERROR {report['error']}")
            continue
        status = "PASS" if report["passed"] else "FAIL"
        n_checks = len(report["checks"]) + len(report["comparisons"])
        lines.append(f"{name}: [{status}] "
                     f"stop={report['scenario']['stop_reason']} "
                     f"checks={n_checks}")
        for check in report["checks"]:
            if not check.get("passed", True):
                lines.append(f"  FAIL {check['name']} ({check['kind']})")
        for comp in report["comparisons"]:
            if not comp.get("ok", True):
                lines.append(f"  FAIL compare {comp['name']}")
    counts = summary["counts"]
    lines.append(f"total: {counts['scenarios']} scenarios, "
                 f"{counts['failed']} failed")
    lines.append(f"result: {'PASS' if summary['passed'] else 'FAIL'}")
    return "\n".join(lines)


def list_catalog(fmt) -> str:
    """Set types, operator types, rate theorems and analysis kinds, named by
    their config tags, with the keys their records take."""
    catalog = {  # section -> (name, description, config keys) per table entry
        "sets": [(tag, cls.about, [f.name for f in fields(cls)])
                 for tag, cls in SET_TYPES.items()],
        "operators": [(tag, spec.about, list(spec.keys))
                      for tag, spec in OPERATOR_TYPES.items()],
        "theorems": [(name, th.about, [a[0] for a in th.args])
                     for name, th in THEOREMS.items()],
        "analyses": [(kind, spec.about, list(spec.keys))
                     for kind, spec in ANALYSES.items()],
    }
    if fmt == "json":
        payload = {
            section: [{"name": name, "params": about, "keys": keys}
                      for name, about, keys in rows]
            for section, rows in catalog.items()
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    lines = []
    for section, rows in catalog.items():
        lines.append(f"{section}:")
        for name, about, keys in rows:
            lines.append(f"  {name} ({about}); keys: {', '.join(keys)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing


def _seed(text):
    """A --seed value by the library's seed rule; a bad one is a usage error."""
    digits = text[1:] if text[:1] in ("+", "-") else text  # one sign, as int() takes
    try:  # text that is no integer stays text, which check_count names
        return check_count("seed", int(text) if digits.isdecimal() else text, 0)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projlab",
        description="Feasibility experiments: projection operators, sampled "
                    "regularity estimates, and R-linear rate certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario config")
    p_run.add_argument("config", help="path to a scenario JSON file")
    p_run.add_argument("--out", default="out", help="output directory root")
    p_run.add_argument("--force", action="store_true",
                       help="overwrite existing output files")
    p_run.add_argument("--seed", type=_seed, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser("verify", help="run the bundled scenario suite")
    p_verify.add_argument("--out", default=None, help="write per-scenario artifacts")
    p_verify.add_argument("--force", action="store_true",
                          help="overwrite existing output files")
    p_verify.add_argument("--seed", type=_seed, default=None,
                          help="override every scenario seed")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    p_cat = sub.add_parser("catalog", help="list set, operator, theorem and analysis tags")
    p_cat.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.command == "run":
        return run_scenario(args.config, out_root=args.out, force=args.force,
                            seed=args.seed, fmt=args.format)
    if args.command == "verify":
        if args.out and not args.force and os.path.isdir(args.out) \
                and os.listdir(args.out):
            print(f"output in {args.out} exists; use --force to overwrite",
                  file=sys.stderr)
            return 2
        summary = verify_suite(out_root=args.out, seed=args.seed)
        if args.format == "json":
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(_format_suite_text(summary))
        return 0 if summary["passed"] else 1
    print(list_catalog(args.format))  # args.command == "catalog"
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
