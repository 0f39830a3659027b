"""projlab benchmark: end-to-end and per-layer timings of three workloads.

    python3 perfbench/run.py --workload suite|trajectory|sampling \
        --seed N --seconds S --trace 0|1

Run from the repository root; projlab is imported from ./src.  One process,
one thread, closed loop: each item starts when the previous one returned.
Pass 0 runs untimed first (warm-up) and again at the end (determinism);
passes 1, 2, ... are timed until `--seconds` have elapsed and at least
MIN_PASSES passes and MIN_ITEMS items are timed.  Every output is checked
against an exact reference.  Times are scaled to the host-speed probe's
nominal speed (see hostspeed.py); the raw wall times are printed beside them.

--trace 0 prints the end-to-end metrics; --trace 1 runs some passes
untraced and then some with the span tracer installed, and prints the
per-layer metrics.  Human-readable lines come first; the last line of
stdout is one JSON object {correct, attempted, failed, metrics}.
"""

from __future__ import annotations

import os

# One BLAS thread in this process; set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

import hostspeed  # noqa: E402

MIN_PASSES = 3
MIN_ITEMS = 100          # at least ten item times beyond p90
SETUP_REPEATS = 3
TRACED_SHARE = 0.6       # share of --seconds spent on traced passes
MIN_TRACED_PASSES = 2
MEASURE_CAP_S = 120.0    # stop adding passes after this; a run cut short of
                         # its minimums counts a failure (see short_of)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("suite", "trajectory", "sampling"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_projlab():
    """Import projlab from ./src; None (with a message) when it is absent."""
    sys.path.insert(0, SRC)
    try:
        import projlab
    except ImportError as exc:
        print(f"perfbench: cannot import projlab from {SRC}: {exc}", file=sys.stderr)
        return None
    if not os.path.abspath(projlab.__file__).startswith(SRC + os.sep):
        print(f"perfbench: projlab resolved to {projlab.__file__}, not {SRC}",
              file=sys.stderr)
        return None
    return projlab


def import_seconds():
    """Time to import projlab in a fresh interpreter (one set-up's imports),
    raw and scaled by hostspeed.import_probe() run just before."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import projlab; print(time.perf_counter() - t)")
    probe = hostspeed.import_probe()
    out = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                         text=True, check=True, timeout=60)
    raw = float(out.stdout)
    return raw, raw * hostspeed.IMPORT_NOMINAL_S / probe


def blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, else the env pin."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return os.environ["OPENBLAS_NUM_THREADS"]


# ---------------------------------------------------------------------------
# passes


def run_pass(items):
    """Call every item in order with a host-speed probe before and after
    each.  Returns (raw item times s, scaled item times s, outputs); an item
    that raises yields its exception as output."""
    clock = time.perf_counter
    raw, scaled, outs = [], [], []
    before = hostspeed.probe()
    for item in items:
        t = clock()
        try:
            out = item.call()
        except Exception as exc:  # noqa: BLE001 - a failed item is a result
            out = exc
        dt = clock() - t
        after = hostspeed.probe()
        raw.append(dt)
        scaled.append(dt * hostspeed.NOMINAL_S / (0.5 * (before + after)))
        outs.append(out)
        before = after
    return raw, scaled, outs


def check_pass(items, outs):
    """Per item: (failure witness or None, fingerprint or None)."""
    results = []
    for item, out in zip(items, outs):
        if isinstance(out, Exception):
            results.append((f"{item.label}: raised {type(out).__name__}: {out}", None))
            continue
        try:
            results.append((item.check(out), item.fingerprint(out)))
        except Exception as exc:  # noqa: BLE001 - a check that breaks is a failure
            results.append((f"{item.label}: check raised {type(exc).__name__}: {exc}",
                            None))
    return results


class Run:
    """Counters and timings of one benchmark run."""

    def __init__(self, build, seed):
        self.build = build
        self.seed = seed
        self.attempted = 0
        self.witnesses = []
        self.raw = []             # raw item times of each timed pass
        self.scaled = []          # the same, scaled to nominal host speed
        self.first_prints = None  # fingerprints of pass 0
        self.passes = 0           # index of the next pass to build
        self.started = time.perf_counter()

    def inputs(self, prebuilt):
        from workloads import pass_seed

        if self.passes in prebuilt:
            return prebuilt.pop(self.passes)
        return self.build(pass_seed(self.seed, self.passes))

    def record(self, items, outs):
        results = check_pass(items, outs)
        self.attempted += len(items)
        self.witnesses += [bad for bad, _ in results if bad]
        self.passes += 1
        return [fp for _, fp in results]

    def warmup(self, prebuilt):
        """Untimed first run of pass 0: fills caches and lazy imports and
        keeps the fingerprints that determinism() compares against."""
        items = self.inputs(prebuilt)
        _, _, outs = run_pass(items)
        self.first_prints = self.record(items, outs)

    def capped(self, done):
        """True once MEASURE_CAP_S has passed and at least one pass is done."""
        return done > 0 and time.perf_counter() - self.started > MEASURE_CAP_S

    def short_of(self, what, done, needed):
        """A phase the cap stopped before its minimum is one failure: its
        metrics come from too few samples."""
        if done < needed:
            self.attempted += 1
            self.witnesses.append(f"measurement cap {MEASURE_CAP_S:g} s reached after "
                                  f"{done} {what}, fewer than the {needed} required")

    def timed_passes(self, prebuilt, until, min_passes, min_items):
        while (len(self.raw) < min_passes or sum(map(len, self.raw)) < min_items
               or time.perf_counter() < until):
            if self.capped(len(self.raw)):
                break
            items = self.inputs(prebuilt)
            raw, scaled, outs = run_pass(items)
            self.raw.append(raw)
            self.scaled.append(scaled)
            self.record(items, outs)
        self.short_of("timed passes", len(self.raw), min_passes)
        self.short_of("timed items", sum(map(len, self.raw)), min_items)

    def determinism(self):
        """Rerun pass 0 from its seed; each differing output is a failure."""
        from workloads import pass_seed

        items = self.build(pass_seed(self.seed, 0))
        _, _, outs = run_pass(items)
        self.attempted += len(items)
        for item, first, (bad, again) in zip(items, self.first_prints,
                                             check_pass(items, outs)):
            if not bad and (first is None or first != again):
                bad = f"{item.label}: rerun of pass 0 differs from its first run"
            if bad:
                self.witnesses.append(bad)


def end_to_end(run, setup_s, setup_raw_s):
    """End-to-end rows: (name, value, unit, samples note)."""
    import numpy as np

    passes = [sum(p) for p in run.scaled]
    ms = np.concatenate(run.scaled) * 1e3
    raw_ms = np.concatenate(run.raw) * 1e3
    p90 = float(np.percentile(ms, 90))
    return [
        ("setup_s", setup_s, "s", f"{SETUP_REPEATS} set-ups, median; raw {setup_raw_s:.4g} s"),
        ("pass_s", statistics.median(passes), "s",
         f"{len(passes)} passes, median; raw {statistics.median(map(sum, run.raw)):.4g} s"),
        ("item_ms_p50", float(np.percentile(ms, 50)), "ms",
         f"{ms.size} items; raw {np.percentile(raw_ms, 50):.4g} ms"),
        ("item_ms_p90", p90, "ms", f"{ms.size} items, {int(np.sum(ms > p90))} beyond; "
                                   f"raw {np.percentile(raw_ms, 90):.4g} ms"),
        ("failed_frac", len(run.witnesses) / run.attempted, "ratio",
         f"{run.attempted} attempted"),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
         "MB", "ru_maxrss"),
    ]


def traced_phase(run, prebuilt, seconds):
    """Traced passes after the untraced ones.  Returns per-layer metrics, the
    self time of each layer and the median traced pass time (raw s)."""
    from tracing import Tracer

    # Sampling items bind their analysis function when built, so traced
    # passes are built after the wrappers are in place.
    prebuilt.clear()
    tracer = Tracer().install()
    per_pass, layer_rows, load_s, raw, scaled = [], [], [], [], []
    until = time.perf_counter() + seconds
    try:
        while len(per_pass) < MIN_TRACED_PASSES or time.perf_counter() < until:
            if run.capped(len(per_pass)):
                break
            tracer.clear()
            items = run.inputs(prebuilt)
            load_s.append(tracer.scenario_load_s())
            tracer.clear()
            times, fast, outs = run_pass(items)
            wall = sum(times)
            metrics, layer_self = tracer.layer_metrics(wall)
            metrics["trace.self_coverage"] = sum(layer_self.values()) / wall
            per_pass.append(metrics)
            layer_rows.append(layer_self)
            raw.append(wall)
            scaled.append(sum(fast))
            run.record(items, outs)
    finally:
        tracer.uninstall()
    run.short_of("traced passes", len(per_pass), MIN_TRACED_PASSES)
    out = {k: statistics.median([m[k] for m in per_pass]) for k in per_pass[0]}
    out["scenario.load_s"] = statistics.median(load_s)
    out["trace.overhead"] = (statistics.median(scaled)
                             / statistics.median(map(sum, run.scaled)))
    layers = {k: statistics.median([r[k] for r in layer_rows]) for k in layer_rows[0]}
    return out, layers, statistics.median(raw)


def suite_pool(run, seed):
    """verify_suite serially and with one worker per CPU, untraced."""
    from projlab import cli

    workers = len(os.sched_getaffinity(0))
    out = {}
    for key, n in (("cli.verify_suite.serial_s", 1), ("cli.verify_suite.pool_s", workers)):
        t0 = time.perf_counter()
        summary = cli.verify_suite(workers=n, seed=seed % (2 ** 31))
        out[key] = time.perf_counter() - t0
        run.attempted += 1
        if not summary["passed"]:
            run.witnesses.append(f"verify_suite(workers={n}) failed: "
                                 f"{summary['counts']}")
    out["cli.pool_speedup"] = out["cli.verify_suite.serial_s"] / out["cli.verify_suite.pool_s"]
    return out


def unit_of(name):
    if name.endswith("_us") or "_us." in name:
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".calls") or name == "runner.cycles":
        return "count"
    return "ratio"


def main(argv=None):
    args = parse_args(argv)
    if import_projlab() is None:
        return 2
    import numpy
    import scipy

    import micro
    import workloads

    build = workloads.WORKLOADS[args.workload]
    run = Run(build, args.seed)
    # One set-up: import projlab in a fresh interpreter, then generate,
    # parse and compute the references of one pass's inputs.
    prebuilt, raw_setups, setups = {}, [], []
    for i in range(SETUP_REPEATS):
        raw_import, scaled_import = import_seconds()
        before = hostspeed.probe()
        t0 = time.perf_counter()
        prebuilt[i] = build(workloads.pass_seed(args.seed, i))
        t_build = time.perf_counter() - t0
        raw_setups.append(raw_import + t_build)
        setups.append(scaled_import + t_build * hostspeed.NOMINAL_S
                      / (0.5 * (before + hostspeed.probe())))
    setup_s, setup_raw_s = statistics.median(setups), statistics.median(raw_setups)

    print(f"projlab perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"meta: nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} "
          f"blas_threads={blas_threads()} seed={args.seed}")

    run.warmup(prebuilt)
    start = time.perf_counter()
    if args.trace:
        untraced = args.seconds * (1.0 - TRACED_SHARE)
        run.timed_passes(prebuilt, start + untraced, MIN_TRACED_PASSES, 0)
        layer, layer_self, traced_wall = traced_phase(
            run, prebuilt, args.seconds - (time.perf_counter() - start))
        layer.update(micro.micro_timings())
        pool = {"cli.verify_suite.serial_s": 0.0, "cli.verify_suite.pool_s": 0.0,
                "cli.pool_speedup": 0.0}
        if args.workload == "suite":
            pool = suite_pool(run, workloads.pass_seed(args.seed, 0))
        layer.update(pool)
    else:
        run.timed_passes(prebuilt, start + args.seconds, MIN_PASSES, MIN_ITEMS)
    run.determinism()

    rows = end_to_end(run, setup_s, setup_raw_s)
    print(f"{'metric':<22}{'value':>14}  {'unit':<6} samples")
    for name, value, unit, note in rows:
        print(f"{name:<22}{value:>14.6g}  {unit:<6} {note}")
    if args.trace:
        print(f"traced pass (median, raw): {traced_wall:.6g} s; self time by layer:")
        for name, value in layer_self.items():
            print(f"  {name:<20}{value:>12.6g} s  {value / traced_wall:7.1%}")
        for name in sorted(layer):
            print(f"  {name:<46}{layer[name]:>14.6g}")
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layer.items())}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit, _ in rows if name != "failed_frac"}
    for w in run.witnesses[:20]:
        print(f"FAIL {w}")
    failed = len(run.witnesses)
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
