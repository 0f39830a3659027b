"""Self-test of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Runs a small pass of each workload twice: once as is, where every item must
pass, and once with one reference deliberately wrong, where the checks must
report failures with witnesses.  Exits 0 when every planted fault was caught
and no clean item failed, 1 otherwise.  Takes a few seconds.
"""

from __future__ import annotations

import sys

import run

FAULTS = (
    # (workload, item labels run, reference patched, wrong value)
    ("trajectory", ("ap_d8_30", "dr_d16_30"), "friedrichs_cosine",
     lambda real: lambda a, b: real(a, b) ** 0.5),       # cos theta for cos^2 theta
    ("trajectory", ("cone_0",), "nnls_cone_projection",
     lambda real: lambda g, x: real(g, x) + 1e-8),       # cone step 1e-8 off
    ("sampling", ("kappa_exact_d8",), "kappa_bound",
     lambda real: lambda c: 1.0),                        # kappa <= 1
    ("suite", ("two_lines_angle_60",), None, None),      # wrong cycle count
)


def failed_frac(build, labels):
    import workloads

    items = [it for it in build(workloads.pass_seed(12345, 1)) if it.label in labels]
    _, _, outs = run.run_pass(items)
    results = run.check_pass(items, outs)
    witnesses = [bad for bad, _ in results if bad]
    return len(witnesses) / len(items), witnesses


def main():
    if run.import_projlab() is None:
        return 2
    import reference
    import workloads

    ok = True
    for workload, labels, name, wrong in FAULTS:
        build = workloads.WORKLOADS[workload]
        clean, witnesses = failed_frac(build, labels)
        if wrong is None:
            real = workloads.SUITE_REFERENCE[labels[0]]
            workloads.SUITE_REFERENCE[labels[0]] = (real[0], real[1] + 1)
        else:
            real = getattr(reference, name)
            setattr(reference, name, wrong(real))
        try:
            planted, caught = failed_frac(build, labels)
        finally:
            if wrong is None:
                workloads.SUITE_REFERENCE[labels[0]] = real
            else:
                setattr(reference, name, real)
        good = clean == 0.0 and planted > 0.0
        ok = ok and good
        print(f"{workload}: clean failed_frac={clean:g}, with wrong "
              f"{name or 'cycle count'} failed_frac={planted:g} "
              f"[{'ok' if good else 'NOT CAUGHT'}]")
        for w in witnesses + caught:
            print(f"  witness: {w}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
