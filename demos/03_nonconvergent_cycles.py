"""Cyclic projection methods need not converge: two exact counterexamples.

Both examples use sets whose intersection is nonempty, yet the iteration
locks into an exact repeating pattern and never approaches the
intersection.  The cycle detector recovers the period, the first index the
pattern starts from, and the repeating states themselves.
"""

import numpy as np

import projlab as P


def show_run(title, traj):
    print(title)
    print(f"  stop reason: {traj.stop_reason} after {traj.n_cycles} cycles")
    cyc = P.detect_cycle(traj, tol=1e-12)
    if cyc is None:
        print("  no cycle detected")
        return
    print(f"  exact cycle: period={cyc.period} start_index={cyc.start_index} "
          f"max_deviation={cyc.max_deviation:.2e}")
    for s in cyc.states:
        print(f"    state {np.asarray(s)}")
    fit = P.fit_rlinear(traj.cycle_errors())
    print(f"  distance-to-intersection fit: rho={fit.rho:.6f} "
          f"non_convergent={fit.non_convergent}")
    print()


def main():
    origin = P.FinitePointSet(np.zeros((1, 2)))

    # 1. Two reflectors across opposite orthants.  The intersection is the
    #    origin, but reflections from (1, 2) bounce between two points
    #    forever: a period-2 cycle.
    q1 = P.Orthant(np.array([1.0, 1.0]))
    q3 = P.Orthant(np.array([-1.0, -1.0]))
    traj = P.run(
        [P.RelaxedProjector(q1, 2.0), P.RelaxedProjector(q3, 2.0)],
        np.array([1.0, 2.0]),
        [q1, q3],
        origin,
        max_cycles=200,
        tol=1e-12,
    )
    show_run("reflect across the first and third quadrants from (1, 2):", traj)

    # 2. Reflect across one axis, project onto the other, starting on the
    #    second axis: a period-4 pattern through just two distinct points.
    ax_x = P.Hyperplane(np.array([0.0, 1.0]), 0.0)
    ax_y = P.Hyperplane(np.array([1.0, 0.0]), 0.0)
    traj = P.run(
        [P.RelaxedProjector(ax_x, 2.0), P.RelaxedProjector(ax_y, 1.0)],
        np.array([0.0, 1.0]),
        [ax_x, ax_y],
        origin,
        max_cycles=200,
        tol=1e-12,
    )
    show_run("reflect across the x-axis, project onto the y-axis, from (0, 1):", traj)

    print("the same examples ship as bundled scenarios:")
    for name in ("reflector_cycle_counterexample", "reflection_projection_axes"):
        report = P.execute_scenario(P.load_bundled(name))
        verdict = "PASS" if report["passed"] else "FAIL"
        print(f"  {name}: {verdict}")


if __name__ == "__main__":
    main()
