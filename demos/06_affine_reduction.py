"""Shadow sequences of the blended two-set operator on an affine hull.

When both sets lie in a common affine subspace L, the component of the
iterate orthogonal to L evolves autonomously: the gap to L is multiplied by
a constant eta = (1 - alpha) + alpha (1 - lambda)(1 - mu) every step, while
the shadow (the projection onto L) runs the same algorithm inside L.

Two regimes on a pair of lines in the z = 0 plane of R^3:
  * lambda = mu = 2 gives eta = 1: the gap is carried along unchanged and
    the iterates converge to a fixed point offset from L.
  * lambda = mu = 1, alpha = 1/2 gives eta = 1/2: the gap halves each step
    and the iterates fall into L itself.
"""

import numpy as np

import projlab as P


def main():
    a = P.AffineSubspaceSet(np.zeros(3), np.array([[1.0, 0.0, 0.0]]))
    d = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    b = P.AffineSubspaceSet(np.zeros(3), d.reshape(1, 3))
    inter = P.FinitePointSet(np.zeros((1, 3)))
    x0 = np.array([1.0, 0.0, 1.0])

    hull = P.affine_hull([a, b], seed=0)
    print(f"estimated affine hull: dim(L) = {hull.basis.shape[0]} in R^3")
    print(f"eta(2, 2, 1)   = {P.eta(2.0, 2.0, 1.0)}")
    print(f"eta(1, 1, 1/2) = {P.eta(1.0, 1.0, 0.5)}")
    print()

    for lam, mu, alpha, cycles in ((2.0, 2.0, 1.0, 60), (1.0, 1.0, 0.5, 150)):
        op = P.GeneralizedDR(a, b, lam, mu, alpha)
        traj = P.run([op], x0, [a, b], inter, max_cycles=cycles, tol=1e-12)
        shadow, rep = P.shadow_run(traj, hull)
        gaps = np.linalg.norm(traj.cycle_iterates() - shadow, axis=1)
        print(f"lambda={lam} mu={mu} alpha={alpha}:")
        print(f"  classification  {rep.classification}")
        print(f"  eta             {rep.eta}")
        print(f"  gap norms       start {gaps[0]:.3e}  "
              f"mid {gaps[len(gaps) // 2]:.3e}  end {gaps[-1]:.3e}")
        final = np.asarray(traj.points[-1])
        print(f"  final iterate   {final}")
        print(f"  dist to A, B    {a.distance(final):.2e}, {b.distance(final):.2e}")
        print()

    print("bundled scenarios cover both regimes:")
    for name in ("dr_affine_reflect", "dr_affine_blend"):
        report = P.execute_scenario(P.load_bundled(name))
        verdict = "PASS" if report["passed"] else "FAIL"
        checks = [c for c in report["checks"] if c["kind"] == "affine_reduction"]
        eta_val = checks[0]["eta"] if checks else float("nan")
        print(f"  {name}: {verdict} (eta = {eta_val})")


if __name__ == "__main__":
    main()
