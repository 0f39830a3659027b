"""The three operator families and how their parameters shape a single step.

Relaxed projectors interpolate between projecting (lambda = 1) and
reflecting (lambda = 2).  Semi-intrepid projectors overshoot INTO the set,
capped by both the intrepidity alpha and the injection depth tau.  The
blended two-set operator composes two relaxed steps and averages with the
identity.
"""

import numpy as np

import projlab as P


def main():
    line = P.Hyperplane(np.array([0.0, 1.0]), 0.0)  # the x-axis
    x = np.array([1.0, 2.0])

    print(f"start x = {x}, target set = x-axis, P(x) = {line.project(x).canonical}")
    print()
    print("relaxed projector, lambda from 0.5 to 2:")
    for lam in (0.5, 1.0, 1.5, 2.0):
        out = P.RelaxedProjector(line, lam).apply(x)
        print(f"  lambda={lam:3.1f}  ->  {out}")

    print()
    print("semi-intrepid projector (overshoot capped by alpha and tau):")
    for alpha, tau in ((0.0, 1.0), (0.5, 10.0), (0.5, 0.3), (1.0, 0.3)):
        out = P.SemiIntrepidProjector(line, alpha, tau).apply(x)
        lam_eff = P.semi_intrepid_effective_relaxation(
            x, line.project(x).canonical, alpha, tau
        )
        print(f"  alpha={alpha:3.1f} tau={tau:4.1f} -> {out}   "
              f"(acts like lambda = {lam_eff:.3f})")

    print()
    print("blended two-set operator on the coordinate axes:")
    other = P.Hyperplane(np.array([1.0, 0.0]), 0.0)  # the y-axis
    for lam, mu, alpha in ((1.0, 1.0, 1.0), (2.0, 2.0, 0.5), (2.0, 1.0, 0.5)):
        op = P.GeneralizedDR(line, other, lam, mu, alpha)
        r, s, out = op.apply_with_trace(x)
        print(f"  lambda={lam} mu={mu} alpha={alpha}:")
        print(f"    first relaxed step  {r}")
        print(f"    second relaxed step {s}")
        print(f"    blended output      {out}")

    print()
    print("a full cycle is just the operators applied in order:")
    cyc = P.CyclicTuple((P.RelaxedProjector(line, 1.0),
                         P.RelaxedProjector(other, 1.0)))
    print(f"  P_axis2(P_axis1({x})) = {cyc.apply(x)}")


if __name__ == "__main__":
    main()
