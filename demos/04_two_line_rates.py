"""Measured convergence rates versus certified rate bounds on two lines.

For alternating projections onto two lines meeting at angle theta, the
distance to the intersection contracts by exactly cos^2(theta) per cycle.
We fit that rate from the trajectory, then compare it against a rate
certificate built from the regularity constants, checking that the
certificate is a true upper bound per single operator application.
"""

import math

import numpy as np

import projlab as P


def two_lines(theta):
    a = P.AffineSubspaceSet(np.zeros(2), np.array([[1.0, 0.0]]))
    d = np.array([math.cos(theta), math.sin(theta)])
    b = P.AffineSubspaceSet(np.zeros(2), d.reshape(1, 2))
    inter = P.FinitePointSet(np.zeros((1, 2)))
    return a, b, inter


def main():
    for deg in (30, 45, 60):
        theta = math.radians(deg)
        a, b, inter = two_lines(theta)
        traj = P.run(
            [P.RelaxedProjector(a, 1.0), P.RelaxedProjector(b, 1.0)],
            np.array([0.9, 0.35]),
            [a, b],
            inter,
            max_cycles=400,
            tol=1e-14,
        )
        fit = P.fit_rlinear(traj.cycle_errors())
        want = math.cos(theta) ** 2
        print(f"theta = {deg} deg")
        print(f"  fitted per-cycle rate  {fit.rho:.9f}")
        print(f"  exact cos^2(theta)     {want:.9f}")
        print(f"  fit R^2                {fit.r_squared:.9f}")

        # Certificates consume regularity constants; on two lines kappa is
        # exact, 1 / sin(theta / 2), and nothing is sampled.
        anchor = np.zeros(2)
        kappa = P.estimate_linear_regularity([a, b], inter, anchor, 1.0,
                                             samples=400, seed=0)
        cert = P.rate_cyclic_projections(2, 0.0, kappa.value)
        comp = P.compare_certificate(traj, cert)
        print(f"  kappa = {kappa.value:.4f} ({kappa.bound})  ->  certificate rho_block = "
              f"{cert.rho_block:.6f} over {cert.block_len} applications")
        print(f"  per-iterate: fitted {comp['rho_fit_per_iterate']:.6f}  "
              f"certified {comp['rho_cert_per_iterate']:.6f}  "
              f"bound holds: {comp['ok']}")
        print()

    print("bundled scenario two_lines_angle_60 runs this end to end:")
    report = P.execute_scenario(P.load_bundled("two_lines_angle_60"))
    print(f"  passed = {report['passed']}")
    for label, fit in report["fit"].items():
        print(f"  fit[{label}]: rho = {fit['rho']:.9f}")


if __name__ == "__main__":
    main()
