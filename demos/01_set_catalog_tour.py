"""Tour of the closed-set catalog: projections, distances, normals.

Every set in the catalog answers three questions exactly: where is the
nearest point (with a deterministic selection when there are several), how
far away am I, and which directions point straight out of the set.
"""

import numpy as np

import projlab as P


def show(title, s, x):
    r = s.project(np.asarray(x, dtype=float))
    tag = " (multivalued)" if r.multivalued else ""
    print(f"{title:28s} x={x}  ->  P(x)={np.round(r.canonical, 6)}"
          f"  d={r.distance:.6f}{tag}")


def main():
    print("=== projections ===")
    show("halfspace <x,e1> <= 1", P.Halfspace(np.array([1.0, 0.0]), 1.0), [2.0, 3.0])
    show("hyperplane y = 2", P.Hyperplane(np.array([0.0, 1.0]), 2.0), [5.0, 7.0])
    show("unit ball", P.Ball(np.zeros(2), 1.0), [3.0, 4.0])
    show("unit sphere", P.Sphere(np.zeros(2), 1.0), [3.0, 4.0])
    show("unit sphere, from center", P.Sphere(np.zeros(2), 1.0), [0.0, 0.0])
    show("box [0,1]^2", P.Box(np.zeros(2), np.ones(2)), [2.0, -1.0])
    show("orthant x>=0, y<=0", P.Orthant((1, -1)), [-1.0, 1.0])
    show("cone span+{(1,0),(1,1)}", P.PolyhedralCone(np.array([[1.0, 0.0], [1.0, 1.0]])), [0.0, 1.0])

    segment = P.Box(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    show("segment fattened by 0.5", P.Enlargement(segment, 0.5), [0.5, 2.0])
    show("two-point set", P.FinitePointSet(np.array([[0.0, 0.0], [2.0, 0.0]])), [1.0, 3.0])

    print()
    print("=== proximal normals at a box corner ===")
    box = P.Box(np.zeros(2), np.ones(2))
    corner = np.array([1.0, 1.0])
    for u in P.proximal_normals(box, corner):
        print(f"  base {corner} direction {u}")

    print()
    print("=== obtuse-cone classification ===")
    for name, cone in [
        ("nonnegative orthant", P.Orthant((1, 1))),
        ("single ray (1,0)", P.PolyhedralCone(np.array([[1.0, 0.0]]))),
    ]:
        out = P.is_obtuse_cone(cone)
        verdict = "obtuse" if out["obtuse"] else f"not obtuse ({out['violations']} violations)"
        print(f"  {name:22s} -> {verdict}")

    print()
    print("Reflections of obtuse cones stay inside the cone:")
    cone = P.Orthant((1, 1))
    reflector = P.RelaxedProjector(cone, 2.0)
    rng = np.random.default_rng(0)
    inside = sum(
        cone.contains(reflector.apply(x), tol=1e-9)
        for x in rng.normal(size=(1000, 2))
    )
    print(f"  1000 random reflections, {inside} landed in the cone")


if __name__ == "__main__":
    main()
