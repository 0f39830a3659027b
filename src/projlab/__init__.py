"""Feasibility experiments with cyclic projection-type operators.

Closed-set catalog with exact projectors, relaxed / semi-intrepid /
generalized Douglas–Rachford operators, sampled regularity estimators,
analytic R-linear rate certificates, trajectory runs with empirical rate
fits, and an affine reduction for the two-set DR operator.
"""

from types import ModuleType as _ModuleType

from .affine import (
    AffineReductionReport,
    affine_hull,
    eta,
    export_shadow_csv,
    shadow_run,
    verify_affine_identities,
)
from .analysis import (
    PropertyReport,
    RegularityEstimate,
    check_injectable,
    check_quasi_coercive,
    check_quasi_firm_fejer,
    check_strong_regularity,
    estimate_eps_regularity,
    estimate_linear_regularity,
    estimate_theta_bar,
    uniform_ball,
)
from .cli import list_catalog, main, run_scenario, verify_suite
from .errors import (
    ConfigError,
    ContainmentViolated,
    DimensionMismatch,
    DomainError,
    InsufficientData,
    MoreThanOneFullIntrepid,
    MoreThanOneReflection,
    ProjlabError,
    SamplingFailure,
    ShadowRecursionViolated,
    StrongRegularityFailed,
    UnsupportedSet,
)
from .intersection import IntersectionHandle
from .intersection import exact as exact_intersection
from .intersection import oracle as oracle_intersection
from .operators import (
    CyclicTuple,
    GeneralizedDR,
    RelaxedProjector,
    SemiIntrepidProjector,
    operator_from_config,
    operator_to_config,
    semi_intrepid_effective_relaxation,
)
from .rates import (
    FejerConstants,
    RateCertificate,
    averaged_constants,
    dr_coercivity,
    dr_constants,
    rate_convex_cyclic,
    rate_cyclic_dr,
    rate_cyclic_overrelaxed,
    rate_cyclic_projections,
    rate_cyclic_relaxed,
    rate_cyclic_semi_intrepid,
    rate_dist_qf,
    rate_dist_qff,
    rate_refined,
    relaxed_projector_constants,
    semi_intrepid_constants,
)
from .runner import (
    CycleReport,
    RateFit,
    Trajectory,
    check_fejer_trace,
    check_k_step_reduction,
    check_rlinear_envelope,
    compare_certificate,
    detect_cycle,
    export_trajectory_csv,
    fit_rlinear,
    run,
)
from .scenario import (
    Scenario,
    bundled_scenario_names,
    execute_scenario,
    load_bundled,
    load_scenario,
    save_scenario,
    scenario_from_config,
    scenario_to_config,
)
from .sets import (
    AffineSubspaceSet,
    Ball,
    Box,
    ClosedSet,
    Enlargement,
    FinitePointSet,
    Halfspace,
    Hyperplane,
    Orthant,
    PolyhedralCone,
    Sphere,
    Translate,
    UnionOfSets,
    is_obtuse_cone,
    proximal_normals,
    set_from_config,
)

__version__ = "0.1.0"

# Everything imported above is the public API.
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, _ModuleType))
