"""The number rule, `errors.check_real`: a bool, a string and None are no
number, and every public entry point whose numeric parameters go through
it; the array rule, which `as_vector`, `as_points` and the sets that read a
matrix apply to every entry; the one interval check, `errors.check_range`:
its endpoints, NaN, which lies in no interval, and every public entry point
whose numeric parameters go through it; the one whole-number check,
`errors.check_whole`, and the entry points whose counts go through it; the
one counting rule, `errors.check_count`, and every randomized routine, whose
samples and seed go through it."""

import ast
import math
import re
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import projlab as P
from projlab.errors import check_range, check_whole

SRC = Path(__file__).resolve().parents[1] / "src" / "projlab"
NAN = math.nan


class TestCheckRange:
    @pytest.mark.parametrize("lo_open, hi_open, inside, outside", [
        (False, False, [0.0, 0.5, 1.0], [-1e-300, 1.0 + 1e-15]),
        (True, False, [1e-300, 1.0], [0.0, -1.0]),
        (False, True, [0.0, 1.0 - 1e-16], [1.0, 2.0]),
        (True, True, [0.5], [0.0, 1.0]),
    ], ids=["closed", "left_open", "right_open", "open"])
    def test_endpoints(self, lo_open, hi_open, inside, outside):
        for v in inside:
            assert check_range("x", v, 0.0, 1.0, lo_open, hi_open) == v
        for v in outside:
            with pytest.raises(P.DomainError):
                check_range("x", v, 0.0, 1.0, lo_open, hi_open)

    @pytest.mark.parametrize("lo_open", [False, True])
    @pytest.mark.parametrize("hi_open", [False, True])
    def test_nan_lies_in_no_interval(self, lo_open, hi_open):
        with pytest.raises(P.DomainError, match="got nan"):
            check_range("x", NAN, -math.inf, math.inf, lo_open, hi_open)

    def test_message_names_the_interval(self):
        with pytest.raises(P.DomainError) as exc:
            check_range("lambda", 3, 0.0, 2.0, lo_open=True)
        assert str(exc.value) == "lambda must lie in (0, 2], got 3.0"
        assert check_range("k", np.int64(3), 1.0, math.inf) == 3.0


class TestCheckWhole:
    def test_whole_values_come_back_as_ints(self):
        for v in (0, 3, 3.0, np.int64(7), -2.0):
            got = check_whole("n", v)
            assert type(got) is int and got == v

    @pytest.mark.parametrize("v", [2.5, 1e-300, NAN, math.inf, -math.inf])
    def test_fractions_nan_and_infinities_raise(self, v):
        with pytest.raises(P.DomainError, match="n must be a whole number"):
            check_whole("n", v)


def _ball():
    return P.Ball(np.zeros(2), 1.0)


def _line():
    return P.Hyperplane(np.array([0.0, 1.0]), 0.0)


def _relaxed():
    return P.RelaxedProjector(_line(), 1.0)


def _run(**kw):
    """A run of one projector onto a line, which is its own intersection."""
    return P.run([_relaxed()], np.array([1.0, 1.0]), [_line()], _line(), **kw)


def _finite_run():
    """One projection onto a line from off it: converged in one step, too
    few errors to fit."""
    return _run()


def _trajectory():
    """Ten cycles of alternating projections onto two lines through 0."""
    lines = (_line(), P.Hyperplane(np.array([1.0, -1.0]), 0.0))
    origin = P.FinitePointSet(np.zeros((1, 2)))
    return P.run([P.RelaxedProjector(s, 1.0) for s in lines], np.array([3.0, 1.0]), lines,
                 origin, max_cycles=10, tol=1e-300)


# Each entry point with valid arguments; every scalar among them, and the
# first entry of every list, is replaced by NaN in turn.
CALLS = {
    "relaxed_projector_constants": (P.relaxed_projector_constants, (1.0, 0.1)),
    "averaged_constants": (P.averaged_constants, (1.2, 1.0, 0.5)),
    "semi_intrepid_constants": (P.semi_intrepid_constants, (0.5, 0.1)),
    "dr_constants": (P.dr_constants, (1.0, 1.0, 0.5, 0.1, 0.1)),
    "dr_coercivity": (P.dr_coercivity, (1.0, 1.0, 0.5, 0.5, 2.0)),
    "rate_dist_qff": (P.rate_dist_qff, ([1.0, 1.0], [1.0, 1.0], 0.5, 2.0)),
    "rate_dist_qf": (P.rate_dist_qf, ([1.0, 1.0], [1.0], 0, 0.5, 2.0)),
    "rate_refined": (P.rate_refined, ([1.0, 1.0], [1.0, 1.0], 2.0)),
    "rate_cyclic_relaxed": (P.rate_cyclic_relaxed, ([1.0, 1.0], 0.1, 2.0)),
    "rate_cyclic_overrelaxed": (P.rate_cyclic_overrelaxed, ([1.0, 1.5], 0.1, 2.0)),
    "rate_cyclic_projections": (P.rate_cyclic_projections, (2, 0.1, 2.0)),
    "rate_convex_cyclic": (P.rate_convex_cyclic, ([1.0, 1.0], 2.0)),
    "rate_cyclic_semi_intrepid": (P.rate_cyclic_semi_intrepid, ([0.5, 0.5], 0.1, 2.0)),
    "rate_cyclic_dr": (P.rate_cyclic_dr, ([1.0], [1.0], 0.5, 2.0)),
    "Halfspace": (lambda b: P.Halfspace(np.array([1.0, 0.0]), b), (0.0,)),
    "Hyperplane": (lambda b: P.Hyperplane(np.array([1.0, 0.0]), b), (0.0,)),
    "Ball": (lambda r: P.Ball(np.zeros(2), r), (1.0,)),
    "Sphere": (lambda r: P.Sphere(np.zeros(2), r), (1.0,)),
    "Enlargement": (lambda tau: P.Enlargement(_ball(), tau), (0.5,)),
    "RelaxedProjector": (lambda lam: P.RelaxedProjector(_ball(), lam), (1.0,)),
    "SemiIntrepidProjector": (lambda a, tau: P.SemiIntrepidProjector(_ball(), a, tau),
                              (0.5, 0.1)),
    "GeneralizedDR": (lambda lam, mu, a: P.GeneralizedDR(_ball(), _line(), lam, mu, a),
                      (1.0, 1.0, 0.5)),
    "eta": (P.eta, (1.0, 1.0, 0.5)),
    "run": (lambda tol: _run(tol=tol), (1e-10,)),
    "fit_rlinear": (lambda tail, burn: P.fit_rlinear(0.5 ** np.arange(20.0), tail, burn),
                    (0.5, 2)),
    "check_k_step_reduction": (lambda k, rho: P.check_k_step_reduction(_trajectory(), k, rho),
                               (1, 0.5)),
    "check_fejer_trace": (lambda g, b: P.check_fejer_trace(_trajectory(), (g, b), np.zeros(2)),
                          (1.0, 0.0)),
    "detect_cycle": (lambda tol: P.detect_cycle(_trajectory(), tol), (1e-12,)),
    "check_quasi_firm_fejer": (lambda g, b, delta: P.check_quasi_firm_fejer(
        _relaxed(), _line(), g, b, np.zeros(2), delta, samples=20), (1.0, 1.0, 0.5)),
    "check_quasi_coercive": (lambda nu, delta: P.check_quasi_coercive(
        _relaxed(), _line(), nu, np.zeros(2), delta, samples=20), (1.0, 0.5)),
    "check_injectable": (lambda tau, delta: P.check_injectable(
        _ball(), tau, np.zeros(2), delta, samples=20), (0.1, 0.5)),
    "estimate_eps_regularity": (lambda delta: P.estimate_eps_regularity(
        _line(), np.zeros(2), delta, samples=20), (0.5,)),
    "uniform_ball": (lambda radius, n: P.uniform_ball(
        np.random.default_rng(0), np.zeros(2), radius, n), (1.0, 5)),
    "semi_intrepid_effective_relaxation": (lambda a, tau: P.semi_intrepid_effective_relaxation(
        np.array([2.0, 0.0]), np.zeros(2), a, tau), (0.5, 1.0)),
    "compare_certificate": (lambda slack: P.compare_certificate(
        _finite_run(), P.rate_convex_cyclic([1.0], 2.0), slack), (0.02,)),
}


def _replaced(value, suffix):
    """Each CALLS entry with one scalar, or the first entry of one list,
    replaced by `value`."""
    for name, (fn, args) in CALLS.items():
        for i, arg in enumerate(args):
            bad = [value, *arg[1:]] if isinstance(arg, list) else value
            yield pytest.param(fn, args, (*args[:i], bad, *args[i + 1:]),
                               id=f"{name}[{i}]{suffix}")


@pytest.mark.parametrize("fn, good, bad", _replaced(NAN, ""))
def test_nan_in_any_scalar_argument_raises(fn, good, bad):
    """The valid call succeeds; NaN in one of its numbers raises DomainError."""
    fn(*good)
    with pytest.raises(P.DomainError):
        fn(*bad)


@pytest.mark.parametrize("fn, good, bad", [
    case for value, suffix in ((True, "-bool"), ("1", "-string"), (None, "-none"))
    for case in _replaced(value, suffix)])
def test_a_non_number_in_any_scalar_argument_raises(fn, good, bad):
    """True, "1" and None are no numbers: float() read the first two as 1.0
    and None leaked a TypeError."""
    fn(*good)
    with pytest.raises(P.DomainError, match="must be a"):
        fn(*bad)


@pytest.mark.parametrize("call, message", [
    (lambda: P.rate_cyclic_projections(2, 10**400, 2.0), r"^eps must lie in \[0, 1\), got inf$"),
    (lambda: P.rate_cyclic_projections(2, 0.1, -10**400),
     r"^kappa must lie in \[1, inf\], got -inf$"),
    (lambda: P.Ball(["1", "0"], 1), r"^vector\[0\] must be a real number, got '1'$"),
    (lambda: P.Box([False], [True]), r"^vector\[0\] must be a real number, got False$"),
    (lambda: P.FinitePointSet([[True, 0.0]]),
     r"^points\[0\]\[0\] must be a real number, got True$"),
    (lambda: P.PolyhedralCone([["1", "0"]]),
     r"^generators\[0\]\[0\] must be a real number, got '1'$"),
    (lambda: P.AffineSubspaceSet([0.0, 0.0], [[1.0, None]]),
     r"^basis\[0\]\[1\] must be a real number, got None$"),
    (lambda: P.Orthant(np.array([True, False])), "^orthant sign must be a real number"),
    (lambda: P.Ball(np.array([True, False]), 1.0), r"^vector\[0\] must be a real number"),
    (lambda: P.FinitePointSet(np.array([["1", "0"]])), r"^points\[0\]\[0\] must be a real"),
    (lambda: _ball().project([0.5, "0"]), r"^vector\[1\] must be a real number, got '0'$"),
    (lambda: _ball().project_many([[0.5, 0.0], [True, 0.0]]),
     r"^points\[1\]\[0\] must be a real number, got True$"),
    (lambda: P.AffineSubspaceSet([0.0, 0.0], [[NAN, 0.0]]), "^basis entries must be finite$"),
], ids=["int_overflow", "negative_int_overflow", "string_center", "bool_bounds",
        "bool_points", "string_generators", "none_basis", "bool_signs_array",
        "bool_center_array", "string_points_array", "project", "project_many", "nan_basis"])
def test_non_numbers_and_overflowing_ints_raise(call, message):
    """An int too large for a float is +-inf, which leaked an OverflowError;
    np.asarray read a bool or string entry as a number, and a NaN basis
    passed the orthonormality test."""
    with pytest.raises(P.DomainError, match=message):
        call()


def test_numpy_scalars_and_integer_lists_are_numbers():
    for v in (np.float64(0.5), np.float32(0.5), np.int64(1), np.uint8(1), 1, 0.5):
        got = check_range("x", v, 0.0, 1.0)
        assert type(got) is float and got == v
    assert P.rate_cyclic_projections(np.int64(2), np.float32(0.5), np.float64(2.0)) \
        == P.rate_cyclic_projections(2, 0.5, 2.0)
    ball = P.Ball([0, 0], np.int64(1))
    assert ball.center.dtype == float and ball.radius == 1.0
    assert P.FinitePointSet([[1, 2], [3, 4]]).points.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    assert P.PolyhedralCone(np.array([[1, 0], [0, 1]])).generators.dtype == float
    assert P.Orthant((np.int64(1), -1.0, 0)).signs == (1, -1, 0)
    assert ball.distance((np.float32(2.0), 0)) == 1.0


@pytest.mark.parametrize("call, message", [
    (lambda: _run(max_cycles=2.5), "max_cycles must be a whole number, got 2.5"),
    (lambda: _run(max_cycles=math.inf), "max_cycles must be a whole number, got inf"),
    (lambda: P.fit_rlinear(0.5 ** np.arange(20.0), 0.5, 2.5),
     "burn_in must be a whole number, got 2.5"),
    (lambda: P.check_k_step_reduction(_trajectory(), 1.5, 0.5),
     "k must be a whole number, got 1.5"),
], ids=["max_cycles_fraction", "max_cycles_inf", "burn_in_fraction", "k_fraction"])
def test_whole_number_parameters_raise_domain_error(call, message):
    with pytest.raises(P.DomainError, match=message):
        call()


@pytest.mark.parametrize("tol", [-1e-12, -math.inf, math.inf])
def test_detect_cycle_tolerance_lies_in_zero_to_infinity(tol):
    """A negative tolerance found no cycle, silently; zero asks for exact
    repeats."""
    with pytest.raises(P.DomainError, match=r"tol must lie in \[0, inf\)"):
        P.detect_cycle(_trajectory(), tol)
    assert P.detect_cycle(_trajectory(), 0.0) is None


# The sampled routines outside analysis, each returning its sample count.
SAMPLED_ELSEWHERE = {
    "verify_affine_identities": lambda n: P.verify_affine_identities(
        _line(), P.affine_hull([_line()]), 1.0, samples=n).samples,
    # the orthant's two polar rays come on top of the draws
    "is_obtuse_cone": lambda n: P.is_obtuse_cone(P.Orthant((1, 1)), samples=n)["samples"] - 2,
}


@pytest.mark.parametrize("samples", [0, -3, 2.5, True, "10", None])
@pytest.mark.parametrize("name", SAMPLED_ELSEWHERE)
def test_sampled_routines_outside_analysis_check_samples(name, samples):
    """They run the check the sampled analyses run: 0 drew nothing and
    passed, -3 and 2.5 reached numpy."""
    call = SAMPLED_ELSEWHERE[name]
    assert call(np.int64(12)) == 12
    with pytest.raises(P.DomainError, match="samples must be a positive integer"):
        call(samples)


@pytest.mark.parametrize("call, message", [
    (lambda: P.uniform_ball(np.random.default_rng(0), np.zeros(2), -1.0, 5),
     r"radius must lie in \[0, inf\), got -1.0"),
    (lambda: P.uniform_ball(np.random.default_rng(0), np.zeros(2), 1.0, -3),
     "n must be a nonnegative integer, got -3"),
    (lambda: P.uniform_ball(np.random.default_rng(0), np.zeros(2), 1.0, 2.5),
     "n must be a nonnegative integer, got 2.5"),
    (lambda: P.semi_intrepid_effective_relaxation(np.array([2.0, 0.0]), np.zeros(2), -5, 1),
     r"alpha must lie in \[0, 1\], got -5.0"),
    (lambda: P.compare_certificate(_finite_run(), P.rate_convex_cyclic([1.0], 2.0), -0.1),
     r"slack must lie in \[0, inf\), got -0.1"),
], ids=["negative_radius", "negative_count", "fractional_count", "negative_alpha",
        "negative_slack"])
def test_helpers_outside_the_analyses_check_their_domain(call, message):
    """uniform_ball mirrored a negative radius and handed a negative count
    to numpy, the effective relaxation of alpha -5 read -4.0, and a NaN
    slack passed a finitely converged run with a NaN margin."""
    with pytest.raises(P.DomainError, match=message):
        call()


def _seeded_routines():
    """Every randomized routine with valid arguments but its seed, each
    returning the seed it records (affine_hull records none)."""
    two = (_line(), P.Hyperplane(np.array([1.0, -1.0]), 0.0))
    union = P.UnionOfSets((P.Ball(np.zeros(2), 0.5), P.Ball(np.array([1.2, 0.0]), 0.5)))
    return {
        "check_quasi_firm_fejer": lambda seed: P.check_quasi_firm_fejer(
            _relaxed(), _line(), 1.0, 1.0, np.zeros(2), 0.5, samples=20, seed=seed).seed,
        "check_quasi_coercive": lambda seed: P.check_quasi_coercive(
            _relaxed(), _line(), 1.0, np.zeros(2), 0.5, samples=20, seed=seed).seed,
        "check_injectable": lambda seed: P.check_injectable(
            _ball(), 0.1, np.zeros(2), 0.5, samples=20, seed=seed).seed,
        "estimate_eps_regularity_exact": lambda seed: P.estimate_eps_regularity(
            _ball(), np.array([1.0, 0.0]), 0.2, seed=seed).seed,
        "estimate_eps_regularity_sampled": lambda seed: P.estimate_eps_regularity(
            union, np.array([0.5, 0.0]), 0.6, samples=20, seed=seed).seed,
        "estimate_linear_regularity": lambda seed: P.estimate_linear_regularity(
            two, P.FinitePointSet(np.zeros((1, 2))), np.zeros(2), 0.5, samples=20,
            seed=seed).seed,
        "estimate_theta_bar": lambda seed: P.estimate_theta_bar(
            *two, np.zeros(2), samples=20, seed=seed).seed,
        "check_strong_regularity": lambda seed: P.check_strong_regularity(
            two, np.zeros(2), 0.5, samples=20, seed=seed).seed,
        "is_obtuse_cone": lambda seed: P.is_obtuse_cone(
            P.Orthant((1, 1)), samples=20, seed=seed)["seed"],
        "affine_hull": lambda seed: P.affine_hull([_line()], seed=seed) and None,
        "verify_affine_identities": lambda seed: P.verify_affine_identities(
            _line(), P.affine_hull([_line()]), 1.0, samples=20, seed=seed).seed,
        "run": lambda seed: _run(seed=seed).seed,
        "execute_scenario": lambda seed: P.execute_scenario(
            P.load_bundled("two_lines_angle_45"), seed_override=seed)["scenario"]["seed"],
    }


SEEDED = _seeded_routines()


def _bad_seed_cases():
    """Each routine with each bad seed; execute_scenario's seed_override of
    None means the scenario's own seed."""
    for name in SEEDED:
        for seed in (None, True, -1, 2.5, "x"):
            if not (name == "execute_scenario" and seed is None):
                yield pytest.param(name, seed, id=f"{name}[{seed!r}]")


@pytest.mark.parametrize("name, seed", _bad_seed_cases())
def test_every_randomized_routine_checks_its_seed(name, seed):
    """A seed that is not a nonnegative integer raises before anything is
    drawn, on the exact eps path too: None drew an irreproducible estimate,
    2.5 was recorded as 2, "x" was echoed and -1 reached numpy."""
    with pytest.raises(P.DomainError, match=f"^seed must be a nonnegative integer, got {seed!r}$"):
        SEEDED[name](seed)


@pytest.mark.parametrize("seed", [np.int64(7), np.uint32(7)], ids=["int64", "uint32"])
@pytest.mark.parametrize("name", SEEDED)
def test_numpy_integer_seeds_are_recorded_as_int(name, seed):
    recorded = SEEDED[name](seed)
    assert recorded is None if name == "affine_hull" else (type(recorded), recorded) == (int, 7)


def test_no_override_runs_the_scenarios_seed():
    sc = P.load_bundled("two_lines_angle_45")
    assert P.execute_scenario(sc, seed_override=None)["scenario"]["seed"] == sc.seed


def test_whole_floats_still_count():
    traj = _trajectory()
    assert P.check_k_step_reduction(traj, 2.0, 0.5).extra["k"] == 2
    assert astuple(P.fit_rlinear(traj.c_dist, 0.5, 2.0)) \
        == astuple(P.fit_rlinear(traj.c_dist, 0.5, 2))


@pytest.mark.parametrize("call", [
    lambda: P.check_injectable(_ball(), math.inf, np.zeros(2), 0.5, samples=20),
    lambda: P.check_quasi_firm_fejer(_relaxed(), _line(), math.inf, 1.0, np.zeros(2), 0.5,
                                     samples=20),
    lambda: P.check_quasi_coercive(_relaxed(), _line(), math.inf, np.zeros(2), 0.5,
                                   samples=20),
], ids=["injectable_tau", "quasi_firm_fejer_gamma", "quasi_coercive_nu"])
def test_an_infinite_constant_raises_rather_than_passing_vacuously(call):
    with pytest.raises(P.DomainError, match=r"must lie in .*, inf\), got inf"):
        call()


def test_interval_wording_lives_in_check_range_only():
    """Every 'must lie in' message comes from errors.check_range, so no
    module writes its own interval test."""
    errors = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    check = next(node for node in errors.body
                 if isinstance(node, ast.FunctionDef) and node.name == "check_range")
    found = [(path.stem, node.lineno) for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and "must lie in" in node.value]
    assert found
    assert [f"{stem}.py:{line}" for stem, line in found
            if stem != "errors" or not check.lineno <= line <= check.end_lineno] == []


def test_number_wording_lives_in_errors_only():
    """Every message that words a number check comes from errors.py, so no
    module states its own number rule."""
    words = re.compile(r"must (lie in|be an? (real|whole|finite|positive|nonnegative|integer))")
    found = {path.stem: [node.lineno
                         for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                         if isinstance(node, ast.Constant) and isinstance(node.value, str)
                         and words.search(node.value)]
             for path in sorted(SRC.glob("*.py"))}
    assert found.pop("errors")
    assert {stem: lines for stem, lines in found.items() if lines} == {}


@pytest.mark.parametrize("key, module, name", [
    ("tau", "analysis", "TAU_RANGE"), ("nu", "analysis", "NU_RANGE"),
    ("lambda", "rates", "LAMBDA_RANGE"), ("tail_fraction", "runner", "TAIL_FRACTION_RANGE"),
    ("tol", "runner", "CYCLE_TOL_RANGE"), ("slack", "runner", "SLACK_RANGE"),
    ("eps", "rates", "EPS_RANGE"), ("eps1", "rates", "EPS1_RANGE"), ("eps2", "rates", "EPS_RANGE"),
])
def test_parse_time_intervals_are_the_library_ones(key, module, name):
    """Each interval a scenario checks at parse time is written once, beside
    the library check that uses it."""
    assert P.scenario._RANGES[key] is getattr(getattr(P, module), name)
