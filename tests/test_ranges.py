"""The one interval check, `errors.check_range`: its endpoints, NaN, which
lies in no interval, and every public entry point whose numeric parameters
go through it; the one whole-number check, `errors.check_whole`, and the
entry points whose counts go through it."""

import ast
import math
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
    "check_k_step_reduction": (lambda k: P.check_k_step_reduction(_trajectory(), k, 0.5),
                               (1,)),
    "detect_cycle": (lambda tol: P.detect_cycle(_trajectory(), tol), (1e-12,)),
    "check_quasi_firm_fejer": (lambda g, b, delta: P.check_quasi_firm_fejer(
        _relaxed(), _line(), g, b, np.zeros(2), delta, samples=20), (1.0, 1.0, 0.5)),
    "check_quasi_coercive": (lambda nu, delta: P.check_quasi_coercive(
        _relaxed(), _line(), nu, np.zeros(2), delta, samples=20), (1.0, 0.5)),
    "check_injectable": (lambda tau, delta: P.check_injectable(
        _ball(), tau, np.zeros(2), delta, samples=20), (0.1, 0.5)),
    "estimate_eps_regularity": (lambda delta: P.estimate_eps_regularity(
        _line(), np.zeros(2), delta, samples=20), (0.5,)),
}


def _nan_cases():
    for name, (fn, args) in CALLS.items():
        for i, arg in enumerate(args):
            bad = [NAN, *arg[1:]] if isinstance(arg, list) else NAN
            yield pytest.param(fn, args, (*args[:i], bad, *args[i + 1:]), id=f"{name}[{i}]")


@pytest.mark.parametrize("fn, good, bad", _nan_cases())
def test_nan_in_any_scalar_argument_raises(fn, good, bad):
    """The valid call succeeds; NaN in one of its numbers raises DomainError."""
    fn(*good)
    with pytest.raises(P.DomainError):
        fn(*bad)


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


@pytest.mark.parametrize("key, module, name", [
    ("tau", "analysis", "TAU_RANGE"), ("nu", "analysis", "NU_RANGE"),
    ("lambda", "rates", "LAMBDA_RANGE"), ("tail_fraction", "runner", "TAIL_FRACTION_RANGE"),
    ("tol", "runner", "CYCLE_TOL_RANGE"),
])
def test_parse_time_intervals_are_the_library_ones(key, module, name):
    """Each interval a scenario checks at parse time is written once, beside
    the library check that uses it."""
    assert P.scenario._RANGES[key] is getattr(getattr(P, module), name)
