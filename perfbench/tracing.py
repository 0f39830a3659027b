"""In-memory span tracer wrapped around projlab's public entry points.

`Tracer.install()` replaces, from outside the package, the public functions
of each module and the `project`/`apply`/`distance` methods of the catalog
classes with thin wrappers that record one span per call: name, start, end
and parent span.  Nothing under src/ changes; `uninstall()` puts the
originals back.  Spans live in flat arrays until `layer_metrics` reduces a
window of them to per-layer counts, self times and ratios.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans in a window add up to the summed
duration of the window's root spans.
"""

from __future__ import annotations

import inspect
import time
from array import array

import numpy as np

from projlab import affine, analysis, cli, intersection, operators, rates, runner, scenario
from projlab import sets as sets_mod

# Catalog tag of each set class, as in the set records of a scenario.
SET_TAGS = {
    "Halfspace": "halfspace", "Hyperplane": "hyperplane",
    "AffineSubspaceSet": "affine", "Ball": "ball", "Sphere": "sphere",
    "Box": "box", "Orthant": "orthant", "PolyhedralCone": "cone",
    "Enlargement": "enlargement", "UnionOfSets": "union",
    "FinitePointSet": "finite_points", "Translate": "translate",
}
OPERATOR_FAMILIES = {
    "RelaxedProjector": ("apply", "relaxed"),
    "SemiIntrepidProjector": ("apply", "semi_intrepid"),
    # GeneralizedDR.apply delegates to apply_with_trace; wrapping the latter
    # counts direct callers (the affine reduction) too, and each step once.
    "GeneralizedDR": ("apply_with_trace", "generalized_dr"),
}
ANALYSIS_FUNCTIONS = (
    "check_quasi_firm_fejer", "check_quasi_coercive", "check_injectable",
    "estimate_eps_regularity", "estimate_linear_regularity",
    "estimate_theta_bar", "check_strong_regularity",
)
ANALYSIS_NAMES = ANALYSIS_FUNCTIONS + ("is_obtuse_cone",)
RUNNER_CHECKS = ("detect_cycle", "check_k_step_reduction", "check_fejer_trace",
                 "check_rlinear_envelope", "compare_certificate")
AFFINE_FUNCTIONS = ("affine_hull", "shadow_run", "verify_affine_identities")
LAYERS = ("sets", "intersection", "operators", "runner", "analysis", "affine",
          "rates", "scenario", "cli")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self._stack = []
        self._patches = []
        self.samples_requested = 0       # `samples` argument of analysis calls
        self.kappa_used = 0
        self.kappa_samples = 0
        self.run_cycles = 0
        self.run_loop_s = 0.0

    # -- recording ---------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def clear(self):
        for buf in (self.start, self.end, self.parent, self.name):
            del buf[:]
        self.samples_requested = self.kappa_used = self.kappa_samples = 0
        self.run_cycles = 0
        self.run_loop_s = 0.0

    def wrap(self, name, fn, pick=None, on_call=None):
        """Traced version of fn.  `pick(args)` chooses the span name per call;
        `on_call(result, args, kwargs)` sees each result."""
        nid = self._id(name) if pick is None else None
        start, end, parent, names, stack = (self.start, self.end, self.parent,
                                            self.name, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid if pick is None else self._id(pick(args)))
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_call is not None:
                on_call(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- installation ------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for cls_name, tag in SET_TAGS.items():
            cls = getattr(sets_mod, cls_name)
            self._patch(cls, "project", self.wrap(f"sets.project:{tag}", cls.project))
            if "normal_generators" in cls.__dict__:
                self._patch(cls, "normal_generators",
                            self.wrap("sets.normal_generators", cls.normal_generators))
        base = sets_mod.ClosedSet
        self._patch(base, "distance", self.wrap("sets.distance", base.distance))
        self._patch(base, "contains", self.wrap("sets.contains", base.contains))

        handle = intersection.IntersectionHandle
        self._patch(handle, "distance", self.wrap("intersection.distance", handle.distance))
        self._patch(handle, "nearest", self.wrap(
            "intersection.nearest.*", handle.nearest,
            pick=lambda a: ("intersection.nearest.oracle" if a[0].descriptor is None
                            else "intersection.nearest.exact")))

        for cls_name, (method, family) in OPERATOR_FAMILIES.items():
            cls = getattr(operators, cls_name)
            self._patch(cls, method, self.wrap(f"operators.apply:{family}",
                                               cls.__dict__[method]))
        self._patch(operators.CyclicTuple, "apply",
                    self.wrap("operators.cycle", operators.CyclicTuple.apply))

        self._patch(runner, "run", self.wrap("runner.run", runner.run,
                                             on_call=self._on_run))
        self._patch(runner, "fit_rlinear", self.wrap("runner.fit_rlinear",
                                                     runner.fit_rlinear))
        for fn in RUNNER_CHECKS:
            self._patch(runner, fn, self.wrap("runner.checks", getattr(runner, fn)))

        for fn in ANALYSIS_FUNCTIONS:
            original = getattr(analysis, fn)
            hook = self._samples_hook(original)
            if fn == "estimate_linear_regularity":
                hook = self._kappa_hook(hook)
            self._patch(analysis, fn, self.wrap(f"analysis.{fn}", original, on_call=hook))
        obtuse = self.wrap("analysis.is_obtuse_cone", sets_mod.is_obtuse_cone,
                           on_call=self._samples_hook(sets_mod.is_obtuse_cone))
        self._patch(sets_mod, "is_obtuse_cone", obtuse)
        self._patch(cli, "is_obtuse_cone", obtuse)

        for fn in AFFINE_FUNCTIONS:
            self._patch(affine, fn, self.wrap(f"affine.{fn}", getattr(affine, fn)))
        for fn, obj in list(vars(rates).items()):
            if inspect.isfunction(obj) and obj.__module__ == rates.__name__ \
                    and not fn.startswith("_"):
                self._patch(rates, fn, self.wrap(f"rates.{fn}", obj))

        load = self.wrap("scenario.load", scenario.load_bundled)
        self._patch(scenario, "load_bundled", load)
        self._patch(cli, "load_bundled", load)
        self._patch(scenario, "scenario_from_config",
                    self.wrap("scenario.load", scenario.scenario_from_config))
        self._patch(sets_mod, "set_from_config",
                    self.wrap("scenario.load", sets_mod.set_from_config))
        # scenario.py binds set_from_config at import; parsing recurses
        # through the sets module, so wrap the scenario module's name too.
        self._patch(scenario, "set_from_config", sets_mod.set_from_config)

        self._patch(cli, "execute_scenario", self.wrap("cli.execute_scenario",
                                                       cli.execute_scenario))
        self._patch(cli, "verify_suite", self.wrap("cli.verify_suite", cli.verify_suite))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- result hooks --------------------------------------------------------

    def _samples_hook(self, fn):
        sig = inspect.signature(fn)

        def hook(result, args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.samples_requested += int(bound.arguments["samples"])
        return hook

    def _kappa_hook(self, inner):
        def hook(result, args, kwargs):
            inner(result, args, kwargs)
            self.kappa_used += int(result.extra["used"])
            self.kappa_samples += int(result.samples)
        return hook

    def _on_run(self, traj, args, kwargs):
        self.run_cycles += traj.n_cycles
        self.run_loop_s += traj.wall_time_s

    # -- reduction ------------------------------------------------------------

    def layer_metrics(self, wall_s):
        """Per-layer metrics of the spans recorded since the last clear(),
        for a traced pass that took wall_s seconds, and the self time of
        each layer."""
        n = len(self.name)
        start = np.frombuffer(self.start, dtype=float, count=n)
        end = np.frombuffer(self.end, dtype=float, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        name = np.frombuffer(self.name, dtype=np.int64, count=n)
        k = len(self.names)
        dur = end - start
        child = parent >= 0
        child_time = np.bincount(parent[child], weights=dur[child], minlength=n)
        self_time = dur - child_time
        count_by = np.bincount(name, minlength=k)
        self_by = np.bincount(name, weights=self_time, minlength=k)
        incl_by = np.bincount(name, weights=dur, minlength=k)
        ids = self._ids

        def names_with(prefix):
            return [i for nm, i in ids.items() if nm.startswith(prefix)]

        def total(arr, prefix):
            return float(sum(arr[i] for i in names_with(prefix)))

        def per_call_us(nm):
            i = ids.get(nm)
            return float(incl_by[i] / count_by[i] * 1e6) if i is not None and count_by[i] else 0.0

        m = {}
        project_ids = names_with("sets.project:")
        l0_ids = np.array(project_ids + names_with("sets.distance"), dtype=np.int64)
        m["sets.project.calls"] = total(count_by, "sets.project:")
        m["sets.distance.calls"] = total(count_by, "sets.distance")
        m["sets.project.self_s"] = total(self_by, "sets.project:")
        m["sets.distance.self_s"] = total(self_by, "sets.distance")
        for tag in SET_TAGS.values():
            m[f"sets.project_us.{tag}"] = per_call_us(f"sets.project:{tag}")

        # L0 calls whose nearest analysis ancestor exists, per requested sample.
        is_analysis = np.zeros(k, dtype=bool)
        is_analysis[names_with("analysis.")] = True
        anc = np.where(is_analysis[name], np.arange(n), parent)
        pending = (anc >= 0) & ~is_analysis[name[np.maximum(anc, 0)]]
        while pending.any():
            anc[pending] = parent[anc[pending]]
            pending = (anc >= 0) & ~is_analysis[name[np.maximum(anc, 0)]]
        under = (anc >= 0) & np.isin(name, l0_ids)
        m["sets.calls_per_sample"] = (float(under.sum()) / self.samples_requested
                                      if self.samples_requested else 0.0)

        m["intersection.distance.calls"] = total(count_by, "intersection.distance")
        m["intersection.distance.self_s"] = total(self_by, "intersection.")
        # Member projections per call of the cyclic-projection fallback.
        oracle = ids.get("intersection.nearest.oracle")
        member = 0.0
        if oracle is not None and count_by[oracle]:
            member = float(np.sum((parent >= 0) & np.isin(name, project_ids)
                                  & (name[np.maximum(parent, 0)] == oracle))) / count_by[oracle]
        m["intersection.member_projects_per_call"] = member

        families = [f for _, f in OPERATOR_FAMILIES.values()]
        m["operators.apply.calls"] = total(count_by, "operators.apply:")
        m["operators.apply.self_s"] = total(self_by, "operators.")
        for fam in families:
            m[f"operators.apply_us.{fam}"] = per_call_us(f"operators.apply:{fam}")

        run_incl = total(incl_by, "runner.run")
        m["runner.cycles"] = float(self.run_cycles)
        m["runner.loop_s"] = self.run_loop_s
        m["runner.tables_s"] = run_incl - self.run_loop_s
        m["runner.run.self_s"] = total(self_by, "runner.run")
        m["runner.fit_rlinear.self_s"] = total(self_by, "runner.fit_rlinear")
        m["runner.checks.self_s"] = total(self_by, "runner.checks")

        for fn in ANALYSIS_NAMES:
            nm = f"analysis.{fn}"
            m[f"{nm}.calls"] = total(count_by, nm)
            m[f"{nm}.self_s"] = total(self_by, nm)
            m[f"{nm}.share"] = total(incl_by, nm) / wall_s
        m["analysis.kappa.used_ratio"] = (self.kappa_used / self.kappa_samples
                                          if self.kappa_samples else 0.0)

        for fn in AFFINE_FUNCTIONS:
            m[f"affine.{fn}.self_s"] = total(self_by, f"affine.{fn}")
        m["rates.self_s"] = total(self_by, "rates.")
        m["cli.execute_scenario.self_s"] = total(self_by, "cli.execute_scenario")

        layer_self = {layer: total(self_by, layer + ".") for layer in LAYERS}
        return m, layer_self

    def scenario_load_s(self):
        """Inclusive time of the outermost scenario-parsing spans recorded."""
        n = len(self.name)
        i = self._ids.get("scenario.load")
        if i is None or n == 0:
            return 0.0
        name = np.frombuffer(self.name, dtype=np.int64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        dur = (np.frombuffer(self.end, dtype=float, count=n)
               - np.frombuffer(self.start, dtype=float, count=n))
        outer = (name == i) & ((parent < 0) | (name[np.maximum(parent, 0)] != i))
        return float(dur[outer].sum())
