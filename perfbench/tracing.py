"""Outside-in tracing of holodyn's layers for the benchmark's traced run.

The library is not modified.  Each layer's public entry points are
replaced, for the duration of the traced phase, at the place where the
caller looks them up: module globals for functions imported by name
(``holodyn.holonomy.integrate_ode``) and class attributes for methods
(``Jet.__mul__``).  The hot methods are aggregated as call counts plus
self time; only item-level calls keep a per-call span.

Self time is a span's duration minus the time covered by its child spans,
so the self times of one pass add up to at most the pass's wall time.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import holodyn.coefficients as coefficients
import holodyn.flows as flows
import holodyn.holonomy as holonomy
import holodyn.orbits as orbits
from holodyn.exppoly import ExpPoly
from holodyn.jets import Jet

# forward map classes reported one by one; any instance named "...^-1" is an
# inverse and is reported under orbits.inverse_eval
MAP_CLASSES = (
    "LinearMap",
    "PermutationMap",
    "ProductPreservingMap",
    "OneVarParabolicMap",
    "TimeOneMap",
    "TruncatedJetMap",
)
ITEM_STATS = {
    "iterate_orbit": "orbits.iterate",
    "pseudogroup_orbit": "orbits.bfs",
    "petal_analysis": "orbits.petal",
    "holonomy_series": "holonomy.series",
    "holonomy_numeric": "holonomy.numeric",
    "flow_coefficient_table": "flows.table",
}
VERDICTS = ("Escaped", "Periodic", "BudgetExhausted")


class Tracer:
    """Span stack, per-name aggregates and item spans of one traced pass."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0])  # name -> [calls, self seconds]
        self.counts = defaultdict(int)
        self.spans = []
        self.paused = False
        self._stack = [0.0]  # child time of each open span; the bottom is the root
        self._patches = []

    # -- spans -----------------------------------------------------------

    def _timed(self, fn, stats_for):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec = stats_for(args)
                rec[0] += 1
                rec[1] += dt - stack.pop()
                stack[-1] += dt

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def item(self, kind: str, label: str):
        """Per-call span around one item-level call into the library."""
        rec = self.stats[ITEM_STATS[kind]]
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            rec[0] += 1
            rec[1] += (t1 - t0) - self._stack.pop()
            self._stack[-1] += t1 - t0
            if kind == "pseudogroup_orbit":
                self.counts["orbits.bfs.busy_s"] += t1 - t0
            self.spans.append({"name": kind, "item": label, "start": t0, "end": t1,
                               "parent": None})

    @contextmanager
    def pause(self):
        """Run gates without attributing their calls to the layers."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- patching --------------------------------------------------------

    def _patch(self, owner, name, replacement):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    def _patch_fixed(self, owner, name, stat):
        rec = self.stats[stat]
        self._patch(owner, name, self._timed(owner.__dict__[name], lambda args: rec))

    def install(self):
        self._patch_fixed(Jet, "__mul__", "jets.mul")
        self._patch_fixed(Jet, "compose", "jets.compose")
        self._patch_fixed(Jet, "eval", "jets.eval")
        self._patch_fixed(ExpPoly, "__mul__", "exppoly.mul")
        self._patch_fixed(coefficients, "solve_linear_ode", "exppoly.solve")
        self._patch_fixed(holonomy, "build_monodromy_system", "holonomy.build")
        self._patch_fixed(holonomy.MonodromySystem, "rhs", "holonomy.rhs")
        for module in (holonomy, flows):
            self._patch(module, "solve_coefficient_system",
                        self._coefficient_solver(module.solve_coefficient_system))
            self._patch(module, "integrate_ode", self._integrator(module.integrate_ode))
        map_eval = self._map_eval_stats()
        for cls in vars(orbits).values():
            if isinstance(cls, type) and issubclass(cls, orbits.EvaluableMap) \
                    and cls is not orbits.EvaluableMap and "eval" in cls.__dict__:
                self._patch(cls, "eval", self._timed(cls.__dict__["eval"], map_eval))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _coefficient_solver(self, solve):
        counts = self.counts
        timed = self._timed(solve, lambda args, rec=self.stats["coefficients.solve"]: rec)

        def traced(*args, **kwargs):
            table = timed(*args, **kwargs)
            if not self.paused:
                counts["coefficients.entries"] += len(table.entries)
                counts["coefficients.expoly_terms"] += sum(
                    len(p.terms) for p in table.entries.values())
            return table

        return traced

    def _integrator(self, integrate):
        counts = self.counts
        timed = self._timed(integrate, lambda args, rec=self.stats["flows.integrate"]: rec)

        def traced(f, *args, **kwargs):
            if self.paused:
                return integrate(f, *args, **kwargs)

            def counted(t, x):
                counts["flows.rhs"] += 1
                return f(t, x)

            return timed(counted, *args, **kwargs)

        return traced

    def _map_eval_stats(self):
        stats = self.stats
        inverse = stats["orbits.inverse_eval"]

        def stats_for(args):
            m = args[0]
            if m.name.endswith("^-1"):
                return inverse
            return stats[f"orbits.eval.{type(m).__name__}"]

        return stats_for

    # -- results ---------------------------------------------------------

    def record_result(self, kind: str, result):
        if kind == "iterate_orbit":
            self.counts[f"orbits.verdict.{result.status}"] += 1
        elif kind == "pseudogroup_orbit":
            self.counts["orbits.bfs.points"] += result.cardinality

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the traced pass, by metric name."""
        s = self.stats
        out = {}
        for stat in ("jets.mul", "jets.compose", "jets.eval", "exppoly.mul", "exppoly.solve",
                     "coefficients.solve", "holonomy.build", "holonomy.rhs",
                     "flows.integrate", "orbits.iterate", "orbits.inverse_eval"):
            out[f"{stat}.calls"] = s[stat][0]
            out[f"{stat}.self_s"] = s[stat][1]
        for name in MAP_CLASSES:
            out[f"orbits.eval.{name}.calls"] = s[f"orbits.eval.{name}"][0]
            out[f"orbits.eval.{name}.self_s"] = s[f"orbits.eval.{name}"][1]
        out["coefficients.entries"] = self.counts["coefficients.entries"]
        out["coefficients.expoly_terms"] = self.counts["coefficients.expoly_terms"]
        integrations = s["flows.integrate"][0]
        out["flows.rhs_per_integrate"] = (
            self.counts["flows.rhs"] / integrations if integrations else 0.0)
        # one step is one map evaluation; its cost is the orbit layer's own
        # time (drivers plus map evaluations, children excluded) per step
        steps = s["orbits.inverse_eval"][0] + sum(s[f"orbits.eval.{n}"][0] for n in MAP_CLASSES)
        busy = sum(s[k][1] for k in ("orbits.iterate", "orbits.bfs", "orbits.petal",
                                     "orbits.inverse_eval"))
        busy += sum(s[f"orbits.eval.{n}"][1] for n in MAP_CLASSES)
        out["orbits.step_us"] = 1e6 * busy / steps if steps else 0.0
        points = self.counts["orbits.bfs.points"]
        out["orbits.bfs.points"] = points
        bfs_s = self.counts["orbits.bfs.busy_s"]
        out["orbits.bfs.points_per_s"] = points / bfs_s if bfs_s else 0.0
        for verdict in VERDICTS:
            out[f"orbits.verdict.{verdict}"] = self.counts[f"orbits.verdict.{verdict}"]
        return out

    def self_seconds(self) -> float:
        """Sum of the self time of every span, item spans included."""
        return sum(rec[1] for rec in self.stats.values())
