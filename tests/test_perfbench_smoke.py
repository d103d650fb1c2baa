"""Smoke test of the benchmark harness in ``perfbench/``.

Every workload builds at seed 0, and its warm-up item and first item pass
their gates.  The tracer patches its targets by name, so one install and
uninstall fails here when a refactor removes a function or method that
the traced run reports on.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

import holodyn.flows as flows
import holodyn.holonomy as holonomy
import holodyn.orbits as orbits
from holodyn import presets
from holodyn.jets import Jet

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_items_pass_their_gates(name):
    workload = workloads.WORKLOADS[name](0)
    for item in (workload.warmup, workload.items[0]):
        assert item.check(item.run()) is None, item.label


def test_tracer_install_and_uninstall():
    targets = [(Jet, "eval"), (holonomy, "integrate_ode"), (flows, "integrate_ode"),
               (holonomy, "build_monodromy_system"), (holonomy.MonodromySystem, "rhs"),
               # linear and permutation maps are evaluated by this method
               (orbits.TruncatedJetMap, "eval")]
    before = [owner.__dict__[name] for owner, name in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[name] is not orig
                   for (owner, name), orig in zip(targets, before))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[name] is orig for (owner, name), orig in zip(targets, before))


def test_a_traced_oracle_point_compiles_no_integrator_of_its_own(monkeypatch):
    """The tracer wraps the leafwise right-hand side, and the wrapped one runs
    on the integrator the untraced call compiled, with the same bits."""
    flows._dp54.cache_clear()
    sources = []
    binder = flows._binder
    monkeypatch.setattr(flows, "_binder", lambda source: sources.append(source) or binder(source))
    F, p = presets.load_foliation("thmB"), (0.03, 0.04j)
    untraced = holonomy.holonomy_numeric(F, p)
    assert sources == [flows._dp54_source(2)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = holonomy.holonomy_numeric(F, p)
    finally:
        tracer.uninstall()
    assert sources == [flows._dp54_source(2)]
    assert traced.tobytes() == untraced.tobytes()
    assert tracer.layer_metrics()["flows.integrate.calls"] == 1



def _traced_orbit(h, p, V, budget):
    """iterate_orbit's record and the tracer's layer metrics of that one call."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rec = orbits.iterate_orbit(h, p, V, budget=budget)
    finally:
        tracer.uninstall()
    return rec, tracer.layer_metrics()


def test_traced_orbit_steps_are_counted_by_map_class():
    """Each step of iterate_orbit runs through its map's class ``eval``: an
    H lattice seed's escaping runs take mu - 1 evaluations (mu counts n = 0
    too), and an example3 jet-map seed that exhausts a budget of 200 both
    ways takes 200 steps of the jet map and 200 of its inverse, which is
    named example3^-1 and so counted as an inverse evaluation."""
    V = orbits.DomainBall(workloads.GRID_RADIUS)
    seed = orbits.lattice_seeds(workloads.GRID_RADIUS, workloads.GRID_PER_AXIS,
                                low=workloads.GRID_LOW)[57]
    rec, metrics = _traced_orbit(presets.map_H(), seed, V, orbits.DEFAULT_BUDGET)
    assert rec.status == "Escaped"
    assert metrics["orbits.eval.ProductPreservingMap.calls"] \
        + metrics["orbits.inverse_eval.calls"] == rec.mu - 1
    jet, _ = holonomy.holonomy_series(presets.load_foliation("example3"), workloads.JET_ORDER)
    J = orbits.TruncatedJetMap(jet, name="example3")
    rec, metrics = _traced_orbit(J, (workloads.JET_MODULUS, workloads.JET_MODULUS * 1j), V, 200)
    assert rec.status == "BudgetExhausted"
    assert metrics["orbits.eval.TruncatedJetMap.calls"] \
        == metrics["orbits.inverse_eval.calls"] == 200
