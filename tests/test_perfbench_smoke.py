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
               (holonomy, "build_monodromy_system"), (holonomy.MonodromySystem, "rhs")]
    before = [owner.__dict__[name] for owner, name in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[name] is not orig
                   for (owner, name), orig in zip(targets, before))
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[name] is orig for (owner, name), orig in zip(targets, before))
