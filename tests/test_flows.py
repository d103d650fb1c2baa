"""Formal and numeric flows: analytic solutions, group law, conservation."""
import cmath
import importlib.util
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

import holodyn.flows as flows
from holodyn.flows import (
    DEFAULT_ATOL,
    DEFAULT_ESCAPE_RADIUS,
    DEFAULT_MAX_STEPS,
    DEFAULT_RTOL,
    DomainEscape,
    FlowError,
    MaxStepsExceeded,
    StepUnderflow,
    VectorField,
    first_integral_drift,
    flow_coefficient_table,
    flow_cross_check,
    formal_flow,
    integrate_ode,
    lie_derivative,
    numeric_flow,
)
from holodyn.exppoly import ExpPoly, Frequency, TWO_PI_I
from holodyn.holonomy import _leafwise_rhs, holonomy_numeric
from holodyn.jets import Jet, JetError, JetMap
from holodyn import presets

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name: str):
    """perfbench/<name>.py, loaded by path once (perfbench is not a package)."""
    module_name = f"perfbench_{name}"
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module  # dataclasses look their module up by name
        spec.loader.exec_module(module)
    return sys.modules[module_name]


def linear_field(lams, order=6):
    return presets.field_linear(lams, order)


def test_vector_field_rejects_constant_term():
    with pytest.raises(Exception):
        VectorField([Jet(1, 3, {(0,): 1.0})])


def test_origin_rule_matches_the_coefficient_solver():
    """Any stored constant term is rejected by the field itself, as by the
    solver; one pruned by the jets (below 1e-14) is not there at all."""
    def field(const):
        return [Jet(2, 4, {(0, 0): const, (1, 0): 1.0, (2, 0): 0.5}),
                Jet(2, 4, {(0, 1): -1.0})]

    with pytest.raises(JetError, match="vanish at the origin"):
        VectorField(field(5e-14))
    comps = field(5e-15)
    assert comps[0].constant_term() == 0
    assert flow_coefficient_table(VectorField(comps), 4).ode_residual_max() == 0.0


def test_eigenvalues_cached_iff_diagonal():
    X = linear_field([1.0, -2.0])
    assert X.eigenvalues == [1.0 + 0j, -2.0 + 0j]
    Y = VectorField([Jet(2, 3, {(0, 1): 1.0}), Jet(2, 3, {(1, 0): 1.0})])
    assert Y.eigenvalues is None


def test_formal_flow_linear_analytic():
    X = linear_field([1.0])
    f = formal_flow(X, 1.0, 4)
    assert abs(complex(f.components[0].coeff((1,))) - math.e) < 1e-12
    Z = linear_field([0.5j, -1.0])
    g = formal_flow(Z, 2.0, 4)
    assert abs(complex(g.components[0].coeff((1, 0))) - cmath.exp(1.0j)) < 1e-12
    assert abs(complex(g.components[1].coeff((0, 1))) - math.exp(-2.0)) < 1e-12


def test_formal_flow_identity_at_zero_time():
    X = presets.field_example1(1, 1, 1, 1, order=6)
    f = formal_flow(X, 0.0, 6)
    assert f.max_abs_diff(JetMap.identity(2, 6)) < 1e-13


def test_formal_flow_group_law():
    X = presets.field_example1(2, 3, 1, 2, order=6)
    table = flow_coefficient_table(X, 6)
    fs = table.at_time(0.4)
    ft = table.at_time(0.6)
    whole = table.at_time(1.0)
    assert whole.max_abs_diff(fs.compose(ft)) < 1e-10


def test_formal_flow_time_derivative_matches_field():
    X = presets.field_example1(1, 1, 1, 1, order=5)
    table = flow_coefficient_table(X, 5)
    eps = 1e-6
    fp = table.at_time(eps)
    fm = table.at_time(-eps)
    for j, comp in enumerate(X.components):
        for exp, c in comp.terms():
            d = (complex(fp.components[j].coeff(exp))
                 - complex(fm.components[j].coeff(exp))) / (2 * eps)
            assert abs(d - complex(c)) < 1e-6


def test_formal_flow_requires_diagonal_linear_part():
    Y = VectorField([Jet(2, 3, {(0, 1): 1.0}), Jet(2, 3, {(1, 0): -1.0})])
    with pytest.raises(FlowError):
        formal_flow(Y, 1.0, 3)


def test_diagonal_rule_matches_the_coefficient_solver():
    """Any stored off-diagonal linear coefficient makes the field non-diagonal,
    as in the solver; one pruned by the jets (below 1e-14) does not."""
    def field(off):
        return VectorField([Jet(2, 4, {(1, 0): 1.0, (0, 1): off, (2, 0): 0.5}),
                            Jet(2, 4, {(0, 1): -1.0})])

    stored = field(5e-14)
    assert stored.eigenvalues is None
    with pytest.raises(FlowError, match="diagonal linear part"):
        flow_coefficient_table(stored, 4)
    pruned = field(5e-15)
    assert pruned.eigenvalues == [1.0 + 0j, -1.0 + 0j]
    assert flow_coefficient_table(pruned, 4).ode_residual_max() == 0.0


def test_flow_table_ode_residual_zero():
    X = presets.field_example1(1, 1, 1, 1, order=6)
    table = flow_coefficient_table(X, 6)
    assert table.ode_residual_max() < 1e-12


def test_numeric_flow_linear_analytic():
    X = linear_field([1.0 + 0.5j, -0.3])
    p = (0.2, 0.1)
    out = numeric_flow(X, p, 1.0)
    want = np.array([p[0] * cmath.exp(1.0 + 0.5j), p[1] * math.exp(-0.3)])
    assert np.max(np.abs(out - want)) < 1e-9


def test_formal_vs_numeric_cross_check():
    X = presets.field_example1(1, 1, 1, 1, order=10)
    f = formal_flow(X, 1.0, 10)
    for p in [(0.03, 0.04), (0.05, -0.02), (0.01j, 0.05)]:
        series = np.array(f.eval(p), dtype=complex)
        numeric = numeric_flow(X, p, 1.0)
        assert np.max(np.abs(series - numeric)) < 1e-6 * max(1.0, np.max(np.abs(numeric)))


def test_path_concatenation_consistency():
    X = presets.field_example1(2, 3, 1, 2, order=6)
    p = (0.1, 0.12)
    whole = numeric_flow(X, p, 1.0)
    half = numeric_flow(X, p, 0.5)
    rest = numeric_flow(X, tuple(half), [0.0, 0.5])
    assert np.max(np.abs(whole - rest)) < 2e-10


def test_complex_time_polyline():
    # going around a closed polyline on a linear field returns to the start
    X = linear_field([1.0])
    p = (0.3,)
    out = numeric_flow(X, p, [0.0, 1.0j, 1.0 + 1.0j, 1.0])
    want = 0.3 * cmath.exp(1.0)
    assert abs(out[0] - want) < 1e-9


def test_domain_escape_raised():
    X = linear_field([5.0])
    with pytest.raises(DomainEscape):
        numeric_flow(X, (1.0,), 2.0)


def test_step_limit_is_its_own_flow_error():
    X = linear_field([1.0])
    with pytest.raises(MaxStepsExceeded, match="did not finish within 3 steps"):
        integrate_ode(lambda t, x: X.eval(x), 0.0, 1.0, [0.1 + 0j], max_steps=3)
    assert issubclass(MaxStepsExceeded, FlowError)
    assert not issubclass(MaxStepsExceeded, (DomainEscape, StepUnderflow))


def test_integrate_ode_zero_span():
    out = integrate_ode(lambda t, x: x, 0.0, 0.0, np.array([1.0 + 0j]))
    assert out[0] == 1.0 + 0j


def test_lie_derivative_first_integral():
    for (n, m, a, b) in ((1, 1, 1, 1), (2, 3, 1, 2)):
        X = presets.field_example1(n, m, a, b, order=8)
        g = Jet(2, 8, {(n, m): 1.0})
        assert lie_derivative(X, g).is_zero()


def test_lie_derivative_simple():
    X = linear_field([1.0])
    x = Jet.variable(0, 1, 6)
    assert lie_derivative(X, x).max_abs_diff(x) == 0.0


def test_first_integral_drift_conservation():
    for (n, m, a, b) in ((1, 1, 1, 1), (2, 3, 1, 2)):
        X = presets.field_example1(n, m, a, b, order=8)
        g = Jet(2, 8, {(n, m): 1.0})
        assert first_integral_drift(X, g, (0.1, 0.12)) < 1e-8


def reference_first_integral_drift(X, g, p, path=1.0, expected=None):
    """The former first_integral_drift, with its own observer closure."""
    base = g.eval(p)
    worst = 0.0

    def watch(tz, x):
        nonlocal worst
        target = base if expected is None else base * expected.eval(tz)
        worst = max(worst, abs(g.eval(x) - target))

    numeric_flow(X, p, path, observer=watch)
    return worst


def test_first_integral_drift_equals_the_former_observer():
    """The conservation check's inputs, plus a covariant x under x' = 2 pi i x."""
    cases = []
    for (n, m, a, b) in ((1, 1, 1, 1), (2, 3, 1, 2)):
        cases.append((presets.field_example1(n, m, a, b), Jet(2, 8, {(n, m): 1.0 + 0j}), None))
    rotation = linear_field([TWO_PI_I, -TWO_PI_I], order=8)
    cases.append((rotation, Jet.variable(0, 2, 8), ExpPoly.exponential(Frequency(1))))
    for X, g, expected in cases:
        for path in (1.0, [0, 0.5 + 0.5j, 1.0]):
            assert first_integral_drift(X, g, (0.1, 0.12), path, expected) \
                == reference_first_integral_drift(X, g, (0.1, 0.12), path, expected)


def test_first_integral_drift_zero_field():
    X = VectorField([Jet.zero(2, 4), Jet.zero(2, 4)])
    g = Jet.variable(0, 2, 4)
    assert first_integral_drift(X, g, (0.2, 0.1)) == 0.0


def test_vector_field_json_round_trip():
    X = presets.load_field("thmB")
    back = VectorField.from_json_dict(X.to_json_dict())
    assert type(back) is VectorField
    for a, b in zip(X.components, back.components):
        assert a.max_abs_diff(b) == 0.0
    assert back.eigenvalues == X.eigenvalues


def test_vector_field_is_a_jet_map():
    X = presets.load_field("thmB", 4)
    assert isinstance(X, JetMap) and (X.n_vars, X.order) == (3, X.components[0].order)
    p = (0.1, 0.2j, -0.3)
    assert X.eval(p) == tuple(c.eval(p) for c in X.components)
    assert X.eigenvalues == [row[i] for i, row in enumerate(X.linear_part())]
    with pytest.raises(JetError, match="VectorField must be square: 1 components, 2 variables"):
        VectorField([Jet(2, 3, {(1, 0): 1.0})])
    with pytest.raises(JetError, match="components must share n_vars and order"):
        VectorField([Jet(2, 3, {(1, 0): 1.0}), Jet(2, 4, {(0, 1): 1.0})])


def test_truncate_keeps_the_vector_field():
    X = presets.load_field("thmB", 7)
    up, down = X.truncate(9), X.truncate(4)
    assert type(up) is VectorField and type(down) is VectorField
    assert (up.order, down.order) == (9, 4)
    assert [c.coeffs for c in up.components] == [c.coeffs for c in X.components]
    assert all(sum(e) <= 4 for c in down.components for e in c.coeffs)
    assert up.eigenvalues == down.eigenvalues == X.eigenvalues


def test_flow_cross_check_rows_are_series_against_numeric_flow():
    """Each row is (p, fmap(p), numeric_flow(X, p, t), max-norm error), the
    comparison `holodyn flow --point` made inline before."""
    X = presets.field_example1(2, 3, 1, 2, order=6)
    t = 0.5 + 0.5j
    fmap = formal_flow(X, t, 6)
    points = [(0.04, 0.03j), (-0.02 + 0.01j, 0.05)]
    rows = flow_cross_check(X, fmap, points, t)
    assert [row[0] for row in rows] == points
    for p, series, numeric, err in rows:
        num = numeric_flow(X, p, t)
        ser = np.array(fmap.eval(p), dtype=complex)
        assert series.tolist() == ser.tolist() and numeric.tolist() == num.tolist()
        assert err == float(np.max(np.abs(ser - num))) and err < 1e-8


# -- the DP5(4) core against the NumPy integrator it replaced --------------------


def reference_integrate_ode(f, t0, t1, x0, rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
                            max_steps=DEFAULT_MAX_STEPS, escape_radius=DEFAULT_ESCAPE_RADIUS,
                            observer=None):
    """The former integrate_ode: seven stages on every step, each a Python
    sum over ndarrays, and a NumPy error norm.  ``f`` gets the state as a
    list and its value is taken with np.array, so both integrators run the
    same right-hand sides."""
    x = np.array(x0, dtype=complex)
    t = float(t0)
    t1 = float(t1)
    span = t1 - t0
    if span == 0:
        return x
    direction = 1.0 if span > 0 else -1.0
    h = direction * min(abs(span), 1e-2)
    h_min = abs(span) * 1e-14
    if observer is not None:
        observer(t, x)
    k = [None] * 7
    for _ in range(max_steps):
        if direction * (t + h - t1) > 0:
            h = t1 - t
        k[0] = np.array(f(t, x.tolist()), dtype=complex)
        for i in range(1, 7):
            xi = x + h * sum(a * k[j] for j, a in enumerate(flows._DP_A[i]))
            k[i] = np.array(f(t + flows._DP_C[i] * h, xi.tolist()), dtype=complex)
        x5 = x + h * sum(b * ki for b, ki in zip(flows._DP_B5, k) if b)
        err = h * sum((b5 - b4) * ki for b5, b4, ki in zip(flows._DP_B5, flows._DP_B4, k))
        scale = atol + rtol * np.maximum(np.abs(x), np.abs(x5))
        err_norm = math.sqrt(float(np.mean(np.abs(err / scale) ** 2)))
        if err_norm <= 1.0:
            t = t + h
            x = x5
            if np.max(np.abs(x)) > escape_radius:
                raise DomainEscape(t, x, escape_radius)
            if observer is not None:
                observer(t, x)
            if direction * (t - t1) >= 0 or abs(t - t1) < h_min:
                return x
            factor = 5.0 if err_norm == 0 else min(5.0, 0.9 * err_norm ** -0.2)
        else:
            factor = max(0.2, 0.9 * err_norm ** -0.2)
        h = h * factor
        if abs(h) < h_min:
            raise StepUnderflow(t, x)
    raise FlowError(f"integration did not finish within {max_steps} steps")


def counted(f):
    """f and a one-element list that counts its calls."""
    calls = [0]

    def g(t, x):
        calls[0] += 1
        return f(t, x)

    return g, calls


def observed_run(integrate, f, x0, **kwargs):
    """(end state, accepted steps, calls of f) of one integration over [0, 1]."""
    g, calls = counted(f)
    states = []
    out = integrate(g, 0.0, 1.0, x0, observer=lambda t, x: states.append(t), **kwargs)
    return out, len(states) - 1, calls[0]


def assert_close(new, old, tol=1e-13):
    new, old = np.asarray(new), np.asarray(old)
    assert isinstance(new, np.ndarray) and new.dtype == complex
    assert np.max(np.abs(new - old)) <= tol * np.max(np.abs(old))


def oracle_cases():
    """The presets and one benchmark dense foliation, with points |p| <= 0.05."""
    workloads = perfbench_module("workloads")
    rng = random.Random("integrate-ode")
    cases = [(presets.load_foliation("thmB"), 1.0 + 0j),
             (presets.load_foliation("example3"), 1.0 + 0j),
             (presets.load_foliation("thmB"), 0.3 + 0.5j),
             (workloads.dense_foliation(rng, 4), 1.0 + 0j)]
    return [(F, z0, workloads.polydisc_point(rng, 0.05)) for F, z0 in cases for _ in range(6)]


def test_dp5_tableau_is_first_same_as_last():
    assert flows._DP_A[6] == flows._DP_B5[:6] and flows._DP_B5[6] == 0.0
    assert flows._DP_C[6] == 1.0


def test_lean_core_retraces_the_numpy_integrator_on_oracle_points():
    """Same accepted steps, end points within 1e-13 relative."""
    for F, z0, p in oracle_cases():
        rhs = _leafwise_rhs(F, z0)
        new, steps, _ = observed_run(integrate_ode, rhs, p, escape_radius=10.0)
        old, old_steps, _ = observed_run(reference_integrate_ode, rhs, p, escape_radius=10.0)
        assert steps == old_steps
        assert_close(new, old)
        assert np.array_equal(holonomy_numeric(F, p, z0=z0), new)


@pytest.mark.parametrize("spec, p, path", [
    ("example1(1,1,1,1)", (0.1, 0.12), 1.0),
    ("example1(2,3,1,2)", (0.05 + 0.02j, -0.04j), 1.0),
    ("thmB", (0.04, 0.03j, 0.2), [0.0, 0.5 + 0.5j, 1.0 + 0.25j, 1.0]),
])
def test_lean_core_retraces_the_numpy_integrator_on_flows(monkeypatch, spec, p, path):
    X = presets.load_field(spec)
    runs = []
    for integrate in (integrate_ode, reference_integrate_ode):
        monkeypatch.setattr(flows, "integrate_ode", integrate)
        times = []
        runs.append((numeric_flow(X, p, path, observer=lambda tz, x: times.append(tz)), times))
    (new, new_times), (old, old_times) = runs
    assert len(new_times) == len(old_times)
    assert_close(new, old)


def test_fsal_makes_six_calls_per_step():
    """1 + 6 * (accepted + rejected) calls, against 7 per step before; the
    reference's step sequence gives the rejections."""
    thmB = _leafwise_rhs(presets.load_foliation("thmB"), 1.0 + 0j)
    stiff = lambda t, x: [-300.0 * v for v in x]  # noqa: E731
    for f, x0, kwargs, rejected in (
            (thmB, (0.03, 0.04j), {}, 0),
            (stiff, (1.0 + 0.5j,), {"rtol": 1e-13, "atol": 1e-13}, None)):
        _, steps, calls = observed_run(integrate_ode, f, x0, **kwargs)
        _, old_steps, old_calls = observed_run(reference_integrate_ode, f, x0, **kwargs)
        assert steps == old_steps and old_calls % 7 == 0
        tried = old_calls // 7
        if rejected is not None:
            assert tried - steps == rejected
        else:
            assert tried > steps  # the stiff case rejects steps
        assert calls == 1 + 6 * tried
    assert observed_run(integrate_ode, thmB, (0.03, 0.04j))[1:] == (86, 517)


def test_tracer_counts_six_calls_per_step():
    """The benchmark tracer's flows.rhs_per_integrate on one thmB point."""
    tracer = perfbench_module("tracing").Tracer()
    tracer.install()
    try:
        holonomy_numeric(presets.load_foliation("thmB"), (0.03, 0.04j))
    finally:
        tracer.uninstall()
    assert tracer.layer_metrics()["flows.rhs_per_integrate"] == 517.0


def test_integrate_ode_takes_ndarray_right_hand_sides():
    """f may return an ndarray; the end state and a failure's point are ndarrays."""
    f = lambda t, x: np.array(x, dtype=complex) * (1.0 + 0.5j)  # noqa: E731
    out = integrate_ode(f, 0.0, 1.0, [0.2, 0.1j])
    assert_close(out, np.array([0.2, 0.1j]) * cmath.exp(1.0 + 0.5j), tol=1e-9)
    with pytest.raises(DomainEscape) as escape:
        integrate_ode(f, 0.0, 10.0, [0.2, 0.1j])
    assert isinstance(escape.value.point, np.ndarray)
    with pytest.raises(StepUnderflow) as underflow:
        integrate_ode(lambda t, x: [v * v for v in x], 0.0, 2.0, [1.0 + 0j],
                      escape_radius=1e300)
    assert isinstance(underflow.value.point, np.ndarray)
