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
    DEFAULT_RTOL,
    ESCAPE_RADIUS,
    MAX_STEPS,
    DomainEscape,
    FlowError,
    InlineStep,
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
    observed_drift,
)
from holodyn.exppoly import ExpPoly, Frequency, TWO_PI_I
from holodyn.holonomy import _leafwise_rhs, holonomy_numeric
from holodyn.jets import Jet, JetError, JetMap
from holodyn import presets
from test_jets import value_bytes

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
    return presets.field_linear(lams).truncate(order)


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
    X = presets.field_example1(1, 1, 1, 1).truncate(6)
    f = formal_flow(X, 0.0, 6)
    assert f.max_abs_diff(JetMap.identity(2, 6)) < 1e-13


def test_formal_flow_group_law():
    X = presets.field_example1(2, 3, 1, 2).truncate(6)
    table = flow_coefficient_table(X, 6)
    fs = table.at_time(0.4)
    ft = table.at_time(0.6)
    whole = table.at_time(1.0)
    assert whole.max_abs_diff(fs.compose(ft)) < 1e-10


def test_formal_flow_time_derivative_matches_field():
    X = presets.field_example1(1, 1, 1, 1).truncate(5)
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
    X = presets.field_example1(1, 1, 1, 1).truncate(6)
    table = flow_coefficient_table(X, 6)
    assert table.ode_residual_max() < 1e-12


def test_numeric_flow_linear_analytic():
    X = linear_field([1.0 + 0.5j, -0.3])
    p = (0.2, 0.1)
    out = numeric_flow(X, p, 1.0)
    want = np.array([p[0] * cmath.exp(1.0 + 0.5j), p[1] * math.exp(-0.3)])
    assert np.max(np.abs(out - want)) < 1e-9


def test_formal_vs_numeric_cross_check():
    X = presets.field_example1(1, 1, 1, 1).truncate(10)
    f = formal_flow(X, 1.0, 10)
    for p in [(0.03, 0.04), (0.05, -0.02), (0.01j, 0.05)]:
        series = np.array(f.eval(p), dtype=complex)
        numeric = numeric_flow(X, p, 1.0)
        assert np.max(np.abs(series - numeric)) < 1e-6 * max(1.0, np.max(np.abs(numeric)))


def test_path_concatenation_consistency():
    # phi_0.5 o phi_0.5 = phi_1: two straight segments make the whole one
    X = presets.field_example1(2, 3, 1, 2).truncate(6)
    p = (0.1, 0.12)
    whole = numeric_flow(X, p, 1.0)
    half = numeric_flow(X, p, 0.5)
    rest = numeric_flow(X, tuple(half), 0.5)
    assert np.max(np.abs(whole - rest)) < 2e-10


def test_complex_time_segment():
    X = linear_field([1.0])
    out = numeric_flow(X, (0.3,), 1 + 1j)
    assert abs(out[0] - 0.3 * cmath.exp(1 + 1j)) < 1e-9


def test_domain_escape_raised():
    X = linear_field([5.0])
    with pytest.raises(DomainEscape):
        numeric_flow(X, (1.0,), 2.0)


@pytest.mark.parametrize("t", [0.5, -0.25, 0.5j, 0.3 - 0.4j])
@pytest.mark.parametrize("failure", [DomainEscape, StepUnderflow])
def test_a_flow_failure_reports_the_time_it_happened_at(monkeypatch, t, failure):
    """numeric_flow integrates dx/ds = t X(x) over s in [0, 1]; a failure at
    s is reported at the time s * t, a float when t is real.  x' = 5x from
    x = 1 escapes at s = log(10) / 5; x' = 2x^2 blows up at s = 1/2, inside
    any escape radius."""
    if failure is DomainEscape:
        X = linear_field([5 / t])
    else:
        X = VectorField([Jet(1, 2, {(2,): 2 / t})])
        monkeypatch.setattr(flows, "ESCAPE_RADIUS", 1e300)
    with pytest.raises(failure) as raw:
        integrate_ode(lambda s, y: [complex(t) * v for v in X.eval(y)], [1.0 + 0j])
    with pytest.raises(failure) as got:
        numeric_flow(X, (1.0,), t)
    s = raw.value.t
    assert 0 < s < 1 and got.value.t == s * t and type(got.value.t) is type(t)
    assert f"at t={s * t}" in str(got.value)
    assert got.value.point.tolist() == raw.value.point.tolist()


def test_step_limit_is_its_own_flow_error(monkeypatch):
    X = linear_field([1.0])
    monkeypatch.setattr(flows, "MAX_STEPS", 3)
    with pytest.raises(MaxStepsExceeded, match="did not finish within 3 steps"):
        integrate_ode(lambda t, x: X.eval(x), [0.1 + 0j])
    assert issubclass(MaxStepsExceeded, FlowError)
    assert not issubclass(MaxStepsExceeded, (DomainEscape, StepUnderflow))


def test_numeric_flow_at_time_zero_returns_the_point():
    X = linear_field([1.0, -2.0])
    out = numeric_flow(X, (0.3, 0.1j), 0)
    assert isinstance(out, np.ndarray) and out.tolist() == [0.3 + 0j, 0.1j]


def test_lie_derivative_first_integral():
    for (n, m, a, b) in ((1, 1, 1, 1), (2, 3, 1, 2)):
        X = presets.field_example1(n, m, a, b).truncate(8)
        g = Jet(2, 8, {(n, m): 1.0})
        assert lie_derivative(X, g).is_zero()


def test_lie_derivative_simple():
    X = linear_field([1.0])
    x = Jet.variable(0, 1, 6)
    assert lie_derivative(X, x).max_abs_diff(x) == 0.0


def test_first_integral_drift_conservation():
    for (n, m, a, b) in ((1, 1, 1, 1), (2, 3, 1, 2)):
        X = presets.field_example1(n, m, a, b).truncate(8)
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
    """The conservation check's inputs; and observed_drift on numeric_flow,
    at a real and a complex time, for a covariant x under x' = 2 pi i x."""
    for (n, m, a, b) in ((1, 1, 1, 1), (2, 3, 1, 2)):
        X, g = presets.field_example1(n, m, a, b), Jet(2, 8, {(n, m): 1.0 + 0j})
        assert first_integral_drift(X, g, (0.1, 0.12)) \
            == reference_first_integral_drift(X, g, (0.1, 0.12))
    rotation = linear_field([TWO_PI_I, -TWO_PI_I], order=8)
    g, expected, p = Jet.variable(0, 2, 8), ExpPoly.exponential(Frequency(1)), (0.1, 0.12)
    for t in (1.0, 0.5 + 0.5j):
        drift = observed_drift(
            g, p, expected, lambda watch: numeric_flow(rotation, p, t, observer=watch))
        assert drift == reference_first_integral_drift(rotation, g, p, t, expected)


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
    X = presets.field_example1(2, 3, 1, 2).truncate(6)
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
                            max_steps=MAX_STEPS, escape_radius=ESCAPE_RADIUS,
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


def unit_reference(f, x0, **kwargs):
    """The former integrate_ode over [0, 1], with integrate_ode's signature:
    its rtol is flows.DEFAULT_RTOL, read at call time."""
    return reference_integrate_ode(f, 0.0, 1.0, x0, rtol=flows.DEFAULT_RTOL, **kwargs)


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
    out = integrate(g, x0, observer=lambda t, x: states.append(t), **kwargs)
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
        new, steps, _ = observed_run(integrate_ode, rhs, p)
        old, old_steps, _ = observed_run(unit_reference, rhs, p)
        assert steps == old_steps
        assert_close(new, old)
        assert np.array_equal(holonomy_numeric(F, p, z0=z0), new)


@pytest.mark.parametrize("spec, p, t", [
    ("example1(1,1,1,1)", (0.1, 0.12), 1.0),
    ("example1(2,3,1,2)", (0.05 + 0.02j, -0.04j), 1.0),
    ("thmB", (0.04, 0.03j, 0.2), 1.0 + 0.25j),
])
def test_lean_core_retraces_the_numpy_integrator_on_flows(monkeypatch, spec, p, t):
    X = presets.load_field(spec)
    runs = []
    for integrate in (integrate_ode, unit_reference):
        monkeypatch.setattr(flows, "integrate_ode", integrate)
        times = []
        runs.append((numeric_flow(X, p, t, observer=lambda tz, x: times.append(tz)), times))
    (new, new_times), (old, old_times) = runs
    assert len(new_times) == len(old_times)
    assert_close(new, old)


def test_fsal_makes_six_calls_per_step(monkeypatch):
    """1 + 6 * (accepted + rejected) calls, against 7 per step before; the
    reference's step sequence gives the rejections."""
    thmB = _leafwise_rhs(presets.load_foliation("thmB"), 1.0 + 0j)
    stiff = lambda t, x: [-300.0 * v for v in x]  # noqa: E731
    for f, x0, rtol, kwargs, rejected in (
            (thmB, (0.03, 0.04j), DEFAULT_RTOL, {}, 0),
            (stiff, (1.0 + 0.5j,), 1e-13, {"atol": 1e-13}, None)):
        with monkeypatch.context() as m:
            m.setattr(flows, "DEFAULT_RTOL", rtol)
            _, steps, calls = observed_run(integrate_ode, f, x0, **kwargs)
            _, old_steps, old_calls = observed_run(unit_reference, f, x0, **kwargs)
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


def test_integrate_ode_takes_ndarray_right_hand_sides(monkeypatch):
    """f may return an ndarray; the end state and a failure's point are ndarrays."""
    f = lambda t, x: np.array(x, dtype=complex) * (1.0 + 0.5j)  # noqa: E731
    out = integrate_ode(f, [0.2, 0.1j])
    assert_close(out, np.array([0.2, 0.1j]) * cmath.exp(1.0 + 0.5j), tol=1e-9)
    with pytest.raises(DomainEscape) as escape:
        integrate_ode(lambda t, x: 10 * f(t, x), [0.2, 0.1j])
    assert isinstance(escape.value.point, np.ndarray)
    # x' = 2x^2 from x = 1 blows up at s = 1/2, inside any escape radius
    monkeypatch.setattr(flows, "ESCAPE_RADIUS", 1e300)
    with pytest.raises(StepUnderflow) as underflow:
        integrate_ode(lambda t, x: [2 * v * v for v in x], [1.0 + 0j])
    assert isinstance(underflow.value.point, np.ndarray)


# -- the generated step against the per-component loop it replaced ----------


def loop_integrate_ode(f, x0, atol=DEFAULT_ATOL, observer=None):
    """The former integrate_ode: one list comprehension per stage over the
    components, calling f as it stands.  The generated integrators must
    give its bits."""
    rtol = flows.DEFAULT_RTOL
    t = 0.0
    x = np.asarray(x0, dtype=complex).tolist()
    n = len(x)
    h = 1e-2
    if observer is not None:
        observer(t, x)
    _, c2, c3, c4, c5, _, _ = flows._DP_C
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65) = flows._DP_A[1:6]
    b1, _, b3, b4, b5, b6, _ = flows._DP_B5
    e1, _, e3, e4, e5, e6, e7 = (p - q for p, q in zip(flows._DP_B5, flows._DP_B4))
    k1 = f(t, x)
    for _ in range(flows.MAX_STEPS):
        if t + h > 1.0:
            h = 1.0 - t
        k2 = f(t + c2 * h, [xc + h * (a21 * p) for xc, p in zip(x, k1)])
        k3 = f(t + c3 * h, [xc + h * (a31 * p + a32 * q) for xc, p, q in zip(x, k1, k2)])
        k4 = f(t + c4 * h, [xc + h * (a41 * p + a42 * q + a43 * r)
                            for xc, p, q, r in zip(x, k1, k2, k3)])
        k5 = f(t + c5 * h, [xc + h * (a51 * p + a52 * q + a53 * r + a54 * s)
                            for xc, p, q, r, s in zip(x, k1, k2, k3, k4)])
        k6 = f(t + h, [xc + h * (a61 * p + a62 * q + a63 * r + a64 * s + a65 * u)
                       for xc, p, q, r, s, u in zip(x, k1, k2, k3, k4, k5)])
        x5 = [xc + h * (b1 * p + b3 * r + b4 * s + b5 * u + b6 * v)
              for xc, p, r, s, u, v in zip(x, k1, k3, k4, k5, k6)]
        k7 = f(t + h, x5)
        total = 0.0
        for xc, yc, p, r, s, u, v, w in zip(x, x5, k1, k3, k4, k5, k6, k7):
            err = h * (e1 * p + e3 * r + e4 * s + e5 * u + e6 * v + e7 * w)
            q = abs(err) / (atol + rtol * max(abs(xc), abs(yc)))
            total += q * q
        err_norm = math.sqrt(total / n)
        if err_norm <= 1.0:
            t = t + h
            x = x5
            k1 = k7
            if max(abs(v) for v in x) > flows.ESCAPE_RADIUS:
                raise DomainEscape(t, np.array(x, dtype=complex), flows.ESCAPE_RADIUS)
            if observer is not None:
                observer(t, x)
            if t >= 1.0 or 1.0 - t < 1e-14:
                return np.array(x, dtype=complex)
            factor = 5.0 if err_norm == 0 else min(5.0, 0.9 * err_norm ** -0.2)
        else:
            factor = max(0.2, 0.9 * err_norm ** -0.2)
        h = h * factor
        if h < 1e-14:
            raise StepUnderflow(t, np.array(x, dtype=complex))
    raise MaxStepsExceeded(f"integration did not finish within {flows.MAX_STEPS} steps")


def opaque(f):
    """f without the data that lets integrate_ode write it out inline."""
    return lambda s, x: f(s, x)


def run_record(run) -> tuple:
    """All that ``run(observer)`` shows, as bytes: each observed (time, state)
    and then the end state, or the failure's type, time, point and message."""
    seen = []

    def watch(s, x):
        seen.append((repr(s), [value_bytes(v) for v in x]))

    try:
        out = run(watch)
    except (FlowError, ArithmeticError, JetError) as e:
        point = getattr(e, "point", None)
        return seen, (type(e), repr(getattr(e, "t", None)), str(e),
                      None if point is None else (point.dtype, point.tobytes()))
    return seen, (out.dtype, out.tobytes())


def assert_kinds_agree(f, x0, inlined, **kwargs):
    """integrate_ode on f, its stage inlined or not as ``inlined`` says, on
    f called as it stands and the former loop: the same record, bit for bit."""
    assert isinstance(getattr(f, "inline", None), InlineStep) == inlined
    records = [run_record(lambda watch: integrate(g, x0, observer=watch, **kwargs))
               for integrate, g in ((integrate_ode, f), (integrate_ode, opaque(f)),
                                    (loop_integrate_ode, f))]
    assert records[0] == records[1] == records[2]
    return records[0]


def flow_rhs(X, t):
    """The right-hand side numeric_flow(X, p, t) hands to integrate_ode."""
    seen = []
    integrate = flows.integrate_ode
    try:
        flows.integrate_ode = lambda f, *args, **kwargs: seen.append(f)
        numeric_flow(X, (0j,) * X.n_vars, t)
    finally:
        flows.integrate_ode = integrate
    return seen[0]


FLOW_CASES = [
    ("example1(1,1,1,1)", (0.1, 0.12)),
    ("example1(2,3,1,2)", (0.05 + 0.02j, -0.04j)),
    ("thmB", (0.04, 0.03j, 0.2)),
    ("genH", (0.3, 0.2 - 0.1j)),
    ("linear(1,-2,0.5j)", (0.3, 0.1j, -0.2)),
]


@pytest.mark.parametrize("t", [1.0, 0.7, -1.0, -0.35, 1.0 + 0.25j, 0.5j])
@pytest.mark.parametrize("spec, p", FLOW_CASES)
def test_flow_segments_match_the_former_loop_bit_for_bit(monkeypatch, spec, p, t):
    X = presets.load_field(spec)
    assert_kinds_agree(flow_rhs(X, complex(t)), p, inlined=False)
    # numeric_flow itself, with its observer and failure times, on both paths
    records = []
    for integrate in (integrate_ode, loop_integrate_ode):
        monkeypatch.setattr(flows, "integrate_ode", integrate)
        records.append(run_record(lambda watch: numeric_flow(X, p, t, observer=watch)))
    assert records[0] == records[1]


def test_generated_opaque_step_matches_the_former_loop_bit_for_bit(monkeypatch):
    X = presets.load_field("example1(1,1,1,1)")
    rotate = lambda s, x: [(1.0 + 0.5j) * v * (1 + s) for v in x]  # noqa: E731
    array = lambda s, x: np.array(x, dtype=complex) * (0.5 - 1j)  # noqa: E731
    stiff = lambda s, x: [-300.0 * v for v in x]  # noqa: E731
    for f, x0, rtol, kwargs in ((rotate, [0.2, 0.1j, -0.3], DEFAULT_RTOL, {}),
                                (array, [0.2, 0.1j], DEFAULT_RTOL, {}),
                                (stiff, (1.0 + 0.5j,), 1e-13, {"atol": 1e-13}),
                                (lambda s, x: X.eval(x), (0.1, 0.12), DEFAULT_RTOL, {})):
        with monkeypatch.context() as m:
            m.setattr(flows, "DEFAULT_RTOL", rtol)
            assert assert_kinds_agree(f, x0, False, **kwargs)[1][0] == np.dtype(complex)
    # an ndarray right-hand side hands its NumPy scalars on to the observer
    seen, _ = assert_kinds_agree(array, [0.2, 0.1j], False)
    assert seen[1][1][0][0] is np.complex128


def test_generated_failures_read_the_bounds_at_call_time(monkeypatch):
    """DomainEscape, StepUnderflow and MaxStepsExceeded, with the bounds
    patched after each kernel was first compiled (the leafwise step's are in
    tests/test_holonomy.py)."""
    X = linear_field([5.0])
    blowup = VectorField([Jet(1, 2, {(2,): 2.0})])
    cases = [(flow_rhs(X, 2.0 + 0j), (1.0,)),
             (flow_rhs(blowup, 1.0 + 0j), (1.0,)),
             (lambda s, x: [2 * v * v for v in x], [1.0 + 0j]),
             (lambda s, x: np.array(x, dtype=complex) * 4.0, [0.2, 0.1j])]
    for f, x0 in cases:
        assert_kinds_agree(f, x0, False)  # compiles the kernel at the default bounds
    failures = []
    for patch in ({"ESCAPE_RADIUS": 1e300}, {"ESCAPE_RADIUS": 1.5}, {"MAX_STEPS": 3}):
        for name, value in patch.items():
            monkeypatch.setattr(flows, name, value)
        for f, x0 in cases:
            failures.append(assert_kinds_agree(f, x0, False)[1][0])
        monkeypatch.undo()
    done = np.dtype(complex)
    assert failures == [done, StepUnderflow, StepUnderflow, done,
                        DomainEscape, DomainEscape, DomainEscape, DomainEscape,
                        MaxStepsExceeded, MaxStepsExceeded, MaxStepsExceeded,
                        MaxStepsExceeded]


def test_a_kernel_is_compiled_once_per_shape(monkeypatch):
    """Every right-hand side on a 2-component state that carries no inline
    stage, such as each flow segment of a 2-variable field, shares one
    integrator."""
    flows._dp54.cache_clear()
    sources = []
    binder = flows._binder
    monkeypatch.setattr(flows, "_binder", lambda source: sources.append(source) or binder(source))
    for spec in ("example1(1,1,1,1)", "genF", "genH"):
        numeric_flow(presets.load_field(spec), (0.1, 0.12), 0.5)
    integrate_ode(lambda s, x: x, [0.1, 0.2])
    assert len(sources) == 1


def test_each_caller_takes_its_kind_of_kernel(monkeypatch):
    shapes = []
    dp54 = flows._dp54
    monkeypatch.setattr(flows, "_dp54", lambda *shape: shapes.append(shape) or dp54(*shape))
    numeric_flow(presets.load_field("thmB"), (0.04, 0.03j, 0.2))
    holonomy_numeric(presets.load_foliation("thmB"), (0.03, 0.04j))
    holonomy_numeric(presets.load_foliation("linear(1,2)"), (0.03,))
    integrate_ode(lambda s, x: x, [0.1])
    thmB = _leafwise_rhs(presets.load_foliation("thmB"), 1.0).inline.stage
    linear = _leafwise_rhs(presets.load_foliation("linear(1,2)"), 1.0).inline.stage
    assert shapes == [(3, None), (2, thmB), (1, linear), (1, None)]
    assert "f((y0, y1, z,))" in flows._dp54_source(2, thmB)
    assert "f((z, y0,))" in flows._dp54_source(1, linear)


def test_a_state_of_another_size_runs_f_as_it_stands():
    """A point whose size is not the foliation's fails as the former loop did."""
    f = _leafwise_rhs(presets.load_foliation("thmB"), 1.0)
    record = assert_kinds_agree(f, (0.1, 0.2, 0.3), True)
    assert record[1][:1] == (JetError,) and len(record[0]) == 1


def test_an_inline_attribute_of_another_type_is_not_inlined():
    """Only an InlineStep is written out inline; any other ``inline`` is f's own."""
    f = lambda s, x: [-v for v in x]  # noqa: E731
    f.inline = (1, "{k[0]} = 0.0", None, None)
    assert_kinds_agree(f, [0.1 + 0.2j], False)


def test_generated_steps_of_any_state_size_match_the_former_loop():
    """A state of 150 components splits the error norm's sum over lines; an
    empty state fails as the loop did, dividing by n = 0."""
    f = lambda s, x: [(-1 + 0.5j) * (1 + s) * v for v in x]  # noqa: E731
    assert flows.TERMS_PER_LINE < 150
    assert_kinds_agree(f, [0.01 * (k + 1) - 0.3j for k in range(150)], False)
    for integrate in (integrate_ode, loop_integrate_ode):
        with pytest.raises(ZeroDivisionError, match="float division by zero"):
            integrate(lambda s, x: [], [])


@pytest.mark.parametrize("size", [1, 3])
def test_a_right_hand_side_of_another_length_is_refused(size):
    """f must return one value per state component.  The former loop's zip
    dropped extra values, or shrank the state while the error norm still
    divided by the old size; the unrolled step refuses both at once."""
    with pytest.raises(ValueError, match="values to unpack"):
        integrate_ode(lambda s, x: [-x[0]] * size, [0.1, 0.2j])
