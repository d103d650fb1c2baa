"""Formal and numeric flows: analytic solutions, group law, conservation."""
import cmath
import math

import numpy as np
import pytest

from holodyn.flows import (
    DomainEscape,
    FlowError,
    VectorField,
    first_integral_drift,
    flow_coefficient_table,
    formal_flow,
    integrate_ode,
    lie_derivative,
    numeric_flow,
)
from holodyn.exppoly import ExpPoly, Frequency, TWO_PI_I
from holodyn.jets import Jet, JetError, JetMap
from holodyn import presets


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
        numeric_flow(X, (1.0,), 2.0, escape_radius=10.0)


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
    cases.append((rotation, Jet.variable(0, 2, 8), ExpPoly.exponential(Frequency.rational(1))))
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
    for a, b in zip(X.components, back.components):
        assert a.max_abs_diff(b) == 0.0
    assert back.eigenvalues == X.eigenvalues
