"""Holonomy: monodromy systems, exact vs numeric routes, normal forms."""
import cmath
import itertools
import math
import random
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import holodyn.flows as flows_module
import holodyn.holonomy as holonomy_module
from holodyn import presets
from holodyn.exppoly import ExpPoly, Frequency, TWO_PI_I
from holodyn.flows import (DomainEscape, InlineStep, MaxStepsExceeded, VectorField,
                           formal_flow, integrate_ode)
from holodyn.holonomy import (
    Foliation,
    HolonomyError,
    NormalFormError,
    build_monodromy_system,
    extract_normal_form,
    holonomy_numeric,
    holonomy_series,
    monodromy_invariant_drift,
    realize_as_holonomy,
    _leafwise_rhs,
    _leafwise_stage,
)
from holodyn.jets import Jet, JetMap
from test_flows import assert_kinds_agree, run_record
from test_jets import count_builds, reference_eval, value_bytes


# -- foliation validation ----------------------------------------------------


def test_axis_invariance_enforced():
    # d/dx component containing a pure-z monomial breaks axis invariance
    X = VectorField([
        Jet(3, 4, {(1, 0, 0): 1.0, (0, 0, 2): 1.0}),
        Jet(3, 4, {(0, 1, 0): 1.0}),
        Jet(3, 4, {(0, 0, 1): -1.0}),
    ])
    with pytest.raises(HolonomyError):
        Foliation(X, separatrix_axis=2)


def test_axis_component_divisibility_enforced():
    X = VectorField([
        Jet(3, 4, {(1, 0, 0): 1.0}),
        Jet(3, 4, {(0, 1, 0): 1.0}),
        Jet(3, 4, {(1, 1, 0): -1.0}),  # not divisible by z
    ])
    with pytest.raises(HolonomyError):
        Foliation(X, separatrix_axis=2)


def test_zero_axis_eigenvalue_rejected():
    X = VectorField([
        Jet(3, 4, {(1, 0, 0): 1.0}),
        Jet(3, 4, {(0, 1, 0): 1.0}),
        Jet(3, 4, {(1, 0, 1): -1.0}),  # z*(x) only, no linear z term
    ])
    with pytest.raises(HolonomyError):
        Foliation(X, separatrix_axis=2)


# -- monodromy system structure ----------------------------------------------


def test_monodromy_frequencies_degree4_example():
    F = presets.load_foliation("thmB")
    sys = build_monodromy_system(F, 4)
    freqs = {m for terms in sys.terms for m, _ in terms}
    assert freqs == {0, 3}
    # linear part: dx/dt = -2 pi i x, dy/dt = -2 pi i y
    alphas = holonomy_series(F, 4)[1].alphas
    assert np.allclose([a.value for a in alphas], [-TWO_PI_I, -TWO_PI_I])
    # the frequency-3 coupling is +/- 2 pi i x^3 y (resp. x^2 y^2)
    x_terms = dict(sys.terms[0])
    assert abs(complex(x_terms[3].coeff((3, 1))) + TWO_PI_I) < 1e-12
    y_terms = dict(sys.terms[1])
    assert abs(complex(y_terms[3].coeff((2, 2))) - TWO_PI_I) < 1e-12


def test_monodromy_frequencies_degree3_example():
    F = presets.load_foliation("example3")
    sys = build_monodromy_system(F, 4)
    freqs = {m for terms in sys.terms for m, _ in terms}
    assert freqs == {0, 2}
    x_terms = dict(sys.terms[0])
    assert abs(complex(x_terms[2].coeff((2, 1))) + TWO_PI_I) < 1e-12


def test_realized_field_has_frequency_zero_only():
    F = presets.load_foliation("genF")
    sys = build_monodromy_system(F, 6)
    freqs = {m for terms in sys.terms for m, _ in terms}
    assert freqs == {0}


# -- exact route ---------------------------------------------------------------


def test_degree4_example_headline_coefficients():
    F = presets.load_foliation("thmB")
    h, table = holonomy_series(F, 4)
    for comp in h.components:
        for exp, c in comp.terms():
            if 2 <= sum(exp) <= 3:
                assert abs(complex(c)) < 1e-12
    assert abs(complex(h.components[0].coeff((3, 1))) + TWO_PI_I) < 1e-10
    assert abs(complex(h.components[1].coeff((2, 2))) - TWO_PI_I) < 1e-10
    assert table.ode_residual_max() < 1e-12
    # the stored coefficient function is the resonant -2 pi i t e^{-2 pi i t}
    a31 = table.entry(0, (3, 1))
    assert abs(a31.eval(0.5) - (-TWO_PI_I * 0.5 * cmath.exp(-TWO_PI_I * 0.5))) < 1e-12


def test_linear_foliation_diagonal_holonomy():
    for lams in ((1, -1, -2), (2, -1, -3)):
        F = presets.load_foliation("linear(%s)" % ",".join(map(str, lams)))
        h, _ = holonomy_series(F, 4)
        for j, lam in enumerate(lams[1:]):
            exp = tuple(1 if k == j else 0 for k in range(2))
            want = cmath.exp(TWO_PI_I * lam / lams[0])
            assert abs(complex(h.components[j].coeff(exp)) - want) < 1e-12


def test_realization_identity_all_generators():
    for name in ("genF", "genH", "genLinear"):
        Y = presets.load_field(name, order=6)
        h, _ = holonomy_series(realize_as_holonomy(Y), 6)
        assert h.max_abs_diff(formal_flow(Y, 1.0, 6)) < 1e-10


def test_z0_scaling_changes_representative():
    F = presets.load_foliation("example3")
    h1, _ = holonomy_series(F, 4, z0=1.0)
    h2, _ = holonomy_series(F, 4, z0=0.5)
    # z0 scaling conjugates the jet: the degree-3 coupling picks up z0^2
    c1 = complex(h1.components[0].coeff((2, 1)))
    c2 = complex(h2.components[0].coeff((2, 1)))
    assert abs(c2 - c1 * 0.25) < 1e-10


# -- numeric route --------------------------------------------------------------


def test_series_numeric_agreement_grid():
    F = presets.load_foliation("thmB")
    h, _ = holonomy_series(F, 8)
    worst = 0.0
    for x in np.linspace(0.01, 0.05, 5):
        for y in np.linspace(0.01, 0.05, 5):
            series = np.array(h.eval((x, y)), dtype=complex)
            numeric = holonomy_numeric(F, (x, y))
            worst = max(worst, float(np.max(np.abs(series - numeric))))
    assert worst < 1e-6


def test_numeric_fixes_origin():
    F = presets.load_foliation("example3")
    out = holonomy_numeric(F, (0.0, 0.0))
    assert np.max(np.abs(out)) < 1e-12


def seeded_dense_foliation(seed: int) -> Foliation:
    """Eigenvalues (1, -2 | 3), every degree-2-3 monomial of transverse
    degree >= 2 in the transverse components and an axis unit
    3 + (x, y terms of degree 1-2)."""
    rng = random.Random(seed)

    def coeff():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    comps = []
    for j, lam in enumerate((1.0, -2.0)):
        coeffs = {tuple(1 if k == j else 0 for k in range(3)): lam}
        for exp in itertools.product(range(4), repeat=3):
            if 2 <= sum(exp) <= 3 and exp[0] + exp[1] >= 2:
                coeffs[exp] = coeff()
        comps.append(Jet(3, 4, coeffs))
    axis = {(0, 0, 1): 3.0}
    for a, b in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
        axis[(a, b, 1)] = coeff()
    comps.append(Jet(3, 4, axis))
    return Foliation(VectorField(comps), separatrix_axis=2)


@pytest.mark.parametrize("z0", [1.0, 0.7, 0.3 + 0.5j])
@pytest.mark.parametrize("name", ["thmB", "example3", "dense"])
def test_direct_oracle_matches_order12_monodromy_system(name, z0):
    # the oracle integrates the leafwise equations directly; the truncated
    # order-12 monodromy system it replaced must give the same return map
    F = seeded_dense_foliation(7) if name == "dense" else presets.load_foliation(name)
    rhs = build_monodromy_system(F, 12, z0=z0).rhs
    for p in ((0.03 + 0.01j, -0.02 + 0.04j), (0.05, 0.01j)):
        direct = holonomy_numeric(F, p, z0=z0)
        old = integrate_ode(rhs, np.array(p, dtype=complex))
        assert np.max(np.abs(direct - old)) <= 1e-12


def reference_leafwise_rhs(F: Foliation, z0: complex):
    """The former right-hand side: the old evaluation loop, run once on the
    axis component and once on each transverse one."""
    axis = F.separatrix_axis
    axis_comp = F.field.components[axis]
    trans_comps = [F.field.components[j] for j in F.transverse_indices]

    def rhs(t, x):
        z = z0 * cmath.exp(TWO_PI_I * t)
        point = (*x[:axis], z, *x[axis:])
        scale = TWO_PI_I * z / reference_eval(axis_comp, point)
        return [scale * reference_eval(comp, point) for comp in trans_comps]

    return rhs


def oracle_points(name: str) -> list:
    """The points above, plus points of the polydisc of radius 0.05 the
    benchmark's oracle draws from."""
    rng = random.Random(name)
    return [(0.03 + 0.01j, -0.02 + 0.04j), (0.05, 0.01j)] + [
        tuple(0.05 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
              for _ in range(2))
        for _ in range(4)
    ]


@pytest.mark.parametrize("z0", [1.0, 0.7, 0.3 + 0.5j])
@pytest.mark.parametrize("name", ["thmB", "example3", "dense"])
def test_leafwise_rhs_matches_the_former_three_call_rhs_bit_for_bit(name, z0):
    F = seeded_dense_foliation(7) if name == "dense" else presets.load_foliation(name)
    rhs, old = _leafwise_rhs(F, z0), reference_leafwise_rhs(F, z0)
    for p in oracle_points(name):
        for t in (0.0, 0.3, 0.75):
            assert [value_bytes(v) for v in rhs(t, list(p))] \
                == [value_bytes(v) for v in old(t, list(p))]
        want = integrate_ode(old, np.array(p, dtype=complex))
        assert holonomy_numeric(F, p, z0=z0).tobytes() == want.tobytes()


def test_holonomy_numeric_builds_the_field_evaluator_once(monkeypatch):
    """One evaluator build per field, and one evaluator call per right-hand
    side: a rebuild per call would slow the oracle several times over."""
    F = presets.load_foliation("thmB")
    rhs_calls = []

    def counting_integrate(f, *args, **kwargs):
        def counted(t, x):
            rhs_calls.append(t)
            return f(t, x)

        return integrate_ode(counted, *args, **kwargs)

    monkeypatch.setattr(holonomy_module, "integrate_ode", counting_integrate)
    counts = count_builds(monkeypatch)
    for k, p in enumerate(oracle_points("thmB")[:3], start=1):
        holonomy_numeric(F, p)
        assert counts["builds"] == 1
        assert counts["calls"] == len(rhs_calls)
        assert len(rhs_calls) > 100 * k


def seeded_foliation(seed: int, n_vars: int, axis: int) -> Foliation:
    """Eigenvalues 1, -2, ... on the transverse variables and 3 on the axis,
    every transverse component with each degree-2-3 monomial that has a
    transverse factor, and an axis unit 3 + (transverse terms of degree 1-2)."""
    rng = random.Random(seed)
    trans = [j for j in range(n_vars) if j != axis]

    def coeff():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    def unit(j):
        return tuple(int(k == j) for k in range(n_vars))

    monomials = [e for e in itertools.product(range(4), repeat=n_vars) if 2 <= sum(e) <= 3]
    comps = []
    for j in range(n_vars):
        if j == axis:
            coeffs = {unit(axis): 3.0}
            for e in monomials:
                if e[axis] == 0 and sum(e) <= 2:
                    coeffs[tuple(c + (k == axis) for k, c in enumerate(e))] = coeff()
            coeffs.update({tuple(c + (k == axis) for k, c in enumerate(unit(i))): coeff()
                           for i in trans})
        else:
            coeffs = {unit(j): (1.0, -2.0, 0.5j)[trans.index(j)]}
            coeffs.update({e: coeff() for e in monomials if sum(e) > e[axis]})
        comps.append(Jet(n_vars, 4, coeffs))
    return Foliation(VectorField(comps), separatrix_axis=axis)


LEAFWISE_CASES = (
    [(name, lambda name=name: presets.load_foliation(name))
     for name in ("thmB", "example3", "linear(1,2)", "linear(2,1,-1)", "genF", "genH",
                  "genLinear")]
    + [(f"dense{k}", lambda k=k: seeded_dense_foliation(k)) for k in range(3)]
    + [("4-var-axis-3", lambda: seeded_foliation(1, 4, 3)),
       ("4-var-axis-1", lambda: seeded_foliation(2, 4, 1)),
       ("3-var-axis-0", lambda: seeded_foliation(3, 3, 0))]
)


@pytest.mark.parametrize("z0", [1.0, 0.7, 0.3 + 0.5j])
@pytest.mark.parametrize("name, build", LEAFWISE_CASES, ids=[c[0] for c in LEAFWISE_CASES])
def test_generated_leafwise_step_matches_the_former_loop_bit_for_bit(name, build, z0):
    """holonomy_numeric, its right-hand side run as it stands and the former
    loop: the same observed states and end state, bit for bit."""
    F = build()
    rng = random.Random(name)
    rhs = _leafwise_rhs(F, z0)
    assert rhs.inline == InlineStep(F.field.n_vars - 1,
                                    _leafwise_stage(F.field.n_vars, F.separatrix_axis),
                                    F.field.evaluator(), z0)
    for _ in range(3):
        p = tuple(0.05 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
                  for _ in range(F.field.n_vars - 1))
        record = assert_kinds_agree(rhs, p, True)
        assert record == run_record(
            lambda watch: holonomy_numeric(F, p, z0=z0, observer=watch))
        assert record[1][0] == np.dtype(complex)


def test_generated_leafwise_failures_match_the_former_loop(monkeypatch):
    """DomainEscape and MaxStepsExceeded on the leafwise step, with the bounds
    patched after its kernel was compiled."""
    F = presets.load_foliation("thmB")
    rhs = _leafwise_rhs(F, 1.0)
    p = (0.03 + 0.01j, -0.02 + 0.04j)
    assert_kinds_agree(rhs, p, True)
    monkeypatch.setattr(flows_module, "ESCAPE_RADIUS", 0.0316)
    assert assert_kinds_agree(rhs, p, True)[1][0] is DomainEscape
    monkeypatch.setattr(flows_module, "MAX_STEPS", 5)
    monkeypatch.setattr(flows_module, "ESCAPE_RADIUS", 10.0)
    assert assert_kinds_agree(rhs, p, True)[1][0] is MaxStepsExceeded


def test_fresh_copies_of_a_preset_share_one_kernel(monkeypatch):
    """Two fresh copies of a foliation preset integrate with one compiled
    kernel; the first build compiles it once."""
    flows_module._dp54.cache_clear()
    sources = []
    binder = flows_module._binder

    def counting(source):
        sources.append(source)
        return binder(source)

    monkeypatch.setattr(flows_module, "_binder", counting)
    first, second = presets.load_foliation("example3"), presets.load_foliation("example3")
    assert first is not second and first.field is not second.field
    kernels = set()
    for F in (first, second):
        holonomy_numeric(F, (0.03, 0.02j))
        step = _leafwise_rhs(F, 1.0).inline
        kernels.add(flows_module._dp54(step.size, step.stage))
    assert len(sources) == 1 and len(kernels) == 1


# -- closed forms ----------------------------------------------------------------


# the presets of the family x(1 + m) d/dx + y(1 - m) d/dy - z d/dz, m = x^i y^j z^k
SIEGEL_PRESETS = {"thmB": (2, 1, 3), "example3": (1, 1, 2)}
# j = 1..4, i = j or j + 1, k at the resonance i + j and one past it
SIEGEL_FAMILY = [(i, j, k) for j in range(1, 5) for i in (j, j + 1) for k in (i + j, i + j + 1)]


def closed_form_holonomy(exponents, order: int, z0: complex) -> list:
    """The holonomy coefficients of the family member m = x^i y^j z^k,
    {exponent: value} per component, truncated at ``order``:

    - i = j, k = 2j: X = x*e^(-s*(xy)^j), Y = xy/X, with s = 2 pi i z0^(2j);
    - i = j + 1, k = 2j + 1: X = x/(1 + s*x^(j+1)*y^j), Y = xy/X, with
      s = 2 pi i z0^(2j+1);
    - any other k: the identity.
    """
    i, j, k = exponents
    ns = [n for n in range(order) if 1 + n * k <= order]
    if i == j and k == 2 * j:
        s = TWO_PI_I * z0 ** k
        return [{(1 + n * j, n * j): (-s) ** n / math.factorial(n) for n in ns},
                {(n * j, 1 + n * j): s ** n / math.factorial(n) for n in ns}]
    if i == j + 1 and k == 2 * j + 1:
        s = TWO_PI_I * z0 ** k
        return [{(1 + n * i, n * j): (-s) ** n for n in ns},
                {(0, 1): 1.0 + 0j, **({(i, i): s} if k + 1 <= order else {})}]
    return [{(1, 0): 1.0 + 0j}, {(0, 1): 1.0 + 0j}]


def assert_matches_closed_form(h: JetMap, want: list, tol: float):
    """Each closed-form coefficient to ``tol`` relative, and each other
    coefficient to ``tol`` times the largest closed-form one of its degree
    (so exactly 0 in a degree with none)."""
    top = {}
    for comp in want:
        for e, c in comp.items():
            top[sum(e)] = max(top.get(sum(e), 0.0), abs(c))
    for got, comp in zip(h.components, want):
        for e, c in comp.items():
            assert abs(got.coeff(e) - c) <= tol * abs(c), (e, got.coeff(e), c)
        for e, c in got.coeffs.items():
            if e not in comp:
                assert abs(c) <= tol * top.get(sum(e), 0.0), (e, c)


@pytest.mark.parametrize("z0", [1.0, 0.7, 0.3 + 0.5j])
@pytest.mark.parametrize("name, order, tol", [
    ("thmB", 16, 1e-14), ("thmB", 32, 1e-14), ("example3", 16, 2e-13),
])
def test_holonomy_series_matches_the_closed_form(name, order, tol, z0):
    """The two presets against their closed forms, by
    ``assert_matches_closed_form``.

    Measured: at most 1.7e-15 for thmB at orders 16 and 32, and 4.9e-14 for
    example3 at order 16.  example3 loses digits with the order: 1.2e-11 at
    order 24 and 2.8e-8 at order 32, so no higher order is bounded here
    until the error growth is found.
    """
    h, _ = holonomy_series(presets.load_foliation(name), order, z0=z0)
    assert_matches_closed_form(h, closed_form_holonomy(SIEGEL_PRESETS[name], order, z0), tol)


@pytest.mark.parametrize("z0", [1.0, 0.7, 0.3 + 0.5j])
@pytest.mark.parametrize("order", [8, 16])
@pytest.mark.parametrize("exponents", SIEGEL_FAMILY, ids=lambda e: "x{}y{}z{}".format(*e))
def test_siegel_family_holonomy_matches_the_closed_form(exponents, order, z0):
    """Every family member of SIEGEL_FAMILY against its closed form, by
    ``assert_matches_closed_form``; off resonance no non-linear term may be
    stored.

    Measured: at most 4.9e-14 for (1, 1, 2), example3, at order 16, at most
    8.7e-16 for every other triple, and 2.5e-16 off resonance.
    """
    tol = 2e-13 if exponents == SIEGEL_PRESETS["example3"] else 1e-14
    F = Foliation(presets._at_least(presets._siegel_family(exponents), order), 2)
    h, _ = holonomy_series(F, order, z0=z0)
    assert_matches_closed_form(h, closed_form_holonomy(exponents, order, z0), tol)


@pytest.mark.parametrize("z0", [1.0, 0.7, 0.3 + 0.5j])
@pytest.mark.parametrize("name", ["thmB", "example3"])
def test_numeric_holonomy_matches_the_closed_form(name, z0):
    """Measured at most 1.84e-10 at these points, the integrator's own floor."""
    F = presets.load_foliation(name)
    for x, y in ((0.03 + 0.01j, -0.02 + 0.04j), (0.05, 0.01j)):
        if name == "thmB":
            w = 1 + TWO_PI_I * z0 ** 3 * x * x * y
            want = (x / w, y * w)
        else:
            s = TWO_PI_I * z0 ** 2
            want = (x * cmath.exp(-s * x * y), y * cmath.exp(s * x * y))
        assert np.max(np.abs(holonomy_numeric(F, (x, y), z0=z0) - want)) <= 1e-9


def axis_singularity_foliation() -> Foliation:
    """(x, -y, z(1 + z)): the axis has a second singular point at z = -1."""
    X = VectorField([
        Jet(3, 4, {(1, 0, 0): 1.0}),
        Jet(3, 4, {(0, 1, 0): -1.0}),
        Jet(3, 4, {(0, 0, 1): 1.0, (0, 0, 2): 1.0}),
    ])
    return Foliation(X, separatrix_axis=2)


def test_oracle_rejects_loop_around_axis_singularity():
    F = axis_singularity_foliation()
    with pytest.raises(HolonomyError, match=r"z = -1"):
        holonomy_numeric(F, (0.01, 0.01), z0=1.0)
    with pytest.raises(HolonomyError, match=r"z = -1"):
        monodromy_invariant_drift(F, Jet(2, 4, {(1, 1): 1.0}), (0.01, 0.01), z0=1.0)
    # the loop |z| = 0.5 encloses only z = 0, whose residue gives x -> x, y -> y
    out = holonomy_numeric(F, (0.01, 0.01), z0=0.5)
    assert np.max(np.abs(out - 0.01)) < 1e-9


def test_both_routes_reject_base_point_zero():
    F = presets.load_foliation("thmB")
    g = Jet(2, 4, {(1, 1): 1.0})
    for call in (lambda: build_monodromy_system(F, 4, z0=0),
                 lambda: holonomy_series(F, 4, z0=0j),
                 lambda: holonomy_numeric(F, (0.01, 0.01), z0=0),
                 lambda: monodromy_invariant_drift(F, g, (0.01, 0.01), z0=0)):
        with pytest.raises(HolonomyError, match=r"z0 = 0"):
            call()


def x_dependent_unit_foliation() -> Foliation:
    """(x + x^2 y, -y, -z - x z^3): the axis unit u = -1 - x z^2 has a
    constant z-only part, so the exact route accepts it at every order."""
    X = VectorField([
        Jet(3, 4, {(1, 0, 0): 1.0, (2, 1, 0): 1.0}),
        Jet(3, 4, {(0, 1, 0): -1.0}),
        Jet(3, 4, {(0, 0, 1): -1.0, (1, 0, 3): -1.0}),
    ])
    return Foliation(X, separatrix_axis=2)


def test_oracle_on_field_with_x_dependent_axis_unit():
    F = x_dependent_unit_foliation()
    numeric = {r: holonomy_numeric(F, (r, r)) for r in (0.04, 0.02)}
    for order in range(2, 7):
        h, _ = holonomy_series(F, order)
        errs = [float(np.max(np.abs(np.array(h.eval((r, r)), dtype=complex) - numeric[r])))
                for r in (0.04, 0.02)]
        # the truncation error is O(r^(order+1)) (measured constants 6 to 300)
        # and falls by ~2^(order+1) when r halves; from order 7 up both
        # errors sit at the integrator's ~1e-10
        for r, err in zip((0.04, 0.02), errs):
            assert err <= 1e3 * r ** (order + 1), (order, r, err)
        assert 2 ** (order + 0.5) <= errs[0] / errs[1] <= 2 ** (order + 1.5), (order, errs)


def test_exact_route_rejects_axis_unit_with_z_terms_at_every_order():
    # 1/u(0, z) = 1/(1 + z) has infinitely many loop frequencies
    F = axis_singularity_foliation()
    want = "the axis unit u(0, z) = (1+0j)*z^0 + (1+0j)*z^1 is not constant"
    messages = set()
    for order in (2, 3, 4, 7):
        with pytest.raises(HolonomyError, match=re.escape(want)) as err:
            build_monodromy_system(F, order)
        messages.add(str(err.value))
    assert len(messages) == 1


def reference_monodromy_terms(F: Foliation, order: int, z0: complex = 1.0 + 0j):
    """The builder the sized working order replaced: divide at order +
    max(zmax, 1) and, when the unit is not constant, once more one degree
    higher, rejecting the field (None) unless the two agree."""
    n = F.field.n_vars
    axis = F.separatrix_axis
    zmax = max(c.max_degree_in(axis) for c in F.field.components)
    work_order = order + max(zmax, 1)
    axis_comp = F.field.components[axis].truncate(work_order)
    u_coeffs = {}
    for exp, c in axis_comp.coeffs.items():
        e = list(exp)
        e[axis] -= 1
        u_coeffs[tuple(e)] = c
    u = Jet(n, work_order, u_coeffs)
    u_inv = u.reciprocal()
    trans = F.transverse_indices
    unit_constant = all(sum(e) == 0 for e in u.coeffs)
    terms = []
    for j in trans:
        numer = F.field.components[j].truncate(work_order) * u_inv * TWO_PI_I
        if not unit_constant:
            check = (F.field.components[j].truncate(work_order + 1)
                     * u.truncate(work_order + 1).reciprocal() * TWO_PI_I)
            for exp, c in check.coeffs.items():
                if sum(exp[k] for k in trans) > order:
                    continue
                if abs(numer.coeffs.get(exp, 0.0 + 0j) - c) > 1e-10:
                    return None
        by_freq = {}
        for exp, c in numer.coeffs.items():
            t_exp = tuple(exp[k] for k in trans)
            if sum(t_exp) > order:
                continue
            m = exp[axis]
            scaled = c * z0 ** m if m else c
            bucket = by_freq.setdefault(m, {})
            bucket[t_exp] = bucket.get(t_exp, 0.0 + 0j) + scaled
        rows = [(m, Jet(len(trans), order, coeffs)) for m, coeffs in sorted(by_freq.items())]
        terms.append([(m, jet) for m, jet in rows if not jet.is_zero()])
    return terms


def high_axis_foliation() -> Foliation:
    """An x-dependent axis unit with terms of degree 8 and 9, above the
    orders it is built at."""
    X = VectorField([
        Jet(3, 9, {(1, 0, 0): 1.0, (2, 1, 0): 0.5, (2, 0, 1): 0.25}),
        Jet(3, 9, {(0, 1, 0): -2.0, (1, 2, 0): 0.3j}),
        Jet(3, 9, {(0, 0, 1): 3.0, (1, 1, 1): 0.5, (4, 3, 1): 0.7, (0, 8, 1): -0.2}),
    ])
    return Foliation(X, separatrix_axis=2)


def _differential_cases(name):
    if name == "dense":
        return [(seeded_dense_foliation(seed), order, 1.0)
                for seed in range(6) for order in (4, 6, 8)]
    if name == "high-axis":
        return [(high_axis_foliation(), order, 1.0) for order in (2, 3, 4, 5)]
    F = presets.load_foliation(name)
    return [(F, order, z0) for order in (4, 8, 12) for z0 in (1.0, 0.7, 0.3 + 0.5j)]


@pytest.mark.parametrize("name", ["thmB", "example3", "linear(1,-1,-2)", "genF", "genH",
                                  "genLinear", "dense", "high-axis"])
def test_sized_working_order_matches_reference_builder(name):
    for F, order, z0 in _differential_cases(name):
        want = reference_monodromy_terms(F, order, z0)
        assert want is not None, (order, z0)
        got = build_monodromy_system(F, order, z0=z0).terms
        # same frequencies, same monomials in the same order, same floats
        assert [[(m, list(jet.coeffs.items())) for m, jet in row] for row in got] == \
            [[(m, list(jet.coeffs.items())) for m, jet in row] for row in want]


def fractional_unit_foliation() -> Foliation:
    """u = 3 + 0.5 x z + 0.7 x^2 z^3: the largest k/|T| is 3/2, so the
    z-degree bound has a floor; the x z term of X_x reaches zmax = 1."""
    X = VectorField([
        Jet(3, 6, {(1, 0, 0): 1.0, (1, 0, 1): 0.5}),
        Jet(3, 6, {(0, 1, 0): -2.0, (1, 1, 0): 0.3j}),
        Jet(3, 6, {(0, 0, 1): 3.0, (1, 0, 2): 0.5, (2, 0, 4): 0.7}),
    ])
    return Foliation(X, separatrix_axis=2)


def single_division_terms(F: Foliation, order: int, work_order: int) -> dict:
    """{(component, m, transverse exponent): coefficient} of 2 pi i X_j/u,
    divided once at ``work_order`` and cut to transverse degree <= order."""
    axis = F.separatrix_axis
    trans = F.transverse_indices
    u_coeffs = {exp[:axis] + (exp[axis] - 1,) + exp[axis + 1:]: c
                for exp, c in F.field.components[axis].truncate(work_order).coeffs.items()}
    u_inv = Jet(F.field.n_vars, work_order, u_coeffs).reciprocal()
    out = {}
    for row, j in enumerate(trans):
        numer = F.field.components[j].truncate(work_order) * u_inv * TWO_PI_I
        for exp, c in numer.coeffs.items():
            t_exp = tuple(exp[k] for k in trans)
            if sum(t_exp) <= order:
                out[row, exp[axis], t_exp] = c
    return out


@pytest.mark.parametrize("make", [x_dependent_unit_foliation, fractional_unit_foliation])
def test_sized_working_order_clips_no_kept_term(make):
    # the units here have x-dependent terms carrying z, so the working order
    # grows with floor(k*(order - 1)/|T|); ten degrees more must add nothing
    F = make()
    for order in range(2, 10):
        got = {(row, m, t_exp): c
               for row, freqs in enumerate(build_monodromy_system(F, order).terms)
               for m, jet in freqs for t_exp, c in jet.coeffs.items()}
        want = single_division_terms(F, order, 3 * order + 11)
        for key in got.keys() | want.keys():
            a, b = got.get(key, 0j), want.get(key, 0j)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (order, key, a, b)


EIGENVALUES = (1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 0.5)


@st.composite
def admissible_foliations(draw):
    """Random 3-variable foliations with axis z whose axis unit has a
    constant z-only part: transverse components lambda_j x_j plus terms of
    transverse degree >= 2, axis component z * (lambda + terms in x, y)."""
    coeff = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    lam = [draw(st.sampled_from(EIGENVALUES)) for _ in range(3)]
    trans_monos = [e for e in itertools.product(range(4), repeat=3)
                   if 2 <= sum(e) <= 4 and e[0] + e[1] >= 2]
    comps = []
    for j in range(2):
        coeffs = {tuple(1 if k == j else 0 for k in range(3)): lam[j]}
        for exp in draw(st.lists(st.sampled_from(trans_monos), min_size=1, max_size=4,
                                 unique=True)):
            coeffs[exp] = draw(coeff)
        comps.append(Jet(3, 4, coeffs))
    axis = {(0, 0, 1): lam[2]}
    unit_monos = [(a, b, 1) for a in range(3) for b in range(3) if 1 <= a + b <= 2]
    for exp in draw(st.lists(st.sampled_from(unit_monos), max_size=3, unique=True)):
        axis[exp] = draw(coeff)
    comps.append(Jet(3, 4, axis))
    return Foliation(VectorField(comps), separatrix_axis=2)


@settings(max_examples=15)
@given(admissible_foliations(), st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi))
def test_series_matches_direct_oracle_to_truncation_order(F, a, b):
    order = 3
    h, _ = holonomy_series(F, order)
    errs = []
    for r in (0.04, 0.02):
        p = (r * cmath.exp(1j * a), r * cmath.exp(1j * b))
        series = np.array(h.eval(p), dtype=complex)
        # holonomy_numeric's own integration, at tighter tolerances (a
        # function-scoped fixture cannot serve a hypothesis test)
        with mock.patch.object(flows_module, "DEFAULT_RTOL", 1e-12):
            numeric = integrate_ode(_leafwise_rhs(F, 1.0), p, atol=1e-12)
        errs.append(float(np.max(np.abs(series - numeric))))
    # an O(r^(order+1)) error falls by ~2^(order+1) when r halves (14.5 or
    # more over 150 draws), an error of degree <= order by 2^order or less;
    # 3e-11 covers the integrator (7.5e-12 at most when the series is exact)
    assert errs[1] <= errs[0] / 2 ** (order + 0.5) + 3e-11


def test_covariant_product_law():
    F = presets.load_foliation("example3")
    xy = Jet(2, 12, {(1, 1): 1.0})
    expected = ExpPoly.exponential(Frequency(-2))
    assert monodromy_invariant_drift(F, xy, (0.04, 0.05), expected=expected) < 1e-8


def reference_monodromy_invariant_drift(F, g, p, expected=None, z0=1.0 + 0j):
    """The former monodromy_invariant_drift, with its own observer closure."""
    base = g.eval(p)
    worst = 0.0

    def watch(t, x):
        nonlocal worst
        target = base if expected is None else base * expected.eval(t)
        worst = max(worst, abs(g.eval(x) - target))

    integrate_ode(_leafwise_rhs(F, z0), np.array(p, dtype=complex), observer=watch)
    return worst


def test_monodromy_invariant_drift_equals_the_former_observer():
    """The product-preservation check's input, plus plain x*y on thmB at z0 = 0.7."""
    xy = Jet(2, 12, {(1, 1): 1.0 + 0j})
    cases = [(presets.load_foliation("example3"), ExpPoly.exponential(Frequency(-2)),
              1.0 + 0j),
             (presets.load_foliation("thmB"), None, 0.7 + 0j)]
    for F, expected, z0 in cases:
        assert monodromy_invariant_drift(F, xy, (0.04, 0.05), expected=expected, z0=z0) \
            == reference_monodromy_invariant_drift(F, xy, (0.04, 0.05), expected, z0)


# -- product preservation and normal forms --------------------------------------


def test_xy_preserved_exactly():
    xy = Jet(2, 8, {(1, 1): 1.0})
    for name in ("thmB", "example3"):
        h, _ = holonomy_series(presets.load_foliation(name), 8)
        assert xy.compose(h).max_abs_diff(xy) < 1e-13


def test_normal_form_degree3_example():
    h, _ = holonomy_series(presets.load_foliation("example3"), 6)
    nf = extract_normal_form(h)
    assert (nf.a, nf.b) == (1, 1)
    assert abs(abs(nf.f0) - 2 * math.pi) < 1e-9


def test_normal_form_degree4_example():
    h, _ = holonomy_series(presets.load_foliation("thmB"), 8)
    nf = extract_normal_form(h)
    assert (nf.a, nf.b) == (2, 1)
    assert abs(nf.f0 + TWO_PI_I) < 1e-9


# thmB has f(0) = -2 pi i z0^3 and example3 f(0) = -2 pi i z0^2; z0 = 1e-4
# puts thmB's x^3 y coefficient at 6.3e-12, below the former absolute cut
NORMAL_FORM_BASE_POINTS = (1.0, 0.7, 0.3 + 0.5j, 1e-3, 1e-4)


@pytest.mark.parametrize("order", [4, 8])
@pytest.mark.parametrize("name, ab, m", [("thmB", (2, 1), 3), ("example3", (1, 1), 2)])
def test_normal_form_does_not_depend_on_the_base_point(name, ab, m, order):
    """(a, b) is the same at every base point, and f(0) / z0^m agrees."""
    ratios = []
    for z0 in NORMAL_FORM_BASE_POINTS:
        h, _ = holonomy_series(presets.load_foliation(name, order), order, z0=complex(z0))
        nf = extract_normal_form(h)
        assert (nf.a, nf.b) == ab, z0
        ratios.append(nf.f0 / z0 ** m)
    for r in ratios:
        assert abs(r - ratios[0]) <= 1e-9 * abs(ratios[0])


FOLIATION_PRESETS = ("thmB", "example3", "linear(1,-1,-2)", "genF", "genH", "genLinear")


@pytest.mark.parametrize("z0", [1.0 + 0j, 0.3 + 0.5j])
@pytest.mark.parametrize("order", [4, 6])
@pytest.mark.parametrize("name", FOLIATION_PRESETS)
def test_holonomy_is_a_prefix_of_the_higher_order_holonomy(name, order, z0):
    """h_N equals h_(N+2) truncated to N, coefficient for coefficient."""
    h, _ = holonomy_series(presets.load_foliation(name, order), order, z0=z0)
    higher, _ = holonomy_series(presets.load_foliation(name, order + 2), order + 2, z0=z0)
    assert h.max_abs_diff(higher.truncate(order)) == 0.0


def test_normal_form_identity_map():
    nf = extract_normal_form(JetMap.identity(2, 6))
    assert (nf.a, nf.b) == (0, 0)
    assert nf.f.is_zero()


def test_normal_form_rejects_non_tangent():
    m = JetMap.linear([[2.0, 0.0], [0.0, 0.5]], 4)
    with pytest.raises(NormalFormError):
        extract_normal_form(m)


def test_normal_form_rejects_non_preserving():
    # (x + c x^2, y): at c = 1e-11 every non-linear coefficient is below
    # NORMAL_FORM_TOL, yet x*y gains c x^2 y, all of its own scale
    for c in (1.0, 1e-11):
        m = JetMap([
            Jet(2, 4, {(1, 0): 1.0, (2, 0): c}),
            Jet(2, 4, {(0, 1): 1.0}),
        ])
        with pytest.raises(NormalFormError, match=r"does not preserve x\*y"):
            extract_normal_form(m)


@pytest.mark.parametrize("name, ab", [("thmB", (2, 1)), ("genH", (2, 1)), ("example3", (1, 1))])
def test_normal_form_fits_at_order_32(name, ab):
    """Coefficients of thmB's holonomy reach 1e8 at order 32, so x*y composed
    with it has defects near 1e-8 in absolute terms; relative to the same
    composition on magnitudes they are rounding, and the map is fitted."""
    h, _ = holonomy_series(presets.load_foliation(name, 32), 32, z0=1.0)
    nf = extract_normal_form(h)
    assert (nf.a, nf.b) == ab


def test_normal_form_rejects_two_monomial_patterns():
    # (x(1 + u), y/(1 + u)) with u = y^2/2 + x y/4 preserves x*y, but u is
    # not a series in one monomial x^a y^b
    u = Jet(2, 6, {(0, 2): 0.5, (1, 1): 0.25})
    one = Jet.constant(2, 6, 1.0 + 0j)
    x, y = Jet.variable(0, 2, 6), Jet.variable(1, 2, 6)
    h = JetMap([x * (one + u), y * (one + u).reciprocal()])
    with pytest.raises(NormalFormError, match=r"^monomial x\^1 y\^1 is not a power of x\^0 y\^1$"):
        extract_normal_form(h)


def test_realize_rejects_non_planar():
    X = presets.load_field("thmB")
    with pytest.raises(HolonomyError):
        realize_as_holonomy(X)
