"""Holonomy: monodromy systems, exact vs numeric routes, normal forms."""
import cmath
import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holodyn import presets
from holodyn.exppoly import ExpPoly, Frequency, TWO_PI_I
from holodyn.flows import VectorField, formal_flow, integrate_ode
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
)
from holodyn.jets import Jet, JetMap


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
        old = integrate_ode(rhs, 0.0, 1.0, np.array(p, dtype=complex))
        assert np.max(np.abs(direct - old)) <= 1e-12


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
        numeric = holonomy_numeric(F, p, rtol=1e-12, atol=1e-12)
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

    integrate_ode(_leafwise_rhs(F, z0), 0.0, 1.0, np.array(p, dtype=complex),
                  escape_radius=10.0, observer=watch)
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
    m = JetMap([
        Jet(2, 4, {(1, 0): 1.0, (2, 0): 1.0}),
        Jet(2, 4, {(0, 1): 1.0}),
    ])
    with pytest.raises(NormalFormError):
        extract_normal_form(m)


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
