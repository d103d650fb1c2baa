"""Holonomy: monodromy systems, exact vs numeric routes, normal forms."""
import cmath
import itertools
import math
import random

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
    assert np.allclose(sys.linear_diagonal(), [-TWO_PI_I, -TWO_PI_I])
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


def test_oracle_rejects_loop_around_axis_singularity():
    # z(1 + z) d/dz: the axis has a second singular point at z = -1
    X = VectorField([
        Jet(3, 4, {(1, 0, 0): 1.0}),
        Jet(3, 4, {(0, 1, 0): -1.0}),
        Jet(3, 4, {(0, 0, 1): 1.0, (0, 0, 2): 1.0}),
    ])
    F = Foliation(X, separatrix_axis=2)
    with pytest.raises(HolonomyError, match=r"z = -1"):
        holonomy_numeric(F, (0.01, 0.01), z0=1.0)
    with pytest.raises(HolonomyError, match=r"z = -1"):
        monodromy_invariant_drift(F, Jet(2, 4, {(1, 1): 1.0}), (0.01, 0.01), z0=1.0)
    # the loop |z| = 0.5 encloses only z = 0, whose residue gives x -> x, y -> y
    out = holonomy_numeric(F, (0.01, 0.01), z0=0.5)
    assert np.max(np.abs(out - 0.01)) < 1e-9


def test_oracle_on_field_with_x_dependent_axis_unit():
    # (x + x^2 y, -y, -z - x z^3): the order-12 monodromy system is not
    # division-stable for this field, the direct oracle needs no division
    X = VectorField([
        Jet(3, 4, {(1, 0, 0): 1.0, (2, 1, 0): 1.0}),
        Jet(3, 4, {(0, 1, 0): -1.0}),
        Jet(3, 4, {(0, 0, 1): -1.0, (1, 0, 3): -1.0}),
    ])
    F = Foliation(X, separatrix_axis=2)
    with pytest.raises(HolonomyError):
        build_monodromy_system(F, 12)
    h, _ = holonomy_series(F, 4)
    errs = []
    for r in (0.02, 0.01):
        series = np.array(h.eval((r, r)), dtype=complex)
        errs.append(float(np.max(np.abs(series - holonomy_numeric(F, (r, r))))))
        assert errs[-1] <= 1e3 * r ** 5
    # the order-4 truncation error is O(r^5): halving r divides it by ~2^5
    assert 2 ** 4.5 < errs[0] / errs[1] < 2 ** 5.5


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
    expected = ExpPoly.exponential(Frequency.rational(-2))
    assert monodromy_invariant_drift(F, xy, (0.04, 0.05), expected=expected) < 1e-8


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


def test_realize_rejects_non_planar():
    X = presets.load_field("thmB")
    with pytest.raises(HolonomyError):
        realize_as_holonomy(X)
