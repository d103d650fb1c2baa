"""The online coefficient engine against the compose-based recursion it replaced.

The solver takes a system as built, linear part included; the reference
takes the split it used to be handed: the diagonal alpha_j and the forcing
terms of degree >= 2.
"""
import cmath
import itertools
import random
import re
from operator import add

import pytest

from holodyn import presets
from holodyn.coefficients import (
    CoefficientSystemError,
    CoefficientTable,
    solve_coefficient_system,
)
from holodyn.exppoly import ExpPoly, Frequency, TWO_PI_I, mul_terms_into, solve_linear_ode
from holodyn.flows import VectorField, flow_coefficient_table
from holodyn.holonomy import Foliation, build_monodromy_system
from holodyn.jets import Jet

PRESETS = ("thmB", "example3", "linear(1,-1,-2)", "genF", "genH", "genLinear")
TOL = 1e-12


# A series truncated at a degree, with exponential-polynomial coefficients:
# monomial -> ExpPoly term dict.  Each operation prunes its result once, as
# ExpPoly._from_clean does, and drops the monomials left with no term.


def _pruned(series: dict) -> dict:
    out = {}
    for exp, terms in series.items():
        terms = ExpPoly._from_clean(terms).terms
        if terms:
            out[exp] = terms
    return out


def series_constant(n: int, c: complex, m: int = 0) -> dict:
    """c e^(2 pi i m t) as a series in n variables."""
    return {(0,) * n: {(0, Frequency(m)): c}}


def series_add(a: dict, b: dict) -> dict:
    out = {exp: dict(terms) for exp, terms in a.items()}
    for exp, terms in b.items():
        acc = out.setdefault(exp, {})
        for key, c in terms.items():
            acc[key] = acc.get(key, 0.0 + 0j) + c
    return _pruned(out)


def series_mul(a: dict, b: dict, order: int) -> dict:
    out = {}
    for e1, p1 in a.items():
        for e2, p2 in b.items():
            exp = tuple(map(add, e1, e2))
            if sum(exp) <= order:
                mul_terms_into(out.setdefault(exp, {}), p1, p2)
    return _pruned(out)


def series_compose(jet: Jet, phi: list, order: int) -> dict:
    """jet(phi_0, ..., phi_n-1) truncated at ``order``: the sum over the jet's
    terms c x^A of c * prod phi_i^A_i, each power built once."""
    one = series_constant(len(phi), 1.0 + 0j)
    powers = [[one] for _ in phi]
    out = {}
    for exp, c in jet.terms():
        term = one
        for i, e in enumerate(exp):
            while len(powers[i]) <= e:
                powers[i].append(series_mul(powers[i][-1], phi[i], order))
            if e:
                term = series_mul(term, powers[i][e], order)
        out = series_add(out, series_mul(term, series_constant(len(phi), c), order))
    return out


def reference_solve(alphas, forcing, order) -> CoefficientTable:
    """The former degree loop: recompose every forcing jet with the whole
    truncated solution at every degree and keep the degree-d terms."""
    n = len(alphas)
    freqs = [Frequency.coerce(a) for a in alphas]
    table = CoefficientTable(n, order, freqs)
    for j in range(n):
        exp = tuple(1 if k == j else 0 for k in range(n))
        table.entries[(j, exp)] = solve_linear_ode(freqs[j], ExpPoly.zero(), 1.0)
        table.forcings[(j, exp)] = ExpPoly.zero()

    for d in range(2, order + 1):
        phi = [{exp: p.terms for (i, exp), p in table.entries.items() if i == j and sum(exp) <= d}
               for j in range(n)]
        for j in range(n):
            g_total = {}
            for m, jet in forcing[j]:
                composed = series_compose(jet.truncate(d), phi, d)
                if m != 0:
                    composed = series_mul(composed, series_constant(n, 1.0 + 0j, m), d)
                g_total = series_add(g_total, composed)
            for exp, terms in g_total.items():
                if sum(exp) != d:
                    continue
                g = ExpPoly._from_clean(terms)
                table.entries[(j, exp)] = solve_linear_ode(freqs[j], g, 0.0)
                table.forcings[(j, exp)] = g
    return table


def split_linear_part(system):
    """The frequency-0 diagonal of the linear part and the terms of degree
    >= 2, as the monodromy system used to split itself."""
    alphas, forcing = [], []
    for j, terms in enumerate(system):
        diag = 0j
        rows = []
        for m, jet in terms:
            for exp, c in jet.terms():
                if sum(exp) == 1:
                    assert m == 0 and exp[j] == 1, (j, m, exp)
                    diag = complex(c)
            kept = {e: c for e, c in jet.coeffs.items() if sum(e) >= 2}
            if kept:
                rows.append((m, Jet(jet.n_vars, jet.order, kept)))
        alphas.append(diag)
        forcing.append(rows)
    return alphas, forcing


def holonomy_system(F: Foliation, order: int):
    """(system as built, reference arguments) for the holonomy of F."""
    system = build_monodromy_system(F, order).terms
    return system, (*split_linear_part(system), order)


def flow_system(X: VectorField, order: int):
    """(system as built, reference arguments) for the flow of X; the reference
    forcing is each component minus its eigenvalue monomial."""
    forcing = []
    for j, comp in enumerate(X.components):
        exp_j = tuple(1 if k == j else 0 for k in range(X.n_vars))
        forcing.append([(0, comp.truncate(order) - Jet(len(exp_j), order, {exp_j: X.eigenvalues[j]}))])
    return [[(0, comp)] for comp in X.components], (X.eigenvalues, forcing, order)


def _monomials(n, lo, hi):
    return [e for e in itertools.product(range(hi + 1), repeat=n) if lo <= sum(e) <= hi]


def _complex(rng):
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def dense_foliation(seed: int) -> Foliation:
    """3-variable foliation with axis z and every admissible monomial of degree 2-3."""
    rng = random.Random(seed)
    lam = (1.0, -2.0, 3.0)
    comps = []
    for j in range(2):
        coeffs = {tuple(1 if k == j else 0 for k in range(3)): complex(lam[j])}
        for exp in _monomials(3, 2, 3):
            if exp[0] + exp[1] >= 2:
                coeffs[exp] = _complex(rng)
        comps.append(Jet(3, 5, coeffs))
    axis = {(0, 0, 1): complex(lam[2])}
    for a, b in _monomials(2, 1, 2):
        axis[(a, b, 1)] = _complex(rng)
    comps.append(Jet(3, 5, axis))
    return Foliation(VectorField(comps), separatrix_axis=2)


def dense_planar_field(seed: int, order: int) -> VectorField:
    rng = random.Random(seed)
    comps = []
    for j, lam in enumerate((1.0, -2.0)):
        coeffs = {(1 - j, j): complex(lam)}
        for exp in _monomials(2, 2, 3):
            coeffs[exp] = _complex(rng)
        comps.append(Jet(2, order, coeffs))
    return VectorField(comps)


def entry_terms(table: CoefficientTable) -> dict:
    return {key: poly.terms for key, poly in table.entries.items()}


def assert_tables_match(new: CoefficientTable, ref: CoefficientTable):
    assert set(new.entries) == set(ref.entries)
    for key, want in ref.entries.items():
        got = new.entries[key]
        for term in set(got.terms) | set(want.terms):
            c = want.terms.get(term, 0j)
            delta = abs(got.terms.get(term, 0j) - c)
            assert delta <= TOL * max(1.0, abs(c)), (key, term, delta)


@pytest.mark.parametrize("order", [4, 8, 12])
@pytest.mark.parametrize("name", PRESETS)
def test_presets_match_reference(name, order):
    system, ref_args = holonomy_system(presets.load_foliation(name), order)
    new = solve_coefficient_system(system, order)
    assert_tables_match(new, reference_solve(*ref_args))
    if order <= 8:
        assert new.ode_residual_max() == 0.0
    assert new.ode_residual_max() <= TOL


def test_dense_foliation_matches_reference():
    system, ref_args = holonomy_system(dense_foliation(seed=11), 5)
    new = solve_coefficient_system(system, 5)
    assert_tables_match(new, reference_solve(*ref_args))
    assert new.ode_residual_max() <= TOL


def test_dense_planar_flow_matches_reference():
    X = dense_planar_field(seed=12, order=6)
    system, ref_args = flow_system(X, 6)
    new = flow_coefficient_table(X, 6)
    assert_tables_match(new, reference_solve(*ref_args))
    assert new.ode_residual_max() <= TOL
    assert entry_terms(solve_coefficient_system(system, 6)) == entry_terms(new)


def test_sparse_forcing_with_shared_prefixes_matches_reference():
    # x^3 z^2 and x^3 y both build on x^3, one through x^3 z, which is not
    # itself a forcing monomial: x^3 is read at two depths
    jet = Jet(3, 7, {(3, 0, 2): 0.5 - 1j, (3, 1, 0): 2.0, (0, 2, 3): -1.5j, (1, 1, 1): 0.25})
    forcing = [[(0, jet), (1, jet * 0.5j)], [(-2, jet)], []]
    qs = (1, -1, 2)
    # the linear part 2 pi i q_j x_j, as a separate frequency-0 jet or
    # merged into the row's own frequency-0 jet
    linear = [Jet(3, 7, {tuple(int(k == j) for k in range(3)): TWO_PI_I * q})
              for j, q in enumerate(qs)]
    system = [[(0, jet + linear[0]), (1, jet * 0.5j)],
              [(0, linear[1]), (-2, jet)],
              [(0, linear[2])]]
    alphas = [Frequency(q) for q in qs]
    new = solve_coefficient_system(system, 7)
    assert new.alphas == alphas
    assert_tables_match(new, reference_solve(alphas, forcing, 7))
    assert new.ode_residual_max() <= TOL


X2 = Jet.variable(0, 2, 4)
Y2 = Jet.variable(1, 2, 4)


@pytest.mark.parametrize("system, message", [
    ([[(0, X2 * X2 + Y2)], []], "non-diagonal linear part in the system"),
    ([[(0, X2), (1, X2 * 0.5)], []],
     "degree-1 term with nonzero loop frequency; coefficient recursion is not triangular"),
    ([[(0, X2 + Jet.constant(2, 4, 0.1))], []], "row 0 has a constant term"),
    ([[(0, X2)], [(0, Jet.variable(0, 3, 4))]], "system jet arity mismatch"),
], ids=["off-diagonal", "oscillating", "constant", "arity"])
def test_linear_part_outside_the_triangular_shape_rejected(system, message):
    with pytest.raises(CoefficientSystemError, match=re.escape(message)):
        solve_coefficient_system(system, 4)


def test_a_solved_coefficient_that_overflows_is_refused():
    """s = 1e200 in example3's shape x(1 + s xyz^2) d/dx + y(1 - s xyz^2) d/dy
    - z d/dz makes the forcing of x^3 y^2 overflow to -inf, and its solved
    coefficient NaN; the table is refused, not returned without the entry."""
    s = 1e200
    field = VectorField([Jet(3, 5, {(1, 0, 0): 1.0, (2, 1, 2): s}),
                         Jet(3, 5, {(0, 1, 0): 1.0, (1, 2, 2): -s}),
                         Jet(3, 5, {(0, 0, 1): -1.0})])
    system = build_monodromy_system(Foliation(field, 2), 7).terms
    with pytest.raises(OverflowError, match=re.escape("component 0, x^[3, 2]: "
                                                      "the solved coefficient is not finite")):
        solve_coefficient_system(system, 7)


def test_at_time_overflow_is_a_computed_value_not_bad_input():
    """at_time builds its jets by the trusted rule, so a time-t value that
    overflows comes back as it is instead of raising the input check's JetError."""
    table = CoefficientTable(1, 1, [Frequency(0)])
    table.entries[(0, (1,))] = ExpPoly.term(1e300, 1)
    assert not cmath.isfinite(table.at_time(1e10).components[0].coeff((1,)))
