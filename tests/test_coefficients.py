"""The online coefficient engine against the compose-based recursion it replaced."""
import itertools
import random

import pytest

from holodyn import presets
from holodyn.coefficients import (
    CoefficientSystemError,
    CoefficientTable,
    solve_coefficient_system,
)
from holodyn.exppoly import ExpPoly, Frequency, solve_linear_ode
from holodyn.flows import VectorField, flow_coefficient_table
from holodyn.holonomy import Foliation, build_monodromy_system
from holodyn.jets import Jet

PRESETS = ("thmB", "example3", "linear(1,-1,-2)", "genF", "genH", "genLinear")
TOL = 1e-12


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
        phi = []
        for j in range(n):
            coeffs = {exp: p for (i, exp), p in table.entries.items() if i == j}
            phi.append(Jet(n, order, coeffs).truncate(d))
        for j in range(n):
            g_total = Jet.zero(n, d)
            for m, jet in forcing[j]:
                if jet.is_zero():
                    continue
                composed = jet.truncate(d).compose(phi)
                if m != 0:
                    composed = composed * ExpPoly.exponential(Frequency.rational(m))
                g_total = g_total + composed
            for exp, g in g_total.coeffs.items():
                if sum(exp) != d:
                    continue
                if not isinstance(g, ExpPoly):
                    g = ExpPoly.constant(g)
                table.entries[(j, exp)] = solve_linear_ode(freqs[j], g, 0.0)
                table.forcings[(j, exp)] = g
    return table


def holonomy_system(F: Foliation, order: int):
    system = build_monodromy_system(F, order)
    return system.linear_diagonal(), system.nonlinear_terms(), order


def flow_system(X: VectorField, order: int):
    forcing = []
    for j, comp in enumerate(X.components):
        exp_j = tuple(1 if k == j else 0 for k in range(X.n_vars))
        forcing.append([(0, comp.extend(order) - Jet.monomial(exp_j, X.eigenvalues[j], order))])
    return X.eigenvalues, forcing, order


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
    args = holonomy_system(presets.load_foliation(name), order)
    new = solve_coefficient_system(*args)
    assert_tables_match(new, reference_solve(*args))
    if order <= 8:
        assert new.ode_residual_max() == 0.0
    assert new.ode_residual_max() <= TOL


def test_dense_foliation_matches_reference():
    args = holonomy_system(dense_foliation(seed=11), 5)
    new = solve_coefficient_system(*args)
    assert_tables_match(new, reference_solve(*args))
    assert new.ode_residual_max() <= TOL


def test_dense_planar_flow_matches_reference():
    X = dense_planar_field(seed=12, order=6)
    new = flow_coefficient_table(X, 6)
    assert_tables_match(new, reference_solve(*flow_system(X, 6)))
    assert new.ode_residual_max() <= TOL


def test_sparse_forcing_with_shared_prefixes_matches_reference():
    # x^3 z^2 and x^3 y both build on x^3, one through x^3 z, which is not
    # itself a forcing monomial: x^3 is read at two depths
    jet = Jet(3, 7, {(3, 0, 2): 0.5 - 1j, (3, 1, 0): 2.0, (0, 2, 3): -1.5j, (1, 1, 1): 0.25})
    forcing = [[(0, jet), (1, jet * 0.5j)], [(-2, jet)], []]
    args = ([Frequency.rational(1), Frequency.rational(-1), Frequency.rational(2)], forcing, 7)
    new = solve_coefficient_system(*args)
    assert_tables_match(new, reference_solve(*args))
    assert new.ode_residual_max() <= TOL


def test_linear_forcing_rejected():
    x = Jet.variable(0, 2, 4)
    y = Jet.variable(1, 2, 4)
    forcing = [[(0, x * x + y)], []]
    with pytest.raises(CoefficientSystemError, match="degree-1 terms; the recursion "
                       "requires valuation >= 2"):
        solve_coefficient_system([1.0, -1.0], forcing, 4)
