"""Jet ring: dense-array oracles, ring laws, composition, JSON round trip."""
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from holodyn.jets import Jet, JetMap, JetError, grlex_key


# -- dense polynomial oracle -------------------------------------------------


def to_dense(j: Jet) -> np.ndarray:
    """Dense coefficient array indexed by exponents, shape (order+1,)*n."""
    arr = np.zeros((j.order + 1,) * j.n_vars, dtype=complex)
    for exp, c in j.coeffs.items():
        arr[exp] = c
    return arr


def dense_mul_truncate(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    n = a.ndim
    out = np.zeros_like(a)
    for ea in itertools.product(*(range(s) for s in a.shape)):
        ca = a[ea]
        if ca == 0:
            continue
        for eb in itertools.product(*(range(s) for s in b.shape)):
            cb = b[eb]
            if cb == 0:
                continue
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) <= order:
                out[e] += ca * cb
    return out


coeffs_st = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=3.0, allow_nan=False, allow_infinity=False
)


def jet_strategy(n_vars=2, order=5, max_terms=6):
    def build(pairs):
        coeffs = {}
        for exps, c in pairs:
            exp = tuple(e for e in exps)
            if sum(exp) <= order:
                coeffs[exp] = coeffs.get(exp, 0) + c
        return Jet(n_vars, order, coeffs)

    exp_st = st.tuples(*([st.integers(0, order)] * n_vars))
    return st.lists(st.tuples(exp_st, coeffs_st), max_size=max_terms).map(build)


@given(jet_strategy(), jet_strategy())
def test_add_matches_dense_oracle(a, b):
    got = to_dense(a + b)
    want = to_dense(a) + to_dense(b)
    assert np.max(np.abs(got - want)) < 1e-12


@given(jet_strategy(), jet_strategy())
def test_mul_matches_dense_oracle(a, b):
    got = to_dense(a * b)
    want = dense_mul_truncate(to_dense(a), to_dense(b), a.order)
    assert np.max(np.abs(got - want)) < 1e-9


@given(jet_strategy(), jet_strategy(), jet_strategy())
def test_ring_laws(a, b, c):
    assert (a * b).max_abs_diff(b * a) < 1e-10
    assert ((a * b) * c).max_abs_diff(a * (b * c)) < 1e-8
    assert (a * (b + c)).max_abs_diff(a * b + a * c) < 1e-8
    assert (a + b).max_abs_diff(b + a) == 0.0


@given(jet_strategy(n_vars=3, order=4))
def test_add_zero_and_negation(a):
    z = Jet.zero(3, 4)
    assert (a + z).max_abs_diff(a) == 0.0
    assert (a - a).is_zero()


def test_simple_identities():
    x = Jet.variable(0, 1, 5)
    one = Jet.one(1, 5)
    assert ((one + x) + (one - x)).allclose(Jet.constant(1, 5, 2.0))
    prod = (one + x) * (one - x)
    assert prod.allclose(one - x * x)


def test_reciprocal_geometric_series():
    x = Jet.variable(0, 1, 6)
    r = (Jet.one(1, 6) + x).reciprocal()
    for k in range(7):
        assert abs(complex(r.coeff((k,))) - (-1.0) ** k) < 1e-12
    assert ((Jet.one(1, 6) + x) * r).allclose(Jet.one(1, 6))


@given(jet_strategy(n_vars=2, order=5))
def test_reciprocal_multiply_back(a):
    a = a + Jet.constant(2, 5, 1.5)  # force an invertible constant term
    r = a.reciprocal()
    assert (a * r).max_abs_diff(Jet.one(2, 5)) < 1e-9


def test_reciprocal_requires_unit():
    with pytest.raises(JetError):
        Jet.variable(0, 2, 4).reciprocal()


def reference_eval(j: Jet, point) -> complex:
    """The former evaluation loop: re-sort the terms on every call."""
    point = tuple(point)
    total = 0.0 + 0j
    for exp, c in j.terms():
        m = 1.0 + 0j
        for p, e in zip(point, exp):
            if e:
                m *= p ** e
        total += c * m
    return total


real_st = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
complex_st = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("n_vars", [1, 2, 3])
@given(data=st.data())
def test_eval_matches_reference_loop_bit_for_bit(n_vars, data):
    j = data.draw(jet_strategy(n_vars=n_vars, order=6, max_terms=10))
    coord = data.draw(st.sampled_from([real_st, complex_st]))
    point = data.draw(st.tuples(*([coord] * n_vars)))
    want = reference_eval(j, point)
    # first call builds the term plan, the second reuses it
    assert j.eval(point) == want
    assert j.eval(point) == want
    arr = np.array(point, dtype=complex)
    assert j.eval(arr) == reference_eval(j, arr)


def test_compose_eval_oracle():
    g = Jet(2, 6, {(2, 1): 1.0 + 2.0j, (0, 3): -0.5, (1, 0): 1.0})
    h = JetMap([
        Jet(2, 6, {(1, 0): 1.0, (0, 2): 0.3j}),
        Jet(2, 6, {(0, 1): 0.7, (2, 0): -0.2}),
    ])
    comp = g.compose(h.components)
    for k in range(10):
        p = (0.03 * math.cos(k), 0.03 * math.sin(1 + k))
        direct = g.eval(h.eval(p))
        via = comp.eval(p)
        # truncation error bound: coefficients O(1), degree-7 remainder
        assert abs(direct - via) < 50 * 0.06 ** 7


def test_compose_identity():
    g = Jet(2, 5, {(1, 2): 3.0, (2, 0): 1.0j})
    ident = JetMap.identity(2, 5)
    assert g.compose(ident.components).max_abs_diff(g) == 0.0


def test_compose_rejects_constant_terms():
    g = Jet.variable(0, 1, 4)
    with pytest.raises(JetError):
        g.compose([Jet.one(1, 4)])


def test_jetmap_compose_associative():
    f = JetMap([Jet(2, 5, {(1, 0): 1.0, (1, 1): 0.5}),
                Jet(2, 5, {(0, 1): 1.0, (2, 0): -0.3})])
    g = JetMap([Jet(2, 5, {(1, 0): 2.0, (0, 2): 1.0j}),
                Jet(2, 5, {(0, 1): 0.5, (1, 1): 0.2})])
    h = JetMap([Jet(2, 5, {(1, 0): 1.0, (2, 1): 1.0}),
                Jet(2, 5, {(0, 1): 1.0, (0, 2): -1.0})])
    assert f.compose(g).compose(h).max_abs_diff(f.compose(g.compose(h))) < 1e-10


def test_jetmap_inverse_linear():
    m = JetMap.linear([[2.0, 0.0], [0.0, 3.0]], 4)
    inv = m.inverse()
    lp = inv.linear_part()
    assert abs(lp[0][0] - 0.5) < 1e-12 and abs(lp[1][1] - 1 / 3) < 1e-12


def test_jetmap_inverse_compose_back():
    h = JetMap([
        Jet(2, 6, {(1, 0): 1.0, (2, 1): 2.0j, (0, 3): 0.4}),
        Jet(2, 6, {(0, 1): 1.0, (1, 2): -0.7}),
    ])
    inv = h.inverse()
    ident = JetMap.identity(2, 6)
    assert h.compose(inv).max_abs_diff(ident) < 1e-10
    assert inv.compose(h).max_abs_diff(ident) < 1e-10


def test_jetmap_inverse_singular_rejected():
    m = JetMap([Jet(2, 3, {(0, 1): 1.0}), Jet(2, 3, {(0, 1): 1.0})])
    with pytest.raises(JetError):
        m.inverse()


# -- serialization -----------------------------------------------------------


def test_json_round_trip_bit_exact():
    j = Jet(2, 5, {(1, 0): 1.0 + 1e-7j, (3, 2): -0.123456789012345,
                   (0, 0): math.pi})
    s = j.to_json()
    back = Jet.from_json(s)
    assert back.n_vars == j.n_vars and back.order == j.order
    assert back.coeffs == j.coeffs
    assert back.to_json() == s  # byte-identical re-serialization


def test_json_terms_sorted_graded_lex():
    j = Jet(2, 5, {(0, 2): 1.0, (2, 0): 1.0, (1, 1): 1.0, (1, 0): 1.0})
    d = j.to_json_dict()
    exps = [tuple(t["exp"]) for t in d["terms"]]
    assert exps == sorted(exps, key=grlex_key)
    assert exps[0] == (1, 0)  # degree before lex


def test_terms_iteration_graded_lex():
    j = Jet(3, 4, {(0, 0, 2): 1.0, (1, 1, 0): 1.0, (2, 0, 0): 1.0, (0, 1, 0): 1.0})
    exps = [e for e, _ in j.terms()]
    assert exps == sorted(exps, key=grlex_key)


def test_truncation_prunes_small_coefficients():
    j = Jet(1, 4, {(1,): 1e-15})
    assert j.is_zero()
