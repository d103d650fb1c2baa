"""Jet ring: dense-array oracles, ring laws, composition, JSON round trip."""
import itertools
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from holodyn.exppoly import ExpPoly, Frequency
from holodyn.flows import VectorField
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
    s = json.dumps(j.to_json_dict())
    back = Jet.from_json_dict(json.loads(s))
    assert back.n_vars == j.n_vars and back.order == j.order
    assert back.coeffs == j.coeffs
    assert json.dumps(back.to_json_dict()) == s  # byte-identical re-serialization


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


# -- the trusted constructor against the validating one it replaced ------------


def random_jet(rng, n_vars, order, ring, terms=6, constant=True):
    """A seeded random jet; about one coefficient in four sits near PRUNE_TOL."""
    coeffs = {}
    for _ in range(rng.randint(0, terms)):
        exp = [0] * n_vars
        for _ in range(rng.randint(0 if constant else 1, order)):
            exp[rng.randrange(n_vars)] += 1
        value = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if rng.random() < 0.25:
            value = rng.choice([4e-15, 2e-14])
        coeffs[tuple(exp)] = ring(value, rng)
    return Jet(n_vars, order, coeffs)


def complex_ring(value, rng):
    return value


def expoly_ring(value, rng):
    """An ExpPoly coefficient as the coefficient-test reference builds: a few
    t^k e^(2 pi i m t) terms."""
    return ExpPoly({(rng.randint(0, 2), Frequency(rng.randint(-1, 1))): value * w
                    for w in (1.0, 0.5j)[:rng.randint(1, 2)]})


def near_negation(a: Jet, rng) -> Jet:
    """-a up to a perturbation per coefficient of 0, 4e-15 or 3e-14, so that
    a + near_negation(a) cancels below and just above PRUNE_TOL."""
    return Jet(a.n_vars, a.order,
               {e: -c + rng.choice([0.0, 4e-15, 3e-14]) for e, c in a.coeffs.items()})


def assert_same_jet(got: Jet, want: Jet):
    """Same n_vars, order, key order and coefficients (ExpPoly by terms)."""
    assert (got.n_vars, got.order) == (want.n_vars, want.order)
    assert list(got.coeffs) == list(want.coeffs)
    for exp, c in got.coeffs.items():
        w = want.coeffs[exp]
        if hasattr(c, "terms"):
            assert list(c.terms.items()) == list(w.terms.items())
        else:
            assert c == w


def jet_operations(rng, ring):
    """name -> thunk of every operation that builds a result, on seeded random jets."""
    n, order = rng.randint(1, 3), rng.randint(1, 5)
    a, b = random_jet(rng, n, order, ring), random_jet(rng, n, order, ring)
    cancelling = near_negation(a, rng)
    inner = [random_jet(rng, n, order, ring, constant=False) for _ in range(n)]
    plain = random_jet(rng, n, order, complex_ring)
    scalar = ring(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), rng)
    ops = {
        "add": lambda: a + b,
        "add cancelling": lambda: a + cancelling,
        "sub": lambda: a - b,
        "neg": lambda: -a,
        "mul": lambda: a * b,
        "mul scalar": lambda: a * scalar,
        "rmul scalar": lambda: scalar * a,
        "mul tiny scalar": lambda: a * 1e-14,
        "mul by ExpPoly": lambda: plain * ExpPoly.exponential(Frequency(1)),
        "truncate": lambda: a.truncate(order // 2),
        "truncate up": lambda: a.truncate(order + 2),
        "diff": lambda: a.diff(n - 1),
        "compose": lambda: plain.compose(inner),
    }
    if ring is complex_ring:
        ops["reciprocal"] = lambda: (a + Jet.constant(n, order, 1.5)).reciprocal()
    return ops


@pytest.mark.parametrize("ring", [complex_ring, expoly_ring], ids=["complex", "ExpPoly"])
def test_arithmetic_results_match_the_validating_constructor(ring):
    """Each result is what Jet(n, order, coeffs) gives for its own coefficients,
    and what the operation gives when every result goes through Jet(...)."""
    def via_init(cls, n_vars, order, coeffs):
        return Jet(n_vars, order, coeffs)

    for seed in range(40):
        for name, op in jet_operations(random.Random(seed), ring).items():
            got = op()
            assert_same_jet(got, Jet(got.n_vars, got.order, dict(got.coeffs)))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(Jet, "_from_clean", classmethod(via_init))
                want = jet_operations(random.Random(seed), ring)[name]()
            assert_same_jet(got, want)


def test_origin_rule_is_any_stored_constant_term():
    """A 5e-14 constant is stored and rejected by JetMap, VectorField and
    Jet.compose alike; a 5e-15 one is pruned and accepted by all three."""
    def comps(const):
        return [Jet(2, 3, {(0, 0): const, (1, 0): 1.0}), Jet(2, 3, {(0, 1): 1.0})]

    g = Jet(2, 3, {(1, 1): 1.0})
    for build in (JetMap, VectorField, g.compose):
        with pytest.raises(JetError, match="vanish at the origin|zero constant term"):
            build(comps(5e-14))
        build(comps(5e-15))
    assert comps(5e-15)[0].coeffs == {(1, 0): 1.0}


@pytest.mark.parametrize("n_vars, order, coeffs, reason", [
    (2, 3, {(1.5, 0): 1.0}, "exponent entry of (1.5, 0) must be an integer, got 1.5"),
    (2.5, 3, {}, "n_vars must be an integer, got 2.5"),
    (2, 2.7, {}, "order must be an integer, got 2.7"),
    (2, "3", {}, "order must be an integer, got '3'"),
    (2, float("inf"), {}, "order must be an integer, got inf"),
])
def test_outside_input_must_be_integral(n_vars, order, coeffs, reason):
    with pytest.raises(JetError) as info:
        Jet(n_vars, order, coeffs)
    assert str(info.value) == reason
    d = {"n_vars": n_vars, "order": order,
         "terms": [{"exp": list(e), "re": 1.0, "im": 0.0} for e in coeffs]}
    with pytest.raises(JetError, match=re.escape(reason)):
        Jet.from_json_dict(d)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("c", [NAN, INF, -INF, complex(0.5, NAN), complex(INF, 1.0)])
def test_non_finite_coefficient_rejected(c):
    reason = f"coefficient of (0, 2) is not finite, got {c!r}"
    with pytest.raises(JetError) as info:
        Jet(2, 3, {(1, 0): 1.0, (0, 2): c})
    assert str(info.value) == reason
    c = complex(c)
    d = {"n_vars": 2, "order": 3, "terms": [{"exp": [0, 2], "re": c.real, "im": c.imag}]}
    with pytest.raises(JetError, match=r"coefficient of \(0, 2\) is not finite"):
        Jet.from_json_dict(d)


def test_integral_floats_are_accepted_as_ints():
    j = Jet.from_json_dict({"n_vars": 2.0, "order": 3.0,
                            "terms": [{"exp": [1.0, 2.0], "re": 1.0, "im": 0.0}]})
    assert (j.n_vars, j.order, list(j.coeffs)) == (2, 3, [(1, 2)])
    assert all(type(v) is int for v in (j.n_vars, j.order, *next(iter(j.coeffs))))
