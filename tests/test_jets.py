"""Jet ring: dense-array oracles, ring laws, composition, JSON round trip."""
import itertools
import json
import math
import random
import re
import struct
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st

import holodyn.jets as jets_module
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
    if len(point) != j.n_vars:
        raise JetError("evaluation point has wrong dimension")
    total = 0.0 + 0j
    for exp, c in j.terms():
        m = 1.0 + 0j
        for p, e in zip(point, exp):
            if e:
                m *= p ** e
        total += c * m
    return total


def value_bytes(v) -> tuple:
    """A value as its type and the bytes of its parts: unlike ==, this tells
    -0.0 from 0.0 and matches a NaN with the same NaN."""
    return type(v), struct.pack("<dd", v.real, v.imag)


def outcome(evaluate, *args):
    """The bytes of ``evaluate(*args)`` per component, or the exception it raised."""
    try:
        with np.errstate(all="ignore"):
            value = evaluate(*args)
    except (ArithmeticError, JetError) as e:
        return type(e), str(e)
    if isinstance(value, tuple):
        return tuple(value_bytes(v) for v in value)
    return value_bytes(value)


def reference_map_eval(jets, point):
    point = tuple(point)
    return tuple(reference_eval(j, point) for j in jets)


real_st = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
complex_st = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("n_vars", [1, 2, 3])
@given(data=st.data())
def test_eval_matches_reference_loop_bit_for_bit(n_vars, data):
    j = data.draw(jet_strategy(n_vars=n_vars, order=6, max_terms=10))
    coord = data.draw(st.sampled_from([real_st, complex_st]))
    point = data.draw(st.tuples(*([coord] * n_vars)))
    want = outcome(reference_eval, j, point)
    # the first call compiles the evaluator, the second reuses it
    assert outcome(j.eval, point) == want
    assert outcome(j.eval, point) == want
    arr = np.array(point, dtype=complex)
    assert outcome(j.eval, arr) == outcome(reference_eval, j, arr)


def without_constant(j: Jet) -> Jet:
    return Jet(j.n_vars, j.order, {e: c for e, c in j.coeffs.items() if any(e)})


@pytest.mark.parametrize("n_vars", [1, 2, 3])
@given(data=st.data())
def test_jetmap_and_vector_field_eval_match_reference_per_component(n_vars, data):
    # components share monomials, so one power or monomial serves several
    comps = [without_constant(data.draw(jet_strategy(n_vars=n_vars, order=5, max_terms=8)))
             for _ in range(n_vars)]
    coord = data.draw(st.sampled_from([real_st, complex_st]))
    point = data.draw(st.tuples(*([coord] * n_vars)))
    want = outcome(reference_map_eval, comps, point)
    for jmap in (JetMap(comps), VectorField(comps)):
        assert outcome(jmap.eval, point) == want
        assert outcome(jmap.eval, list(point)) == want


SPECIAL = (0.0, -0.0, 1.5, -2.0, 1e200, -1e200, 1e-200, -1e-200,
           math.inf, -math.inf, math.nan)
SPECIAL_POINTS = (
    [(a, b) for a in SPECIAL for b in (0.0, -0.0, 1e200, 1e-200, math.nan)]
    + [(complex(a, b), complex(b, a)) for a in SPECIAL for b in SPECIAL]
)


def special_jets():
    """Degree-8 terms, so |x| = 1e200 overflows and 1e-200 underflows, with
    coefficients that carry signed zeros."""
    x = Jet(2, 8, {(1, 0): complex(-0.0, 1.0), (8, 0): 1.0, (3, 5): complex(2.5, -0.0),
                   (0, 8): -1.0, (4, 4): 1j, (0, 1): 0.75})
    y = Jet(2, 8, {(0, 1): 1.0, (1, 1): -1.0, (7, 1): complex(0.0, -3.0), (0, 8): 0.5})
    return x, y


def test_eval_special_values_bit_for_bit():
    x, y = special_jets()
    singles = (x, y, Jet(2, 8, {(0, 0): complex(-0.0, 2.0), (1, 0): 1.0}), Jet.zero(2, 8))
    for point in SPECIAL_POINTS:
        for j in singles:
            assert outcome(j.eval, point) == outcome(reference_eval, j, point), point
        want = outcome(reference_map_eval, (x, y), point)
        assert outcome(JetMap([x, y]).eval, point) == want, point
        assert outcome(VectorField([x, y]).eval, point) == want, point


@pytest.mark.parametrize("container", ["tuple", "list", "ndarray", "generator"])
def test_eval_takes_any_point_container(container):
    x, y = special_jets()
    jmap = JetMap([x, y])

    def make(point):
        return {"tuple": tuple, "list": list, "generator": iter,
                "ndarray": lambda q: np.array(q, dtype=complex)}[container](point)

    for point in ((0.1 + 0.2j, -0.3), (1e200, 1e-200), (complex(-0.0, math.nan), 0.5j)):
        assert outcome(x.eval, make(point)) == outcome(reference_eval, x, make(point))
        assert (outcome(jmap.eval, make(point))
                == outcome(reference_map_eval, (x, y), make(point)))
        with pytest.raises(JetError, match="^evaluation point has wrong dimension$"):
            x.eval(make(point + (1.0,)))
        with pytest.raises(JetError, match="^evaluation point has wrong dimension$"):
            jmap.eval(make(point[:1]))


def code_constants(code) -> list:
    out = []
    for c in code.co_consts:
        out.extend(code_constants(c) if isinstance(c, types.CodeType) else [c])
    return out


def test_json_coefficients_are_bound_not_formatted():
    doc = json.loads("""{"n_vars": 2, "order": 3, "terms": [
        {"exp": [1, 0], "re": 1.7e308, "im": -0.0},
        {"exp": [0, 1], "re": 0.0, "im": 5e-324},
        {"exp": [1, 1], "re": -0.0, "im": 0.0},
        {"exp": [2, 1], "re": -0.0, "im": 2.5},
        {"exp": [0, 3], "re": 1e-300, "im": -1.7e308}]}""")
    j = Jet.from_json_dict(doc)
    jmap = JetMap([j, j])
    for point in ((1.0, 1.0), (2.0, 1.0), (0.5 - 0.0j, -0.0), (complex(-0.0, 2.0), 1e-3)):
        assert outcome(j.eval, point) == outcome(reference_eval, j, point)
        assert outcome(jmap.eval, point) == outcome(reference_map_eval, (j, j), point)
    for evaluate in (j._evaluator, jmap._evaluator):
        assert not [c for c in code_constants(evaluate.__code__)
                    if isinstance(c, (float, complex))]


def test_large_jets_compile_and_match_the_reference():
    rng = random.Random("large")

    def coeff():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    dense3 = Jet(3, 30, {e: coeff() for e in itertools.product(range(31), repeat=3)
                         if sum(e) <= 30})
    assert len(dense3.coeffs) >= 5000
    univariate = Jet(1, 1000, {(k,): coeff() for k in range(1001)})
    for j, point in ((dense3, (0.3 + 0.1j, -0.2, 0.1j)), (univariate, (0.99 + 0.05j,))):
        assert outcome(j.eval, point) == outcome(reference_eval, j, point)


@pytest.mark.parametrize("n_vars", [99, 100, 101, 250, 3000])
def test_monomials_of_many_factors_compile_and_match_the_reference(n_vars):
    # one expression of 3,000 factors overflows the compiler's recursion limit
    ones = (1,) * n_vars
    j = Jet(n_vars, 2 * n_vars, {ones: 1.5 - 0.5j, (2,) + ones[1:]: 2.0, (0,) * n_vars: 1.0})
    point = [complex(1.0001, 1e-4 * (k % 7)) for k in range(n_vars)]
    assert outcome(j.eval, point) == outcome(reference_eval, j, point)
    if n_vars <= 250:
        comps = [Jet(n_vars, n_vars, {ones: 0.5 + k, ones[:k] + (0,) + ones[k + 1:]: 1.0})
                 for k in range(n_vars)]
        assert outcome(JetMap(comps).eval, point) \
            == outcome(reference_map_eval, comps, point)


def count_builds(monkeypatch) -> dict:
    """Wrap the evaluator builder: count builds, and calls of what it builds."""
    counts = {"builds": 0, "calls": 0}
    build = jets_module._compile_evaluator

    def counting(*args, **kwargs):
        counts["builds"] += 1
        evaluate = build(*args, **kwargs)

        def counted(point):
            counts["calls"] += 1
            return evaluate(point)

        return counted

    monkeypatch.setattr(jets_module, "_compile_evaluator", counting)
    return counts


def test_evaluator_is_built_once_per_jet_and_jet_map(monkeypatch):
    counts = count_builds(monkeypatch)
    x, y = special_jets()
    for k in range(1000):
        x.eval((0.01 * k, 0.5))
    assert counts == {"builds": 1, "calls": 1000}
    jmap = JetMap([x, y])
    for k in range(1000):
        jmap.eval((0.5, 0.01 * k))
    # the map compiles its own evaluator and never calls its components'
    assert counts == {"builds": 2, "calls": 2000}


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


@pytest.mark.parametrize("matrix, message", [
    # formerly "components must vanish at the origin": entries past n folded
    # into the constant term
    ([[1, 2, 3]], "matrix row 0 has length 3, not 1: a linear map needs a square matrix"),
    # formerly zero-padded
    ([[1, 2], [3]], "matrix row 1 has length 1, not 2: a linear map needs a square matrix"),
    # formerly a 3-variable map from two columns
    ([[1, 0], [0, 1], [1, 1]], "matrix row 0 has length 2, not 3: a linear map needs a square matrix"),
])
def test_jetmap_linear_refuses_a_matrix_that_is_not_square(matrix, message):
    for order in (1, 4):
        with pytest.raises(JetError) as err:
            JetMap.linear(matrix, order)
        assert str(err.value) == message


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


def test_arithmetic_keeps_a_nan_coefficient():
    """(1e200 x)^2 overflows to inf x^2, and inf - inf is NaN: the prune test
    not abs(c) < PRUNE_TOL keeps it, where abs(c) >= PRUNE_TOL would drop it
    and the overflow would read as a zero coefficient."""
    square = Jet(1, 2, {(1,): 1e200}) * Jet(1, 2, {(1,): 1e200})
    assert square.coeffs == {(2,): math.inf}
    assert math.isnan((square - square).coeff((2,)).real)


# -- the trusted constructor against the validating one it replaced ------------


def random_jet(rng, n_vars, order, terms=6, constant=True):
    """A seeded random jet; about one coefficient in four sits near PRUNE_TOL."""
    coeffs = {}
    for _ in range(rng.randint(0, terms)):
        exp = [0] * n_vars
        for _ in range(rng.randint(0 if constant else 1, order)):
            exp[rng.randrange(n_vars)] += 1
        value = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if rng.random() < 0.25:
            value = rng.choice([4e-15, 2e-14])
        coeffs[tuple(exp)] = value
    return Jet(n_vars, order, coeffs)


def near_negation(a: Jet, rng) -> Jet:
    """-a up to a perturbation per coefficient of 0, 4e-15 or 3e-14, so that
    a + near_negation(a) cancels below and just above PRUNE_TOL."""
    return Jet(a.n_vars, a.order,
               {e: -c + rng.choice([0.0, 4e-15, 3e-14]) for e, c in a.coeffs.items()})


def assert_same_jet(got: Jet, want: Jet):
    """Same n_vars, order, key order and coefficients."""
    assert (got.n_vars, got.order) == (want.n_vars, want.order)
    assert list(got.coeffs.items()) == list(want.coeffs.items())


def jet_operations(rng):
    """name -> thunk of every operation that builds a result, on seeded random jets."""
    n, order = rng.randint(1, 3), rng.randint(1, 5)
    a, b = random_jet(rng, n, order), random_jet(rng, n, order)
    cancelling = near_negation(a, rng)
    inner = [random_jet(rng, n, order, constant=False) for _ in range(n)]
    scalar = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
    return {
        "add": lambda: a + b,
        "add cancelling": lambda: a + cancelling,
        "sub": lambda: a - b,
        "neg": lambda: -a,
        "mul": lambda: a * b,
        "mul scalar": lambda: a * scalar,
        "rmul scalar": lambda: scalar * a,
        "mul tiny scalar": lambda: a * 1e-14,
        "truncate": lambda: a.truncate(order // 2),
        "truncate up": lambda: a.truncate(order + 2),
        "diff": lambda: a.diff(n - 1),
        "compose": lambda: a.compose(inner),
        "reciprocal": lambda: (a + Jet.constant(n, order, 1.5)).reciprocal(),
    }


def test_arithmetic_results_match_the_validating_constructor():
    """Each result is what Jet(n, order, coeffs) gives for its own coefficients,
    and what the operation gives when every result goes through Jet(...)."""
    def via_init(cls, n_vars, order, coeffs):
        return Jet(n_vars, order, coeffs)

    for seed in range(40):
        for name, op in jet_operations(random.Random(seed)).items():
            got = op()
            assert_same_jet(got, Jet(got.n_vars, got.order, dict(got.coeffs)))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(Jet, "_from_clean", classmethod(via_init))
                want = jet_operations(random.Random(seed))[name]()
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


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("n_vars, order, coeffs, reason", [
    (2, 3, {(1.5, 0): 1.0}, "exponent entry of (1.5, 0) must be an integer, got 1.5"),
    (2.5, 3, {}, "n_vars must be an integer, got 2.5"),
    (2, 2.7, {}, "order must be an integer, got 2.7"),
    (2, "3", {}, "order must be an integer, got '3'"),
    (2, float("inf"), {}, "order must be an integer, got inf"),
    (3, 3, {(1, 2.0, NAN): 1.0}, "exponent entry of (1, 2.0, nan) must be an integer, got nan"),
    (2, 3, {(1, 0): 1.0, (0, INF): 1.0}, "exponent entry of (0, inf) must be an integer, got inf"),
])
def test_outside_input_must_be_integral(n_vars, order, coeffs, reason):
    with pytest.raises(JetError) as info:
        Jet(n_vars, order, coeffs)
    assert str(info.value) == reason
    d = {"n_vars": n_vars, "order": order,
         "terms": [{"exp": list(e), "re": 1.0, "im": 0.0} for e in coeffs]}
    with pytest.raises(JetError, match=re.escape(reason)):
        Jet.from_json_dict(d)


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


def test_a_valid_exponent_is_checked_without_a_message_per_entry(monkeypatch):
    """A message formatted per entry made a jet's check quadratic in n_vars
    (3 s for a 2-term jet in 3,000 variables); only n_vars and order go
    through the per-value check now."""
    calls, check = [], jets_module._integer
    monkeypatch.setattr(jets_module, "_integer",
                        lambda value, what: calls.append(what) or check(value, what))
    ones = (1,) * 3000
    j = Jet(3000, 6000, {ones: 1.5, (2.0,) + ones[1:]: 2.0})
    assert calls == ["n_vars", "order"]
    assert sorted(j.coeffs) == [ones, (2,) + ones[1:]]
    assert all(type(e) is int for exp in j.coeffs for e in exp)


def test_integral_floats_are_accepted_as_ints():
    j = Jet.from_json_dict({"n_vars": 2.0, "order": 3.0,
                            "terms": [{"exp": [1.0, 2.0], "re": 1.0, "im": 0.0}]})
    assert (j.n_vars, j.order, list(j.coeffs)) == (2, 3, [(1, 2)])
    assert all(type(v) is int for v in (j.n_vars, j.order, *next(iter(j.coeffs))))
