"""Exponential-polynomial ring: exact ODE solutions, resonance, oracles."""
import cmath
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from holodyn.exppoly import ExpPoly, Frequency, TWO_PI_I, solve_linear_ode
from holodyn.jets import JetError


def test_frequency_rational_exactness():
    f = Frequency(3)
    g = Frequency(-3)
    assert (f + g).is_zero()
    assert f.q == Fraction(3)
    assert abs(f.value - 3 * TWO_PI_I) < 1e-15


def test_frequency_from_complex_rationalizes():
    f = Frequency.from_complex(2 * TWO_PI_I)
    assert f.q == Fraction(2)
    g = Frequency.from_complex(1.0 + 0.5j)  # not a 2*pi*i multiple
    assert g.q is None


def test_exponential_product_cancels():
    a = ExpPoly.exponential(Frequency(1))
    b = ExpPoly.exponential(Frequency(-1))
    assert (a * b - ExpPoly.term(1.0)).is_negligible()


def test_t_power_product():
    te = ExpPoly.term(1.0, 1) * ExpPoly.exponential(Frequency(2))
    sq = te * ExpPoly.term(1.0, 1)
    # t * e^{mu t} * t = t^2 e^{mu t}
    assert abs(sq.eval(0.7) - 0.49 * cmath.exp(2 * TWO_PI_I * 0.7)) < 1e-12


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(-3, 3),
                          st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                             allow_infinity=False)),
                min_size=1, max_size=5),
       st.lists(st.tuples(st.integers(0, 3), st.integers(-3, 3),
                          st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                                             allow_infinity=False)),
                min_size=1, max_size=5))
def test_product_pointwise_oracle(terms_a, terms_b):
    def build(terms):
        out = ExpPoly.zero()
        for k, m, c in terms:
            out = out + ExpPoly.term(c, k, Frequency(m))
        return out

    a, b = build(terms_a), build(terms_b)
    t = 0.3
    assert abs((a * b).eval(t) - a.eval(t) * b.eval(t)) < 1e-10


def test_solve_homogeneous():
    sol = solve_linear_ode(Frequency(-1), ExpPoly.zero(), 1.0)
    assert abs(sol.eval(1.0) - 1.0) < 1e-12  # e^{-2 pi i} = 1
    assert abs(sol.eval(0.25) - cmath.exp(-TWO_PI_I * 0.25)) < 1e-12


def test_solve_resonant_paper_value():
    # a' = -2 pi i (a + e^{-2 pi i t}), a(0) = 0  ->  -2 pi i t e^{-2 pi i t}
    g = ExpPoly.term(-TWO_PI_I, 0, Frequency(-1))
    sol = solve_linear_ode(Frequency(-1), g, 0.0)
    assert abs(sol.eval(1.0) - (-TWO_PI_I)) < 1e-12
    # structure: single term t^1 e^{-2 pi i t}
    [(key, c)] = list(sol.terms.items())
    assert key[0] == 1 and key[1].q == Fraction(-1)
    assert abs(c + TWO_PI_I) < 1e-14


def test_solve_resonant_polynomial():
    # a' = t, a(0) = 0 -> t^2/2; resonance at frequency 0, no division by zero
    sol = solve_linear_ode(Frequency(0), ExpPoly.term(1.0, 1), 0.0)
    assert abs(sol.eval(2.0) - 2.0) < 1e-12
    assert abs(sol.eval(3.0) - 4.5) < 1e-12


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 3),
       st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False))
def test_ode_residual_identically_zero(alpha_m, g_m, g_k, g_c, a0):
    alpha = Frequency(alpha_m)
    g = ExpPoly.term(g_c, g_k, Frequency(g_m))
    sol = solve_linear_ode(alpha, g, a0)
    resid = sol.derivative() - sol * alpha.value - g
    assert resid.max_abs_coeff() < 1e-9 * max(1.0, abs(g_c), abs(a0))
    assert abs(sol.eval(0.0) - a0) < 1e-12 * max(1.0, abs(a0))


def test_numeric_ode_oracle():
    """Cross-check a closed-form solution against RK4 on its defining ODE."""
    alpha = Frequency(2)
    g = (ExpPoly.term(1.5 - 0.5j, 1, Frequency(-1))
         + ExpPoly.term(1.0j, 0, Frequency(2)))  # resonant part
    a0 = 0.3 + 0.1j
    sol = solve_linear_ode(alpha, g, a0)

    def rhs(t, y):
        return alpha.value * y + g.eval(t)

    n = 4096
    h = 1.0 / n
    y, t = complex(a0), 0.0
    for _ in range(n):
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h * k1 / 2)
        k3 = rhs(t + h / 2, y + h * k2 / 2)
        k4 = rhs(t + h, y + h * k3)
        y += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        t += h
    assert abs(sol.eval(1.0) - y) < 1e-8


def test_antiderivative_vanishes_at_zero():
    p = ExpPoly.term(1.0, 2, Frequency(1)) + ExpPoly.term(1.0, 3)
    F = p.antiderivative()
    assert abs(F.eval(0.0)) < 1e-14
    # derivative returns the original
    assert (F.derivative() - p).max_abs_coeff() < 1e-12


def test_json_round_trip():
    p = (ExpPoly.term(1.0 - 2.0j, 1, Frequency(Fraction(1, 2)))
         + ExpPoly.term(0.25, 0, Frequency.from_complex(0.3 + 0.7j)))
    d = p.to_json_dict()
    back = ExpPoly.from_json_dict(d)
    assert (p - back).max_abs_coeff() < 1e-15
    assert back.to_json_dict() == d


def test_frequencies_are_interned():
    import copy
    import pickle

    half = Frequency(Fraction(1, 2))
    assert Frequency(Fraction(2, 4)) is half
    assert Frequency.from_complex(0.5 * TWO_PI_I) is half
    assert Frequency(1) + Frequency(-1) is Frequency(0)
    mu = Frequency.from_complex(0.3 + 0.7j)
    assert Frequency(None, 0.3 + 0.7j) is mu and mu != half
    p = ExpPoly.term(2.0, 1, half) + ExpPoly.term(1.0, 0, mu)
    for back in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert back.terms == p.terms


def test_t_power_must_be_a_non_negative_integer():
    with pytest.raises(ValueError, match=r"t-power must be an integer, got 1\.5"):
        ExpPoly({(1.5, 0): 1})
    d = ExpPoly.term(1.0, 1).to_json_dict()
    d["terms"][0]["k"] = 1.5
    with pytest.raises(ValueError, match=r"t-power must be an integer, got 1\.5"):
        ExpPoly.from_json_dict(d)
    with pytest.raises(ValueError, match="t-power must be non-negative"):
        ExpPoly({(-1, 0): 1})
    assert ExpPoly({(2.0, 0): 1}).terms == ExpPoly.term(1.0, 2).terms


@pytest.mark.parametrize("c", [float("nan"), float("inf"), complex(1.0, float("nan"))])
def test_non_finite_coefficient_rejected(c):
    with pytest.raises(JetError, match=r"coefficient of \(1, 2\*pi\*i\*\(0\)\) is not finite"):
        ExpPoly({(1, 0): c})
    d = ExpPoly.term(1.0, 1).to_json_dict()
    d["terms"][0]["c_re"], d["terms"][0]["c_im"] = complex(c).real, complex(c).imag
    with pytest.raises(JetError, match="is not finite"):
        ExpPoly.from_json_dict(d)


def test_non_finite_frequency_rejected_and_not_interned():
    known = len(Frequency._complexes)
    for value in (complex(float("nan"), 1.0), complex(0.0, float("inf"))):
        for make in (lambda: Frequency(None, value), lambda: Frequency.coerce(value)):
            with pytest.raises(JetError, match=r"frequency .* is not finite"):
                make()
    assert len(Frequency._complexes) == known


def reference_solve_linear_ode(alpha, g: ExpPoly, a0) -> ExpPoly:
    """The ring-product route solve_linear_ode replaced: multiply by the
    exponential polynomials e^(-alpha t) and e^(alpha t)."""
    alpha = Frequency.coerce(alpha)
    shifted = g * ExpPoly.exponential(-alpha)
    integral = shifted.antiderivative()
    return (ExpPoly.term(a0) + integral) * ExpPoly.exponential(alpha)


_coeffs = st.one_of(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([complex(-0.0, 1.0), complex(1.0, -0.0), complex(-0.0, -1e-3)]))
_freqs = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=4).map(Frequency),
    st.complex_numbers(max_magnitude=8.0, allow_nan=False, allow_infinity=False)
    .map(Frequency.coerce))


@given(_freqs,
       st.lists(st.tuples(st.integers(0, 3), st.one_of(_freqs, st.just("alpha")), _coeffs),
                max_size=5),
       st.one_of(st.just(0.0), st.just(1.0), _coeffs), st.booleans())
def test_solve_matches_the_ring_product_route_bit_for_bit(alpha, g_terms, a0, negate):
    g = ExpPoly.zero()
    for k, freq, c in g_terms:  # "alpha" draws a resonant term
        g = g + ExpPoly.term(c, k, alpha if freq == "alpha" else freq)
    if negate:  # negation is how -0.0 parts reach a coefficient
        g = -g
    new, old = solve_linear_ode(alpha, g, a0), reference_solve_linear_ode(alpha, g, a0)
    # json.dumps tells -0.0 from 0.0, which == on floats does not
    assert json.dumps(new.to_json_dict()) == json.dumps(old.to_json_dict())


def test_solve_makes_no_ring_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("solve_linear_ode used a ring product")

    monkeypatch.setattr(ExpPoly, "__mul__", refuse)
    monkeypatch.setattr(ExpPoly, "exponential", classmethod(refuse))
    alpha = Frequency(-1)
    g = (ExpPoly.term(1.0, 2, alpha) + ExpPoly.term(0.5j, 0, Frequency(Fraction(1, 2)))
         + ExpPoly.term(2.0, 1, 0.3 + 0.7j))
    for a in (alpha, Frequency.coerce(1.0 - 0.2j)):
        solve_linear_ode(a, g, 0.3 - 0.1j)
