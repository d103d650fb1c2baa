"""Exponential-polynomial ring: exact ODE solutions, resonance, oracles."""
import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from holodyn.exppoly import ExpPoly, Frequency, TWO_PI_I, solve_linear_ode


def test_frequency_rational_exactness():
    f = Frequency.rational(3)
    g = Frequency.rational(-3)
    assert (f + g).is_zero()
    assert f.q == Fraction(3)
    assert abs(f.value - 3 * TWO_PI_I) < 1e-15


def test_frequency_from_complex_rationalizes():
    f = Frequency.from_complex(2 * TWO_PI_I)
    assert f.q == Fraction(2)
    g = Frequency.from_complex(1.0 + 0.5j)  # not a 2*pi*i multiple
    assert g.q is None


def test_exponential_product_cancels():
    a = ExpPoly.exponential(Frequency.rational(1))
    b = ExpPoly.exponential(Frequency.rational(-1))
    assert (a * b - ExpPoly.one()).is_negligible()


def test_t_power_product():
    te = ExpPoly.t_power(1) * ExpPoly.exponential(Frequency.rational(2))
    sq = te * ExpPoly.t_power(1)
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
            out = out + ExpPoly.term(c, k, Frequency.rational(m))
        return out

    a, b = build(terms_a), build(terms_b)
    t = 0.3
    assert abs((a * b).eval(t) - a.eval(t) * b.eval(t)) < 1e-10


def test_solve_homogeneous():
    sol = solve_linear_ode(Frequency.rational(-1), ExpPoly.zero(), 1.0)
    assert abs(sol.eval(1.0) - 1.0) < 1e-12  # e^{-2 pi i} = 1
    assert abs(sol.eval(0.25) - cmath.exp(-TWO_PI_I * 0.25)) < 1e-12


def test_solve_resonant_paper_value():
    # a' = -2 pi i (a + e^{-2 pi i t}), a(0) = 0  ->  -2 pi i t e^{-2 pi i t}
    g = ExpPoly.term(-TWO_PI_I, 0, Frequency.rational(-1))
    sol = solve_linear_ode(Frequency.rational(-1), g, 0.0)
    assert abs(sol.eval(1.0) - (-TWO_PI_I)) < 1e-12
    # structure: single term t^1 e^{-2 pi i t}
    [(key, c)] = list(sol.terms.items())
    assert key[0] == 1 and key[1].q == Fraction(-1)
    assert abs(c + TWO_PI_I) < 1e-14


def test_solve_resonant_polynomial():
    # a' = t, a(0) = 0 -> t^2/2; resonance at frequency 0, no division by zero
    sol = solve_linear_ode(Frequency.zero(), ExpPoly.t_power(1), 0.0)
    assert abs(sol.eval(2.0) - 2.0) < 1e-12
    assert abs(sol.eval(3.0) - 4.5) < 1e-12


@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(0, 3),
       st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False))
def test_ode_residual_identically_zero(alpha_m, g_m, g_k, g_c, a0):
    alpha = Frequency.rational(alpha_m)
    g = ExpPoly.term(g_c, g_k, Frequency.rational(g_m))
    sol = solve_linear_ode(alpha, g, a0)
    resid = sol.derivative() - sol * alpha.value - g
    assert resid.max_abs_coeff() < 1e-9 * max(1.0, abs(g_c), abs(a0))
    assert abs(sol.eval(0.0) - a0) < 1e-12 * max(1.0, abs(a0))


def test_numeric_ode_oracle():
    """Cross-check a closed-form solution against RK4 on its defining ODE."""
    alpha = Frequency.rational(2)
    g = (ExpPoly.term(1.5 - 0.5j, 1, Frequency.rational(-1))
         + ExpPoly.term(1.0j, 0, Frequency.rational(2)))  # resonant part
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
    p = ExpPoly.term(1.0, 2, Frequency.rational(1)) + ExpPoly.t_power(3)
    F = p.antiderivative()
    assert abs(F.eval(0.0)) < 1e-14
    # derivative returns the original
    assert (F.derivative() - p).max_abs_coeff() < 1e-12


def test_json_round_trip():
    p = (ExpPoly.term(1.0 - 2.0j, 1, Frequency.rational(Fraction(1, 2)))
         + ExpPoly.term(0.25, 0, Frequency.from_complex(0.3 + 0.7j)))
    d = p.to_json_dict()
    back = ExpPoly.from_json_dict(d)
    assert (p - back).max_abs_coeff() < 1e-15
    assert back.to_json_dict() == d


def test_frequencies_are_interned():
    import copy
    import pickle

    half = Frequency.rational(Fraction(1, 2))
    assert Frequency.rational(Fraction(2, 4)) is half
    assert Frequency.from_complex(0.5 * TWO_PI_I) is half
    assert Frequency.rational(1) + Frequency.rational(-1) is Frequency.zero()
    mu = Frequency.from_complex(0.3 + 0.7j)
    assert Frequency(None, 0.3 + 0.7j) is mu and mu != half
    p = ExpPoly.term(2.0, 1, half) + ExpPoly.term(1.0, 0, mu)
    for back in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert back.terms == p.terms
