"""Acceptance gate: the full reproduction suite, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
are produced; they are also attached to the assertion message on failure.
"""
import cmath
import math

import numpy as np
import pytest

from holodyn import reproduce
from holodyn.jets import Jet, JetMap
from holodyn.orbits import PseudogroupOrbit

CHECK_NAMES = list(reproduce.CHECKS)


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_acceptance(name, capsys):
    result = reproduce.CHECKS[name]()
    with capsys.disabled():
        print(result.line)
    assert result.passed, result.line


# -- the failing branch of each check --------------------------------------------


def holonomy_series_plus(exp, c):
    """reproduce.holonomy_series with c x^exp added to the first component of
    every holonomy jet it returns."""
    series = reproduce.holonomy_series

    def patched(*args, **kwargs):
        h, table = series(*args, **kwargs)
        first, *rest = h.components
        return JetMap([first + Jet(h.n_vars, h.order, {exp: c}), *rest]), table

    return patched


def test_holonomy_exact_fails_on_a_degree_2_term(monkeypatch):
    monkeypatch.setattr(reproduce, "holonomy_series", holonomy_series_plus((2, 0), 0.5))
    result = reproduce.check_holonomy_exact()
    assert not result.passed
    assert result.line.startswith("[FAIL] holonomy-exact: deg-2/3 max |c| = 5.00e-01, ")


def test_linear_model_fails_on_a_nonlinear_term(monkeypatch):
    monkeypatch.setattr(reproduce, "holonomy_series", holonomy_series_plus((1, 1), 0.25))
    result = reproduce.check_linear_model()
    assert not result.passed
    assert result.line == ("[FAIL] linear-model: max |holonomy - "
                           "diag(e^(2 pi i lambda_j / lambda_axis))| = 2.50e-01")


def test_brute_force_closure_gives_up_on_an_irrational_rotation():
    """The rotation by 2 pi sqrt(2) has infinite order: past BRUTE_FORCE_BUDGET
    elements the oracle returns -1."""
    rotation = np.array([[cmath.exp(2j * math.pi * math.sqrt(2))]])
    assert reproduce.brute_force_closure([rotation]) == -1


def test_pseudogroup_fails_on_a_cardinality_that_does_not_divide_24(monkeypatch):
    """Every orbit made 5 points, which is at most 24 but does not divide it."""
    monkeypatch.setattr(reproduce, "pseudogroup_orbit",
                        lambda gens, seed, V: PseudogroupOrbit(seed, [seed] * 5, [""] * 5, False))
    result = reproduce.check_pseudogroup()
    assert not result.passed
    assert result.line == ("[FAIL] pseudogroup: closure order 24 (oracle 24), non-commuting "
                           "generator pair (0, 1), 100 lattice orbits all of cardinality "
                           "dividing 24 (max 5), H-map periodicity up to 200: None")
