"""Exact series solutions of triangular coefficient systems.

Solves non-autonomous systems of the form

    dx_j/dt = sum_m e^(2 pi i m t) * J_{m,j}(x),

given as built, linear part included: the J_{m,j} vanish at x = 0 and
their degree-1 part is alpha_j x_j at m = 0 alone.  The solution is
expanded as x_j(t) = sum_A a_{j,A}(t) x0^A and multi-indices are processed
in increasing total degree.  Each coefficient satisfies the scalar linear
ODE a' = alpha_j a + g, whose forcing g comes from the terms of degree
>= 2 and only involves strictly lower-degree entries, and is solved
exactly in the exponential-polynomial ring.

The recursion is online (the "relaxed" series product of van der Hoeven,
J. Symb. Comput. 34, 2002): every homogeneous piece is computed once, as
soon as its inputs are known.  One table holds the degree pieces of
phi^A for every monomial A of the forcing and the prefixes B = A - e_i
that build it, phi^A[d] = sum_s phi_i[s] * phi^B[d - s], and is shared
by all components and loop frequencies.  Each degree-d forcing is then
one sum g_j[d] = sum_A (sum_m c_{m,j,A} e^(2 pi i m t)) * phi^A[d].

Both formal flows of autonomous polynomial fields (single frequency 0)
and holonomy monodromy systems use this engine.
"""
from __future__ import annotations

import cmath
from operator import add
from typing import Dict, List, Sequence, Tuple

from .exppoly import ExpPoly, Frequency, mul_terms_into, solve_linear_ode
from .jets import Jet, JetMap, grlex_key


class CoefficientSystemError(ValueError):
    pass


class CoefficientTable:
    """Per-(component, multi-index) exponential-polynomial coefficients."""

    def __init__(self, n_vars: int, order: int, alphas: Sequence[Frequency]):
        self.n_vars = n_vars
        self.order = order
        self.alphas = list(alphas)
        self.entries: Dict[Tuple[int, tuple], ExpPoly] = {}
        self.forcings: Dict[Tuple[int, tuple], ExpPoly] = {}

    def entry(self, component: int, exp) -> ExpPoly:
        return self.entries.get((component, tuple(exp)), ExpPoly.zero())

    def at_time(self, t: complex) -> JetMap:
        coeffs = [{} for _ in range(self.n_vars)]
        for (j, exp), poly in self.entries.items():
            coeffs[j][exp] = poly.eval(t)
        return JetMap([Jet._from_clean(self.n_vars, self.order, c) for c in coeffs])

    def ode_residual_max(self) -> float:
        """Max coefficient of a' - alpha*a - g over all entries; 0 means the
        table satisfies its defining ODEs identically in the ring."""
        worst = 0.0
        for (j, exp), poly in self.entries.items():
            g = self.forcings.get((j, exp), ExpPoly.zero())
            resid = poly.derivative() - poly * self.alphas[j].value - g
            worst = max(worst, resid.max_abs_coeff())
        return worst

    def sorted_keys(self):
        return sorted(self.entries, key=lambda key: (grlex_key(key[1]), key[0]))

    def to_json_dict(self) -> dict:
        items = []
        for j, exp in self.sorted_keys():
            items.append(
                {
                    "component": j,
                    "exp": list(exp),
                    "expoly": self.entries[(j, exp)].to_json_dict(),
                }
            )
        return {
            "n_vars": self.n_vars,
            "order": self.order,
            "alphas": [[a.value.real, a.value.imag] for a in self.alphas],
            "entries": items,
        }


SystemTerm = Tuple[int, Jet]  # (integer frequency m for e^(2 pi i m t), jet)
# a homogeneous piece of a series: monomial -> ExpPoly term dict
Piece = Dict[tuple, dict]


def solve_coefficient_system(
    system: Sequence[Sequence[SystemTerm]], order: int
) -> CoefficientTable:
    """Solve dx_j/dt = sum of e^(2 pi i m t) * jet(x) over the (m, jet) pairs
    of ``system[j]``, jets in n = len(system) variables, linear part included.

    The degree-1 terms must form a diagonal alpha_j x_j at frequency 0, the
    one shape for which the recursion is triangular; anything else raises
    CoefficientSystemError.  A solved coefficient that is not finite raises
    OverflowError.
    """
    n = len(system)
    freqs, weights = zip(*(_split_row(j, terms, n, order)
                           for j, terms in enumerate(system)))

    table = CoefficientTable(n, order, freqs)
    # phi[j][d]: the degree-d piece of component j, filled in as it is solved
    phi: List[List[Piece]] = []
    # degree 1: a_{j,e_j}' = alpha_j a, a(0)=1  ->  e^(alpha_j t)
    for j in range(n):
        exp = tuple(1 if k == j else 0 for k in range(n))
        table.entries[(j, exp)] = solve_linear_ode(freqs[j], ExpPoly.zero(), 1.0)
        table.forcings[(j, exp)] = ExpPoly.zero()
        phi.append([{}, {exp: table.entries[(j, exp)].terms}])

    powers = _PowerTable(phi, dict.fromkeys(a for w in weights for a in w), order)
    for d in range(2, order + 1):
        powers.extend(d)
        for j in range(n):
            g: Piece = {}
            for a, w in weights[j].items():
                for exp, p in powers.pieces[a][d].items():
                    acc = g.get(exp)
                    if acc is None:
                        acc = g[exp] = {}
                    mul_terms_into(acc, w, p)
            solved: Piece = {}
            for exp, terms in g.items():
                gp = ExpPoly._from_clean(terms)
                if not gp.terms:
                    continue
                entry = solve_linear_ode(freqs[j], gp, 0.0)
                if not all(map(cmath.isfinite, entry.terms.values())):
                    raise OverflowError(f"component {j}, x^{list(exp)}: "
                                        "the solved coefficient is not finite")
                table.entries[(j, exp)] = entry
                table.forcings[(j, exp)] = gp
                solved[exp] = entry.terms
            phi[j].append(solved)
    return table


def _split_row(j: int, terms: Sequence[SystemTerm], n: int, order: int):
    """alpha_j and the loop weights of row j: monomial A of degree 2..order
    -> term dict of sum_m c_{m,A} e^(2 pi i m t)."""
    alpha = None
    weights: Dict[tuple, dict] = {}
    for m, jet in terms:
        if jet.n_vars != n:
            raise CoefficientSystemError("system jet arity mismatch")
        key = (0, Frequency(m))
        for exp, c in jet.coeffs.items():
            deg = sum(exp)
            if deg >= 2:
                if deg <= order:
                    w = weights.setdefault(exp, {})
                    w[key] = w.get(key, 0.0 + 0j) + c
            elif deg == 0:
                raise CoefficientSystemError(
                    f"row {j} has a constant term; the system must vanish at x = 0")
            elif m != 0:
                raise CoefficientSystemError("degree-1 term with nonzero loop frequency; "
                                             "coefficient recursion is not triangular")
            elif exp[j] != 1:
                raise CoefficientSystemError("non-diagonal linear part in the system")
            else:
                alpha = complex(c) if alpha is None else alpha + c
    return Frequency.coerce(0j if alpha is None else alpha), weights


class _PowerTable:
    """Degree pieces of phi^A, each computed once from lower-degree pieces.

    Every monomial A of degree >= 2 is phi_i * phi^B with B = A - e_i for
    the last i with A_i > 0; B joins the table too, down to the single
    variables, whose pieces are the solved components themselves.  A piece
    of degree d only reads pieces of degree <= d - 1, so all of them are
    known before any degree-d coefficient is solved.
    """

    def __init__(self, phi: List[List[Piece]], monomials, order: int):
        self.phi = phi
        self.split: Dict[tuple, Tuple[int, tuple]] = {}
        stack = list(monomials)
        while stack:
            a = stack.pop()
            if sum(a) > 1 and a not in self.split:
                i = max(k for k, e in enumerate(a) if e)
                b = a[:i] + (a[i] - 1,) + a[i + 1:]
                self.split[a] = (i, b)
                stack.append(b)
        self.schedule = sorted(self.split, key=sum)
        # need[A]: the highest degree of phi^A that anything reads; walking
        # the schedule backwards settles each need before its prefix reads it
        self.need = dict.fromkeys(monomials, order)
        for a in reversed(self.schedule):
            b = self.split[a][1]
            self.need[b] = max(self.need.get(b, 0), self.need[a] - 1)
        # pieces[A][d] for d <= need[A]; the entries below degree |A| are empty
        self.pieces: Dict[tuple, List[Piece]] = {}
        for a in self.need:
            deg = sum(a)
            self.pieces[a] = phi[a.index(1)] if deg == 1 else [{}] * deg

    def extend(self, d: int):
        """Append the degree-d piece of every phi^A (|A| >= 2) still needed."""
        for a in self.schedule:
            deg = sum(a)
            if not deg <= d <= self.need[a]:
                continue
            i, b = self.split[a]
            phi_i, low = self.phi[i], self.pieces[b]
            acc: Piece = {}
            for s in range(1, d - deg + 2):
                _mul_pieces_into(acc, phi_i[s], low[d - s])
            piece: Piece = {}
            for exp, terms in acc.items():
                terms = ExpPoly._from_clean(terms).terms
                if terms:
                    piece[exp] = terms
            self.pieces[a].append(piece)


def _mul_pieces_into(acc: Piece, left: Piece, right: Piece):
    for e1, p1 in left.items():
        for e2, p2 in right.items():
            exp = tuple(map(add, e1, e2))
            terms = acc.get(exp)
            if terms is None:
                terms = acc[exp] = {}
            mul_terms_into(terms, p1, p2)
