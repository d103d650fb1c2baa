"""Sparse truncated multivariate power series (jets) over the complex numbers.

Coefficients are complex doubles by default, but the arithmetic is written
against a generic coefficient ring: anything supporting ``+``, ``*`` and
unary ``-`` works (the library builds complex jets only; the coefficient
tests' reference recursion runs on :class:`holodyn.exppoly.ExpPoly` ones).
One construction rule: ``Jet(...)`` alone checks outside input (integral
exponents within the order, finite scalar coefficients), and every
arithmetic result is built by the trusted :meth:`Jet._from_clean`, which only
prunes below ``PRUNE_TOL``; so a jet fixes the origin iff it stores no
constant term.

Monomials are keyed by exponent tuples and iterated in graded
lexicographic order, which makes every textual or serialized form
deterministic.
"""
from __future__ import annotations

import cmath
from typing import Iterable, Iterator, Sequence

PRUNE_TOL = 1e-14
DEFAULT_ORDER = 8


class JetError(ValueError):
    pass


def grlex_key(exp: Sequence[int]):
    """Graded-lex sort key: total degree first, then lexicographic."""
    return (sum(exp), tuple(exp))


def _is_scalar(c) -> bool:
    return isinstance(c, (int, float, complex))


def coeff_is_negligible(c) -> bool:
    if _is_scalar(c):
        return abs(c) < PRUNE_TOL
    return c.is_negligible()


def _unit(j: int, n: int) -> tuple:
    """The exponent of the j-th of n variables."""
    return tuple(int(k == j) for k in range(n))


def _integer(value, what: str) -> int:
    """``value`` as an int; a non-integral one (1.5, "2", inf) is a JetError."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise JetError(f"{what} must be an integer, got {value!r}")


class Jet:
    """A polynomial truncated at total degree ``order`` in ``n_vars`` variables.

    Jets are never mutated after construction: every operation returns a
    new jet, and :meth:`eval` caches a term plan built from ``coeffs`` on
    first use.
    """

    __slots__ = ("n_vars", "order", "coeffs", "_plan")

    def __init__(self, n_vars: int, order: int, coeffs=None):
        self.n_vars = n_vars = _integer(n_vars, "n_vars")
        self.order = order = _integer(order, "order")
        if n_vars < 1:
            raise JetError("n_vars must be >= 1")
        if order < 0:
            raise JetError("order must be >= 0")
        clean = {}
        for exp, c in (coeffs or {}).items():
            exp = tuple(_integer(e, f"exponent entry of {tuple(exp)}") for e in exp)
            if len(exp) != n_vars:
                raise JetError(f"exponent {exp} has wrong arity (n_vars={n_vars})")
            if any(e < 0 for e in exp):
                raise JetError(f"negative exponent in {exp}")
            if sum(exp) > order:
                raise JetError(f"monomial {exp} exceeds truncation order {order}")
            if _is_scalar(c) and not cmath.isfinite(c):
                raise JetError(f"coefficient of {exp} is not finite, got {c!r}")
            clean[exp] = clean[exp] + c if exp in clean else c
        self.coeffs = {e: c for e, c in clean.items() if not coeff_is_negligible(c)}
        self._plan = None

    @classmethod
    def _from_clean(cls, n_vars: int, order: int, coeffs: dict) -> "Jet":
        """Wrap distinct, valid int-tuple exponents, pruning negligible coefficients."""
        out = cls.__new__(cls)
        out.n_vars, out.order, out._plan = n_vars, order, None
        out.coeffs = {e: c for e, c in coeffs.items() if not coeff_is_negligible(c)}
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n_vars: int, order: int) -> "Jet":
        return cls(n_vars, order)

    @classmethod
    def constant(cls, n_vars: int, order: int, value) -> "Jet":
        return cls(n_vars, order, {(0,) * n_vars: value})

    @classmethod
    def one(cls, n_vars: int, order: int) -> "Jet":
        return cls.constant(n_vars, order, 1.0 + 0j)

    @classmethod
    def variable(cls, i: int, n_vars: int, order: int) -> "Jet":
        if not 0 <= i < n_vars:
            raise JetError(f"variable index {i} out of range")
        return cls(n_vars, order, {_unit(i, n_vars): 1.0 + 0j})

    # -- basic queries -----------------------------------------------------

    def coeff(self, exp: Sequence[int]):
        return self.coeffs.get(tuple(exp), 0.0 + 0j)

    def terms(self) -> Iterator[tuple]:
        """Yield (exponent, coefficient) in graded-lex order."""
        for exp in sorted(self.coeffs, key=grlex_key):
            yield exp, self.coeffs[exp]

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_degree_in(self, i: int) -> int:
        return max((e[i] for e in self.coeffs), default=0)

    def constant_term(self):
        return self.coeffs.get((0,) * self.n_vars, 0.0 + 0j)

    def _check_compat(self, other: "Jet"):
        if self.n_vars != other.n_vars or self.order != other.order:
            raise JetError(
                f"incompatible jets: ({self.n_vars} vars, order {self.order}) vs "
                f"({other.n_vars} vars, order {other.order})"
            )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        self._check_compat(other)
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out[exp] + c if exp in out else c
        return Jet._from_clean(self.n_vars, self.order, out)

    def __sub__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Jet._from_clean(self.n_vars, self.order, {e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check_compat(other)
            out = {}
            for e1, c1 in self.coeffs.items():
                d1 = sum(e1)
                for e2, c2 in other.coeffs.items():
                    if d1 + sum(e2) > self.order:
                        continue
                    exp = tuple(a + b for a, b in zip(e1, e2))
                    prod = c1 * c2
                    out[exp] = out[exp] + prod if exp in out else prod
            return Jet._from_clean(self.n_vars, self.order, out)
        # scalar (complex or ring element) multiplication
        return Jet._from_clean(self.n_vars, self.order,
                               {e: c * other for e, c in self.coeffs.items()})

    def __rmul__(self, other):
        return Jet._from_clean(self.n_vars, self.order,
                               {e: other * c for e, c in self.coeffs.items()})

    def truncate(self, order: int) -> "Jet":
        """The jet at ``order``, lower or higher: only terms above it are dropped."""
        if order < 0:
            raise JetError("order must be >= 0")
        return Jet._from_clean(self.n_vars, order,
                               {e: c for e, c in self.coeffs.items() if sum(e) <= order})

    def reciprocal(self) -> "Jet":
        """Multiplicative inverse up to the truncation order.

        Requires a nonzero constant term; geometric series in the
        valuation >= 1 part, which terminates after ``order`` passes.
        """
        c0 = self.constant_term()
        if coeff_is_negligible(c0):
            raise JetError("jet has (numerically) zero constant term; not invertible")
        u = self * (1.0 / c0) - Jet.one(self.n_vars, self.order)
        acc = Jet.one(self.n_vars, self.order)
        power = Jet.one(self.n_vars, self.order)
        for _ in range(self.order):
            power = power * (-u)
            if power.is_zero():
                break
            acc = acc + power
        return acc * (1.0 / c0)

    def diff(self, i: int) -> "Jet":
        out = {}
        for exp, c in self.coeffs.items():
            if exp[i] == 0:
                continue
            de = list(exp)
            de[i] -= 1
            out[tuple(de)] = c * exp[i]
        return Jet._from_clean(self.n_vars, self.order, out)

    # -- composition / evaluation -----------------------------------------

    def compose(self, inner) -> "Jet":
        """Substitute jets for the variables; ``inner`` is a JetMap or a jet list.

        Every inner component must have no stored constant term so that the
        substitution is well defined on truncations.
        """
        comps = inner.components if isinstance(inner, JetMap) else list(inner)
        if len(comps) != self.n_vars:
            raise JetError(f"composition needs {self.n_vars} inner jets, got {len(comps)}")
        m_vars, order = comps[0].n_vars, comps[0].order
        origin = (0,) * m_vars
        for h in comps:
            if h.n_vars != m_vars or h.order != order:
                raise JetError("inner jets must share n_vars and order")
            if origin in h.coeffs:
                raise JetError("inner jets must have zero constant term")
        one = Jet._from_clean(m_vars, order, {origin: 1.0 + 0j})
        powers = [{0: one} for _ in comps]

        def power(i: int, k: int) -> Jet:
            cache = powers[i]
            if k not in cache:
                cache[k] = power(i, k - 1) * comps[i]
            return cache[k]

        out = Jet.zero(m_vars, order)
        for exp, c in self.terms():
            term = one
            for i, e in enumerate(exp):
                if e:
                    term = term * power(i, e)
            out = out + term * c
        return out

    def eval(self, point) -> complex:
        """Value at a point: the sum of c * prod p_i^e_i over the terms in
        graded-lex order.

        The term plan, a list of (c, ((i, e), ...)) with only the nonzero
        exponents, is built once per jet; it keeps the order of the
        operations, so the result does not depend on whether it is cached.
        """
        point = tuple(point)
        if len(point) != self.n_vars:
            raise JetError("evaluation point has wrong dimension")
        plan = self._plan
        if plan is None:
            plan = self._plan = [
                (c, tuple((i, e) for i, e in enumerate(exp) if e))
                for exp, c in self.terms()
            ]
        total = 0.0 + 0j
        for c, factors in plan:
            m = 1.0 + 0j
            for i, e in factors:
                m *= point[i] ** e
            total += c * m
        return total

    # -- comparison / io ---------------------------------------------------

    def max_abs_diff(self, other: "Jet") -> float:
        self._check_compat(other)
        keys = set(self.coeffs) | set(other.coeffs)
        return max((abs(self.coeff(e) - other.coeff(e)) for e in keys), default=0.0)

    def allclose(self, other: "Jet", tol: float = 1e-12) -> bool:
        return self.max_abs_diff(other) <= tol

    def to_json_dict(self) -> dict:
        terms = [
            {"exp": list(exp), "re": c.real, "im": c.imag}
            for exp, c in ((e, complex(v)) for e, v in self.terms())
        ]
        return {"n_vars": self.n_vars, "order": self.order, "terms": terms}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Jet":
        coeffs = {tuple(t["exp"]): complex(t["re"], t["im"]) for t in d["terms"]}
        return cls(d["n_vars"], d["order"], coeffs)

    def __repr__(self):
        parts = []
        for exp, c in self.terms():
            mono = "*".join(f"x{i}^{e}" for i, e in enumerate(exp) if e) or "1"
            parts.append(f"({c})*{mono}")
        body = " + ".join(parts) if parts else "0"
        return f"Jet[{self.n_vars} vars, N={self.order}]({body})"


class JetMap:
    """An n-tuple of jets fixing the origin: a truncated germ of (C^n, 0)."""

    __slots__ = ("components", "n_vars", "order")

    def __init__(self, components: Iterable[Jet]):
        comps = list(components)
        kind = type(self).__name__
        if not comps:
            raise JetError(f"{kind} needs at least one component")
        n, order = comps[0].n_vars, comps[0].order
        if len(comps) != n:
            raise JetError(f"{kind} must be square: {len(comps)} components, {n} variables")
        origin = (0,) * n
        for c in comps:
            if c.n_vars != n or c.order != order:
                raise JetError("components must share n_vars and order")
            if origin in c.coeffs:
                raise JetError(f"{kind} components must vanish at the origin")
        self.components = comps
        self.n_vars = n
        self.order = order

    @classmethod
    def identity(cls, n_vars: int, order: int) -> "JetMap":
        return cls([Jet.variable(i, n_vars, order) for i in range(n_vars)])

    @classmethod
    def linear(cls, matrix, order: int) -> "JetMap":
        n = len(matrix)
        return cls([Jet(n, order, {_unit(j, n): complex(a) for j, a in enumerate(row)})
                    for row in matrix])

    def linear_part(self):
        """The n x n matrix of degree-1 coefficients (list of rows)."""
        units = [_unit(j, self.n_vars) for j in range(self.n_vars)]
        return [[complex(comp.coeff(e)) for e in units] for comp in self.components]

    def compose(self, other: "JetMap") -> "JetMap":
        return JetMap([c.compose(other) for c in self.components])

    def truncate(self, order: int) -> "JetMap":
        """Every component at ``order``; a subclass (a VectorField) keeps its class."""
        return type(self)([c.truncate(order) for c in self.components])

    def inverse(self) -> "JetMap":
        """Compositional inverse through the truncation order.

        Solves h(g(x)) = x by the contraction g <- L^{-1}(id - R(g)) with
        h = L + R, R of valuation >= 2; each pass fixes one more degree.
        """
        import numpy as np

        n, order = self.n_vars, self.order
        L = np.array(self.linear_part(), dtype=complex)
        if abs(np.linalg.det(L)) < 1e-12:
            raise JetError("linear part is singular; jet map is not invertible")
        Linv = np.linalg.inv(L)
        lin = JetMap.linear(L, order)
        rest_comps = [self.components[i] - lin.components[i] for i in range(n)]
        g = JetMap.linear(Linv, order)
        ident = JetMap.identity(n, order)
        for _ in range(order):
            rg = [r.compose(g) for r in rest_comps]
            target = [ident.components[i] - rg[i] for i in range(n)]
            g = JetMap([sum_linear(Linv[i], target) for i in range(n)])
        return g

    def eval(self, point):
        return tuple(c.eval(point) for c in self.components)

    def max_abs_diff(self, other: "JetMap") -> float:
        if self.n_vars != other.n_vars:
            raise JetError("dimension mismatch")
        return max(a.max_abs_diff(b) for a, b in zip(self.components, other.components))

    def allclose(self, other: "JetMap", tol: float = 1e-12) -> bool:
        return self.max_abs_diff(other) <= tol

    def to_json_dict(self) -> dict:
        return {"components": [c.to_json_dict() for c in self.components]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "JetMap":
        return cls([Jet.from_json_dict(c) for c in d["components"]])

    def __repr__(self):
        return "JetMap(\n  " + ",\n  ".join(repr(c) for c in self.components) + "\n)"


def sum_linear(row, jets: Sequence[Jet]) -> Jet:
    """Linear combination sum_j row[j] * jets[j]."""
    out = Jet.zero(jets[0].n_vars, jets[0].order)
    for a, j in zip(row, jets):
        if a != 0:
            out = out + j * complex(a)
    return out
