"""Exponential polynomials: finite sums of c * t^k * e^(mu*t).

This ring is closed under differentiation, multiplication and under
solving first-order linear ODEs a' = alpha*a + g by variation of
parameters, which is exactly what the holonomy coefficient functions and
formal flow coefficients require.  Products run on term dicts through
:func:`mul_terms_into`, with no exponential polynomial built per factor;
``ExpPoly`` has no product of two of its own, only sums and multiples.
The solve multiplies by e^(-/+alpha t) as a one-term product
(mu -> mu -/+ alpha).

``Frequency(q)`` is the exact frequency 2*pi*i*q (q a Fraction), so
resonance (mu - alpha == 0) is detected exactly; ``Frequency.coerce(x)``
takes any outside number and keeps one that is no such multiple as a
complex double, with a 1e-12 resonance tolerance, and refuses one that is
not finite.  One construction rule: only ``ExpPoly(...)`` checks outside
input (integral t-powers, finite coefficients), and it prunes once;
arithmetic results are built by ``ExpPoly._from_clean``.  The prune test is
``Jet``'s, ``not abs(c) < PRUNE_TOL``, which keeps a NaN term.
"""
from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Dict, Tuple

from .jets import PRUNE_TOL, JetError, _integer

TWO_PI_I = 2j * math.pi
RESONANCE_TOL = 1e-12
_RATIONAL_MAX_DEN = 64


class Frequency:
    """An exponential frequency, exact when it is 2*pi*i times a rational.

    Frequencies are interned: ``Frequency(q)`` returns the one object for
    the rational q, and ``Frequency(None, value)`` the one object for that
    complex value.  Equality is therefore identity, the hash is the
    object's own, and sums are cached per pair, so ring products never
    hash or add Fractions in their inner loop.  Resonance stays exact:
    rational frequencies still add as Fractions, once per pair.
    """

    __slots__ = ("q", "value", "_zero", "_sums")
    _rationals: Dict[Fraction, "Frequency"] = {}
    _complexes: Dict[complex, "Frequency"] = {}

    def __new__(cls, q, value=None):
        if q is not None:
            freq = cls._rationals.get(q)
            if freq is None:
                q = Fraction(q)
                freq = cls._rationals.get(q)
                if freq is None:
                    freq = cls._rationals[q] = cls._make(q, TWO_PI_I * float(q), q == 0)
            return freq
        # + 0.0 turns -0.0 parts into 0.0: 1-0j and 1+0j are one key, and the
        # interned value must not depend on which of them came first
        value = complex(value) + 0.0
        freq = cls._complexes.get(value)
        if freq is None:
            if not cmath.isfinite(value):
                raise JetError(f"frequency {value!r} is not finite")
            freq = cls._complexes[value] = cls._make(None, value, abs(value) < RESONANCE_TOL)
        return freq

    @classmethod
    def _make(cls, q, value, zero) -> "Frequency":
        freq = object.__new__(cls)
        for name, v in (("q", q), ("value", value), ("_zero", zero), ("_sums", {})):
            object.__setattr__(freq, name, v)
        return freq

    def __setattr__(self, name, value):
        raise AttributeError("Frequency is immutable")

    def __reduce__(self):
        return (Frequency, (self.q, self.value))

    @classmethod
    def from_complex(cls, z: complex) -> "Frequency":
        z = complex(z)
        ratio = z / TWO_PI_I
        if abs(ratio.imag) < RESONANCE_TOL:
            q = Fraction(ratio.real).limit_denominator(_RATIONAL_MAX_DEN)
            if abs(ratio.real - float(q)) < RESONANCE_TOL:
                return cls(q)
        return cls(None, z)

    @classmethod
    def coerce(cls, x) -> "Frequency":
        if isinstance(x, Frequency):
            return x
        if isinstance(x, (Fraction, int)):
            return cls(x)
        return cls.from_complex(x)

    def is_zero(self) -> bool:
        return self._zero

    def __add__(self, other: "Frequency") -> "Frequency":
        total = self._sums.get(other)
        if total is None:
            if self.q is not None and other.q is not None:
                total = Frequency(self.q + other.q)
            else:
                total = Frequency.from_complex(self.value + other.value)
            self._sums[other] = total
        return total

    def __neg__(self) -> "Frequency":
        if self.q is not None:
            return Frequency(-self.q)
        return Frequency(None, -self.value)

    def __repr__(self):
        if self.q is not None:
            return f"2*pi*i*({self.q})"
        return f"{self.value!r}"


Key = Tuple[int, Frequency]


class ExpPoly:
    """Finite sum over (k, mu) of coeff * t^k * exp(mu*t)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Key, complex] | None = None):
        clean: Dict[Key, complex] = {}
        for (k, freq), c in (terms or {}).items():
            k = _integer(k, "t-power")
            if k < 0:
                raise ValueError("t-power must be non-negative")
            key = (k, Frequency.coerce(freq))
            c = complex(c)
            if not cmath.isfinite(c):
                raise JetError(f"coefficient of {key} is not finite, got {c!r}")
            clean[key] = clean.get(key, 0.0 + 0j) + c
        self.terms = {key: c for key, c in clean.items() if not abs(c) < PRUNE_TOL}

    @classmethod
    def _from_clean(cls, terms: Dict[Key, complex]) -> "ExpPoly":
        """Wrap (int, Frequency) keys and complex values, pruning negligible terms."""
        out = cls.__new__(cls)
        out.terms = {key: c for key, c in terms.items() if not abs(c) < PRUNE_TOL}
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "ExpPoly":
        return cls()

    @classmethod
    def term(cls, c, k: int = 0, freq=0) -> "ExpPoly":
        return cls({(k, freq): c})

    @classmethod
    def exponential(cls, freq) -> "ExpPoly":
        """e^(mu t); pass a Frequency, a rational q (meaning 2*pi*i*q) or a complex mu."""
        return cls.term(1.0, k=0, freq=freq)

    # -- sums and multiples ------------------------------------------------

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0.0 + 0j) + c
        return ExpPoly._from_clean(out)

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + (-other)

    def __neg__(self):
        return ExpPoly._from_clean({key: -c for key, c in self.terms.items()})

    def __mul__(self, other: complex) -> "ExpPoly":
        """Every term times the number ``other``."""
        return ExpPoly._from_clean({key: c * other for key, c in self.terms.items()})

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "ExpPoly":
        out: Dict[Key, complex] = {}
        for (k, f), c in self.terms.items():
            if k > 0:
                key = (k - 1, f)
                out[key] = out.get(key, 0.0 + 0j) + c * k
            if not f.is_zero():
                key = (k, f)
                out[key] = out.get(key, 0.0 + 0j) + c * f.value
        return ExpPoly._from_clean(out)

    def antiderivative(self) -> "ExpPoly":
        """The antiderivative F with F(0) = 0, term by term in closed form."""
        out: Dict[Key, complex] = {}
        zero = Frequency(0)
        for (k, f), c in self.terms.items():
            if f.is_zero():
                key = (k + 1, zero)
                out[key] = out.get(key, 0.0 + 0j) + c / (k + 1)
            else:
                mu = f.value
                # int t^k e^(mu t) = e^(mu t) * sum_j (-1)^j k!/(k-j)! t^(k-j) / mu^(j+1)
                fact = 1.0
                for j in range(k + 1):
                    if j > 0:
                        fact *= k - j + 1
                    key = (k - j, f)
                    out[key] = out.get(key, 0.0 + 0j) + c * ((-1) ** j) * fact / mu ** (j + 1)
                const = c * ((-1) ** k) * math.factorial(k) / mu ** (k + 1)
                key = (0, zero)
                out[key] = out.get(key, 0.0 + 0j) - const
        return ExpPoly._from_clean(out)

    def eval(self, t: complex) -> complex:
        t = complex(t)
        total = 0.0 + 0j
        for (k, f), c in self.terms.items():
            total += c * (t ** k if k else 1.0) * cmath.exp(f.value * t)
        return total

    # -- queries / io ------------------------------------------------------

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def _sorted_items(self):
        def key(item):
            (k, f), _ = item
            if f.q is not None:
                return (k, 0, float(f.q), 0.0)
            return (k, 1, f.value.real, f.value.imag)

        return sorted(self.terms.items(), key=key)

    def to_json_dict(self) -> dict:
        terms = []
        for (k, f), c in self._sorted_items():
            terms.append(
                {
                    "k": k,
                    "q_re": str(f.q) if f.q is not None else None,
                    "q_im": "0" if f.q is not None else None,
                    "mu_re": f.value.real,
                    "mu_im": f.value.imag,
                    "c_re": c.real,
                    "c_im": c.imag,
                }
            )
        return {"terms": terms}

    def __repr__(self):
        parts = []
        for (k, f), c in self._sorted_items():
            s = f"({c})"
            if k:
                s += f"*t^{k}"
            if not f.is_zero():
                s += f"*exp[{f!r}*t]"
            parts.append(s)
        return "ExpPoly(" + (" + ".join(parts) if parts else "0") + ")"


def mul_terms_into(acc: Dict[Key, complex], a: Dict[Key, complex], b: Dict[Key, complex]):
    """acc += a * b on term dicts; nothing is pruned, the caller does that once."""
    for (k1, f1), c1 in a.items():
        sums = f1._sums
        for (k2, f2), c2 in b.items():
            key = (k1 + k2, sums.get(f2) or f1 + f2)
            acc[key] = acc.get(key, 0.0 + 0j) + c1 * c2


def solve_linear_ode(alpha, g: ExpPoly, a0) -> ExpPoly:
    """Exact solution of a' = alpha*a + g(t), a(0) = a0, in the ExpPoly ring.

    Variation of parameters: a = e^(alpha t) * (a0 + int_0^t e^(-alpha s) g(s) ds).
    Resonant terms (frequency of g equal to alpha) integrate to t^(k+1)/(k+1);
    exactness of that comparison is what produces the paper-style t*e^(mu t)
    coefficients.
    """
    alpha = Frequency.coerce(alpha)
    shifted: Dict[Key, complex] = {}
    mul_terms_into(shifted, g.terms, {(0, -alpha): 1.0 + 0j})
    lifted = ExpPoly.term(a0) + ExpPoly._from_clean(shifted).antiderivative()
    out: Dict[Key, complex] = {}
    mul_terms_into(out, lifted.terms, {(0, alpha): 1.0 + 0j})
    return ExpPoly._from_clean(out)
