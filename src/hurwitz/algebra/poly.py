"""Sparse multivariate Laurent polynomials over the rationals.

A polynomial is stored as integer numerators over one shared
denominator: `num` maps exponent tuples to nonzero ints and `den` is a
positive int with gcd(den, *num.values()) == 1, so equal polynomials
have equal storage.  The zero polynomial has an empty `num` and den 1.
Fractions appear only at the API edge (`terms`, `to_obj`).  Exponents
are ints and may be negative (a few downstream objects are honest
Laurent polynomials).  Every polynomial carries a variable kind tag and
an arity.  The class stores, compares and serializes; the package
computes on `num` and `den` directly.

Kinds:
    Y   y_i = 1/(1 - w_i), the working coordinates of the solved forms
    W   w_i, the tree-function coordinates (jets live here)
    X   x_i, the underlying point coordinates
    E   e_k, elementary symmetric arguments of extracted forms
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, Mapping

__all__ = ["SparsePoly", "KINDS", "Exponent"]

KINDS = ("Y", "W", "X", "E")

Exponent = tuple  # tuple[int, ...]

_VAR_LETTER = {"Y": "y", "W": "w", "X": "x", "E": "e"}


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"coefficient must be int or Fraction, got {type(v).__name__}")


class SparsePoly:
    """Immutable-by-convention sparse polynomial.

    Callers must not mutate `num`: `sym.e_numerator` keeps its plan in `_e_plan`.
    """

    __slots__ = ("kind", "arity", "num", "den", "_e_plan")

    def __init__(self, kind: str, arity: int, terms: Mapping[Exponent, Fraction] | None = None):
        coeffs: dict = {}
        for exps, c in (terms or {}).items():
            if len(exps) != arity:
                raise ValueError(f"exponent tuple {exps} does not match arity {arity}")
            coeffs[tuple(exps)] = _as_fraction(c)
        den = math.lcm(*(c.denominator for c in coeffs.values()))
        num = {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()}
        self._set(kind, arity, num, den)

    def _set(self, kind: str, arity: int, num: Dict[Exponent, int], den: int) -> None:
        """Store num/den in normal form: no zeros, den > 0, content one."""
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        if arity < 0:
            raise ValueError("arity must be >= 0")
        if not den:
            raise ZeroDivisionError("polynomial with denominator zero")
        num = {e: c for e, c in num.items() if c}
        g = math.gcd(den, *num.values())
        if den < 0:
            g = -g
        if g != 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
        self.kind = kind
        self.arity = arity
        self.num = num
        self.den = den

    # ----- constructors -------------------------------------------------

    @classmethod
    def from_core(cls, kind: str, arity: int, num: Mapping[Exponent, int],
                  den: int = 1) -> "SparsePoly":
        """The polynomial num/den; zero entries are dropped and the
        fraction is reduced.  Exponent tuples are trusted to match arity."""
        self = cls.__new__(cls)
        self._set(kind, arity, num, den)
        return self

    # ----- basic queries ------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        """Read-only {exponent: Fraction} view, built on each access."""
        den = self.den
        return MappingProxyType({e: Fraction(c, den) for e, c in self.num.items()})

    def is_zero(self) -> bool:
        return not self.num

    def __len__(self) -> int:
        return len(self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return (self.kind, self.arity, self.den, self.num) == (
            other.kind, other.arity, other.den, other.num)

    __hash__ = None  # dict payload, not hashable

    def total_degree(self) -> int | None:
        """Max over terms of the exponent sum.  None for the zero polynomial."""
        if not self.num:
            return None
        return max(sum(e) for e in self.num)

    def per_var_degrees(self) -> tuple:
        """Componentwise max exponent, (0,...,0) for zero."""
        degs = [0] * self.arity
        for e in self.num:
            for i, v in enumerate(e):
                if v > degs[i]:
                    degs[i] = v
        return tuple(degs)

    # ----- ordering and serialization -----------------------------------

    def to_obj(self) -> dict:
        """Each term as [exponent, numerator, denominator] in lowest
        terms, in graded lexicographic order (degree first, then
        exponents): the one term order of the cache files and of `table`'s
        JSON and CSV."""
        num, den = self.num, self.den
        terms = []
        for e in sorted(num, key=lambda e: (sum(e), e)):
            g = math.gcd(num[e], den)
            terms.append([list(e), str(num[e] // g), str(den // g)])
        return {"kind": self.kind, "arity": self.arity, "terms": terms}

    @classmethod
    def from_obj(cls, obj: Mapping) -> "SparsePoly":
        kind, arity = obj["kind"], obj["arity"]
        rows = [(tuple(e), int(n), int(d)) for e, n, d in obj["terms"]]
        if any(len(e) != arity for e, _, _ in rows):
            raise ValueError(f"exponent tuple does not match arity {arity}")
        den = math.lcm(*(d for _, _, d in rows))
        return cls.from_core(kind, arity, {e: n * (den // d) for e, n, d in rows}, den)

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), separators=(",", ":"))

    def __repr__(self) -> str:
        return f"SparsePoly({self.kind!r}, {self.arity}, {len(self.num)} terms)"

    def __str__(self) -> str:
        """Integer coefficients, lex-descending, common denominator pulled out."""
        if not self.num:
            return "0"
        letter = _VAR_LETTER[self.kind]
        parts = []
        for e, c in sorted(self.num.items(), reverse=True):
            factors = []
            for i, k in enumerate(e):
                if k:
                    factors.append(f"{letter}{i+1}" if k == 1 else f"{letter}{i+1}^{k}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        s = parts[0]
        for p in parts[1:]:
            s += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return s if self.den == 1 else f"({s})/{self.den}"
