"""Sparse multivariate Laurent polynomials over the rationals.

A polynomial is stored as integer numerators over one shared
denominator: `num` maps exponent tuples to nonzero ints and `den` is a
positive int with gcd(den, *num.values()) == 1, so equal polynomials
have equal storage.  The zero polynomial has an empty `num` and den 1.
Fractions appear only at the API edge (`terms`, `coeff`, `evaluate`,
`sorted_terms`, `to_obj`).  Exponents are ints and may be negative (a few
downstream objects are honest Laurent polynomials).  Every polynomial
carries a variable kind tag and an arity; arithmetic between mismatched
kinds or arities is refused, which catches a whole family of plumbing
mistakes (e.g. adding a y-form to a w-jet).

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
from typing import Dict, Mapping, Sequence

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

    Callers must not mutate `num` after construction; all methods return
    new objects.
    """

    __slots__ = ("kind", "arity", "num", "den")

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

    @classmethod
    def zero(cls, kind: str, arity: int) -> "SparsePoly":
        return cls(kind, arity)

    @classmethod
    def const(cls, kind: str, arity: int, value) -> "SparsePoly":
        return cls(kind, arity, {(0,) * arity: value})

    @classmethod
    def variable(cls, kind: str, arity: int, index: int, power: int = 1) -> "SparsePoly":
        """The monomial (var_index)^power.  Index is 0-based."""
        if not 0 <= index < arity:
            raise IndexError(f"variable index {index} out of range for arity {arity}")
        exps = [0] * arity
        exps[index] = power
        return cls(kind, arity, {tuple(exps): 1})

    @classmethod
    def monomial(cls, kind: str, exps: Sequence[int], coeff) -> "SparsePoly":
        return cls(kind, len(exps), {tuple(exps): coeff})

    # ----- basic queries ------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponent, Fraction]:
        """Read-only {exponent: Fraction} view, built on each access."""
        den = self.den
        return MappingProxyType({e: Fraction(c, den) for e, c in self.num.items()})

    def is_zero(self) -> bool:
        return not self.num

    def coeff(self, exps: Sequence[int]) -> Fraction:
        return Fraction(self.num.get(tuple(exps), 0), self.den)

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

    def min_exponents(self) -> tuple:
        """Componentwise min exponent; detects Laurent terms."""
        mins = [0] * self.arity
        for e in self.num:
            for i, v in enumerate(e):
                if v < mins[i]:
                    mins[i] = v
        return tuple(mins)

    # ----- arithmetic ---------------------------------------------------

    def _check_compat(self, other: "SparsePoly") -> None:
        if self.kind != other.kind or self.arity != other.arity:
            raise ValueError(
                f"incompatible polynomials: {self.kind}/{self.arity} vs {other.kind}/{other.arity}"
            )

    def _combine(self, other: "SparsePoly", sign: int) -> "SparsePoly":
        """self + sign * other over the common denominator."""
        self._check_compat(other)
        den = math.lcm(self.den, other.den)
        ka, kb = den // self.den, sign * (den // other.den)
        out = {e: ka * c for e, c in self.num.items()}
        for e, c in other.num.items():
            out[e] = out.get(e, 0) + kb * c
        return SparsePoly.from_core(self.kind, self.arity, out, den)

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        return self._combine(other, 1)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self._combine(other, -1)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly.from_core(
            self.kind, self.arity, {e: -c for e, c in self.num.items()}, self.den)

    def scale(self, c) -> "SparsePoly":
        c = _as_fraction(c)
        k = c.numerator
        return SparsePoly.from_core(
            self.kind, self.arity, {e: k * v for e, v in self.num.items()},
            self.den * c.denominator)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compat(other)
        # iterate the smaller factor on the outside
        a, b = self.num, other.num
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
        return SparsePoly.from_core(self.kind, self.arity, out, self.den * other.den)

    __rmul__ = __mul__

    # ----- structural operations ---------------------------------------

    def permute(self, perm: Sequence[int]) -> "SparsePoly":
        """Relabel variables: old variable i becomes variable perm[i]."""
        return self.embed(self.arity, perm)

    def embed(self, arity: int, positions: Sequence[int]) -> "SparsePoly":
        """View this polynomial inside a larger variable set.

        Old variable i lands at positions[i]; new slots are absent from
        every term (exponent 0).
        """
        if len(positions) != self.arity:
            raise ValueError("positions must list a target for every variable")
        if len(set(positions)) != self.arity or any(not 0 <= p < arity for p in positions):
            raise ValueError(f"bad embedding {positions} into arity {arity}")
        out: dict = {}
        for e, c in self.num.items():
            ne = [0] * arity
            for i, v in enumerate(e):
                ne[positions[i]] = v
            out[tuple(ne)] = c
        return SparsePoly.from_core(self.kind, arity, out, self.den)

    def substitute_one(self, index: int) -> "SparsePoly":
        """Set variable `index` to 1 (exponent dropped, arity kept)."""
        out: dict = {}
        for e, c in self.num.items():
            ne = e[:index] + (0,) + e[index + 1:]
            out[ne] = out.get(ne, 0) + c
        return SparsePoly.from_core(self.kind, self.arity, out, self.den)

    def evaluate(self, values: Sequence) -> Fraction:
        """Full evaluation at rational points."""
        if len(values) != self.arity:
            raise ValueError("value count must match arity")
        vals = [_as_fraction(v) for v in values]
        total = Fraction(0)
        for e, c in self.num.items():
            term = c
            for v, k in zip(vals, e):
                if k == 0:
                    continue
                if v == 0 and k < 0:
                    raise ZeroDivisionError("negative exponent at zero")
                term *= v ** k
            total += term
        return total / self.den

    def is_symmetric(self) -> bool:
        """Invariance under all variable permutations.

        Checked on the generators (adjacent swap and full cycle), which
        suffices for the whole symmetric group.
        """
        m = self.arity
        if m <= 1:
            return True
        swap = list(range(m))
        swap[0], swap[1] = 1, 0
        if self.permute(swap) != self:
            return False
        cyc = [(i + 1) % m for i in range(m)]
        return self.permute(cyc) == self

    # ----- ordering and serialization -----------------------------------

    def sorted_terms(self) -> list:
        """Terms in graded lexicographic order (degree first, then exponents)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "arity": self.arity,
            "terms": [
                [list(e), str(c.numerator), str(c.denominator)]
                for e, c in self.sorted_terms()
            ],
        }

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
