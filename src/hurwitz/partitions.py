"""Integer partitions as ramification types.

Parts are stored as a weakly decreasing tuple of positive integers, with
the weight n and the length m beside them, set once; the minimal
transposition count n + m - 2 hangs off the same object.
"""

from __future__ import annotations

import math
from functools import lru_cache, total_ordering
from typing import Iterator, Sequence, Tuple

__all__ = ["Partition", "parts_text", "partitions", "parts_of_weight",
           "parts_of_length", "centralizer_order", "class_size"]


@total_ordering
class Partition:
    """Immutable; equal, hashed and ordered by `parts`.  `n` and `m` are
    the sum and the length of `parts`, stored when it is made."""

    __slots__ = ("parts", "n", "m")

    def __init__(self, parts: Tuple[int, ...]):
        if any(a < 1 for a in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "n", sum(parts))
        object.__setattr__(self, "m", len(parts))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.parts < other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.parts,))

    def __reduce__(self):
        return Partition, (self.parts,)

    def __repr__(self) -> str:
        return f"Partition(parts={self.parts!r})"

    @staticmethod
    def of(parts: Sequence[int]) -> "Partition":
        return Partition(tuple(sorted(parts, reverse=True)))

    @staticmethod
    def parse(text: str) -> "Partition":
        """Comma-separated parts, any order; normalized descending.

        Each nonblank field must be ASCII digits, with spaces around them
        allowed; blank fields are skipped.  `int` alone would also read
        `3_0` as 30, and accept a sign or non-ASCII digits; a field past
        `int`'s digit limit is refused the same way."""
        fields = [tok for tok in map(str.strip, text.split(",")) if tok]
        if not all(tok.isascii() and tok.isdigit() for tok in fields):
            raise ValueError(f"cannot parse partition {text!r}")
        try:
            parts = [int(tok) for tok in fields]
        except ValueError:
            raise ValueError(f"cannot parse partition {text!r}") from None
        if not parts:
            raise ValueError("empty partition")
        return Partition.of(parts)

    @property
    def min_length(self) -> int:
        """Fewest transpositions whose product can have this cycle type
        while acting transitively: n + m - 2."""
        return self.n + self.m - 2

    def j_for_genus(self, g: int) -> int:
        return self.min_length + 2 * g

    def __str__(self) -> str:
        return parts_text(self.parts)


def parts_text(parts: Sequence[int]) -> str:
    """Parts as a Partition prints them: `(3,1,1)`."""
    return "(" + ",".join(map(str, parts)) + ")"


@lru_cache(maxsize=None)
def _parts_lists(n: int, cap: int) -> Tuple[Tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, cap), 0, -1):
        for rest in _parts_lists(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def parts_of_weight(n: int) -> Tuple[Tuple[int, ...], ...]:
    """The parts of every partition of n, as weakly decreasing tuples in
    descending-lex order; built once per n and kept."""
    return _parts_lists(n, n)


def partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, descending-lex order."""
    for p in parts_of_weight(n):
        yield Partition(p)


def _parts_of_length(n: int, m: int, cap: int) -> Iterator[Tuple[int, ...]]:
    if m == 0:
        if n == 0:
            yield ()
        return
    # the first part lies between max(1, ceil(n / m)) and n - (m - 1), and
    # every first part in that range (up to cap) starts a partition
    for first in range(min(cap, n - m + 1), max(1, -(-n // m)) - 1, -1):
        for rest in _parts_of_length(n - first, m - 1, first):
            yield (first,) + rest


def parts_of_length(n: int, m: int) -> Iterator[Tuple[int, ...]]:
    """The parts of each partition of n with exactly m parts, as weakly
    decreasing tuples, in the descending-lex order of partitions(n),
    without visiting the others."""
    return _parts_of_length(n, m, n)


def centralizer_order(alpha: Partition) -> int:
    """z_alpha = prod_a a^(k_a) k_a!, with k_a the multiplicity of the part
    a: the order of the centralizer of a permutation of cycle type alpha,
    n! / class_size(alpha)."""
    z, mult, prev = 1, 1, None
    for a in alpha.parts:
        mult = mult + 1 if a == prev else 1
        z *= a * mult
        prev = a
    return z


def class_size(alpha: Partition) -> int:
    """Size of the conjugacy class with cycle type alpha in S_n."""
    return math.factorial(alpha.n) // centralizer_order(alpha)
