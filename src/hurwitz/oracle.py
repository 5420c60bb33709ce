"""Ground-truth counts of ordered transposition factorizations.

Two independent routes:

  * dfs_count walks every tuple of transpositions (tiny n only), testing
    transitivity with a union-find over the touched pairs;
  * all_counts runs a class-vector recurrence (one step = right-multiply
    by a fresh transposition, splitting into cut and join moves), then
    transitive_counts sieves out the non-transitive part as the formal
    logarithm of the resulting exponential series.

All-mode entries are normalized per fixed representative: the class
total divides evenly by the class size and the quotient is stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Tuple

from .errors import BudgetExceeded, CertificationError
from .partitions import Partition, class_size, partitions

__all__ = [
    "ClassVector",
    "FactorizationTable",
    "dfs_count",
    "cutjoin_step",
    "all_counts",
    "transitive_counts",
    "c_count",
    "mu_count",
    "N_BUDGET",
    "J_BUDGET",
]

N_BUDGET = 8
J_BUDGET = 14
DFS_N_GUARD = 4
DFS_J_GUARD = 9


@dataclass
class ClassVector:
    n: int
    counts: Dict[Partition, int] = field(default_factory=dict)


@dataclass
class FactorizationTable:
    mode: str  # "all" or "transitive"
    entries: Dict[Tuple[int, int, Partition], int] = field(default_factory=dict)

    def count(self, n: int, j: int, alpha: Partition) -> int:
        return self.entries.get((n, j, alpha), 0)


# ----- direct enumeration -------------------------------------------------

def _representative(alpha: Partition) -> tuple:
    """The permutation (1..a1)(a1+1..a1+a2)... as a value array."""
    perm = list(range(alpha.n))
    base = 0
    for a in alpha.parts:
        for i in range(a):
            perm[base + i] = base + (i + 1) % a
        base += a
    return tuple(perm)


@lru_cache(maxsize=None)
def _dfs_tally(n: int, j: int):
    """Tally every j-tuple of transpositions of {1..n} by its ordered
    product, in both modes.  Union-find with rollback, no compression."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    perm = list(range(n))
    parent = list(range(n))
    size = [1] * n
    state = [n]  # component count
    tally_all: Dict[tuple, int] = {}
    tally_tr: Dict[tuple, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def rec(depth: int):
        if depth == j:
            key = tuple(perm)
            tally_all[key] = tally_all.get(key, 0) + 1
            if state[0] == 1:
                tally_tr[key] = tally_tr.get(key, 0) + 1
            return
        for a, b in pairs:
            perm[a], perm[b] = perm[b], perm[a]
            ra, rb = find(a), find(b)
            merged = ra != rb
            if merged:
                if size[ra] < size[rb]:
                    ra, rb = rb, ra
                parent[rb] = ra
                size[ra] += size[rb]
                state[0] -= 1
            rec(depth + 1)
            if merged:
                parent[rb] = rb
                size[ra] -= size[rb]
                state[0] += 1
            perm[a], perm[b] = perm[b], perm[a]

    rec(0)
    return tally_all, tally_tr


def dfs_count(alpha: Partition, j: int, require_transitive: bool) -> int:
    """Tuples of j transpositions with ordered product equal to the fixed
    representative of the class of alpha."""
    n = alpha.n
    if n > DFS_N_GUARD or j > DFS_J_GUARD:
        raise BudgetExceeded(
            f"direct enumeration is limited to n <= {DFS_N_GUARD}, "
            f"j <= {DFS_J_GUARD}; use the class-vector route instead"
        )
    tally = _dfs_tally(n, j)[1 if require_transitive else 0]
    return tally.get(_representative(alpha), 0)


# ----- class-vector recurrence --------------------------------------------

def cutjoin_step(v: ClassVector) -> ClassVector:
    """Counts after right-multiplying by one more transposition."""
    out: Dict[Partition, int] = {}

    def add(parts: tuple, c: int):
        key = Partition(tuple(sorted(parts, reverse=True)))
        out[key] = out.get(key, 0) + c

    for lam, cnt in v.counts.items():
        if not cnt:
            continue
        mult: Dict[int, int] = {}
        for a in lam.parts:
            mult[a] = mult.get(a, 0) + 1
        values = sorted(mult)
        # joins: two distinct cycles of lengths a, b merge; a*b choices
        for ia, a in enumerate(values):
            ka = mult[a]
            if ka >= 2:
                ways = (ka * (ka - 1) // 2) * a * a
                add(_replace(lam.parts, (a, a), (2 * a,)), cnt * ways)
            for b in values[ia + 1:]:
                ways = ka * mult[b] * a * b
                add(_replace(lam.parts, (a, b), (a + b,)), cnt * ways)
        # cuts: one cycle of length c splits into (a, c-a)
        for c in values:
            kc = mult[c]
            for a in range(1, c // 2 + 1):
                ways = kc * (c // 2 if 2 * a == c else c)
                add(_replace(lam.parts, (c,), (a, c - a)), cnt * ways)
    return ClassVector(v.n, out)


def _replace(parts: tuple, remove: tuple, insert: tuple) -> tuple:
    out = list(parts)
    for r in remove:
        out.remove(r)
    out.extend(insert)
    return tuple(out)


@lru_cache(maxsize=None)
def all_counts(n_max: int, j_max: int) -> FactorizationTable:
    """All-mode table for every n <= n_max, j <= j_max."""
    if n_max > N_BUDGET or j_max > J_BUDGET:
        raise BudgetExceeded(
            f"class-vector table is budgeted to n <= {N_BUDGET}, j <= {J_BUDGET}"
        )
    table = FactorizationTable("all")
    for n in range(1, n_max + 1):
        npairs = n * (n - 1) // 2
        v = ClassVector(n, {Partition((1,) * n): 1})
        for j in range(j_max + 1):
            mass = sum(v.counts.values())
            if mass != npairs ** j:
                raise CertificationError(
                    f"mass drifted at n={n}, j={j}: {mass} != {npairs}^{j}"
                )
            for lam, cnt in v.counts.items():
                if not cnt:
                    continue
                size = class_size(lam)
                if cnt % size:
                    raise CertificationError(
                        f"class total for {lam} at j={j} is not uniform"
                    )
                table.entries[(n, j, lam)] = cnt // size
            if j < j_max:
                v = cutjoin_step(v)
    return table


# ----- transitivity sieve -------------------------------------------------

Slice = Dict[Tuple[int, tuple], Fraction]  # key: (j, parts); weight n is the slice index


def _slice_mul(a: Slice, b: Slice, j_max: int) -> Slice:
    out: Slice = {}
    for (j1, p1), c1 in a.items():
        for (j2, p2), c2 in b.items():
            j = j1 + j2
            if j > j_max:
                continue
            key = (j, tuple(sorted(p1 + p2, reverse=True)))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _slice_axpy(acc: Slice, k: int, prod: Slice):
    for key, c in prod.items():
        acc[key] = acc.get(key, 0) - k * c


def _log_slices(F: List[Slice], j_max: int) -> List[Slice]:
    """log of 1 + sum of positive-weight slices, slice by slice."""
    n_max = len(F) - 1
    L: List[Slice] = [dict() for _ in range(n_max + 1)]
    for n in range(1, n_max + 1):
        acc: Slice = {key: n * c for key, c in F[n].items()}
        for k in range(1, n):
            _slice_axpy(acc, k, _slice_mul(L[k], F[n - k], j_max))
        L[n] = {key: c / n for key, c in acc.items() if c}
    return L


def _exp_slices(L: List[Slice], j_max: int) -> List[Slice]:
    n_max = len(L) - 1
    F: List[Slice] = [dict() for _ in range(n_max + 1)]
    F[0] = {(0, ()): Fraction(1)}
    for n in range(1, n_max + 1):
        acc: Slice = {}
        for k in range(1, n + 1):
            _slice_axpy(acc, -k, _slice_mul(L[k], F[n - k], j_max))
        F[n] = {key: c / n for key, c in acc.items() if c}
    return F


def _table_to_slices(table: FactorizationTable, n_max: int, j_max: int) -> List[Slice]:
    """Exponential series of the table: weight of (j, alpha) entry c is
    c * |C_alpha| / (n! j!)."""
    F: List[Slice] = [dict() for _ in range(n_max + 1)]
    F[0] = {(0, ()): Fraction(1)}
    for (n, j, lam), c in table.entries.items():
        if c:
            F[n][(j, lam.parts)] = Fraction(
                c * class_size(lam), math.factorial(n) * math.factorial(j)
            )
    return F


def transitive_counts(table: FactorizationTable) -> FactorizationTable:
    """Sieve an all-mode table down to transitive tuples."""
    if table.mode != "all":
        raise ValueError("transitive_counts wants an all-mode table")
    if not table.entries:
        raise ValueError("empty table")
    n_max = max(k[0] for k in table.entries)
    j_max = max(k[1] for k in table.entries)
    for n in range(1, n_max + 1):
        npairs = n * (n - 1) // 2
        for j in range(j_max + 1):
            mass = sum(
                table.count(n, j, lam) * class_size(lam) for lam in partitions(n)
            )
            if mass != npairs ** j:
                raise ValueError(f"all-table incomplete at n={n}, j={j}")
    F = _table_to_slices(table, n_max, j_max)
    L = _log_slices(F, j_max)
    out = FactorizationTable("transitive")
    for n in range(1, n_max + 1):
        nfact = math.factorial(n)
        for (j, parts), c in L[n].items():
            lam = Partition(parts)
            val = c * nfact * math.factorial(j) / class_size(lam)
            if val:
                if val.denominator != 1 or val < 0:
                    raise CertificationError(
                        f"sieve produced non-integral count {val} at {(n, j, parts)}"
                    )
                out.entries[(n, j, lam)] = int(val)
    return out


@lru_cache(maxsize=None)
def _transitive_table(n_max: int, j_max: int) -> FactorizationTable:
    return transitive_counts(all_counts(n_max, j_max))


def c_count(alpha: Partition, g: int) -> int:
    """Transitive tuples of length n + m + 2g - 2 with product the fixed
    representative of alpha."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    j = alpha.j_for_genus(g)
    n = alpha.n
    if n > N_BUDGET or j > J_BUDGET:
        raise BudgetExceeded(
            f"c_count needs n <= {N_BUDGET} and j = n + m + 2g - 2 <= {J_BUDGET}"
        )
    return _transitive_table(N_BUDGET, J_BUDGET).count(n, j, alpha)


def mu_count(alpha: Partition, g: int) -> Fraction:
    """Disconnected-normalized count: |C_alpha| c_g(alpha) / n!."""
    return Fraction(
        class_size(alpha) * c_count(alpha, g), math.factorial(alpha.n)
    )
