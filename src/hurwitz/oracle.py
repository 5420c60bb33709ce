"""Ground-truth counts of ordered transposition factorizations.

Two independent routes:

  * dfs_count multiplies every tuple of transpositions through, one
    transposition at a time (small n only), tallying equal states of
    product and connected points;
  * all_counts runs a class-vector recurrence (one step = right-multiply
    by a fresh transposition, splitting into cut and join moves), then
    transitive_counts sieves out the non-transitive part by an integer
    recurrence that splits each tuple at the orbit of point 1.

All-mode entries are normalized per fixed representative: the class
total divides evenly by the class size and the quotient is stored.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

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
# the slowest call in these guards, (6, 14), takes under a second
DFS_N_GUARD = 6
DFS_J_GUARD = 14


class ClassVector:
    __slots__ = ("n", "counts")

    def __init__(self, n: int, counts: Optional[Dict[Partition, int]] = None):
        self.n = n
        self.counts = {} if counts is None else counts


class FactorizationTable:
    __slots__ = ("mode", "entries")

    def __init__(self, mode: str,
                 entries: Optional[Dict[Tuple[int, int, Partition], int]] = None):
        self.mode = mode  # "all" or "transitive"
        self.entries = {} if entries is None else entries

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
def _tally(n: int, j: int):
    """Tally every j-tuple of transpositions of {1..n} by its ordered
    product, in both modes.  A state is the product so far and, for each
    point, the least point the transpositions so far connect it to; each
    step multiplies every state by every transposition and adds up the
    counts of equal states."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    start = tuple(range(n))
    states: Dict[Tuple[tuple, tuple], int] = {(start, start): 1}
    for _ in range(j):
        after: Dict[Tuple[tuple, tuple], int] = {}
        for (perm, label), c in states.items():
            for a, b in pairs:
                p = list(perm)
                p[a], p[b] = p[b], p[a]
                lo, hi = sorted((label[a], label[b]))
                key = (tuple(p), tuple(lo if x == hi else x for x in label))
                after[key] = after.get(key, 0) + c
        states = after
    tally_all: Dict[tuple, int] = {}
    tally_tr: Dict[tuple, int] = {}
    for (perm, label), c in states.items():
        tally_all[perm] = tally_all.get(perm, 0) + c
        if not any(label):
            tally_tr[perm] = tally_tr.get(perm, 0) + c
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
    tally = _tally(n, j)[1 if require_transitive else 0]
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

def transitive_counts(table: FactorizationTable) -> FactorizationTable:
    """Sieve an all-mode table down to transitive tuples.

    Works on class totals, an entry times its class size.  The orbit of
    point 1 under the group a tuple generates has some k points, and the
    tuple splits into the i transpositions inside that orbit (a transitive
    tuple on k points) and any tuple on the other n - k points, so
    total(n, j, lam) = sum C(n-1, k-1) C(j, i) trans(k, i, lam1)
    total(n-k, j-i, lam2) over lam1 + lam2 = lam.  The k = n term is
    trans(n, j, lam), so each trans[n] is total[n] less a convolution of
    the smaller trans[k] with total[n-k], all in integers.
    """
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
    # total[n] and trans[n] map (j, parts) to a class total
    total: List[Dict[Tuple[int, tuple], int]] = [{} for _ in range(n_max + 1)]
    total[0][(0, ())] = 1
    for (n, j, lam), c in table.entries.items():
        if c:
            total[n][(j, lam.parts)] = c * class_size(lam)
    trans: List[Dict[Tuple[int, tuple], int]] = [{} for _ in range(n_max + 1)]
    out = FactorizationTable("transitive")
    for n in range(1, n_max + 1):
        acc = dict(total[n])
        for k in range(1, n):
            ways = math.comb(n - 1, k - 1)
            for (i, p1), t1 in trans[k].items():
                for (j2, p2), t2 in total[n - k].items():
                    j = i + j2
                    if j <= j_max:
                        key = (j, tuple(sorted(p1 + p2, reverse=True)))
                        acc[key] = acc.get(key, 0) - (
                            ways * math.comb(j, i) * t1 * t2)
        for (j, parts), t in acc.items():
            if not t:
                continue
            lam = Partition(parts)
            size = class_size(lam)
            if t < 0:
                raise CertificationError(
                    f"sieve produced a negative class total {t} at {(n, j, parts)}"
                )
            if t % size:
                raise CertificationError(
                    f"sieve class total {t} at {(n, j, parts)} is not "
                    f"divisible by the class size {size}"
                )
            trans[n][(j, parts)] = t
            out.entries[(n, j, lam)] = t // size
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
