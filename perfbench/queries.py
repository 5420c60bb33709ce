"""The warm_queries request list and the checks on its answers.

A list holds 200 requests with fixed quotas per kind, so that every seed
asks for the same amount of work and only the members and the order
change with the seed:

    compute --format json   160  (80%)
        engine route         120  cells already in the warmed cache
        formulas route       24   genus 0 with m <= 2, one part at genus >= 5
        oracle route         6    above every engine budget, inside the oracle's
        refused              10   (5%) over every budget; must exit 2
    table --values           20   (10%)
    verify --n-max 4         20   (10%) recurrence 7, closedform 7, oracle 6

An engine-route request whose cell is not in the warmed cache would solve
a cell (13-30 s) and write to the cache, so the generator leaves such
requests out; the list then only reads the cache.

Each answer is checked by a route other than the one that produced it:
the oracle where its budget allows, the formulas otherwise, the genus-1
formula for oracle-route answers.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

from hurwitz import formulas, oracle
from hurwitz.engine import DEFAULT_BUDGETS
from hurwitz.partitions import Partition, partitions

N_MAX = 10
G_MAX = 7
ENGINE, FORMULAS, ORACLE, REFUSED = 120, 24, 6, 10
TABLES = 20
VERIFY = ("recurrence",) * 7 + ("closedform",) * 7 + ("oracle",) * 6

_CELL_FILE = re.compile(r"psi_m(\d+)_g(\d+)\.json")


def warmed_cells(cache_dir) -> set:
    cells = set()
    for path in Path(cache_dir).iterdir():
        hit = _CELL_FILE.fullmatch(path.name)
        if hit:
            cells.add((int(hit[1]), int(hit[2])))
    return cells


def in_oracle_budget(alpha: Partition, g: int) -> bool:
    return alpha.n <= oracle.N_BUDGET and alpha.j_for_genus(g) <= oracle.J_BUDGET


def route(alpha: Partition, g: int, warmed: set):
    """The route `hurwitz compute` takes, mirroring `cli.best_route`;
    None when it would solve a cell that is not warmed."""
    m = alpha.m
    if g >= 1 or m >= 3:
        lim = DEFAULT_BUDGETS.get(g)
        if lim is not None and 1 <= m <= lim and not (g == 0 and m < 3):
            return "engine" if (m, g) in warmed else None
    if g == 0 or m == 1 or m <= formulas.TABLE_M_MAX.get(g, 0):
        return "formulas"
    if in_oracle_budget(alpha, g):
        return "oracle"
    return "refused"


def make(seed: int, cache_dir: str) -> list:
    """The seeded request list: pairs (argv, expectation)."""
    rng = random.Random(seed)
    warmed = warmed_cells(cache_dir)
    by_route: dict = {}
    by_cell: dict = {}
    for n in range(1, N_MAX + 1):
        for alpha in partitions(n):
            for g in range(G_MAX + 1):
                r = route(alpha, g, warmed)
                if r == "engine":
                    by_cell.setdefault((alpha.m, g), []).append(alpha)
                elif r == "formulas" and in_oracle_budget(alpha, g):
                    by_route.setdefault(r, []).append((alpha, g))
                elif r == "oracle" and g == 1:
                    by_route.setdefault(r, []).append((alpha, g))
                elif r == "refused":
                    by_route.setdefault(r, []).append((alpha, g))

    def compute(alpha, g, r):
        argv = ["compute", "--alpha", ",".join(map(str, alpha.parts)),
                "--genus", str(g), "--format", "json", "--cache-dir", cache_dir]
        return argv, ("compute", alpha, g, r)

    reqs = []
    cells = sorted(by_cell)
    for i in range(ENGINE):
        cell = cells[i % len(cells)]
        reqs.append(compute(rng.choice(by_cell[cell]), cell[1], "engine"))
    for r, quota in (("formulas", FORMULAS), ("oracle", ORACLE),
                     ("refused", REFUSED)):
        for _ in range(quota):
            reqs.append(compute(*rng.choice(by_route[r]), r))

    # table rows stay inside the oracle budget so each row can be checked
    grids = []
    for g in range(5):
        for m in range(1, (formulas.TABLE_M_MAX.get(g) or 6) + 1):
            n_max = min(m + 4, oracle.N_BUDGET, oracle.J_BUDGET + 2 - m - 2 * g)
            if n_max >= m:
                grids.append((g, m, n_max))
    rng.shuffle(grids)
    for i in range(TABLES):
        g, m, n_max = grids[i % len(grids)]
        reqs.append((["table", "--genus", str(g), "--m", str(m), "--values",
                      "--n-max", str(n_max), "--format", "json"],
                     ("table", g, m, n_max)))
    for suite in VERIFY:
        reqs.append((["verify", "--suite", suite, "--n-max", "4",
                      "--cache-dir", cache_dir], ("verify", suite)))
    rng.shuffle(reqs)
    return reqs


def _c_by_formulas(alpha: Partition, g: int) -> int:
    if g == 0:
        f = formulas.f_genus0(alpha)
    elif alpha.m == 1:
        f = formulas.f_one_part(alpha.n, g)
    else:
        f = formulas.f_table_eval(g, alpha)
    return formulas.hurwitz(alpha, g, f).c


def check(expect: tuple, code, out: str) -> str:
    """Empty when the answer is right, else what is wrong with it."""
    kind = expect[0]
    if kind == "compute":
        _, alpha, g, r = expect
        if r == "refused":
            return "" if code == 2 and not out else f"exit {code}, want 2"
        if code != 0:
            return f"exit {code}"
        obj = json.loads(out)
        if r == "oracle":
            want = formulas.hurwitz(alpha, g, formulas.f1_conjecture(alpha)).c
        elif in_oracle_budget(alpha, g):
            want = oracle.c_count(alpha, g)
        else:
            want = _c_by_formulas(alpha, g)
        if tuple(obj["alpha"]) != alpha.parts or obj["g"] != g:
            return "answer is for another input"
        return "" if int(obj["c"]) == want else f"c = {obj['c']}, want {want}"
    if kind == "table":
        _, g, m, n_max = expect
        if code != 0:
            return f"exit {code}"
        rows = json.loads(out)
        alphas = [a for n in range(m, n_max + 1) for a in partitions(n)
                  if a.m == m]
        if [tuple(row["alpha"]) for row in rows] != [a.parts for a in alphas]:
            return "table rows are not the expected partitions"
        for row, alpha in zip(rows, alphas):
            want = oracle.c_count(alpha, g)
            if int(row["c"]) != want:
                return f"row {alpha}: c = {row['c']}, want {want}"
        return ""
    _, suite = expect
    if code != 0:
        return f"exit {code}"
    report = json.loads(out)
    if report["failures"] != 0 or report["total"] < 1:
        return f"verify {suite}: {report['failures']} of {report['total']} failed"
    return ""
