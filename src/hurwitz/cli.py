"""Command-line front end.

Subcommands: compute (one alpha, best route), table (emit f polynomials
or value grids), verify (cross-check suites, JSON report), cache
(inspect, clear, or warm the cell cache).

Exit codes: 0 success, 1 verification mismatch, 2 unavailable
computation, 3 bad arguments.  A reader that closes stdout early (as
`hurwitz cache --cache-dir D | head -2` does) ends the command with exit
1 and nothing on stderr, Python's convention for a broken pipe.  All
output is deterministic; rationals print as p/q in lowest terms.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from fractions import Fraction
from itertools import chain, islice
from typing import List, Optional, Tuple

from . import formulas, oracle
from .algebra.poly import SparsePoly
from .algebra.sym import e_value
from .engine import (
    CACHE_VERSION,
    DEFAULT_BUDGETS,
    INPUT_J_MAX,
    INPUT_N_MAX,
    Engine,
    read_cell,
)
from .errors import BudgetExceeded, CertificationError, HurwitzError
from .partitions import Partition, partitions, partitions_of_length

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_UNAVAILABLE = 2
EXIT_BAD_ARGS = 3
EXIT_BROKEN_PIPE = 1
# Most rows one `table --values` grid may print.  Measured at the largest
# accepted n_max, the slowest grids (genus 3 with m = 3, genus 0 with m near
# 70, one part at genus near 60) print in about a second.
TABLE_ROWS_MAX = 2_500
# Largest `verify --suite oracle` --n-max: the suite counts every alpha of
# weight n <= n_max up to genus 2, and 1^n at genus 2 has the largest
# j = n + m + 2g - 2 = 2n + 2, which the oracle's budgets must cover.
ORACLE_N_MAX = min(oracle.N_BUDGET, (oracle.J_BUDGET - 2) // 2)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_ARGS)


# ----- route selection ----------------------------------------------------

def _f_from_formulas(alpha: Partition, g: int) -> Optional[Fraction]:
    if g == 0:
        return formulas.f_genus0(alpha)
    if alpha.m == 1:
        return formulas.f_one_part(alpha.n, g)
    if g in formulas.TABLE_M_MAX and alpha.m <= formulas.TABLE_M_MAX[g]:
        return formulas.f_table_eval(g, alpha)
    return None


def best_route(alpha: Partition, g: int, engine: Engine) -> Tuple[Fraction, str]:
    """f by the preferred available route: engine, formulas, oracle."""
    if alpha.n > INPUT_N_MAX or alpha.j_for_genus(g) > INPUT_J_MAX:
        raise BudgetExceeded(
            f"requests need n <= {INPUT_N_MAX} and "
            f"j = n + m + 2g - 2 <= {INPUT_J_MAX}"
        )
    m = alpha.m
    if g >= 1 or m >= 3:
        try:
            return e_value(engine.cell(m, g).f_e, alpha.parts), "engine"
        except BudgetExceeded:
            pass
    f = _f_from_formulas(alpha, g)
    if f is not None:
        return f, "formulas"
    c = oracle.c_count(alpha, g)  # raises BudgetExceeded when out of range
    num, den = formulas.count_scale(alpha, g)
    return Fraction(c * den, num), "oracle"


# ----- compute ------------------------------------------------------------

def _count_row(hc: formulas.HurwitzCount, route: str) -> dict:
    """One count as `compute` and `table --values` print it in JSON."""
    a = hc.alpha
    return {"alpha": list(a.parts), "n": a.n, "m": a.m, "g": hc.g,
            "f": str(hc.f), "mu": str(hc.mu), "c": str(hc.c), "route": route}


def _print_csv(rows: List[dict]):
    """`_count_row`s as CSV: their values in key order, alpha dash-joined."""
    print("alpha,n,m,g,f,mu,c,route")
    for row in rows:
        print(",".join("-".join(map(str, v)) if k == "alpha" else str(v)
                       for k, v in row.items()))


def run_compute(args) -> int:
    alpha = args.alpha
    engine = Engine(cache_dir=args.cache_dir)
    f, route = best_route(alpha, args.genus, engine)
    hc = formulas.hurwitz(alpha, args.genus, f)
    if args.format == "json":
        print(json.dumps(_count_row(hc, route), sort_keys=True))
    elif args.format == "csv":
        _print_csv([_count_row(hc, route)])
    else:
        print(f"alpha = {alpha}")
        print(f"g = {args.genus}")
        print(f"f = {hc.f}")
        print(f"mu = {hc.mu}")
        print(f"c = {hc.c}")
        print(f"route = {route}")
    return EXIT_OK


# ----- table --------------------------------------------------------------

def _table_f_poly(g: int, m: int) -> SparsePoly:
    if g == 0:
        if m < 3:
            raise BudgetExceeded("genus-0 polynomials start at m = 3")
        # the smallest alpha with m parts is 1^m: refuse an m that no
        # `compute` request can reach before building m-variable exponents
        if m > INPUT_N_MAX or 2 * m - 2 > INPUT_J_MAX:
            raise BudgetExceeded(
                f"genus-0 polynomials need an alpha of m parts within n <= "
                f"{INPUT_N_MAX} and j = n + m - 2 <= {INPUT_J_MAX}")
        return SparsePoly.from_core("E", m, {(m - 3,) + (0,) * (m - 1): 1})
    return formulas.f_table(g, m)


def run_table(args) -> int:
    g, m = args.genus, args.m
    if not args.values:
        poly = _table_f_poly(g, m)
        if args.format == "json":
            print(poly.to_json())
        elif args.format == "csv":
            print("exponents,coefficient")
            for e, c in poly.sorted_terms():
                print(f"{'-'.join(str(v) for v in e)},{c}")
        else:
            print(poly)
        return EXIT_OK
    if args.n_max > INPUT_N_MAX or args.n_max + m + 2 * g - 2 > INPUT_J_MAX:
        raise BudgetExceeded(
            f"value grids need n <= {INPUT_N_MAX} and "
            f"j = n + m + 2g - 2 <= {INPUT_J_MAX}"
        )
    alphas = list(islice(chain.from_iterable(
        partitions_of_length(n, m) for n in range(m, args.n_max + 1)
    ), TABLE_ROWS_MAX + 1))
    if len(alphas) > TABLE_ROWS_MAX:
        raise BudgetExceeded(f"value grids are limited to {TABLE_ROWS_MAX} rows")
    rows = []
    for alpha in alphas:
        f = _f_from_formulas(alpha, g)
        if f is None:
            raise BudgetExceeded(f"no closed form or table for genus {g}, m = {m}")
        rows.append(_count_row(formulas.hurwitz(alpha, g, f), "formulas"))
    if args.format == "json":
        print(json.dumps(rows, sort_keys=True))
    else:
        _print_csv(rows)
    return EXIT_OK


# ----- verify -------------------------------------------------------------

def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "status": "pass" if ok else "fail", "detail": detail}


def _suite_appendix(engine: Engine, checks: List[dict]):
    for g in sorted(formulas.TABLE_M_MAX):
        for m in range(1, formulas.TABLE_M_MAX[g] + 1):
            want = formulas.f_table(g, m)
            got = engine.cell(m, g).f_e
            ok = got == want
            detail = "" if ok else (
                f"engine {got} vs table {want}"
            )
            checks.append(_check(f"appendix g={g} m={m}", ok, detail))


def _suite_oracle(engine: Engine, n_max: int, checks: List[dict]):
    for n in range(1, n_max + 1):
        for alpha in partitions(n):
            for g in range(0, 3):
                c_oracle = oracle.c_count(alpha, g)
                if g == 0 and alpha.m < 3:
                    f = formulas.f_genus0(alpha)
                    label = f"oracle {alpha} g={g} (formulas)"
                else:
                    f = e_value(engine.cell(alpha.m, g).f_e, alpha.parts)
                    label = f"oracle {alpha} g={g} (engine)"
                hc = formulas.hurwitz(alpha, g, f)
                ok = hc.c == c_oracle
                detail = "" if ok else (
                    f"counting route {Fraction(c_oracle)} vs "
                    f"extraction route {Fraction(hc.c)}"
                )
                checks.append(_check(label, ok, detail))
    for n in range(1, 7):
        alpha = Partition((1,) * n)
        mu_closed = formulas.mu0_simple(n)
        mu_oracle = oracle.mu_count(alpha, 0)
        ok = mu_closed == mu_oracle
        checks.append(_check(
            f"genus-0 mu at 1^{n}", ok,
            "" if ok else f"closed {mu_closed} vs oracle {mu_oracle}"
        ))


def _suite_recurrence(checks: List[dict]):
    try:
        formulas.a_sequence(12)
        checks.append(_check("a_n triple equality n<=12", True))
    except CertificationError as err:
        checks.append(_check("a_n triple equality n<=12", False, str(err)))
    mu1 = formulas.pg_mu1(10)
    for n in range(2, 11):
        want = Fraction(math.factorial(2 * n)) * formulas.f1_simple(n) \
            / math.factorial(n)
        ok = mu1[n - 1] == want
        checks.append(_check(
            f"torus recurrence n={n}", ok,
            "" if ok else f"recurrence {mu1[n - 1]} vs direct {want}"
        ))


def _suite_closedform(checks: List[dict]):
    for g in range(1, 5):
        poly = formulas.f_table(g, 1)
        for n in range(1, 11):
            want = formulas.f_one_part(n, g)
            got = e_value(poly, (n,))
            ok = got == want
            checks.append(_check(
                f"one-part g={g} n={n}", ok,
                "" if ok else f"table {got} vs series {want}"
            ))
    for m in range(1, 7):
        for n in range(m, m + 4):
            for alpha in partitions_of_length(n, m):
                got = formulas.f_table_eval(1, alpha)
                want = formulas.f1_conjecture(alpha)
                ok = got == want
                checks.append(_check(
                    f"genus-1 table vs formula {alpha}", ok,
                    "" if ok else f"table {got} vs formula {want}"
                ))


def _oracle_budgets(n_max: int) -> dict:
    """Cell budgets for the oracle triangle: it reads cells up to (n_max, 2),
    and (n_max, 2) is assembled from (n_max + 1, 1), which needs
    (n_max + 2, 0)."""
    return {g: max(DEFAULT_BUDGETS[g], n_max + 2 - g) for g in (0, 1, 2)}


def run_verify(args) -> int:
    budgets = None
    if args.suite in ("oracle", "all"):
        if args.n_max > ORACLE_N_MAX:
            raise BudgetExceeded(
                f"the oracle suite is budgeted to --n-max <= {ORACLE_N_MAX}")
        budgets = _oracle_budgets(args.n_max)
    engine = Engine(budgets=budgets, cache_dir=args.cache_dir)
    checks: List[dict] = []
    suite = args.suite
    if suite in ("appendix", "all"):
        _suite_appendix(engine, checks)
    if suite in ("oracle", "all"):
        _suite_oracle(engine, args.n_max, checks)
    if suite in ("recurrence", "all"):
        _suite_recurrence(checks)
    if suite in ("closedform", "all"):
        _suite_closedform(checks)
    failures = [c for c in checks if c["status"] == "fail"]
    report = {
        "suite": suite,
        "total": len(checks),
        "failures": len(failures),
        "checks": checks,
    }
    print(json.dumps(report, sort_keys=True))
    if failures:
        first = failures[0]
        print(f"FIRST FAILURE: {first['name']}: {first['detail']}",
              file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


# ----- cache --------------------------------------------------------------

def _cache_status_line(path) -> str:
    """One status line: the cell, version, orbit terms and bytes of a file
    the engine would read, or `stale` for one it would recompute."""
    try:
        size = path.stat().st_size
    except OSError:  # e.g. a dangling link
        return f"{path.name} stale"
    cell = read_cell(path)
    if cell is None:
        return f"{path.name} stale, {size} bytes"
    return (f"{path.name} ({cell.m},{cell.g}) version {CACHE_VERSION}, "
            f"{len(cell.orbit)} orbit terms, {size} bytes")


def run_cache(args) -> int:
    engine = Engine(cache_dir=args.cache_dir)
    if engine.cache_dir is None:
        print("error: no cache directory configured (pass --cache-dir)", file=sys.stderr)
        return EXIT_BAD_ARGS
    cdir = engine.cache_dir
    if args.warm:
        with contextlib.suppress(OSError):  # refused just below
            cdir.mkdir(parents=True, exist_ok=True)
    if (args.warm or cdir.exists()) and not cdir.is_dir():
        print(f"error: cache directory {cdir} is not a directory", file=sys.stderr)
        return EXIT_BAD_ARGS
    if args.clear:
        files = [p for p in sorted(cdir.glob("psi_m*_g*.json"))
                 if not p.is_dir()]
        for path in files:
            path.unlink()
        print(f"removed {len(files)} cached cells")
        return EXIT_OK
    if args.warm:
        budgets = dict(DEFAULT_BUDGETS)
        if args.genus is not None and args.genus not in budgets:
            print(f"error: no cell budget for genus {args.genus}", file=sys.stderr)
            return EXIT_BAD_ARGS
        for g in sorted(budgets):
            if args.genus is not None and g != args.genus:
                continue
            top = budgets[g] if args.m is None else min(budgets[g], args.m)
            start = 3 if g == 0 else 1
            for m in range(start, top + 1):
                engine.cell(m, g)
                print(f"computed ({m},{g})")
        return EXIT_OK
    files = sorted(cdir.glob("psi_m*_g*.json"))
    if not files:
        print("cache is empty")
        return EXIT_OK
    for path in files:
        print(_cache_status_line(path))
    return EXIT_OK


# ----- argument plumbing --------------------------------------------------

def _partition_arg(text: str) -> Partition:
    try:
        return Partition.parse(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err))


def _int_arg(text: str) -> int:
    """ASCII digits after an optional `-`; `int` would also take `1_0`."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  It holds no runner:
    `main` looks `run_<command>` up when it dispatches."""
    parser = _Parser(prog="hurwitz", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="one alpha, best route")
    p_compute.add_argument("--alpha", type=_partition_arg, required=True,
                           help="partition, comma-separated parts")
    p_compute.add_argument("--genus", type=_int_arg, required=True)
    p_compute.add_argument("--format", choices=("csv", "json", "text"),
                           default="text")
    p_compute.add_argument("--cache-dir", default=None)

    p_table = sub.add_parser("table", help="emit f polynomials or value grids")
    p_table.add_argument("--genus", type=_int_arg, required=True)
    p_table.add_argument("--m", type=_int_arg, required=True)
    p_table.add_argument("--values", action="store_true",
                         help="value grid instead of the e-basis polynomial")
    p_table.add_argument("--n-max", type=_int_arg, default=None)
    p_table.add_argument("--format", choices=("csv", "json", "text"),
                         default="text")

    p_verify = sub.add_parser("verify", help="cross-check suites")
    p_verify.add_argument("--suite", required=True,
                          choices=("appendix", "oracle", "recurrence",
                                   "closedform", "all"))
    p_verify.add_argument("--n-max", type=_int_arg, default=5)
    p_verify.add_argument("--cache-dir", default=None)

    p_cache = sub.add_parser("cache", help="inspect, clear, or warm the cache")
    p_cache.add_argument("--cache-dir", default=None)
    p_cache.add_argument("--clear", action="store_true")
    p_cache.add_argument("--warm", action="store_true")
    p_cache.add_argument("--genus", type=_int_arg, default=None)
    p_cache.add_argument("--m", type=_int_arg, default=None)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n_max", None) is None and args.command == "table":
        args.n_max = args.m + 4
    if getattr(args, "genus", None) is not None and args.genus < 0:
        print("error: genus must be nonnegative", file=sys.stderr)
        return EXIT_BAD_ARGS
    if getattr(args, "m", None) is not None and args.m < 1:
        print("error: --m must be at least 1", file=sys.stderr)
        return EXIT_BAD_ARGS
    if getattr(args, "n_max", None) is not None and args.n_max < 1:
        print("error: --n-max must be at least 1", file=sys.stderr)
        return EXIT_BAD_ARGS
    try:
        code = globals()[f"run_{args.command}"](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; send what is still buffered nowhere, so that
        # the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except BudgetExceeded as err:
        print(f"unavailable: {err}", file=sys.stderr)
        return EXIT_UNAVAILABLE
    except HurwitzError as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    raise SystemExit(main())
