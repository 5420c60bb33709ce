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
import fnmatch
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
from .algebra.sym import e_numerator, e_value, elementary_values
from .engine import CACHE_VERSION, DEFAULT_BUDGETS, Engine, is_cell, read_cell
from .errors import BudgetExceeded, CertificationError, HurwitzError
from .partitions import (Partition, centralizer_order, parts_of_length,
                         parts_of_weight, parts_text, partitions)

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_UNAVAILABLE = 2
EXIT_BAD_ARGS = 3
EXIT_BROKEN_PIPE = 1
# Largest weight n and transposition count j = n + m + 2g - 2 a request may
# ask for (`_check_input`).  At j = 160 the slowest closed form, one part at
# genus 55 to 75, takes about 0.05 s; every count printed stays far below
# the 4,300 digits CPython will convert to a string.
INPUT_N_MAX = 160
INPUT_J_MAX = 160
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


def _check_input(what: str, n: int, m: int, g: int):
    """Refuse a request of weight n, m parts and genus g past the request
    bound, before anything is computed."""
    if n > INPUT_N_MAX or n + m + 2 * g - 2 > INPUT_J_MAX:
        raise BudgetExceeded(
            f"{what} need n <= {INPUT_N_MAX} and "
            f"j = n + m + 2g - 2 <= {INPUT_J_MAX}"
        )


# ----- route selection ----------------------------------------------------

def best_route(alpha: Partition, g: int, engine: Engine) -> Tuple[Fraction, str]:
    """f by the preferred available route: engine, formulas, oracle."""
    _check_input("requests", alpha.n, alpha.m, g)
    try:
        return e_value(engine.cell(alpha.m, g).f_e, alpha.parts), "engine"
    except BudgetExceeded:
        pass
    try:
        return formulas.f_closed_form(alpha, g), "formulas"
    except BudgetExceeded:
        pass
    c = oracle.c_count(alpha, g)  # raises BudgetExceeded when out of range
    num, den = formulas.count_scale(alpha, g)
    return Fraction(c * den, num), "oracle"


# ----- compute ------------------------------------------------------------

def _count_row(hc: formulas.HurwitzCount, route: str) -> dict:
    """One count as `compute` and `table --values` print it, in all formats."""
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
    row = _count_row(formulas.hurwitz(alpha, args.genus, f), route)
    if args.format == "json":
        print(json.dumps(row, sort_keys=True))
    elif args.format == "csv":
        _print_csv([row])
    else:  # the row without n and m, alpha as it prints
        for key, value in row.items():
            if key not in ("n", "m"):
                print(f"{key} = {parts_text(value) if key == 'alpha' else value}")
    return EXIT_OK


# ----- table --------------------------------------------------------------

def _table_f_poly(g: int, m: int) -> SparsePoly:
    if g == 0:
        if not is_cell(m, 0):
            raise BudgetExceeded("genus-0 polynomials start at m = 3")
        # the smallest alpha with m parts is 1^m: refuse an m that no
        # `compute` request can reach before building m-variable exponents
        _check_input("genus-0 polynomials at alpha = 1^m", m, m, 0)
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
            for e, num, den in poly.to_obj()["terms"]:
                print(f"{'-'.join(map(str, e))},{num}" + ("" if den == "1" else f"/{den}"))
        else:
            print(poly)
        return EXIT_OK
    _check_input("value grids", args.n_max, m, g)
    alphas = list(islice(chain.from_iterable(
        map(Partition, parts_of_length(n, m)) for n in range(m, args.n_max + 1)
    ), TABLE_ROWS_MAX + 1))
    if len(alphas) > TABLE_ROWS_MAX:
        raise BudgetExceeded(f"value grids are limited to {TABLE_ROWS_MAX} rows")
    rows = [_count_row(formulas.hurwitz(alpha, g, formulas.f_closed_form(alpha, g)),
                       "formulas") for alpha in alphas]
    if args.format == "json":
        print(json.dumps(rows, sort_keys=True))
    else:
        _print_csv(rows)
    return EXIT_OK


# ----- verify -------------------------------------------------------------

def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "status": "pass" if ok else "fail", "detail": detail}


def _suite_appendix(engine: Engine, _n_max: int, checks: List[dict]):
    for g in sorted(formulas.TABLE_M_MAX):
        for m in range(1, formulas.TABLE_M_MAX[g] + 1):
            want, got = formulas.f_table(g, m), engine.cell(m, g).f_e
            ok = got == want
            checks.append(_check(f"appendix g={g} m={m}", ok,
                                 "" if ok else f"engine {got} vs table {want}"))


def _suite_oracle(engine: Engine, n_max: int, checks: List[dict]):
    """Each count check is the exact integer identity c_oracle * den * f_den
    == num * f_num, with (num, den) = `count_scale(alpha, g)` and f =
    f_num / f_den read from the engine's cell or, below the genus-0 cells,
    from the closed form.  Where it fails, `formulas.hurwitz` scales f as
    the Fraction route did: it refuses a non-count, and otherwise names the
    count for `detail`.  Each genus-0 mu check at 1^n is the identity
    2 mu0 z == 2 c, with 2 mu0 = `two_mu0_simple(n)` and z = n!; the
    Fraction mu = c / z of `oracle.mu_count` is built for `detail` only."""
    for n in range(1, n_max + 1):
        for alpha in partitions(n):
            text = str(alpha)
            for g in range(0, 3):
                c_oracle = oracle.c_count(alpha, g)
                if not is_cell(alpha.m, g):
                    f_num, f_den = formulas.f_genus0_ratio(alpha)
                    label = f"oracle {text} g={g} (formulas)"
                else:
                    f_e = engine.cell(alpha.m, g).f_e
                    f_num, f_den = e_numerator(f_e, alpha.parts), f_e.den
                    label = f"oracle {text} g={g} (engine)"
                num, den = formulas.count_scale(alpha, g)
                # a negative c_oracle is no count: `hurwitz` decides it
                ok = c_oracle >= 0 and c_oracle * den * f_den == num * f_num
                detail = "" if ok else (
                    f"counting route {Fraction(c_oracle)} vs extraction route "
                    f"{Fraction(formulas.hurwitz(alpha, g, Fraction(f_num, f_den)).c)}"
                )
                checks.append(_check(label, ok, detail))
    for n in range(1, 7):
        ones = Partition((1,) * n)
        ok = (formulas.two_mu0_simple(n) * centralizer_order(ones)
              == 2 * oracle.c_count(ones, 0))
        checks.append(_check(
            f"genus-0 mu at 1^{n}", ok,
            "" if ok else f"closed {formulas.mu0_simple(n)} vs oracle "
                          f"{oracle.mu_count(ones, 0)}"
        ))


def _suite_recurrence(_engine: Engine, _n_max: int, checks: List[dict]):
    """The torus sequence a_n three ways (`formulas.a_sequence`), then the
    genus-1 recurrence against f1_simple as the exact integer identity
    2 n! M_n == (2n)! s_n, with M_n = 12 mu_n (`pg_twelve_mu1`) and s_n =
    24 f1_simple(n), cross-multiplied by f1_simple's denominator.  The
    Fractions of `detail` are built for a failure only."""
    try:
        formulas.a_sequence(12)
        checks.append(_check("a_n triple equality n<=12", True))
    except CertificationError as err:
        checks.append(_check("a_n triple equality n<=12", False, str(err)))
    twelve_mu1 = formulas.pg_twelve_mu1(10)
    for n in range(2, 11):
        f = formulas.f1_simple(n)
        ok = (2 * math.factorial(n) * twelve_mu1[n - 1] * f.denominator
              == math.factorial(2 * n) * 24 * f.numerator)
        checks.append(_check(
            f"torus recurrence n={n}", ok,
            "" if ok else f"recurrence {Fraction(twelve_mu1[n - 1], 12)} vs direct "
                          f"{Fraction(math.factorial(2 * n)) * f / math.factorial(n)}"
        ))


def _suite_closedform(_engine: Engine, _n_max: int, checks: List[dict]):
    """Each check is an exact integer identity: the table's numerator times
    the closed form's denominator against the closed form's numerator times
    the table's.  A genus-1 point's elementary values are computed once and
    read by both sides; the points and their names come from
    `_genus1_points`.  The Fractions of `detail` are built for a failure
    only."""
    for g in range(1, 5):
        poly = formulas.f_table(g, 1)
        for n in range(1, 11):
            num, den = formulas.f_one_part_ratio(n, g)
            ok = e_numerator(poly, (n,)) * den == num * poly.den
            checks.append(_check(
                f"one-part g={g} n={n}", ok,
                "" if ok else f"table {e_value(poly, (n,))} vs series "
                              f"{formulas.f_one_part(n, g)}"
            ))
    for m in range(1, 7):
        poly = formulas.f_table(1, m)
        for n, parts, name in _genus1_points(m):
            ev = elementary_values(parts, m)
            ok = (e_numerator(poly, parts, ev) * 24
                  == formulas.f1_numerator(ev, n) * poly.den)
            checks.append(_check(
                name, ok,
                "" if ok else f"table {e_value(poly, parts)} vs formula "
                              f"{formulas.f1_conjecture(Partition(parts))}"
            ))


@functools.cache
def _genus1_points(m: int) -> Tuple[Tuple[int, Tuple[int, ...], str], ...]:
    """(n, parts, check name) of each genus-1 point of `_suite_closedform`
    with m parts, n = m .. m + 3, in `parts_of_weight` order.  The points
    and their names never change, so they are listed once per process."""
    return tuple((n, parts, f"genus-1 table vs formula {parts_text(parts)}")
                 for n in range(m, m + 4) for parts in parts_of_weight(n)
                 if len(parts) == m)


def _oracle_budgets(n_max: int) -> dict:
    """Cell budgets for the oracle triangle: it reads cells up to (n_max, 2),
    and (n_max, 2) is assembled from (n_max + 1, 1), which needs
    (n_max + 2, 0)."""
    return {g: max(DEFAULT_BUDGETS[g], n_max + 2 - g) for g in (0, 1, 2)}


def _oracle_suite_budgets(n_max: int) -> dict:
    """`_oracle_budgets`, after refusing an --n-max past ORACLE_N_MAX."""
    if n_max > ORACLE_N_MAX:
        raise BudgetExceeded(
            f"the oracle suite is budgeted to --n-max <= {ORACLE_N_MAX}")
    return _oracle_budgets(n_max)


# `verify`'s suites in the order `--suite all` runs them: each appends its
# checks given (engine, --n-max, list), and some need cell budgets of --n-max
SUITES = {
    "appendix": (_suite_appendix, None),
    "oracle": (_suite_oracle, _oracle_suite_budgets),
    "recurrence": (_suite_recurrence, None),
    "closedform": (_suite_closedform, None),
}


def run_verify(args) -> int:
    suites = [SUITES[args.suite]] if args.suite in SUITES else list(SUITES.values())
    # every refusal comes before any cell is computed
    budgets = {g: b for _, need in suites if need for g, b in need(args.n_max).items()}
    engine = Engine(budgets=budgets, cache_dir=args.cache_dir)
    checks: List[dict] = []
    for suite, _ in suites:
        suite(engine, args.n_max, checks)
    failures = [c for c in checks if c["status"] == "fail"]
    report = {
        "suite": args.suite,
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
    """The status of each cache file, `--clear`, or `--warm`: compute the
    cells the engine's budgets accept (`Engine._check_budget`), genus by
    genus and m by m, only of `--genus` and up to `--m` when given."""
    engine = Engine(cache_dir=args.cache_dir)
    if engine.cache_dir is None:
        print("error: no cache directory configured (pass --cache-dir)", file=sys.stderr)
        return EXIT_BAD_ARGS
    cdir = engine.cache_dir
    if args.warm:
        # the cells first, so that a refused range creates no directory
        budgets = engine.budgets
        if args.genus is not None and args.genus not in budgets:
            print(f"error: no cell budget for genus {args.genus}", file=sys.stderr)
            return EXIT_BAD_ARGS
        cells = [(m, g) for g in sorted(budgets) if args.genus in (None, g)
                 for m in range(1, budgets[g] + 1)
                 if is_cell(m, g) and (args.m is None or m <= args.m)]
        if not cells:  # e.g. genus 0 with --m 2: no cell has m <= 2
            print(f"error: no cell of genus {args.genus} has m <= {args.m}",
                  file=sys.stderr)
            return EXIT_BAD_ARGS
        with contextlib.suppress(OSError):  # refused just below
            cdir.mkdir(parents=True, exist_ok=True)
    if (args.warm or cdir.exists()) and not cdir.is_dir():
        print(f"error: cache directory {cdir} is not a directory", file=sys.stderr)
        return EXIT_BAD_ARGS
    if args.warm:
        for m, g in cells:
            engine.cell(m, g)
            print(f"computed ({m},{g})")
        return EXIT_OK
    if args.genus is not None or args.m is not None:
        print("error: --genus and --m choose the cells of --warm", file=sys.stderr)
        return EXIT_BAD_ARGS
    files = []
    try:
        if cdir.is_dir():
            with os.scandir(cdir) as entries:  # Path.glob hides an unlistable directory
                files = sorted(cdir / e.name for e in entries
                               if fnmatch.fnmatchcase(e.name, "psi_m*_g*.json"))
        if args.clear:
            files = [p for p in files if not p.is_dir()]
            for path in files:
                path.unlink()
    except OSError as err:
        print(f"error: cache directory {cdir}: {err}", file=sys.stderr)
        return EXIT_BAD_ARGS
    if args.clear:
        print(f"removed {len(files)} cached cells")
        return EXIT_OK
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
    """ASCII digits after an optional `-`; `int` would also take `1_0`.
    Digits past `int`'s limit are refused the same way."""
    digits = text[1:] if text.startswith("-") else text
    if digits.isascii() and digits.isdigit():
        with contextlib.suppress(ValueError):
            return int(text)
    raise argparse.ArgumentTypeError(f"invalid integer {text!r}")


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
    p_verify.add_argument("--suite", required=True, choices=(*SUITES, "all"))
    p_verify.add_argument("--n-max", type=_int_arg, default=5)
    p_verify.add_argument("--cache-dir", default=None)

    p_cache = sub.add_parser("cache", help="inspect, clear, or warm the cache")
    p_cache.add_argument("--cache-dir", default=None)
    mode = p_cache.add_mutually_exclusive_group()
    mode.add_argument("--clear", action="store_true")
    mode.add_argument("--warm", action="store_true")
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
