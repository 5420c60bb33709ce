"""The names the traced run wraps, and the per-layer metrics built from
their spans.

Every wrapped name is looked up by the package through a module global or
a class attribute at call time, so rebinding it here reaches every call
site.  `Engine._load` is the one private name: the cache layer has no
public boundary, and hits and bytes read are counted there without a
span, so that `engine.cell.self_s` keeps the load and save time.
"""

from __future__ import annotations

import math

ASSEMBLY = ("theta_symmetrize", "apply_xdx", "divide_ydiff", "diag_fold")
JETS = ("core_y_to_u", "core_u_to_w_jet", "core_w_jet_to_u", "core_u_to_y")
EXTRACTION = ("psi0_base", "extract_f", "xdx_basis_convert", "to_e_basis",
              "fit_sym_e_poly", "expand_y_to_w", "x_coefficient")
ROUTES = ("engine", "formulas", "oracle", "refused")

# counts that must repeat exactly between runs of the same code and seed
EXACT = (
    "engine.K_terms", "engine.psi_terms", "engine.coef_bits_max",
    "engine.solve_attempts", "oracle.cutjoin_steps", "oracle.dfs_tuples",
    "cache.bytes_written",
) + tuple(f"cli.route.{r}" for r in ROUTES)


def _coef_bits(poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in poly.terms.values()), default=0)


def install(t, group_by_cell: bool):
    """Wrap the package's layer boundaries with spans and counters."""
    from hurwitz import cli, engine, formulas, oracle
    from hurwitz.errors import BudgetExceeded

    def solved(rep, _args):
        t.add("engine.psi_terms", len(rep.poly.terms))
        t.peak("engine.coef_bits_max", _coef_bits(rep.poly))

    def loaded(hit, args):
        if hit:
            eng, m, g = args
            t.add("cache.hits")
            t.add("cache.bytes_read", eng._cache_path(m, g).stat().st_size)

    def routed(out, _args):
        t.add(f"cli.route.{out[1]}")

    def refused(exc):
        if isinstance(exc, BudgetExceeded):
            t.add("cli.route.refused")

    t.wrap(engine, "assemble_K", "engine.assemble_K",
           after=lambda rhs, _a: t.add("engine.K_terms", len(rhs.poly.terms)))
    t.wrap(engine, "solve_pde", "engine.solve_pde", after=solved)
    for name in ASSEMBLY + JETS[1:] + EXTRACTION:
        t.wrap(engine, name, f"engine.{name}")
    # one y -> u conversion per solve attempt
    t.wrap(engine, "core_y_to_u", "engine.core_y_to_u",
           after=lambda _o, _a: t.add("engine.solve_attempts"))
    t.wrap(engine.Engine, "cell", "engine.Engine.cell",
           group=(lambda a: f"cell:{a[1]},{a[2]}") if group_by_cell else None)
    t.hook(engine.Engine, "_load", loaded)
    t.wrap(cli, "best_route", "cli.best_route", after=routed, on_error=refused)
    for name in ("f_table_eval", "hurwitz", "a_sequence", "pg_mu1"):
        t.wrap(formulas, name, f"formulas.{name}")
    t.wrap(oracle, "all_counts", "oracle.all_counts")
    t.wrap(oracle, "transitive_counts", "oracle.transitive_counts")
    t.wrap(oracle, "cutjoin_step", "oracle.cutjoin_step",
           after=lambda _o, _a: t.add("oracle.cutjoin_steps"))


def dfs_tuples(tallies) -> int:
    """Tuples the direct enumeration walks, computed as the sum of
    C(n,2)^j over the (n, j) tallies made, not counted by the program."""
    return sum(math.comb(n, 2) ** j for n, j in tallies)


def metrics(t) -> dict:
    """Per-layer metrics from the spans and counters of one traced pass."""
    spans = t.totals()

    def total(name):
        return spans.get(name, (0.0, 0.0))[0]

    def self_s(name):
        return spans.get(name, (0.0, 0.0))[1]

    count = t.counts.get
    out = {
        "engine.assemble_s": total("engine.assemble_K"),
        "engine.assemble.theta_s": total("engine.theta_symmetrize"),
        "engine.assemble.xdx_s": total("engine.apply_xdx"),
        "engine.assemble.divide_s": total("engine.divide_ydiff"),
        "engine.assemble.fold_s": total("engine.diag_fold"),
        "engine.assemble.self_s": self_s("engine.assemble_K"),
        "engine.K_terms": count("engine.K_terms", 0),
        "engine.solve_s": total("engine.solve_pde"),
        "series.jet_s": sum(total(f"engine.{name}") for name in JETS),
        "engine.solve.self_s": self_s("engine.solve_pde"),
        "engine.solve_attempts": count("engine.solve_attempts", 0),
        "engine.psi_terms": count("engine.psi_terms", 0),
        "engine.coef_bits_max": count("engine.coef_bits_max", 0),
        "engine.extract_s": total("engine.extract_f"),
        "operators.basis_s": total("engine.xdx_basis_convert"),
        "sym.fit_s": total("engine.fit_sym_e_poly"),
        "sym.to_e_s": total("engine.to_e_basis"),
        "series.expand_s": total("engine.expand_y_to_w"),
        "series.xcoef_s": total("engine.x_coefficient"),
        "engine.psi0_s": total("engine.psi0_base"),
        "engine.cell.self_s": self_s("engine.Engine.cell"),
        "cache.hits": count("cache.hits", 0),
        "cache.bytes_read": count("cache.bytes_read", 0),
        "cache.bytes_written": count("cache.bytes_written", 0),
        "cli.best_route_s": total("cli.best_route"),
        "formulas.table_eval_s": total("formulas.f_table_eval"),
        "formulas.hurwitz_s": total("formulas.hurwitz"),
        "formulas.recurrence_s": (total("formulas.a_sequence")
                                  + total("formulas.pg_mu1")),
        "oracle.dfs_s": total("bench.dfs_count"),
        "oracle.dfs_tuples": count("oracle.dfs_tuples", 0),
        "oracle.classvec_s": total("oracle.all_counts"),
        "oracle.cutjoin_steps": count("oracle.cutjoin_steps", 0),
        "oracle.sieve_s": total("oracle.transitive_counts"),
    }
    for r in ROUTES:
        out[f"cli.route.{r}"] = count(f"cli.route.{r}", 0)
    return out
