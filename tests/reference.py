"""Reference implementations kept only as independent cross-checks of
the package's live code paths."""

from hurwitz.algebra.poly import SparsePoly
from hurwitz.algebra.series import TruncSeries, w_power_x_table


def compose_with_tree(s: TruncSeries, order: int) -> TruncSeries:
    """Substitute w_i = w(x_i) into a w-jet; result is an x-jet to x^order.

    A variable-by-variable substitution, where x_coefficient sums
    products of the same table over the whole box at once.  [x^a] w^d
    vanishes for d > a, so the jet must carry w-data up to order.
    """
    if s.kind != "W":
        raise ValueError("compose_with_tree wants a W jet")
    if s.per_var_cap < order or s.total_cap < order:
        raise ValueError("jet caps too small for the requested x order")
    table = w_power_x_table(order, order)
    terms: dict = dict(s.base.terms)
    for var in range(s.arity):
        out: dict = {}
        for e, c in terms.items():
            d = e[var]
            if d > order:
                continue
            acap = min(order, order - (sum(e) - d))
            for a in range(d, acap + 1):
                ne = e[:var] + (a,) + e[var + 1:]
                out[ne] = out.get(ne, 0) + c * table[d][a]
        terms = out
    return TruncSeries(SparsePoly("X", s.arity, terms), order, order)
