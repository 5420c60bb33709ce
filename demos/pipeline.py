"""One pass of the differential-equation pipeline, shown in full.

The two-variable genus-one cell is small enough to print at every
stage: the assembled right-hand side, the solved polynomial, the
extracted symmetric function, and the scaling back to integer counts.
"""

from fractions import Fraction

from hurwitz.algebra.sym import elementary_values, weighted_degree
from hurwitz.engine import Engine, assemble_K
from hurwitz.formulas import hurwitz
from hurwitz.oracle import c_count
from hurwitz.partitions import Partition


def main():
    eng = Engine()
    m, g = 2, 1

    psi = eng.psi(m, g)
    cache = {k: eng.psi(*k) for k in eng.computed_cells()}
    K = assemble_K(m, g, cache)
    print(f"right-hand side for ({m},{g}):")
    print("   K =", K.poly)
    print(f"\nsolved cell (scaling constant c = {m + 2 * g - 2}):")
    print("   Psi =", psi.poly)
    print(f"   per-variable degrees {psi.poly.per_var_degrees()}, "
          f"total {psi.poly.total_degree()}")

    fr = eng.f_result(m, g)
    print("\nextracted symmetric polynomial (e-basis):")
    print("   f =", fr.f_e)
    print(f"   weighted degree {max(map(weighted_degree, fr.f_e.num))}, "
          f"which the engine checks is m + 3g - 3")

    print("\nscaling back to counts, checked against enumeration:")
    for parts in ([2, 1], [3, 1], [2, 2], [4, 1], [3, 2]):
        lam = Partition.of(parts)
        ev = [Fraction(v) for v in elementary_values(lam.parts, m)]
        hc = hurwitz(lam, g, fr.f_e.evaluate(ev))
        independent = c_count(lam, g)
        assert hc.c == independent
        print(f"   alpha={lam}: f={hc.f}  c={hc.c}  mu={hc.mu}  "
              f"(enumerated: {independent})")


if __name__ == "__main__":
    main()
