"""One pass of the differential-equation pipeline, shown in full.

The two-variable genus-one cell is small enough to print at every
stage: the assembled right-hand side, the solved polynomial, the
extracted symmetric function, and the scaling back to integer counts.
"""

from hurwitz.algebra.sym import e_value, weighted_degree
from hurwitz.engine import Engine, assemble_K
from hurwitz.formulas import hurwitz
from hurwitz.oracle import c_count
from hurwitz.partitions import Partition


def main():
    eng = Engine()
    m, g = 2, 1

    psi = eng.cell(m, g)
    cache = {k: eng.cell(*k) for k in eng.computed_cells()}
    K = assemble_K(m, g, cache)
    # both are symmetric, so each is printed in orbit form: one term per
    # orbit, with weakly decreasing exponents
    print(f"right-hand side for ({m},{g}), in orbit form:")
    print("   K =", K.orbit)
    print(f"\nsolved cell (scaling constant c = {m + 2 * g - 2}), in orbit form:")
    print("   Psi =", psi.orbit)
    # the first exponent of an orbit term is its largest
    print(f"   per-variable degree {max(e[0] for e in psi.orbit.num)}, "
          f"total {psi.orbit.total_degree()}")

    fr = eng.f_result(m, g)
    print("\nextracted symmetric polynomial (e-basis):")
    print("   f =", fr.f_e)
    print(f"   weighted degree {max(map(weighted_degree, fr.f_e.num))}, "
          f"which the engine checks is m + 3g - 3")

    print("\nscaling back to counts, checked against enumeration:")
    for parts in ([2, 1], [3, 1], [2, 2], [4, 1], [3, 2]):
        lam = Partition.of(parts)
        hc = hurwitz(lam, g, e_value(fr.f_e, lam.parts))
        independent = c_count(lam, g)
        assert hc.c == independent
        print(f"   alpha={lam}: f={hc.f}  c={hc.c}  mu={hc.mu}  "
              f"(enumerated: {independent})")


if __name__ == "__main__":
    main()
