"""The tree function and its coordinates.

Everything downstream runs in three interchangeable coordinates: w with
w = x e^w, the shifted u = w/(1-w), and y = 1/(1-w).  This script shows
the series, the closed form n^(n-1)/n! for its coefficients, and the way
a y-polynomial turns into x-coefficients.
"""

import math
from fractions import Fraction

from hurwitz.algebra.poly import SparsePoly
from hurwitz.algebra.series import tree_coeffs, x_orbit


def main():
    order = 8
    w = tree_coeffs(order)
    print("[x^n] w for n = 1..8:")
    print("  ", ", ".join(str(w[n]) for n in range(1, order + 1)))
    print("closed form n^(n-1)/n! for the same range:")
    print("  ", ", ".join(
        str(Fraction(n ** (n - 1), math.factorial(n))) for n in range(1, order + 1)
    ))

    # y = 1/(1-w) = 1 + w + w^2 + ... counts nothing by itself, but in
    # x-coordinates [x^n] y = n^n/n!.  x_orbit reads the x-coefficients
    # off the y-polynomial by two sweeps, y -> u and u -> x, scaled by
    # n! and the polynomial's denominator
    y = SparsePoly.from_core("Y", 1, {(1,): 1})
    xs = x_orbit(y, 6, 6)
    print("[x^n] y for n = 1..6:")
    for n in range(1, 7):
        got = Fraction(xs.get((n,), 0), y.den * math.factorial(n))
        assert got == Fraction(n ** n, math.factorial(n))
        print(f"   n={n}: {got}")

    print("\nall identities verified exactly")


if __name__ == "__main__":
    main()
