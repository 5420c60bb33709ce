"""The embedded closed tables, printed and spot-checked.

Each genus g in 1..4 carries polynomials f in the elementary symmetric
functions of the ramification orders; the number of parts runs up to
6, 4, 3, 2 respectively.  A checksum guards the transcription, and the
one-part column has an independent closed form to compare against.
"""

from hurwitz.formulas import TABLE_M_MAX, f_one_part, f_table, f_table_eval
from hurwitz.partitions import Partition


def main():
    for g in sorted(TABLE_M_MAX):
        print(f"genus {g}:")
        for m in range(1, TABLE_M_MAX[g] + 1):
            print(f"   f[{m} parts] = {f_table(g, m)}")
        print()

    print("one-part column vs the hyperbolic-sine closed form (n <= 10):")
    for g in range(1, 5):
        ok = all(
            f_one_part(n, g) == f_table_eval(g, Partition.of([n]))
            for n in range(1, 11)
        )
        print(f"   genus {g}: {'agree' if ok else 'DISAGREE'}")


if __name__ == "__main__":
    main()
