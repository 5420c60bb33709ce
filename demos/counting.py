"""Counting transposition factorizations three ways.

A target permutation of cycle type alpha |- n, a length j, and the
transitivity requirement define the count c.  This script compares
direct enumeration, the cut-and-join class recurrence, and the
transitivity sieve that removes non-transitive tuples (an integer
recurrence over the orbit of point 1), then prints a small slice of
the resulting table.
"""

from hurwitz.oracle import all_counts, c_count, dfs_count, mu_count, transitive_counts
from hurwitz.partitions import Partition, partitions


def main():
    print("direct enumeration vs class recurrence (n <= 4, j <= 8):")
    table = all_counts(4, 8)
    sieved = transitive_counts(table)
    rows = 0
    for n in range(1, 5):
        for lam in partitions(n):
            for j in range(9):
                a = dfs_count(lam, j, False)
                b = table.count(n, j, lam)
                t1 = dfs_count(lam, j, True)
                t2 = sieved.count(n, j, lam)
                assert a == b and t1 == t2
                rows += 1
    print(f"   {rows} (alpha, j) cells agree in both modes")

    print("\ntransitive counts at the minimal length (genus 0):")
    for parts in ([2], [3], [2, 1], [1, 1, 1], [4], [2, 2]):
        lam = Partition.of(parts)
        print(f"   c_0{lam} = {c_count(lam, 0)}")

    print("\none genus higher (two extra transpositions):")
    for parts in ([2], [3], [2, 1], [1, 1, 1]):
        lam = Partition.of(parts)
        print(f"   c_1{lam} = {c_count(lam, 1)}")

    lam = Partition.of([2, 1])
    print(f"\nnormalized count mu_1{lam} = |C| c / n! = {mu_count(lam, 1)}")


if __name__ == "__main__":
    main()
