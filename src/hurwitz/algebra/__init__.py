"""Exact polynomial and series kernel: sparse polynomials stored as
integer numerators over one denominator, truncated jets between the y, u,
w, and x coordinate systems, the two derivations, and symmetric-function
utilities."""
