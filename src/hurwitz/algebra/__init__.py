"""Exact polynomial and series kernel: sparse polynomials stored as
integer numerators over one denominator, truncated jets between the y, u,
w, and x coordinate systems, the two derivations, and symmetric-function
utilities."""

from .operators import xdx_basis_convert
from .poly import SparsePoly
from .series import tree_coeffs
from .sym import (
    elementary_values,
    to_e_basis,
    weighted_degree,
)

__all__ = [
    "SparsePoly",
    "xdx_basis_convert",
    "tree_coeffs",
    "elementary_values",
    "to_e_basis",
    "weighted_degree",
]
