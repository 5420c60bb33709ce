"""Exact polynomial and series kernel: sparse polynomials stored as
integer numerators over one denominator, truncated jets between the y, u,
w, and x coordinate systems, the two derivations, and symmetric-function
utilities."""

from .operators import (
    apply_wdw,
    apply_xdx,
    diag_fold,
    divide_ydiff,
    xdx_basis_convert,
)
from .poly import SparsePoly
from .series import (
    TruncSeries,
    expand_y_to_w,
    tree_coeffs,
    x_coefficient,
)
from .sym import (
    e_monomials_by_weight,
    elementary_values,
    fit_sym_e_poly,
    to_e_basis,
    weighted_degree,
)

__all__ = [
    "SparsePoly",
    "TruncSeries",
    "apply_xdx",
    "apply_wdw",
    "diag_fold",
    "divide_ydiff",
    "xdx_basis_convert",
    "expand_y_to_w",
    "tree_coeffs",
    "x_coefficient",
    "e_monomials_by_weight",
    "elementary_values",
    "fit_sym_e_poly",
    "to_e_basis",
    "weighted_degree",
]
