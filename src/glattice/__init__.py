"""Exact-arithmetic toolkit for finite integer matrix groups, G-lattices,
Tate cohomology, flasque resolutions and rationality certification of
low-dimensional algebraic tori."""

__version__ = "0.1.0"

from .intlinalg import (
    IntMat,
    HermiteForm,
    AbelianInvariants,
    BudgetExhausted,
    snf,
    hnf,
    kernel_basis,
    cokernel_invariants,
    unimodular_in_lattice,
)
