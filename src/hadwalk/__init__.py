"""Exact-arithmetic and asymptotic-analysis laboratory for the Hadamard walk."""

from .ring import RationalSeries
from .walk import WalkCache, WalkState, evolve, initial_state, probability, step
from .jacobi import (check_jacobi_identities, check_reflections, jacobi_at,
                     psi_closed_l, psi_closed_r)
from .genfun import (closed_form_series, definitional_series, equivalence_ledger,
                     jacobi_generating, lagrange_invert, srivastava_singhal_series)
from .asymptotics import (b_pathintegral, btilde, check_contour_shift, omega,
                          psi_asymptotic, quadrature_psi, saddle)

__version__ = "0.1.0"

__all__ = [
    "RationalSeries",
    "WalkState", "WalkCache", "initial_state", "step", "evolve", "probability",
    "jacobi_at", "psi_closed_r", "psi_closed_l", "check_reflections",
    "check_jacobi_identities",
    "closed_form_series", "definitional_series",
    "jacobi_generating", "equivalence_ledger", "lagrange_invert",
    "srivastava_singhal_series",
    "omega", "saddle", "btilde", "b_pathintegral", "psi_asymptotic",
    "quadrature_psi", "check_contour_shift",
    "__version__",
]
