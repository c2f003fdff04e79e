"""Exponential Runge-Kutta time integration for delay and renewal equations.

The state of a delay equation is its history function on [-tau, 0]; this
package advances that state exactly under the shift semigroup and treats the
forcing through phi-function weights, yielding methods whose convergence
order is not degraded by the infinite-dimensional setting.  Ships three
explicit methods (orders 1-3), a stiff order-condition checker, benchmark
problems and a CLI/CSV harness for convergence studies.
"""

from .history import DEGREE, HistoryState, StageView, norm_diff
from .phi import (
    PhiCombo,
    phi_dde_weight,
    phi_matrix_action,
    phi_re_weight,
    phi_scalar,
)
from .quadrature import gauss_legendre, integrate_view
from .tableau import OrderReport, Tableau, builtin, builtin_names, check_order, psi_a, psi_b
from .stepper import (
    CoupledProblem,
    IntegrationDiverged,
    MeshError,
    Problem,
    TrajectoryRecorder,
    initial_state,
    integrate,
    observed_values,
    step_coupled,
    step_dde,
    step_re,
    step_semilinear_dde,
)
from .problems import belzen, daphnia, quadratic_re
from .harness import converge, estimate_order, simulate

__version__ = "0.1.0"

__all__ = [
    "DEGREE",
    "HistoryState",
    "StageView",
    "norm_diff",
    "PhiCombo",
    "phi_scalar",
    "phi_dde_weight",
    "phi_re_weight",
    "phi_matrix_action",
    "integrate_view",
    "gauss_legendre",
    "Tableau",
    "OrderReport",
    "builtin",
    "builtin_names",
    "check_order",
    "psi_a",
    "psi_b",
    "Problem",
    "CoupledProblem",
    "MeshError",
    "IntegrationDiverged",
    "TrajectoryRecorder",
    "initial_state",
    "integrate",
    "observed_values",
    "step_dde",
    "step_re",
    "step_semilinear_dde",
    "step_coupled",
    "belzen",
    "quadratic_re",
    "daphnia",
    "converge",
    "estimate_order",
    "simulate",
    "__version__",
]
