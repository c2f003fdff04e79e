"""Exponential Runge-Kutta time integration for delay and renewal equations.

The state of a delay equation is its history function on [-tau, 0]; this
package advances that state exactly under the shift semigroup and treats the
forcing through phi-function weights, yielding methods whose convergence
order is not degraded by the infinite-dimensional setting.  Ships three
explicit methods (orders 1-3), a stiff order-condition checker, benchmark
problems and a CLI/CSV harness for convergence studies.

The package exports the names in each module's ``__all__``, and only those.
"""

from .history import *
from .phi import *
from .quadrature import *
from .tableau import *
from .stepper import *
from .problems import *
from .harness import *
from . import harness, history, phi, problems, quadrature, stepper, tableau

__version__ = "0.1.0"

__all__ = [
    name
    for module in (history, phi, quadrature, tableau, stepper, problems, harness)
    for name in module.__all__
] + ["__version__"]
