"""Benchmark problems with known exact solutions or reference dynamics.

* ``belzen``: scalar DDE x' = lambda x(t) - (pi/2) e^lambda x(t-1) whose
  exact solution e^{lambda t} sin(pi t / 2) doubles as the initial history,
  so the data are compatible and the solution is smooth.
* ``quadratic_re``: scalar renewal equation
  x(t) = (gamma/2) int_{t-3}^{t-1} x(s)(1 - x(s)) ds with the periodic exact
  solution c + A sin(pi t / 2).
* ``daphnia``: simplified logistic consumer-resource model coupling a birth
  renewal equation to a logistic resource DDE; past the Hopf point
  (beta ~ 3.0162 at the default parameters) trajectories settle onto a
  periodic orbit.  No closed-form solution.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import Pointwise, integrate_view
from .stepper import CoupledProblem, Problem

__all__ = [
    "belzen",
    "quadratic_re",
    "daphnia",
]


def belzen(lam: float = 1.0) -> Problem:
    """Scalar test DDE with exact solution e^{lambda t} sin(pi t / 2)."""
    coef = 0.5 * math.pi * math.exp(lam)

    def exact(t):
        t = np.asarray(t, dtype=float)
        return np.exp(lam * t) * np.sin(0.5 * np.pi * t)

    def rhs(t, v):
        return lam * v.head - coef * v.eval(-1.0)

    return Problem(
        kind="dde",
        dim=1,
        tau=1.0,
        rhs=rhs,
        phi0=exact,
        name="belzen",
        exact=exact,
    )


def quadratic_re(gamma: float = 4.0) -> Problem:
    """Scalar renewal equation with a quadratic distributed-delay kernel.

    The mean c = 1/2 + pi/(4 gamma) and amplitude A with
    A^2 = 2 c (1 - 1/gamma - c) make c + A sin(pi t / 2) an exact solution;
    the parameters must satisfy 2 c (1 - 1/gamma - c) >= 0.
    """
    c = 0.5 + 0.25 * math.pi / gamma
    a_sq = 2.0 * c * (1.0 - 1.0 / gamma - c)
    if a_sq < 0.0:
        raise ValueError(
            f"gamma = {gamma} admits no real amplitude (A^2 = {a_sq:.3e} < 0)"
        )
    amp = math.sqrt(a_sq)

    def exact(t):
        t = np.asarray(t, dtype=float)
        return c + amp * np.sin(0.5 * np.pi * t)

    kernel = Pointwise(lambda x: x * (1.0 - x))

    def rhs(t, v):
        return 0.5 * gamma * integrate_view(v, -3.0, -1.0, kernel)

    return Problem(
        kind="re",
        dim=1,
        tau=3.0,
        rhs=rhs,
        phi0=exact,
        name="quadratic_re",
        exact=exact,
        distributed_limits=(-3.0, -1.0),
    )


def daphnia(
    beta: float = 3.02,
    r: float = 1.0,
    K: float = 1.0,
    gamma: float = 1.0,
    abar: float = 3.0,
    amax: float = 4.0,
) -> CoupledProblem:
    """Coupled birth-rate RE / logistic resource DDE:

        b(t) = beta S(t) int_{abar}^{amax} b(t-a) da
        S'(t) = r S(t) (1 - S(t)/K) - gamma S(t) int_{abar}^{amax} b(t-a) da

    started from the constant history (0.7, 0.35).
    """
    if not 0.0 < abar < amax:
        raise ValueError(f"need 0 < abar < amax, got abar={abar}, amax={amax}")

    kernel = Pointwise(lambda x: x)

    def rhs(t, vb, vs):
        births = integrate_view(vb, -amax, -abar, kernel)
        S = vs.head
        f_re = beta * S * births
        f_dde = r * S * (1.0 - S / K) - gamma * S * births
        return f_re, f_dde

    return CoupledProblem(
        dim_re=1,
        dim_dde=1,
        tau=amax,
        rhs=rhs,
        phi0_re=lambda th: np.full(np.shape(th), 0.7),
        phi0_dde=lambda th: np.full(np.shape(th), 0.35),
        name="daphnia",
        distributed_limits=(-amax, -abar),
        component_names=("b", "S"),
    )


REGISTRY = {
    "belzen": belzen,
    "quadratic_re": quadratic_re,
    "daphnia": daphnia,
}

#: default horizons and step sizes per problem for the CLI; ``hs`` (the
#: ``converge`` step list) only where an exact solution exists
CLI_DEFAULTS = {
    "belzen": {"T": 2.0, "hs": (1e-1, 1e-2, 1e-3, 1e-4), "h": 1e-2},
    "quadratic_re": {"T": 4.0, "hs": (1e-1, 1e-2, 1e-3), "h": 1e-2},
    "daphnia": {"T": 60.0, "h": 1e-2},
}

