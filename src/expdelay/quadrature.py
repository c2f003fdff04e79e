"""Composite Gauss-Legendre quadrature over history views.

Distributed-delay terms integrate a function of the history over a window
[a, b] in [-tau, 0].  The view is polynomial between its breakpoints, so a
fixed 4-node Gauss-Legendre rule applied piece by piece is exact for
integrands that are polynomials of degree <= 7 in theta on each piece and
of order 8 on smooth ones -- far beyond the order of any shipped method.

The window range check and the knot tolerance are the history module's.

An adaptive rule driven by an error tolerance (accepting that the final
error then decays to the tolerance rather than to zero) would also serve;
the fixed rule is kept for determinism.
"""

from __future__ import annotations

import numpy as np

from .history import _knot_tol, _outside

__all__ = ["integrate_view", "gauss_legendre"]

_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1]."""
    if n not in _RULES:
        x, w = np.polynomial.legendre.leggauss(n)
        _RULES[n] = (0.5 * (x + 1.0), 0.5 * w)
    return _RULES[n]


def integrate_view(view, a: float, b: float, integrand) -> np.ndarray:
    """Integrate ``integrand(theta, x(theta))`` over [a, b] along a view.

    [a, b] is split at every breakpoint of the view and a 4-node
    Gauss-Legendre rule is applied per piece.  ``integrand`` must be
    vectorised: it receives the flat node array ``theta`` of shape (m,) and
    the view values of shape (m, dim), and returns shape (m,) or (m, q).
    The result has the integrand's trailing shape: () for scalar densities.
    """
    a = float(a)
    b = float(b)
    if a >= b:
        raise ValueError(f"empty or reversed window [{a}, {b}]")
    if _outside(np.array([a, b]), view.tau).any():
        raise ValueError(f"window [{a}, {b}] outside [-{view.tau}, 0]")
    tol = _knot_tol(view.tau)
    knots = view.breakpoints()
    inner = knots[(knots > a + tol) & (knots < b - tol)]
    edges = np.concatenate([[a], inner, [b]])
    nodes, weights = gauss_legendre(4)
    widths = np.diff(edges)
    thetas = (edges[:-1, None] + widths[:, None] * nodes[None, :]).ravel()
    w = (widths[:, None] * weights[None, :]).ravel()
    # the nodes lie in the window checked above
    fv = np.asarray(integrand(thetas, view._eval(thetas)), dtype=float)
    if fv.ndim not in (1, 2) or fv.shape[0] != len(thetas):
        raise ValueError(
            f"integrand returned shape {fv.shape}, "
            f"expected ({len(thetas)},) or ({len(thetas)}, q)"
        )
    return w @ fv
