"""Composite Gauss-Legendre quadrature over history views.

Distributed-delay terms integrate a function of the history over a window
[a, b] in [-tau, 0].  The view's history module splits the window into
pieces on which the view is one polynomial: the window is cut at the view's
knots strictly inside (a + tol, b - tol), so every interior piece is a whole
mesh segment and at most two partial pieces remain at the ends (one of them
the stage overlay on [-shift, 0] when the window reaches it).  A fixed
4-node Gauss-Legendre rule applied piece by piece is exact for integrands
that are polynomials of degree <= 7 in theta on each piece and of order 8
on smooth ones -- far beyond the order of any shipped method.

The whole segments share their local nodes, so their values at all nodes
are one product of a fixed 4x4 power matrix with the contiguous slice of
their coefficients, with no per-node segment search; the partial pieces
are evaluated together in one small batch.

The window range check, the knot tolerance and the Gauss-Legendre rule are
the history module's.

An adaptive rule driven by an error tolerance (accepting that the final
error then decays to the tolerance rather than to zero) would also serve;
the fixed rule is kept for determinism.
"""

from __future__ import annotations

import numpy as np

from .history import _outside, gauss_legendre

__all__ = ["integrate_view", "gauss_legendre"]

_X, _W = gauss_legendre(4)
_EXPONENTS = np.arange(4.0)
# (node, power): this matrix times a cubic's coefficients, lowest power
# first, gives its values at the 4 nodes
_POWERS = _X[:, None] ** _EXPONENTS
# a partial piece's (s_lo, s_hi, t_lo, t_hi) times this matrix gives its local
# nodes, its offset nodes and its weights
_ENDS = np.zeros((4, 12))
_ENDS[0, :4] = _ENDS[2, 4:8] = 1.0 - _X
_ENDS[1, :4] = _ENDS[3, 4:8] = _X
_ENDS[2, 8:], _ENDS[3, 8:] = -_W, _W
for _arr in (_POWERS, _ENDS):
    _arr.setflags(write=False)


def integrate_view(view, a: float, b: float, integrand) -> np.ndarray:
    """Integrate ``integrand(theta, x(theta))`` over [a, b] along a view.

    [a, b] is split at every knot of the view inside it and a 4-node
    Gauss-Legendre rule is applied per piece.  ``integrand`` must be
    vectorised: it receives the flat node array ``theta`` of shape (m,)
    and the view values of shape (m, dim), and returns shape (m,) or
    (m, q).  The result has the integrand's trailing shape: () for scalar
    densities.
    """
    a = float(a)
    b = float(b)
    if a >= b:
        raise ValueError(f"empty or reversed window [{a}, {b}]")
    if _outside(np.array([a, b]), view.tau).any():
        raise ValueError(f"window [{a}, {b}] outside [-{view.tau}, 0]")
    segs, left, ends = view._pieces(a, b)
    m, dim, h = len(segs), view.dim, view.h
    whole = 4 * m
    thetas = np.empty(whole + 4 * len(ends))
    w = np.empty_like(thetas)
    vals = np.empty((len(thetas), dim))
    # the whole segments node by node (node k of segment j at k m + j): one
    # product of the power matrix with the contiguous coefficient slice
    np.matmul(_POWERS, segs.reshape(-1, 4).T, out=vals[:whole].reshape(4, -1))
    np.add.outer(left + h * _X, h * np.arange(m), out=thetas[:whole].reshape(4, m))
    w[:whole].reshape(4, m)[:] = (h * _W)[:, None]
    # the one or two partial pieces at the window ends in one small batch
    nodes = np.array([bounds for _, *bounds in ends]) @ _ENDS
    powers = nodes[:, :4, None] ** _EXPONENTS
    vals[whole:] = (powers @ np.array([c for c, *_ in ends]).transpose(0, 2, 1)).reshape(-1, dim)
    thetas[whole:] = nodes[:, 4:8].ravel()
    w[whole:] = nodes[:, 8:].ravel()
    fv = np.asarray(integrand(thetas, vals), dtype=float)
    if fv.ndim not in (1, 2) or fv.shape[0] != len(thetas):
        raise ValueError(
            f"integrand returned shape {fv.shape}, "
            f"expected ({len(thetas)},) or ({len(thetas)}, q)"
        )
    return w @ fv
