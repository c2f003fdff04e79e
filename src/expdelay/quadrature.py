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

That cut, and the end pieces' node offsets, weights and node powers, depend
only on the mesh (tau/h and h), the view's stage shift and the bounds, which
take a handful of values in a run.  The history module computes them once
per such key, in one bounded cache, as a read-only window plan; a call then
reads only coefficients: it slices the whole segments, gathers the one or
two end polynomials and multiplies them by the plan's node powers.

A :class:`Pointwise` integrand g(x) ignores theta, so the rule's sum
h sum_k W_k g(p_j(X_k)) on a whole segment p_j is fixed once p_j is written.
The history log stores it per slot and integrand (held weakly), filling new
slots with one call of g; a window is the numpy (pairwise) sum of its stored
sums plus the rule on its end pieces, so a step calls g on O(1) values.  A
fresh log (a branch, a pickle) fills once.  Other integrands see every node.

The knot tolerance of the window range check, the window plans and the
Gauss-Legendre rule are the history module's.

An adaptive rule driven by an error tolerance (accepting that the final
error then decays to the tolerance rather than to zero) would also serve;
the fixed rule is kept for determinism.
"""

from __future__ import annotations

import numpy as np

from .history import _as_float, _as_shaped, _knot_tol, gauss_legendre

__all__ = ["integrate_view", "gauss_legendre", "Pointwise"]

_X, _W = gauss_legendre(4)
# (node, power): this matrix times a cubic's coefficients, lowest power
# first, gives its values at the 4 nodes
_POWERS = _X[:, None] ** np.arange(4.0)
_POWERS.setflags(write=False)


class Pointwise:
    """The integrand ``(theta, x) -> g(x)``, g vectorised from (m, dim) to (m,) or (m, q);
    :func:`integrate_view` caches its segment sums, so build it once and reuse it."""

    def __init__(self, g):
        if not callable(g):
            raise TypeError(f"Pointwise needs a callable, got {g!r}")
        self.g = g

    def __call__(self, theta, x):
        return self.g(x)


def _checked(fv, m: int) -> np.ndarray:
    fv = _as_float(fv, "integrand returned")
    if fv.ndim not in (1, 2) or fv.shape[0] != m:
        raise ValueError(f"integrand returned shape {fv.shape}, expected ({m},) or ({m}, q)")
    return fv


def _segment_sums(g, h: float, coeffs: np.ndarray) -> np.ndarray:
    """h sum_k W_k g(p(X_k)) of each (dim, 4) cubic p of ``coeffs``, p last."""
    k, dim = coeffs.shape[:2]
    fv = _checked(g((_POWERS @ coeffs.reshape(-1, 4).T).reshape(4 * k, dim)), 4 * k)
    return ((h * _W) @ fv.reshape(4, -1)).reshape((k,) + fv.shape[1:]).T


def integrate_view(view, a: float, b: float, integrand) -> np.ndarray:
    """Integrate ``integrand(theta, x(theta))`` over [a, b] along a view.

    [a, b] is split at every knot of the view inside it and a 4-node
    Gauss-Legendre rule is applied per piece.  ``integrand`` must be
    vectorised: it receives the flat node array ``theta`` of shape (m,)
    and the view values of shape (m, dim), and returns shape (m,) or
    (m, q).  The result has the integrand's trailing shape: () for scalar
    densities.  A :class:`Pointwise` integrand takes its whole segments'
    sums from the history log and is called on the end pieces only.
    """
    if type(a) is not float or type(b) is not float:  # Python floats need no check
        a, b = (float(_as_shaped(x, (), "window bound holds")) for x in (a, b))
    if a >= b:
        raise ValueError(f"empty or reversed window [{a}, {b}]")
    tol = _knot_tol(view.tau)
    if not (-view.tau - tol <= a <= tol and -view.tau - tol <= b <= tol):  # NaN fails too
        raise ValueError(f"window [{a}, {b}] outside [-{view.tau}, 0]")
    plan, coeffs, overlay = view._pieces(a, b)
    m, dim, h = plan.m, view.dim, view.h
    # the end pieces' values: their polynomials times their node powers
    rows = np.array([overlay if i < 0 else coeffs[i] for i in plan.ends])
    end_vals = (plan.powers @ rows.transpose(0, 2, 1)).reshape(-1, dim)
    if m and isinstance(integrand, Pointwise):
        rule = lambda c: _segment_sums(integrand.g, h, c)  # noqa: E731
        # a stage view's whole segments are its base's, and so are their sums
        whole = getattr(view, "base", view)._segment_sum(integrand, rule, plan.first, m)
        return plan.weights @ _checked(integrand.g(end_vals), len(end_vals)) + whole
    whole = 4 * m
    thetas = np.empty(whole + len(end_vals))
    w = np.empty_like(thetas)
    vals = np.empty((len(thetas), dim))
    # the whole segments node by node (node k of segment j at k m + j): one
    # product of the power matrix with the contiguous coefficient slice
    segs = coeffs[plan.first : plan.first + m]
    np.matmul(_POWERS, segs.reshape(-1, 4).T, out=vals[:whole].reshape(4, -1))
    np.add.outer(plan.left + h * _X, h * np.arange(m), out=thetas[:whole].reshape(4, m))
    w[:whole].reshape(4, m)[:] = (h * _W)[:, None]
    thetas[whole:], w[whole:], vals[whole:] = plan.thetas, plan.weights, end_vals
    return w @ _checked(integrand(thetas, vals), len(thetas))
