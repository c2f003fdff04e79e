"""Composite Gauss-Legendre quadrature over history views.

Distributed-delay terms integrate a function of the history over a window
[a, b] in [-tau, 0].  This module splits the window into pieces on which the
view is one polynomial (:func:`_pieces`): the window is cut at the view's
knots strictly inside (a + tol, b - tol), so every interior piece is a whole
mesh segment and at most two partial pieces remain at the ends (one of them
the stage overlay on [-shift, 0] when the window reaches it).  A bound that
is a knot exactly, in floats, leaves no end piece: its segment is whole too,
so a window on the mesh, read on the state itself (stage 1, c = 0), is whole
segments only.  A bound merely within the tolerance of a knot keeps its end
piece, the rule a node-by-node reading of the view follows.  A fixed
4-node Gauss-Legendre rule applied piece by piece is exact for integrands
that are polynomials of degree <= 7 in theta on each piece and of order 8
on smooth ones -- far beyond the order of any shipped method.

That cut, and the end pieces' node offsets, weights and node powers, depend
only on the mesh (tau/h and h), the view's stage shift and the bounds, which
take a handful of values in a run.  They are computed once per such key, in
one bounded cache, as a read-only window plan (:func:`_window_plan`); a call
then reads only coefficients: it gathers the end polynomials, if any, and
multiplies them by the plan's node powers.

Every integrand takes its whole segments by one rule (:func:`_segment_sums`):
the segments share their local nodes, so their values at all nodes are one
product of a fixed 4x4 power matrix with the contiguous slice of their
coefficients, one call of the integrand takes them all, and the rule's sums
h sum_k W_k f(theta_jk, p_j(X_k)) per segment p_j come out of one product with
the weights.  Both products keep each segment's bits in any slice
(:func:`_gemm`).  A window is the end pieces' sum plus the numpy (pairwise)
sum of its segment sums.

A :class:`Pointwise` integrand g(x) ignores theta, so its sum on a segment is
fixed once the segment is written: the history log stores it per slot and
integrand (held weakly).  A read fills only when its window needs a slot past
the filled ones, and then fills every written slot up to the state's newest
in one call of g.  A window that ends k slots behind the newest segment thus
calls g for its whole segments once in about k steps, on about 4k values; a
window reaching 0 fills one slot a step.  A fresh log (a branch, a pickle)
fills once, on its first read.

The Gauss-Legendre tables (:func:`gauss_legendre`) are kept here; the knot
tolerance of the range check and of the cuts is the history module's.

An adaptive rule driven by an error tolerance (accepting that the final
error then decays to the tolerance rather than to zero) would also serve;
the fixed rule is kept for determinism.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .history import StageView, _as_float, _as_shaped, _index, _knot_tol

__all__ = ["integrate_view", "gauss_legendre", "Pointwise"]

_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1], n >= 1
    an integer, shared and read-only."""
    if (n := _index(n, "n")) < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n not in _RULES:
        x, w = np.polynomial.legendre.leggauss(n)
        rule = (0.5 * (x + 1.0), 0.5 * w)
        for arr in rule:
            arr.setflags(write=False)
        _RULES[n] = rule
    return _RULES[n]


_X, _W = gauss_legendre(4)
# (node, power): this matrix times a cubic's coefficients, lowest power
# first, gives its values at the 4 nodes
_POWERS = _X[:, None] ** np.arange(4.0)
# the weights twice over, as numpy hands a product with one row to gemv (see _gemm)
_WEIGHTS = np.array([_W, _W])
_POWERS.setflags(write=False)
_WEIGHTS.setflags(write=False)
# a partial window piece's (s_lo, s_hi, t_lo, t_hi) times this matrix gives
# its local nodes, its offset nodes and its weights
_ENDS = np.zeros((4, 12))
_ENDS[0, :4] = _ENDS[2, 4:8] = 1.0 - _X
_ENDS[1, :4] = _ENDS[3, 4:8] = _X
_ENDS[2, 8:], _ENDS[3, 8:] = -_W, _W
_ENDS.setflags(write=False)


class _Plan(NamedTuple):
    """The geometry of a window on a view's mesh (:func:`_window_plan`)."""

    first: int  # the first whole segment
    m: int  # the number of whole segments
    left: float  # the offset where the first whole segment starts
    ends: tuple  # the segment of each partial end piece (0 to 2), -1 for the overlay
    thetas: np.ndarray  # the end pieces' node offsets, 4 per piece (read-only)
    weights: np.ndarray  # their Gauss-Legendre weights (read-only)
    powers: np.ndarray  # (pieces, 4, 4) local node powers, lowest first (read-only)


@functools.lru_cache(maxsize=256)  # a run asks for a handful of windows, one per stage shift
def _window_plan(n: int, h: float, shift: float, a: float, b: float) -> _Plan:
    """Cut the window [a, b] at the knots (j - n) h - shift, j in 0..n, strictly
    inside (lo, hi) = (a + tol, b - tol), tol the knot tolerance of tau = n h,
    with the knots computed in the float operations of ``breakpoints``; a stage
    view (shift > 0, with an overlay on [-shift, 0]) also keeps lo above
    -tau + tol, the knots its ``breakpoints`` keep.

    The whole segments are ``coeffs[first:first + m]``, the first starting at
    offset ``left``.  A bound that equals, in floats, the knot at the far end of
    the segment next to it adds that segment to the whole ones (never a stage
    view's segment 0, which the view clips); bounds only within the tolerance
    of a knot do not.  Up to two partial pieces remain, before and after them,
    and none when both bounds are such knots; a piece right of knot n lies in
    the overlay, on [-shift, 0].  Each gets the 4-node Gauss-Legendre rule:
    node offsets, weights and the powers of its local nodes, which times the
    piece's coefficients give its values.  The geometry depends on these
    arguments only, so it is computed once and its arrays are shared, read-only.
    """
    tol = _knot_tol(n * h)
    lo, hi = a + tol, b - tol
    overlay = shift > 0.0
    if overlay:
        lo = max(lo, -(n * h) + tol)
    knots = (np.arange(n + 1) - n) * h - shift
    knot = knots.item  # knot j as a Python float

    def end(j, t_lo, t_hi):  # the piece [t_lo, t_hi] just left of knot j
        if j > n and overlay:
            return -1, (t_lo + shift) / shift, (t_hi + shift) / shift, t_lo, t_hi
        i = min(max(j - 1, 0), n - 1)
        return i, (t_lo - knot(i)) / h, (t_hi - knot(i)) / h, t_lo, t_hi

    # cuts at j0 <= j < j1, the knots in (lo, hi)
    j0 = int(knots.searchsorted(lo, "right"))
    j1 = max(int(knots.searchsorted(hi, "left")), j0)
    # whole segments from knot s to knot e: a bound exactly on the knot next to
    # them adds its segment, but a stage view never takes its clipped segment 0
    s = j0 - 1 if j0 > overlay and a == knot(j0 - 1) else j0
    e = j1 if j1 <= n and b == knot(j1) else j1 - 1
    if e < s:  # one piece, no knot in it
        m, left, ends = 0, a, (end(j0, a, b),)
    else:
        m, left = e - s, knot(s)
        ends = (end(j0, a, left),) if s == j0 else ()
        if e < j1:
            ends += (end(j1, knot(e), b),)
    nodes = np.array([bounds for _, *bounds in ends]).reshape(-1, 4) @ _ENDS
    thetas, weights = nodes[:, 4:8].ravel(), nodes[:, 8:].ravel()
    powers = nodes[:, :4, None] ** np.arange(4.0)
    for arr in (thetas, weights, powers):
        arr.setflags(write=False)
    return _Plan(s, m, left, tuple(i for i, *_ in ends), thetas, weights, powers)


def _pieces(view, a: float, b: float):
    """The :func:`_window_plan` of a range-checked window [a, b] on ``view``'s
    knots, the state whose coefficients its segment indices read, and the
    overlay its index -1 reads (a stage view's; a state has none)."""
    if isinstance(view, StageView):
        base = view.base
        return _window_plan(base.n_segments, view.h, view.shift, a, b), base, view.overlay_coeffs
    return _window_plan(view.n_segments, view.h, 0.0, a, b), view, None


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


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for an ``a`` of two or more rows, by BLAS gemm, which computes a
    column of the product the same way at any position among any number of
    columns.  numpy hands a lone column (or a lone row) to gemv, which rounds
    otherwise, so a lone column goes in twice."""
    return (a @ b[:, [0, 0]])[:, :1] if b.shape[1] == 1 else a @ b


def _segment_sums(g, h: float, coeffs: np.ndarray) -> np.ndarray:
    """h sum_k W_k g(p(X_k)) of each (dim, 4) cubic p of ``coeffs``, p last; g
    gets the values node-major, node k of cubic j at row k len(coeffs) + j.
    Both products go through :func:`_gemm`, so a cubic's sum has the same bits
    in every batch it is computed in (for a g that is elementwise too): stored
    sums do not depend on when they were filled."""
    k, dim = coeffs.shape[:2]
    fv = _checked(g(_gemm(_POWERS, coeffs.reshape(-1, 4).T).reshape(4 * k, dim)), 4 * k)
    return _gemm(h * _WEIGHTS, fv.reshape(4, -1))[0].reshape((k,) + fv.shape[1:]).T


def integrate_view(view, a: float, b: float, integrand) -> np.ndarray:
    """Integrate ``integrand(theta, x(theta))`` over [a, b] along a view.

    [a, b] is split at every knot of the view inside it and a 4-node
    Gauss-Legendre rule is applied per piece.  ``integrand`` must be
    vectorised: it receives the flat node array ``theta`` of shape (m,)
    and the view values of shape (m, dim), and returns shape (m,) or
    (m, q).  The result has the integrand's trailing shape: () for scalar
    densities.  It is called once on the end pieces, if any (none when both
    bounds are knots), and, when the window holds whole segments, once on all
    their nodes; a :class:`Pointwise` integrand takes those segments' sums
    from the history log instead.
    """
    if type(a) is not float or type(b) is not float:  # Python floats need no check
        a, b = (float(_as_shaped(x, (), "window bound holds")) for x in (a, b))
    if a >= b:
        raise ValueError(f"empty or reversed window [{a}, {b}]")
    tol = _knot_tol(view.tau)
    if not (-view.tau - tol <= a <= tol and -view.tau - tol <= b <= tol):  # NaN fails too
        raise ValueError(f"window [{a}, {b}] outside [-{view.tau}, 0]")
    plan, base, overlay = _pieces(view, a, b)
    m, h, first = plan.m, view.h, plan.first
    if plan.ends:  # the end pieces' values: their polynomials times their node powers
        rows = np.array([overlay if i < 0 else base._coeffs[i] for i in plan.ends])
        end_vals = (plan.powers @ rows.transpose(0, 2, 1)).reshape(-1, view.dim)
        ends = plan.weights @ _checked(integrand(plan.thetas, end_vals), len(end_vals))
        if not m:
            return ends
    if isinstance(integrand, Pointwise):
        rule = lambda c: _segment_sums(integrand.g, h, c)  # noqa: E731
        # a stage view's whole segments are its base's, and so are their sums
        whole = base._stored_sums(integrand, rule, first, first + m)
    else:  # node k of whole segment j at left + h X_k + h j, node-major as _segment_sums reads
        thetas = np.add.outer(plan.left + h * _X, h * np.arange(m)).ravel()
        g = functools.partial(integrand, thetas)
        whole = _segment_sums(g, h, base._coeffs[first : first + m])
    return ends + whole.sum(axis=-1) if plan.ends else whole.sum(axis=-1)
