"""Piecewise-polynomial history states for delay and renewal equations.

The state of a delay equation at time t is the function theta -> x(t+theta)
on [-tau, 0].  It is stored here as cubic segments over a uniform mesh of
width h (tau/h segments), plus a head value x(t) for the delay
(DDE) flavour.  Renewal (RE) states are L^1 functions: no head, no
continuity across mesh knots, left limits at knots.

The packed (n, dim, 4) coefficient array is the only representation of
a history: segment i covers [(i - n) h, (i - n + 1) h], oldest first, in the
local variable s = (theta - left)/h, lowest power first.  A state keeps tau
as n * h, the multiple of h that passed the mesh check, so -tau is its oldest
knot bit for bit and lookups, window cuts and ``j_integrate`` share one frame.

The package's node tables and Gauss-Legendre rules (:func:`gauss_legendre`)
live here, and so does its mesh rule: tau, T or a delay bound is on the
mesh when value/h is within the knot tolerance 1e-9 * max(1, |value/h|) of
an integer (:func:`_steps`, else :class:`MeshError`), and an offset is in
[-tau, 0] when within 1e-9 * max(1, tau) of it (:func:`_outside`).  That band
is centred on -n * h; the tau passed in lies inside it, as |tau - n h| <= 1e-9 tau.

A distributed-delay window [a, b] is split here too (``_pieces``), at the
knots strictly inside (a + tol, b - tol): into a contiguous run of whole
segments and one or two partial pieces at its ends, one of them the stage
overlay when a stage view's window reaches [-shift, 0].  That geometry, with
the end pieces' Gauss-Legendre nodes, is a read-only plan computed once per
(tau/h, h, shift, a, b) and shared by every view on that mesh
(:func:`_window_plan`).

A scalar offset (``eval``, or a float or 0-d value to ``eval_many``) takes a
point path: the same range check, knot snapping and float operations as the
array path, in plain floats, down to the Horner row of its one (dim, 4)
segment (:func:`_horner_point`), so both agree bit for bit; it returns shape
(dim,) where an array of m offsets gives (m, dim).

Every array the package takes in is read by :func:`_as_float`: complex,
string or object values raise a TypeError naming their source rather than
lose their imaginary parts or be parsed.  Arrays with a dim axis (an rhs,
phi0, exact or reference value, a head, an overlay, an appended segment, a
state's coefficients) and scalars (tau, h, T, a shift, z) are read at their
shape by :func:`_as_shaped`, which lets a dim axis of length 1 be left off
and names any other shape.

Stepping never mutates a state.  A state is a window of n segments in an
append-only log of capacity 2n that the states stepped from one another
share.  A log's maker writes its first window: the constructor copies the
caller's coefficients, ``from_callable`` projects phi0 into it, and an advance
that finds the log's next free slot taken, or the log full, copies the window
into a fresh log.  The advance writes the (dim, 4) cubic of the newest
interval [-h, 0] into that slot in O(1).  Written slots are never rewritten.
A Runge-Kutta stage value is a :class:`StageView`, which overlays a single
polynomial on [-shift, 0] over a shifted base state instead of a new history.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
import weakref
from itertools import chain
from typing import NamedTuple

import numpy as np

__all__ = [
    "DEGREE",
    "HistoryState",
    "MeshError",
    "StageView",
    "norm_diff",
]

DEGREE = 3
_NCOEF = DEGREE + 1

#: relative knot tolerance: closer mesh positions count as one
_KNOT_RTOL = 1e-9

# Chebyshev-Lobatto points on [0, 1]: (1 - cos(j*pi/3))/2.  They include the
# endpoints, so neighbouring DDE cubics interpolate one shared sample at each
# knot, and the head is the sample at 0.
_LOBATTO_S = np.array([0.0, 0.25, 0.75, 1.0])
# First-kind Chebyshev points on [0, 1]; interior only, used for RE states
# where knot values are only defined as one-sided limits.
_CHEB_S = 0.5 * (1.0 - np.cos((2.0 * np.arange(4) + 1.0) * np.pi / 8.0))

_LOBATTO_VINV = np.linalg.inv(np.vander(_LOBATTO_S, _NCOEF, increasing=True))
_CHEB_VINV = np.linalg.inv(np.vander(_CHEB_S, _NCOEF, increasing=True))

# 16 first-kind Chebyshev points per segment: sampling grid for sup norms.
_SUP_S = 0.5 * (1.0 - np.cos((2.0 * np.arange(16) + 1.0) * np.pi / 32.0))

_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1],
    shared and read-only."""
    if n not in _RULES:
        x, w = np.polynomial.legendre.leggauss(n)
        rule = (0.5 * (x + 1.0), 0.5 * w)
        for arr in rule:
            arr.setflags(write=False)
        _RULES[n] = rule
    return _RULES[n]


# 4-node Gauss-Legendre rule on [0, 1], used for L1 norms and window pieces.
_L1_S, _L1_W = gauss_legendre(4)
# a partial window piece's (s_lo, s_hi, t_lo, t_hi) times this matrix gives
# its local nodes, its offset nodes and its weights
_ENDS = np.zeros((4, 12))
_ENDS[0, :4] = _ENDS[2, 4:8] = 1.0 - _L1_S
_ENDS[1, :4] = _ENDS[3, 4:8] = _L1_S
_ENDS[2, 8:], _ENDS[3, 8:] = -_L1_W, _L1_W
_ENDS.setflags(write=False)


def _horner(coeffs: np.ndarray, s: np.ndarray) -> np.ndarray:
    # coeffs (..., d, NCOEF), s (...,) -> values (..., d)
    s = s[..., None]
    val = coeffs[..., -1]
    for p in range(_NCOEF - 2, -1, -1):
        val = val * s + coeffs[..., p]
    return val


def _horner_point(row: np.ndarray, s: float) -> np.ndarray:
    """_horner of one (dim, 4) row at one s, in plain floats: the same
    operations in the same order, so the same bits (NaN signs aside, which
    numpy's vector loops may take from either operand)."""
    return np.array([((c3 * s + c2) * s + c1) * s + c0 for c0, c1, c2, c3 in row.tolist()])


_FLOAT = np.dtype(float)


def _as_float(raw, what: str) -> np.ndarray:
    """``raw`` as a float64 array, returned as is when it is one.  Values
    other than booleans, integers and floats raise a TypeError "<what>
    complex values" or "<what> non-numeric values", ``what`` naming their
    source with its verb ("rhs returned", "coeffs holds"), instead of losing
    their imaginary parts to the cast or being parsed from strings or objects."""
    if type(raw) is np.ndarray and raw.dtype is _FLOAT:
        return raw
    vals = np.asarray(raw)
    if vals.dtype is _FLOAT:  # a numpy or Python float: no second conversion
        return vals
    if vals.dtype.kind not in "biuf":
        sort = "complex" if vals.dtype.kind == "c" else "non-numeric"
        raise TypeError(f"{what} {sort} values (dtype {vals.dtype}); expected real ones")
    return np.asarray(vals, dtype=float)


def _as_shaped(raw, shape: tuple, what: str, axis: int = 0) -> np.ndarray:
    """``raw`` read by :func:`_as_float` at ``shape``, or at ``shape`` without
    its dim axis ``axis`` when that axis has length 1 (reshaped, not copied);
    any other shape raises a ValueError "<what> shape S, expected T"."""
    vals = _as_float(raw, what)
    if vals.shape != shape:
        if shape[axis : axis + 1] != (1,) or vals.shape != shape[:axis] + shape[axis + 1 :]:
            raise ValueError(f"{what} shape {vals.shape}, expected {shape}")
        vals = vals.reshape(shape)
    return vals


class MeshError(ValueError):
    """A step size, horizon or delay bound violates the mesh constraints."""


def _knot_tol(x: float) -> float:
    return _KNOT_RTOL * max(1.0, abs(x))


def _steps(value: float, h: float, what: str) -> int:
    """value/h as an int; raises MeshError unless h > 0 and value/h is
    within the knot tolerance of an integer."""
    if not h > 0.0:
        raise MeshError(f"step size h = {h} must be positive")
    ratio = value / h
    if not math.isfinite(ratio) or abs(ratio - round(ratio)) > _knot_tol(ratio):
        raise MeshError(f"{what} = {value} is not an integer multiple of h = {h}")
    return int(round(ratio))


def _index(value, field: str) -> int:
    """``value`` read by :func:`operator.index`; a TypeError names ``field`` otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{field} must be an integer, got {value!r}") from None


def _n_segments(kind, dim: int, tau: float, h: float) -> int:
    """Number of segments n = tau/h of a history of this kind and dim; raises
    unless the kind is 'dde' or 're', dim >= 1 and n >= 1 (MeshError)."""
    if kind not in ("dde", "re"):
        raise ValueError(f"kind must be 'dde' or 're', got {kind!r}")
    if _index(dim, "dim") < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    tau, h = float(_as_shaped(tau, (), "tau holds")), float(_as_shaped(h, (), "h holds"))
    n = _steps(tau, h, "tau")
    if n < 1:
        raise MeshError(f"tau = {tau} must be a positive multiple of h = {h}")
    return n


def _outside(thetas: np.ndarray, tau: float) -> np.ndarray:
    """Mask of offsets outside [-tau, 0] by more than the knot tolerance;
    NaN counts as outside."""
    tol = _knot_tol(tau)
    return ~((thetas >= -tau - tol) & (thetas <= tol))


def _check_inside(thetas: np.ndarray, tau: float):
    """Raise the named ValueError for offsets on 2+ axes, or the first outside [-tau, 0]."""
    if thetas.ndim > 1:
        raise ValueError(f"offsets must be a scalar or 1-d, got shape {thetas.shape}")
    bad = _outside(thetas, tau)
    if bad.any():
        raise ValueError(
            f"history evaluated at theta = {thetas[bad][0]}, outside [-{tau}, 0]"
        )


def _eval_many(self, thetas) -> np.ndarray:
    """Evaluate at an array of offsets, shape (len(thetas), dim), or at a
    scalar offset (a float or a 0-d value) by the point path, shape (dim,)."""
    if not isinstance(thetas, float):
        thetas = _as_float(thetas, "thetas holds")
        if thetas.ndim:
            _check_inside(thetas, self.tau)
            return self._eval(thetas)
    theta, tol = float(thetas), _knot_tol(self.tau)
    if not -self.tau - tol <= theta <= tol:
        _check_inside(np.array([theta]), self.tau)  # raises the array message
    return self._eval_point(theta)


def _eval_one(self, theta: float) -> np.ndarray:
    """Evaluate at one offset theta in [-tau, 0]; returns shape (dim,)."""
    return self.eval_many(float(theta))


def _grid(n: int, h: float, s: np.ndarray) -> np.ndarray:
    # offsets of the local nodes s on each of the n segments, shape (n, len(s))
    return ((np.arange(n) - n) * h)[:, None] + h * s[None, :]


def _as_head(kind: str, dim: int, head):
    """Read-only copy of a DDE kind's head, read at shape (dim,); RE kinds take none."""
    if kind == "re":
        if head is not None:
            raise ValueError("RE states carry no head value")
        return None
    if head is None:
        raise ValueError("DDE states require a head value")
    head = np.array(_as_shaped(head, (dim,), "head holds"))
    head.setflags(write=False)
    return head


def _check_continuity(newest: np.ndarray, head: np.ndarray):
    """Raise unless a DDE head and the newest (dim, 4) segment are finite and match at 0."""
    rows, heads = newest.tolist(), head.tolist()
    # the value at s = 1 is a sum of coefficients and rounds at their
    # scale, which exceeds the head's when the segment decays steeply
    tol = 1e-12 * (1.0 + max(map(abs, chain(heads, *rows))))
    for (c0, c1, c2, c3), x in zip(rows, heads):
        # the Horner row at s = 1; a NaN fails too, and so does an inf, which makes tol inf
        if not abs(c3 + c2 + c1 + c0 - x) <= tol < math.inf:
            if not all(map(math.isfinite, chain(heads, *rows))):
                raise ValueError(f"DDE head {head} or newest segment {rows} is not finite")
            # plain floats: a sum that overflows is inf, without numpy's warning
            newest_at_0 = [c3 + c2 + c1 + c0 for c0, c1, c2, c3 in rows]
            gap = max(abs(v - x) for v, x in zip(newest_at_0, heads))
            raise ValueError(
                f"DDE head {head} does not match the newest segment's value "
                f"{np.array(newest_at_0)} at theta=0: |gap| = {gap:.3e} > {tol:.3e}"
            )


class _Plan(NamedTuple):
    """The geometry of a window on a view's mesh (:func:`_window_plan`)."""

    first: int  # the first whole segment
    m: int  # the number of whole segments
    left: float  # the offset where the first whole segment starts
    ends: tuple  # the segment of each partial end piece, -1 for the overlay
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
    offset ``left``.  One or two partial pieces remain, before and after them;
    a piece right of knot n lies in the overlay, on [-shift, 0].  Each gets
    the 4-node Gauss-Legendre rule: node offsets, weights and the powers of
    its local nodes, which times the piece's coefficients give its values.
    The geometry depends on these arguments only, so it is computed once and
    its arrays are shared, read-only.
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
    if j0 == j1:
        m, left, ends = 0, a, (end(j0, a, b),)
    else:
        m, left, last = j1 - 1 - j0, knot(j0), knot(j1 - 1)
        ends = (end(j0, a, left), end(j1, last, b))
    nodes = np.array([bounds for _, *bounds in ends]) @ _ENDS
    thetas, weights = nodes[:, 4:8].ravel(), nodes[:, 8:].ravel()
    powers = nodes[:, :4, None] ** np.arange(float(_NCOEF))
    for arr in (thetas, weights, powers):
        arr.setflags(write=False)
    return _Plan(j0, m, left, tuple(i for i, *_ in ends), thetas, weights, powers)


class _Log:
    """Append-only buffer of 2n segments; its maker writes the first n, and slot ``end`` is next."""

    __slots__ = ("buf", "end", "lock", "sums")

    def __init__(self, n: int, dim: int):
        self.buf = np.empty((2 * n, dim, _NCOEF))
        self.end = n
        self.lock = threading.Lock()
        self.sums = weakref.WeakKeyDictionary()

    def slot_sums(self, key, end: int, rule) -> np.ndarray:
        """The per-slot values ``sums`` holds for ``key`` (weakly), slot last, filled
        through ``end`` by one call ``rule(buf[filled:end])``; slots never change."""
        with self.lock:
            store, filled = self.sums.get(key, (None, 0))
            if filled < end:
                new = rule(self.buf[filled:end])
                store = np.empty(new.shape[:-1] + (len(self.buf),)) if store is None else store
                store[..., filled:end] = new
                self.sums[key] = store, end
            return store

    def claim(self, end: int, segment: np.ndarray) -> bool:
        """Write ``segment`` to slot ``end`` if that slot is the next free one."""
        with self.lock:
            if end != self.end or end == len(self.buf):
                return False
            self.buf[end] = segment
            self.end = end + 1
            return True


class HistoryState:
    """History function on [-tau, 0] as tau/h cubic segments, plus a DDE head.

    ``coeffs`` (n, dim, 4) and ``head`` (dim,) are read by :func:`_as_shaped`,
    tau and h as real scalars.  Value semantics: instances are immutable and
    safe to share across threads; every operation returns a new state.  A state
    reads the window ``buf[end - n:end]`` of an append-only log; appends only
    write slots past the log's written end, so a window's values never change.
    """

    __slots__ = ("kind", "dim", "tau", "h", "n_segments", "head", "_log", "_end", "_coeffs")

    def __init__(self, kind, dim, tau, h, coeffs, head=None):
        n, dim = _n_segments(kind, dim, tau, h), int(dim)
        log = _Log(n, dim)
        log.buf[:n] = _as_shaped(coeffs, (n, dim, _NCOEF), "coeffs holds", 1)
        self._set(kind, dim, n, float(h), _as_head(kind, dim, head), log, n)._check_window()

    def _set(self, kind, dim: int, n: int, h: float, head, log: _Log, end: int) -> "HistoryState":
        """Fill every slot: tau = n h, and the window ``log.buf[end - n:end]``."""
        self.kind, self.dim, self.tau, self.h, self.n_segments = kind, dim, n * h, h, n
        self.head, self._log, self._end = head, log, end
        self._coeffs = log.buf[end - n : end]
        self._coeffs.setflags(write=False)
        return self

    def _check_window(self) -> "HistoryState":
        """Raise unless each segment is finite (naming the first) and a DDE head meets the last."""
        coeffs, n, h = self._coeffs, self.n_segments, self.h
        if not np.isfinite(coeffs).all():
            i = int(np.argmin(np.isfinite(coeffs).all(axis=(1, 2))))
            raise ValueError(
                f"history segment {i} on [{(i - n) * h}, {(i + 1 - n) * h}] is not finite"
            )
        if self.kind == "dde":
            _check_continuity(coeffs[-1], self.head)
        return self

    def __reduce__(self):  # pickle and copy rebuild through __init__: a fresh log
        return HistoryState, (self.kind, self.dim, self.tau, self.h, self._coeffs, self.head)

    @classmethod
    def from_callable(cls, phi, kind, dim, tau, h) -> "HistoryState":
        """Project a history callable onto the piecewise-cubic mesh.

        Each segment stores the degree-3 interpolant of ``phi`` at 4 Chebyshev
        points: Lobatto points (endpoints included) for DDE states, first-kind
        points for RE states.  ``phi`` is called once, with one flat array of
        m offsets in [-tau, 0] in no promised order, and returns (m, dim)
        values, read by :func:`_as_shaped`.  An RE state takes m = 4n; a DDE
        state m = 3n + 1, as each knot is sampled once, and its head is the
        sample at 0.  Neighbouring DDE cubics interpolate the same knot sample,
        so they meet there up to rounding.  The samples, node-major, form one
        (4, n * dim) matrix, and its transpose times the inverse Vandermonde
        matrix is the packed (n, dim, 4) layout: one product for all segments,
        written into the state's log and checked as the constructor checks.
        """
        n, dim, h = _n_segments(kind, dim, tau, h), int(dim), float(h)
        knots = np.arange(-n, 1.0) * h  # breakpoints(), from a float arange: faster to scale
        if kind == "re":
            thetas = (knots[:-1] + h * _CHEB_S[:, None]).ravel()
            vals = _as_shaped(phi(thetas), (4 * n, dim), "phi returned", 1)
            vinv, head = _CHEB_VINV, None
        else:  # the n + 1 knots, then every segment's nodes at s = 1/4 and 3/4
            thetas = np.concatenate([knots, (knots[:-1] + h * _LOBATTO_S[1:3, None]).ravel()])
            at = _as_shaped(phi(thetas), (3 * n + 1, dim), "phi returned", 1)
            vals = np.concatenate([at[:n], at[n + 1 :], at[1 : n + 1]])
            vinv, head = _LOBATTO_VINV, _as_head(kind, dim, at[n])
        log = _Log(n, dim)
        np.matmul(vals.reshape(_NCOEF, n * dim).T, vinv.T, out=log.buf[:n].reshape(n * dim, _NCOEF))
        return object.__new__(cls)._set(kind, dim, n, h, head, log, n)._check_window()

    def coefficients(self) -> np.ndarray:
        """Packed (n_segments, dim, 4) coefficient array (read-only)."""
        return self._coeffs

    def breakpoints(self) -> np.ndarray:
        """Mesh knots in [-tau, 0], oldest first."""
        n = self.n_segments
        return (np.arange(n + 1) - n) * self.h

    def _pieces(self, a: float, b: float):
        """The :func:`_window_plan` of a range-checked window [a, b], cut at the
        knots strictly inside (a + tol, b - tol), with the coefficients its
        segment indices read and the overlay (None) its index -1 reads."""
        return _window_plan(self.n_segments, self.h, 0.0, a, b), self._coeffs, None

    def _segment_sum(self, key, rule, first: int, m: int) -> np.ndarray:
        """Pairwise (numpy) sum of ``rule``'s stored sums on window segments [first, first + m)."""
        lo = self._end - self.n_segments + first
        return self._log.slot_sums(key, self._end, rule)[..., lo : lo + m].sum(axis=-1)

    def _locate(self, thetas: np.ndarray):
        """Segment index and local coordinate of range-checked offsets."""
        u = (thetas + self.tau) / self.h
        r = np.rint(u)
        on_knot = np.abs(u - r) <= _KNOT_RTOL * np.maximum(1.0, np.abs(u))
        # At a knot the segment to the left owns the value (left limit); in
        # the interior plain truncation finds the enclosing segment.
        idx = np.where(on_knot, r - 1.0, np.floor(u))
        idx = np.clip(idx, 0, self.n_segments - 1).astype(np.intp)
        s = np.clip(np.where(on_knot, r, u) - idx, 0.0, 1.0)
        return idx, s

    # own attributes of each class, so that a tracer can wrap them per class
    eval_many = _eval_many
    eval = _eval_one

    def _eval(self, thetas: np.ndarray) -> np.ndarray:
        """eval_many for offsets the caller has range-checked."""
        idx, s = self._locate(thetas)
        return _horner(self._coeffs[idx], s)

    def _eval_point(self, theta: float) -> np.ndarray:
        """_eval for one range-checked offset in plain floats: the segment
        and local coordinate that _locate finds, and one Horner row."""
        u = (theta + self.tau) / self.h
        r = math.copysign(round(u), u)  # as np.rint, which keeps -0.0
        if abs(u - r) <= _knot_tol(u):
            i, s = int(r) - 1, r
        else:
            i, s = math.floor(u), u
        last = self.n_segments - 1
        i = 0 if i < 0 else last if i > last else i
        s -= i
        return _horner_point(self._coeffs[i], 0.0 if s < 0.0 else 1.0 if s > 1.0 else s)

    def shift_append(self, coeffs, head=None) -> "HistoryState":
        """Advance by one mesh width: drop the oldest segment and append
        ``coeffs``, the (dim, 4) cubic on [-h, 0] in the local variable
        s = (theta + h)/h, as the newest one, in O(1) (see the module notes).
        It and a head are read at their shapes by :func:`_as_shaped`.

        DDE states also replace the head, which must be finite and match the new
        segment's value at theta = 0; RE states take no head, and that value, the
        row sums in plain floats, must be finite.  This is the stepper's update check.
        """
        coeffs = _as_shaped(coeffs, (self.dim, _NCOEF), "coeffs holds")
        head = _as_head(self.kind, self.dim, head)
        if self.kind == "dde":
            _check_continuity(coeffs, head)
        elif not all(math.isfinite(c3 + c2 + c1 + c0) for c0, c1, c2, c3 in coeffs.tolist()):
            raise ValueError(f"appended RE segment {coeffs.tolist()} is not finite at theta = 0")
        log, end = self._log, self._end
        if not log.claim(end, coeffs):
            log, end = _Log(self.n_segments, self.dim), self.n_segments
            log.buf[:end] = self._coeffs
            log.claim(end, coeffs)
        new = object.__new__(HistoryState)
        return new._set(self.kind, self.dim, self.n_segments, self.h, head, log, end + 1)

    def j_integrate(self, theta):
        """Integral of an RE history from theta up to 0, exact per segment.

        This is the embedding carrying the eta state to the integrated state
        u(theta) = int_theta^0 eta(s) ds.  Accepts a scalar or an array of
        offsets; returns (dim,) or (m, dim) accordingly.
        """
        if self.kind != "re":
            raise ValueError("j_integrate is defined for RE states only")
        scalar = np.isscalar(theta) or np.ndim(theta) == 0
        thetas = np.atleast_1d(_as_float(theta, "theta holds"))
        _check_inside(thetas, self.tau)
        idx, s = self._locate(thetas)
        inv = 1.0 / (1.0 + np.arange(_NCOEF))
        seg_int = self.h * (self._coeffs * inv).sum(axis=-1)  # (n, d)
        suffix = np.zeros((self.n_segments + 1, self.dim))
        suffix[:-1] = seg_int[::-1].cumsum(axis=0)[::-1]
        powers = s[:, None] ** (1.0 + np.arange(_NCOEF))  # (m, NCOEF)
        partial = self.h * ((1.0 - powers)[:, None, :] * inv * self._coeffs[idx]).sum(
            axis=-1
        )
        out = partial + suffix[idx + 1]
        return out[0] if scalar else out

    def __repr__(self):
        return (
            f"HistoryState(kind={self.kind!r}, dim={self.dim}, tau={self.tau}, "
            f"h={self.h}, segments={self.n_segments})"
        )


class StageView:
    """Stage value of an exponential RK step: a shifted base history with one
    polynomial overlaid on [-shift, 0].

    eval(theta), for theta in [-tau, 0] only, is the overlay for
    theta >= -shift and base.eval(shift+theta) below; the overlay is stored
    in the local variable r = (theta + shift)/shift in [0, 1].  The overlay
    (dim, 4) and head (dim,) are read by :func:`_as_shaped`, the shift as a
    real scalar.
    """

    __slots__ = ("base", "kind", "dim", "tau", "h", "shift", "overlay_coeffs", "head")

    def __init__(self, base, shift: float, overlay_coeffs: np.ndarray, head=None):
        if not isinstance(base, HistoryState):
            raise TypeError(f"a stage view needs a HistoryState base, not {type(base).__name__}")
        if not 0.0 < (shift := float(_as_shaped(shift, (), "shift holds"))) <= base.tau:
            raise ValueError(f"stage shift must be in (0, tau = {base.tau}], got {shift}")
        shape = (base.dim, _NCOEF)
        overlay_coeffs = np.array(_as_shaped(overlay_coeffs, shape, "overlay_coeffs holds"))
        self._set(base, shift, overlay_coeffs, _as_head(base.kind, base.dim, head))

    @classmethod
    def _of(cls, base, shift: float, overlay_coeffs: np.ndarray, head) -> "StageView":
        """A view that keeps the fresh arrays it is given, a float (dim, 4) overlay
        and a (dim,) head (None for RE kinds), and makes them read-only instead of
        copying and checking them.  Nor does it compare the shift: a step's c_i h is
        in (0, h], inside (0, tau], as a Tableau holds c_i in [0, 1] and a plan refuses
        an h at which c_i h underflows to 0."""
        return object.__new__(cls)._set(base, shift, overlay_coeffs, head)

    def _set(self, base, shift: float, overlay_coeffs: np.ndarray, head) -> "StageView":
        overlay_coeffs.setflags(write=False)
        if head is not None:
            head.setflags(write=False)
        self.base, self.shift, self.overlay_coeffs, self.head = base, shift, overlay_coeffs, head
        self.kind, self.dim, self.tau, self.h = base.kind, base.dim, base.tau, base.h
        return self

    def breakpoints(self) -> np.ndarray:
        # base knots right of -tau, shifted: in order and ending at -shift
        shifted = self.base.breakpoints()[1:] - self.shift
        keep = shifted > -self.tau + _knot_tol(self.tau)
        return np.concatenate([[-self.tau], shifted[keep], [0.0]])

    def _pieces(self, a: float, b: float):
        """HistoryState._pieces on the view's knots: the base's segments
        shifted by ``shift``, and the overlay piece on [-shift, 0] when the
        window reaches it."""
        base = self.base
        plan = _window_plan(base.n_segments, self.h, self.shift, a, b)
        return plan, base._coeffs, self.overlay_coeffs

    def __reduce__(self):  # pickle and copy rebuild through __init__: read-only arrays
        return StageView, (self.base, self.shift, self.overlay_coeffs, self.head)

    eval_many = _eval_many
    eval = _eval_one

    def _eval(self, thetas: np.ndarray) -> np.ndarray:
        """eval_many for offsets the caller has range-checked."""
        over = thetas >= -self.shift - _knot_tol(self.shift)
        out = np.empty((len(thetas), self.dim))
        if np.any(over):
            r = np.clip((thetas[over] + self.shift) / self.shift, 0.0, 1.0)
            out[over] = _horner(self.overlay_coeffs, r)
        if not np.all(over):
            out[~over] = self.base._eval(thetas[~over] + self.shift)
        return out

    def _eval_point(self, theta: float) -> np.ndarray:
        """_eval for one range-checked offset: the overlay or base's point path."""
        if theta >= -self.shift - _knot_tol(self.shift):
            r = min(max((theta + self.shift) / self.shift, 0.0), 1.0)
            return _horner_point(self.overlay_coeffs, r)
        return self.base._eval_point(theta + self.shift)

    def __repr__(self):
        return f"StageView(shift={self.shift}, base={self.base!r})"


def norm_diff(state, reference, norm: str = "sup") -> float:
    """Distance between a history state (or view) and a reference callable.

    ``sup`` takes the max over 16 Chebyshev points per segment of the
    componentwise max difference; ``l1`` applies the 4-node Gauss-Legendre
    rule per segment to the 1-norm of the difference.  ``reference`` must be
    vectorised: m offsets give (m, dim) values, read by :func:`_as_shaped`.
    """
    if norm not in ("sup", "l1"):
        raise ValueError(f"norm must be 'sup' or 'l1', got {norm!r}")
    n = _steps(state.tau, state.h, "tau")
    s_nodes = _SUP_S if norm == "sup" else _L1_S
    thetas = _grid(n, state.h, s_nodes).ravel()
    got = state.eval_many(thetas)
    want = _as_shaped(reference(thetas), (len(thetas), state.dim), "reference returned", 1)
    diff = np.abs(got - want)
    if norm == "sup":
        return float(diff.max())
    per_node = diff.sum(axis=1).reshape(n, len(s_nodes))
    return float((per_node @ _L1_W).sum() * state.h)
