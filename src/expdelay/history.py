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
knot bit for bit and lookups, quadrature's window cuts and ``j_integrate``
share one frame.

The package's mesh rule lives here: tau, T or a delay bound is on the
mesh when value/h is within the knot tolerance 1e-9 * max(1, |value/h|) of
an integer (:func:`_steps`, else :class:`MeshError`), and an offset is in
[-tau, 0] when within 1e-9 * max(1, tau) of it (:func:`_outside`).  That band
is centred on -n * h; the tau passed in lies inside it, as |tau - n h| <= 1e-9 tau.

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
interval [-h, 0] into that slot in O(1).  Written slots are never rewritten,
so the log also keeps window quadrature's per-slot segment sums.
A Runge-Kutta stage value is a :class:`StageView`, which overlays a single
polynomial on [-shift, 0] over a shifted base state instead of a new history.
"""

from __future__ import annotations

import math
import operator
import threading
import weakref
from itertools import chain

import numpy as np

__all__ = [
    "DEGREE",
    "HistoryState",
    "MeshError",
    "StageView",
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


#: 1/(p + 1) per power p: the integral of s^p over [0, 1]
_INV = 1.0 / (1.0 + np.arange(_NCOEF))


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


class _Log:
    """Append-only buffer of 2n segments; its maker writes the first n, and slot ``end`` is next."""

    __slots__ = ("buf", "end", "lock", "sums")

    def __init__(self, n: int, dim: int):
        self.buf = np.empty((2 * n, dim, _NCOEF))
        self.end = n
        self.lock = threading.Lock()
        self.sums = weakref.WeakKeyDictionary()

    def slot_sums(self, key, need: int, end: int, rule) -> np.ndarray:
        """The segment sums ``sums`` holds for window integrand ``key`` (weakly), slot
        last, filled through at least slot ``need - 1``.  Only a read that needs a slot
        past the filled ones fills, and it fills every slot up to the written ``end``,
        ``need <= end``, by one call ``rule(buf[filled:end])``: a window that ends k
        slots behind ``end`` fills about once in k appends, and a fresh log on its first read."""
        with self.lock:
            store, filled = self.sums.get(key, (None, 0))
            if filled < need:
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

    __slots__ = ("kind", "dim", "tau", "h", "n_segments", "head", "_log", "_end", "_coeffs",
                 "_suffix")

    def __init__(self, kind, dim, tau, h, coeffs, head=None):
        n, dim = _n_segments(kind, dim, tau, h), int(dim)
        log = _Log(n, dim)
        log.buf[:n] = _as_shaped(coeffs, (n, dim, _NCOEF), "coeffs holds", 1)
        self._set(kind, dim, n, float(h), _as_head(kind, dim, head), log, n)._check_window()

    def _set(self, kind, dim: int, n: int, h: float, head, log: _Log, end: int) -> "HistoryState":
        """Fill every slot: tau = n h, the window ``log.buf[end - n:end]``, and
        no ``j_integrate`` suffix yet."""
        self.kind, self.dim, self.tau, self.h, self.n_segments = kind, dim, n * h, h, n
        self.head, self._log, self._end, self._suffix = head, log, end, None
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

    def _stored_sums(self, key, rule, first: int, stop: int) -> np.ndarray:
        """Window integrand ``key``'s sums (:meth:`_Log.slot_sums`) on segments [first, stop),
        which fill, when they must, up to this state's newest segment."""
        lo = self._end - self.n_segments
        return self._log.slot_sums(key, lo + stop, self._end, rule)[..., lo + first : lo + stop]

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

    def shift_append(self, coeffs, head=None, *, _trusted=False) -> "HistoryState":
        """Advance by one mesh width: drop the oldest segment and append
        ``coeffs``, the (dim, 4) cubic on [-h, 0] in the local variable
        s = (theta + h)/h, as the newest one, in O(1) (see the module notes).
        It and a head are read at their shapes by :func:`_as_shaped`.

        DDE states also replace the head, which must be finite and match the new
        segment's value at theta = 0; RE states take no head, and that value, the
        row sums in plain floats, must be finite.

        The stepper passes the private ``_trusted=True`` for the segments its plan
        built: a float (dim, 4) array and a fresh (dim,) head (None for RE kinds)
        that match by construction.  Such an append keeps only the theta = 0 rule,
        the step's update check: every row sum finite, and a DDE head finite too
        (a row sum is finite only if every coefficient is).  It makes the head
        read-only in place and skips the shape reading, the head's copy and the
        continuity check.
        """
        if not _trusted:
            coeffs = _as_shaped(coeffs, (self.dim, _NCOEF), "coeffs holds")
            head = _as_head(self.kind, self.dim, head)
        elif head is not None:
            head.setflags(write=False)
        if self.kind == "dde" and not _trusted:
            _check_continuity(coeffs, head)
        elif not all(math.isfinite(c3 + c2 + c1 + c0) for c0, c1, c2, c3 in coeffs.tolist()) or (
            head is not None and not all(map(math.isfinite, head.tolist()))
        ):
            at = "" if head is None else f" or its head {head}"
            raise ValueError(f"appended {self.kind.upper()} segment {coeffs.tolist()}{at} "
                             "is not finite at theta = 0")
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
        offsets; returns (dim,) or (m, dim) accordingly.  The window's sums over
        whole segments, up to 0 from each knot, are built on the first call and kept.
        """
        if self.kind != "re":
            raise ValueError("j_integrate is defined for RE states only")
        scalar = np.isscalar(theta) or np.ndim(theta) == 0
        thetas = np.atleast_1d(_as_float(theta, "theta holds"))
        _check_inside(thetas, self.tau)
        idx, s = self._locate(thetas)
        if self._suffix is None:  # the window's segment integrals, summed up to 0 from each knot
            suffix = np.zeros((self.n_segments + 1, self.dim))
            suffix[:-1] = (self.h * (self._coeffs * _INV).sum(-1))[::-1].cumsum(axis=0)[::-1]
            suffix.setflags(write=False)
            self._suffix = suffix
        powers = s[:, None] ** (1.0 + np.arange(_NCOEF))  # (m, NCOEF)
        partial = self.h * ((1.0 - powers)[:, None, :] * _INV * self._coeffs[idx]).sum(
            axis=-1
        )
        out = partial + self._suffix[idx + 1]
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

