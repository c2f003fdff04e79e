"""Piecewise-polynomial history states for delay and renewal equations.

The state of a delay equation at time t is the function theta -> x(t+theta)
on [-tau, 0].  It is stored here as a ring of cubic segments over a uniform
mesh of width h (tau/h segments), plus a head value x(t) for the delay
(DDE) flavour.  Renewal (RE) states are L^1 functions: no head, no
continuity across mesh knots, left limits at knots.

The packed (tau/h, dim, 4) coefficient array is the only representation of
a history: segment i covers [(i - n) h, (i - n + 1) h], oldest first, in the
local variable s = (theta - left)/h, lowest power first.  The knots and the
per-segment node grids are derived from (tau, h) here, once each.

The mesh rule of the package lives here: tau, T or a delay bound is on the
mesh when value/h is within the knot tolerance 1e-9 * max(1, |value/h|) of
an integer (:func:`_steps`, else :class:`MeshError`), and an offset is in
[-tau, 0] when within 1e-9 * max(1, tau) of it (:func:`_outside`).

Stepping never mutates a state: the shift-semigroup advance drops the oldest
segment, re-indexes the rest, and appends the (dim, 4) cubic of the newest
interval [-h, 0].  Stage values of a Runge-Kutta step are represented by
:class:`StageView`, which overlays a single polynomial on [-shift, 0] over a
shifted base state instead of materialising a full new history.
"""

from __future__ import annotations

import math

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
# endpoints, so interpolation there keeps DDE states continuous across knots
# and the head equal to the final sample.
_LOBATTO_S = np.array([0.0, 0.25, 0.75, 1.0])
# First-kind Chebyshev points on [0, 1]; interior only, used for RE states
# where knot values are only defined as one-sided limits.
_CHEB_S = 0.5 * (1.0 - np.cos((2.0 * np.arange(4) + 1.0) * np.pi / 8.0))

_LOBATTO_VINV = np.linalg.inv(np.vander(_LOBATTO_S, _NCOEF, increasing=True))
_CHEB_VINV = np.linalg.inv(np.vander(_CHEB_S, _NCOEF, increasing=True))

# 16 first-kind Chebyshev points per segment: sampling grid for sup norms.
_SUP_S = 0.5 * (1.0 - np.cos((2.0 * np.arange(16) + 1.0) * np.pi / 32.0))

# 4-node Gauss-Legendre rule on [0, 1], used for L1 norms.
_GL4_X, _GL4_W = np.polynomial.legendre.leggauss(4)
_L1_S = 0.5 * (_GL4_X + 1.0)
_L1_W = 0.5 * _GL4_W


def _horner(coeffs: np.ndarray, s: np.ndarray) -> np.ndarray:
    # coeffs (..., d, NCOEF), s (...,) -> values (..., d)
    val = coeffs[..., -1]
    for p in range(_NCOEF - 2, -1, -1):
        val = val * s[..., None] + coeffs[..., p]
    return val


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


def _mesh_size(tau: float, h: float) -> int:
    """Number of segments n = tau/h; raises MeshError unless n >= 1."""
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
    """Raise the named ValueError for the first offset outside [-tau, 0]."""
    bad = _outside(thetas, tau)
    if bad.any():
        raise ValueError(
            f"history evaluated at theta = {thetas[bad][0]}, outside [-{tau}, 0]"
        )


def _grid(n: int, h: float, s: np.ndarray) -> np.ndarray:
    # offsets of the local nodes s on each of the n segments, shape (n, len(s))
    return ((np.arange(n) - n) * h)[:, None] + h * s[None, :]


def _as_head(kind: str, dim: int, head):
    """Read-only head of shape (dim,) for DDE kinds; RE kinds take none."""
    if kind == "re":
        if head is not None:
            raise ValueError("RE states carry no head value")
        return None
    if head is None:
        raise ValueError("DDE states require a head value")
    head = np.array(head, dtype=float, ndmin=1)
    if head.shape != (dim,):
        raise ValueError(f"head must have shape ({dim},), got {head.shape}")
    head.setflags(write=False)
    return head


def _as_values(raw, m: int, d: int, what: str) -> np.ndarray:
    vals = np.asarray(raw, dtype=float)
    if vals.shape == (m,) and d == 1:
        vals = vals[:, None]
    if vals.shape != (m, d):
        raise ValueError(
            f"{what} returned shape {vals.shape}; expected ({m},) for scalar "
            f"systems or ({m}, {d})"
        )
    return vals


class HistoryState:
    """History function on [-tau, 0] as tau/h cubic segments, plus a DDE head.

    Value semantics: instances are immutable and safe to share across
    threads; every operation returns a new state.
    """

    __slots__ = ("kind", "dim", "tau", "h", "n_segments", "head", "_coeffs")

    def __init__(self, kind, dim, tau, h, coeffs, head=None, _copy=True):
        if kind not in ("dde", "re"):
            raise ValueError(f"kind must be 'dde' or 're', got {kind!r}")
        tau = float(tau)
        h = float(h)
        n = _mesh_size(tau, h)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (n, dim, _NCOEF):
            raise ValueError(
                f"coeffs must have shape ({n}, {dim}, {_NCOEF}), got {coeffs.shape}"
            )
        if _copy:
            coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        self.kind = kind
        self.dim = int(dim)
        self.tau = tau
        self.h = h
        self.n_segments = n
        self._coeffs = coeffs
        self.head = _as_head(kind, self.dim, head)
        if kind == "dde":
            self._check_continuity()

    def _check_continuity(self):
        newest_at_0 = _horner(self._coeffs[-1], np.float64(1.0))  # s = 1
        gap = np.max(np.abs(newest_at_0 - self.head))
        # the value at s = 1 is a sum of coefficients and rounds at their
        # scale, which exceeds the head's when the segment decays steeply
        scale = max(np.max(np.abs(self.head)), np.max(np.abs(self._coeffs[-1])))
        tol = 1e-12 * (1.0 + float(scale))
        if gap > tol:
            raise ValueError(
                f"DDE head/value mismatch at theta=0: |gap| = {gap:.3e} > {tol:.3e}"
            )

    @classmethod
    def from_callable(cls, phi, kind, dim, tau, h) -> "HistoryState":
        """Project a history callable onto the piecewise-cubic mesh.

        Each segment stores the degree-3 interpolant of ``phi`` at 4 Chebyshev
        points: Lobatto points (endpoints included) for DDE states so that
        continuity and the head value are preserved exactly, first-kind
        points for RE states.  ``phi`` must accept an ndarray of offsets and
        return values of shape (m,) for dim == 1 or (m, dim).
        """
        n = _mesh_size(float(tau), float(h))
        s_nodes = _LOBATTO_S if kind == "dde" else _CHEB_S
        thetas = _grid(n, h, s_nodes)
        vals = _as_values(phi(thetas.ravel()), n * len(s_nodes), dim, "phi")
        vals = vals.reshape(n, len(s_nodes), dim)
        vinv = _LOBATTO_VINV if kind == "dde" else _CHEB_VINV
        coeffs = np.swapaxes(vals, 1, 2) @ vinv.T
        head = vals[-1, -1, :] if kind == "dde" else None
        return cls(kind, dim, tau, h, coeffs, head=head, _copy=False)

    def coefficients(self) -> np.ndarray:
        """Packed (n_segments, dim, 4) coefficient array (read-only)."""
        return self._coeffs

    def breakpoints(self) -> np.ndarray:
        """Mesh knots in [-tau, 0], oldest first."""
        n = self.n_segments
        return (np.arange(n + 1) - n) * self.h

    def _locate(self, thetas: np.ndarray):
        _check_inside(thetas, self.tau)
        u = (thetas + self.tau) / self.h
        r = np.rint(u)
        on_knot = np.abs(u - r) <= _KNOT_RTOL * np.maximum(1.0, np.abs(u))
        # At a knot the segment to the left owns the value (left limit); in
        # the interior plain truncation finds the enclosing segment.
        idx = np.where(on_knot, r - 1.0, np.floor(u))
        idx = np.clip(idx, 0, self.n_segments - 1).astype(np.intp)
        s = np.clip(np.where(on_knot, r, u) - idx, 0.0, 1.0)
        return idx, s

    def eval_many(self, thetas) -> np.ndarray:
        """Evaluate at an array of offsets; returns shape (len(thetas), dim)."""
        thetas = np.asarray(thetas, dtype=float)
        idx, s = self._locate(thetas)
        return _horner(self._coeffs[idx], s)

    def eval(self, theta: float) -> np.ndarray:
        """Evaluate at one offset theta in [-tau, 0]; returns shape (dim,)."""
        return self.eval_many(np.array([float(theta)]))[0]

    def shift_append(self, coeffs, head=None) -> "HistoryState":
        """Advance by one mesh width: drop the oldest segment, shift the rest
        one slot older, and install ``coeffs``, the (dim, 4) cubic on [-h, 0]
        in the local variable s = (theta + h)/h, as the newest segment.

        DDE states additionally replace the head, which must match the new
        segment's value at theta = 0; RE states take no head.
        """
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.dim, _NCOEF):
            raise ValueError(
                f"appended segment must have shape ({self.dim}, {_NCOEF}), "
                f"got {coeffs.shape}"
            )
        coeffs = np.concatenate([self._coeffs[1:], coeffs[None, :, :]])
        return HistoryState(
            self.kind, self.dim, self.tau, self.h, coeffs, head=head, _copy=False
        )

    def j_integrate(self, theta):
        """Integral of an RE history from theta up to 0, exact per segment.

        This is the embedding carrying the eta state to the integrated state
        u(theta) = int_theta^0 eta(s) ds.  Accepts a scalar or an array of
        offsets; returns (dim,) or (m, dim) accordingly.
        """
        if self.kind != "re":
            raise ValueError("j_integrate is defined for RE states only")
        scalar = np.isscalar(theta) or np.ndim(theta) == 0
        thetas = np.atleast_1d(np.asarray(theta, dtype=float))
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
    in the local variable r = (theta + shift)/shift in [0, 1].
    """

    __slots__ = ("base", "kind", "dim", "tau", "h", "shift", "overlay_coeffs", "head")

    def __init__(self, base, shift: float, overlay_coeffs: np.ndarray, head=None):
        if shift <= 0.0:
            raise ValueError("stage shift must be positive")
        overlay_coeffs = np.array(overlay_coeffs, dtype=float, ndmin=2)
        if overlay_coeffs.shape != (base.dim, _NCOEF):
            raise ValueError(
                f"overlay must have shape ({base.dim}, {_NCOEF}), "
                f"got {overlay_coeffs.shape}"
            )
        overlay_coeffs.setflags(write=False)
        self.base = base
        self.kind, self.dim, self.tau, self.h = base.kind, base.dim, base.tau, base.h
        self.shift = float(shift)
        self.overlay_coeffs = overlay_coeffs
        self.head = _as_head(base.kind, base.dim, head)

    def breakpoints(self) -> np.ndarray:
        # base knots right of -tau, shifted: in order and ending at -shift
        shifted = self.base.breakpoints()[1:] - self.shift
        keep = shifted > -self.tau + _knot_tol(self.tau)
        return np.concatenate([[-self.tau], shifted[keep], [0.0]])

    def eval_many(self, thetas) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=float)
        _check_inside(thetas, self.tau)
        over = thetas >= -self.shift - _knot_tol(self.shift)
        out = np.empty((len(thetas), self.dim))
        if np.any(over):
            r = np.clip((thetas[over] + self.shift) / self.shift, 0.0, 1.0)
            out[over] = _horner(self.overlay_coeffs, r)
        if not np.all(over):
            out[~over] = self.base.eval_many(thetas[~over] + self.shift)
        return out

    def eval(self, theta: float) -> np.ndarray:
        return self.eval_many(np.array([float(theta)]))[0]

    def __repr__(self):
        return f"StageView(shift={self.shift}, base={self.base!r})"


def norm_diff(state, reference, norm: str = "sup") -> float:
    """Distance between a history state (or view) and a reference callable.

    ``sup`` takes the max over 16 Chebyshev points per segment of the
    componentwise max difference; ``l1`` applies the 4-node Gauss-Legendre
    rule per segment to the 1-norm of the difference.  ``reference`` must be
    vectorised over an ndarray of offsets.
    """
    if norm not in ("sup", "l1"):
        raise ValueError(f"norm must be 'sup' or 'l1', got {norm!r}")
    n = _mesh_size(state.tau, state.h)
    s_nodes = _SUP_S if norm == "sup" else _L1_S
    thetas = _grid(n, state.h, s_nodes).ravel()
    got = state.eval_many(thetas)
    want = _as_values(reference(thetas), len(thetas), state.dim, "reference")
    diff = np.abs(got - want)
    if norm == "sup":
        return float(diff.max())
    per_node = diff.sum(axis=1).reshape(n, len(s_nodes))
    return float((per_node @ _L1_W).sum() * state.h)
