"""Independent oracles for the tests: the scalar weights of the phi operators
on shift semigroups, in closed form.

phi_k(gh*A0), A0 the generator of the shift semigroup on [-tau, 0], acts on
a forcing concentrated at theta = 0 by one weight per offset theta.  The
stepper builds the same action from its overlay rules; these formulas check
it without sharing its code.

:func:`semilinear_overlay` is the semilinear overlay computed the long way:
sample the continuous output at the Chebyshev-Lobatto nodes, then
interpolate.  It checks the stepper's folded per-row matrices against the
same phi matrices applied one sample at a time.

:func:`project_per_segment` projects a history callable the long way: four
samples per segment, knots sampled from both sides, and one small product
per segment.

:func:`norm_diff_one_batch`, :func:`j_integrate_recomputed` and
:func:`integrated_errors_one_batch` are the history norms, the integrated
state and the RE harness reference as they were written before they went in
blocks and read stored sums: every node in one batch, every segment integral
recomputed per call.  The blocked code must give the same bits.
"""

import math
from types import SimpleNamespace

import numpy as np

from expdelay.harness import _L1_S, _L1_W, _SUP_S
from expdelay.phi import phi_combine, phi_matrices
from expdelay.quadrature import gauss_legendre

#: Chebyshev-Lobatto nodes on [0, 1] and the inverse of their Vandermonde matrix
_LOBATTO_S = np.array([0.0, 0.25, 0.75, 1.0])
_LOBATTO_VINV = np.linalg.inv(np.vander(_LOBATTO_S, 4, increasing=True))
#: first-kind Chebyshev nodes on [0, 1] and the inverse of their Vandermonde matrix
_CHEB_S = 0.5 * (1.0 - np.cos((2.0 * np.arange(4) + 1.0) * np.pi / 8.0))
_CHEB_VINV = np.linalg.inv(np.vander(_CHEB_S, 4, increasing=True))


def _tail_power(k: int, gh: float, theta: float) -> float:
    """max(0, gh + theta)^k, after checking k >= 1 and gh > 0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not gh > 0.0:
        raise ValueError("scaled step gh must be positive")
    return max(0.0, gh + theta) ** k


def phi_dde_weight(k: int, gh: float, theta: float) -> float:
    """Tail weight of phi_k(gh*A0) acting on a head-concentrated forcing (f; 0).

    The action is (f/k!; theta -> phi_dde_weight(k, gh, theta) * f): the head
    weight is 1/k! and the tail weight max(0, gh+theta)^k / (gh^k k!).
    """
    return _tail_power(k, gh, theta) / (gh**k * math.factorial(k))


def phi_re_weight(k: int, gh: float, theta: float) -> float:
    """Weight of phi_k(gh*A0) acting on f*H in the renewal-equation state space.

    Equals (gh^k - max(0, gh+theta)^k) / (gh^k k!); complements
    phi_dde_weight so that the two scaled weights sum to gh^k.
    """
    return (gh**k - _tail_power(k, gh, theta)) / (gh**k * math.factorial(k))


def semilinear_overlay(L, tab, h: float, head, f, i: int):
    """The (d, 4) cubic and exact head of semilinear row i (the update row
    at i = nu) for stage values f (nu, d), by sample-then-interpolate.

    The continuous output e^{r c h L} y + sum_k r^k phi_k(r c h L) h u_k,
    u = W_i^T f and y = head, is sampled at r = 1/4, 3/4 and 1 from the phi
    matrices at (c/4) h L, doubled and added, with y itself at r = 0; the
    cubic interpolates the four samples and the head is the r = 1 sample.
    """
    c = tab.c[i] if i < tab.nu else 1.0
    W = tab.weights[i]
    p = W.shape[1] - 1
    quarter = phi_matrices((0.25 * (c * h)) * np.asarray(L), p)
    half = phi_combine(quarter, quarter, 1.0, 1.0)
    phis = (quarter, phi_combine(quarter, half, 1.0, 2.0), phi_combine(half, half, 1.0, 1.0))
    us = h * (W.T @ f)
    us[0] = head
    samples = np.empty((len(_LOBATTO_S), len(head)))
    samples[0] = head
    for j, (r, phi) in enumerate(zip(_LOBATTO_S[1:], phis), start=1):
        samples[j] = sum(r**k * (phi[k] @ us[k]) for k in range(p + 1))
    return samples.T @ _LOBATTO_VINV.T, samples[-1]


def project_per_segment(phi, kind: str, dim: int, tau: float, h: float):
    """The (n, dim, 4) coefficients and the DDE head (None for an RE) of the
    cubics that interpolate phi at 4 nodes per segment: Chebyshev-Lobatto
    for a DDE, first-kind Chebyshev for an RE.  Each segment samples its own
    nodes, segment-major, and is projected by its own (dim, 4) @ (4, 4) product;
    the head is the last segment's sample at s = 1."""
    n = round(tau / h)
    s, vinv = (_LOBATTO_S, _LOBATTO_VINV) if kind == "dde" else (_CHEB_S, _CHEB_VINV)
    thetas = (((np.arange(n) - n) * h)[:, None] + h * s[None, :]).ravel()
    vals = np.asarray(phi(thetas), dtype=float).reshape(n, len(s), dim)
    coeffs = np.swapaxes(vals, 1, 2) @ vinv.T
    return coeffs, (vals[-1, -1] if kind == "dde" else None)


def _grid(n: int, h: float, s: np.ndarray) -> np.ndarray:
    """Offsets of the local nodes s on each of the n segments, shape (n, len(s))."""
    return ((np.arange(n) - n) * h)[:, None] + h * s[None, :]


def norm_diff_one_batch(state, reference, norm: str) -> float:
    """``norm_diff`` with all of its nodes in one batch."""
    n = round(state.tau / state.h)
    s_nodes = _SUP_S if norm == "sup" else _L1_S
    thetas = _grid(n, state.h, s_nodes).ravel()
    got = state.eval_many(thetas)
    want = np.asarray(reference(thetas), dtype=float).reshape(len(thetas), state.dim)
    diff = np.abs(got - want)
    if norm == "sup":
        return float(diff.max())
    per_node = diff.sum(axis=1).reshape(n, len(s_nodes))
    return float((per_node @ _L1_W).sum() * state.h)


def j_integrate_recomputed(state, thetas: np.ndarray) -> np.ndarray:
    """``j_integrate`` at an array of offsets, summing every segment's
    integral afresh from the state's coefficients."""
    coeffs, h = state.coefficients(), state.h
    idx, s = state._locate(thetas)
    inv = 1.0 / (1.0 + np.arange(4))
    seg_int = h * (coeffs * inv).sum(axis=-1)
    suffix = np.zeros((state.n_segments + 1, state.dim))
    suffix[:-1] = seg_int[::-1].cumsum(axis=0)[::-1]
    powers = s[:, None] ** (1.0 + np.arange(4))
    partial = h * ((1.0 - powers)[:, None, :] * inv * coeffs[idx]).sum(axis=-1)
    return partial + suffix[idx + 1]


def integrated_errors_one_batch(state, exact, T: float, norm: str) -> float:
    """``harness._integrated_errors`` with the reference's 8 Gauss nodes per
    segment in one batch, measured by :func:`norm_diff_one_batch` on
    :func:`j_integrate_recomputed`."""
    n, h, dim = state.n_segments, state.h, state.dim

    def shifted(thetas):
        return np.ascontiguousarray(np.reshape(exact(T + thetas), (len(thetas), dim)))

    lefts = (np.arange(n) - n) * h
    g8_x, g8_w = gauss_legendre(8)
    vals = shifted(_grid(n, h, g8_x).ravel()).reshape(n, len(g8_x), dim)
    seg_int = h * np.einsum("q,nqd->nd", g8_w, vals)
    suffix = np.zeros((n + 1, dim))
    suffix[:-1] = seg_int[::-1].cumsum(axis=0)[::-1]

    def reference(thetas):
        idx = state._locate(thetas)[0]
        widths = lefts[idx] + h - thetas
        part_nodes = (thetas[:, None] + widths[:, None] * g8_x[None, :]).ravel()
        part_vals = shifted(part_nodes).reshape(len(thetas), len(g8_x), dim)
        return widths[:, None] * np.einsum("q,mqd->md", g8_w, part_vals) + suffix[idx + 1]

    integrated = SimpleNamespace(
        tau=state.tau, h=h, dim=dim, eval_many=lambda th: j_integrate_recomputed(state, th)
    )
    return norm_diff_one_batch(integrated, reference, norm)
