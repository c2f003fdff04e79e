"""Evaluation of the phi functions underlying exponential Runge-Kutta methods.

phi_0 = exp and, for k >= 1,

    phi_k(z) = int_0^1 e^{z(1-s)} s^{k-1}/(k-1)! ds,

so phi_k(0) = 1/k! and phi_k(z) = z*phi_{k+1}(z) + 1/k!.  Besides the scalar
functions this module provides weighted combinations (used as tableau
coefficients), the scalar weights realising the phi operators on shift
semigroups (delay and renewal flavours), and the matrix action
sum_j phi_j(M) v_j from one augmented exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "PhiCombo",
    "phi_scalar",
    "phi_dde_weight",
    "phi_re_weight",
    "phi_matrix_action",
]

_SERIES_CUTOFF = 0.1
_RECURSION_LOSS_LIMIT = 1e-13
_EPS = float(np.finfo(float).eps)


def _phi_series(k: int, z: float) -> float:
    # Taylor series sum_m z^m / (m+k)!, truncated at 1e-16 relative tail.
    term = 1.0 / math.factorial(k)
    total = term
    for m in range(1, 400):
        term *= z / (k + m)
        total += term
        if abs(term) <= 1e-16 * abs(total):
            break
    return total


def _recursion_loss(k: int, x: float) -> float:
    # Relative error estimate for k downward-recursion steps started at e^z:
    # step j loses roughly a factor max(1, j/|z|) to cancellation.
    loss = _EPS
    for j in range(1, k + 1):
        loss *= max(1.0, j / x)
    return loss


def phi_scalar(k: int, z: float) -> float:
    """Evaluate phi_k(z) for real z; phi_0 = exp.

    Near zero (|z| < 0.1) the Taylor series is used.  Elsewhere the downward
    recursion phi_{j+1}(z) = (phi_j(z) - 1/j!)/z from phi_0 = e^z applies,
    except where its cancellation would exceed ~1e-13 relative error, in
    which case the series (safe for such moderate |z|) is used instead.
    """
    if k < 0:
        raise ValueError(f"phi order must be >= 0, got {k}")
    z = float(z)
    if k == 0:
        return math.exp(z)
    x = abs(z)
    if x < _SERIES_CUTOFF or _recursion_loss(k, x) > _RECURSION_LOSS_LIMIT:
        return _phi_series(k, z)
    v = math.exp(z)
    fact = 1.0  # j!
    for j in range(k):
        v = (v - 1.0 / fact) / z
        fact *= j + 1
    return v


@dataclass(frozen=True)
class PhiCombo:
    """Weighted sum of phi functions: (k, w) pairs give sum w * phi_k(z).

    Tableau coefficients are always of this shape with k >= 1; the empty
    combination is the zero coefficient.  The node scale of the argument
    belongs to the tableau row, not to the combination.
    """

    terms: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        for k, _ in self.terms:
            if k < 1:
                raise ValueError("phi combination terms need order k >= 1")

    def at(self, z: float) -> float:
        return sum(w * phi_scalar(k, z) for k, w in self.terms)

    def at_zero(self) -> float:
        return sum(w / math.factorial(k) for k, w in self.terms)


def phi_dde_weight(k: int, gh: float, theta: float) -> float:
    """Tail weight of phi_k(gh*A0) acting on a head-concentrated forcing (f; 0).

    The action is (f/k!; theta -> phi_dde_weight(k, gh, theta) * f): the head
    weight is 1/k! and the tail weight max(0, gh+theta)^k / (gh^k k!).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if gh <= 0.0:
        raise ValueError("scaled step gh must be positive")
    m = max(0.0, gh + theta)
    return m**k / (gh**k * math.factorial(k))


def phi_re_weight(k: int, gh: float, theta: float) -> float:
    """Weight of phi_k(gh*A0) acting on f*H in the renewal-equation state space.

    Equals (gh^k - max(0, gh+theta)^k) / (gh^k k!); complements
    phi_dde_weight so that the two scaled weights sum to gh^k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if gh <= 0.0:
        raise ValueError("scaled step gh must be positive")
    m = max(0.0, gh + theta)
    return (gh**k - m**k) / (gh**k * math.factorial(k))


def phi_matrix_action(M: np.ndarray, vs) -> np.ndarray:
    """Compute sum_{j=0..p} phi_j(M) @ vs[j] through one augmented exponential.

    With W = [vs[p], ..., vs[1]] and J the p x p shift (ones on the
    superdiagonal), the top rows of exp([[M, W], [0, J]]) @ [vs[0]; e_p]
    are the sum (Al-Mohy & Higham, SISC 2011, Thm 2.1).  The exponential is
    the scaling-and-squaring Pade evaluation of :func:`scipy.linalg.expm`.
    Supports p <= 4 (the largest order any shipped method needs).
    """
    M = np.asarray(M, dtype=float)
    vs = np.asarray(vs, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"M must be square, got shape {M.shape}")
    d = M.shape[0]
    if vs.ndim != 2 or not 1 <= vs.shape[0] <= 5 or vs.shape[1] != d:
        raise ValueError(f"vs must have shape (p + 1, {d}) with p <= 4, got {vs.shape}")
    p = vs.shape[0] - 1
    if not M.any():
        return sum(vs[j] / math.factorial(j) for j in range(p + 1))
    aug = np.zeros((d + p, d + p))
    aug[:d, :d] = M
    aug[:d, d:] = vs[:0:-1].T
    for i in range(p - 1):
        aug[d + i, d + i + 1] = 1.0
    E = scipy.linalg.expm(aug)
    return E[:d, :d] @ vs[0] + E[:d, -1] if p else E @ vs[0]
