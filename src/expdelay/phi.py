"""Evaluation of the phi functions underlying exponential Runge-Kutta methods.

phi_0 = exp and, for k >= 1,

    phi_k(z) = int_0^1 e^{z(1-s)} s^{k-1}/(k-1)! ds,

so phi_k(0) = 1/k! and phi_k(z) = z*phi_{k+1}(z) + 1/k!.  Besides the scalar
functions this module provides the matrices phi_0(M), ..., phi_p(M) by
scaling and modified squaring from one d x d exponential, with the rule that
combines phi_k(aX) and phi_k(bX) into phi_k((a + b)X).  The phi operators on
the history space itself are the stepper's overlay rules.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .history import _as_float, _as_shaped, _index

__all__ = [
    "phi_scalar",
    "phi_matrices",
    "phi_combine",
    "phi_matrix_action",
]

_SERIES_CUTOFF = 0.1
#: scaling target of phi_matrices: ||M / 2^j||_1 <= _THETA
_THETA = 2.0
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
    """Evaluate phi_k(z) for an integer k >= 0 and a real scalar z; phi_0 = exp.

    Near zero (|z| < 0.1) the Taylor series is used.  Elsewhere the downward
    recursion phi_{j+1}(z) = (phi_j(z) - 1/j!)/z from phi_0 = e^z applies,
    except where its cancellation would exceed ~1e-13 relative error, in
    which case the series (safe for such moderate |z|) is used instead.
    """
    if (k := _index(k, "phi order k")) < 0:
        raise ValueError(f"phi order k must be >= 0, got {k}")
    z = float(_as_shaped(z, (), "z holds"))
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


def phi_matrices(M: np.ndarray, p: int) -> np.ndarray:
    """phi_0(M), ..., phi_p(M) as a (p + 1, d, d) array, for a real square M and p >= 0.

    Scaling and modified squaring (Skaflestad & Wright, Appl. Numer. Math.
    59, 2009): with M' = M / 2^j and ||M'||_1 <= 2, e^{M'} comes from
    :func:`scipy.linalg.expm`, phi_p(M') from its Taylor series by Horner
    and the lower orders from phi_k = M' phi_{k+1} + I/k!; j doublings by
    :func:`phi_combine` then return to M.  One d x d exponential per call.
    """
    if (p := _index(p, "phi order p")) < 0:
        raise ValueError(f"phi order p must be >= 0, got {p}")
    M = _as_float(M, "M holds")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"M must be square, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("M must be finite")
    norm = float(np.abs(M).sum(axis=0).max(initial=0.0))
    j = math.ceil(math.log2(norm / _THETA)) if norm > _THETA else 0
    M = M / 2.0**j
    norm /= 2.0**j
    d = M.shape[0]
    phis = np.empty((p + 1, d, d))
    if p:
        # degree m: the tail sum_{i > m} ||M||^i / (i + p)! is below eps/2 of
        # the leading term 1/p!; it is at most twice its first term, since
        # successive terms at least halve once m + p + 2 >= 2 ||M||
        m = 0
        while 4.0 * norm ** (m + 1) * math.factorial(p) > _EPS * math.factorial(m + 1 + p):
            m += 1
        acc = np.eye(d) / math.factorial(m + p)
        for i in range(m - 1, -1, -1):
            acc = M @ acc
            acc.ravel()[:: d + 1] += 1.0 / math.factorial(i + p)
        phis[p] = acc
        for k in range(p - 1, 0, -1):
            phis[k] = M @ phis[k + 1]
            phis[k].ravel()[:: d + 1] += 1.0 / math.factorial(k)
    phis[0] = scipy.linalg.expm(M)  # looked up at call time: profilers wrap it
    for _ in range(j):
        phis = phi_combine(phis, phis, 1.0, 1.0)
    return phis


def phi_combine(A: np.ndarray, B: np.ndarray, a: float, b: float) -> np.ndarray:
    """phi_k((a + b) X) from A[k] = phi_k(a X) and B[k] = phi_k(b X), k <= p.

    The top block row of E(t) = exp(t [[X, I, 0, ..], [0, 0, I, ..], ..])
    is t^k phi_k(t X), and E(a + b) = E(b) E(a) gives

        phi_k((a+b)X) = s^k e^{bX} phi_k(aX) + sum_{i=1..k} q^i s^{k-i} phi_i(bX) / (k-i)!

    with s = a/(a + b) and q = b/(a + b); a = b is the doubling rule.
    """
    _as_shaped(a, (), "a holds")
    _as_shaped(b, (), "b holds")
    s, q = a / (a + b), b / (a + b)
    products = B[0] @ A
    out = np.empty_like(products)
    for k in range(len(A)):
        acc = s**k * products[k]
        for i in range(1, k + 1):
            acc += (q**i * s ** (k - i) / math.factorial(k - i)) * B[i]
        out[k] = acc
    return out


def phi_matrix_action(M: np.ndarray, vs) -> np.ndarray:
    """Compute sum_{j=0..p} phi_j(M) @ vs[j] from :func:`phi_matrices`.

    Supports p <= 4: the shipped methods need phi_2, and a :class:`Tableau`
    allows up to phi_3.  Checks only ``vs``; :func:`phi_matrices` checks M.
    """
    vs = _as_float(vs, "vs holds")
    phis = phi_matrices(M, len(vs) - 1) if vs.ndim == 2 and 1 <= len(vs) <= 5 else None
    if phis is None or vs.shape[1] != phis.shape[1]:
        raise ValueError(f"vs must have shape (p + 1, d) with p <= 4 and M (d, d), got {vs.shape}")
    return sum(phis[j] @ vs[j] for j in range(len(vs)))
