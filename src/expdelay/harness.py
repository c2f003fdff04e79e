"""Convergence studies, trajectory sampling and CSV reporting.

Error conventions for a run up to time T against an exact solution x:

* DDE problems: ``err_x`` is the max-norm error of the final head value
  y_N - x(T) and ``err_u`` the history error of the final state against
  theta -> x(T + theta) in the chosen norm (sup by default).
* RE problems: ``err_x`` is the history-norm error of the final density
  state (L1 by default) and ``err_u`` the same norm of the integrated state
  int_theta^0 eta against int_theta^0 x(T + s) ds.

History norms (:func:`norm_diff`) sample each mesh segment: ``sup`` takes the
largest componentwise difference at 16 first-kind Chebyshev points, ``l1``
the 4-node Gauss-Legendre rule of the difference's 1-norm.  They go through
the nodes in blocks of whole segments, at most 2**14 offsets a block, so their
memory stays in proportion to the state and the reference must be elementwise.

Convergence CSV rows are ``problem,method,h,err_x,err_u``; trajectory CSV
rows are ``t`` followed by one column per component.  All numbers are
written in scientific notation with 17 significant digits, and reruns with
identical inputs produce identical files.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .history import _as_float, _as_shaped, _steps
from .quadrature import gauss_legendre
from .stepper import initial_state, integrate, observed_values, TrajectoryRecorder
from .tableau import builtin

__all__ = [
    "estimate_order",
    "converge",
    "simulate",
    "norm_diff",
]

CONVERGE_HEADER = "problem,method,h,err_x,err_u"

#: errors below this are treated as roundoff floor in slope estimates
ORDER_FLOOR = 1e3 * float(np.finfo(float).eps)

# 16 first-kind Chebyshev points per segment: sampling grid for sup norms.
_SUP_S = 0.5 * (1.0 - np.cos((2.0 * np.arange(16) + 1.0) * np.pi / 32.0))
# 4-node Gauss-Legendre rule on [0, 1], used for L1 norms.
_L1_S, _L1_W = gauss_legendre(4)

#: offsets a whole-history norm evaluates at once, so its memory is O(n), not O(nodes)
_BLOCK = 2**14


def _grid(n: int, h: float, s: np.ndarray, lo: int, hi: int) -> np.ndarray:
    # offsets of the local nodes s on segments lo..hi - 1 of n, shape (hi - lo, len(s));
    # each row is the same floats whatever the range
    return ((np.arange(lo, hi) - n) * h)[:, None] + h * s[None, :]


def _blocks(n: int, nodes: int):
    """Ranges [lo, hi) of whole segments, in order over 0..n, each holding at
    most ``_BLOCK`` offsets at ``nodes`` per segment."""
    step = _BLOCK // nodes
    return ((lo, min(lo + step, n)) for lo in range(0, n, step))


def norm_diff(state, reference, norm: str = "sup") -> float:
    """Distance between a history state (or view) and a reference callable, in
    the ``sup`` or ``l1`` norm of the module notes.  ``reference`` must be
    elementwise: m offsets give (m, dim) values, read by
    :func:`~expdelay.history._as_shaped`, each a function of its own offset."""
    if norm not in ("sup", "l1"):
        raise ValueError(f"norm must be 'sup' or 'l1', got {norm!r}")
    n, h = _steps(state.tau, state.h, "tau"), state.h
    s_nodes = _SUP_S if norm == "sup" else _L1_S
    k = len(s_nodes)
    # sup keeps each block's max (a NaN carries through); l1 each node's 1-norm
    maxima, per_node = [], np.empty((n, k)) if norm == "l1" else None
    for lo, hi in _blocks(n, k):
        thetas = _grid(n, h, s_nodes, lo, hi).ravel()
        got = state.eval_many(thetas)
        want = _as_shaped(reference(thetas), (len(thetas), state.dim), "reference returned", 1)
        diff = np.abs(got - want)
        if per_node is None:
            maxima.append(diff.max())
        else:
            per_node[lo:hi] = diff.sum(axis=1).reshape(hi - lo, k)
    if per_node is None:
        return float(np.max(maxima))
    return float((per_node @ _L1_W).sum() * h)


def estimate_order(hs, errs) -> float:
    """Least-squares slope of log(err) against log(h), for finite errors and h > 0.

    Pairs with an error under 1e3 machine epsilons sit on the roundoff floor
    and are excluded; at least two usable pairs must remain.  Both are read by
    :func:`~expdelay.history._as_float`.
    """
    hs, errs = _as_float(hs, "hs holds"), _as_float(errs, "errs holds")
    if hs.shape != errs.shape or hs.ndim != 1:
        raise ValueError("hs and errs must be 1-d arrays of equal length")
    if not (np.isfinite(hs).all() and (hs > 0.0).all() and np.isfinite(errs).all()):
        raise ValueError(f"need positive finite hs and finite errs, got {hs}, {errs}")
    usable = errs >= ORDER_FLOOR
    if usable.sum() < 2:
        raise ValueError(
            f"need at least 2 error pairs above the roundoff floor, "
            f"have {int(usable.sum())}"
        )
    slope = np.polyfit(np.log(hs[usable]), np.log(errs[usable]), 1)[0]
    return float(slope)


def _shifted_exact(exact, T, dim: int):
    """theta -> x(T + theta) at an array of m offsets, read as (m, dim) values,
    C-contiguous so that the sums over them do not depend on exact's layout."""
    return lambda thetas: np.ascontiguousarray(
        _as_shaped(exact(T + thetas), (len(thetas), dim), "exact returned", 1)
    )


def _integrated_errors(state, shifted, norm: str):
    """Norm of j(eta) - int_theta^0 x(T+s) ds over [-tau, 0], ``shifted`` the
    exact solution theta -> x(T + theta) of :func:`_shifted_exact`.

    The reference integral is accumulated per mesh segment with an 8-node
    Gauss-Legendre rule (orders of magnitude below any observable error).
    """
    n, h, dim = state.n_segments, state.h, state.dim
    lefts = (np.arange(n) - n) * h
    g8_x, g8_w = gauss_legendre(8)
    seg_int = np.empty((n, dim))
    for lo, hi in _blocks(n, len(g8_x)):  # 2**14 nodes at a time: memory O(n), not O(8n)
        vals = shifted(_grid(n, h, g8_x, lo, hi).ravel()).reshape(hi - lo, len(g8_x), dim)
        seg_int[lo:hi] = h * np.einsum("q,nqd->nd", g8_w, vals)
    suffix = np.zeros((n + 1, dim))
    suffix[:-1] = seg_int[::-1].cumsum(axis=0)[::-1]

    def reference(thetas):
        # suffix of full segments + the partial piece up to the segment's right knot
        idx = state._locate(thetas)[0]
        widths = lefts[idx] + h - thetas
        part_nodes = (thetas[:, None] + widths[:, None] * g8_x[None, :]).ravel()
        part_vals = shifted(part_nodes).reshape(len(thetas), len(g8_x), dim)
        u_ref = widths[:, None] * np.einsum("q,mqd->md", g8_w, part_vals)
        return u_ref + suffix[idx + 1]

    integrated = SimpleNamespace(tau=state.tau, h=h, dim=dim, eval_many=state.j_integrate)
    return norm_diff(integrated, reference, norm)


def _errors(problem, state, T: float, norm: str | None):
    exact = problem.exact
    shifted = _shifted_exact(exact, T, state.dim)
    if state.kind == "re":
        norm = norm or "l1"
        err_x = norm_diff(state, shifted, norm)
        err_u = _integrated_errors(state, shifted, norm)
    else:
        norm = norm or "sup"
        final = _as_shaped(exact(T), (state.dim,), "exact returned")
        err_x = float(np.max(np.abs(state.head - final)))
        err_u = norm_diff(state, shifted, norm)
    return err_x, err_u


def converge(problem, methods, hs, T: float, norm: str | None = None):
    """Integrate (method, h) combinations and collect error rows and slopes.

    Returns ``(rows, slopes)``: rows are dicts with keys problem, method, h,
    err_x, err_u in deterministic sorted order (method name, then h
    descending); slopes maps method to the fitted pair (slope_x, slope_u).
    ``problem.exact`` maps a time, or an array of m times, to (dim,) or (m, dim)
    values, read by :func:`~expdelay.history._as_shaped` and named "exact";
    each h is read as a real scalar.  Methods are deduplicated by name, and two
    different tableaux with one name raise a ValueError.  ``norm`` is None (the
    kind's default), "sup" or "l1"; it and the count of distinct h, at least 2,
    are checked before the first integration.
    """
    if norm not in (None, "sup", "l1"):
        raise ValueError(f"norm must be None, 'sup' or 'l1', got {norm!r}")
    if getattr(problem, "exact", None) is None:
        raise ValueError(
            f"problem {problem.name!r} has no exact solution; "
            "convergence errors are undefined"
        )
    by_name = {}
    for tab in (builtin(m) if isinstance(m, str) else m for m in methods):
        if by_name.setdefault(tab.name, tab) != tab:
            raise ValueError(f"two different methods are named {tab.name!r}")
    hs_sorted = sorted({float(_as_shaped(h, (), "h holds")) for h in hs}, reverse=True)
    if len(hs_sorted) < 2:  # a slope needs two; errors on the roundoff floor show only later
        raise ValueError(f"need at least 2 distinct h to fit an order, have {len(hs_sorted)}")
    rows = []
    slopes = {}
    for tab in sorted(by_name.values(), key=lambda t: t.name):
        errs_x, errs_u = [], []
        for h in hs_sorted:
            state = integrate(problem, tab, h, T)
            err_x, err_u = _errors(problem, state, T, norm)
            errs_x.append(err_x)
            errs_u.append(err_u)
            rows.append(
                {
                    "problem": problem.name,
                    "method": tab.name,
                    "h": h,
                    "err_x": err_x,
                    "err_u": err_u,
                }
            )
        slopes[tab.name] = (
            estimate_order(hs_sorted, errs_x),
            estimate_order(hs_sorted, errs_u),
        )
    return rows, slopes


def simulate(problem, method, h: float, T: float, sample_every: int = 1):
    """Integrate once and sample the trajectory every ``sample_every`` steps.

    Returns ``(header, rows)`` where header is the column-name tuple
    ('t', component...) and each row is (t, values array).  The t = 0 row
    reports the initial observable.
    """
    tab = builtin(method) if isinstance(method, str) else method
    state0 = initial_state(problem, h)
    recorder = TrajectoryRecorder(
        sample_every, t0=0.0, values0=observed_values(state0)
    )
    integrate(problem, tab, h, T, observer=recorder, state0=state0)
    header = ("t",) + tuple(problem.component_names)
    return header, list(zip(recorder.times, recorder.values))


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def format_csv(kind: str, payload) -> str:
    """Render converge rows or simulate (header, rows) as CSV text."""
    if kind == "converge":
        lines = [CONVERGE_HEADER]
        for row in payload:
            lines.append(
                ",".join(
                    [
                        row["problem"],
                        row["method"],
                        _fmt(row["h"]),
                        _fmt(row["err_x"]),
                        _fmt(row["err_u"]),
                    ]
                )
            )
    elif kind == "simulate":
        header, rows = payload
        lines = [",".join(header)]
        for t, values in rows:
            lines.append(",".join([_fmt(t)] + [_fmt(v) for v in values]))
    else:
        raise ValueError(f"unknown csv kind {kind!r}")
    return "\n".join(lines) + "\n"
