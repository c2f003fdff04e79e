"""Exponential Runge-Kutta steps and constant-step time integration.

One step advances the full history state: the shift semigroup translates the
old history by h while the stage and update rows add polynomial corrections
supported on the newest interval.  Written out, a coefficient term
w * phi_k(c_i h A0) applied to a stage value F contributes

    DDE:  head  h*w/k! * F,    tail  h*w * (c_i h + theta)^k / ((c_i h)^k k!) * F
    RE:   density  h*w * (c_i h + theta)^{k-1} / ((c_i h)^k (k-1)!) * F

on [-c_i h, 0] and nothing older, which in the local coordinate
r = (theta + c_i h)/(c_i h) is a plain monomial.  Every problem kind runs one
stage loop over a tuple of history components (an RE and a DDE one for
coupled problems), each with its stage values as the rows of a (nu, dim)
array F.  Tableau row i reads them as u = W_i^T F (u_k sums w * F over the
row's order-k terms; :attr:`~expdelay.tableau.Tableau.weights`), and the
kinds differ only in the overlay rule that turns u into the polynomial on
the newest interval:

* DDE: head y plus h*u_k/k! on r^k, so the value at r = 1 is the new head;
* RE: u_k/(c (k-1)!) on r^{k-1}, no head;
* semilinear DDE: e^{r c h L} y + sum_k r^k phi_k(r c h L) h*u_k, sampled
  at four Chebyshev-Lobatto points r (r = 0 is y itself, r = 1 the exact
  head) and stored as its cubic interpolant, the only rule that
  interpolates.  The matrix functions depend only on L, h and the tableau,
  so a :class:`SemilinearPlan` holds them, built once per solve, and each
  sample is one matrix-vector product.

Row i of ``a`` with c = c_i gives the stage views (a shift plus one overlay
polynomial); row ``b`` with c = 1 gives the appended segment.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .history import (
    _LOBATTO_S,
    _LOBATTO_VINV,
    HistoryState,
    MeshError,
    StageView,
    _NCOEF,
    _outside,
    _steps,
)
# ``phi_matrix_action`` is bound here although no step calls it: the
# outside-in tracer (bench/spans.py) wraps it by name in this module's
# namespace, and a missing name fails every traced run.  Library-owned run
# counters (ROADMAP.md, item 1) remove the need.
from .phi import phi_combine, phi_matrices, phi_matrix_action  # noqa: F401
from .tableau import Tableau

__all__ = [
    "Problem",
    "CoupledProblem",
    "MeshError",
    "IntegrationDiverged",
    "step_dde",
    "step_re",
    "step_semilinear_dde",
    "step_coupled",
    "SemilinearPlan",
    "semilinear_plan",
    "initial_state",
    "integrate",
    "observed_values",
    "TrajectoryRecorder",
]

_FACTORIAL = np.array([math.factorial(k) for k in range(_NCOEF)], dtype=float)
#: r^k at the nonzero Chebyshev-Lobatto nodes r = 1/4, 3/4, 1
_LOBATTO_POWERS = _LOBATTO_S[1:, None] ** np.arange(_NCOEF)


class IntegrationDiverged(RuntimeError):
    """A stage or update produced a non-finite value."""

    def __init__(self, message, step_index=None, stage_index=None):
        super().__init__(message)
        self.step_index = step_index
        self.stage_index = stage_index


def _check_fields(problem, dim_fields):
    """Checks shared by every problem type: tau positive and finite, each
    named dimension >= 1 and every distributed limit in [-tau, 0]."""
    if not 0.0 < problem.tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {problem.tau}")
    for field in dim_fields:
        if getattr(problem, field) < 1:
            raise ValueError(f"{field} must be >= 1, got {getattr(problem, field)}")
    if _outside(np.asarray(problem.distributed_limits, dtype=float), problem.tau).any():
        raise ValueError(
            f"distributed_limits {problem.distributed_limits} outside [-tau, 0], "
            f"tau = {problem.tau}"
        )


@dataclass(frozen=True)
class Problem:
    """A delay or renewal equation with right-hand side F(t, history).

    ``rhs`` receives the current time and an evaluable history view (with
    ``eval``/``eval_many`` and, for DDE kinds, ``head``) and returns the
    d-dimensional value.  ``distributed_limits`` lists window offsets of
    distributed-delay terms; they must land on the mesh for any step size
    used.  ``L`` is the stiff linear part of a semilinear DDE and is
    rejected for every other kind.
    """

    kind: str
    dim: int
    tau: float
    rhs: Callable
    phi0: Callable
    name: str = ""
    L: np.ndarray | None = None
    exact: Callable | None = None
    distributed_limits: tuple[float, ...] = ()
    component_names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("dde", "re", "semilinear_dde"):
            raise ValueError(f"unknown problem kind {self.kind!r}")
        _check_fields(self, ("dim",))
        if self.kind == "semilinear_dde":
            if self.L is None:
                raise ValueError("semilinear problems require the matrix L")
            L = np.array(self.L, dtype=float)  # a copy: later writes by the caller must not reach it
            if L.shape != (self.dim, self.dim):
                raise ValueError(f"L must have shape ({self.dim}, {self.dim})")
            if not np.isfinite(L).all():
                raise ValueError("L must be finite")
            L.setflags(write=False)
            object.__setattr__(self, "L", L)
        elif self.L is not None:
            raise ValueError(f"L is only used by semilinear_dde, not {self.kind!r}")
        if not self.component_names:
            names = ("x",) if self.dim == 1 else tuple(
                f"x{i + 1}" for i in range(self.dim)
            )
            object.__setattr__(self, "component_names", names)


@dataclass(frozen=True)
class CoupledProblem:
    """A renewal equation coupled to a delay differential equation.

    ``rhs`` receives (t, re_view, dde_view) and returns the pair of values
    (f_re, f_dde); both components share the delay horizon, the mesh and the
    method.
    """

    dim_re: int
    dim_dde: int
    tau: float
    rhs: Callable
    phi0_re: Callable
    phi0_dde: Callable
    name: str = ""
    distributed_limits: tuple[float, ...] = ()
    component_names: tuple[str, ...] = ()

    kind = "coupled"

    def __post_init__(self):
        _check_fields(self, ("dim_re", "dim_dde"))
        if not self.component_names:
            names = tuple(f"b{i + 1}" for i in range(self.dim_re)) + tuple(
                f"x{i + 1}" for i in range(self.dim_dde)
            )
            object.__setattr__(self, "component_names", names)


def _as_rhs_value(raw, state, single: bool) -> np.ndarray:
    val = np.asarray(raw, dtype=float)
    if val.ndim == 0 and state.dim == 1:
        val = val.reshape(1)
    if val.shape != (state.dim,):
        what = "rhs" if single else f"rhs ({state.kind.upper()} component)"
        raise ValueError(f"{what} returned shape {val.shape}, expected ({state.dim},)")
    return val


def _require_finite(val: np.ndarray, stage: int, what: str):
    # plain floats: cheaper than numpy for a (dim,) value, and no sum that
    # could overflow on finite input
    if not all(map(math.isfinite, val.tolist())):
        raise IntegrationDiverged(
            f"non-finite {what} at stage {stage}", stage_index=stage
        )


def _check_mesh(state, h: float):
    if abs(state.h - h) > 1e-12 * max(1.0, h):
        raise MeshError(f"state mesh width {state.h} does not match step {h}")


def _dde_overlay(state, u, c: float, h: float):
    coeffs = np.zeros((state.dim, _NCOEF))
    coeffs[:, 0] = state.head
    coeffs[:, 1 : len(u)] = (h * u[1:] / _FACTORIAL[1 : len(u), None]).T
    return coeffs, coeffs.sum(axis=1)


def _re_overlay(state, u, c: float, h: float):
    coeffs = np.zeros((state.dim, _NCOEF))
    coeffs[:, : len(u) - 1] = (u[1:] / (c * _FACTORIAL[: len(u) - 1, None])).T
    return coeffs, None


def _semilinear_overlay(stacks, state, u, c: float, h: float):
    us = h * u
    us[0] = state.head
    samples = np.empty((len(_LOBATTO_S), state.dim))
    samples[0] = state.head
    vecs = (_LOBATTO_POWERS[:, : len(us), None] * us).reshape(len(samples) - 1, -1, 1)
    samples[1:] = (stacks[c][:, :, : us.size] @ vecs)[:, :, 0]
    return samples.T @ _LOBATTO_VINV.T, samples[-1]


def _step(tab, states, overlays, rhs, t_n: float, h: float) -> tuple:
    """One explicit exponential RK step of a tuple of history components.

    ``overlays[m](state, u, c, h)``, with ``u = W_i^T F`` the row's
    (p_i + 1, dim) phi weights of component m's stage values, returns the
    coefficients and head (None for RE) of component m on its newest
    interval.
    ``rhs(t, *views)`` returns one value per component, or the bare value
    for a single component.
    """
    for state in states:
        _check_mesh(state, h)
    single = len(states) == 1
    F = [np.zeros((tab.nu, state.dim)) for state in states]
    for i in range(tab.nu):
        ci = tab.c[i]
        if ci == 0.0:
            # a[i] is empty (node scales equal c_i > 0): the stage sees the
            # current state itself.
            views = states
        else:
            views = []
            for state, overlay, f in zip(states, overlays, F):
                coeffs, head = overlay(state, tab.weights[i].T @ f, ci, h)
                views.append(StageView(state, ci * h, coeffs, head=head))
        raw = rhs(t_n + ci * h, *views)
        for r, state, f in zip((raw,) if single else raw, states, F):
            f[i] = _as_rhs_value(r, state, single)
            _require_finite(f[i], i + 1, "stage value")
    new = []
    for state, overlay, f in zip(states, overlays, F):
        coeffs, head = overlay(state, tab.weights[-1].T @ f, 1.0, h)
        if head is not None:
            _require_finite(head, tab.nu, "update")
        new.append(state.shift_append(coeffs, head=head))
    return tuple(new)


def step_dde(problem, tab, state, t_n: float, h: float) -> HistoryState:
    """One explicit exponential RK step for a plain DDE state."""
    return _step(tab, (state,), (_dde_overlay,), problem.rhs, t_n, h)[0]


def step_re(problem, tab, state, t_n: float, h: float) -> HistoryState:
    """One explicit exponential RK step for a renewal-equation state.

    The density state eta is advanced: its tail is the pure shift and the
    new segment carries the update-row polynomial.  The integrated state is
    derived from eta by :meth:`HistoryState.j_integrate`, which reproduces
    the scheme's own recursion for it exactly.
    """
    return _step(tab, (state,), (_re_overlay,), problem.rhs, t_n, h)[0]


@dataclass(frozen=True, eq=False)
class SemilinearPlan:
    """The matrix functions of semilinear steps with one (L, tableau, h).

    ``stacks[c]``, for every nonzero row node c (stage rows, and the update
    row at c = 1), is a read-only (3, d, (p + 1) d) array: for r = 1/4, 3/4
    and 1 the stacked matrix [phi_0 | ... | phi_p](r c h L), with p the
    highest phi order among the rows at c.
    """

    L: np.ndarray
    tab: Tableau
    h: float
    stacks: dict

    def fits(self, problem, tab, h: float) -> bool:
        return (
            self.h == h
            and (self.tab is tab or self.tab == tab)
            and (self.L is problem.L or np.array_equal(self.L, problem.L))
        )


def semilinear_plan(problem, tab, h: float) -> SemilinearPlan:
    """Build the matrix functions of a semilinear problem's steps of width h.

    One d x d :func:`scipy.linalg.expm` per distinct nonzero node c, inside
    :func:`~expdelay.phi.phi_matrices` at (c/4) h L; the samples at c/2, 3c/4
    and c follow by doubling, adding and doubling again
    (:func:`~expdelay.phi.phi_combine`).
    """
    orders: dict[float, int] = {}
    for c, W in zip((*tab.c, 1.0), tab.weights):
        if c != 0.0:
            orders[c] = max(orders.get(c, 0), W.shape[1] - 1)
    d = problem.dim
    stacks = {}
    for c, p in orders.items():
        quarter = phi_matrices((0.25 * (c * h)) * problem.L, p)
        half = phi_combine(quarter, quarter, 1.0, 1.0)
        three_quarters = phi_combine(quarter, half, 1.0, 2.0)
        samples = (quarter, three_quarters, phi_combine(half, half, 1.0, 1.0))
        stack = np.stack(samples).transpose(0, 2, 1, 3).reshape(3, d, (p + 1) * d)
        stack.setflags(write=False)
        stacks[c] = stack
    return SemilinearPlan(problem.L, tab, float(h), stacks)


def step_semilinear_dde(problem, tab, state, t_n: float, h: float, plan=None) -> HistoryState:
    """One step for x' = L x + G(t, x_t) with the linear part treated exactly.

    Every matrix function comes from ``plan``, a :func:`semilinear_plan` for
    (problem, tab, h); without one the step builds its own, which costs one
    d x d exponential per distinct nonzero node.  Each row then costs three
    matrix-vector products: heads are exact matrix phi actions; segment
    profiles (which involve e^{(h+theta)L}) are sampled at the 4
    Chebyshev-Lobatto points and stored as their cubic interpolant.  That
    stored segment is not exact when hL is stiff: one expeuler step of
    x' = lam x from x = 1 at h = 0.01 stores a segment with max error 4e-4,
    0.15 and 0.77 at h lam = -1, -10 and -100, and at -10 it dips to -0.11
    (ROADMAP.md, stiff correctness).  With L = 0 the step reduces to
    :func:`step_dde`.
    """
    if problem.L is None:
        raise ValueError("semilinear step requires the matrix L")
    if plan is None:
        plan = semilinear_plan(problem, tab, h)
    elif not plan.fits(problem, tab, h):
        raise ValueError("the step plan was built for another L, tableau or step")
    overlay = functools.partial(_semilinear_overlay, plan.stacks)
    return _step(tab, (state,), (overlay,), problem.rhs, t_n, h)[0]


def step_coupled(problem, tab, state_re, state_dde, t_n: float, h: float):
    """One joint step for a coupled RE/DDE pair sharing mesh and tableau.

    Each stage builds the RE and DDE views together and feeds both to the
    problem's rhs, which returns the (f_re, f_dde) pair.
    """
    return _step(
        tab, (state_re, state_dde), (_re_overlay, _dde_overlay), problem.rhs, t_n, h
    )


def initial_state(problem, h: float):
    """Project the problem's initial history onto a mesh of width h."""
    for lim in problem.distributed_limits:
        _steps(lim, h, "distributed delay bound")
    if problem.kind == "coupled":
        re0 = HistoryState.from_callable(
            problem.phi0_re, "re", problem.dim_re, problem.tau, h
        )
        dde0 = HistoryState.from_callable(
            problem.phi0_dde, "dde", problem.dim_dde, problem.tau, h
        )
        return re0, dde0
    kind = "re" if problem.kind == "re" else "dde"
    return HistoryState.from_callable(problem.phi0, kind, problem.dim, problem.tau, h)


def step(problem, tab, state, t_n: float, h: float, plan=None):
    """Dispatch one step on the problem kind; ``state`` is a pair for
    coupled problems.  ``plan`` is passed to semilinear steps only."""
    if problem.kind == "dde":
        return step_dde(problem, tab, state, t_n, h)
    if problem.kind == "re":
        return step_re(problem, tab, state, t_n, h)
    if problem.kind == "semilinear_dde":
        return step_semilinear_dde(problem, tab, state, t_n, h, plan)
    if problem.kind == "coupled":
        return step_coupled(problem, tab, state[0], state[1], t_n, h)
    raise ValueError(f"unknown problem kind {problem.kind!r}")


def observed_values(state) -> np.ndarray:
    """Per-step observable: head for DDEs, left limit at 0 for REs,
    concatenation of both for coupled pairs."""
    if isinstance(state, tuple):
        return np.concatenate([observed_values(s) for s in state])
    if state.kind == "dde":
        return np.asarray(state.head)
    return state.eval(0.0)


def integrate(problem, tab, h: float, T: float, observer=None, state0=None):
    """Advance from t = 0 to t = T in N = T/h constant steps.

    T and tau must be integer multiples of h, as must any distributed-delay
    bounds the problem declares.  A semilinear problem's matrix functions
    are built once, as a :func:`semilinear_plan`.  ``observer``, if given, is
    called exactly once per step, in order, as observer(t_{n+1}, values) with
    the observable of :func:`observed_values`.  Returns the final state (or pair).  A
    non-finite stage or update aborts with :class:`IntegrationDiverged`
    carrying the step and stage indices.
    """
    h = float(h)
    n_steps = _steps(float(T), h, "T")
    if n_steps < 0:
        raise MeshError(f"horizon T = {T} is negative")
    state = initial_state(problem, h) if state0 is None else state0
    plan = semilinear_plan(problem, tab, h) if problem.kind == "semilinear_dde" else None
    for n in range(n_steps):
        try:
            state = step(problem, tab, state, n * h, h, plan)
        except IntegrationDiverged as exc:
            raise IntegrationDiverged(
                f"integration aborted at step {n} (t = {n * h}), "
                f"stage {exc.stage_index}: {exc}",
                step_index=n,
                stage_index=exc.stage_index,
            ) from None
        if observer is not None:
            observer((n + 1) * h, observed_values(state))
    return state


class TrajectoryRecorder:
    """Observer collecting every ``sample_every``-th step (and t = 0 if the
    initial observable is passed at construction)."""

    def __init__(self, sample_every: int = 1, t0=None, values0=None):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = int(sample_every)
        self._count = 0
        self.times: list[float] = []
        self.values: list[np.ndarray] = []
        if values0 is not None:
            self.times.append(0.0 if t0 is None else float(t0))
            self.values.append(np.asarray(values0, dtype=float))

    def __call__(self, t: float, values: np.ndarray):
        self._count += 1
        if self._count % self.sample_every == 0:
            self.times.append(float(t))
            self.values.append(np.asarray(values, dtype=float))

    def as_arrays(self):
        return np.asarray(self.times), np.asarray(self.values)
