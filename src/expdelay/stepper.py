"""Exponential Runge-Kutta steps and constant-step time integration.

:func:`step` is the one step for every problem kind.  It advances the full
history state, as :func:`initial_state` builds it, by the state's own mesh
width h: the shift semigroup translates the old history by h while the
stage and update rows add polynomial corrections supported on the newest
interval.  Written out, a coefficient term
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
  so a :class:`SemilinearPlan`, built once per solve, holds them and is
  itself this overlay rule; each sample is one matrix-vector product.

Row i of ``a`` with c = c_i gives the stage views (a shift plus one overlay
polynomial); row ``b`` with c = 1 gives the appended segment.  Every stage
value and every appended segment must be finite.
"""

from __future__ import annotations

import math
import operator
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
    "IntegrationDiverged",
    "step",
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
    named dimension >= 1, one component name per dimension if any are given,
    and every distributed limit in [-tau, 0]."""
    if not 0.0 < problem.tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {problem.tau}")
    for field in dim_fields:
        if getattr(problem, field) < 1:
            raise ValueError(f"{field} must be >= 1, got {getattr(problem, field)}")
    dim, names = sum(getattr(problem, f) for f in dim_fields), problem.component_names
    if names and len(names) != dim:
        raise ValueError(f"component_names has {len(names)} entries, expected {dim}")
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


def _require_finite(values, stage: int, what: str):
    # plain floats: cheaper than numpy for a few values
    if not all(map(math.isfinite, values)):
        raise IntegrationDiverged(
            f"non-finite {what} at stage {stage}", stage_index=stage
        )


def _dde_overlay(state, u, c: float):
    coeffs = np.zeros((state.dim, _NCOEF))
    coeffs[:, 0] = state.head
    coeffs[:, 1 : len(u)] = (state.h * u[1:] / _FACTORIAL[1 : len(u), None]).T
    return coeffs, coeffs.sum(axis=1)


def _re_overlay(state, u, c: float):
    coeffs = np.zeros((state.dim, _NCOEF))
    coeffs[:, : len(u) - 1] = (u[1:] / (c * _FACTORIAL[: len(u) - 1, None])).T
    return coeffs, None


def _step(problem, tab, states, overlays, t_n: float) -> tuple:
    """One explicit exponential RK step of history components on one mesh.

    Every component must be on the mesh of width h = ``states[0].h`` over
    ``problem.tau``, and every stage value and appended segment must be
    finite.  ``overlays[m](state, u, c)``, with ``u = W_i^T F`` the row's
    (p_i + 1, dim) phi weights of component m's stage values, returns the
    coefficients and head (None for RE) of component m on its newest
    interval.  ``problem.rhs(t, *views)`` returns one value per component,
    or the bare value for a single component.
    """
    single, h = len(states) == 1, states[0].h
    n = _steps(problem.tau, h, "tau")
    for state in states:
        if state.h != h or state.n_segments != n:
            widths, horizons = [s.h for s in states], [s.tau for s in states]
            raise MeshError(
                f"history components on mesh widths {widths} and horizons {horizons}; "
                f"a step needs one mesh of width {h} over the problem's tau = {problem.tau}"
            )
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
                coeffs, head = overlay(state, tab.weights[i].T @ f, ci)
                views.append(StageView(state, ci * h, coeffs, head=head))
        raw = problem.rhs(t_n + ci * h, *views)
        if single:
            raw = (raw,)
        elif len(raw) != len(states):
            raise ValueError(f"rhs returned {len(raw)} values, expected {len(states)}")
        for r, state, f in zip(raw, states, F):
            f[i] = _as_rhs_value(r, state, single)
            _require_finite(f[i].tolist(), i + 1, "stage value")
    new = []
    for state, overlay, f in zip(states, overlays, F):
        coeffs, head = overlay(state, tab.weights[-1].T @ f, 1.0)
        # the new segment's value at theta = 0 (a DDE's head), which is
        # non-finite whenever one of its coefficients is
        _require_finite(map(sum, coeffs.tolist()), tab.nu, "update")
        new.append(state.shift_append(coeffs, head=head))
    return tuple(new)


def step_dde(problem, tab, state, t_n: float) -> HistoryState:
    """:func:`step` for a plain DDE."""
    return _step(problem, tab, (state,), (_dde_overlay,), t_n)[0]


def step_re(problem, tab, state, t_n: float) -> HistoryState:
    """:func:`step` for a renewal equation."""
    return _step(problem, tab, (state,), (_re_overlay,), t_n)[0]


@dataclass(frozen=True, eq=False)
class SemilinearPlan:
    """The overlay rule of semilinear steps with one (L, tableau, h), with
    its matrix functions.

    ``stacks[c]``, for every nonzero row node c (stage rows, and the update
    row at c = 1), is a read-only (3, d, (p + 1) d) array: for r = 1/4, 3/4
    and 1 the stacked matrix [phi_0 | ... | phi_p](r c h L), with p the
    highest phi order among the rows at c.  Calling the plan as
    ``plan(state, u, c)`` applies the rule to a row's phi weights u.
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

    def __call__(self, state, u, c: float):
        us = state.h * u
        us[0] = state.head
        samples = np.empty((len(_LOBATTO_S), state.dim))
        samples[0] = state.head
        vecs = (_LOBATTO_POWERS[:, : len(us), None] * us).reshape(len(samples) - 1, -1, 1)
        samples[1:] = (self.stacks[c][:, :, : us.size] @ vecs)[:, :, 0]
        return samples.T @ _LOBATTO_VINV.T, samples[-1]


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


def step_semilinear_dde(problem, tab, state, t_n: float, plan=None) -> HistoryState:
    """:func:`step` for a semilinear DDE."""
    if problem.L is None:
        raise ValueError("semilinear step requires the matrix L")
    if plan is None:
        plan = semilinear_plan(problem, tab, state.h)
    elif not plan.fits(problem, tab, state.h):
        raise ValueError("the step plan was built for another L, tableau or step")
    return _step(problem, tab, (state,), (plan,), t_n)[0]


def step_coupled(problem, tab, state, t_n: float):
    """:func:`step` for a coupled problem's (re, dde) pair."""
    return _step(problem, tab, state, (_re_overlay, _dde_overlay), t_n)


def _components(problem, h: float) -> tuple:
    """(phi0, kind, dim) of each history component of the problem's state;
    raises unless every distributed-delay bound lies on the mesh of width h."""
    for lim in problem.distributed_limits:
        _steps(lim, h, "distributed delay bound")
    if problem.kind == "coupled":
        return (problem.phi0_re, "re", problem.dim_re), (problem.phi0_dde, "dde", problem.dim_dde)
    return ((problem.phi0, "re" if problem.kind == "re" else "dde", problem.dim),)


def initial_state(problem, h: float):
    """Project the problem's initial history onto a mesh of width h."""
    states = [HistoryState.from_callable(*c, problem.tau, h) for c in _components(problem, h)]
    return tuple(states) if problem.kind == "coupled" else states[0]


def _check_state0(problem, state0, h: float):
    """state0, after initial_state's checks: bounds, then components, each
    tau/h segments of width h exactly."""
    states = state0 if problem.kind == "coupled" else (state0,)
    components, n = _components(problem, h), _steps(problem.tau, h, "tau")
    if not isinstance(states, tuple) or [(k, d, n, h) for _, k, d in components] != [
        (s.kind, s.dim, s.n_segments, s.h) for s in states if isinstance(s, HistoryState)
    ]:
        layout = ", ".join(f"{kind} HistoryState of dim {dim}" for _, kind, dim in components)
        raise ValueError(
            f"state0 of a {problem.kind} problem must be ({layout}) on {n} segments of width {h}"
        )
    return state0


def step(problem, tab, state, t_n: float, plan=None):
    """One explicit exponential RK step from t_n to t_n + h, for every kind.

    ``state`` is laid out as :func:`initial_state` builds it: one
    :class:`~expdelay.history.HistoryState`, or the (re, dde) pair of a
    coupled problem.  The step reads h from it.  Every component must hold
    tau/h segments of width h, with tau the problem's horizon; otherwise
    the step raises :class:`~expdelay.history.MeshError` naming the widths
    and horizons.  A non-finite stage value, or a new segment whose value
    at theta = 0 is non-finite, raises :class:`IntegrationDiverged` with
    its stage index.  Returns the new state (or pair).

    An RE state is the density eta.  The integrated state is derived from
    it by :meth:`~expdelay.history.HistoryState.j_integrate`, which
    reproduces the scheme's own recursion for it exactly.

    ``plan`` is used by semilinear problems only: a :func:`semilinear_plan`
    for (problem, tab, h).  Without one the step builds its own, at one
    d x d exponential per distinct nonzero node.  A semilinear step's heads
    are exact; its newest segment is a cubic interpolant, which is not
    exact when hL is stiff (README, "Semilinear problems and plans").

    The step dispatches through the module globals ``step_dde``,
    ``step_re``, ``step_semilinear_dde`` and ``step_coupled``, which are not
    exported: an outside-in tracer (bench/spans.py) wraps them by name.
    """
    if problem.kind == "dde":
        return step_dde(problem, tab, state, t_n)
    if problem.kind == "re":
        return step_re(problem, tab, state, t_n)
    if problem.kind == "semilinear_dde":
        return step_semilinear_dde(problem, tab, state, t_n, plan)
    if problem.kind == "coupled":
        return step_coupled(problem, tab, state, t_n)
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
    bounds the problem declares, also for a given ``state0``, which must be
    laid out as :func:`initial_state` builds it: tau/h segments of width h in
    each component.  A semilinear problem's matrix functions are built once,
    as a :func:`semilinear_plan`.  ``observer``, if given, is called exactly
    once per step, in order, as observer(t_{n+1}, values) with the observable
    of :func:`observed_values`.  Returns the final state (or pair).  A
    non-finite stage or update aborts with :class:`IntegrationDiverged`
    carrying the step and stage indices.
    """
    h = float(h)
    n_steps = _steps(float(T), h, "T")
    if n_steps < 0:
        raise MeshError(f"horizon T = {T} is negative")
    state = initial_state(problem, h) if state0 is None else _check_state0(problem, state0, h)
    plan = semilinear_plan(problem, tab, h) if problem.kind == "semilinear_dde" else None
    for n in range(n_steps):
        try:
            state = step(problem, tab, state, n * h, plan)
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
        self.sample_every = operator.index(sample_every)
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
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
