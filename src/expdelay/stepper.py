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
  interpolates.

Everything in these rules but the stage values depends only on the tableau
and h (and L), so a step plan, built once per solve, holds it and applies
the rules: ``plan.dde(state, F, i)`` and ``plan.re(state, F, i)`` return a
component's polynomial on the newest interval for row i.  For DDE and RE
components the plan holds each row's W_i padded to four columns and the
constants h/k! and c (k-1)!, so an overlay is one product F^T W_i, one
scale and the head column; a step without a plan takes it from a small
cache keyed on (tableau, h).  A :class:`SemilinearPlan` also holds the
matrix functions, and each of its samples is one matrix-vector product.

Row i of ``a`` with c = c_i gives the stage views (a shift plus one overlay
polynomial); row ``b`` with c = 1 gives the appended segment.  Every stage
value and every appended segment must be finite.
"""

from __future__ import annotations

import functools
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
    _as_float,
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

#: r^k at the nonzero Chebyshev-Lobatto nodes r = 1/4, 3/4, 1
_LOBATTO_POWERS = _LOBATTO_S[1:, None] ** np.arange(_NCOEF)


class IntegrationDiverged(RuntimeError):
    """A stage or update produced a non-finite value."""

    def __init__(self, message, step_index=None, stage_index=None):
        super().__init__(message)
        self.step_index = step_index
        self.stage_index = stage_index


def _check_fields(problem, dim_fields, callables):
    """Checks shared by every problem type: each named callable field
    callable (``exact`` may be None), tau positive and finite, each named
    dimension >= 1, one component name per dimension if any are given, and
    distributed limits a 1-d sequence in [-tau, 0]."""
    for field in callables:
        value = getattr(problem, field)
        if not callable(value) and not (field == "exact" and value is None):
            raise TypeError(f"{field} must be callable, got {value!r}")
    if not 0.0 < problem.tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {problem.tau}")
    for field in dim_fields:
        if getattr(problem, field) < 1:
            raise ValueError(f"{field} must be >= 1, got {getattr(problem, field)}")
    dim, names = sum(getattr(problem, f) for f in dim_fields), problem.component_names
    if names and len(names) != dim:
        raise ValueError(f"component_names has {len(names)} entries, expected {dim}")
    limits = np.asarray(problem.distributed_limits, dtype=float)
    if limits.ndim != 1:
        raise ValueError(
            f"distributed_limits must be a 1-d sequence, got {problem.distributed_limits!r}"
        )
    if _outside(limits, problem.tau).any():
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
        _check_fields(self, ("dim",), ("rhs", "phi0", "exact"))
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
        _check_fields(self, ("dim_re", "dim_dde"), ("rhs", "phi0_re", "phi0_dde"))
        if not self.component_names:
            names = tuple(f"b{i + 1}" for i in range(self.dim_re)) + tuple(
                f"x{i + 1}" for i in range(self.dim_dde)
            )
            object.__setattr__(self, "component_names", names)


def _as_rhs_value(raw, state, single: bool) -> np.ndarray:
    what = "rhs" if single else f"rhs ({state.kind.upper()} component)"
    val = _as_float(raw, f"{what} returned")
    if val.ndim == 0 and state.dim == 1:
        val = val.reshape(1)
    if val.shape != (state.dim,):
        raise ValueError(f"{what} returned shape {val.shape}, expected ({state.dim},)")
    return val


def _require_finite(values, stage: int, what: str):
    # plain floats: cheaper than numpy for a few values
    if not all(map(math.isfinite, values)):
        raise IntegrationDiverged(
            f"non-finite {what} at stage {stage}", stage_index=stage
        )


@dataclass(frozen=True, eq=False)
class _StepPlan:
    """The DDE and RE overlay rules of steps with one (tableau, h), with
    their per-row constants (:func:`_step_plan`).

    Row i is a row of ``a`` at c = c_i, or ``b`` (i = nu) at c = 1.
    ``weights[i]`` is W_i padded with zero columns to (nu, 4), column k
    the order-k weights, and ``re_weights[i]`` the same shifted one column
    left; ``re_div[i]`` holds c k! for column k of an RE overlay.  The
    constants multiply the weighted sums after they are formed, so a sum
    that overflows is not hidden by a small constant.
    """

    tab: Tableau
    h: float
    weights: tuple
    dde_scale: np.ndarray  # h/k! for column k
    re_weights: tuple
    re_div: tuple

    def fits(self, problem, tab, h: float) -> bool:
        return (
            self.h == h
            and (self.tab is tab or self.tab == tab)
            and getattr(problem, "L", None) is None
        )

    def dde(self, state, f, i: int):
        """The head y on r^0 and h u_k/k! on r^k, u = W_i^T f; and the value at r = 1."""
        coeffs = f.T.dot(self.weights[i])  # .dot: less call overhead than @ at this size
        coeffs *= self.dde_scale
        coeffs[:, 0] = state.head
        return coeffs, coeffs.sum(axis=1)

    def re(self, state, f, i: int):
        """u_k/(c (k-1)!) on r^{k-1}, u = W_i^T f; no head."""
        coeffs = f.T.dot(self.re_weights[i])
        coeffs /= self.re_div[i]
        return coeffs, None


@functools.lru_cache(maxsize=32)  # a run steps with one (tableau, h)
def _step_plan(tab: Tableau, h: float) -> _StepPlan:
    """The :class:`_StepPlan` of (tab, h); its arrays are read-only."""
    factorial = np.array([math.factorial(k) for k in range(_NCOEF)], dtype=float)
    weights, re_weights, re_div = [], [], []
    for c, W in zip((*tab.c, 1.0), tab.weights):
        padded = np.zeros((tab.nu, _NCOEF))
        padded[:, : W.shape[1]] = W
        weights.append(padded)
        re_weights.append(np.roll(padded, -1, axis=1))  # column 0 holds no weight
        re_div.append(c * factorial)
    dde_scale = h / factorial
    arrays = (dde_scale, *weights, *re_weights, *re_div)
    for arr in arrays:
        arr.setflags(write=False)
    return _StepPlan(tab, float(h), tuple(weights), dde_scale, tuple(re_weights), tuple(re_div))


def _plan(problem, tab, h: float):
    """The step plan of (problem, tab, h), which :func:`integrate` fetches
    once per solve: a new :func:`semilinear_plan` for a semilinear problem,
    the cached :class:`_StepPlan` of (tab, h) for every other kind."""
    if problem.kind == "semilinear_dde":
        return semilinear_plan(problem, tab, h)
    return _step_plan(tab, h)


def _step(problem, tab, state, t_n: float, plan=None):
    """One explicit exponential RK step of a state that passes :func:`_check_state`;
    returns the new state, or the new pair of a coupled problem.

    Every stage value and appended segment must be finite.  ``plan`` (None:
    :func:`_plan`'s) must fit (problem, tab, h); ``plan.dde``/``plan.re``
    ``(state, F, i)``, F the component's (nu, dim) stage values, return the
    coefficients and head (None for RE) of a component of that kind on its
    newest interval for row i.  ``problem.rhs(t, *views)`` returns one value
    per component, or the bare value for a single component.
    """
    states = _check_state(problem, state)
    h = states[0].h
    if plan is None:
        plan = _plan(problem, tab, h)
    elif not plan.fits(problem, tab, h):
        raise ValueError("the step plan was built for another L, tableau or step")
    # per component: its state, its overlay rule and its stage values F
    parts = [(state, getattr(plan, state.kind), np.zeros((tab.nu, state.dim))) for state in states]
    single = len(parts) == 1
    for i, ci in enumerate(tab.c):
        # a row with c_i = 0 is empty (node scales equal c_i > 0): the stage
        # sees the current state itself
        views = states if ci == 0.0 else [
            StageView._of(state, ci * h, *rule(state, f, i)) for state, rule, f in parts
        ]
        raw = problem.rhs(t_n + ci * h, *views)
        if single:
            raw = (raw,)
        elif len(raw) != len(parts):
            raise ValueError(f"rhs returned {len(raw)} values, expected {len(parts)}")
        for r, (state, _, f) in zip(raw, parts):
            value = _as_rhs_value(r, state, single)
            _require_finite(value.tolist(), i + 1, "stage value")
            f[i] = value
    new = []
    for state, rule, f in parts:
        coeffs, head = rule(state, f, tab.nu)
        # the new segment's value at theta = 0 (a DDE's head), which is
        # non-finite whenever one of its coefficients is
        _require_finite(map(sum, coeffs.tolist()), tab.nu, "update")
        new.append(state.shift_append(coeffs, head=head))
    return new[0] if single else tuple(new)


# the names :func:`step` looks up, kept for the outside-in tracer
# (bench/spans.py); library-owned run counters (ROADMAP.md, item 1) remove them
step_dde = step_re = step_semilinear_dde = step_coupled = _step


@dataclass(frozen=True, eq=False)
class SemilinearPlan:
    """The overlay rule of semilinear steps with one (L, tableau, h), with
    its matrix functions.

    ``stacks[c]``, for every nonzero row node c (stage rows, and the update
    row at c = 1), is a read-only (3, d, (p + 1) d) array: for r = 1/4, 3/4
    and 1 the stacked matrix [phi_0 | ... | phi_p](r c h L), with p the
    highest phi order among the rows at c.  ``plan.dde(state, f, i)`` applies
    the rule of row i to stage values f, as a :class:`_StepPlan` does.
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

    def dde(self, state, f, i: int):
        tab = self.tab
        c = tab.c[i] if i < tab.nu else 1.0
        us = state.h * (tab.weights[i].T @ f)
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


def _components(problem, h=None) -> tuple:
    """(kind, dim) per state component; given h, bounds must be on its mesh."""
    for lim in problem.distributed_limits if h is not None else ():
        _steps(lim, h, "distributed delay bound")
    if problem.kind == "coupled":
        return ("re", problem.dim_re), ("dde", problem.dim_dde)
    return (("re" if problem.kind == "re" else "dde", problem.dim),)


def initial_state(problem, h: float):
    """Project the problem's initial history onto a mesh of width h."""
    phi0s = (problem.phi0_re, problem.phi0_dde) if problem.kind == "coupled" else (problem.phi0,)
    states = [
        HistoryState.from_callable(phi0, kind, dim, problem.tau, h)
        for phi0, (kind, dim) in zip(phi0s, _components(problem, h))
    ]
    return tuple(states) if problem.kind == "coupled" else states[0]


@functools.lru_cache(maxsize=64)  # every step of a run checks against one layout
def _expected_layout(components: tuple, tau: float, h) -> tuple:
    """(kind, dim, n, h) per component of the state :func:`initial_state`
    builds at width h, n = tau/h by the mesh rule (None, as h, when h is)."""
    n = None if h is None else _steps(tau, h, "tau")
    return tuple((kind, dim, n, h) for kind, dim in components)


def _check_state(problem, state, h=None, name="state") -> tuple:
    """The components of ``state`` if laid out as ``initial_state(problem, h)``
    builds them, h defaulting to the first one's width; else raises as :func:`step` says."""
    components = _components(problem, h)
    given = state if isinstance(state, tuple) and state else (state,)
    h = given[0].h if h is None and isinstance(given[0], HistoryState) else h
    want = _expected_layout(components, float(problem.tau), h)
    got = tuple([isinstance(s, HistoryState) and (s.kind, s.dim, s.n_segments, s.h) for s in given])
    boxed = isinstance(state, tuple) == (problem.kind == "coupled")
    if boxed and got == want:
        return given
    layout = ", ".join(f"{kind} HistoryState of dim {dim}" for kind, dim in components)
    kinds, dims, hs, taus = ([getattr(s, f, None) for s in given] for f in "kind dim h tau".split())
    mesh_only = boxed and [g and g[:2] for g in got] == [w[:2] for w in want]
    n = want[0][2]
    raise (MeshError if mesh_only else ValueError)(
        f"{name} of a {problem.kind} problem must be ({layout}) on {n or 'tau/h'} segments of "
        f"width {h or 'h'}; got {type(state).__name__} of kinds {kinds}, dims {dims}, mesh "
        f"widths {hs} and horizons {taus}; the problem's tau = {problem.tau}"
    )


def step(problem, tab, state, t_n: float, plan=None):
    """One explicit exponential RK step from t_n to t_n + h, for every kind.

    ``state`` must be laid out as :func:`initial_state` builds it for the h
    of its first component; otherwise the step raises one ValueError naming
    both layouts, a :class:`~expdelay.history.MeshError` if only the mesh
    differs.  A non-finite stage value, or a new segment whose value at
    theta = 0 is non-finite, raises :class:`IntegrationDiverged` with its
    stage index.  Returns the new state (or pair).

    An RE state is the density eta.  The integrated state is derived from
    it by :meth:`~expdelay.history.HistoryState.j_integrate`, which
    reproduces the scheme's own recursion for it exactly.

    ``plan`` is the step plan that :func:`integrate` builds once per solve:
    for a semilinear problem a :func:`semilinear_plan` for (problem, tab, h),
    and a plan that does not fit raises a ValueError.  Without one, a
    semilinear step builds its own, at one d x d exponential per distinct
    nonzero node, and every other kind takes the per-row constants of
    (tab, h) from a small cache.  A semilinear step's heads are exact; its
    newest segment is a cubic interpolant, which is not exact when hL is
    stiff (README, "Semilinear problems and plans").

    Every kind runs one function, which this module binds under four
    unexported names, ``step_dde``, ``step_re``, ``step_semilinear_dde`` and
    ``step_coupled``.  The step looks up ``step_<kind>`` at call time, so an
    outside-in tracer (bench/spans.py) that wraps those names sees every step.
    """
    entry = globals().get(f"step_{problem.kind}")
    if entry is None:
        raise ValueError(f"unknown problem kind {problem.kind!r}")
    return entry(problem, tab, state, t_n, plan)


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

    T, tau and any distributed-delay bounds must be integer multiples of h,
    and a given ``state0`` is held to :func:`step`'s layout rule with this h,
    also when T = 0.  The step plan is fetched once (:func:`step`); a
    semilinear problem's matrix functions are built once, as a
    :func:`semilinear_plan`.  ``observer``, if given, is called exactly
    once per step, in order, as observer(t_{n+1}, values) with the observable
    of :func:`observed_values`.  Returns the final state (or pair).  A
    non-finite stage or update aborts with :class:`IntegrationDiverged`
    carrying the step and stage indices.
    """
    h = float(h)
    n_steps = _steps(float(T), h, "T")
    if n_steps < 0:
        raise MeshError(f"horizon T = {T} is negative")
    state = initial_state(problem, h) if state0 is None else state0
    _check_state(problem, state, h, "state0")
    plan = _plan(problem, tab, h)
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
