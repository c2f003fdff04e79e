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
r = (theta + c_i h)/(c_i h) is a plain monomial.  Every problem runs one
stage loop over the history components that :func:`_components` declares
(an RE and a DDE one for coupled problems), each with its stage values as
the rows of a (nu, dim) array F.  Tableau row i reads them as u = W_i^T F
(u_k sums w * F over the row's order-k terms;
:attr:`~expdelay.tableau.Tableau.weights`), and the components differ only
in the overlay rule that turns u into the polynomial on the newest interval:

* DDE: head y plus h*u_k/k! on r^k, so the value at r = 1 is the new head;
* RE: u_k/(c (k-1)!) on r^{k-1}, no head;
* semilinear DDE: e^{r c h L} y + sum_k r^k phi_k(r c h L) h*u_k, stored
  as its cubic interpolant at four Chebyshev-Lobatto points r (r = 0 is y
  itself, r = 1 the exact head), the only rule that interpolates.

Everything in these rules but the stage values depends only on the tableau
and h (and L), so a step plan binds it to them: one rule per component, in
state order, ``rule(state, F, i) -> (coeffs, head)`` for row i (head None
for RE).  The DDE and RE rules, from a small cache keyed on (tableau, h),
hold each row's W_i padded to four columns and the constants h/k! and
c (k-1)!; the semilinear rule folds the matrix functions, h r^k and the
interpolation into one matrix per row.  The checked entries, :func:`step`
and :func:`integrate`, check a state against the declared components and
build its plan from them once per call; the stage loop :func:`_step` trusts both.

Row i of ``a`` with c = c_i gives the stage views (a shift plus one overlay
polynomial); row ``b`` with c = 1 gives the appended segment.  Every stage
value must be finite, and every appended segment pass ``shift_append``'s
theta = 0 rule: the stage loop appends its plan's segments as trusted, so
that rule is the only check they pass (its shapes and a DDE head's match
hold by construction).
"""

from __future__ import annotations

import functools
import math
import operator
import types
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
    _as_shaped,
    _index,
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
    "initial_state",
    "integrate",
    "observed_values",
    "TrajectoryRecorder",
]


class IntegrationDiverged(RuntimeError):
    """A stage or update produced a non-finite value."""

    def __init__(self, message, step_index=None, stage_index=None):
        super().__init__(message)
        self.step_index = step_index
        self.stage_index = stage_index


def _check_fields(problem, dim_fields, callables):
    """Checks shared by every problem type: each named callable field
    callable (``exact`` may be None), tau positive and finite, each named
    dimension >= 1, the name and each component name a str that a CSV field
    can hold, one component name per dimension if any are given, and
    distributed limits a 1-d sequence in [-tau, 0].  Tau, the dimensions, the
    component names and the limits are kept as the float, ints, tuple of str and
    tuple of floats that were checked: later writes by the caller must not reach them."""
    for field in callables:
        value = getattr(problem, field)
        if not callable(value) and not (field == "exact" and value is None):
            raise TypeError(f"{field} must be callable, got {value!r}")
    tau = float(_as_shaped(problem.tau, (), "tau holds"))
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    object.__setattr__(problem, "tau", tau)
    for field in dim_fields:
        if (dim := _index(getattr(problem, field), field)) < 1:
            raise ValueError(f"{field} must be >= 1, got {dim}")
        object.__setattr__(problem, field, int(dim))
    names = problem.component_names
    if not isinstance(names, (tuple, list)):  # a str would be read as one name per letter
        raise TypeError(f"component_names must be a tuple or list of str, got {names!r}")
    for field, text in [("name", problem.name)] + [("component_names entry", x) for x in names]:
        if not isinstance(text, str):
            raise TypeError(f"{field} must be a str, got {text!r}")
        if "," in text or "\r" in text or "\n" in text:
            raise ValueError(f"{field} must hold no comma, CR or LF (a CSV field), got {text!r}")
    dim, names = sum(getattr(problem, f) for f in dim_fields), tuple(names)
    if names and len(names) != dim:
        raise ValueError(f"component_names has {len(names)} entries, expected {dim}")
    object.__setattr__(problem, "component_names", names)
    limits = _as_float(problem.distributed_limits, "distributed_limits holds")
    if limits.ndim != 1:
        raise ValueError(
            f"distributed_limits must be a 1-d sequence, got {problem.distributed_limits!r}"
        )
    if _outside(limits, problem.tau).any():
        raise ValueError(
            f"distributed_limits {problem.distributed_limits} outside [-tau, 0], "
            f"tau = {problem.tau}"
        )
    object.__setattr__(problem, "distributed_limits", tuple(limits.tolist()))


@dataclass(frozen=True)
class Problem:
    """A delay or renewal equation with right-hand side F(t, history).

    ``rhs`` receives the current time and an evaluable history view (with
    ``eval``/``eval_many`` and, for DDE kinds, ``head``) and returns the
    d-dimensional value.  ``distributed_limits`` lists window offsets of
    distributed-delay terms; :func:`initial_state`, :func:`step` and
    :func:`integrate` raise a MeshError for one off the mesh of width h.
    ``L`` is the stiff linear part of a semilinear DDE and is rejected for
    every other kind.
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
            # a copy: later writes by the caller must not reach it
            L = np.array(_as_float(self.L, "L holds"))
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


def _dde_rule(weights, scale, state, f, i: int):
    """The head y on r^0 and h u_k/k! on r^k, u = W_i^T f; and the value at r = 1."""
    coeffs = f.T.dot(weights[i])  # .dot: less call overhead than @ at this size
    coeffs *= scale
    coeffs[:, 0] = state.head
    return coeffs, coeffs.sum(axis=1)


def _re_rule(weights, div, state, f, i: int):
    """u_k/(c (k-1)!) on r^{k-1}, u = W_i^T f; no head."""
    coeffs = f.T.dot(weights[i])
    coeffs /= div[i]
    return coeffs, None


@functools.lru_cache(maxsize=32)  # a run steps with one (tableau, h)
def _step_plan(tab: Tableau, h: float):
    """The DDE and RE rules of steps with one (tab, h), bound to their
    read-only per-row constants, as a read-only mapping from kind to rule.

    Row i is a row of ``a`` at c = c_i, or ``b`` (i = nu) at c = 1.  Both
    rules read W_i padded with zero columns to (nu, 4), column k the order-k
    weights (shifted one column left for RE), and scale the weighted sums
    after they are formed, by h/k! or 1/(c k!), so a sum that overflows is
    not hidden by a small constant.
    """
    factorial = np.array([math.factorial(k) for k in range(_NCOEF)], dtype=float)
    weights, re_weights, re_div = [], [], []
    for c, W in zip((*tab.c, 1.0), tab.weights):
        padded = np.zeros((tab.nu, _NCOEF))
        padded[:, : W.shape[1]] = W
        weights.append(padded)
        re_weights.append(np.roll(padded, -1, axis=1))  # column 0 holds no weight
        re_div.append(c * factorial)
    dde_scale = h / factorial
    for arr in (dde_scale, *weights, *re_weights, *re_div):
        arr.setflags(write=False)
    return types.MappingProxyType({
        "dde": functools.partial(_dde_rule, tuple(weights), dde_scale),
        "re": functools.partial(_re_rule, tuple(re_weights), tuple(re_div)),
    })


def _plan(components, tab, h: float) -> tuple:
    """The step plan of the :func:`_components` that :func:`_check_state` read:
    one overlay rule per entry, in state order: a new :func:`_semilinear_plan`
    for one with an L, else its kind's rule from the cached :func:`_step_plan`
    of (tab, h).  Refuses an h at which a nonzero node's c h underflows to 0."""
    if any(0.0 < c and c * h == 0.0 for c in tab.c):
        raise ValueError(f"a stage shift c h underflows to 0 at h = {h}, nodes {tab.c}")
    return tuple(
        _step_plan(tab, h)[kind] if L is None else _semilinear_plan(L, tab, h)
        for kind, *_, L in components
    )


#: the source of a coupled rhs value, by its component's kind
_COUPLED_RHS = {"re": "rhs (RE component) returned", "dde": "rhs (DDE component) returned"}


def _step(problem, tab, states, t_n: float, plan) -> tuple:
    """One explicit exponential RK step of the components ``states`` that
    :func:`_check_state` returned, with ``plan``, their rules
    ``rule(state, F, i) -> (coeffs, head)`` from :func:`_plan`, neither of
    which it re-checks; returns the new components as a tuple.
    ``problem.rhs(t, *views)`` returns one value per component, or the bare
    value for a single component.  :class:`IntegrationDiverged` names the stage of a
    non-finite stage value, or stage nu when ``shift_append`` refuses a new segment:
    it appends each as trusted, which keeps only the theta = 0 rule.
    """
    h = states[0].h
    # per component: its state, its overlay rule and its stage values F
    parts = [(state, rule, np.zeros((tab.nu, state.dim))) for state, rule in zip(states, plan)]
    single = len(parts) == 1
    # the source that a message names for each component's rhs values
    labels = ("rhs returned",) if single else [_COUPLED_RHS[state.kind] for state in states]
    for i, ci in enumerate(tab.c):
        # a row with c_i = 0 is empty (node scales equal c_i > 0): the stage
        # sees the current state itself
        views = states if ci == 0.0 else [
            StageView._of(state, ci * h, *rule(state, f, i)) for state, rule, f in parts
        ]
        raw = problem.rhs(t_n + ci * h, *views)
        if single:
            raw = (raw,)
        elif (count := operator.length_hint(raw, 1)) != len(parts):  # a bare scalar is one value
            raise ValueError(f"rhs returned {count} values, expected {len(parts)}")
        for r, (_, _, f), label in zip(raw, parts, labels):
            value = _as_shaped(r, f.shape[1:], label)
            if not all(map(math.isfinite, value.tolist())):  # plain floats: cheap for a few
                msg = f"non-finite stage value at stage {i + 1}"
                raise IntegrationDiverged(msg, stage_index=i + 1)
            f[i] = value
    new = []
    for state, rule, f in parts:
        coeffs, head = rule(state, f, tab.nu)
        try:  # the plan's own segment: shift_append keeps only its theta = 0 rule
            new.append(state.shift_append(coeffs, head=head, _trusted=True))
        except ValueError as exc:
            msg = f"update refused at stage {tab.nu}: {exc}"
            raise IntegrationDiverged(msg, stage_index=tab.nu) from exc
    return tuple(new)


# the names :func:`_entry` looks up, kept for the outside-in tracer
# (bench/spans.py); library-owned run counters (ROADMAP.md, item 1) remove them
step_dde = step_re = step_semilinear_dde = step_coupled = _step


def _entry(problem):
    """The module global ``step_<kind>`` that runs the problem's steps."""
    entry = globals().get(f"step_{problem.kind}")
    if entry is None:
        raise ValueError(f"unknown problem kind {problem.kind!r}")
    return entry


def _semilinear_rule(rows, state, f, i: int):
    """The cubic and the head, M_i [y; u_1; ...; u_p] with u = W_i^T f.

    ``rows[i]`` is (W_i, M_i) for a row with a nonzero node c (i = nu the
    update row at c = 1), None at c = 0.  M_i, read-only (5d, (p_i + 1) d),
    maps [y; u_1; ...; u_p], y the head and p_i the row's highest phi order,
    to the newest segment's (d, 4) cubic in C order (4d rows), then its
    exact head (d rows).  It holds h, so the sums are formed unscaled and
    one that overflows still raises.
    """
    W, M = rows[i]
    u = W.T.dot(f)
    u[0] = state.head
    out = M.dot(u.ravel())
    d = state.dim
    return out[: _NCOEF * d].reshape(d, _NCOEF), out[_NCOEF * d :]


#: [k, m, j]: the weight of the sample at r_j = 1/4, 3/4, 1 in the cubic's
#: coefficient m < 4 (``_LOBATTO_VINV``) and in the head (m = 4), times r_j^k
_LOBATTO_FOLD = np.concatenate((_LOBATTO_VINV[:, 1:], [[0.0, 0.0, 1.0]])) * (
    _LOBATTO_S[1:] ** np.arange(_NCOEF)[:, None, None]
)


def _semilinear_plan(L, tab, h: float):
    """The :func:`_semilinear_rule` of steps of width h of a semilinear
    component with stiff linear part L, bound to its per-row matrices; the
    rows at one node are column slices of one matrix.

    The continuous output of a row at node c is e^{r c h L} y + sum_k r^k
    phi_k(r c h L) h u_k.  Its samples at the Chebyshev-Lobatto nodes r = 0
    (y itself), 1/4, 3/4 and 1 define the stored cubic, whose coefficients
    are ``_LOBATTO_VINV`` times the samples, and the r = 1 sample is the
    exact head.  Each distinct nonzero node's matrix holds both maps.  It
    costs one d x d :func:`scipy.linalg.expm`, inside
    :func:`~expdelay.phi.phi_matrices` at (c/4) h L; the phi matrices at
    c/2, 3c/4 and c follow by doubling, adding and doubling again
    (:func:`~expdelay.phi.phi_combine`).
    """
    orders: dict[float, int] = {}
    for c, W in zip((*tab.c, 1.0), tab.weights):
        if c != 0.0:
            orders[c] = max(orders.get(c, 0), W.shape[1] - 1)
    fold = _LOBATTO_FOLD.copy()
    fold[1:] *= h
    d = len(L)
    matrices = {}
    for c, p in orders.items():
        # phis[k, j] = phi_k(r_j c h L), r_j = 1/4, 3/4, 1
        phis = np.empty((p + 1, 3, d, d))
        phis[:, 0] = quarter = phi_matrices((0.25 * (c * h)) * L, p)
        half = phi_combine(quarter, quarter, 1.0, 1.0)
        phis[:, 1] = phi_combine(quarter, half, 1.0, 2.0)
        phis[:, 2] = phi_combine(half, half, 1.0, 1.0)
        # blocks[k, m] maps u_k to row m's d values; y (k = 0) also enters
        # the cubic as sample 0
        blocks = np.matmul(fold[: p + 1], phis.reshape(p + 1, 3, d * d))
        blocks[0, :_NCOEF, :: d + 1] += _LOBATTO_VINV[:, :1]
        blocks = blocks.reshape(p + 1, _NCOEF + 1, d, d).transpose(2, 1, 0, 3)
        # rows a * 4 + m of the cubic, then a of the head; columns k * d + b
        cubic, head = blocks[:, :_NCOEF].reshape(_NCOEF * d, -1), blocks[:, _NCOEF].reshape(d, -1)
        M = np.concatenate((cubic, head))
        M.setflags(write=False)
        matrices[c] = M
    return functools.partial(_semilinear_rule, tuple(
        None if c == 0.0 else (W, matrices[c][:, : W.shape[1] * d])
        for c, W in zip((*tab.c, 1.0), tab.weights)
    ))


def _components(problem, h) -> tuple:
    """The problem's state components in state order, one (kind, dim, n, h,
    phi0, L) each: n = tau/h segments of width h, the initial history phi0,
    and L the stiff linear part or None.  Given h, each distributed bound and
    then tau must be on its mesh (MeshError); with h None, n is None too."""
    if h is not None:
        h = float(_as_shaped(h, (), "h holds"))
        for lim in problem.distributed_limits:
            _steps(lim, h, "distributed delay bound")
    n = None if h is None else _steps(float(problem.tau), h, "tau")
    if problem.kind == "coupled":
        return (("re", problem.dim_re, n, h, problem.phi0_re, None),
                ("dde", problem.dim_dde, n, h, problem.phi0_dde, None))
    return (("re" if problem.kind == "re" else "dde", problem.dim, n, h, problem.phi0, problem.L),)


def _boxed(states):
    """The components as callers see them: a tuple of several, else the one state."""
    return tuple(states) if len(states) > 1 else states[0]


def initial_state(problem, h: float):
    """Project each component's initial history phi0 onto a mesh of width h."""
    return _boxed([
        HistoryState.from_callable(phi0, kind, dim, problem.tau, h)
        for kind, dim, _, _, phi0, _ in _components(problem, h)
    ])


def _check_tableau(tab):
    """Raise a TypeError unless ``tab`` is a :class:`~expdelay.tableau.Tableau`."""
    if not isinstance(tab, Tableau):
        raise TypeError(
            f"tab must be a Tableau, got {tab!r}; builtin(name) looks a method up by name"
        )


def _check_state(problem, state, h=None, name="state") -> tuple:
    """(states, components) if ``state``'s components, boxed as :func:`_boxed`, match
    ``components`` = :func:`_components` at h, by default the first one's width; else raises."""
    given = state if isinstance(state, tuple) and state else (state,)
    h = given[0].h if h is None and isinstance(given[0], HistoryState) else h
    components = _components(problem, h)
    want = tuple(c[:4] for c in components)
    got = tuple([isinstance(s, HistoryState) and (s.kind, s.dim, s.n_segments, s.h) for s in given])
    boxed = isinstance(state, tuple) == (len(want) > 1)
    if boxed and got == want:
        return given, components
    layout = ", ".join(f"{kind} HistoryState of dim {dim}" for kind, dim, _, _ in want)
    kinds, dims, hs, taus = ([getattr(s, f, None) for s in given] for f in "kind dim h tau".split())
    mesh_only = boxed and [g and g[:2] for g in got] == [w[:2] for w in want]
    n = want[0][2]
    raise (MeshError if mesh_only else ValueError)(
        f"{name} of a {problem.kind} problem must be ({layout}) on {n or 'tau/h'} segments of "
        f"width {h or 'h'}; got {type(state).__name__} of kinds {kinds}, dims {dims}, mesh "
        f"widths {hs} and horizons {taus}; the problem's tau = {problem.tau}"
    )


def step(problem, tab, state, t_n: float):
    """One explicit exponential RK step from t_n to t_n + h, for every kind.

    ``t_n`` is read as a real scalar, and ``tab`` must be a
    :class:`~expdelay.tableau.Tableau` (a TypeError otherwise).  ``state``
    must be laid out as :func:`initial_state` builds it for the h
    of its first component, and passes its mesh checks (each distributed
    bound, then tau); otherwise the step raises one ValueError naming both
    layouts, a :class:`~expdelay.history.MeshError` if only the mesh
    differs, before it builds anything.  The plan is built from the
    components that check read.  A non-finite stage value, or a new
    segment whose value at theta = 0 is non-finite, raises
    :class:`IntegrationDiverged` with its stage index.  Returns the new
    state (or pair).

    An RE state is the density eta.  The integrated state is derived from
    it by :meth:`~expdelay.history.HistoryState.j_integrate`, which
    reproduces the scheme's own recursion for it exactly.

    Its plan is one overlay rule per component; every kind but the
    semilinear one takes them from a cache keyed on (tab, h).  A semilinear
    step builds its rule's matrices on every call, at one d x d exponential
    per distinct nonzero node, so many semilinear steps belong in
    :func:`integrate` (``state0`` starts it from any state, ``observer``
    sees every step).  A semilinear step's heads are exact; its newest
    segment is a cubic interpolant, which is not exact when hL is stiff
    (README, "Semilinear problems and plans").

    Every kind runs one function, which this module binds under four
    unexported names, ``step_dde``, ``step_re``, ``step_semilinear_dde`` and
    ``step_coupled``.  The step looks up ``step_<kind>`` at call time, so an
    outside-in tracer (bench/spans.py) that wraps those names sees every step.
    """
    t_n = float(_as_shaped(t_n, (), "t_n holds"))
    _check_tableau(tab)
    states, components = _check_state(problem, state)
    new = _entry(problem)(problem, tab, states, t_n, _plan(components, tab, states[0].h))
    return _boxed(new)


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

    ``tab`` must be a :class:`~expdelay.tableau.Tableau` and ``observer``
    callable or None (a TypeError before anything is built).  T, tau and
    any distributed-delay bounds must be integer multiples of h,
    and a given ``state0`` is held to :func:`step`'s layout and mesh rule
    with this h, also when T = 0.  That check, the lookup of ``step_<kind>`` and the step
    plan (a semilinear problem's matrix functions included) happen once per
    call; the steps then run without re-checking the states they produce.
    ``observer``, if given, is called exactly once per step, in order, as
    observer(t_{n+1}, values) with the observable of
    :func:`observed_values`.  Returns the final state (or pair).  A
    non-finite stage or update aborts with :class:`IntegrationDiverged`
    carrying the step and stage indices.
    """
    _check_tableau(tab)
    if observer is not None and not callable(observer):
        raise TypeError(f"observer must be callable or None, got {observer!r}")
    h = float(_as_shaped(h, (), "h holds"))
    n_steps = _steps(float(_as_shaped(T, (), "T holds")), h, "T")
    if n_steps < 0:
        raise MeshError(f"horizon T = {T} is negative")
    state = initial_state(problem, h) if state0 is None else state0
    states, components = _check_state(problem, state, h, "state0")
    entry, plan = _entry(problem), _plan(components, tab, h)
    for n in range(n_steps):
        try:
            states = entry(problem, tab, states, n * h, plan)
        except IntegrationDiverged as exc:
            raise IntegrationDiverged(
                f"integration aborted at step {n} (t = {n * h}), "
                f"stage {exc.stage_index}: {exc}",
                step_index=n,
                stage_index=exc.stage_index,
            ) from None
        if observer is not None:
            observer((n + 1) * h, observed_values(_boxed(states)))
    return _boxed(states)


class TrajectoryRecorder:
    """Observer collecting every ``sample_every``-th step (and t = 0 if the
    initial observable is passed at construction).  Values are read by
    :func:`~expdelay.history._as_float`, and t0 and each recorded t as real
    scalars; a step that is not recorded reads neither."""

    def __init__(self, sample_every: int = 1, t0=None, values0=None):
        self.sample_every = _index(sample_every, "sample_every")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self._count = 0
        self.times: list[float] = []
        self.values: list[np.ndarray] = []
        if values0 is not None:
            self.times.append(0.0 if t0 is None else float(_as_shaped(t0, (), "t0 holds")))
            self.values.append(_as_float(values0, "values0 holds"))

    def __call__(self, t: float, values: np.ndarray):
        self._count += 1
        if self._count % self.sample_every == 0:
            self.times.append(float(_as_shaped(t, (), "t holds")))
            self.values.append(_as_float(values, "values holds"))

    def as_arrays(self):
        return np.asarray(self.times), np.asarray(self.values)
