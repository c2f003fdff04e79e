import dataclasses
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from expdelay import (
    HistoryState,
    IntegrationDiverged,
    MeshError,
    Problem,
    StageView,
    Tableau,
    TrajectoryRecorder,
    belzen,
    builtin,
    builtin_names,
    check_order,
    daphnia,
    initial_state,
    integrate,
    observed_values,
    phi_scalar,
    quadratic_re,
    step,
)
from expdelay import harness, stepper

from conftest import smooth_dde_state, smooth_re_state
from oracles import phi_dde_weight, phi_re_weight, semilinear_overlay


def _zero_problem(kind, tau=1.0):
    return Problem(
        kind=kind,
        dim=1,
        tau=tau,
        rhs=lambda t, v: np.zeros(1),
        phi0=lambda th: np.exp(th) * np.cos(2.0 * th) + 0.3,
        name=f"zero_{kind}",
    )


# ---------------------------------------------------------------------------
# hand-written one-step schemes, used as oracles for the generic machinery
# ---------------------------------------------------------------------------


def _hand_dde_step(name, F, state, t, h):
    """Literal piecewise update formulas for the three shipped methods.

    F(t, head, ev) consumes the head value and a point-evaluator for the
    history.  Returns (y_new, segment polynomial in theta on [-h, 0], list
    of stage values).
    """
    y = state.head[0]
    ev0 = lambda th: state.eval(th)[0]
    F1 = F(t, y, ev0)
    if name == "expeuler":
        y1 = y + h * F1
        seg = lambda th: y + (h + th) * F1
        return y1, seg, [F1]
    if name == "heun":
        ev2 = lambda th: (
            y + (h + th) * F1 if th >= -h else ev0(h + th)
        )
        F2 = F(t + h, ev2(0.0), ev2)
        y1 = y + 0.5 * h * (F1 + F2)
        seg = lambda th: (
            y
            + (h + th - (h + th) ** 2 / (2.0 * h)) * F1
            + (h + th) ** 2 / (2.0 * h) * F2
        )
        return y1, seg, [F1, F2]
    if name == "expo3":
        c2h, c3h = 0.5 * h, 2.0 * h / 3.0
        ev2 = lambda th: (
            y + (c2h + th) * F1 if th >= -c2h else ev0(c2h + th)
        )
        F2 = F(t + c2h, ev2(0.0), ev2)
        ev3 = lambda th: (
            y + (c3h + th - (c3h + th) ** 2 / h) * F1 + (c3h + th) ** 2 / h * F2
            if th >= -c3h
            else ev0(c3h + th)
        )
        F3 = F(t + c3h, ev3(0.0), ev3)
        y1 = y + 0.25 * h * F1 + 0.75 * h * F3
        seg = lambda th: (
            y
            + (h + th - 3.0 * (h + th) ** 2 / (4.0 * h)) * F1
            + 3.0 * (h + th) ** 2 / (4.0 * h) * F3
        )
        return y1, seg, [F1, F2, F3]
    raise ValueError(name)


def _hand_re_step(name, F, state, t, h):
    """Literal density-state updates for the three shipped methods."""
    ev0 = lambda th: state.eval(th)[0]
    F1 = F(t, ev0)
    if name == "expeuler":
        return lambda th: F1, [F1]
    if name == "heun":
        ev2 = lambda th: F1 if th >= -h else ev0(h + th)
        F2 = F(t + h, ev2)
        return lambda th: -th / h * F1 + (1.0 + th / h) * F2, [F1, F2]
    if name == "expo3":
        c2h, c3h = 0.5 * h, 2.0 * h / 3.0
        ev2 = lambda th: F1 if th >= -c2h else ev0(c2h + th)
        F2 = F(t + c2h, ev2)
        ev3 = lambda th: (
            (-1.0 / 3.0 - 2.0 * th / h) * F1 + (4.0 / 3.0 + 2.0 * th / h) * F2
            if th >= -c3h
            else ev0(c3h + th)
        )
        F3 = F(t + c3h, ev3)
        seg = lambda th: (
            -0.5 * (1.0 + 3.0 * th / h) * F1 + 1.5 * (1.0 + th / h) * F3
        )
        return seg, [F1, F2, F3]
    raise ValueError(name)


@pytest.mark.parametrize("name", ["expeuler", "heun", "expo3"])
def test_dde_step_matches_handwritten_scheme(name):
    state = smooth_dde_state(tau=1.0, h=0.25)
    t, h = 0.7, 0.25

    def rhs(t_, v):
        return 0.6 * v.head - 1.3 * v.eval(-0.37) + math.sin(t_)

    prob = Problem(kind="dde", dim=1, tau=1.0, rhs=rhs, phi0=lambda th: th, name="x")
    new = step(prob, builtin(name), state, t)

    F_hand = lambda t_, head, ev: 0.6 * head - 1.3 * ev(-0.37) + math.sin(t_)
    y1, seg, _ = _hand_dde_step(name, F_hand, state, t, h)
    assert new.head[0] == pytest.approx(y1, abs=1e-13)
    for th in (-0.24, -0.2, -0.13, -0.06, 0.0):
        assert new.eval(th)[0] == pytest.approx(seg(th), abs=1e-13)
    # older part is the pure shift of the previous state
    for th in (-0.9, -0.5, -0.3):
        assert new.eval(th)[0] == pytest.approx(state.eval(th + h)[0], abs=1e-15)


@pytest.mark.parametrize("name", ["expeuler", "heun", "expo3"])
def test_re_step_matches_handwritten_scheme(name):
    state = smooth_re_state(tau=2.0, h=0.25)
    t, h = 0.4, 0.25

    def rhs(t_, v):
        return 0.8 * v.eval(-0.51) - 0.2 * v.eval(-1.23) ** 2 + math.cos(t_)

    prob = Problem(kind="re", dim=1, tau=2.0, rhs=rhs, phi0=lambda th: th, name="x")
    new = step(prob, builtin(name), state, t)

    F_hand = lambda t_, ev: 0.8 * ev(-0.51) - 0.2 * ev(-1.23) ** 2 + math.cos(t_)
    seg, _ = _hand_re_step(name, F_hand, state, t, h)
    for th in (-0.24, -0.18, -0.1, -0.03):
        assert new.eval(th)[0] == pytest.approx(seg(th), abs=1e-13)
    for th in (-1.9, -1.1, -0.6):
        assert new.eval(th)[0] == pytest.approx(state.eval(th + h)[0], abs=1e-15)


@pytest.mark.parametrize("name", ["expeuler", "heun", "expo3"])
@pytest.mark.parametrize("kind", ["dde", "re"])
def test_step_matches_phi_weights(kind, name):
    """From a constant history, with the rhs returning fixed values F_i, the
    new segment is the b row realised by the phi weights of the state space."""
    tab = builtin(name)
    h = 0.25
    y = np.array([0.7, -1.2])
    F = [np.array([1.3, -0.4]), np.array([-2.1, 0.9]), np.array([0.6, 1.7])]
    calls = iter(F)
    prob = Problem(
        kind=kind,
        dim=2,
        tau=1.0,
        rhs=lambda t, v: next(calls),
        phi0=lambda th: np.tile(y, (np.size(th), 1)),
        name="fixed",
    )
    state = initial_state(prob, h)
    new = step(prob, tab, state, 0.3)

    def weighted(weight, theta):
        return h * sum(
            w * weight(k, h, theta) * F[i]
            for i, terms in enumerate(tab.b)
            for k, w in terms
        )

    for th in np.linspace(-h, 0.0, 7):
        if kind == "dde":
            want, got = y + weighted(phi_dde_weight, th), new.eval(th)
        else:
            want, got = weighted(phi_re_weight, th), new.j_integrate(th)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
    if kind == "dde":
        np.testing.assert_allclose(new.head, new.eval(0.0), rtol=0.0, atol=1e-13)


def test_expeuler_belzen_single_step():
    prob = belzen(1.0)
    h = 0.1
    state = initial_state(prob, h)
    new = step(prob, builtin("expeuler"), state, 0.0)
    F0 = 0.5 * math.pi
    assert new.head[0] == pytest.approx(h * F0, abs=1e-12)
    # fresh segment is the linear ramp y_0 + (h+theta) F
    for th in (-0.1, -0.05, 0.0):
        assert new.eval(th)[0] == pytest.approx((h + th) * F0, abs=1e-12)


def test_heun_head_is_trapezoidal_combination():
    state = smooth_dde_state(tau=1.0, h=0.2)
    h = 0.2

    def rhs(t_, v):
        return -0.9 * v.eval(-1.0) + 0.4 * v.head

    prob = Problem(kind="dde", dim=1, tau=1.0, rhs=rhs, phi0=lambda th: th, name="x")
    y = state.head[0]
    F1 = rhs(0.0, state)[0]
    stage = lambda th: y + (h + th) * F1 if th >= -h else state.eval(h + th)[0]

    class _View:
        head = np.array([stage(0.0)])

        def eval(self, th):
            return np.array([stage(th)])

    F2 = rhs(h, _View())[0]
    new = step(prob, builtin("heun"), state, 0.0)
    assert new.head[0] == pytest.approx(y + 0.5 * h * (F1 + F2), abs=1e-13)


def test_re_euler_step_from_fixed_point_history():
    from expdelay import quadratic_re

    prob = quadratic_re(4.0)
    h = 0.005
    state = initial_state(prob, h)
    new = step(prob, builtin("expeuler"), state, 0.0)
    c = 0.5 + math.pi / 16.0
    # the new segment is constant F(0, phi) = c up to projection/quadrature error
    for th in (-0.004, -0.002, -0.0005):
        assert new.eval(th)[0] == pytest.approx(c, abs=1e-10)


def test_re_heun_segment_endpoint_identities():
    state = smooth_re_state(tau=2.0, h=0.25)
    h = 0.25

    def rhs(t_, v):
        return 1.1 * v.eval(-0.51) + 0.3 * math.sin(t_)

    prob = Problem(kind="re", dim=1, tau=2.0, rhs=rhs, phi0=lambda th: th, name="x")
    F1 = rhs(0.0, state)[0]
    stage = lambda th: F1 if th >= -h else state.eval(h + th)[0]

    class _View:
        def eval(self, th):
            return np.array([stage(th)])

    F2 = rhs(h, _View())[0]
    new = step(prob, builtin("heun"), state, 0.0)
    seg = new.coefficients()[-1, 0]
    # endpoints of the linear stage polynomial: value F2 at 0, F1 at -h
    assert seg.sum() == pytest.approx(F2, abs=1e-13)
    assert seg[0] == pytest.approx(F1, abs=1e-13)


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


def _expected_pure_shift(state, n_steps):
    """Closed form of the zero-forcing semigroup action after n steps."""
    coeffs = state.coefficients()
    n = state.n_segments
    fill = np.zeros((min(n_steps, n), state.dim, 4))
    if state.kind == "dde":
        fill[:, :, 0] = state.head
    kept = coeffs[min(n_steps, n):]
    return np.concatenate([kept, fill])


@pytest.mark.parametrize("kind", ["dde", "re"])
@pytest.mark.parametrize("name", ["expeuler", "heun", "expo3"])
def test_zero_forcing_is_pure_shift_bitwise(kind, name):
    prob = _zero_problem(kind)
    tab = builtin(name)
    h = 0.25
    state = initial_state(prob, h)
    expected_head = None if kind == "re" else state.head.copy()
    stepped = state
    for n in range(3):
        stepped = step(prob, tab, stepped, n * h)
    assert np.array_equal(stepped.coefficients(), _expected_pure_shift(state, 3))
    if kind == "dde":
        assert np.array_equal(stepped.head, expected_head)


@pytest.mark.parametrize("kind", ["dde", "re"])
def test_semigroup_composition_bitwise(kind):
    prob = _zero_problem(kind)
    tab = builtin("heun")
    h = 0.25

    def run(state, steps, start):
        for n in range(steps):
            t = (start + n) * h
            state = step(prob, tab, state, t)
        return state

    state0 = initial_state(prob, h)
    for k, m in [(0, 2), (1, 2), (2, 3), (3, 5)]:
        once = run(state0, k + m, 0)
        twice = run(run(state0, k, 0), m, k)
        assert np.array_equal(once.coefficients(), twice.coefficients())
        assert np.array_equal(
            once.coefficients(), _expected_pure_shift(state0, k + m)
        )


_EXPEULER_C0 = Tableau(
    name="expeuler_c0",
    c=(0.0, 0.0),
    a=(((), ()), ((), ())),
    b=(((1, 1.0),), ()),
    declared_order=1,
)


@pytest.mark.parametrize("make", [belzen, quadratic_re, daphnia])
def test_zero_node_past_first_stage_sees_current_state(make):
    # a later stage with c_i = 0 has an empty a row and evaluates the
    # current state itself, so this tableau is expeuler with a wasted stage
    assert check_order(_EXPEULER_C0, 1).passed
    prob = make()
    h = 0.1
    final = integrate(prob, _EXPEULER_C0, h, 1.0)
    want = integrate(prob, builtin("expeuler"), h, 1.0)
    pairs = zip(final, want) if isinstance(final, tuple) else [(final, want)]
    for got, ref in pairs:
        assert np.array_equal(got.coefficients(), ref.coefficients())
        if ref.head is not None:
            assert np.array_equal(got.head, ref.head)


def test_head_continuity_along_trajectory():
    prob = belzen(1.0)
    tab = builtin("expo3")
    h = 0.05
    state = initial_state(prob, h)
    for n in range(40):
        state = step(prob, tab, state, n * h)
        gap = abs(state.eval(0.0)[0] - state.head[0])
        assert gap <= 1e-12 * (1.0 + abs(state.head[0]))


def test_step_rejects_mismatched_mesh():
    # a step reads h from its state; a coupled pair on two widths has none
    pair = (_daphnia_pair(0.1)[0], _daphnia_pair(0.05)[1])
    with pytest.raises(MeshError, match=r"mesh widths \[0.1, 0.05\]"):
        step(daphnia(), builtin("heun"), pair, 0.0)


def test_step_rejects_a_pair_on_two_horizons():
    # both components of a coupled problem share one delay horizon; the
    # same width with tau = 4 and tau = 8 is two meshes
    const = lambda value: lambda th: np.full(np.shape(th), value)
    pair = (
        HistoryState.from_callable(const(0.7), "re", 1, 4.0, 0.1),
        HistoryState.from_callable(const(0.35), "dde", 1, 8.0, 0.1),
    )
    with pytest.raises(MeshError, match=r"mesh widths \[0.1, 0.1\] and horizons \[4.0, 8.0\]"):
        step(daphnia(), builtin("heun"), pair, 0.0)


@pytest.mark.parametrize(
    "make, kind, match",
    [
        (belzen, "dde", r"horizons \[2.0\]; .* tau = 1.0"),
        (quadratic_re, "re", r"horizons \[6.0\]; .* tau = 3.0"),
    ],
)
def test_step_rejects_a_state_on_another_horizon(make, kind, match):
    # a single component is held to the problem's horizon, as a pair is
    prob = make()
    state = HistoryState.from_callable(prob.phi0, kind, 1, 2.0 * prob.tau, 0.1)
    with pytest.raises(MeshError, match=match):
        step(prob, builtin("heun"), state, 0.0)


@pytest.mark.parametrize(
    "make, state, layout",
    [
        (belzen, lambda: HistoryState.from_callable(
            lambda th: np.zeros((np.size(th), 2)), "dde", 2, 1.0, 0.1),
         r"\(dde HistoryState of dim 1\) on 10 segments of width 0.1; got HistoryState of "
         r"kinds \['dde'\], dims \[2\]"),
        (belzen, lambda: HistoryState.from_callable(np.ones_like, "re", 1, 1.0, 0.1),
         r"\(dde HistoryState of dim 1\) on 10 segments .* kinds \['re'\], dims \[1\]"),
        (daphnia, lambda: _daphnia_pair(0.1)[1],
         r"\(re HistoryState of dim 1, dde HistoryState of dim 1\) on 40 segments of width 0.1; "
         r"got HistoryState of kinds \['dde'\]"),
        (daphnia, lambda: _daphnia_pair(0.1)[::-1],
         r"\(re HistoryState of dim 1, dde HistoryState of dim 1\) .* got tuple of kinds "
         r"\['dde', 're'\]"),
        (belzen, lambda: _daphnia_pair(0.1),
         r"\(dde HistoryState of dim 1\) on 10 segments .* got tuple of kinds \['re', 'dde'\]"),
    ],
    ids=["dim_2_on_belzen", "re_on_belzen", "single_on_daphnia", "swapped_pair", "pair_on_belzen"],
)
def test_step_and_integrate_check_one_layout(make, state, layout):
    # a state that initial_state would not build fails before any stage, with
    # one message naming both layouts; integrate refuses it as state0 alike
    prob = make()
    with pytest.raises(ValueError, match="state of a .* problem must be " + layout) as stepped:
        step(prob, builtin("heun"), state(), 0.0)
    assert not isinstance(stepped.value, MeshError)  # the kind, dim or count differs
    with pytest.raises(ValueError) as integrated:
        integrate(prob, builtin("heun"), 0.1, 0.1, state0=state())
    assert str(integrated.value) == str(stepped.value).replace("state ", "state0 ", 1)


# ---------------------------------------------------------------------------
# semilinear path
# ---------------------------------------------------------------------------


def test_semilinear_zero_matrix_reduces_to_plain_dde():
    base = belzen(1.0)
    semi = Problem(
        kind="semilinear_dde",
        dim=1,
        tau=1.0,
        rhs=base.rhs,
        phi0=base.phi0,
        L=np.zeros((1, 1)),
        name="belzen_semilinear",
    )
    tab = builtin("heun")
    h = 0.01
    plain = initial_state(base, h)
    lifted = initial_state(semi, h)
    for n in range(100):
        plain = step(base, tab, plain, n * h)
        lifted = step(semi, tab, lifted, n * h)
    assert np.max(np.abs(plain.head - lifted.head)) <= 1e-12
    assert np.max(np.abs(plain.coefficients() - lifted.coefficients())) <= 1e-12


def test_semilinear_pure_decay():
    prob = Problem(
        kind="semilinear_dde",
        dim=1,
        tau=1.0,
        rhs=lambda t, v: np.zeros(1),
        phi0=lambda th: np.ones(np.shape(th)),
        L=np.array([[-1.0]]),
        name="decay",
    )
    h = 0.1
    state = step(prob, builtin("expeuler"), initial_state(prob, h), 0.0)
    assert state.head[0] == pytest.approx(math.exp(-h), rel=1e-12)
    # segment carries e^{(h+theta) L} y_0 up to cubic interpolation error
    for th in (-0.075, -0.05, -0.025):
        assert state.eval(th)[0] == pytest.approx(math.exp(-(h + th)), abs=2e-7)
    assert state.eval(-h)[0] == pytest.approx(1.0, abs=1e-13)


def test_semilinear_stiff_step_stays_bounded():
    sup_g = 0.5
    prob = Problem(
        kind="semilinear_dde",
        dim=1,
        tau=1.0,
        rhs=lambda t, v: np.array([sup_g]),
        phi0=lambda th: np.ones(np.shape(th)),
        L=np.array([[-1.0e4]]),
        name="stiff",
    )
    h = 0.1
    state = step(prob, builtin("expeuler"), initial_state(prob, h), 0.0)
    assert abs(state.head[0]) <= 1.0 + h * sup_g


@pytest.mark.parametrize("name", ["expeuler", "heun", "expo3"])
@pytest.mark.parametrize("hl", [-1e3, -10.0, -1.0, -0.1, 0.0, 0.5])
def test_semilinear_step_matches_scalar_phi(hl, name):
    """From a constant history, with fixed F_i and diagonal L, the newest
    segment at each Lobatto node r is
    e^{r h lam} y + h sum w r^k phi_k(r h lam) F_i."""
    tab = builtin(name)
    h = 0.25
    lams = np.array([hl, 0.5 * hl]) / h
    y = np.array([0.7, -1.2])
    F = [np.array([1.3, -0.4]), np.array([-2.1, 0.9]), np.array([0.6, 1.7])]
    calls = iter(F)
    prob = Problem(
        kind="semilinear_dde",
        dim=2,
        tau=1.0,
        rhs=lambda t, v: next(calls),
        phi0=lambda th: np.tile(y, (np.size(th), 1)),
        L=np.diag(lams),
        name="fixed",
    )
    new = step(prob, tab, initial_state(prob, h), 0.3)
    nodes = np.array([0.0, 0.25, 0.75, 1.0])
    got = np.vander(nodes, 4, increasing=True) @ new.coefficients()[-1].T
    for r, val in zip(nodes, got):
        phi = lambda k: np.array([phi_scalar(k, r * h * lam) for lam in lams])
        want = phi(0) * y + h * sum(
            w * r**k * phi(k) * F[i]
            for i, terms in enumerate(tab.b)
            for k, w in terms
        )
        atol = 1e-13 * (1.0 + np.max(np.abs(want)))
        np.testing.assert_allclose(val, want, rtol=0.0, atol=atol)
    np.testing.assert_allclose(new.head, want, rtol=0.0, atol=atol)  # r = 1


@pytest.mark.parametrize("name", ["expeuler", "heun", "expo3"])
@pytest.mark.parametrize("lam", [-10.0, -1e2, -1e3, -1e4])
@pytest.mark.parametrize("y0", [1.0, 1e3, 1e6, 1e9, 1e12])
def test_semilinear_decay_from_large_history(name, lam, y0):
    # the stored newest segment has coefficients of about 6|y| while the head
    # decays to e^{h lam}|y|: the continuity check must scale with both
    prob = Problem(
        kind="semilinear_dde",
        dim=1,
        tau=1.0,
        rhs=lambda t, v: np.zeros(1),
        phi0=lambda th: np.full(np.shape(th), y0),
        L=np.array([[lam]]),
    )
    state = integrate(prob, builtin(name), 0.1, 1.0)
    assert state.head[0] == pytest.approx(y0 * math.exp(lam), rel=1e-13, abs=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_problem_rejects_non_finite_matrix(bad):
    with pytest.raises(ValueError, match="L must be finite"):
        Problem(
            kind="semilinear_dde",
            dim=2,
            tau=1.0,
            rhs=lambda t, v: np.zeros(2),
            phi0=lambda th: np.ones((np.size(th), 2)),
            L=np.array([[-1.0, 0.0], [bad, -2.0]]),
        )


def _semilinear2():
    return Problem(
        kind="semilinear_dde",
        dim=2,
        tau=1.0,
        rhs=lambda t, v: 0.5 * v.eval(-1.0) + np.sin(t) + 0.1 * v.head[::-1],
        phi0=lambda th: np.stack([np.cos(th), np.sin(th)], axis=-1),
        L=np.array([[-30.0, 4.0], [1.0, -3.0]]),
    )


def _counting_expm(monkeypatch):
    calls = []
    original = scipy.linalg.expm

    def counting(A):
        calls.append(A.shape)
        return original(A)

    monkeypatch.setattr(scipy.linalg, "expm", counting)
    return calls


@pytest.mark.parametrize("name, nodes", [("expeuler", 1), ("heun", 1), ("expo3", 3)])
def test_semilinear_solve_calls_expm_once_per_node(monkeypatch, name, nodes):
    # matrix functions are built once per solve: one d x d exponential per
    # distinct nonzero node, none per step
    calls = _counting_expm(monkeypatch)
    for steps in (10, 100):
        calls.clear()
        integrate(_semilinear2(), builtin(name), 0.01, steps * 0.01)
        assert calls == [(2, 2)] * nodes


@pytest.mark.parametrize(
    "make_state, error",
    [
        (lambda prob: HistoryState.from_callable(
            lambda th: np.ones((np.size(th), 8)), "re", 8, 1.0, 0.1), ValueError),
        (lambda prob: HistoryState.from_callable(
            lambda th: np.ones((np.size(th), 3)), "dde", 3, 1.0, 0.1), ValueError),
        (lambda prob: HistoryState.from_callable(prob.phi0, "dde", 8, 2.0, 0.1), MeshError),
    ],
    ids=["re_state", "dim_3", "other_horizon"],
)
def test_semilinear_step_refuses_a_state_before_building_its_plan(monkeypatch, make_state, error):
    # a step checks the state's layout before it builds its plan, so a
    # refused state costs no matrix exponential
    prob = Problem(
        kind="semilinear_dde",
        dim=8,
        tau=1.0,
        rhs=lambda t, v: v.eval(-1.0),
        phi0=lambda th: np.ones((np.size(th), 8)),
        L=-np.eye(8),
    )
    calls = _counting_expm(monkeypatch)
    with pytest.raises(error, match="state of a semilinear_dde problem must be"):
        step(prob, builtin("expo3"), make_state(prob), 0.0)
    assert calls == []
    step(prob, builtin("expo3"), initial_state(prob, 0.1), 0.0)
    assert calls == [(8, 8)] * 3


def test_other_kinds_call_no_matrix_function(monkeypatch):
    calls = _counting_expm(monkeypatch)
    integrate(belzen(), builtin("expo3"), 0.1, 1.0)
    integrate(quadratic_re(), builtin("expo3"), 0.1, 1.0)
    integrate(daphnia(), builtin("expo3"), 0.1, 1.0)
    assert calls == []


@pytest.mark.parametrize("kind", ["dde", "re"])
def test_problem_rejects_matrix_outside_semilinear_kind(kind):
    with pytest.raises(ValueError, match="semilinear_dde"):
        Problem(
            kind=kind,
            dim=1,
            tau=1.0,
            rhs=lambda t, v: np.zeros(1),
            phi0=lambda th: np.ones(np.shape(th)),
            L=np.array([[-5.0]]),
            name="stray_L",
        )


def test_problem_rejects_empty_dimension():
    with pytest.raises(ValueError, match="dim"):
        Problem(
            kind="dde",
            dim=0,
            tau=1.0,
            rhs=lambda t, v: np.zeros(0),
            phi0=lambda th: np.zeros((np.size(th), 0)),
            name="empty",
        )


@pytest.mark.parametrize(
    "make, field, value, error, match",
    [
        (belzen, "rhs", None, TypeError, "rhs must be callable, got None"),
        (belzen, "phi0", 1.0, TypeError, "phi0 must be callable, got 1.0"),
        (belzen, "exact", "x", TypeError, "exact must be callable, got 'x'"),
        (daphnia, "rhs", None, TypeError, "rhs must be callable, got None"),
        (daphnia, "phi0_re", None, TypeError, "phi0_re must be callable, got None"),
        (daphnia, "phi0_dde", 0.35, TypeError, "phi0_dde must be callable, got 0.35"),
        (quadratic_re, "distributed_limits", -1.0, ValueError,
         r"distributed_limits must be a 1-d sequence, got -1.0"),
        (daphnia, "distributed_limits", ((-4.0, -3.0),), ValueError,
         r"distributed_limits must be a 1-d sequence"),
    ],
)
def test_problem_fields_fail_fast(make, field, value, error, match):
    # refused at construction, not as a TypeError from inside the first step
    with pytest.raises(error, match=match):
        dataclasses.replace(make(), **{field: value})


def test_coupled_problem_checks_limits_and_dims():
    prob = daphnia()
    with pytest.raises(ValueError, match="distributed_limits"):
        dataclasses.replace(prob, distributed_limits=(-5.0, -3.0))  # tau = 4
    with pytest.raises(ValueError, match="dim_re"):
        dataclasses.replace(prob, dim_re=0)
    for make in (daphnia, belzen):
        for tau in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="tau must be positive and finite"):
                dataclasses.replace(make(), tau=tau)


def test_coupled_rhs_returns_one_value_per_component():
    prob = daphnia()

    def final(rhs):
        run = integrate(dataclasses.replace(prob, rhs=rhs), builtin("heun"), 0.1, 1.0)
        return observed_values(run)

    # a dropped or an extra value must raise, not vanish in a zip
    with pytest.raises(ValueError, match="rhs returned 1 values, expected 2"):
        final(lambda t, vb, vs: prob.rhs(t, vb, vs)[:1])
    with pytest.raises(ValueError, match="rhs returned 3 values, expected 2"):
        final(lambda t, vb, vs: (*prob.rhs(t, vb, vs), 0.0))
    # a bare scalar, a float or a 0-d array, is one value
    for scalar in (0.5, np.array(0.5)):
        with pytest.raises(ValueError, match="rhs returned 1 values, expected 2"):
            final(lambda t, vb, vs: scalar)
    # one flat array with a value per component is still a value per component
    flat = final(lambda t, vb, vs: np.concatenate([np.ravel(f) for f in prob.rhs(t, vb, vs)]))
    assert np.array_equal(flat, final(prob.rhs))


def test_component_names_match_the_dimension():
    with pytest.raises(ValueError, match="component_names has 2 entries, expected 1"):
        dataclasses.replace(belzen(), component_names=("a", "b"))
    with pytest.raises(ValueError, match="component_names has 1 entries, expected 2"):
        dataclasses.replace(belzen(), dim=2, component_names=("a",))
    with pytest.raises(ValueError, match="component_names has 1 entries, expected 2"):
        dataclasses.replace(daphnia(), component_names=("b",))
    with pytest.raises(ValueError, match="component_names has 2 entries, expected 3"):
        dataclasses.replace(daphnia(), dim_dde=2)  # the stored names no longer fit
    assert dataclasses.replace(daphnia(), component_names=("B", "S")).component_names == ("B", "S")


def test_problem_keeps_a_read_only_copy_of_L():
    L = np.array([[-5.0]])
    prob = Problem(
        kind="semilinear_dde",
        dim=1,
        tau=1.0,
        rhs=lambda t, v: np.zeros(1),
        phi0=lambda th: np.ones(np.shape(th)),
        L=L,
    )
    assert prob.L is not L
    L[0, 0] = 7.0  # the caller's array stays theirs
    assert prob.L[0, 0] == -5.0
    with pytest.raises(ValueError, match="read-only"):
        prob.L[0, 0] = 1.0
    # dataclasses.replace (used to wrap a problem's rhs) re-runs the check
    again = dataclasses.replace(prob, name="renamed")
    assert again.L.tobytes() == prob.L.tobytes()
    assert not again.L.flags.writeable


def test_semilinear_requires_matrix():
    with pytest.raises(ValueError):
        Problem(
            kind="semilinear_dde",
            dim=1,
            tau=1.0,
            rhs=lambda t, v: np.zeros(1),
            phi0=lambda th: np.ones(np.shape(th)),
            name="broken",
        )


# ---------------------------------------------------------------------------
# coupled path
# ---------------------------------------------------------------------------


def test_daphnia_rhs_values_on_constant_history():
    prob = daphnia(beta=3.02)
    h = 0.01
    b0, s0 = initial_state(prob, h)
    f_re, f_dde = prob.rhs(0.0, b0, s0)
    assert f_re[0] == pytest.approx(3.02 * 0.35 * 0.7, abs=1e-12)
    assert f_dde[0] == pytest.approx(-0.0175, abs=1e-12)


def test_daphnia_single_euler_step():
    prob = daphnia(beta=3.02)
    h = 0.01
    pair = initial_state(prob, h)
    new_re, new_dde = step(prob, builtin("expeuler"), pair, 0.0)
    assert new_dde.head[0] == pytest.approx(0.35 + h * (-0.0175), abs=1e-12)
    assert new_re.eval(-0.004)[0] == pytest.approx(3.02 * 0.35 * 0.7, abs=1e-12)


def test_coupled_zero_forcing_shifts_both():
    prob = daphnia(beta=3.02)
    zero = type(prob)(
        dim_re=1,
        dim_dde=1,
        tau=prob.tau,
        rhs=lambda t, vb, vs: (np.zeros(1), np.zeros(1)),
        phi0_re=prob.phi0_re,
        phi0_dde=prob.phi0_dde,
        name="zero_coupled",
    )
    h = 0.5
    b0, s0 = initial_state(zero, h)
    b1, s1 = step(zero, builtin("expo3"), (b0, s0), 0.0)
    assert np.array_equal(b1.coefficients(), _expected_pure_shift(b0, 1))
    assert np.array_equal(s1.coefficients(), _expected_pure_shift(s0, 1))
    assert np.array_equal(s1.head, s0.head)


def _steps_from(prob, tab, state, h, start, count):
    for n in range(start, start + count):
        state = step(prob, tab, state, n * h)
    return state


# daphnia's tau = 4 and window (-4, -3) lie on the mesh h = 1/per_unit
_METHOD = st.sampled_from(["expeuler", "heun", "expo3"])
_PER_UNIT = st.integers(1, 8)


@settings(deadline=None, max_examples=25)
@given(name=_METHOD, per_unit=_PER_UNIT, steps=st.integers(1, 12))
def test_coupled_zero_forcing_is_pure_shift_bitwise(name, per_unit, steps):
    zero = dataclasses.replace(daphnia(), rhs=lambda t, vb, vs: (np.zeros(1), np.zeros(1)))
    h = 1.0 / per_unit
    b0, s0 = initial_state(zero, h)
    b, s = _steps_from(zero, builtin(name), (b0, s0), h, 0, steps)
    assert np.array_equal(b.coefficients(), _expected_pure_shift(b0, steps))
    assert np.array_equal(s.coefficients(), _expected_pure_shift(s0, steps))
    assert np.array_equal(s.head, s0.head)


@settings(deadline=None, max_examples=25)
@given(name=_METHOD, per_unit=_PER_UNIT, k=st.integers(0, 6), m=st.integers(0, 6))
def test_coupled_semigroup_composition_bitwise(name, per_unit, k, m):
    # k steps and then m more equal k + m steps, on daphnia's own coupling;
    # the second run branches off the first one's log
    prob, tab, h = daphnia(), builtin(name), 1.0 / per_unit
    pair0 = initial_state(prob, h)
    once = _steps_from(prob, tab, pair0, h, 0, k + m)
    twice = _steps_from(prob, tab, _steps_from(prob, tab, pair0, h, 0, k), h, k, m)
    for a, b in zip(once, twice):
        assert a.coefficients().tobytes() == b.coefficients().tobytes()
    assert once[1].head.tobytes() == twice[1].head.tobytes()


# ---------------------------------------------------------------------------
# integration driver
# ---------------------------------------------------------------------------


def test_integrate_zero_steps_returns_initial_state():
    prob = belzen(1.0)
    state0 = initial_state(prob, 0.1)
    final = integrate(prob, builtin("heun"), 0.1, 0.0, state0=state0)
    assert final is state0


def test_integrate_validates_mesh_ratios():
    prob = belzen(1.0)
    with pytest.raises(MeshError):
        integrate(prob, builtin("heun"), 0.3, 2.0)  # tau/h not integer
    with pytest.raises(MeshError):
        integrate(prob, builtin("heun"), 0.1, 2.05)  # T/h not integer
    with pytest.raises(MeshError):
        integrate(prob, builtin("heun"), 0.1, -1.0, state0=initial_state(prob, 0.1))
    from expdelay import quadratic_re

    with pytest.raises(MeshError):
        integrate(quadratic_re(4.0), builtin("heun"), 0.4, 4.0)  # window misaligned
    for h, T in ((0.1, np.inf), (0.1, np.nan), (np.nan, 1.0), (np.inf, 1.0)):
        with pytest.raises(MeshError):
            integrate(prob, builtin("heun"), h, T)


def _hand_built(prob, h):
    """The state initial_state(prob, h) builds, made component by component
    without initial_state's mesh checks."""
    if prob.kind == "coupled":
        parts = ((prob.phi0_re, "re", prob.dim_re), (prob.phi0_dde, "dde", prob.dim_dde))
    else:
        parts = ((prob.phi0, "re" if prob.kind == "re" else "dde", prob.dim),)
    states = tuple(HistoryState.from_callable(phi0, kind, dim, prob.tau, h) for phi0, kind, dim in parts)
    return states if prob.kind == "coupled" else states[0]


def _daphnia_pair(h):
    return _hand_built(daphnia(), h)


@pytest.mark.parametrize(
    "make, state0, h, error, match",
    [
        # a given state0 passes the delay-bound check that initial_state runs
        (quadratic_re, lambda: HistoryState.from_callable(quadratic_re().phi0, "re", 1, 3.0, 0.3),
         0.3, MeshError, r"distributed delay bound = -1.0 is not an integer multiple of h = 0.3"),
        (daphnia, lambda: _daphnia_pair(0.4),
         0.4, MeshError, r"distributed delay bound = -3.0 is not an integer multiple of h = 0.4"),
        # and must have the components initial_state builds
        (belzen, lambda: initial_state(quadratic_re(), 0.1),
         0.1, ValueError, r"state0 of a dde problem must be \(dde HistoryState of dim 1\)"),
        (daphnia, lambda: initial_state(belzen(), 0.1), 0.1, ValueError,
         r"state0 of a coupled problem must be \(re HistoryState of dim 1, dde HistoryState"),
        (belzen, lambda: _daphnia_pair(0.1),
         0.1, ValueError, r"state0 of a dde problem must be"),
        (daphnia, lambda: _daphnia_pair(0.1)[::-1], 0.1, ValueError, "coupled problem must be"),
        (quadratic_re, lambda: HistoryState.from_callable(
            lambda th: np.zeros((np.size(th), 2)), "re", 2, 3.0, 0.1),
         0.1, ValueError, r"state0 of a re problem must be \(re HistoryState of dim 1\)"),
        # on initial_state's mesh: tau/h segments of width h
        (belzen, lambda: HistoryState.from_callable(belzen().phi0, "dde", 1, 2.0, 0.1),
         0.1, ValueError, r"\(dde HistoryState of dim 1\) on 10 segments of width 0.1"),
        (daphnia, lambda: (_daphnia_pair(0.1)[0], _daphnia_pair(0.05)[1]),
         0.1, ValueError, r"\) on \d+ segments of width 0.1"),
    ],
)
def test_integrate_checks_a_given_state0(make, state0, h, error, match):
    with pytest.raises(error, match=match):
        integrate(make(), builtin("heun"), h, 2 * h, state0=state0())


def _raised(run):
    try:
        return run(), None
    except Exception as exc:  # noqa: BLE001 - the property compares any error
        return None, (type(exc), str(exc))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([belzen, quadratic_re, daphnia]), st.integers(1, 12))
@example(quadratic_re, 4)  # h = 0.75: the bound -1.0 is off the mesh
@example(daphnia, 10)  # h = 0.4: the bound -3.0 is off the mesh
def test_step_checks_the_mesh_as_integrate_does(make, k):
    # a state with initial_state's layout at h = tau/k: step refuses it
    # exactly when integrate refuses it as state0, with the same error, and
    # otherwise both take the same step
    prob, tab = make(), builtin("heun")
    h = prob.tau / k
    stepped, step_error = _raised(lambda: step(prob, tab, _hand_built(prob, h), 0.0))
    integrated, integrate_error = _raised(
        lambda: integrate(prob, tab, h, h, state0=_hand_built(prob, h))
    )
    assert step_error == integrate_error
    if step_error is None:
        pairs = zip(stepped, integrated) if prob.kind == "coupled" else [(stepped, integrated)]
        for a, b in pairs:
            assert a.coefficients().tobytes() == b.coefficients().tobytes()


@pytest.mark.parametrize("make", [belzen, daphnia])
@pytest.mark.parametrize(
    "state",
    [
        lambda p: None,
        lambda p: 3,
        lambda p: list(initial_state(p, 0.1)) if p.kind == "coupled" else [initial_state(p, 0.1)],
        lambda p: (),
    ],
    ids=["none", "int", "list", "empty_tuple"],
)
def test_step_names_the_layout_of_an_unknown_width(make, state):
    # no HistoryState to read h from: the message names the layout on the
    # symbolic mesh
    prob = make()
    given = state(prob)
    layout = rf"\(.*\) on tau/h segments of width h; got {type(given).__name__} of kinds"
    with pytest.raises(ValueError, match=f"^state of a {prob.kind} problem must be {layout}") as raised:
        step(prob, builtin("heun"), given, 0.0)
    assert not isinstance(raised.value, MeshError)


@pytest.mark.parametrize(
    "state0",
    [
        lambda: HistoryState.from_callable(belzen().phi0, "dde", 1, 2.0, 0.1),  # tau = 2
        lambda: initial_state(belzen(), 0.05),  # width 0.05
    ],
)
def test_integrate_checks_state0_mesh_at_T_0(state0):
    # steps read h from the state, so a state0 off the mesh would step by its
    # own width while the observer reports multiples of h; a run of no steps
    # must not hand it back unchecked either
    with pytest.raises(ValueError, match="on 10 segments of width 0.1"):
        integrate(belzen(), builtin("heun"), 0.1, 0.0, state0=state0())


def test_observer_contract():
    prob = belzen(1.0)
    seen = []
    integrate(prob, builtin("expo3"), 0.1, 1.0, observer=lambda t, v: seen.append((t, v.copy())))
    assert len(seen) == 10
    times = [t for t, _ in seen]
    assert times == sorted(times)
    assert times[0] == pytest.approx(0.1)
    assert times[-1] == pytest.approx(1.0)
    exact = prob.exact
    assert seen[-1][1][0] == pytest.approx(float(exact(1.0)), abs=5e-3)


@pytest.mark.parametrize(
    "make, entry",
    [
        (belzen, "step_dde"),
        (daphnia, "step_coupled"),
        (quadratic_re, "step_re"),
        (_semilinear2, "step_semilinear_dde"),
    ],
)
def test_step_dispatches_through_module_entry_points(monkeypatch, make, entry):
    # profilers wrap the step_* module globals; every step must pass there
    calls = []
    original = vars(stepper)[entry]

    def counting(*args):
        calls.append(args[3])
        return original(*args)

    monkeypatch.setattr(stepper, entry, counting)
    integrate(make(), builtin("heun"), 0.1, 1.0)
    assert calls == pytest.approx([0.1 * n for n in range(10)])


@pytest.mark.parametrize(
    "make", [belzen, quadratic_re, daphnia, _semilinear2], ids=["dde", "re", "coupled", "semilinear"]
)
def test_state_is_checked_once_per_call(monkeypatch, make):
    # the checked entries hold a state to its layout once; the steps that
    # integrate runs trust the states they produce
    calls = []
    original = stepper._check_state

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(stepper, "_check_state", counting)
    prob, tab, h = make(), builtin("heun"), 0.1
    final = integrate(prob, tab, h, 10 * h)
    assert len(calls) == 1
    for n in range(2):
        calls.clear()
        final = step(prob, tab, final, (10 + n) * h)
        assert len(calls) == 1


@pytest.mark.parametrize(
    "make", [belzen, quadratic_re, daphnia, _semilinear2], ids=["dde", "re", "coupled", "semilinear"]
)
def test_components_are_read_once_per_step_and_twice_per_integrate(monkeypatch, make):
    # the plan is built from the components the state check read; integrate
    # reads them once more, in its own initial_state
    calls = []
    original = stepper._components
    monkeypatch.setattr(stepper, "_components", lambda *a: calls.append(a) or original(*a))
    prob, tab, h = make(), builtin("heun"), 0.1
    final = integrate(prob, tab, h, 3 * h)
    assert len(calls) == 2
    calls.clear()
    step(prob, tab, final, 3 * h)
    assert len(calls) == 1


@pytest.mark.parametrize("t_n, error, match", [
    (1j, TypeError, "t_n holds complex values"),
    ("0", TypeError, "t_n holds non-numeric values"),
    (np.array([0.0, 1.0]), ValueError, r"t_n holds shape \(2,\), expected \(\)"),
])
def test_step_reads_t_n_as_a_real_scalar(t_n, error, match):
    prob, tab = belzen(), builtin("heun")
    state = initial_state(prob, 0.1)
    with pytest.raises(error, match=match):
        step(prob, tab, state, t_n)
    want = step(prob, tab, state, 0.5)
    for same in (np.float64(0.5), np.float32(0.5), np.array(0.5)):
        got = step(prob, tab, state, same)
        assert got.coefficients().tobytes() == want.coefficients().tobytes()
        assert got.head.tobytes() == want.head.tobytes()


def test_problems_keep_the_distributed_limits_they_checked():
    # a later write to the caller's list or array must not reach a run: -1.05
    # is off the mesh of h = 0.1, and 99.0 outside [-tau, 0]
    limits, array = [-3.0, -1.0], np.array([-4.0, -3.0])
    prob = dataclasses.replace(quadratic_re(), distributed_limits=limits)
    coupled = dataclasses.replace(daphnia(), distributed_limits=array)
    limits.append(-1.05)
    array[0] = 99.0
    assert prob.distributed_limits == (-3.0, -1.0)
    assert coupled.distributed_limits == (-4.0, -3.0)
    for p in (prob, coupled, quadratic_re(), belzen()):
        assert type(p.distributed_limits) is tuple
        assert all(type(lim) is float for lim in p.distributed_limits)
    ints = dataclasses.replace(quadratic_re(), distributed_limits=np.array([-3, -1]))
    assert ints.distributed_limits == (-3.0, -1.0)
    hash(prob)  # a tuple of floats: hashable, unlike the caller's list
    for p in (prob, coupled):
        integrate(p, builtin("heun"), 0.1, 0.2)


def test_problems_keep_the_tau_dims_and_component_names_they_checked():
    # later writes to the caller's arrays or list must not reach a run
    tau, dim, names = np.array(1.0), np.array(1), ["y"]
    prob = dataclasses.replace(belzen(), tau=tau, dim=dim, component_names=names)
    dim_re = np.array(1)
    coupled = dataclasses.replace(daphnia(), tau=np.float32(4.0), dim_re=dim_re,
                                  component_names=["B", "S"])
    tau[...], dim[...], dim_re[...] = 0.5, 2, 2
    names.append("z")
    assert prob.tau == 1.0 and prob.dim == 1 and prob.component_names == ("y",)
    assert coupled.dim_re == 1 and coupled.component_names == ("B", "S")
    for p in (prob, coupled, belzen(), quadratic_re(), daphnia()):
        assert type(p.tau) is float and type(p.component_names) is tuple
    assert type(prob.dim) is type(coupled.dim_re) is type(coupled.dim_dde) is int
    integrate(prob, builtin("heun"), 0.1, 0.2)
    header, rows = harness.simulate(prob, "heun", 0.1, 0.2)
    assert header == ("t", "y") and all(len(values) == 1 for _, values in rows)
    hash(prob)


@pytest.mark.parametrize("make", [belzen, daphnia])
@pytest.mark.parametrize("fields, error, match", [
    ({"name": 5}, TypeError, "name must be a str, got 5"),
    ({"name": None}, TypeError, "name must be a str, got None"),
    ({"name": "a,b"}, ValueError, "name must hold no comma, CR or LF"),
    ({"name": "a\nb"}, ValueError, "name must hold no comma, CR or LF"),
    ({"name": "a\rb"}, ValueError, "name must hold no comma, CR or LF"),
    ({"component_names": (7,)}, TypeError, "component_names entry must be a str, got 7"),
    ({"component_names": ("x,y",)}, ValueError, "component_names entry must hold no comma"),
    ({"component_names": "xy"}, TypeError, "component_names must be a tuple or list of str"),
    ({"component_names": None}, TypeError, "component_names must be a tuple or list of str"),
])
def test_problems_refuse_names_a_csv_field_cannot_hold(make, fields, error, match):
    # at construction, before a study runs: name and component names become CSV fields
    if make is daphnia and fields.get("component_names") in ((7,), ("x,y",)):
        fields = {"component_names": fields["component_names"] + ("S",)}
    with pytest.raises(error, match=match):
        dataclasses.replace(make(), **fields)


@pytest.mark.parametrize("tab", ["heun", None, builtin("heun").c])
def test_integrate_and_step_refuse_a_non_tableau_first(monkeypatch, tab):
    prob = belzen()
    state = initial_state(prob, 0.1)
    calls = []
    monkeypatch.setattr(stepper, "_components", lambda *a: calls.append(a))
    match = r"tab must be a Tableau, got .*; builtin\(name\) looks a method up"
    with pytest.raises(TypeError, match=match):
        integrate(prob, tab, 0.1, 1.0)
    with pytest.raises(TypeError, match=match):
        step(prob, tab, state, 0.0)
    with pytest.raises(TypeError, match=match):
        step(prob, tab, "not a state", 0.0)
    assert calls == []


def test_integrate_refuses_a_non_callable_observer_before_its_first_step():
    calls = []
    prob = belzen()
    prob = dataclasses.replace(prob, rhs=lambda t, v, rhs=prob.rhs: calls.append(t) or rhs(t, v))
    with pytest.raises(TypeError, match="observer must be callable or None, got 5"):
        integrate(prob, builtin("heun"), 0.1, 1.0, observer=5)
    assert calls == []


def test_traced_names_are_own_attributes(monkeypatch):
    # the outside-in tracer swaps its targets in place on their owners
    # (vars(owner)[name]); a name that moved or became inherited would
    # silently stop being traced
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "bench"))
    import spans
    missing = [(o.__name__, name) for o, name, *_ in spans._TARGETS if name not in vars(o)]
    assert missing == []


def test_trajectory_recorder_sampling():
    rec = TrajectoryRecorder(sample_every=5, t0=0.0, values0=np.array([1.0]))
    for n in range(1, 11):
        rec(0.1 * n, np.array([float(n)]))
    ts, vals = rec.as_arrays()
    np.testing.assert_allclose(ts, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(vals[:, 0], [1.0, 5.0, 10.0])


def test_trajectory_recorder_needs_a_whole_interval():
    # a fractional interval is refused, not truncated to every 2nd step
    with pytest.raises(TypeError):
        TrajectoryRecorder(2.7)
    with pytest.raises(TypeError):
        harness.simulate(belzen(), "heun", 0.1, 1.0, sample_every=2.7)
    assert TrajectoryRecorder(np.int64(3)).sample_every == 3


def _flat_dde(**fields):
    base = dict(kind="dde", dim=1, tau=1.0, rhs=lambda t, v: 0.0, phi0=np.zeros_like)
    return Problem(**{**base, **fields})


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: _flat_dde(kind="ode"), "unknown problem kind 'ode'"),
        (lambda: _flat_dde(kind="semilinear_dde", dim=2, L=np.eye(3)),
         r"L must have shape \(2, 2\)"),
        (lambda: integrate(_flat_dde(rhs=lambda t, v: np.zeros(2)), builtin("heun"), 0.5, 1.0),
         r"rhs returned shape \(2,\), expected \(1,\)"),
        (lambda: integrate(dataclasses.replace(daphnia(), rhs=lambda t, b, s: (np.zeros(2), 0.0)),
                           builtin("heun"), 0.5, 1.0),
         r"rhs \(RE component\) returned shape \(2,\), expected \(1,\)"),
        (lambda: integrate(dataclasses.replace(daphnia(), rhs=lambda t, b, s: (0.0, np.zeros(3))),
                           builtin("heun"), 0.5, 1.0),
         r"rhs \(DDE component\) returned shape \(3,\), expected \(1,\)"),
        (lambda: _flat_dde(kind="semilinear_dde"), "semilinear problems require the matrix L"),
        (lambda: TrajectoryRecorder(0), "sample_every must be >= 1"),
    ],
)
def test_stepper_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_divergence_reports_step_and_stage():
    def rhs(t, v):
        return np.array([np.nan]) if t >= 0.3 else np.zeros(1)

    prob = Problem(
        kind="dde",
        dim=1,
        tau=1.0,
        rhs=rhs,
        phi0=lambda th: np.ones(np.shape(th)),
        name="nanny",
    )
    with pytest.raises(IntegrationDiverged) as err:
        integrate(prob, builtin("heun"), 0.1, 1.0)
    assert err.value.step_index == 2  # first step whose stage times reach 0.3
    assert err.value.stage_index == 2
    assert "stage" in str(err.value)


def _stage_values_problem(first, second):
    # rhs value `first` at stage 1 of the first step, `second` at stage 2
    return Problem(
        kind="dde",
        dim=3,
        tau=1.0,
        rhs=lambda t, v: np.full(3, first if t == 0.0 else second),
        phi0=lambda th: np.ones((np.size(th), 3)),
        name="near_overflow",
    )


def test_finite_values_near_overflow_pass():
    # a check that sums the values would overflow here and misreport
    state = integrate(_stage_values_problem(1e308, 0.0), builtin("heun"), 0.1, 0.1)
    assert np.all(np.isfinite(state.head)) and state.head[0] > 1e306


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_stage_value_names_its_stage(bad):
    with pytest.raises(IntegrationDiverged) as err:
        integrate(_stage_values_problem(1e308, bad), builtin("heun"), 0.1, 0.1)
    assert err.value.step_index == 0
    assert err.value.stage_index == 2


@pytest.mark.parametrize("kind", ["re", "dde", "semilinear_dde"])
def test_overflowing_update_names_its_stage(kind):
    # finite stage values whose update row overflows: an RE segment is
    # checked as a DDE head is, and a semilinear plan applies h after the
    # weighted sum, as the other plans do
    L = -np.eye(3) if kind == "semilinear_dde" else None
    prob = dataclasses.replace(_stage_values_problem(-1.5e308, 1.5e308), kind=kind, L=L)
    # inf * 0 inside a semilinear row's matrix product is numpy's "invalid"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(IntegrationDiverged) as err:
        integrate(prob, builtin("heun"), 0.5, 0.5)
    assert err.value.step_index == 0
    assert err.value.stage_index == 2


@pytest.mark.parametrize("make", [belzen, quadratic_re, daphnia])
def test_refused_append_is_divergence_at_the_update_stage(monkeypatch, make):
    # the append's check is the step's update check: its ValueError ends the
    # step at stage nu
    def refuse(self, coeffs, head=None, **_):
        raise ValueError("segment refused")

    monkeypatch.setattr(HistoryState, "shift_append", refuse)
    tab = builtin("expo3")
    with pytest.raises(IntegrationDiverged, match="segment refused") as err:
        integrate(make(), tab, 0.5, 1.0)
    assert err.value.step_index == 0
    assert err.value.stage_index == tab.nu


def _appends(prob, tab, h, T, trusted):
    """integrate's final state and every state its appends made, each append
    forwarding the stepper's flags to ``shift_append`` or, untrusted, none."""
    real, made = HistoryState.shift_append, []

    def append(self, coeffs, head=None, **flags):
        assert flags == {"_trusted": True}  # the stepper trusts its own segments
        made.append(real(self, coeffs, head=head, **(flags if trusted else {})))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(HistoryState, "shift_append", append)
        return integrate(prob, tab, h, T), made


def _semilinear3():
    from test_regression import CASES

    return CASES["semilinear3"][0]()


#: problem factories drawn from a parameter, and the k of h = tau/k that put
#: every window bound on the mesh
_TRUSTED_RUNS = {
    "belzen": (lambda p: belzen(lam=p), range(1, 13)),
    "quadratic_re": (lambda p: quadratic_re(gamma=3.5 + 2.0 * p), (3, 6, 9, 12)),
    "daphnia": (lambda p: daphnia(beta=3.02 * p), (4, 8, 12)),
    "semilinear3": (lambda p: dataclasses.replace(_semilinear3(), L=p * _semilinear3().L),
                    range(1, 13)),
}


@given(
    name=st.sampled_from(sorted(_TRUSTED_RUNS)),
    method=st.sampled_from(builtin_names()),
    param=st.floats(0.25, 2.0),
    k_index=st.integers(0, 11),
    steps=st.integers(1, 12),
)
@settings(deadline=None, max_examples=60)
def test_trusted_appends_change_no_number_and_let_no_bad_segment_through(
    name, method, param, k_index, steps
):
    make, ks = _TRUSTED_RUNS[name]
    prob, tab = make(param), builtin(method)
    h = prob.tau / ks[k_index % len(ks)]
    final, made = _appends(prob, tab, h, steps * h, trusted=True)
    final_checked, made_checked = _appends(prob, tab, h, steps * h, trusted=False)
    state = initial_state(prob, h)
    for n in range(steps):
        state = step(prob, tab, state, n * h)
    assert len(made) == len(made_checked) == steps * (2 if name == "daphnia" else 1)
    # bit for bit: each append as the checked run's, the final state as a step loop's
    for new, old in [*zip(made, made_checked), (final, final_checked), (final, state)]:
        for a, b in zip(new if isinstance(new, tuple) else (new,),
                        old if isinstance(old, tuple) else (old,)):
            assert a.coefficients().tobytes() == b.coefficients().tobytes()
            assert (a.head is None and b.head is None) or a.head.tobytes() == b.head.tobytes()
    for new in made:  # each passes every check of a public append of its own newest segment
        new._check_window()
        new.shift_append(new.coefficients()[-1], head=new.head)


def _spoil_updates(monkeypatch, spoil):
    """Make every step plan's rules hand ``spoil(coeffs, head)`` at the update
    row, the rows of a before it left as they are."""
    plan = stepper._plan

    def spoiled(components, tab, h):
        def wrap(rule):
            def bad(state, f, i):
                coeffs, head = rule(state, f, i)
                return spoil(coeffs.copy(), head) if i == tab.nu else (coeffs, head)
            return bad
        return tuple(wrap(rule) for rule in plan(components, tab, h))

    monkeypatch.setattr(stepper, "_plan", spoiled)


def _inf_coefficient(coeffs, head):  # a DDE head stays finite
    coeffs[0, 3] = np.inf
    return coeffs, head


def _nan_head(coeffs, head):  # an RE segment stays as it is
    if head is not None:
        head = np.array(head)
        head[-1] = np.nan
    return coeffs, head


def _nan_re_row_sum(coeffs, head):  # a DDE segment stays as it is
    if head is None:
        coeffs[-1, 1] = np.nan
    return coeffs, head


@pytest.mark.parametrize(
    "make, spoil",
    [(belzen, _inf_coefficient), (quadratic_re, _inf_coefficient),
     (_semilinear3, _inf_coefficient), (daphnia, _inf_coefficient),
     (belzen, _nan_head), (_semilinear3, _nan_head), (daphnia, _nan_head),
     (quadratic_re, _nan_re_row_sum), (daphnia, _nan_re_row_sum)],
)
def test_a_spoiled_update_is_divergence_at_the_update_stage(monkeypatch, make, spoil):
    # the stepper's appends keep the theta = 0 rule: finite row sums and a finite head
    _spoil_updates(monkeypatch, spoil)
    prob, tab, h = make(), builtin("expo3"), 0.5
    with pytest.raises(IntegrationDiverged, match="is not finite at theta = 0") as err:
        integrate(prob, tab, h, 2 * h)
    assert (err.value.step_index, err.value.stage_index) == (0, tab.nu)
    with pytest.raises(IntegrationDiverged, match="is not finite at theta = 0") as err:
        step(prob, tab, initial_state(prob, h), 0.0)
    assert (err.value.step_index, err.value.stage_index) == (None, tab.nu)


@pytest.mark.parametrize("make", [belzen, _semilinear3, daphnia])
def test_a_stepped_head_is_read_only(make):
    prob, tab, h = make(), builtin("expo3"), 0.5
    for final in (integrate(prob, tab, h, 2 * h), step(prob, tab, initial_state(prob, h), 0.0)):
        head = (final[-1] if isinstance(final, tuple) else final).head
        assert not head.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            head[0] = 0.0


def test_stage_shift_that_underflows_is_refused():
    # c_2 in (0, 1], but c_2 h is 0.0: the plan names it before any stage
    # view with a zero-width overlay reaches the rhs.  A Tableau refuses a
    # subnormal node, so the smallest normal node meets a tiny mesh here
    c2, h = sys.float_info.min, 2.0**-1002
    tab = Tableau(name="tiny", c=(0.0, c2), a=(((), ()), (((1, c2),), ())),
                  b=(((1, 1.0),), ()), declared_order=1)
    prob = dataclasses.replace(belzen(), tau=4 * h, rhs=lambda t, v: -v.eval(0.0))
    for call in (lambda: integrate(prob, tab, h, 2 * h),
                 lambda: step(prob, tab, initial_state(prob, h), 0.0)):
        with pytest.raises(ValueError, match=f"stage shift c h underflows to 0 at h = {h}"):
            call()


def test_unknown_kind_is_refused_before_rhs():
    # a duck-typed problem whose fields declare one DDE component
    calls = []
    prob = types.SimpleNamespace(
        kind="foo", dim=1, tau=1.0, L=None, distributed_limits=(),
        phi0=lambda th: np.ones(np.shape(th)), rhs=lambda t, v: calls.append(t),
    )
    state = initial_state(prob, 0.25)
    for call in (lambda: step(prob, builtin("heun"), state, 0.0),
                 lambda: integrate(prob, builtin("heun"), 0.25, 0.5)):
        with pytest.raises(ValueError, match="unknown problem kind 'foo'"):
            call()
    assert calls == []


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: Problem(kind="dde", dim=2.0, tau=1.0, rhs=lambda t, v: v.head,
                         phi0=lambda th: np.ones((np.size(th), 2))), "dim must be an integer, got 2.0"),
        (lambda: dataclasses.replace(daphnia(), dim_re=1.5), "dim_re must be an integer, got 1.5"),
    ],
    ids=["problem_dim", "coupled_dim_re"],
)
def test_problem_dims_must_be_integers(make, match):
    # refused at construction, not inside numpy when the problem is integrated
    with pytest.raises(TypeError, match=match):
        make()


def test_observed_values_shapes():
    dde = initial_state(belzen(1.0), 0.1)
    assert observed_values(dde).shape == (1,)
    pair = initial_state(daphnia(), 0.5)
    vals = observed_values(pair)
    assert vals.shape == (2,)
    np.testing.assert_allclose(vals, [0.7, 0.35], atol=1e-14)


def test_locality_no_access_beyond_domain():
    # a right-hand side probing past -tau must fail loudly
    prob = Problem(
        kind="dde",
        dim=1,
        tau=1.0,
        rhs=lambda t, v: v.eval(-1.2),
        phi0=lambda th: np.ones(np.shape(th)),
        name="greedy",
    )
    with pytest.raises(ValueError):
        integrate(prob, builtin("expeuler"), 0.1, 0.5)


# ---------------------------------------------------------------------------
# step plans: per-row overlay constants built once per (tableau, h)
# ---------------------------------------------------------------------------


def _plan_components(make, h):
    prob = make()
    state = initial_state(prob, h)
    return prob, state if isinstance(state, tuple) else (state,)


@pytest.mark.parametrize("name", ["expeuler", "heun", "expo3"])
@pytest.mark.parametrize("make", [belzen, quadratic_re, daphnia], ids=["dde", "re", "coupled"])
def test_plan_overlays_match_the_unfolded_rules(make, name, rng):
    tab, h = builtin(name), 0.05
    prob, states = _plan_components(make, h)
    plan = stepper._plan(stepper._components(prob, h), tab, h)
    for j, state in enumerate(states):
        F = rng.normal(size=(tab.nu, state.dim)) * 10.0 ** rng.integers(-3, 4, size=(tab.nu, 1))
        for i, (c, W) in enumerate(zip((*tab.c, 1.0), tab.weights)):
            if c == 0.0:
                continue  # a row at c = 0 has no terms and no overlay
            u = W.T @ F
            want = np.zeros((state.dim, 4))
            for k in range(1, len(u)):
                if state.kind == "dde":
                    want[:, k] = h * u[k] / math.factorial(k)
                else:
                    want[:, k - 1] = u[k] / (c * math.factorial(k - 1))
            if state.kind == "dde":
                want[:, 0] = state.head
            coeffs, head = plan[j](state, F, i)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(coeffs - want)) <= 1e-15 * scale
            if state.kind == "dde":
                assert np.array_equal(head, coeffs.sum(axis=1))
            else:
                assert head is None


@pytest.mark.parametrize(
    "make", [belzen, quadratic_re, daphnia, _semilinear2], ids=["dde", "re", "coupled", "semilinear"]
)
def test_plan_is_one_rule_per_component_in_state_order(make):
    tab, h = builtin("heun"), 0.1
    prob, states = _plan_components(make, h)
    plan = stepper._plan(stepper._components(prob, h), tab, h)
    assert isinstance(plan, tuple) and len(plan) == len(states)
    if prob.kind != "semilinear_dde":
        assert plan == tuple(stepper._step_plan(tab, h)[state.kind] for state in states)
    for rule, state in zip(plan, states):
        # the update row: a cubic per component, and a head for DDE components only
        coeffs, head = rule(state, np.ones((tab.nu, state.dim)), tab.nu)
        assert coeffs.shape == (state.dim, 4)
        assert head is None if state.kind == "re" else head.shape == (state.dim,)


def _non_normal(d, norm, h, rng):
    """A stable d x d L, non-normal for d > 1, with ||h L||_1 = norm."""
    L = 3.0 * np.triu(rng.normal(size=(d, d)), 1) - np.diag(rng.uniform(1.0, 10.0, d))
    return L * (norm / np.abs(h * L).sum(axis=0).max())


@pytest.mark.parametrize("hl_norm", [1.0, 10.0, 100.0, 1000.0])
@pytest.mark.parametrize("d", [1, 3, 20])
@pytest.mark.parametrize("name", ["expeuler", "heun", "expo3"])
def test_semilinear_plan_matches_sample_then_interpolate(name, d, hl_norm, rng):
    # the folded per-row matrices against the phi matrices applied one
    # Lobatto sample at a time, then interpolated
    tab, h = builtin(name), 0.1
    prob = Problem(
        kind="semilinear_dde",
        dim=d,
        tau=1.0,
        rhs=lambda t, v: np.zeros(d),
        phi0=lambda th: np.cos(np.asarray(th)[..., None] + np.arange(d)),
        L=_non_normal(d, hl_norm, h, rng),
    )
    state = initial_state(prob, h)
    plan = stepper._plan(stepper._components(prob, h), tab, h)
    F = rng.normal(size=(tab.nu, d)) * 10.0 ** rng.integers(-3, 4, size=(tab.nu, 1))
    for i, c in enumerate((*tab.c, 1.0)):
        if c == 0.0:
            continue
        coeffs, head = plan[0](state, F, i)
        want_coeffs, want_head = semilinear_overlay(prob.L, tab, h, state.head, F, i)
        scale = max(np.max(np.abs(want_coeffs)), np.max(np.abs(want_head)))
        assert np.max(np.abs(coeffs - want_coeffs)) <= 1e-13 * scale
        assert np.max(np.abs(head - want_head)) <= 1e-13 * scale


@pytest.mark.parametrize("name", ["expeuler", "heun", "expo3"])
@pytest.mark.parametrize(
    "make", [belzen, quadratic_re, daphnia, _semilinear2], ids=["dde", "re", "coupled", "semilinear"]
)
def test_step_without_plan_matches_integrate(make, name):
    prob, tab, h = make(), builtin(name), 0.1
    state = initial_state(prob, h)
    for n in range(15):
        state = step(prob, tab, state, n * h)
    final = integrate(prob, tab, h, 15 * h)
    pairs = zip(state, final) if isinstance(state, tuple) else [(state, final)]
    for got, want in pairs:
        assert np.array_equal(got.coefficients(), want.coefficients())
        assert (got.head is None and want.head is None) or np.array_equal(got.head, want.head)


def _run_states(make, tab, h, steps):
    final = integrate(make(), tab, h, steps * h)
    return [(s.coefficients().tobytes(), s.head) for s in (final if isinstance(final, tuple) else (final,))]


@pytest.mark.parametrize("make", [belzen, quadratic_re, daphnia], ids=["dde", "re", "coupled"])
def test_cold_and_warm_step_plan_cache_give_the_same_run(make):
    tab, h = builtin("expo3"), 0.05
    stepper._step_plan.cache_clear()
    cold = _run_states(make, tab, h, 20)
    # an equal tableau that is another object, on a warm cache
    warm = _run_states(make, dataclasses.replace(tab), h, 20)
    assert stepper._step_plan.cache_info().hits > 0
    for (c0, h0), (c1, h1) in zip(cold, warm):
        assert c0 == c1
        assert (h0 is None and h1 is None) or h0.tobytes() == h1.tobytes()


def test_step_plan_cache_stays_within_its_bound():
    prob, tab = belzen(), builtin("heun")
    bound = stepper._step_plan.cache_info().maxsize
    assert bound is not None
    for k in range(1, bound + 10):
        h = 1.0 / k
        step(prob, tab, initial_state(prob, h), 0.0)
    assert stepper._step_plan.cache_info().currsize <= bound


def test_tableau_written_with_lists_keys_the_step_plan_cache():
    # its coefficients are stored as tuples, so it equals its tuple twin,
    # hashes like it and shares its cached plan
    listed = Tableau(name="listed", c=[0.0], a=[[[]]], b=[[[1, 1.0]]], declared_order=1)
    twin = Tableau(name="listed", c=(0.0,), a=(((),),), b=(((1, 1.0),),), declared_order=1)
    assert listed == twin and hash(listed) == hash(twin)
    prob, h = belzen(), 0.1
    stepper._step_plan.cache_clear()
    plan = stepper._step_plan(twin, h)
    assert stepper._step_plan(listed, h) is plan
    assert stepper._step_plan.cache_info().hits == 1
    got = integrate(prob, listed, h, 1.0)
    want = integrate(prob, builtin("expeuler"), h, 1.0)
    assert np.array_equal(got.coefficients(), want.coefficients())
    assert np.array_equal(got.head, want.head)


@pytest.mark.parametrize(
    "make, field",
    [
        (belzen, "overlay_coeffs"),
        (belzen, "head"),
        (quadratic_re, "overlay_coeffs"),  # an RE view has no head
        (daphnia, "overlay_coeffs"),
        (daphnia, "head"),
    ],
)
def test_stage_views_are_read_only(make, field):
    prob = make()
    seen = []

    def writer(t, *views):
        for view in views:
            if isinstance(view, StageView) and getattr(view, field) is not None:
                seen.append(view)
                getattr(view, field)[0] = 0.0
        return prob.rhs(t, *views)

    with pytest.raises(ValueError, match="read-only"):
        integrate(dataclasses.replace(prob, rhs=writer), builtin("heun"), 0.1, 0.2)
    assert seen


@pytest.mark.parametrize("value", [1j, np.array([0.5 + 0.0j])])
def test_complex_rhs_value_raises(value):
    prob = Problem(
        kind="dde",
        dim=1,
        tau=1.0,
        rhs=lambda t, v: -v.head + value,
        phi0=lambda th: np.ones(np.shape(th)),
    )
    with pytest.raises(TypeError, match="rhs returned complex values"):
        integrate(prob, builtin("heun"), 0.1, 0.1)


def test_complex_coupled_rhs_value_names_its_component():
    prob = daphnia()

    def rhs(t, re, dde):
        b, x = prob.rhs(t, re, dde)
        return b, x + 0j

    with pytest.raises(TypeError, match=r"rhs \(DDE component\) returned complex values"):
        integrate(dataclasses.replace(prob, rhs=rhs), builtin("heun"), 0.1, 0.1)
