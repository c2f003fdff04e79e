import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

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
from expdelay.stepper import (
    semilinear_plan,
    step_coupled,
    step_dde,
    step_re,
    step_semilinear_dde,
)

from conftest import smooth_dde_state, smooth_re_state
from oracles import phi_dde_weight, phi_re_weight


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
    new = step_dde(prob, builtin(name), state, t)

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
    new = step_re(prob, builtin(name), state, t)

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
    step = step_dde if kind == "dde" else step_re
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
    new = step_dde(prob, builtin("expeuler"), state, 0.0)
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
    new = step_dde(prob, builtin("heun"), state, 0.0)
    assert new.head[0] == pytest.approx(y + 0.5 * h * (F1 + F2), abs=1e-13)


def test_re_euler_step_from_fixed_point_history():
    from expdelay import quadratic_re

    prob = quadratic_re(4.0)
    h = 0.005
    state = initial_state(prob, h)
    new = step_re(prob, builtin("expeuler"), state, 0.0)
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
    new = step_re(prob, builtin("heun"), state, 0.0)
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
        stepped = (step_dde if kind == "dde" else step_re)(prob, tab, stepped, n * h)
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
            state = (step_dde if kind == "dde" else step_re)(prob, tab, state, t)
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
        state = step_dde(prob, tab, state, n * h)
        gap = abs(state.eval(0.0)[0] - state.head[0])
        assert gap <= 1e-12 * (1.0 + abs(state.head[0]))


def test_step_rejects_mismatched_mesh():
    # a step reads h from its state; a coupled pair on two widths has none
    pair = (_daphnia_pair(0.1)[0], _daphnia_pair(0.05)[1])
    with pytest.raises(MeshError, match=r"mesh widths \[0.1, 0.05\]"):
        step_coupled(daphnia(), builtin("heun"), pair, 0.0)


def test_step_rejects_a_pair_on_two_horizons():
    # both components of a coupled problem share one delay horizon; the
    # same width with tau = 4 and tau = 8 is two meshes
    const = lambda value: lambda th: np.full(np.shape(th), value)
    pair = (
        HistoryState.from_callable(const(0.7), "re", 1, 4.0, 0.1),
        HistoryState.from_callable(const(0.35), "dde", 1, 8.0, 0.1),
    )
    with pytest.raises(MeshError, match=r"mesh widths \[0.1, 0.1\] and horizons \[4.0, 8.0\]"):
        step_coupled(daphnia(), builtin("heun"), pair, 0.0)


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
        plain = step_dde(base, tab, plain, n * h)
        lifted = step_semilinear_dde(semi, tab, lifted, n * h)
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
    state = step_semilinear_dde(prob, builtin("expeuler"), initial_state(prob, h), 0.0)
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
    state = step_semilinear_dde(prob, builtin("expeuler"), initial_state(prob, h), 0.0)
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
    new = step_semilinear_dde(prob, tab, initial_state(prob, h), 0.3)
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
    # a step without a plan checks the state's layout before it builds one,
    # so a refused state costs no matrix exponential
    prob = Problem(
        kind="semilinear_dde",
        dim=8,
        tau=1.0,
        rhs=lambda t, v: v.eval(-1.0),
        phi0=lambda th: np.ones((np.size(th), 8)),
        L=-np.eye(8),
    )
    calls = _counting_expm(monkeypatch)
    for run in (step_semilinear_dde, stepper.step):
        with pytest.raises(error, match="state of a semilinear_dde problem must be"):
            run(prob, builtin("expo3"), make_state(prob), 0.0)
    assert calls == []
    step_semilinear_dde(prob, builtin("expo3"), initial_state(prob, 0.1), 0.0)
    assert calls == [(8, 8)] * 3


def test_other_kinds_call_no_matrix_function(monkeypatch):
    calls = _counting_expm(monkeypatch)
    integrate(belzen(), builtin("expo3"), 0.1, 1.0)
    integrate(quadratic_re(), builtin("expo3"), 0.1, 1.0)
    integrate(daphnia(), builtin("expo3"), 0.1, 1.0)
    assert calls == []


@pytest.mark.parametrize("name", ["expeuler", "heun", "expo3"])
def test_semilinear_step_without_plan_matches_integrate(name):
    prob, tab, h = _semilinear2(), builtin(name), 0.05
    state = initial_state(prob, h)
    plan = semilinear_plan(prob, tab, h)
    planned = state
    for n in range(20):
        state = step_semilinear_dde(prob, tab, state, n * h)
        planned = stepper.step(prob, tab, planned, n * h, plan)
    final = integrate(prob, tab, h, 20 * h)
    for got in (state, planned):
        assert np.array_equal(got.coefficients(), final.coefficients())
        assert np.array_equal(got.head, final.head)


def test_semilinear_plan_must_fit_the_step():
    prob, tab, h = _semilinear2(), builtin("heun"), 0.05
    plan = semilinear_plan(prob, tab, h)
    state = initial_state(prob, h)
    # an equal copy of L (as dataclasses.replace makes) still fits
    step_semilinear_dde(dataclasses.replace(prob, name="copy"), tab, state, 0.0, plan)
    other_L = dataclasses.replace(prob, L=2.0 * prob.L)
    for args in ((other_L, tab), (prob, builtin("expo3"))):
        with pytest.raises(ValueError, match="step plan"):
            step_semilinear_dde(*args, state, 0.0, plan)
    with pytest.raises(ValueError, match="step plan"):
        step_semilinear_dde(prob, tab, initial_state(prob, 0.1), 0.0, plan)


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
    new_re, new_dde = step_coupled(prob, builtin("expeuler"), pair, 0.0)
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
    b1, s1 = step_coupled(zero, builtin("expo3"), (b0, s0), 0.0)
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


def _daphnia_pair(h):
    prob = daphnia()
    return tuple(
        HistoryState.from_callable(phi0, kind, 1, prob.tau, h)
        for phi0, kind in ((prob.phi0_re, "re"), (prob.phi0_dde, "dde"))
    )


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


@pytest.mark.parametrize("kind", ["re", "dde"])
def test_overflowing_update_names_its_stage(kind):
    # finite stage values whose update row overflows: an RE segment is
    # checked as a DDE head is
    prob = dataclasses.replace(_stage_values_problem(-1.5e308, 1.5e308), kind=kind)
    with np.errstate(over="ignore"), pytest.raises(IntegrationDiverged) as err:
        integrate(prob, builtin("heun"), 0.5, 0.5)
    assert err.value.step_index == 0
    assert err.value.stage_index == 2


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
    plan = stepper._plan(prob, tab, h)
    for state in states:
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
            coeffs, head = getattr(plan, state.kind)(state, F, i)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(coeffs - want)) <= 1e-15 * scale
            if state.kind == "dde":
                assert np.array_equal(head, coeffs.sum(axis=1))
            else:
                assert head is None


@pytest.mark.parametrize("name", ["expeuler", "heun", "expo3"])
@pytest.mark.parametrize("make", [belzen, quadratic_re, daphnia], ids=["dde", "re", "coupled"])
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
    "make, tab, h",
    [
        (belzen, builtin("heun"), 0.05),  # another step width
        (belzen, builtin("expo3"), 0.1),  # another tableau
        (_semilinear2, builtin("heun"), 0.1),  # a semilinear problem needs L's plan
    ],
)
def test_step_refuses_a_plan_built_for_another_step(make, tab, h):
    plan = stepper._plan(belzen(), builtin("heun"), 0.1)
    prob = make()
    with pytest.raises(ValueError, match="step plan"):
        step(prob, tab, initial_state(prob, h), 0.0, plan)


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
