import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from expdelay import (
    HistoryState,
    MeshError,
    Problem,
    StageView,
    builtin,
    initial_state,
    integrate,
    integrate_view,
    norm_diff,
)

from conftest import smooth_re_state


def test_constant_history_evaluates_to_constant():
    state = HistoryState.from_callable(
        lambda th: np.full(np.shape(th), 2.5), "dde", 1, 2.0, 0.5
    )
    for theta in (-2.0, -1.7, -1.0, -0.25, 0.0):
        assert state.eval(theta)[0] == pytest.approx(2.5, abs=1e-14)
    assert state.head[0] == 2.5


def test_smooth_history_interpolation():
    phi = lambda th: np.exp(th) * np.sin(0.5 * np.pi * th)
    state = HistoryState.from_callable(phi, "dde", 1, 1.0, 0.25)
    # -1 is a mesh knot and an interpolation node: exact up to roundoff
    assert state.eval(-1.0)[0] == pytest.approx(-np.exp(-1.0), abs=1e-13)
    # interior points carry only the cubic interpolation error
    for theta in (-0.61, -0.38, -0.13):
        assert state.eval(theta)[0] == pytest.approx(float(phi(theta)), abs=1e-4)


def test_eval_outside_domain_raises(dde_state):
    with pytest.raises(ValueError):
        dde_state.eval(-1.5)
    with pytest.raises(ValueError):
        dde_state.eval(0.5)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="outside"):
            dde_state.eval(bad)
    for a, b in ((np.nan, 0.0), (-0.5, np.nan), (-np.inf, 0.0), (-0.5, np.inf)):
        with pytest.raises(ValueError, match="outside"):
            integrate_view(dde_state, a, b, lambda th, x: x[:, 0])
    # a stage view is range-checked as a state, not clamped to its head
    view = StageView(dde_state, 0.125, np.ones((1, 4)), head=[4.0])
    for bad in (0.5, np.inf, -np.inf, np.nan, 2e-9, -1.0 - 2e-9):
        with pytest.raises(ValueError, match="outside"):
            view.eval(bad)


def test_tiling_and_breakpoints(dde_state):
    assert dde_state.n_segments == 4
    assert dde_state.coefficients().shape == (4, 1, 4)
    np.testing.assert_allclose(
        dde_state.breakpoints(), [-1.0, -0.75, -0.5, -0.25, 0.0], atol=0
    )


def test_dde_head_continuity_enforced():
    coeffs = np.zeros((2, 1, 4))
    coeffs[:, 0, 0] = 1.0
    HistoryState("dde", 1, 1.0, 0.5, coeffs, head=[1.0])
    with pytest.raises(ValueError):
        HistoryState("dde", 1, 1.0, 0.5, coeffs, head=[2.0])


def test_mesh_ratio_must_be_integer():
    coeffs = np.zeros((3, 1, 4))
    with pytest.raises(ValueError):
        HistoryState("re", 1, 1.0, 0.3, coeffs)


def test_shift_append_dde():
    state = HistoryState.from_callable(
        lambda th: np.full(np.shape(th), 1.0), "dde", 1, 1.0, 0.5
    )
    new = state.shift_append([[1.0, 1.0, 0.0, 0.0]], head=[2.0])  # ramps 1 -> 2
    assert new.head[0] == 2.0
    assert new.eval(0.0)[0] == pytest.approx(2.0, abs=1e-15)
    assert new.eval(-0.75)[0] == pytest.approx(1.0, abs=1e-15)  # shifted old data
    # old state untouched (value semantics)
    assert state.head[0] == 1.0


def test_shift_append_contract_violations(dde_state, re_state):
    seg = np.array([[1.0, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        dde_state.shift_append(seg)  # missing head
    with pytest.raises(ValueError):
        dde_state.shift_append(seg, head=[5.0])  # head mismatch
    with pytest.raises(ValueError):
        re_state.shift_append(seg, head=[1.0])  # RE states carry no head
    with pytest.raises(ValueError):
        re_state.shift_append(np.zeros((1, 3)))  # not a (dim, 4) cubic


def test_re_left_limit_at_knots():
    # two segments with a genuine jump at the knot: left limit wins
    coeffs = np.zeros((2, 1, 4))
    coeffs[0, 0, 0] = 1.0  # constant 1 on [-1, -0.5]
    coeffs[1, 0, 0] = 3.0  # constant 3 on [-0.5, 0]
    state = HistoryState("re", 1, 1.0, 0.5, coeffs)
    assert state.eval(-0.5)[0] == 1.0
    assert state.eval(-0.49999)[0] == 3.0
    assert state.eval(0.0)[0] == 3.0


def test_stage_view_composition_rule(dde_state):
    h = dde_state.h
    shift = 0.5 * h
    overlay = np.array([[0.2, 0.1, -0.3, 0.0]])
    view = StageView(dde_state, shift, overlay, head=overlay.sum(axis=1))
    np.testing.assert_allclose(
        view.eval(-h), dde_state.eval(-0.5 * h), atol=1e-15
    )


def test_stage_view_matches_manual_composition(dde_state, rng):
    shift = 2.0 / 3.0 * dde_state.h
    overlay = np.array([[0.4, -0.2, 0.05, 0.01]])
    view = StageView(dde_state, shift, overlay, head=overlay.sum(axis=1))
    thetas = rng.uniform(-dde_state.tau, 0.0, size=100)
    got = view.eval_many(thetas)
    for theta, val in zip(thetas, got):
        if theta >= -shift:
            r = (theta + shift) / shift
            want = np.polyval(overlay[0, ::-1], r)
        else:
            want = dde_state.eval(theta + shift)[0]
        assert abs(val[0] - want) <= 1e-14 * (1.0 + abs(want))


def test_stage_view_head_contract(re_state):
    # the same head rules and errors as HistoryState
    dde2 = HistoryState.from_callable(
        lambda th: np.stack([np.cos(th), np.sin(th)], axis=-1), "dde", 2, 1.0, 0.25
    )
    overlay = np.zeros((2, 4))
    with pytest.raises(ValueError, match="require a head"):
        StageView(dde2, 0.25, overlay)
    with pytest.raises(ValueError, match=r"head must have shape \(2,\)"):
        StageView(dde2, 0.25, overlay, head=[1.0])
    assert StageView(dde2, 0.25, overlay, head=[1.0, 2.0]).head.shape == (2,)
    with pytest.raises(ValueError, match="carry no head"):
        StageView(re_state, 0.25, np.zeros((1, 4)), head=[1.0])
    assert StageView(re_state, 0.25, np.zeros((1, 4))).head is None


@settings(deadline=None, max_examples=200)
@given(
    st.sampled_from([0.1, 1.0 / 3.0, 0.01, 0.7]),
    st.integers(min_value=1, max_value=50),
    st.one_of(
        st.sampled_from([0.5, 2.0 / 3.0, 1.0]),
        st.floats(min_value=0.01, max_value=0.99),
    ),
)
@example(0.1, 30, 1.0)  # tau = 3
@example(1.0 / 3.0, 3, 2.0 / 3.0)  # tau = 1
@example(0.1, 3, 0.5)  # tau = 0.3
def test_stage_view_breakpoints(h, n, c):
    # tau is the decimal the user writes, so n * h matches it only to rounding
    tau = round(n * h, 9)
    base = HistoryState("re", 1, tau, h, np.zeros((n, 1, 4)))
    knots = StageView(base, c * h, np.zeros((1, 4))).breakpoints()
    assert np.all(np.diff(knots) > 0.0)
    assert knots[0] == -base.tau
    assert knots[-1] == 0.0
    if n > 1 or c < 1.0:  # else -h is the knot -tau itself
        assert -(c * h) in knots
    assert len(knots) == (n + 1 if c == 1.0 else n + 2)


def _mesh_problem(tau, limits=()):
    return Problem(
        kind="dde",
        dim=1,
        tau=tau,
        rhs=lambda t, v: np.zeros(1),
        phi0=lambda th: np.zeros(np.shape(th)),
        distributed_limits=limits,
    )


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from([0.1, 1.0 / 3.0, 0.01, 0.7, 2e-5]),
    st.integers(min_value=1, max_value=60),
)
@example(0.1, 30)  # tau = 3
@example(1.0 / 3.0, 3)  # tau = 1
def test_one_mesh_rule(h, n):
    # tau is the decimal the user writes, so n * h matches it only to rounding
    tau = round(n * h, 9)
    tol = 1e-9 * max(1.0, tau)
    state = HistoryState("re", 1, tau, h, np.zeros((n, 1, 4)))
    assert state.n_segments == n
    # on the mesh: tau, and every bound -k h; half a step off: rejected
    with pytest.raises(MeshError):
        HistoryState("re", 1, tau + h / 2, h, np.zeros((n, 1, 4)))
    with pytest.raises(MeshError):
        integrate(_mesh_problem(tau + h / 2), builtin("heun"), h, h)
    for k in range(n + 1):
        initial_state(_mesh_problem(tau, (-round(k * h, 9),)), h)
        if k < n:
            with pytest.raises(MeshError):
                initial_state(_mesh_problem(tau, (-(k + 0.5) * h,)), h)
    # inside [-tau, 0]: one band for lookups, windows and declared bounds
    for lo, hi in ((-tau - tol / 2, 0.0), (-tau, tol / 2)):
        assert np.all(np.isfinite(state.eval_many(np.array([lo, hi]))))
        integrate_view(state, lo, hi, lambda th, x: x[:, 0])
        _mesh_problem(tau, (lo, hi))
    beyond = (-tau - 2 * tol, 2 * tol, np.nan)
    windows = ((-tau - 2 * tol, 0.0), (-tau, 2 * tol), (np.nan, 0.0))
    for bad, (lo, hi) in zip(beyond, windows):
        with pytest.raises(ValueError, match="outside"):
            state.eval_many(np.array([bad]))
        with pytest.raises(ValueError, match="outside"):
            integrate_view(state, lo, hi, lambda th, x: x[:, 0])
        with pytest.raises(ValueError, match="outside"):
            _mesh_problem(tau, (bad,))


def test_j_integrate_constant():
    state = HistoryState.from_callable(
        lambda th: np.full(np.shape(th), 2.5), "re", 1, 2.0, 0.5
    )
    for theta in (-2.0, -1.3, -0.4, 0.0):
        assert state.j_integrate(theta)[0] == pytest.approx(
            abs(theta) * 2.5, abs=1e-13
        )


def test_j_integrate_linear_ramp():
    state = HistoryState.from_callable(lambda th: th, "re", 1, 1.0, 1.0)
    val = state.j_integrate(-1.0)[0]
    assert val == pytest.approx(-0.5, abs=1e-14)
    assert abs(val) == pytest.approx(0.5, abs=1e-14)


def test_j_integrate_requires_re_kind(dde_state):
    with pytest.raises(ValueError):
        dde_state.j_integrate(-0.5)


def test_j_integrate_array_argument(re_state):
    thetas = np.array([-1.5, -0.7, -0.1])
    vals = re_state.j_integrate(thetas)
    assert vals.shape == (3, 1)
    for theta, val in zip(thetas, vals):
        assert val[0] == pytest.approx(re_state.j_integrate(theta)[0], abs=0)


@settings(deadline=None, max_examples=50)
@given(
    st.floats(min_value=-2.0, max_value=-1e-3),
    st.floats(min_value=-2.0, max_value=-1e-3),
)
def test_j_integrate_additive_against_quadrature(t1, t2):
    state = smooth_re_state()
    lo, hi = min(t1, t2), max(t1, t2)
    if hi - lo < 1e-6:
        return
    window = integrate_view(state, lo, hi, lambda th, x: x)
    diff = state.j_integrate(lo) - state.j_integrate(hi)
    assert window[0] == pytest.approx(diff[0], abs=1e-12)


def test_norm_diff_exact_polynomial_is_zero():
    poly = lambda th: 0.3 + 0.2 * th - 0.7 * th**2 + 0.05 * th**3
    state = HistoryState.from_callable(poly, "dde", 1, 1.0, 0.25)
    assert norm_diff(state, poly, "sup") <= 1e-14
    assert norm_diff(state, poly, "l1") <= 1e-14


def test_norm_diff_constant_offset():
    state = HistoryState.from_callable(
        lambda th: np.zeros(np.shape(th)), "re", 1, 3.0, 0.5
    )
    one = lambda th: np.ones(np.shape(th))
    assert norm_diff(state, one, "l1") == pytest.approx(3.0, abs=1e-12)
    assert norm_diff(state, one, "sup") == pytest.approx(1.0, abs=1e-14)


def test_norm_diff_rejects_unknown_norm(dde_state):
    with pytest.raises(ValueError):
        norm_diff(dde_state, lambda th: np.zeros(np.shape(th)), "l2")


def test_integrated_state_after_one_euler_re_step():
    # From a constant density history, one exponential-Euler step gives
    # (hand-integrating the density update, orientation int_theta^0):
    #   u(theta) = -theta F               on [-h, 0]
    #   u(theta) = -(h+theta) phi + h F   on [-tau, -h)
    from expdelay import Problem, builtin
    from expdelay.stepper import step_re

    phi_c, tau, h = 0.6, 1.0, 0.25
    F_val = -0.9
    prob = Problem(
        kind="re",
        dim=1,
        tau=tau,
        rhs=lambda t, v: np.array([F_val]),
        phi0=lambda th: np.full(np.shape(th), phi_c),
        name="const",
    )
    state = HistoryState.from_callable(prob.phi0, "re", 1, tau, h)
    new = step_re(prob, builtin("expeuler"), state, 0.0, h)
    for theta in (-0.2, -0.1, 0.0):
        assert new.j_integrate(theta)[0] == pytest.approx(-theta * F_val, abs=1e-14)
    for theta in (-1.0, -0.7, -0.3):
        want = -(h + theta) * phi_c + h * F_val
        assert new.j_integrate(theta)[0] == pytest.approx(want, abs=1e-14)
