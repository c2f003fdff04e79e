import copy
import dataclasses
import pickle
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from expdelay import (
    CoupledProblem,
    HistoryState,
    MeshError,
    Problem,
    StageView,
    belzen,
    builtin,
    converge,
    initial_state,
    integrate,
    integrate_view,
    norm_diff,
    quadratic_re,
    step,
)
from expdelay.harness import _integrated_errors

from conftest import smooth_re_state
from oracles import project_per_segment


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


def test_eval_outside_domain_raises(dde_state, re_state):
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
    for bad in (0.5, -2.5, np.nan):
        with pytest.raises(ValueError, match="outside"):
            re_state.j_integrate(bad)


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
    # a NaN head or segment is a mismatch, not a comparison that passes
    state = initial_state(belzen(), 0.25)
    with pytest.raises(ValueError, match=r"head \[nan\]"):
        HistoryState("dde", 1, 1.0, 0.25, state.coefficients(), head=[np.nan])
    with pytest.raises(ValueError, match=r"head \[nan\]"):
        state.shift_append(np.full((1, 4), np.nan), head=[np.nan])


@pytest.mark.parametrize(
    "kind, bad, head",
    [("re", np.nan, None), ("re", np.inf, None), ("dde", np.inf, np.inf), ("dde", np.inf, 1.0)],
)
def test_non_finite_append_is_refused(kind, bad, head):
    # as the constructor refuses it; an inf segment also fails with a finite head
    state = HistoryState.from_callable(lambda th: np.ones(np.shape(th)), kind, 1, 1.0, 0.25)
    with pytest.raises(ValueError, match="is not finite"):
        state.shift_append([[1.0, 0.0, 0.0, bad]], head=None if head is None else [head])


@pytest.mark.parametrize("entry", ["shift_append", "constructor"])
def test_overflowing_segment_sum_names_the_mismatch(entry):
    # finite coefficients whose value at theta = 0 overflows to inf: the
    # named mismatch, with no numpy overflow warning on the way to it
    newest = [[1e308, 1e308, 0.0, 0.0]]
    state = HistoryState.from_callable(lambda th: np.zeros(np.shape(th)), "dde", 1, 1.0, 0.25)
    with pytest.raises(ValueError, match=r"newest segment's value \[inf\]"):
        if entry == "shift_append":
            state.shift_append(newest, head=[1e308])
        else:
            coeffs = np.concatenate((state.coefficients()[1:], [newest]))
            HistoryState("dde", 1, 1.0, 0.25, coeffs, head=[1e308])


def test_overflowing_re_segment_is_refused():
    # finite coefficients whose value at theta = 0 overflows: an RE append
    # is held to the rule that a DDE append's continuity check implies, and
    # stores no segment that evaluates to inf
    state = HistoryState.from_callable(lambda th: np.zeros(np.shape(th)), "re", 1, 1.0, 0.25)
    with pytest.raises(ValueError, match="is not finite"):
        state.shift_append([[1e308, 1e308, 0.0, 0.0]])


def test_history_dim_must_be_an_integer(re_state):
    with pytest.raises(TypeError, match="dim must be an integer, got 1.5"):
        HistoryState("re", 1.5, 2.0, 0.25, re_state.coefficients())


@pytest.mark.parametrize("kind", ["dde", "re"])
def test_non_finite_history_fails_when_built(kind):
    # an input error, not a divergence at step 0: the state names the segment
    prob = Problem(
        kind=kind, dim=1, tau=1.0, rhs=lambda t, v: np.zeros(1),
        phi0=lambda th: np.where(th < -0.5, np.nan, 1.0),
    )
    with pytest.raises(ValueError, match=r"history segment 0 on \[-1.0, -0.75\] is not finite"):
        initial_state(prob, 0.25)
    coeffs = np.zeros((4, 1, 4))
    coeffs[2, 0, 3] = np.inf
    head = None if kind == "re" else [0.0]
    with pytest.raises(ValueError, match=r"history segment 2 on \[-0.5, -0.25\] is not finite"):
        HistoryState(kind, 1, 1.0, 0.25, coeffs, head=head)


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


def _appended(window, seg):
    # the shift-semigroup advance written as a plain copy: the oracle
    return np.concatenate([window[1:], seg[None]])


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([1, 2, 5]),
    st.lists(st.tuples(st.booleans(), st.integers(min_value=0)), max_size=40),
)
def test_log_appends_match_concatenate(n, picks):
    # a random tree of appends: from the newest state (the log grows in
    # place, fills and regrows) or from any earlier one (a branch)
    rng = np.random.default_rng(n)
    root = HistoryState("re", 2, 0.5 * n, 0.5, rng.standard_normal((n, 2, 4)))
    states = [root]
    oracle = [root.coefficients().tobytes()]
    for newest, i in picks:
        parent = len(states) - 1 if newest else i % len(states)
        seg = rng.standard_normal((2, 4))
        states.append(states[parent].shift_append(seg))
        want = _appended(np.frombuffer(oracle[parent]).reshape(n, 2, 4), seg)
        oracle.append(want.tobytes())
        assert states[-1].coefficients().tobytes() == oracle[-1]
    # later appends never rewrite what an earlier state sees
    assert [s.coefficients().tobytes() for s in states] == oracle


def test_append_from_newest_shares_its_log(re_state):
    seg = np.ones((1, 4))
    child = re_state.shift_append(seg)
    assert np.shares_memory(child.coefficients(), re_state.coefficients())
    before = child.coefficients().copy()
    sibling = re_state.shift_append(2.0 * seg)  # slot already taken: a fresh log
    assert not np.shares_memory(sibling.coefficients(), child.coefficients())
    np.testing.assert_array_equal(child.coefficients(), before)
    np.testing.assert_array_equal(sibling.coefficients()[-1], 2.0 * seg)
    for state in (child, sibling):
        assert not state.coefficients().flags.writeable


@pytest.mark.parametrize("workers", [2, 4])
def test_threads_branch_from_one_state(workers):
    # each round every thread appends to the same newest state; one claims
    # its log's next slot, the others copy, and all see the oracle values
    rounds, n = 200, 4
    root = HistoryState("re", 1, 1.0, 0.25, np.arange(16.0).reshape(n, 1, 4))
    segs = np.random.default_rng(7).standard_normal((workers, rounds, 1, 4))
    parents, children = [root], [[] for _ in range(workers)]
    barrier = threading.Barrier(workers, timeout=60)

    def branch(k):
        for r in range(rounds):
            children[k].append(parents[r].shift_append(segs[k, r]))
            if k == 0:
                parents.append(children[0][-1])
            barrier.wait()

    threads = [threading.Thread(target=branch, args=(k,)) for k in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    window = root.coefficients().copy()
    for r in range(rounds):
        for k in range(workers):
            want = _appended(window, segs[k, r])
            assert children[k][r].coefficients().tobytes() == want.tobytes()
        window = _appended(window, segs[0, r])


@pytest.mark.parametrize(
    "round_trip", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy, copy.copy]
)
def test_copied_state_is_a_read_only_value(round_trip):
    state = initial_state(belzen(), 0.25)
    state = state.shift_append(state.coefficients()[-1], head=state.head)
    back = round_trip(state)
    for got, want in ((back.coefficients(), state.coefficients()), (back.head, state.head)):
        assert not got.flags.writeable
        assert got.tobytes() == want.tobytes()
    assert not np.shares_memory(back.coefficients(), state.coefficients())
    assert (back.kind, back.dim, back.tau, back.h) == (state.kind, state.dim, state.tau, state.h)


@pytest.mark.parametrize(
    "round_trip", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy, copy.copy]
)
def test_copied_stage_view_is_a_read_only_value(round_trip):
    view = StageView(initial_state(belzen(), 0.25), 0.125, np.ones((1, 4)), head=[4.0])
    back = round_trip(view)
    for got, want in ((back.overlay_coeffs, view.overlay_coeffs), (back.head, view.head)):
        assert not got.flags.writeable
        assert got.tobytes() == want.tobytes()
    assert back.shift == view.shift
    thetas = np.linspace(-1.0, 0.0, 9)
    assert back.eval_many(thetas).tobytes() == view.eval_many(thetas).tobytes()


def _stage_view_of(state, c, rng):
    head = rng.normal(size=state.dim) if state.kind == "dde" else None
    return StageView(state, c * state.h, rng.normal(size=(state.dim, 4)), head=head)


@pytest.mark.parametrize("dim", [1, 3])
def test_scalar_offset_returns_one_row(dim, rng):
    state = HistoryState.from_callable(
        lambda th: np.cos(np.outer(th, np.arange(1, dim + 1))), "dde", dim, 1.0, 0.25
    )
    for target in (state, _stage_view_of(state, 0.5, rng)):
        for theta in (-0.5, np.float64(-0.5), np.array(-0.5), -1, -0.05):
            got = target.eval_many(theta)
            assert got.shape == (dim,)
            assert got.tobytes() == target.eval_many(np.array([theta]))[0].tobytes()
            assert got.tobytes() == target.eval(theta).tobytes()


def test_rhs_may_look_up_a_scalar_offset_at_every_stage():
    # stage 1 hands the rhs the state itself, later stages a StageView
    by_point = dataclasses.replace(belzen(), rhs=lambda t, v: v.head - v.eval_many(-1.0))
    by_array = dataclasses.replace(
        belzen(), rhs=lambda t, v: v.head - v.eval_many(np.array([-1.0]))[0]
    )
    for name in ("expeuler", "heun", "expo3"):
        got = integrate(by_point, builtin(name), 0.125, 1.0)
        want = integrate(by_array, builtin(name), 0.125, 1.0)
        assert got.coefficients().tobytes() == want.coefficients().tobytes()


def _outcome(lookup):
    try:
        return lookup().tobytes()
    except ValueError as err:
        return str(err)


#: offsets around a knot in multiples of its tolerance 1e-9 * max(1, |u|),
#: just inside and just outside the snapping band
_BAND = (0.0, 0.5, -0.5, 0.99, -0.99, 1.01, -1.01, 2.0, -2.0)


@settings(deadline=None, max_examples=300)
@given(
    kind=st.sampled_from(["dde", "re"]),
    dim=st.sampled_from([1, 3]),
    h=st.sampled_from([0.1, 1.0 / 3.0, 0.25, 2e-5]),
    n=st.integers(min_value=1, max_value=40),
    c=st.one_of(
        st.none(), st.sampled_from([0.5, 2.0 / 3.0, 1.0]), st.floats(0.01, 1.0)
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_point_path_matches_array_path(kind, dim, h, n, c, seed, data):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(n, dim, 4))
    coeffs[rng.random(coeffs.shape) < 0.2] = -0.0
    head = coeffs[-1].sum(axis=-1) if kind == "dde" else None
    state = HistoryState(kind, dim, round(n * h, 9), h, coeffs, head=head)
    tau = state.tau  # n * h: the range band is centred on -n h
    target = state if c is None else _stage_view_of(state, c, rng)
    tol = 1e-9 * max(1.0, tau)
    k = data.draw(st.integers(min_value=0, max_value=n))
    shift = 0.0 if c is None else c * h
    theta = data.draw(
        st.one_of(
            st.sampled_from(_BAND).map(lambda f: (k - n) * h + f * 1e-9 * max(1, k) * h),
            st.sampled_from(_BAND).map(lambda f: -shift + f * 1e-9 * max(1.0, shift)),
            st.floats(min_value=-tau, max_value=0.0),
            st.sampled_from([-tau, 0.0, np.nan, np.inf, -np.inf, -tau - 2 * tol, 2 * tol]),
        )
    )
    want = _outcome(lambda: target.eval_many(np.array([theta]))[0])
    if not -tau - tol <= theta <= tol:
        assert "outside" in want
    assert _outcome(lambda: target.eval(theta)) == want
    for point in (theta, np.float64(theta), np.array(theta)):
        assert _outcome(lambda: target.eval_many(point)) == want


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
    with pytest.raises(ValueError, match=r"head holds shape \(1,\), expected \(2,\)"):
        StageView(dde2, 0.25, overlay, head=[1.0])
    assert StageView(dde2, 0.25, overlay, head=[1.0, 2.0]).head.shape == (2,)
    with pytest.raises(ValueError, match="carry no head"):
        StageView(re_state, 0.25, np.zeros((1, 4)), head=[1.0])
    assert StageView(re_state, 0.25, np.zeros((1, 4))).head is None


def test_stage_view_shift_in_range(re_state):
    # 0 < shift <= tau, checked at construction: a NaN or inf shift would
    # otherwise fail unnamed, or evaluate to NaN, only inside eval
    tau = re_state.tau
    for shift in (np.nan, np.inf, 0.0, -0.25, 1.5 * tau):
        with pytest.raises(ValueError, match=r"stage shift must be in \(0, tau = 2.0\]"):
            StageView(re_state, shift, np.zeros((1, 4)))
    assert StageView(re_state, tau, np.zeros((1, 4))).shift == tau


def test_stage_view_needs_a_history_state_base(re_state):
    # a view of a view would evaluate, but integrate_view reads its base's segments
    view = StageView(re_state, 0.25, np.zeros((1, 4)))
    with pytest.raises(TypeError, match="stage view needs a HistoryState base, not StageView"):
        StageView(view, 0.25, np.zeros((1, 4)))


@pytest.mark.parametrize(
    "call",
    [
        lambda s, thetas: s.eval_many(thetas),
        lambda s, thetas: StageView(s, 0.25, np.zeros((1, 4))).eval_many(thetas),
        lambda s, thetas: s.j_integrate(thetas),
    ],
    ids=["state_eval_many", "stage_view_eval_many", "j_integrate"],
)
def test_offsets_on_more_than_one_axis_are_refused(re_state, call):
    # a scalar or m offsets: a (1, 2) array is named, not a (1, 2, dim) result
    # or a numpy indexing or broadcast error
    with pytest.raises(ValueError, match=r"offsets must be a scalar or 1-d, got shape \(1, 2\)"):
        call(re_state, np.full((1, 2), -0.5))


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda s: HistoryState("ode", 1, 2.0, 0.25, s.coefficients()),
         "kind must be 'dde' or 're', got 'ode'"),
        (lambda s: HistoryState("re", 1, 2.0, 0.25, s.coefficients()[:, :, :3]),
         r"coeffs holds shape \(8, 1, 3\), expected \(8, 1, 4\)"),
        (lambda s: HistoryState.from_callable(
            lambda th: np.zeros((np.size(th), 3)), "re", 2, 2.0, 0.25),
         r"phi returned shape \(32, 3\), expected \(32, 2\)"),
        (lambda s: norm_diff(s, lambda th: np.zeros((np.size(th), 2))),
         r"reference returned shape \(128, 2\)"),
        (lambda s: StageView(s, 0.25, np.zeros((1, 3))),
         r"overlay_coeffs holds shape \(1, 3\), expected \(1, 4\)"),
        (lambda s: StageView(s, 0.25, np.zeros((2, 4))),
         r"overlay_coeffs holds shape \(2, 4\), expected \(1, 4\)"),
        # dim 0 is refused by name before anything else is checked or run
        (lambda s: HistoryState("dde", 0, 1.0, 0.5, np.zeros((2, 0, 4)), head=[]),
         r"dim must be >= 1, got 0"),
        (lambda s: HistoryState("re", 0, 1.0, 0.5, np.zeros((2, 0, 4))),
         r"dim must be >= 1, got 0"),
        (lambda s: HistoryState.from_callable(np.zeros_like, "re", 0, 1.0, 0.5),
         r"dim must be >= 1, got 0"),
    ],
)
def test_history_input_checks(re_state, call, match):
    with pytest.raises(ValueError, match=match):
        call(re_state)


#: cubic coefficients of two components on four segments of width 0.25 (tau = 1),
#: then an overlay and a segment to append
_COEFFS = np.random.default_rng(7).normal(size=(6, 2, 4))


def _short(arr, axis, short):
    """``arr``, or for the short form ``arr`` without its dim axis (component 0 kept)."""
    return np.take(arr, 0, axis=axis) if short else arr


def _wave(t, dim, short):
    """The first ``dim`` of (sin t, cos t), on the last axis."""
    return _short(np.stack([np.sin(t), np.cos(t)][:dim], axis=-1), -1, short)


def _state(kind, dim):
    coeffs = _COEFFS[:4, :dim]
    head = coeffs[-1].sum(axis=1) if kind == "dde" else None
    return HistoryState(kind, dim, 1.0, 0.25, coeffs, head=head)


def _ones(dim):
    return lambda th: np.ones((len(th), dim))


def _rhs_run(dim, short):
    prob = Problem(kind="dde", dim=dim, tau=1.0, phi0=_ones(dim),
                   rhs=lambda t, v: _short(-v.eval(-1.0), 0, short))
    final = integrate(prob, builtin("heun"), 0.25, 0.5)
    return final.coefficients(), final.head


def _coupled_rhs_run(dim, short):
    prob = CoupledProblem(
        dim_re=1, dim_dde=dim, tau=1.0, phi0_re=_ones(1), phi0_dde=_ones(dim),
        rhs=lambda t, b, x: (0.5 * b.eval(-1.0), _short(-x.eval(-1.0), 0, short)),
    )
    b, x = integrate(prob, builtin("heun"), 0.25, 0.5)
    return b.coefficients(), x.coefficients(), x.head


def _exact_run(kind):
    def run(dim, short):
        prob = Problem(kind=kind, dim=dim, tau=1.0, phi0=_ones(dim),
                       rhs=lambda t, v: -0.5 * v.eval(-1.0), exact=lambda t: _wave(t, dim, short))
        rows, _ = converge(prob, ["heun"], [0.5, 0.25], 1.0)
        return np.array([[row["err_x"], row["err_u"]] for row in rows])

    return run


_SEG, _OVERLAY = _COEFFS[4], _COEFFS[5]


@pytest.mark.parametrize(
    "run, message",
    [
        (_rhs_run, "rhs returned shape (), expected (2,)"),
        (_coupled_rhs_run, "rhs (DDE component) returned shape (), expected (2,)"),
        (lambda dim, short: HistoryState.from_callable(
            lambda th: _wave(th, dim, short), "re", dim, 1.0, 0.25).coefficients(),
         "phi returned shape (16,), expected (16, 2)"),
        (lambda dim, short: np.array(norm_diff(_state("dde", dim), lambda th: _wave(th, dim, short))),
         "reference returned shape (64,), expected (64, 2)"),
        (_exact_run("dde"), "exact returned shape (), expected (2,)"),
        (_exact_run("re"), "exact returned shape (8,), expected (8, 2)"),
        (lambda dim, short: HistoryState(
            "dde", dim, 1.0, 0.25, _COEFFS[:4, :dim],
            head=_short(_COEFFS[3, :dim].sum(axis=1), 0, short)).head,
         "head holds shape (), expected (2,)"),
        (lambda dim, short: StageView(
            _state("dde", dim), 0.125, _OVERLAY[:dim],
            head=_short(_OVERLAY[:dim].sum(axis=1), 0, short)).head,
         "head holds shape (), expected (2,)"),
        (lambda dim, short: _state("dde", dim).shift_append(
            _SEG[:dim], head=_short(_SEG[:dim].sum(axis=1), 0, short)).head,
         "head holds shape (), expected (2,)"),
        (lambda dim, short: StageView(
            _state("re", dim), 0.125, _short(_OVERLAY[:dim], 0, short)).overlay_coeffs,
         "overlay_coeffs holds shape (4,), expected (2, 4)"),
        (lambda dim, short: _state("re", dim).shift_append(
            _short(_SEG[:dim], 0, short)).coefficients(),
         "coeffs holds shape (4,), expected (2, 4)"),
        (lambda dim, short: HistoryState(
            "re", dim, 1.0, 0.25, _short(_COEFFS[:4, :dim], 1, short)).coefficients(),
         "coeffs holds shape (4, 4), expected (4, 2, 4)"),
    ],
    ids=["rhs", "coupled_rhs", "phi0", "norm_diff_reference", "exact_dde", "exact_re",
         "state_head", "stage_view_head", "shift_append_head", "overlay", "appended_segment",
         "state_coeffs"],
)
def test_one_shape_rule(run, message):
    # at dim 1 the dim axis may be left off, at every entry, with the same bits
    def bits(out):
        return b"".join(np.asarray(x).tobytes() for x in (out if isinstance(out, tuple) else (out,)))

    assert bits(run(1, True)) == bits(run(1, False))
    # at dim 2 the long form passes and the short one is refused by the one reader
    run(2, False)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(2, True)


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
@example(1.0 / 3.0, 2)  # tau = 0.666666667 != n * h
@example(1.0 / 3.0, 20)  # tau = 6.666666667 != n * h
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
    # one frame: lookups read segment j on the knots (j - n) h that built it
    rng = np.random.default_rng(n)
    coeffs = rng.normal(size=(n, 1, 4))
    state = HistoryState("re", 1, tau, h, coeffs)
    knots = (np.arange(n) - n) * h
    thetas = knots[:, None] + h * np.array([0.01, 0.5, 0.99])
    local = (thetas - knots[:, None]) / h
    want = sum(coeffs[:, :1, p] * local**p for p in range(4))
    # the offset's rounding grows with its distance from 0 in steps
    scale = n * np.abs(coeffs[:, 0]).sum(axis=1)[:, None]
    got_array = state.eval_many(thetas.ravel()).reshape(thetas.shape)
    got_point = np.array([state.eval(th)[0] for th in thetas.ravel()]).reshape(thetas.shape)
    for got in (got_array, got_point):
        assert np.all(np.abs(got - want) <= 1e-15 * scale)
    # the identity history: its window integral and its integrated state
    ident = HistoryState.from_callable(lambda th: th, "re", 1, tau, h)
    whole = integrate_view(ident, -tau, 0.0, lambda th, x: x[:, 0])
    assert float(whole) == pytest.approx(-(tau**2) / 2.0, rel=1e-14)
    offsets = np.concatenate([thetas.ravel(), knots, [0.0]])
    j = ident.j_integrate(offsets)[:, 0]
    assert np.all(np.abs(j + offsets**2 / 2.0) <= 1e-14 * max(1.0, tau) ** 2)
    # an exactly projected cubic reads back to roundoff, as do the harness errors
    cubic = lambda th: np.polynomial.Polynomial([0.3, -0.8, 0.5, 0.2])(th / tau)
    assert norm_diff(HistoryState.from_callable(cubic, "dde", 1, tau, h), cubic) <= 1e-13
    re_cubic = HistoryState.from_callable(cubic, "re", 1, tau, h)
    assert _integrated_errors(re_cubic, cubic, 0.0, "l1") <= 1e-13 * max(1.0, tau)


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
    new = step(prob, builtin("expeuler"), state, 0.0)
    for theta in (-0.2, -0.1, 0.0):
        assert new.j_integrate(theta)[0] == pytest.approx(-theta * F_val, abs=1e-14)
    for theta in (-1.0, -0.7, -0.3):
        want = -(h + theta) * phi_c + h * F_val
        assert new.j_integrate(theta)[0] == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("kind", ["dde", "re"])
def test_complex_history_raises(kind):
    # the imaginary part is not dropped by a cast to float
    with pytest.raises(TypeError, match="phi returned complex values"):
        HistoryState.from_callable(lambda th: np.exp(1j * th), kind, 1, 1.0, 0.25)
    prob = Problem(kind=kind, dim=1, tau=1.0, rhs=lambda t, v: 0.0, phi0=lambda th: th + 0j)
    with pytest.raises(TypeError, match="phi returned complex values"):
        initial_state(prob, 0.25)


def test_complex_reference_raises():
    state = initial_state(belzen(), 0.25)
    for norm in ("sup", "l1"):
        with pytest.raises(TypeError, match="reference returned complex values"):
            norm_diff(state, lambda th: np.sin(th) + 0j, norm)


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda s: HistoryState("dde", 1, 1.0, 0.25, s.coefficients() + 1j, head=s.head), "coeffs"),
        (lambda s: HistoryState("dde", 1, 1.0, 0.25, s.coefficients(), head=s.head + 1j), "head"),
        (lambda s: StageView(s, 0.25, s.coefficients()[-1] + 1j, head=s.head), "overlay_coeffs"),
        (lambda s: s.shift_append(s.coefficients()[-1] + 1j, head=s.head), "coeffs"),
        (lambda s: Problem(kind="semilinear_dde", dim=1, tau=1.0, rhs=lambda t, v: 0.0,
                           phi0=np.cos, L=[[-1.0 + 1j]]), "L"),
        (lambda s: s.eval_many(np.array([-0.5, 0.0]) + 1j), "thetas"),
        (lambda s: s.eval_many(np.complex128(-0.5 + 1j)), "thetas"),
        (lambda s: initial_state(quadratic_re(), 0.25).j_integrate(np.array([-0.5]) + 1j), "theta"),
        (lambda s: dataclasses.replace(
            quadratic_re(), distributed_limits=np.array([-3.0, -1.0]) + 0j), "distributed_limits"),
        (lambda s: dataclasses.replace(
            quadratic_re(), distributed_limits=(-3.0 + 0j, -1.0 + 0j)), "distributed_limits"),
        (lambda s: integrate_view(s, np.complex128(-0.5 + 1j), 0.0, lambda th, x: x[:, 0]),
         "window bound"),
        # scalars are read by the same reader, at shape ()
        (lambda s: dataclasses.replace(belzen(), tau=np.complex128(1.0)), "tau"),
        (lambda s: dataclasses.replace(belzen(), tau=1j), "tau"),
        (lambda s: integrate(belzen(), builtin("heun"), np.complex128(0.25), 0.5), "h"),
        (lambda s: integrate(belzen(), builtin("heun"), 1j, 0.5), "h"),
        (lambda s: integrate(belzen(), builtin("heun"), 0.25, 1j), "T"),
        (lambda s: initial_state(quadratic_re(), 1j), "h"),
        (lambda s: HistoryState("dde", 1, 1j, 0.25, s.coefficients(), head=s.head), "tau"),
        (lambda s: HistoryState("dde", 1, 1.0, 1j, s.coefficients(), head=s.head), "h"),
        (lambda s: StageView(s, 1j, s.coefficients()[-1], head=s.head), "shift"),
        (lambda s: dataclasses.replace(builtin("heun"), c=(0.0, 1.0 + 0j)), "c"),
        (lambda s: dataclasses.replace(builtin("heun"), b=(((1, 1.0), (2, -1j)), ((2, 1.0),))),
         "w"),
    ],
    ids=["state_coeffs", "head", "stage_view_overlay", "shift_append_segment",
         "semilinear_L", "eval_many_offsets", "eval_many_offset", "j_integrate_offsets",
         "distributed_limits_array", "distributed_limits_tuple", "window_bound",
         "problem_tau_numpy", "problem_tau", "integrate_h_numpy", "integrate_h", "integrate_T",
         "initial_state_h",
         "state_tau", "state_h", "stage_view_shift", "tableau_node", "tableau_weight"],
)
def test_complex_constructor_input_raises(make, name):
    # a TypeError naming the argument, not a real part kept after a ComplexWarning
    with pytest.raises(TypeError, match=f"^{name} holds complex values"):
        make(initial_state(belzen(), 0.25))


@pytest.mark.parametrize(
    "make, source",
    [
        (lambda: integrate(Problem(kind="dde", dim=1, tau=1.0, rhs=lambda t, v: "0.5",
                                   phi0=lambda th: np.ones(np.shape(th))),
                           builtin("heun"), 0.25, 0.5), "rhs returned"),
        (lambda: HistoryState.from_callable(lambda th: th.astype(str), "dde", 1, 1.0, 0.25),
         "phi returned"),
        (lambda: initial_state(
            dataclasses.replace(quadratic_re(), phi0=lambda th: th.astype(object)), 0.25),
         "phi returned"),
        (lambda: HistoryState("re", 1, 1.0, 0.25, np.zeros((4, 1, 4)).astype(str)),
         "coeffs holds"),
        (lambda: HistoryState("re", 1, "1.0", 0.25, np.zeros((4, 1, 4))), "tau holds"),
        (lambda: HistoryState.from_callable(np.sin, "re", 1, "1.0", 0.25), "tau holds"),
        (lambda: dataclasses.replace(belzen(), tau="1.0"), "tau holds"),
    ],
    ids=["rhs", "phi0_strings", "phi0_objects", "coeffs", "state_tau", "from_callable_tau",
         "problem_tau"],
)
def test_non_numeric_input_raises(make, source):
    # a TypeError naming the source, not strings or objects parsed as floats
    with pytest.raises(TypeError, match=f"^{source} non-numeric values"):
        make()


@pytest.mark.parametrize("kind", ["dde", "re"])
@pytest.mark.parametrize("dim", [1, 3, 20])
@pytest.mark.parametrize("n", [1, 7, 1000])
def test_projection_matches_per_segment_oracle(kind, dim, n):
    tau = 1.3
    h = tau / n
    w = np.linspace(0.5, 4.0, dim)
    calls = []

    def phi(th):
        calls.append(th.copy())
        return np.cos(np.outer(th, w)) + np.outer(th**3, w)

    state = HistoryState.from_callable(phi, kind, dim, tau, h)
    # one call: each DDE knot sampled once, 4 interior nodes per RE segment
    assert len(calls) == 1
    assert calls[0].shape == (3 * n + 1 if kind == "dde" else 4 * n,)
    assert np.all((calls[0] >= -state.tau) & (calls[0] <= 0.0))
    want, head = project_per_segment(phi, kind, dim, tau, h)
    got = state.coefficients()
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    if kind == "dde":
        assert state.head.tobytes() == phi(np.zeros(1))[0].tobytes() == head.tobytes()


@pytest.mark.parametrize("kind", ["dde", "re"])
def test_projection_reproduces_a_cubic(kind, rng):
    c = rng.normal(size=(4, 3))
    cubic = lambda th: sum(np.outer(th**p, c[p]) for p in range(4))
    state = HistoryState.from_callable(cubic, kind, 3, 2.0, 0.1)
    thetas = rng.uniform(-2.0, 0.0, size=200)
    assert np.abs(state.eval_many(thetas) - cubic(thetas)).max() <= 1e-13 * np.abs(c).sum()


def test_from_callable_reads_its_mesh_once_and_skips_the_constructor(monkeypatch):
    # it builds and checks its window itself: no second _n_segments through __init__
    import expdelay.history as history

    counted, original = [], history._n_segments
    monkeypatch.setattr(history, "_n_segments", lambda *a: counted.append(a) or original(*a))
    monkeypatch.setattr(HistoryState, "__init__", lambda *a, **k: pytest.fail("__init__ ran"))
    for kind in ("dde", "re"):
        counted.clear()
        HistoryState.from_callable(lambda th: np.cos(th), kind, 1, 1.0, 0.25)
        assert len(counted) == 1


def _same_state(got, want):
    assert (got.kind, got.dim, got.n_segments) == (want.kind, want.dim, want.n_segments)
    assert (type(got.dim), type(got.h), type(got.tau)) == (int, float, float)
    assert got.tau.hex() == want.tau.hex() and got.h.hex() == want.h.hex()
    assert got.coefficients().tobytes() == want.coefficients().tobytes()
    assert not got.coefficients().flags.writeable
    if want.head is None:
        assert got.head is None
    else:
        assert got.head.tobytes() == want.head.tobytes() and not got.head.flags.writeable


@pytest.mark.parametrize("kind", ["dde", "re"])
@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("n", [1, 7, 1000])
def test_projected_state_equals_the_constructed_one(kind, dim, n, rng):
    w = np.linspace(0.5, 4.0, dim)
    s = HistoryState.from_callable(lambda th: np.cos(np.outer(th, w)), kind, dim, 1.3, 1.3 / n)
    c = HistoryState(kind, dim, 1.3, 1.3 / n, s.coefficients(), head=s.head)
    _same_state(s, c)
    # 2n appends: through the first log's free slots, then a fresh log
    for seg in rng.normal(size=(2 * n, dim, 4)):
        head = [c3 + c2 + c1 + c0 for c0, c1, c2, c3 in seg.tolist()] if kind == "dde" else None
        s, c = s.shift_append(seg, head=head), c.shift_append(seg, head=head)
        _same_state(s, c)


@pytest.mark.parametrize("kind", ["dde", "re"])
def test_non_finite_sample_names_its_segment(kind):
    # the newest segment, and for a DDE the head sample at 0 too
    phi = lambda th: np.where(th > -0.25, np.nan, 1.0)
    with pytest.raises(ValueError, match=r"^history segment 3 on \[-0.25, 0.0\] is not finite$"):
        HistoryState.from_callable(phi, kind, 1, 1.0, 0.25)


def test_projected_head_is_a_read_only_copy():
    returned = []

    def phi(th):
        returned.append(np.cos(np.outer(th, [1.0, 2.0])))
        return returned[-1]

    state = HistoryState.from_callable(phi, "dde", 2, 1.0, 0.25)
    head, coeffs = state.head.copy(), state.coefficients().copy()
    assert not state.head.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        state.head[0] = 5.0
    returned[0][:] = 99.0
    assert state.head.tobytes() == head.tobytes()
    assert state.coefficients().tobytes() == coeffs.tobytes()


def test_reprs_name_kind_mesh_and_shift(dde_state):
    assert repr(dde_state) == "HistoryState(kind='dde', dim=1, tau=1.0, h=0.25, segments=4)"
    view = StageView(dde_state, 0.125, np.zeros((1, 4)), head=[0.0])
    assert repr(view) == f"StageView(shift=0.125, base={dde_state!r})"


def _counting_eval_many(monkeypatch):
    calls = []
    for cls in (HistoryState, StageView):
        def counting(self, thetas, original=vars(cls)["eval_many"]):
            calls.append((type(self), thetas))
            return original(self, thetas)

        monkeypatch.setattr(cls, "eval_many", counting)
    return calls


def test_eval_goes_through_eval_many(monkeypatch):
    # an outside-in tracer counts lookups by wrapping eval_many: a point path
    # that bypassed it would go uncounted
    calls = _counting_eval_many(monkeypatch)
    state = initial_state(belzen(), 0.25)
    view = StageView(state, 0.125, np.ones((1, 4)), head=[4.0])
    state.eval(-0.5)
    view.eval(-0.5)
    view.eval(-0.0625)
    assert calls == [(HistoryState, -0.5), (StageView, -0.5), (StageView, -0.0625)]
    calls.clear()
    # belzen reads one delayed value per stage: 3 lookups per expo3 step,
    # a stage view's read of its base not counted again
    integrate(belzen(), builtin("expo3"), 0.1, 1.0)
    assert len(calls) == 3 * 10
    assert all(theta == -1.0 for _, theta in calls)


#: extreme coefficients: a state's must be finite, an overlay's need not be
_EXTREME = (-0.0, 1e308, -1e308)
_SPECIAL = _EXTREME + (np.nan, np.inf, -np.inf)


def _nan_as_one(x):
    # numpy's vector loops may take a NaN's sign from either operand, so NaNs
    # compare as one value; every other bit must agree
    return np.where(np.isnan(x), np.nan, x).tobytes()


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    c=st.one_of(st.none(), st.floats(0.01, 1.0)),
    data=st.data(),
)
def test_point_path_matches_one_element_array_at_dim_20(seed, c, data):
    rng = np.random.default_rng(seed)
    n, h, dim = 8, 0.125, 20  # dim 20: the width of the semilinear benchmark
    coeffs = rng.normal(size=(n, dim, 4))
    mask = rng.random(coeffs.shape) < 0.3
    coeffs[mask] = rng.choice(_EXTREME, size=mask.sum())
    state = HistoryState("re", dim, 1.0, h, coeffs)
    target, shift = state, 0.0
    if c is not None:
        overlay = rng.normal(size=(dim, 4))
        mask = rng.random(overlay.shape) < 0.4
        overlay[mask] = rng.choice(_SPECIAL, size=mask.sum())
        target, shift = StageView(state, c * h, overlay), c * h
    theta = data.draw(
        st.one_of(
            st.floats(min_value=-1.0, max_value=0.0),
            st.floats(min_value=-shift, max_value=0.0),
            st.sampled_from([-1.0, 0.0, -shift, -0.5, -0.375]),
        )
    )
    with np.errstate(all="ignore"):
        want = target.eval_many(np.array([theta]))[0]
        got = target.eval(theta)
    assert got.shape == (dim,)
    assert _nan_as_one(got) == _nan_as_one(want)
