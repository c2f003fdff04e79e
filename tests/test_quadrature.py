import gc
import pickle
import sys
import threading
import unittest.mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from expdelay import (
    HistoryState,
    Pointwise,
    Problem,
    StageView,
    builtin,
    daphnia,
    gauss_legendre,
    initial_state,
    integrate,
    integrate_view,
    quadratic_re,
    step,
)
from expdelay import history, problems, quadrature
from expdelay.history import _knot_tol
from expdelay.quadrature import _pieces, _window_plan


def _const_state(value, tau, h, kind="re"):
    return HistoryState.from_callable(
        lambda th: np.full(np.shape(th), value), kind, 1, tau, h
    )


def test_constant_window():
    state = _const_state(1.0, 3.0, 0.5)
    val = integrate_view(state, -3.0, -1.0, lambda th, x: x)
    assert val[0] == pytest.approx(2.0, abs=1e-14)


def test_linear_ramp_squared():
    state = HistoryState.from_callable(lambda th: th, "re", 1, 1.0, 1.0)
    val = integrate_view(state, -1.0, 0.0, lambda th, x: x**2)
    assert val[0] == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_exact_solution_window_reproduces_fixed_point():
    # the renewal right-hand side evaluated on the exact history returns x(0)
    prob = quadratic_re(4.0)
    state = HistoryState.from_callable(prob.phi0, "re", 1, 3.0, 0.005)
    val = integrate_view(state, -3.0, -1.0, lambda th, x: x * (1.0 - x))
    c = 0.5 + np.pi / 16.0
    assert 2.0 * val[0] == pytest.approx(c, abs=1e-9)


def test_window_validation():
    state = _const_state(1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        integrate_view(state, -1.0, -1.0, lambda th, x: x)
    with pytest.raises(ValueError):
        integrate_view(state, -0.5, -1.0, lambda th, x: x)
    with pytest.raises(ValueError):
        integrate_view(state, -3.0, 0.0, lambda th, x: x)


def test_halving_refinement_ratio_is_order_eight():
    # pure quadrature error on a smooth kernel: composite 4-node
    # Gauss-Legendre converges like (piece width)^8
    exact = 1.0 - np.exp(-1.0)
    errs = {}
    for h in (0.5, 0.25):
        state = _const_state(1.0, 1.0, h)
        val = integrate_view(state, -1.0, 0.0, lambda th, x: np.exp(th))
        errs[h] = abs(float(val) - exact)
    ratio = errs[0.5] / errs[0.25]
    assert 150.0 < ratio < 420.0


def test_breakpoint_splitting_loses_no_accuracy():
    # view with a C^0 kink at the interior knot
    coeffs = np.zeros((2, 1, 4))
    coeffs[0, 0] = [0.0, 1.0, 0.5, 0.0]  # rises to 1.5 at the knot
    coeffs[1, 0] = [1.5, -0.75, 0.0, 0.25]
    state = HistoryState("re", 1, 2.0, 1.0, coeffs)
    kernel = lambda th, x: x[:, 0] * np.exp(th)
    whole = integrate_view(state, -2.0, 0.0, kernel)
    left = integrate_view(state, -2.0, -1.0, kernel)
    right = integrate_view(state, -1.0, 0.0, kernel)
    assert float(whole) == pytest.approx(float(left) + float(right), abs=1e-14)


def test_vector_integrand_shape():
    state = _const_state(2.0, 1.0, 0.5)
    val = integrate_view(
        state, -1.0, 0.0, lambda th, x: np.stack([x[:, 0], th * x[:, 0]], axis=1)
    )
    assert val.shape == (2,)
    assert val[0] == pytest.approx(2.0, abs=1e-14)
    assert val[1] == pytest.approx(-1.0, abs=1e-14)
    # only (m,) or (m, q) integrands: a matrix product would misread others
    for bad in (lambda th, x: x[:, :, None], lambda th, x: x[1:], lambda th, x: 1.0):
        with pytest.raises(ValueError, match="integrand returned shape"):
            integrate_view(state, -1.0, 0.0, bad)


def test_gauss_legendre_rule_is_read_only():
    # the rule is cached and shared: a write would change every later window
    state = _const_state(1.0, 1.0, 0.5)
    before = integrate_view(state, -1.0, 0.0, lambda th, x: x)
    x, w = gauss_legendre(4)
    for arr in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2.0
    after = integrate_view(state, -1.0, 0.0, lambda th, x: x)
    assert after[0] == before[0] == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n, error, match", [
    ("4", TypeError, "n must be an integer, got '4'"),
    (4.0, TypeError, "n must be an integer, got 4.0"),
    (0, ValueError, "n must be >= 1, got 0"),
    (-2, ValueError, "n must be >= 1, got -2"),
])
def test_gauss_legendre_reads_n_as_an_index(n, error, match):
    with pytest.raises(error, match=match):
        gauss_legendre(n)
    assert gauss_legendre(np.int64(4)) is gauss_legendre(4)
    x, w = gauss_legendre(1)
    assert x.tolist() == [0.5] and w.tolist() == [1.0]


def _reference(view, a, b, integrand):
    """The window rule written out node by node: split [a, b] at the view's
    breakpoints strictly inside (a + tol, b - tol), then the 4-node
    Gauss-Legendre rule per piece through ``eval_many``.  Returns the
    integral and the sum of |w f|."""
    tol = _knot_tol(view.tau)
    knots = view.breakpoints()
    edges = np.concatenate([[a], knots[(knots > a + tol) & (knots < b - tol)], [b]])
    x, w = np.polynomial.legendre.leggauss(4)
    widths = np.diff(edges)
    thetas = (edges[:-1, None] + widths[:, None] * (0.5 * (x + 1.0))).ravel()
    weights = (widths[:, None] * (0.5 * w)).ravel()
    fv = integrand(thetas, view.eval_many(thetas))
    return weights @ fv, np.abs(weights) @ np.abs(fv)


def _window_end(knots, i, frac, nudge, tol):
    """A window end on the view's knot i, a fraction of the way to knot
    i + 1, moved by ``nudge`` up to 0.9 knot tolerances."""
    i %= len(knots) - 1
    return knots[i] + frac * (knots[i + 1] - knots[i]) + nudge * 0.9 * tol


_ends = st.tuples(
    st.integers(min_value=0, max_value=40),
    # ends on a knot or at least 1% of a piece from it, so that no piece is
    # narrower than the reference's per-node knot snapping
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.01, max_value=0.99)),
    st.one_of(st.just(0.0), st.floats(min_value=-1.0, max_value=1.0)),
)


@settings(deadline=None, max_examples=300)
@given(
    kind=st.sampled_from(["re", "dde"]),
    dim=st.sampled_from([1, 3]),
    h=st.sampled_from([0.25, 0.5, 1.0 / 3.0]),
    n=st.integers(min_value=1, max_value=8),
    c=st.one_of(st.none(), st.just(1.0), st.floats(min_value=0.01, max_value=0.99)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    ends=st.tuples(_ends, _ends),
)
@example(kind="re", dim=1, h=0.25, n=8, c=0.5, seed=0, ends=((0, 0.0, 0.0), (8, 1.0, 0.0)))
@example(kind="re", dim=3, h=0.5, n=4, c=None, seed=1, ends=((0, 0.0, -1.0), (3, 1.0, 1.0)))
@example(kind="dde", dim=1, h=0.5, n=4, c=0.5, seed=2, ends=((4, 0.3, 0.0), (4, 1.0, 1.0)))
@example(kind="re", dim=1, h=0.25, n=4, c=None, seed=3, ends=((1, 0.2, 0.0), (1, 0.7, 0.0)))
@example(kind="re", dim=3, h=0.5, n=4, c=0.5, seed=4, ends=((2, 0.5, 0.0), (4, 0.5, 0.0)))
@example(kind="re", dim=1, h=0.25, n=4, c=1.0, seed=5, ends=((1, 0.0, 1.0), (3, 0.0, -1.0)))
def test_window_matches_nodewise_reference(kind, dim, h, n, c, seed, ends):
    # HistoryState and StageView, RE and DDE: windows on and off the mesh,
    # within the knot tolerance of a knot, of -tau and of 0, inside one
    # piece, and across the overlay's knot -shift
    rng = np.random.default_rng(seed)
    tau = round(n * h, 9)
    coeffs = rng.uniform(-1.0, 1.0, (n, dim, 4))
    head = coeffs[-1].sum(axis=1) if kind == "dde" else None
    view = HistoryState(kind, dim, tau, h, coeffs, head=head)
    if c is not None:
        overlay = rng.uniform(-1.0, 1.0, (dim, 4))
        head = overlay.sum(axis=1) if kind == "dde" else None
        view = StageView(view, c * h, overlay, head=head)
    knots, tol = view.breakpoints(), _knot_tol(tau)
    a, b = sorted(_window_end(knots, *end, tol) for end in ends)
    # the range check allows ends within the tolerance outside [-tau, 0]
    a, b = max(a, -tau - 0.9 * tol), min(b, 0.9 * tol)
    if b - a < 1e-3 * h:
        return
    integrand = lambda th, x: x * (1.0 + th)[:, None] + x**2
    want, scale = _reference(view, a, b, integrand)
    got = integrate_view(view, a, b, integrand)
    assert np.all(np.abs(got - want) <= 1e-14 * (1.0 + scale))


@pytest.mark.parametrize("shift", [None, 0.3])
def test_degree_seven_is_exact_over_partial_pieces(shift):
    # x(theta) is one cubic on the whole view, so x^2 * theta has degree 7
    # and the 4-node rule is exact on every piece, partial ones included
    cubic = np.polynomial.Polynomial([0.4, -1.1, 0.3, 0.25])
    state = HistoryState.from_callable(cubic, "re", 1, 3.0, 0.5)
    view = state
    if shift is not None:
        # the base read at theta + shift, continued by the overlay in r
        view = StageView(state, shift, cubic(np.polynomial.Polynomial([0.0, shift])).coef)
        cubic = cubic(np.polynomial.Polynomial([shift, 1.0]))
    a, b = -2.83, -0.07
    got = integrate_view(view, a, b, lambda th, x: x[:, 0] ** 2 * th)
    antiderivative = (cubic**2 * np.polynomial.Polynomial([0.0, 1.0])).integ()
    assert float(got) == pytest.approx(antiderivative(b) - antiderivative(a), rel=1e-13)


# per window: its whole segments and its end-piece calls
@pytest.mark.parametrize("c, whole_segments", [
    (None, ((8, 1), (0, 1), (12, 0), (0, 1))),
    (0.5, ((9, 1), (0, 1), (11, 1), (0, 1))),
])
def test_theta_integrands_take_whole_segments_by_the_one_rule(monkeypatch, c, whole_segments):
    # a theta-dependent integrand is called once on the end pieces, unless both
    # bounds are knots ((-3, 0) on the state), and, when the window holds whole
    # segments, once on their nodes through the rule that Pointwise stores; no
    # call gets an empty array
    rules, sizes, rule = [], [], quadrature._segment_sums
    monkeypatch.setattr(quadrature, "_segment_sums", lambda *a: rules.append(a) or rule(*a))

    def integrand(theta, x):
        sizes.append(len(theta))
        return np.exp(theta)[:, None] * x

    view = _random_view("re", 2, 0.25, 12, c, 0)
    # windows across knots, inside one piece or across one knot, and over all of [-tau, 0]
    windows = ((-2.9, -0.6), (-2.9, -2.8), (-3.0, 0.0), (-0.2, -0.05))
    for (a, b), (whole, ends) in zip(windows, whole_segments):
        rules.clear(), sizes.clear()
        got = integrate_view(view, a, b, integrand)
        assert len(rules) == (1 if whole else 0)
        assert sizes[ends:] == ([4 * whole] if whole else [])
        assert all(0 < k <= 8 for k in sizes[:ends])
        want, scale = _reference(view, a, b, integrand)
        assert np.all(np.abs(got - want) <= 1e-14 * (1.0 + scale))


# ---------------------------------------------------------------------------
# value-only integrands: whole-segment sums stored on the history log
# ---------------------------------------------------------------------------

#: g(x) of shape (m,) and of shape (m, q)
_KERNELS = (
    lambda x: (x * (1.0 - x)).sum(axis=1),
    lambda x: np.concatenate([x, np.sin(x) * x], axis=1),
)


@pytest.mark.parametrize("dim, g", [(1, _KERNELS[0]), (3, _KERNELS[1])], ids=["dim1", "dim3"])
def test_segment_sums_keep_their_bits_in_any_batch(dim, g):
    # a fill computes the slots it reaches in one batch: each cubic's sum has
    # the same bits alone as at any position of a longer slice, by the rule of
    # a whole segment and by those of a stage view's two end pieces on the log
    coeffs = np.random.default_rng(dim).uniform(-1.0, 1.0, (70, dim, 4))
    plan = _window_plan(70, 0.1, 0.03, -7.0, -0.95)
    rules = [plan.whole] + [piece for _, piece in plan.stored]
    assert len(rules) == 3
    for rule in rules:
        whole = quadrature._segment_sums(g, rule, coeffs)
        for lo, hi in ((0, 1), (5, 6), (69, 70), (3, 5), (7, 40), (1, 70)):
            assert np.array_equal(quadrature._segment_sums(g, rule, coeffs[lo:hi]),
                                  whole[..., lo:hi])


def _random_view(kind, dim, h, n, c, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, (n, dim, 4))
    head = coeffs[-1].sum(axis=1) if kind == "dde" else None
    view = HistoryState(kind, dim, round(n * h, 9), h, coeffs, head=head)
    if c is not None:
        overlay = rng.uniform(-1.0, 1.0, (dim, 4))
        head = overlay.sum(axis=1) if kind == "dde" else None
        view = StageView(view, c * h, overlay, head=head)
    return view


def _assert_matches_per_call_path(view, a, b, kernel, got):
    want = integrate_view(view, a, b, lambda th, x: kernel.g(x))
    _, scale = _reference(view, a, b, lambda th, x: kernel.g(x))
    assert np.shape(got) == np.shape(want)
    assert np.all(np.abs(got - want) <= 1e-14 * (1.0 + scale))


@settings(deadline=None, max_examples=300)
@given(
    kind=st.sampled_from(["re", "dde"]),
    dim=st.sampled_from([1, 3]),
    h=st.sampled_from([0.25, 0.5, 1.0 / 3.0]),
    n=st.integers(min_value=1, max_value=8),
    c=st.one_of(st.none(), st.just(1.0), st.floats(min_value=0.01, max_value=0.99)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    ends=st.tuples(_ends, _ends),
    g=st.sampled_from(_KERNELS),
)
@example(kind="re", dim=1, h=0.25, n=8, c=None, seed=0, ends=((0, 0.0, 0.0), (8, 1.0, 0.0)), g=_KERNELS[0])
@example(kind="re", dim=3, h=0.5, n=8, c=0.5, seed=1, ends=((0, 0.0, 0.0), (4, 0.0, 0.0)), g=_KERNELS[1])
@example(kind="dde", dim=3, h=0.5, n=4, c=None, seed=2, ends=((1, 0.2, 0.0), (1, 0.7, 0.0)), g=_KERNELS[1])
@example(kind="dde", dim=1, h=0.25, n=6, c=0.3, seed=3, ends=((2, 0.4, 0.0), (5, 0.6, 0.0)), g=_KERNELS[0])
def test_pointwise_matches_the_per_call_path(kind, dim, h, n, c, seed, ends, g):
    # HistoryState and StageView, RE and DDE, dim 1 and 3, g of shape (m,)
    # and (m, q): windows on and off the mesh, across the overlay's knot, and
    # inside one piece (no whole segment); a second call reads the store
    view = _random_view(kind, dim, h, n, c, seed)
    knots, tol = view.breakpoints(), _knot_tol(view.tau)
    a, b = sorted(_window_end(knots, *end, tol) for end in ends)
    a, b = max(a, -view.tau - 0.9 * tol), min(b, 0.9 * tol)
    if b - a < 1e-3 * h:
        return
    kernel = Pointwise(g)
    got = integrate_view(view, a, b, kernel)
    _assert_matches_per_call_path(view, a, b, kernel, got)
    assert np.array_equal(integrate_view(view, a, b, kernel), got)


def _append(state, rng, k):
    for _ in range(k):
        state = state.shift_append(rng.uniform(-1.0, 1.0, (state.dim, 4)))
    return state


#: a window bound near knot k of a view: on it, one ulp below or above it,
#: or a fraction of the way to knot k + 1
_near_knot = st.tuples(
    st.integers(min_value=0, max_value=40),
    st.one_of(st.sampled_from(["on", "below", "above"]),
              st.floats(min_value=0.01, max_value=0.99)),
)


def _near(knots, k, where):
    if where in ("on", "below", "above"):
        knot = knots[k % len(knots)]
        toward = {"on": knot, "below": -np.inf, "above": np.inf}[where]
        return float(np.nextafter(knot, toward))
    k %= len(knots) - 1
    return float(knots[k] + where * (knots[k + 1] - knots[k]))


def _newer(state, rng, k):
    """``state`` and k states appended after it, oldest first."""
    chain = [state]
    for _ in range(k):
        coeffs = rng.uniform(-1.0, 1.0, (state.dim, 4))
        head = coeffs.sum(axis=1) if state.kind == "dde" else None
        chain.append(chain[-1].shift_append(coeffs, head))
    return chain


@settings(deadline=None, max_examples=200)
@given(
    kind=st.sampled_from(["re", "dde"]),
    dim=st.sampled_from([1, 3]),
    h=st.sampled_from([0.25, 0.5, 0.1, 1.0 / 3.0]),
    n=st.integers(min_value=1, max_value=10),
    c=st.one_of(st.none(), st.just(1.0), st.floats(min_value=0.01, max_value=0.99)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    bounds=st.tuples(_near_knot, _near_knot),
    appends=st.integers(min_value=1, max_value=12),
    batch=st.sampled_from([1, 3, 64]),
    g=st.sampled_from(_KERNELS),
)
@example(kind="re", dim=1, h=0.25, n=8, c=0.5, seed=0, bounds=((0, "on"), (4, "on")),
         appends=12, batch=64, g=_KERNELS[0])
@example(kind="dde", dim=3, h=0.1, n=10, c=None, seed=1, bounds=((2, "above"), (7, "below")),
         appends=5, batch=3, g=_KERNELS[1])
@example(kind="re", dim=3, h=0.5, n=4, c=0.3, seed=2, bounds=((1, 0.4), (1, 0.7)),
         appends=8, batch=1, g=_KERNELS[1])
@example(kind="dde", dim=1, h=1 / 3, n=6, c=1.0, seed=3, bounds=((0, "on"), (6, "on")),
         appends=3, batch=3, g=_KERNELS[0])
def test_stored_pieces_match_the_per_call_path(kind, dim, h, n, c, seed, bounds, appends, batch,
                                               g):
    # windows with bounds on knots, one ulp off them and inside segments, on
    # states and stage views: the sums of the end pieces on the log, read from
    # the store, agree with the per-call path within 1e-14 of scale.  The
    # states of one log read oldest first, as a run does, so newer states read
    # slots inside a piece's batch, then newest first, so older states read
    # slots before it; each gives the same bits as its pickled copy, whose
    # fresh log fills in one batch, and a branch from the next-to-newest state
    # (a fresh log) agrees too
    rng = np.random.default_rng(seed)
    states = _newer(_random_view(kind, dim, h, n, None, seed), rng, appends)
    branch = _newer(states[-2], rng, 1)[-1]
    assert branch._log is not states[-2]._log

    def on(state):
        if c is None:
            return state
        overlay = rng.uniform(-1.0, 1.0, (dim, 4))
        return StageView(state, c * h, overlay, overlay.sum(axis=1) if kind == "dde" else None)

    views = [on(state) for state in states + states[::-1] + [branch]]
    knots = views[0].breakpoints()
    a, b = sorted(_near(knots, *bound) for bound in bounds)
    if b - a < 1e-3 * h:
        return
    kernel = Pointwise(g)
    with unittest.mock.patch.object(history, "_PIECE_BATCH", batch):
        for view in views:
            got = integrate_view(view, a, b, kernel)
            _assert_matches_per_call_path(view, a, b, kernel, got)
            copy = pickle.loads(pickle.dumps(view))
            assert getattr(copy, "base", copy)._log is not getattr(view, "base", view)._log
            assert np.array_equal(integrate_view(copy, a, b, kernel), got)


def test_piece_stores_stay_within_their_bound(monkeypatch):
    # reads of ever new bounds on one log add a piece store each: past the
    # bound the oldest piece's store goes, never the whole-segment one, and
    # every read still agrees with the per-call path
    monkeypatch.setattr(history, "_STORES", 4)
    state = _random_view("re", 1, 0.25, 8, None, 0)
    view = StageView(state, 0.1, np.ones((1, 4)))
    kernel = Pointwise(_KERNELS[0])
    for b in np.linspace(-1.6, -0.5, 12):
        got = integrate_view(view, -1.93, float(b), kernel)
        _assert_matches_per_call_path(view, -1.93, float(b), kernel, got)
        stores = state._log.sums[kernel]
        assert "whole" in stores and len(stores) <= 4
    assert len(stores) == 4


@pytest.mark.parametrize("dim", [1, 3])
def test_pointwise_store_follows_the_log(dim):
    # each state reads its own window's sums: after k appends, after a branch
    # from an older state (a fresh log), after a pickle round trip (a fresh
    # log), and as an older state sharing its log with a newer one
    rng = np.random.default_rng(dim)
    kernel = Pointwise(_KERNELS[1])
    old = _random_view("re", dim, 0.25, 12, None, dim)
    windows = ((-3.0, -0.5), (-2.9, -0.1), (-1.3, 0.0))

    def check(state):
        for a, b in windows:
            _assert_matches_per_call_path(state, a, b, kernel, integrate_view(state, a, b, kernel))
            view = StageView(state, 0.1, rng.uniform(-1.0, 1.0, (dim, 4)))
            _assert_matches_per_call_path(view, a, b, kernel, integrate_view(view, a, b, kernel))

    check(old)
    new = _append(old, rng, 5)
    assert new._log is old._log
    check(new)
    branch = _append(old, rng, 3)
    assert branch._log is not old._log
    check(branch)
    copy = pickle.loads(pickle.dumps(new))
    assert copy._log is not new._log
    check(copy)
    newest = _append(new, rng, 4)
    assert newest._log is old._log
    check(newest)
    check(old)  # the store now reaches past old's window


def test_threads_share_one_store():
    # threads read windows through one kernel on states that share one log,
    # each thread in its own order of older and newer states, while the
    # store fills; every state reads its own window's sums
    workers, rng = 4, np.random.default_rng(11)
    chain = [_random_view("re", 2, 0.01, 200, None, 11)]
    for _ in range(150):
        chain.append(chain[-1].shift_append(rng.uniform(-1.0, 1.0, (2, 4))))
    assert chain[-1]._log is chain[0]._log
    kernel = Pointwise(_KERNELS[1])
    orders = [rng.permutation(len(chain)) for _ in range(workers)]
    got = [{} for _ in range(workers)]
    barrier = threading.Barrier(workers, timeout=60)

    def read(k):
        barrier.wait()
        for i in orders[k]:
            got[k][i] = integrate_view(chain[i], -1.95, -0.05, kernel)

    threads = [threading.Thread(target=read, args=(k,)) for k in range(workers)]
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
    for i, state in enumerate(chain):
        for k in range(workers):
            _assert_matches_per_call_path(state, -1.95, -0.05, kernel, got[k][i])


def _kernel_calls(monkeypatch):
    """quadratic_re built by its factory with a kernel that records the
    number of values each call receives."""
    counts = []

    def counting(g):
        def counted(x):
            counts.append(len(x))
            return g(x)

        return Pointwise(counted)

    monkeypatch.setattr(problems, "Pointwise", counting)
    return problems.quadratic_re(), counts


def test_window_cost_per_step_does_not_grow_with_tau_over_h(monkeypatch):
    # after the first step, which fills the log's sums, an expo3 step hands
    # the kernel the same number of values at n = tau/h = 300 and 6000
    prob, counts = _kernel_calls(monkeypatch)
    tab, steps = builtin("expo3"), 5
    per_step = {}
    for n in (300, 6000):
        h = 3.0 / n
        state = step(prob, tab, initial_state(prob, h), 0.0)
        counts.clear()
        for k in range(1, steps + 1):
            state = step(prob, tab, state, k * h)
        per_step[n] = sum(counts) / steps
    assert per_step[300] == per_step[6000] <= 40


def test_on_knot_window_reads_stored_sums_filled_in_batches(monkeypatch):
    # quadratic_re's window [-3, -1] has both bounds on the knots of h = 0.25:
    # stage 1 (c = 0) reads the state's stored whole-segment sums, and the
    # stage views of c > 0 read their two end pieces on the log from stored
    # sums too, so no stage calls the integrand on an end piece.  The sums
    # fill in batches: the whole segments' when the window's end, lag = 1/h
    # slots behind the newest segment, passes the filled slots; each piece's
    # when its slot leaves its batch, which is capped at the newest slot
    fills, ends, views = {}, [], []

    class Counted(Pointwise):
        def __call__(self, theta, x):  # the per-call path
            ends.append(type(views[-1]))
            return self.g(x)

    real, rule = problems.integrate_view, quadrature._segment_sums
    monkeypatch.setattr(problems, "Pointwise", Counted)
    monkeypatch.setattr(problems, "integrate_view",
                        lambda v, *args: views.append(v) or real(v, *args))
    monkeypatch.setattr(quadrature, "_segment_sums", lambda g, piece, coeffs: fills.setdefault(
        piece.key, []).append(len(coeffs)) or rule(g, piece, coeffs))
    h, steps, lag = 0.25, 40, 4
    final = integrate(problems.quadratic_re(), builtin("expo3"), h, steps * h)
    assert len(views) == 3 * steps
    assert ends == []  # no end-piece call at any stage
    assert 0 < len(fills.pop("whole")) <= steps / lag + 1
    # a piece at each end of the window, at each of the two stages with c > 0
    assert len(fills) == 4
    for sizes in fills.values():
        assert 0 < len(sizes) <= steps / lag + 1 and max(sizes) <= history._PIECE_BATCH
    # the same run, read through the per-call path, agrees to roundoff
    monkeypatch.setattr(problems, "Pointwise", lambda g: (lambda th, x: g(x)))
    per_call = integrate(problems.quadratic_re(), builtin("expo3"), h, steps * h)
    assert np.allclose(final.coefficients(), per_call.coefficients(), rtol=0.0, atol=1e-14)


def test_window_reaching_zero_fills_no_lone_slot(monkeypatch):
    # the window [-1, 0] reaches the newest slot, so each step's first stage
    # fills one new slot of its whole-segment sums: that fill reads the
    # written slot before it too, two columns for gemm, and keeps the second,
    # whose bits are those of the slot filled alone
    kernel, fills = Pointwise(lambda x: x), []
    rule = quadrature._segment_sums
    monkeypatch.setattr(quadrature, "_segment_sums", lambda g, piece, coeffs: fills.append(
        len(coeffs)) or rule(g, piece, coeffs))
    prob = Problem(kind="dde", dim=1, tau=1.0, phi0=lambda th: np.cos(th),
                   rhs=lambda t, v: -v.head + integrate_view(v, -1.0, 0.0, kernel),
                   distributed_limits=(-1.0, 0.0))
    h, steps = 0.1, 30
    final = integrate(prob, builtin("expo3"), h, steps * h)
    assert len(fills) > steps and min(fills) == 2
    log = final._log
    store, filled = log.sums[kernel]["whole"]
    whole = _window_plan(10, h, 0.0, -1.0, 0.0).whole
    assert filled == log.end - 1  # all but the final step's segment
    for s in range(filled):
        alone = rule(kernel.g, whole, log.buf[s : s + 1])
        assert store[..., s].tobytes() == alone[..., 0].tobytes()


@settings(deadline=None, max_examples=300)
@given(
    kind=st.sampled_from(["re", "dde"]),
    dim=st.sampled_from([1, 3]),
    h=st.sampled_from([0.25, 0.5, 0.1, 1.0 / 3.0]),
    n=st.integers(min_value=1, max_value=8),
    c=st.one_of(st.none(), st.just(1.0), st.floats(min_value=0.01, max_value=0.99)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    knots=st.tuples(st.integers(0, 40), st.integers(0, 40)),
    moved=st.sampled_from([(-1, 0), (1, 0), (0, -1), (0, 1), (1, -1), (-1, 1)]),
    pointwise=st.booleans(),
)
@example(kind="re", dim=1, h=0.25, n=8, c=None, seed=0, knots=(0, 8), moved=(1, -1), pointwise=True)
@example(kind="dde", dim=3, h=0.1, n=8, c=0.5, seed=1, knots=(1, 6), moved=(-1, 1), pointwise=True)
@example(kind="re", dim=3, h=1 / 3, n=6, c=None, seed=2, knots=(2, 5), moved=(0, 1), pointwise=False)
@example(kind="re", dim=1, h=0.5, n=4, c=1.0, seed=3, knots=(1, 3), moved=(-1, 0), pointwise=False)
def test_a_bound_on_a_knot_and_one_ulp_off_it_agree(kind, dim, h, n, c, seed, knots, moved,
                                                    pointwise):
    # a bound exactly on a knot makes its segment whole; the same bound moved
    # by one ulp keeps an end piece: on states and stage views, for Pointwise
    # and theta-dependent integrands, the two windows agree to roundoff
    view = _random_view(kind, dim, h, n, c, seed)
    breakpoints = view.breakpoints()
    window = sorted(float(breakpoints[k % len(breakpoints)]) for k in knots)
    if window[0] == window[1]:
        return
    g = _KERNELS[seed % 2]
    integrand = Pointwise(g) if pointwise else (lambda th, x: np.exp(th)[:, None] * x)
    tau, tol = view.tau, _knot_tol(view.tau)
    off = [np.nextafter(x, x + step) if step else x for x, step in zip(window, moved)]
    a, b = (float(min(max(x, -tau - tol), tol)) for x in off)
    on, near = integrate_view(view, *window, integrand), integrate_view(view, a, b, integrand)
    _, scale = _reference(view, *window, integrand)
    assert np.shape(on) == np.shape(near)
    assert np.all(np.abs(on - near) <= 1e-14 * (1.0 + scale))


def test_pointwise_store_keeps_no_dropped_integrand():
    # the log holds its integrands by weak reference: one made afresh on
    # every call leaves no entry once dropped, and a kept one stays
    state = _random_view("re", 1, 0.25, 12, None, 0)
    for _ in range(3):
        integrate_view(state, -3.0, -1.0, Pointwise(lambda x: x))
    gc.collect()
    assert len(state._log.sums) == 0
    kept = Pointwise(lambda x: x)
    integrate_view(state, -3.0, -1.0, kept)
    assert list(state._log.sums) == [kept]
    del kept
    gc.collect()
    assert len(state._log.sums) == 0


def test_pointwise_checks_its_input():
    state = _random_view("re", 1, 0.25, 12, None, 0)
    with pytest.raises(TypeError, match="Pointwise needs a callable"):
        Pointwise(1.0)
    # the kernel's shape is checked on the whole segments and the end pieces
    with pytest.raises(ValueError, match="integrand returned shape"):
        integrate_view(state, -3.0, -1.0, Pointwise(lambda x: x[:, :, None]))
    with pytest.raises(ValueError, match="integrand returned shape"):
        integrate_view(state, -2.9, -2.8, Pointwise(lambda x: x[1:]))
    assert len(state._log.sums) == 0


# ---------------------------------------------------------------------------
# window plans: the geometry of a window, computed once per mesh, shift and bounds
# ---------------------------------------------------------------------------


def _plan_key(view, a, b):
    base = getattr(view, "base", view)
    return base.n_segments, view.h, getattr(view, "shift", 0.0), a, b


def _same_bits(x, y):
    return type(x) is type(y) and np.asarray(x).tobytes() == np.asarray(y).tobytes()


@settings(deadline=None, max_examples=300)
@given(
    kind=st.sampled_from(["re", "dde"]),
    h=st.sampled_from([0.25, 0.5, 1.0 / 3.0]),
    n=st.integers(min_value=1, max_value=8),
    c=st.one_of(st.none(), st.just(1.0), st.floats(min_value=0.01, max_value=0.99)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    ends=st.tuples(_ends, _ends),
)
@example(kind="re", h=0.25, n=8, c=None, seed=0, ends=((0, 0.0, 0.0), (7, 1.0, 0.0)))
@example(kind="re", h=0.5, n=8, c=0.5, seed=1, ends=((0, 0.3, 0.0), (8, 1.0, 0.0)))
@example(kind="dde", h=0.5, n=4, c=None, seed=2, ends=((1, 0.2, 0.0), (1, 0.7, 0.0)))
@example(kind="re", h=0.25, n=6, c=None, seed=5, ends=((2, 0.5, 0.0), (3, 0.5, 0.0)))
@example(kind="dde", h=0.25, n=6, c=0.3, seed=3, ends=((6, 0.2, 0.0), (6, 0.6, 0.0)))
@example(kind="re", h=1.0 / 3.0, n=5, c=0.5, seed=4, ends=((1, 0.0, 1.0), (5, 1.0, -1.0)))
def test_cached_window_plan_equals_a_fresh_one(kind, h, n, c, seed, ends):
    # HistoryState and StageView windows, on and off the mesh, within the knot
    # tolerance of a knot, across the overlay, and inside one piece (no whole
    # segment): the plan a window reads, after a call has cached it, is bit for
    # bit the one computed afresh, and its arrays are read-only
    view = _random_view(kind, 1, h, n, c, seed)
    knots, tol = view.breakpoints(), _knot_tol(view.tau)
    a, b = sorted(_window_end(knots, *end, tol) for end in ends)
    a, b = float(max(a, -view.tau - 0.9 * tol)), float(min(b, 0.9 * tol))
    if b - a < 1e-3 * h:
        return
    integrate_view(view, a, b, lambda th, x: x)
    plan = _pieces(view, a, b)[0]
    assert plan is _window_plan(*_plan_key(view, a, b))
    fresh = _window_plan.__wrapped__(*_plan_key(view, a, b))
    assert plan._fields == fresh._fields
    for got, want in zip(plan[:7], fresh[:7]):
        assert _same_bits(got, want)
    # the rules of a whole segment and of each end piece with a store, on a
    # segment of the log but the newest: equal bits and keys, each piece's the
    # plan's arrays of that piece, with its weights doubled, and its key made
    # of their bits; the others, the overlay's and one on the newest segment,
    # are read per call
    newest = _plan_key(view, a, b)[0] - 1
    assert [i for i, _ in plan.stored] == [i for i, _ in fresh.stored]
    assert [i for i, _ in plan.stored] == [i for i in plan.ends if 0 <= i < newest]
    assert plan.called == fresh.called
    assert [plan.ends[k] for k in plan.called] == [i for i in plan.ends if not 0 <= i < newest]
    rules = [plan.whole, *(piece for _, piece in plan.stored)]
    fresh_rules = [fresh.whole, *(piece for _, piece in fresh.stored)]
    for got, want in zip(rules, fresh_rules, strict=True):
        assert got.key == want.key
        assert _same_bits(got.powers, want.powers) and _same_bits(got.weights, want.weights)
    assert plan.whole.key == "whole"
    assert _same_bits(plan.whole.weights, np.array([h * quadrature._W] * 2))
    logged = [k for k in range(len(plan.ends)) if k not in plan.called]
    for k, (_, piece) in zip(logged, plan.stored, strict=True):
        assert _same_bits(piece.powers, plan.powers[k])
        assert _same_bits(piece.weights, np.array([plan.weights[4 * k : 4 * k + 4]] * 2))
        assert piece.key == piece.powers.tobytes() + piece.weights.tobytes()
    for arr in (*plan[4:7], *(arr for rule in rules for arr in rule[:2])):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    # the pieces tile the window: whole segments between up to two end pieces,
    # none when both bounds are knots
    assert len(plan.ends) <= 2 and len(plan.ends) + plan.m >= 1
    assert len(plan.thetas) == len(plan.weights) == 4 * len(plan.ends) == 4 * len(plan.powers)
    assert plan.weights.sum() + plan.m * h == pytest.approx(b - a, rel=1e-12)


def _scanned_cuts(n, h, shift, a, b):
    """(first, m, ends) of a window plan, by a scan over every knot: the cuts
    are the knots strictly inside (a + tol, b - tol) and a bound that equals a
    knot (other than a stage view's knot 0), and each end piece reads the
    segment holding its midpoint (-1 for the overlay)."""
    tol = _knot_tol(n * h)
    lo, hi = a + tol, b - tol
    if shift > 0.0:
        lo = max(lo, -(n * h) + tol)
    knots = [(j - n) * h - shift for j in range(n + 1)]
    inside = [j for j, knot in enumerate(knots)
              if lo < knot < hi or knot == b or knot == a and j >= (shift > 0.0)]
    first = inside[0] if inside else next((j for j, knot in enumerate(knots) if knot > lo), n + 1)

    def segment(t_lo, t_hi):
        mid = 0.5 * (t_lo + t_hi)
        if shift > 0.0 and mid > knots[n]:
            return -1
        return min(max(sum(knot <= mid for knot in knots) - 1, 0), n - 1)

    if not inside:
        return first, 0, (segment(a, b),)
    edges = ((a, knots[inside[0]]), (knots[inside[-1]], b))
    return first, len(inside) - 1, tuple(segment(*edge) for edge in edges if edge[0] < edge[1])


@settings(deadline=None, max_examples=300)
@given(
    h=st.sampled_from([0.25, 0.1, 1.0 / 3.0]),
    n=st.integers(min_value=1, max_value=30),
    c=st.one_of(st.none(), st.just(1.0), st.floats(min_value=0.01, max_value=0.99)),
    ends=st.tuples(_ends, _ends),
)
@example(h=0.1, n=30, c=None, ends=((3, 0.0, 1.0), (20, 0.0, -1.0)))
@example(h=0.1, n=30, c=None, ends=((3, 0.0, -1.0), (20, 0.0, 1.0)))
@example(h=1.0 / 3.0, n=9, c=0.5, ends=((0, 0.0, -1.0), (9, 1.0, 1.0)))
def test_window_plan_cuts_at_the_knots_inside_the_tolerance(h, n, c, ends):
    # bounds on, near (within the knot tolerance of) and between knots, on
    # states and stage views: a fresh plan's cuts are those of a scan
    view = _random_view("re", 1, h, n, c, 0)
    knots, tol = view.breakpoints(), _knot_tol(view.tau)
    a, b = sorted(_window_end(knots, *end, tol) for end in ends)
    a, b = float(max(a, -view.tau - 0.9 * tol)), float(min(b, 0.9 * tol))
    if b - a < 1e-3 * h:
        return
    key = _plan_key(view, a, b)
    plan = _window_plan.__wrapped__(*key)
    assert (plan.first, plan.m, plan.ends) == _scanned_cuts(*key)


@pytest.mark.parametrize("shift", [None, 0.1])
def test_one_plan_serves_states_with_their_own_values(shift):
    # two views on the same mesh, shift and window share one plan and each
    # gets the integral of its own coefficients (and overlay), on both paths
    kernel = Pointwise(_KERNELS[1])
    views = [_random_view("re", 2, 0.25, 12, None, seed) for seed in (5, 6)]
    if shift is not None:
        rng = np.random.default_rng(7)
        views = [StageView(v, shift, rng.uniform(-1.0, 1.0, (2, 4))) for v in views]
    got = {}
    for a, b in ((-3.0, -0.5), (-2.9, -0.05), (-0.2, -0.01)):
        plans = {id(_pieces(v, a, b)[0]) for v in views}
        assert len(plans) == 1
        for i, view in enumerate(views):
            got[i] = integrate_view(view, a, b, kernel)
            _assert_matches_per_call_path(view, a, b, kernel, got[i])
            want, scale = _reference(view, a, b, lambda th, x: kernel.g(x) * (1.0 + th)[:, None])
            per_call = integrate_view(view, a, b, lambda th, x: kernel.g(x) * (1.0 + th)[:, None])
            assert np.all(np.abs(per_call - want) <= 1e-14 * (1.0 + scale))
        assert not np.array_equal(got[0], got[1])


def _final_states(prob, h, T):
    final = integrate(prob, builtin("expo3"), h, T)
    return [(s.coefficients(), s.head) for s in (final if isinstance(final, tuple) else (final,))]


@pytest.mark.parametrize("make, h, T", [(quadratic_re, 0.01, 1.0), (daphnia, 0.05, 2.0)])
def test_cold_and_warm_plan_cache_give_the_same_run(make, h, T):
    _window_plan.cache_clear()
    cold = _final_states(make(), h, T)
    assert _window_plan.cache_info().hits > 0
    warm = _final_states(make(), h, T)
    for (c0, h0), (c1, h1) in zip(cold, warm):
        assert np.array_equal(c0, c1)
        assert (h0 is None and h1 is None) or np.array_equal(h0, h1)


def test_plan_cache_stays_within_its_bound():
    bound = _window_plan.cache_info().maxsize
    assert bound is not None
    for k in range(1, bound + 50):
        h = 1.0 / k
        state = _const_state(1.0, 1.0, h)
        view = StageView(state, h / 3.0, np.ones((1, 4)))
        for v in (state, view):
            assert integrate_view(v, -1.0, -0.5 * h, lambda th, x: x)[0] == pytest.approx(
                1.0 - 0.5 * h, rel=1e-12
            )
    assert _window_plan.cache_info().currsize <= bound


@pytest.mark.parametrize("pointwise", [False, True], ids=["per_call", "pointwise"])
def test_complex_integrand_raises(pointwise):
    # the imaginary part is not dropped by a cast to float
    state = _const_state(1.0, 3.0, 0.5)
    g = lambda x: x[:, 0] + 1j  # noqa: E731
    integrand = Pointwise(g) if pointwise else (lambda th, x: g(x))
    for view in (state, StageView(state, 0.25, np.ones((1, 4)))):
        with pytest.raises(TypeError, match="integrand returned complex values"):
            integrate_view(view, -3.0, -0.2, integrand)
