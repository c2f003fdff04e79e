import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from expdelay import HistoryState, StageView, gauss_legendre, integrate_view, quadratic_re
from expdelay.history import _knot_tol


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
