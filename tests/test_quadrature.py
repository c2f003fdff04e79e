import numpy as np
import pytest

from expdelay import HistoryState, integrate_view, quadratic_re


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
