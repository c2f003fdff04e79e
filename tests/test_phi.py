import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from expdelay import phi_combine, phi_matrices, phi_matrix_action, phi_scalar

from oracles import phi_dde_weight, phi_re_weight

E = math.e


@pytest.mark.parametrize("k", range(5))
def test_phi_at_zero_is_inverse_factorial(k):
    assert phi_scalar(k, 0.0) == pytest.approx(1.0 / math.factorial(k), abs=1e-16)


def test_phi_closed_forms_at_one():
    # phi_1(z) = (e^z - 1)/z and the recursion phi_2 = (phi_1 - 1)/z
    assert phi_scalar(1, 1.0) == pytest.approx(E - 1.0, abs=1e-14)
    assert phi_scalar(2, 1.0) == pytest.approx(E - 2.0, abs=1e-14)
    assert phi_scalar(3, 1.0) == pytest.approx(E - 2.5, abs=1e-14)


def test_phi_zero_order_is_exp():
    for z in (-30.0, -1.0, 0.0, 2.5, 20.0):
        assert phi_scalar(0, z) == pytest.approx(math.exp(z), rel=1e-15)


def test_phi_negative_order_rejected():
    with pytest.raises(ValueError):
        phi_scalar(-1, 1.0)
    with pytest.raises(ValueError, match="phi order p must be >= 0, got -1"):
        phi_matrices(np.zeros((1, 1)), -1)


@pytest.mark.parametrize(
    "call, name",
    [(lambda: phi_scalar(2.5, 1.0), "k"), (lambda: phi_matrices(np.zeros((1, 1)), 2.5), "p")],
    ids=["phi_scalar", "phi_matrices"],
)
def test_phi_orders_are_integers(call, name):
    # named, not an error of math.factorial or of range
    with pytest.raises(TypeError, match=f"^phi order {name} must be an integer, got 2.5"):
        call()


@settings(deadline=None, max_examples=200)
@given(st.floats(min_value=-100.0, max_value=30.0), st.integers(0, 3))
def test_phi_recursion_identity(z, k):
    lhs = phi_scalar(k, z)
    rhs = z * phi_scalar(k + 1, z) + 1.0 / math.factorial(k)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


def test_phi_recursion_identity_on_fixed_grid():
    zs = np.linspace(-100.0, 30.0, 200)
    for k in range(4):
        for z in zs:
            lhs = phi_scalar(k, z)
            rhs = z * phi_scalar(k + 1, z) + 1.0 / math.factorial(k)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


@pytest.mark.parametrize("z", [-10.0, -1.0, 0.0, 1.0, 10.0])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_phi_matches_integral_oracle(k, z):
    # phi_k(z) = int_0^1 e^{z(1-s)} s^{k-1}/(k-1)! ds
    val, _ = quad(
        lambda s: math.exp(z * (1.0 - s)) * s ** (k - 1) / math.factorial(k - 1),
        0.0,
        1.0,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    assert phi_scalar(k, z) == pytest.approx(val, abs=1e-10)


def test_dde_weight_examples():
    for k in (1, 2, 3):
        assert phi_dde_weight(k, 0.3, 0.0) == pytest.approx(
            1.0 / math.factorial(k), abs=1e-15
        )
        assert phi_dde_weight(k, 0.3, -0.3) == 0.0
        assert phi_dde_weight(k, 0.3, -1.0) == 0.0
    assert phi_dde_weight(2, 0.1, -0.05) == pytest.approx(0.125, abs=1e-15)


@pytest.mark.parametrize("weight", [phi_dde_weight, phi_re_weight])
@pytest.mark.parametrize(
    "k, gh, match",
    [(0, 0.1, "k must be >= 1"), (-1, 0.1, "k must be >= 1"),
     (1, 0.0, "gh must be positive"), (2, -0.1, "gh must be positive")],
)
def test_weight_argument_checks(weight, k, gh, match):
    with pytest.raises(ValueError, match=match):
        weight(k, gh, -0.05)


def test_re_weight_examples():
    for k in (1, 2, 3):
        assert phi_re_weight(k, 0.3, 0.0) == 0.0
        assert phi_re_weight(k, 0.3, -0.3) == pytest.approx(
            1.0 / math.factorial(k), abs=1e-15
        )
    # h * phi_1 weight reproduces the -theta ramp of the Euler update
    h = 0.3
    for theta in (-0.3, -0.12, -0.05, 0.0):
        assert h * phi_re_weight(1, h, theta) == pytest.approx(-theta, abs=1e-15)


@settings(deadline=None, max_examples=200)
@given(
    st.integers(1, 4),
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=-20.0, max_value=0.0),
)
def test_weights_are_complementary(k, gh, theta):
    scale = gh**k * math.factorial(k)
    total = phi_dde_weight(k, gh, theta) * scale + phi_re_weight(k, gh, theta) * scale
    assert total == pytest.approx(gh**k, rel=1e-12)


def _single(k, v):
    """Coefficient vectors selecting phi_k(M) v alone: zeros below order k."""
    return [np.zeros_like(v)] * k + [v]


def test_matrix_action_zero_matrix(rng):
    v = np.array([1.0, -2.0, 3.5])
    for k in (1, 2, 3, 4):
        np.testing.assert_allclose(
            phi_matrix_action(np.zeros((3, 3)), _single(k, v)),
            v / math.factorial(k),
            atol=0,
        )
    for p in range(5):
        vs = rng.standard_normal((p + 1, 3))
        want = sum(vs[j] / math.factorial(j) for j in range(p + 1))
        np.testing.assert_allclose(
            phi_matrix_action(np.zeros((3, 3)), vs), want, rtol=1e-15, atol=0
        )


def test_matrix_action_diagonal(rng):
    lams = np.array([-3.0, 0.5, 2.0])
    v = np.array([1.0, 2.0, -1.0])
    got = phi_matrix_action(np.diag(lams), _single(1, v))
    want = (np.exp(lams) - 1.0) / lams * v
    np.testing.assert_allclose(got, want, rtol=1e-13)
    vs = rng.standard_normal((4, 3))
    got = phi_matrix_action(np.diag(lams), vs)
    want = sum(
        np.array([phi_scalar(j, lam) for lam in lams]) * vs[j] for j in range(4)
    )
    assert np.max(np.abs(got - want)) <= 1e-13 * (1.0 + np.max(np.abs(want)))


@pytest.mark.parametrize("z", [-50.0, -1.0, 0.5, 20.0])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_matrix_action_matches_scalar(k, z):
    v = np.array([0.7])
    got = phi_matrix_action(np.array([[z]]), _single(k, v))[0]
    want = phi_scalar(k, z) * 0.7
    assert abs(got - want) <= 1e-12 * (1.0 + abs(want))
    # every order up to k at once: sum_j phi_j(z) vs[j]
    vs = [np.array([0.7 - 0.3 * j]) for j in range(k + 1)]
    got = phi_matrix_action(np.array([[z]]), vs)[0]
    want = sum(phi_scalar(j, z) * vs[j][0] for j in range(k + 1))
    assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_matrix_action_linear_in_v(rng):
    M = rng.standard_normal((5, 5))
    u = rng.standard_normal(5)
    v = rng.standard_normal(5)
    a, b = 1.7, -0.4
    for k in (1, 2, 3):
        lhs = phi_matrix_action(M, _single(k, a * u + b * v))
        rhs = a * phi_matrix_action(M, _single(k, u)) + b * phi_matrix_action(
            M, _single(k, v)
        )
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * (1.0 + np.max(np.abs(lhs)))
    # a mixed-order call is the sum of its single-order calls
    for p in range(5):
        vs = rng.standard_normal((p + 1, 5))
        lhs = phi_matrix_action(M, vs)
        rhs = sum(phi_matrix_action(M, _single(j, vs[j])) for j in range(p + 1))
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * (1.0 + np.max(np.abs(lhs)))


def test_matrix_action_contract_violations():
    with pytest.raises(ValueError):
        phi_matrix_action(np.zeros((2, 3)), _single(1, np.zeros(2)))
    with pytest.raises(ValueError):
        phi_matrix_action(np.zeros((2, 2)), _single(1, np.zeros(3)))
    with pytest.raises(ValueError):
        phi_matrix_action(np.zeros((2, 2)), _single(5, np.zeros(2)))
    with pytest.raises(ValueError):
        phi_matrix_action(np.zeros((2, 2)), np.zeros((0, 2)))
    with pytest.raises(ValueError):
        phi_matrix_action(np.zeros((2, 2)), np.zeros(2))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: phi_matrices(np.array([[-1.0 + 1j]]), 1), "M"),
        (lambda: phi_matrix_action(np.array([[-1.0 + 1j]]), np.ones((2, 1))), "M"),
        (lambda: phi_matrix_action(np.array([[-1.0]]), np.ones((2, 1)) + 1j), "vs"),
        (lambda: phi_scalar(1, 1j), "z"),
        (lambda: phi_scalar(1, np.complex128(0.5)), "z"),
        (lambda: phi_combine(np.eye(1)[None], np.eye(1)[None], 1j, 1.0), "a"),
        (lambda: phi_combine(np.eye(1)[None], np.eye(1)[None], 1.0, np.complex128(1.0)), "b"),
    ],
    ids=["phi_matrices_M", "action_M", "action_vs", "phi_scalar_z", "phi_scalar_z_numpy",
         "phi_combine_a", "phi_combine_b"],
)
def test_complex_matrix_arguments_raise(call, name):
    # a TypeError naming the argument, not a real part kept after a ComplexWarning
    with pytest.raises(TypeError, match=f"^{name} holds complex values"):
        call()


@pytest.mark.parametrize("p", range(5))
def test_phi_matrices_match_scalar(p):
    for z in np.concatenate([-np.logspace(-4, 4), [0.5, 1.0]]):
        got = phi_matrices(np.array([[z]]), p)
        assert got.shape == (p + 1, 1, 1)
        for k in range(p + 1):
            want = phi_scalar(k, z)
            assert abs(got[k, 0, 0] - want) <= 1e-13 * abs(want), (z, k)


#: integer eigenvector matrix with 2-norm condition number 5.9
_Q = np.array([[-1, 2, 1, 1], [2, 0, -2, -2], [-1, 1, -1, -1], [-2, 1, -2, 0]], dtype=float)


@pytest.mark.parametrize("top", [1.0, 1e2, 1e3, 1e4])
def test_phi_matrices_non_normal(top):
    # M = Q diag(lam) Q^-1 with lam from -1e-3 to -top: compare phi_k(M) with
    # Q diag(phi_k(lam)) Q^-1 relative to its largest entry
    lams = -np.geomspace(1e-3, top, 4)
    Qinv = np.linalg.inv(_Q)
    M = _Q @ np.diag(lams) @ Qinv
    tol = 1e-14 + 5e-15 * np.abs(M).sum(axis=0).max()
    got = phi_matrices(M, 4)
    for k in range(5):
        want = _Q @ np.diag([phi_scalar(k, lam) for lam in lams]) @ Qinv
        assert np.abs(got[k] - want).max() <= tol * np.abs(want).max(), k


def test_phi_combine_adds_arguments(rng):
    # phi_k(aX) and phi_k(bX) give phi_k((a + b)X); a = b is the doubling rule
    X = rng.standard_normal((3, 3))
    for a, b in ((1.0, 1.0), (1.0, 2.0), (0.3, 0.5)):
        got = phi_combine(phi_matrices(a * X, 3), phi_matrices(b * X, 3), a, b)
        want = phi_matrices((a + b) * X, 3)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_phi_matrices_reject_bad_input():
    with pytest.raises(ValueError, match="square"):
        phi_matrices(np.zeros((2, 3)), 1)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            phi_matrices(np.array([[bad]]), 1)
