import math

import numpy as np
import pytest
from scipy.integrate import quad

from expdelay import belzen, daphnia, initial_state, quadratic_re
from expdelay.problems import CLI_DEFAULTS, REGISTRY


def test_registry_contents():
    assert set(REGISTRY) == {"belzen", "quadratic_re", "daphnia"}
    assert set(CLI_DEFAULTS) == set(REGISTRY)


def test_belzen_values():
    prob = belzen(1.0)
    phi = prob.phi0
    assert float(phi(-1.0)) == pytest.approx(-math.exp(-1.0), abs=1e-15)
    state = initial_state(prob, 0.1)
    assert prob.rhs(0.0, state)[0] == pytest.approx(0.5 * math.pi, abs=1e-12)
    assert float(prob.exact(2.0)) == pytest.approx(0.0, abs=1e-15)


def test_belzen_exact_solution_satisfies_equation():
    lam = 1.0
    prob = belzen(lam)
    x = lambda t: float(prob.exact(t))
    eps = 1e-6
    for t in np.linspace(0.3, 4.0, 20):
        deriv = (x(t + eps) - x(t - eps)) / (2.0 * eps)
        rhs = lam * x(t) - 0.5 * math.pi * math.exp(lam) * x(t - 1.0)
        assert deriv == pytest.approx(rhs, abs=1e-5 * (1.0 + abs(rhs)))


def test_quadratic_re_parameters():
    prob = quadratic_re(4.0)
    c = 0.5 + math.pi / 16.0
    assert c == pytest.approx(0.6963495, abs=1e-7)
    assert float(prob.exact(0.0)) == pytest.approx(c, abs=1e-15)
    amp = float(prob.exact(1.0)) - c  # sin(pi/2) = 1 picks out the amplitude
    assert amp**2 == pytest.approx(2.0 * c * (1.0 - 0.25 - c), abs=1e-14)
    assert amp == pytest.approx(0.2733482, abs=1e-5)


def test_quadratic_re_rejects_bad_parameters():
    # tiny gamma drives the discriminant negative
    with pytest.raises(ValueError):
        quadratic_re(0.5)


def test_quadratic_re_exact_solution_satisfies_equation():
    gamma = 4.0
    prob = quadratic_re(gamma)
    x = lambda s: float(prob.exact(s))
    for t in np.linspace(0.0, 6.0, 20):
        win, _ = quad(lambda s: x(s) * (1.0 - x(s)), t - 3.0, t - 1.0, limit=200)
        assert x(t) == pytest.approx(0.5 * gamma * win, abs=1e-10)


def test_daphnia_decoupled_limits():
    prob = daphnia(beta=3.02)
    h = 0.1

    # zero birth history: RE value vanishes, resource follows pure logistic
    zero_b = type(prob)(
        dim_re=1,
        dim_dde=1,
        tau=prob.tau,
        rhs=prob.rhs,
        phi0_re=lambda th: np.zeros(np.shape(th)),
        phi0_dde=prob.phi0_dde,
        name="daphnia_zero_b",
        distributed_limits=prob.distributed_limits,
    )
    b0, s0 = initial_state(zero_b, h)
    f_re, f_dde = prob.rhs(0.0, b0, s0)
    assert f_re[0] == 0.0
    S = 0.35
    assert f_dde[0] == pytest.approx(S * (1.0 - S), abs=1e-13)


def test_daphnia_equilibrium_probe():
    r = K = gamma = 1.0
    prob = daphnia(beta=3.02, r=r, K=K, gamma=gamma)
    h = 0.1
    S = 0.35
    # window integral equal to r (1 - S/K) / gamma kills the resource slope
    target = r * (1.0 - S / K) / gamma
    b_const = target / (prob.tau - 3.0)  # window length amax - abar = 1
    eq = type(prob)(
        dim_re=1,
        dim_dde=1,
        tau=prob.tau,
        rhs=prob.rhs,
        phi0_re=lambda th: np.full(np.shape(th), b_const),
        phi0_dde=lambda th: np.full(np.shape(th), S),
        name="daphnia_eq",
        distributed_limits=prob.distributed_limits,
    )
    b0, s0 = initial_state(eq, h)
    _, f_dde = prob.rhs(0.0, b0, s0)
    assert f_dde[0] == pytest.approx(0.0, abs=1e-13)


def test_daphnia_validates_window():
    with pytest.raises(ValueError):
        daphnia(abar=4.0, amax=3.0)
