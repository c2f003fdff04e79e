"""The RE method is the DDE method on the integrated state.

A density b with b(t) = f(int_a^b b(t + theta) dtheta) has the integral
U(t) = U(0) + int_0^t b, which solves the DDE U' = f(U(t + b) - U(t + a)).
An exponential Runge-Kutta step advances both with the same tableau, and the
RE stage overlay integrated from theta to 0 is the DDE overlay taken from the
DDE stage head, so the two runs agree to roundoff for any tableau:
U(t + theta) - U(t) = -j(theta), the RE state's ``j_integrate``.  Both initial
projections are exact when the density history is a quadratic, as
U0(theta) = -int_theta^0 b0 is then a cubic.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expdelay import (
    Pointwise,
    Problem,
    Tableau,
    builtin,
    builtin_names,
    daphnia,
    integrate,
    integrate_view,
)

#: every gap is held to this share of the solution's scale
TOL = 1e-13
#: windows [a, b] on the mesh of every h in HS; tau = -a, and [-1, 0] reaches the stage overlay
WINDOWS = [(-4.0, -3.0), (-2.5, -0.5), (-1.0, 0.0), (-4.0, 0.0)]
HS = [0.5, 0.25, 0.1]
T = 3.0


def _f(dim):
    # a bounded nonlinearity that mixes the components
    mix = np.eye(dim) + 0.5 * np.eye(dim, k=1) - 0.3 * np.eye(dim, k=-1)
    return lambda x: 0.8 * np.sin(mix @ x) + 0.2


def _pair(dim, window, q):
    """The RE from the density history b0(theta) = sum_p q[p] theta^p, q of
    shape (3, dim), and the DDE of its integral from U0 = -int_theta^0 b0."""
    (a, b), f = window, _f(dim)
    ident = Pointwise(lambda x: x)
    re = Problem(
        kind="re", dim=dim, tau=-a, rhs=lambda t, v: f(integrate_view(v, a, b, ident)),
        phi0=lambda th: (th[:, None] ** np.arange(3.0)) @ q, distributed_limits=(a, b),
    )
    u0 = q / np.arange(1.0, 4.0)[:, None]
    dde = Problem(
        kind="dde", dim=dim, tau=-a,
        rhs=lambda t, v: f((v.head if b == 0.0 else v.eval(b)) - v.eval(a)),
        phi0=lambda th: (th[:, None] ** np.arange(1.0, 4.0)) @ u0,
    )
    return re, dde


def _gaps(r, d, T):
    """Largest |U(T + theta) - U(T) + j(theta)| on a fine grid and, while T <= tau,
    |U(T) - j(-T)|, each over the solution's scale."""
    thetas = np.linspace(-d.tau, 0.0, 8 * d.n_segments + 1)
    u = d.eval_many(thetas)
    scale = max(1.0, float(np.abs(u).max()))
    gap = float(np.abs(u - d.head + r.j_integrate(thetas)).max())
    head_gap = float(np.abs(d.head - r.j_integrate(-T)).max()) if T <= d.tau else 0.0
    return gap / scale, head_gap / scale


def _check(tab, dim, window, h, q):
    re, dde = _pair(dim, window, q)
    gap, head_gap = _gaps(integrate(re, tab, h, T), integrate(dde, tab, h, T), T)
    assert gap <= TOL and head_gap <= TOL, (tab.name, dim, window, h, gap, head_gap)


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("name", builtin_names())
def test_builtins_step_the_integrated_state(name, window):
    q = np.array([[0.6, -0.2], [0.3, 0.1], [-0.05, 0.08]])
    for h in HS:
        _check(builtin(name), 2, window, h, q)


@st.composite
def _tableaux(draw):
    # first node 0, the rest 0 or in [0.01, 1]; a row with terms needs a positive node.
    # Weights lie in [-1, 1]: the runs' roundoff grows as a perturbation of the
    # history does, and weights up to 2 in size can amplify that 300-fold.
    nu = draw(st.integers(1, 3))
    c = [0.0] + [draw(st.just(0.0) | st.floats(0.01, 1.0)) for _ in range(nu - 1)]

    def terms(allowed=True):
        count = draw(st.integers(0, 2)) if allowed else 0
        return tuple((draw(st.integers(1, 3)), draw(st.floats(-1.0, 1.0))) for _ in range(count))

    a = [[terms(c[i] > 0.0) if j < i else () for j in range(nu)] for i in range(nu)]
    return Tableau(name="random", c=c, a=a, b=[terms() for _ in range(nu)], declared_order=1)


@settings(deadline=None, max_examples=30)
@given(
    tab=_tableaux(),
    dim=st.sampled_from([1, 2]),
    window=st.sampled_from(WINDOWS),
    h=st.sampled_from(HS),
    seed=st.integers(0, 2**32 - 1),
)
def test_any_tableau_steps_the_integrated_state(tab, dim, window, h, seed):
    q = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(3, dim))
    _check(tab, dim, window, h, q)


#: daphnia's defaults, passed explicitly so that both systems read the same ones
BETA, R, K, GAMMA, ABAR, AMAX = 3.02, 1.0, 1.0, 1.0, 3.0, 4.0


def _daphnia_integrated():
    """daphnia's birth RE and resource DDE as one 2-dim DDE in (U, S), U' = b."""

    def rhs(t, v):
        births = (v.eval(-ABAR) - v.eval(-AMAX))[0]
        S = v.head[1]
        return np.array([BETA * S * births, R * S * (1.0 - S / K) - GAMMA * S * births])

    return Problem(
        kind="dde", dim=2, tau=AMAX, rhs=rhs,
        phi0=lambda th: np.stack([0.7 * th, np.full(len(th), 0.35)], axis=-1),
    )


@pytest.mark.parametrize("name", builtin_names())
def test_daphnia_is_one_dde_in_the_integrated_births(name):
    coupled = daphnia(beta=BETA, r=R, K=K, gamma=GAMMA, abar=ABAR, amax=AMAX)
    for h in HS:
        r, s = integrate(coupled, builtin(name), h, T)
        d = integrate(_daphnia_integrated(), builtin(name), h, T)
        thetas = np.linspace(-AMAX, 0.0, 8 * d.n_segments + 1)
        u = d.eval_many(thetas)
        scale = max(1.0, float(np.abs(u).max()))
        gaps = [
            np.abs(u[:, 0] - d.head[0] + r.j_integrate(thetas)[:, 0]).max(),
            np.abs(d.head[0] - r.j_integrate(-T)[0]),
            np.abs(u[:, 1] - s.eval_many(thetas)[:, 0]).max(),
            np.abs(d.head[1] - s.head[0]),
        ]
        assert max(gaps) <= TOL * scale, (name, h, gaps)
