"""Whole runs of the package's step path against the reference stepper of
``tests/reference.py``, which shares none of its layers: no log, no stored
sums, no plan cache and no window plans.  Every built-in method runs 30 steps
of belzen, of a dim-2 DDE with two mesh-aligned discrete delays and of the
coupled daphnia problem, at tau/h <= 24; the final heads and histories agree
to roundoff at the solution's scale."""

import math

import numpy as np
import pytest

import reference
from expdelay import Problem, belzen, builtin, builtin_names, daphnia, integrate

#: every gap is held to this share of the solution's scale
TOL = 1e-13
STEPS = 30


def _two_delays():
    """x1' = -x1 + x2(t - 1/2)/2 + sin(t)/5, x2' = 4 x1(t - 1)/5 - 3 x1 x2/10."""

    def rhs(t, v):
        x1, x2 = v.head
        return np.array([-x1 + 0.5 * v.eval(-0.5)[1] + 0.2 * math.sin(t),
                         0.8 * v.eval(-1.0)[0] - 0.3 * x1 * x2])

    return Problem(kind="dde", dim=2, tau=1.0, rhs=rhs, name="two_delays",
                   phi0=lambda th: np.stack([np.cos(th), 1.0 + np.sin(2.0 * th)], axis=-1))


def _daphnia_rhs(t, vb, vs):
    """daphnia's rhs at its default parameters, on reference views."""
    beta, r, K, gamma, abar, amax = 3.02, 1.0, 1.0, 1.0, 3.0, 4.0
    births = vb.integral(-amax, -abar)
    S = vs.head
    return beta * S * births, r * S * (1.0 - S / K) - gamma * S * births


# name -> (problem, h, the reference's rhs: None for the problem's own)
CASES = {
    "belzen": (belzen(), 0.05, None),
    "two_delays": (_two_delays(), 1.0 / 16.0, None),
    "daphnia": (daphnia(), 1.0 / 6.0, _daphnia_rhs),
}


def _reference_components(prob, h):
    if prob.kind == "coupled":
        return [reference.Component("re", prob.dim_re, prob.tau, h, prob.phi0_re),
                reference.Component("dde", prob.dim_dde, prob.tau, h, prob.phi0_dde)]
    return [reference.Component(prob.kind, prob.dim, prob.tau, h, prob.phi0)]


@pytest.mark.parametrize("name", builtin_names())
@pytest.mark.parametrize("case", sorted(CASES))
def test_step_path_matches_the_reference_stepper(case, name):
    prob, h, rhs = CASES[case]
    tab = builtin(name)
    final = integrate(prob, tab, h, STEPS * h)
    states = final if isinstance(final, tuple) else (final,)
    single = len(states) == 1
    comps = reference.run(_reference_components(prob, h),
                          rhs or (lambda t, *views: (prob.rhs(t, *views),) if single else
                                  prob.rhs(t, *views)),
                          tab, h, STEPS)
    T = STEPS * h
    for state, comp in zip(states, comps):
        # interior points of every segment, so that an RE's jumps at knots do not count
        thetas = ((np.arange(comp.n) - comp.n)[:, None] + reference._FIT_S).ravel() * h
        got = state.eval_many(thetas)
        want = np.array([comp.at(T + th) for th in thetas])
        scale = max(np.abs(want).max(), 0.0 if comp.head is None else np.abs(comp.head).max())
        assert np.abs(got - want).max() <= TOL * scale
        if comp.kind == "dde":
            assert np.abs(state.head - comp.head).max() <= TOL * scale
