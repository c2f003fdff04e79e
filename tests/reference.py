"""A reference stepper: the explicit exponential Runge-Kutta scheme written
the long way, as a differential oracle for the package's step path.

Each component's history is a list of cubics over absolute time, one numpy
``Polynomial`` per mesh interval [j h, (j + 1) h] and per dimension, in the
local s = (t - j h)/h, started from ``oracles.project_per_segment``.  There is no log, no stored sum and no
plan: stage i reads the tableau's own (k, w) terms, and its overlay on
[-c h, 0] comes from the closed-form weights of ``oracles``.  With
u_j = h sum_(k, w) w * (weight of phi_k) F_j over the row's entries j,

    DDE:  y + sum_j u_j phi_dde_weight(k, c h, theta), and the value at 0 is
          the new head;
    RE:   the density -d/dtheta of sum_j u_j phi_re_weight(k, c h, theta),
          the action of phi_k on the integrated state, differentiated.

The update row (c = 1) is fitted as a cubic on the newest interval.  A view
reads the overlay on [-c h, 0] and the history at t + c h + theta before
it; a window is integrated exactly, piece by piece between knots, through
each cubic's antiderivative.
"""

import math

import numpy as np
from numpy.polynomial import Polynomial

from oracles import phi_dde_weight, phi_re_weight, project_per_segment

#: sample points on [0, 1] for a fit: more than a cubic needs, none at the ends only
_FIT_S = 0.5 * (1.0 - np.cos(np.pi * (np.arange(8) + 0.5) / 8))


def _fit(xs, values, domain):
    """One least-squares cubic per column of ``values`` (m, dim) at the points xs."""
    return [Polynomial.fit(xs, column, 3, domain=domain) for column in np.asarray(values).T]


class Component:
    """One component's history as cubics over absolute time, and a DDE head."""

    def __init__(self, kind, dim, tau, h, phi0):
        self.kind, self.dim, self.tau, self.h = kind, dim, tau, h
        self.n = round(tau / h)
        coeffs, self.head = project_per_segment(phi0, kind, dim, tau, h)
        # segment j, j from -n, covers [j h, (j + 1) h]
        self.segments = {j - self.n: list(map(Polynomial, coeffs[j])) for j in range(self.n)}
        self.first = -self.n

    def _segment(self, x):
        """The segment that holds absolute time x, the left one at a knot, and
        the oldest or newest one just outside them (as the package reads -tau)."""
        u = x / self.h
        r = round(u)
        j = r - 1 if abs(u - r) <= 1e-9 * max(1.0, abs(u)) else math.floor(u)
        return min(max(j, self.first), self.first + self.n - 1)

    def at(self, x):
        j = self._segment(x)
        return np.array([p((x - j * self.h) / self.h) for p in self.segments[j]])

    def integral(self, lo, hi):
        """The integral of the history over the absolute interval [lo, hi], cut
        at the knots more than 1e-9 h inside it."""
        tol = 1e-9 * self.h
        cuts = [lo] + [j * self.h for j in range(math.floor(lo / self.h), math.ceil(hi / self.h))
                       if lo + tol < j * self.h < hi - tol] + [hi]
        total = np.zeros(self.dim)
        for a, b in zip(cuts[:-1], cuts[1:]):
            j = self._segment(0.5 * (a + b))
            sa, sb = (a - j * self.h) / self.h, (b - j * self.h) / self.h
            total += [self.h * (p.integ()(sb) - p.integ()(sa)) for p in self.segments[j]]
        return total


class View:
    """The stage value at t + c h: the overlay ``overlay(theta)`` on
    [-c h, 0] (none at c = 0), the history before it, and a DDE head."""

    def __init__(self, comp, t, shift, overlay, head):
        self.comp, self.t, self.shift, self.overlay, self.head = comp, t, shift, overlay, head

    def eval(self, theta):
        if self.shift > 0.0 and theta >= -self.shift:
            return self.overlay(theta)
        return self.comp.at(self.t + self.shift + theta)

    def integral(self, a, b):
        """The integral over the window [a, b], which must end left of the overlay."""
        assert b <= -self.shift or self.shift == 0.0
        return self.comp.integral(self.t + self.shift + a, self.t + self.shift + b)


def _sums(h, row, F):
    """Per phi order k, h sum_j w F_j over the (k, w) terms of the row's entries."""
    out = {}
    for terms, f in zip(row, F):
        for k, w in terms:
            out[k] = out.get(k, 0.0) + h * w * f
    return out


def _overlay(comp, h, c, row, F):
    """The overlay of one tableau row at node c, as a function of theta, and
    its head (None for an RE)."""
    ch, u = c * h, _sums(h, row, F)
    if comp.kind == "dde":
        y = comp.head

        def dde(theta):
            return y + sum(uk * phi_dde_weight(k, ch, theta) for k, uk in u.items())

        return dde, dde(0.0)
    thetas = -ch + ch * _FIT_S
    integrated = [sum((uk * phi_re_weight(k, ch, th) for k, uk in u.items()),
                      np.zeros(comp.dim)) for th in thetas]
    density = [-p.deriv() for p in _fit(thetas, integrated, [-ch, 0.0])]
    return (lambda theta: np.array([p(theta) for p in density])), None


def run(components, rhs, tab, h, steps):
    """``steps`` steps of width h of the components (each a :class:`Component`);
    ``rhs(t, *views)`` returns one value per component.  Steps them in place."""
    nu = len(tab.c)
    for n in range(steps):
        t = n * h
        F = [np.zeros((nu, comp.dim)) for comp in components]
        for i, c in enumerate(tab.c):
            views = []
            for comp, f in zip(components, F):
                overlay, head = (None, comp.head) if c == 0.0 else _overlay(comp, h, c, tab.a[i], f)
                views.append(View(comp, t, c * h, overlay, head))
            for f, value in zip(F, rhs(t + c * h, *views)):
                f[i] = value
        for comp, f in zip(components, F):
            overlay, head = _overlay(comp, h, 1.0, tab.b, f)
            comp.segments[n] = _fit(_FIT_S, [overlay(h * (s - 1.0)) for s in _FIT_S], [0.0, 1.0])
            del comp.segments[comp.first]
            comp.first += 1
            comp.head = head
    return components
