"""Independent oracles for the tests: the scalar weights of the phi operators
on shift semigroups, in closed form.

phi_k(gh*A0), A0 the generator of the shift semigroup on [-tau, 0], acts on
a forcing concentrated at theta = 0 by one weight per offset theta.  The
stepper builds the same action from its overlay rules; these formulas check
it without sharing its code.
"""

import math


def _tail_power(k: int, gh: float, theta: float) -> float:
    """max(0, gh + theta)^k, after checking k >= 1 and gh > 0."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not gh > 0.0:
        raise ValueError("scaled step gh must be positive")
    return max(0.0, gh + theta) ** k


def phi_dde_weight(k: int, gh: float, theta: float) -> float:
    """Tail weight of phi_k(gh*A0) acting on a head-concentrated forcing (f; 0).

    The action is (f/k!; theta -> phi_dde_weight(k, gh, theta) * f): the head
    weight is 1/k! and the tail weight max(0, gh+theta)^k / (gh^k k!).
    """
    return _tail_power(k, gh, theta) / (gh**k * math.factorial(k))


def phi_re_weight(k: int, gh: float, theta: float) -> float:
    """Weight of phi_k(gh*A0) acting on f*H in the renewal-equation state space.

    Equals (gh^k - max(0, gh+theta)^k) / (gh^k k!); complements
    phi_dde_weight so that the two scaled weights sum to gh^k.
    """
    return (gh**k - _tail_power(k, gh, theta)) / (gh**k * math.factorial(k))
