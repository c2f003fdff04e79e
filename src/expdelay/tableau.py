"""Butcher tableaux of explicit exponential Runge-Kutta methods and the
table of stiff order conditions they are checked against.

Coefficients a_ij and b_i are sums of w * phi_k over (k, w) terms, read once
into one weight matrix per row and evaluated at the row's node: row i of
``a`` at c_i z and ``b`` at z.  Steppers and checker read only the matrices,
the checker as defects psi_j(z) = c^j phi_j(c z) - sum_k w_k c_k^{j-1}/(j-1)!
of the rows of ``a`` and of ``b``, the row with c = 1.  ``_CONDITIONS`` holds one
entry per row of the condition table up to order 4: the order it certifies,
its label and its residual.  Residuals are evaluated on a fixed sample of
real arguments in strong (operator-argument) or weak (frozen-argument) form.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from .history import DEGREE, _as_shaped, _index
from .phi import phi_scalar

__all__ = [
    "Tableau",
    "OrderReport",
    "builtin",
    "builtin_names",
    "psi_b",
    "psi_a",
    "check_order",
]

#: sample arguments for operator-form condition checks
Z_SAMPLES = (-20.0, -5.0, -1.0, 0.0, 0.5, 2.0, 10.0)

#: largest residual that still passes
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class Tableau:
    """Explicit exponential Runge-Kutta tableau.

    Entries of ``a`` and ``b`` are tuples of (k, w) terms, sum w * phi_k with
    k >= 1 (() is zero).  ``a`` is strictly lower triangular.  The tableau
    owns the node scale: row i of ``a`` is evaluated at c_i z (coefficients
    built from phi_k(c_i h A0)) and ``b`` at z.  Nodes lie in [0, 1], and in (0, 1]
    for a row with terms, so a stage view's shift c_i h lies in (0, h]; a nonzero
    node is a normal float, so that dividing by it cannot overflow.  Terms have
    order k <= DEGREE, the degree of a stored history segment, so every method runs
    on every problem kind.  Nodes and weights are stored as Python floats, so stage
    times t_n + c_i h are floats; ``declared_order`` is an integer in 1..4.

    ``weights`` holds one read-only matrix W_i per row, the rows of ``a``
    and then ``b``, of shape (nu, p_i + 1) with p_i the row's highest phi
    order: W_i[j, k] sums the weights of the order-k terms of entry (i, j);
    steps and order checks evaluate only these matrices.  ``c``, ``a`` and
    ``b`` may be given as lists and are stored as tuples, so every tableau
    hashes and keys the step-plan cache.
    """

    name: str
    c: tuple[float, ...]
    a: tuple[tuple[tuple[tuple[int, float], ...], ...], ...]
    b: tuple[tuple[tuple[int, float], ...], ...]
    declared_order: int
    declared_mode: str = "strong"
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(float(_as_shaped(c, (), "c holds")) for c in self.c))
        object.__setattr__(self, "a", tuple(tuple(map(_entry, row)) for row in self.a))
        object.__setattr__(self, "b", tuple(map(_entry, self.b)))
        nu = len(self.c)
        if self.c[:1] != (0.0,):
            raise ValueError("first node c_1 must be 0" if nu else "a tableau needs a stage")
        if len(self.a) != nu or any(len(row) != nu for row in self.a):
            raise ValueError("a must be a nu x nu matrix of term tuples")
        if len(self.b) != nu:
            raise ValueError("b must have one term tuple per stage")
        if not 1 <= _index(self.declared_order, "declared_order") <= 4:
            raise ValueError(f"declared_order must be in 1..4, got {self.declared_order}")
        if self.declared_mode not in ("strong", "weak"):
            raise ValueError("declared_mode must be 'strong' or 'weak'")
        weights = tuple(_weight_matrix(row) for row in (*self.a, self.b))
        for i, W in enumerate(weights[:nu]):
            if not math.isfinite(self.c[i]):
                raise ValueError(f"node c_{i + 1} = {self.c[i]} is not finite")
            if 0.0 < abs(self.c[i]) < sys.float_info.min:  # 1/c_i would overflow
                raise ValueError(f"node c_{i + 1} = {self.c[i]} is subnormal, neither 0 nor normal")
            if W[i:].any():
                raise ValueError(f"a[{i}][j] must be empty for j >= {i} (explicit method)")
            if W.shape[1] > 1 and not 0.0 < self.c[i] <= 1.0:
                raise ValueError(f"a row with terms needs c_{i + 1} in (0, 1]")
            if not 0.0 <= self.c[i] <= 1.0:
                raise ValueError(f"node c_{i + 1} = {self.c[i]} must lie in [0, 1]")
        if max(W.shape[1] for W in weights) > DEGREE + 1:
            raise ValueError(f"phi orders above the segment degree {DEGREE}")
        object.__setattr__(self, "weights", weights)

    def __reduce__(self):
        # pickle and deepcopy rebuild through __post_init__: read-only weights
        return Tableau, tuple(getattr(self, f.name) for f in fields(self) if f.init)

    @property
    def nu(self) -> int:
        return len(self.c)


def _entry(terms) -> tuple:
    """One entry of ``a`` or ``b`` as a tuple of (k, w) tuples, w a Python float."""
    return tuple((k, float(_as_shaped(w, (), "w holds"))) for k, w in terms)


def _weight_matrix(row) -> np.ndarray:
    """Read-only (nu, p + 1) matrix of one row's term weights by phi order."""
    W = np.zeros((len(row), 1 + max((k for terms in row for k, _ in terms), default=0)))
    for j, terms in enumerate(row):
        for k, w in terms:
            if k < 1:
                raise ValueError(f"phi terms need order k >= 1, got {k}")
            if not math.isfinite(w):
                raise ValueError(f"phi term ({k}, {w}) has a non-finite weight")
            W[j, k] += w
    W.setflags(write=False)
    return W


_BUILTINS = {
    # One stage, b_1 = phi_1; stiff order 1.
    "expeuler": Tableau(
        name="expeuler",
        c=(0.0,),
        a=(((),),),
        b=(((1, 1.0),),),
        declared_order=1,
    ),
    # Two stages with c_2 = 1: a_21 = phi_1(z), b = [phi_1 - phi_2, phi_2];
    # stiff order 2.
    "heun": Tableau(
        name="heun",
        c=(0.0, 1.0),
        a=(((), ()), (((1, 1.0),), ())),
        b=(((1, 1.0), (2, -1.0)), ((2, 1.0),)),
        declared_order=2,
    ),
    # Three stages, c = (0, 1/2, 2/3); satisfies the order-3 conditions in
    # weak form only.
    "expo3": Tableau(
        name="expo3",
        c=(0.0, 0.5, 2.0 / 3.0),
        a=(
            ((), (), ()),
            (((1, 0.5),), (), ()),
            (((1, 2.0 / 3.0), (2, -8.0 / 9.0)), ((2, 8.0 / 9.0),), ()),
        ),
        b=(((1, 1.0), (2, -1.5)), (), ((2, 1.5),)),
        declared_order=3,
        declared_mode="weak",
    ),
}


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def builtin(name: str) -> Tableau:
    """Look up one of the shipped methods: expeuler, heun or expo3."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise KeyError(
            f"unknown method {name!r}; available: {', '.join(_BUILTINS)}"
        ) from None


def _defect(j: int, c: float, z: float, coeffs) -> float:
    """psi_j of one tableau row with node c and (c_k, w_k) pairs ``coeffs``."""
    acc = c**j * phi_scalar(j, c * z)
    fac = math.factorial(j - 1)
    for ck, w in coeffs:
        acc -= w * ck ** (j - 1) / fac
    return acc


def _values(W: np.ndarray, z: float, weak: bool = False) -> list[float]:
    """Row coefficients sum_k W[j, k] phi_k(z), over nonzero weights by
    ascending k, or their frozen values sum_k W[j, k]/k! when ``weak``."""
    return [
        sum(w / math.factorial(k) if weak else w * phi_scalar(k, z)
            for k, w in enumerate(Wj) if w)
        for Wj in W.tolist()
    ]


def psi_b(tab: Tableau, j: int, z: float, weak: bool = False) -> float:
    """Update-row defect psi_j(z) = phi_j(z) - sum_k B_k(z) c_k^{j-1}/(j-1)!.

    B_k is the full coefficient b_k(z) in strong form, or the frozen value
    b_k(0) when ``weak`` is set.
    """
    return _defect(j, 1.0, z, zip(tab.c, _values(tab.weights[-1], z, weak)))


def psi_a(tab: Tableau, j: int, stage: int, z: float) -> float:
    """Stage-row defect for 1-based ``stage`` i:

        psi_ji(z) = c_i^j phi_j(c_i z) - sum_{k<i} a_ik(z) c_k^{j-1}/(j-1)!

    (the standard form, carrying the c_i^j factor).  Vanishes identically
    for i = 1 since c_1 = 0.
    """
    if not 1 <= stage <= tab.nu:
        raise ValueError(f"stage must be in 1..{tab.nu}, got {stage}")
    ci = tab.c[stage - 1]  # a is strictly lower triangular: later entries are 0
    return _defect(j, ci, z, zip(tab.c, _values(tab.weights[stage - 1], ci * z)))


class _Row(NamedTuple):
    order: int  # the order the row certifies
    label: str
    residual: Callable  # (tab, z, B) -> |residual| at z, with update weights B
    psi: bool = False  # the psi_order row, which weak form takes at z = 0


def _dot(x, y) -> float:
    return sum(a * b for a, b in zip(x, y))


def _psis(tab: Tableau, j: int, z: float) -> list[float]:
    """psi_ji(z) of every stage row i."""
    return [psi_a(tab, j, i, z) for i in range(1, tab.nu + 1)]


def _psi_row(j: int) -> _Row:
    """The psi_j row: the defect of the update row."""
    return _Row(j, f"psi_{j} = 0",
                lambda t, z, B: abs(_defect(j, 1.0, z, zip(t.c, B))), psi=True)


def _nested(tab: Tableau, z: float, B) -> float:
    d = _psis(tab, 2, z)
    a = [_values(W, c * z) for c, W in zip(tab.c, tab.weights)]
    return abs(_dot(B, [_dot(a[i][1:i], d[1:i]) for i in range(tab.nu)]))


# The condition table by row number.  Rows 5, 7, 8 and 9 involve arbitrary
# bounded operators; they are checked with scalar placeholders (J = K = 1), a
# necessary condition that is exact for the shipped methods.
_CONDITIONS = {
    1: _psi_row(1),
    2: _psi_row(2),
    3: _Row(2, "psi_1i = 0 for every stage i",
            lambda t, z, B: max(map(abs, _psis(t, 1, z)))),
    4: _psi_row(3),
    5: _Row(3, "sum_i b_i J psi_2i = 0", lambda t, z, B: abs(_dot(B, _psis(t, 2, z)))),
    6: _psi_row(4),
    7: _Row(4, "sum_i b_i J psi_3i = 0", lambda t, z, B: abs(_dot(B, _psis(t, 3, z)))),
    8: _Row(4, "sum_i b_i J sum_j a_ij J psi_2j = 0", _nested),
    9: _Row(4, "sum_i b_i c_i K psi_2i = 0",
            lambda t, z, B: abs(_dot([b * c for b, c in zip(B, t.c)], _psis(t, 2, z)))),
}


@dataclass(frozen=True)
class OrderReport:
    """Outcome of an order-condition check: per-row max residuals."""

    method: str
    order: int
    mode: str
    passed: bool
    residuals: dict[int, float] = field(default_factory=dict)
    failed_conditions: tuple[int, ...] = ()

    def __str__(self):
        lines = [f"method {self.method}: order {self.order} conditions, {self.mode} form"]
        for row in sorted(self.residuals):
            verdict = "FAIL" if row in self.failed_conditions else "pass"
            lines.append(
                f"  row {row} [{_CONDITIONS[row].label}]: "
                f"max residual {self.residuals[row]:.3e}  {verdict}"
            )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def check_order(tab: Tableau, p: int, mode: str = "strong") -> OrderReport:
    """Check the stiff order conditions for order ``p`` (1..4).

    Strong form requires every row of order <= p to vanish on the sample
    arguments with the full coefficients b_i(z).  Weak form requires rows of
    order <= p-1 in strong form, the quadrature identity
    sum_i b_i(0) c_i^{p-1} = 1/p, and the order-p rows with b_i frozen at 0
    (for the psi_p row this is exactly the classical condition at z = 0).
    """
    p = _index(p, "order p")
    if not 1 <= p <= 4:
        raise ValueError(f"order must be in 1..4, got {p}")
    if mode not in ("strong", "weak"):
        raise ValueError(f"mode must be 'strong' or 'weak', got {mode!r}")
    residuals = {}
    for row, (order, _, residual, psi) in _CONDITIONS.items():
        if order > p:
            continue
        weak = mode == "weak" and order == p
        # weak form takes the psi_p row classically, at z = 0, together with
        # the quadrature identity: the same condition scaled by (p-1)!
        classical = weak and psi
        zs = (0.0,) if classical else Z_SAMPLES
        res = max(residual(tab, z, _values(tab.weights[-1], z, weak)) for z in zs)
        if classical:
            quad = _dot(_values(tab.weights[-1], 0.0, weak), [c ** (p - 1) for c in tab.c])
            res = max(res, abs(quad - 1.0 / p))
        residuals[row] = res
    failed = tuple(r for r in sorted(residuals) if residuals[r] > RESIDUAL_TOL)
    return OrderReport(tab.name, p, mode, not failed, residuals, failed)
