"""Butcher tableaux of explicit exponential Runge-Kutta methods.

Coefficients a_ij and b_i are linear combinations of phi_k
(:class:`~expdelay.phi.PhiCombo`) evaluated at the row's node: row i of
``a`` at c_i z and ``b`` at z.  They are kept in that symbolic form so the
order-condition checker and the steppers share one source of truth.  The
checker evaluates the stiff order conditions up to order 4 on a fixed sample
of real arguments, in strong (operator-argument) or weak (frozen-argument)
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .history import DEGREE
from .phi import PhiCombo, phi_scalar

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

#: pass threshold on the largest residual
RESIDUAL_TOL = 1e-10

# Table rows grouped by the order they certify.  Rows 5, 7, 8 and 9 involve
# arbitrary bounded operators; they are checked with scalar placeholders
# (J = K = 1), a necessary condition that is exact for the shipped methods.
_ORDER_ROWS = {1: (1,), 2: (2, 3), 3: (4, 5), 4: (6, 7, 8, 9)}
_PSI_ROW = {1: 1, 2: 2, 3: 4, 4: 6}
_ROW_LABEL = {
    1: "psi_1 = 0",
    2: "psi_2 = 0",
    3: "psi_1i = 0 for every stage i",
    4: "psi_3 = 0",
    5: "sum_i b_i J psi_2i = 0",
    6: "psi_4 = 0",
    7: "sum_i b_i J psi_3i = 0",
    8: "sum_i b_i J sum_j a_ij J psi_2j = 0",
    9: "sum_i b_i c_i K psi_2i = 0",
}


@dataclass(frozen=True)
class Tableau:
    """Explicit exponential Runge-Kutta tableau.

    ``a`` is strictly lower triangular.  The tableau owns the node scale:
    row i of ``a`` is evaluated at c_i z (coefficients built from
    phi_k(c_i h A0)) and ``b`` at z.  Terms have order k <= DEGREE, the
    degree of a stored history segment, so every method runs on every
    problem kind.
    """

    name: str
    c: tuple[float, ...]
    a: tuple[tuple[PhiCombo, ...], ...]
    b: tuple[PhiCombo, ...]
    declared_order: int
    declared_mode: str = "strong"

    def __post_init__(self):
        nu = len(self.c)
        if self.c[0] != 0.0:
            raise ValueError("first node c_1 must be 0")
        if len(self.a) != nu or any(len(row) != nu for row in self.a):
            raise ValueError("a must be a nu x nu matrix of combinations")
        if len(self.b) != nu:
            raise ValueError("b must have one combination per stage")
        if self.declared_mode not in ("strong", "weak"):
            raise ValueError("declared_mode must be 'strong' or 'weak'")
        for i, row in enumerate(self.a):
            for j, combo in enumerate(row):
                if j >= i and not combo.is_empty:
                    raise ValueError(f"a[{i}][{j}] must be empty (explicit method)")
            if any(combo.terms for combo in row) and not 0.0 < self.c[i] <= 1.0:
                raise ValueError(f"a row with terms needs c_{i + 1} in (0, 1]")
        terms = [t for row in (*self.a, self.b) for combo in row for t in combo.terms]
        if any(k > DEGREE for k, _ in terms):
            raise ValueError(f"phi orders above the segment degree {DEGREE}: {terms}")

    @property
    def nu(self) -> int:
        return len(self.c)


def _combo(*terms) -> PhiCombo:
    return PhiCombo(tuple(terms))


_BUILTINS = {
    # One stage, b_1 = phi_1; stiff order 1.
    "expeuler": Tableau(
        name="expeuler",
        c=(0.0,),
        a=((_combo(),),),
        b=(_combo((1, 1.0)),),
        declared_order=1,
    ),
    # Two stages with c_2 = 1: a_21 = phi_1(z), b = [phi_1 - phi_2, phi_2];
    # stiff order 2.
    "heun": Tableau(
        name="heun",
        c=(0.0, 1.0),
        a=(
            (_combo(), _combo()),
            (_combo((1, 1.0)), _combo()),
        ),
        b=(
            _combo((1, 1.0), (2, -1.0)),
            _combo((2, 1.0)),
        ),
        declared_order=2,
    ),
    # Three stages, c = (0, 1/2, 2/3); satisfies the order-3 conditions in
    # weak form only.
    "expo3": Tableau(
        name="expo3",
        c=(0.0, 0.5, 2.0 / 3.0),
        a=(
            (_combo(), _combo(), _combo()),
            (_combo((1, 0.5)), _combo(), _combo()),
            (
                _combo((1, 2.0 / 3.0), (2, -8.0 / 9.0)),
                _combo((2, 8.0 / 9.0)),
                _combo(),
            ),
        ),
        b=(
            _combo((1, 1.0), (2, -1.5)),
            _combo(),
            _combo((2, 1.5)),
        ),
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


def psi_b(tab: Tableau, j: int, z: float, weak: bool = False) -> float:
    """Update-row defect psi_j(z) = phi_j(z) - sum_k B_k(z) c_k^{j-1}/(j-1)!.

    B_k is the full combination b_k(z) in strong form, or the frozen value
    b_k(0) when ``weak`` is set.
    """
    acc = phi_scalar(j, z)
    fac = math.factorial(j - 1)
    for ck, combo in zip(tab.c, tab.b):
        bk = combo.at_zero() if weak else combo.at(z)
        acc -= bk * ck ** (j - 1) / fac
    return acc


def psi_a(tab: Tableau, j: int, stage: int, z: float) -> float:
    """Stage-row defect for 1-based ``stage`` i:

        psi_ji(z) = c_i^j phi_j(c_i z) - sum_{k<i} a_ik(z) c_k^{j-1}/(j-1)!

    (the standard form, carrying the c_i^j factor).  Vanishes identically
    for i = 1 since c_1 = 0.
    """
    if not 1 <= stage <= tab.nu:
        raise ValueError(f"stage must be in 1..{tab.nu}, got {stage}")
    i = stage - 1
    ci = tab.c[i]
    acc = ci**j * phi_scalar(j, ci * z)
    fac = math.factorial(j - 1)
    for k in range(i):
        acc -= tab.a[i][k].at(ci * z) * tab.c[k] ** (j - 1) / fac
    return acc


def _row_residual(tab: Tableau, row: int, z: float, weak_b: bool) -> float:
    """|residual| of one Table row at argument z; J = K = 1 placeholders."""
    if row in (1, 2, 4, 6):
        j = {1: 1, 2: 2, 4: 3, 6: 4}[row]
        return abs(psi_b(tab, j, z, weak=weak_b))
    if row == 3:
        return max(abs(psi_a(tab, 1, i, z)) for i in range(1, tab.nu + 1))
    bvals = [combo.at_zero() if weak_b else combo.at(z) for combo in tab.b]
    if row == 5:
        return abs(
            sum(bvals[i] * psi_a(tab, 2, i + 1, z) for i in range(tab.nu))
        )
    if row == 7:
        return abs(
            sum(bvals[i] * psi_a(tab, 3, i + 1, z) for i in range(tab.nu))
        )
    if row == 8:
        return abs(
            sum(
                bvals[i]
                * sum(
                    tab.a[i][j].at(tab.c[i] * z) * psi_a(tab, 2, j + 1, z)
                    for j in range(1, i)
                )
                for i in range(tab.nu)
            )
        )
    if row == 9:
        return abs(
            sum(
                bvals[i] * tab.c[i] * psi_a(tab, 2, i + 1, z)
                for i in range(tab.nu)
            )
        )
    raise ValueError(f"unknown condition row {row}")


@dataclass(frozen=True)
class OrderReport:
    """Outcome of an order-condition check: per-row max residuals."""

    method: str
    order: int
    mode: str
    passed: bool
    residuals: dict[int, float] = field(default_factory=dict)
    failed_conditions: tuple[int, ...] = ()
    threshold: float = RESIDUAL_TOL

    def __str__(self):
        lines = [
            f"method {self.method}: order {self.order} conditions, "
            f"{self.mode} form"
        ]
        for row in sorted(self.residuals):
            verdict = "FAIL" if row in self.failed_conditions else "pass"
            lines.append(
                f"  row {row} [{_ROW_LABEL[row]}]: "
                f"max residual {self.residuals[row]:.3e}  {verdict}"
            )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def check_order(tab: Tableau, p: int, mode: str = "strong") -> OrderReport:
    """Check the stiff order conditions for order ``p`` (1..4).

    Strong form requires every row of order <= p to vanish on the sample
    arguments with the full combinations b_i(z).  Weak form requires rows of
    order <= p-1 in strong form, the quadrature identity
    sum_i b_i(0) c_i^{p-1} = 1/p, and the order-p rows with b_i frozen at 0
    (for the psi_p row this is exactly the classical condition at z = 0).
    """
    if not 1 <= p <= 4:
        raise ValueError(f"order must be in 1..4, got {p}")
    if mode not in ("strong", "weak"):
        raise ValueError(f"mode must be 'strong' or 'weak', got {mode!r}")
    residuals: dict[int, float] = {}

    strong_orders = range(1, p + 1) if mode == "strong" else range(1, p)
    for order in strong_orders:
        for row in _ORDER_ROWS[order]:
            residuals[row] = max(
                _row_residual(tab, row, z, weak_b=False) for z in Z_SAMPLES
            )

    if mode == "weak":
        quad = abs(
            sum(combo.at_zero() * ck ** (p - 1) for ck, combo in zip(tab.c, tab.b))
            - 1.0 / p
        )
        for row in _ORDER_ROWS[p]:
            if row == _PSI_ROW[p]:
                # Frozen-argument psi_p row, evaluated classically at z = 0;
                # coincides with the quadrature identity up to 1/(p-1)!.
                res = _row_residual(tab, row, 0.0, weak_b=True)
                residuals[row] = max(res, quad)
            else:
                residuals[row] = max(
                    _row_residual(tab, row, z, weak_b=True) for z in Z_SAMPLES
                )

    failed = tuple(r for r in sorted(residuals) if residuals[r] > RESIDUAL_TOL)
    return OrderReport(
        method=tab.name,
        order=p,
        mode=mode,
        passed=not failed,
        residuals=residuals,
        failed_conditions=failed,
    )
