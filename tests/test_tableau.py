import copy
import dataclasses
import math
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest

from expdelay import (
    Problem, Tableau, builtin, builtin_names, check_order, integrate, phi_scalar, psi_a, psi_b,
)

E = math.e
Z_GRID = (-20.0, -5.0, -1.0, 0.0, 0.5, 2.0, 10.0)
#: every ``expdelay check`` report: 3 builtins x orders 1-4 x both forms
GOLDEN_REPORTS = Path(__file__).parent / "data" / "check_reports.txt"


def at(terms, z):
    """A coefficient's value sum w * phi_k(z) over its (k, w) terms."""
    return sum(w * phi_scalar(k, z) for k, w in terms)


def test_builtin_names_and_lookup_error():
    assert set(builtin_names()) == {"expeuler", "heun", "expo3"}
    with pytest.raises(KeyError):
        builtin("rk4")


def test_expeuler_coefficients():
    tab = builtin("expeuler")
    assert tab.nu == 1
    assert at(tab.b[0], 0.0) == pytest.approx(1.0, abs=1e-15)
    assert at(tab.b[0], 1.0) == pytest.approx(E - 1.0, abs=1e-14)


def test_heun_coefficients():
    tab = builtin("heun")
    assert tab.c == (0.0, 1.0)
    assert at(tab.a[1][0], 0.0) == pytest.approx(1.0, abs=1e-15)  # c_2 phi_1(0)
    assert at(tab.b[0], 1.0) == pytest.approx(1.0, abs=1e-14)  # (e-1)-(e-2)
    assert at(tab.b[1], 1.0) == pytest.approx(E - 2.0, abs=1e-14)


def test_expo3_weights_at_zero():
    tab = builtin("expo3")
    got = [at(terms, 0.0) for terms in tab.b]
    np.testing.assert_allclose(got, [0.25, 0.0, 0.75], atol=1e-15)


def test_tableau_validation():
    good = builtin("heun")
    with pytest.raises(ValueError):
        Tableau(
            name="bad_c1",
            c=(0.5,),
            a=(((),),),
            b=(((1, 1.0),),),
            declared_order=1,
        )
    with pytest.raises(ValueError):
        # upper-triangular entry must be empty
        Tableau(
            name="bad_a",
            c=(0.0, 1.0),
            a=(
                ((), ((1, 1.0),)),
                (((1, 1.0),), ()),
            ),
            b=good.b,
            declared_order=2,
        )
    with pytest.raises(ValueError, match="order k >= 1, got 0"):
        # a phi_0 term is no exponential Runge-Kutta coefficient
        Tableau(name="phi0_term", c=(0.0,), a=(((),),), b=(((0, 1.0),),), declared_order=1)
    for c2 in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match=r"in \(0, 1\]"):
            # a stage row with terms needs its node in (0, 1]
            Tableau(
                name="bad_node",
                c=(0.0, c2),
                a=good.a,
                b=good.b,
                declared_order=2,
            )


_HEUN = builtin("heun")


@pytest.mark.parametrize(
    "fields, match",
    [
        ({"a": _HEUN.a[:1]}, "a must be a nu x nu matrix"),
        ({"a": (((), ()), (((1, 1.0),),))}, "a must be a nu x nu matrix"),
        ({"b": _HEUN.b[:1]}, "b must have one term tuple per stage"),
        ({"declared_mode": "classical"}, "declared_mode must be 'strong' or 'weak'"),
        # non-finite nodes and weights are named: a NaN residual compares as a pass
        ({"b": (((1, math.nan),), ((2, 1.0),))}, r"phi term \(1, nan\) has a non-finite weight"),
        ({"a": (((), ()), (((1, math.inf),), ()))}, r"phi term \(1, inf\) has a non-finite"),
        ({"c": (0.0, math.nan), "a": (((), ()), ((), ()))}, "node c_2 = nan is not finite"),
        # an empty tableau is named, not an IndexError
        ({"c": (), "a": (), "b": ()}, "a tableau needs a stage"),
        # check_order certifies orders 1..4 only
        ({"declared_order": 0}, "declared_order must be in 1..4, got 0"),
        ({"declared_order": 7}, "declared_order must be in 1..4, got 7"),
        # an RE step divides by c_i: a subnormal node overflowed there instead of being named
        ({"c": (0.0, 1e-310)}, "node c_2 = 1e-310 is subnormal"),
        ({"c": (0.0, -1e-310)}, "node c_2 = -1e-310 is subnormal"),
        ({"c": (0.0, 5e-324)}, "node c_2 = 5e-324 is subnormal"),
    ],
)
def test_tableau_shape_and_mode_checks(fields, match):
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(_HEUN, **fields)


@pytest.mark.parametrize("c2", [2.0, -1.0])
def test_empty_row_node_must_lie_in_unit_interval(c2):
    # an empty row still sets its stage time t_n + c h and its view's shift c h
    with pytest.raises(ValueError, match=rf"node c_2 = {c2} must lie in \[0, 1\]"):
        dataclasses.replace(_HEUN, c=(0.0, c2), a=(((), ()), ((), ())))


def test_smallest_normal_node_is_accepted():
    # the subnormal nodes below it are refused (test_tableau_shape_and_mode_checks)
    tab = dataclasses.replace(_HEUN, c=(0.0, sys.float_info.min))
    assert tab.c[1] == sys.float_info.min


def test_check_order_needs_an_integer_order():
    with pytest.raises(TypeError, match="order p must be an integer, got 2.5"):
        check_order(_HEUN, 2.5)


def test_declared_order_must_be_an_integer():
    with pytest.raises(TypeError, match="declared_order must be an integer, got 2.5"):
        dataclasses.replace(_HEUN, declared_order=2.5)


def test_nodes_and_weights_are_stored_as_python_floats():
    # float32 nodes and weights (exactly representable) step as heun's Python
    # floats do, bit for bit, and the stage times reach rhs as floats
    f32 = np.float32
    heun32 = dataclasses.replace(
        _HEUN, name="heun32", c=f32([0.0, 1.0]), a=(((), ()), (((1, f32(1.0)),), ())),
        b=(((1, f32(1.0)), (2, f32(-1.0))), ((2, f32(1.0)),)),
    )
    assert [type(c) for c in heun32.c] == [float, float]
    assert heun32.a == _HEUN.a and heun32.b == _HEUN.b
    times = []

    def rhs(t, v):  # x' = cos t - x(t - 1) + sin(t - 1), solved by sin t
        times.append(t)
        return np.cos(t) - v.eval(-1.0) + np.sin(t - 1.0)

    prob = Problem(kind="dde", dim=1, tau=1.0, rhs=rhs, phi0=np.sin)
    got, want = (integrate(prob, tab, 0.02, 2.0) for tab in (heun32, _HEUN))
    assert got.coefficients().tobytes() == want.coefficients().tobytes()
    assert got.head.tobytes() == want.head.tobytes()
    assert {type(t) for t in times} == {float}


def test_weight_matrices():
    # one read-only matrix per row, the rows of a and then b: W[j, k] sums
    # the order-k weights of entry j, for the orders 0..p of the row
    expo3 = builtin("expo3")
    want = (
        np.zeros((3, 1)),
        [[0.0, 0.5], [0.0, 0.0], [0.0, 0.0]],
        [[0.0, 2.0 / 3.0, -8.0 / 9.0], [0.0, 0.0, 8.0 / 9.0], [0.0, 0.0, 0.0]],
        [[0.0, 1.0, -1.5], [0.0, 0.0, 0.0], [0.0, 0.0, 1.5]],
    )
    assert len(expo3.weights) == len(want)
    for W, ref in zip(expo3.weights, want):
        np.testing.assert_array_equal(W, ref)
        assert not W.flags.writeable
    repeated = Tableau(
        name="repeated",
        c=(0.0,),
        a=(((),),),
        b=(((2, 0.25), (1, 0.5), (2, 0.25)),),
        declared_order=1,
    )
    np.testing.assert_array_equal(repeated.weights[-1], [[0.0, 0.5, 0.5]])


def test_pickle_and_deepcopy_keep_weights_read_only():
    for name in builtin_names():
        tab = builtin(name)
        for twin in (pickle.loads(pickle.dumps(tab)), copy.deepcopy(tab)):
            assert twin == tab
            assert len(twin.weights) == len(tab.weights)
            for W, ref in zip(twin.weights, tab.weights):
                np.testing.assert_array_equal(W, ref)
                assert not W.flags.writeable


def test_tableau_rejects_orders_above_segment_degree():
    # a phi_4 term would need a quartic overlay, which no history stores
    good = builtin("heun")
    phi4 = ((4, 1.0),)
    with pytest.raises(ValueError, match="degree 3"):
        Tableau(
            name="phi4_b",
            c=good.c,
            a=good.a,
            b=(good.b[0], phi4),
            declared_order=2,
        )
    with pytest.raises(ValueError, match="degree 3"):
        Tableau(
            name="phi4_a",
            c=good.c,
            a=(((), ()), (phi4, ())),
            b=good.b,
            declared_order=2,
        )


def test_psi_b_expeuler_vanishes_everywhere():
    tab = builtin("expeuler")
    for z in Z_GRID:
        assert abs(psi_b(tab, 1, z)) <= 1e-13


def test_psi_b_expo3_third_order():
    tab = builtin("expo3")
    assert psi_b(tab, 3, 0.0) == pytest.approx(0.0, abs=1e-15)
    # strong defect at z = 1: phi_3(1) - phi_2(1)/3
    want = (E - 2.5) - (E - 2.0) / 3.0
    got = psi_b(tab, 3, 1.0)
    assert got == pytest.approx(want, abs=1e-14)
    assert got == pytest.approx(-0.0211454, abs=1e-6)


def test_psi_b_weak_uses_frozen_weights():
    tab = builtin("expo3")
    for j in (1, 2, 3):
        assert abs(psi_b(tab, j, 0.0, weak=True)) <= 1e-14


def test_psi_a_examples():
    heun = builtin("heun")
    for z in Z_GRID:
        assert abs(psi_a(heun, 1, 2, z)) <= 1e-13
    expo3 = builtin("expo3")
    for z in Z_GRID:
        assert abs(psi_a(expo3, 2, 3, z)) <= 1e-13
    assert psi_a(expo3, 2, 2, 0.0) == pytest.approx(0.125, abs=1e-15)
    assert psi_a(expo3, 1, 1, 17.0) == 0.0
    with pytest.raises(ValueError):
        psi_a(expo3, 1, 4, 0.0)


def test_classical_conditions_at_zero_for_all_builtins():
    for name in builtin_names():
        tab = builtin(name)
        for j in range(1, tab.declared_order + 1):
            assert abs(psi_b(tab, j, 0.0, weak=True)) <= 1e-14


@pytest.mark.parametrize("name", ["expeuler", "heun", "expo3"])
def test_declared_order_passes_and_next_weak_fails(name):
    tab = builtin(name)
    assert check_order(tab, tab.declared_order, tab.declared_mode).passed
    assert not check_order(tab, tab.declared_order + 1, "weak").passed


def test_order_condition_matrix():
    expeuler, heun, expo3 = (builtin(n) for n in ("expeuler", "heun", "expo3"))
    assert check_order(expeuler, 1, "strong").passed
    assert not check_order(expeuler, 2, "weak").passed
    assert check_order(heun, 2, "strong").passed
    assert not check_order(heun, 3, "weak").passed
    assert check_order(expo3, 2, "strong").passed
    assert check_order(expo3, 3, "weak").passed
    report = check_order(expo3, 3, "strong")
    assert not report.passed
    assert 4 in report.failed_conditions


def test_check_reports_match_golden_file():
    # byte-for-byte: no residual, verdict or label of any report may move
    reports = [
        str(check_order(builtin(name), p, mode))
        for name in ("expeuler", "heun", "expo3")
        for p in range(1, 5)
        for mode in ("strong", "weak")
    ]
    assert "\n\n".join(reports) + "\n" == GOLDEN_REPORTS.read_text()


def test_weak_quadrature_identity_expo3():
    tab = builtin("expo3")
    total = sum(at(terms, 0.0) * c**2 for c, terms in zip(tab.c, tab.b))
    assert total == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_report_renders_text():
    report = check_order(builtin("heun"), 2, "strong")
    text = str(report)
    assert "PASS" in text
    assert "row 2" in text


def test_check_order_argument_validation():
    tab = builtin("heun")
    with pytest.raises(ValueError):
        check_order(tab, 5, "strong")
    with pytest.raises(ValueError):
        check_order(tab, 2, "medium")
