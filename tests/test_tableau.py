import math

import numpy as np
import pytest

from expdelay import PhiCombo, Tableau, builtin, builtin_names, check_order, psi_a, psi_b

E = math.e
Z_GRID = (-20.0, -5.0, -1.0, 0.0, 0.5, 2.0, 10.0)


def test_builtin_names_and_lookup_error():
    assert set(builtin_names()) == {"expeuler", "heun", "expo3"}
    with pytest.raises(KeyError):
        builtin("rk4")


def test_expeuler_coefficients():
    tab = builtin("expeuler")
    assert tab.nu == 1
    assert tab.b[0].at(0.0) == pytest.approx(1.0, abs=1e-15)
    assert tab.b[0].at(1.0) == pytest.approx(E - 1.0, abs=1e-14)


def test_heun_coefficients():
    tab = builtin("heun")
    assert tab.c == (0.0, 1.0)
    assert tab.a[1][0].at(0.0) == pytest.approx(1.0, abs=1e-15)  # c_2 phi_1(0)
    assert tab.b[0].at(1.0) == pytest.approx(1.0, abs=1e-14)  # (e-1)-(e-2)
    assert tab.b[1].at(1.0) == pytest.approx(E - 2.0, abs=1e-14)


def test_expo3_weights_at_zero():
    tab = builtin("expo3")
    got = [combo.at_zero() for combo in tab.b]
    np.testing.assert_allclose(got, [0.25, 0.0, 0.75], atol=1e-15)


def test_tableau_validation():
    good = builtin("heun")
    with pytest.raises(ValueError):
        Tableau(
            name="bad_c1",
            c=(0.5,),
            a=((PhiCombo(),),),
            b=(PhiCombo(((1, 1.0),)),),
            declared_order=1,
        )
    with pytest.raises(ValueError):
        # upper-triangular entry must be empty
        Tableau(
            name="bad_a",
            c=(0.0, 1.0),
            a=(
                (PhiCombo(), PhiCombo(((1, 1.0),))),
                (PhiCombo(((1, 1.0),)), PhiCombo()),
            ),
            b=good.b,
            declared_order=2,
        )
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
        a=((PhiCombo(),),),
        b=(PhiCombo(((2, 0.25), (1, 0.5), (2, 0.25))),),
        declared_order=1,
    )
    np.testing.assert_array_equal(repeated.weights[-1], [[0.0, 0.5, 0.5]])


def test_tableau_rejects_orders_above_segment_degree():
    # a phi_4 term would need a quartic overlay, which no history stores
    good = builtin("heun")
    phi4 = PhiCombo(((4, 1.0),))
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
            a=((PhiCombo(), PhiCombo()), (phi4, PhiCombo())),
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


def test_weak_quadrature_identity_expo3():
    tab = builtin("expo3")
    total = sum(combo.at_zero() * c**2 for c, combo in zip(tab.c, tab.b))
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
