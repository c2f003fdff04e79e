import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expdelay import (
    Problem,
    TrajectoryRecorder,
    belzen,
    builtin,
    converge,
    estimate_order,
    quadratic_re,
    simulate,
)
from expdelay.cli import main
from expdelay.harness import CONVERGE_HEADER, format_csv
from expdelay.problems import CLI_DEFAULTS, REGISTRY


def test_estimate_order_exact_power_law():
    hs = np.array([1e-1, 1e-2, 1e-3])
    errs = 0.7 * hs**2
    assert estimate_order(hs, errs) == pytest.approx(2.0, abs=1e-12)


def test_estimate_order_two_point():
    assert estimate_order([1e-1, 1e-2], [1e-2, 1e-4]) == pytest.approx(2.0, abs=1e-12)


def test_estimate_order_needs_two_usable_pairs():
    with pytest.raises(ValueError):
        estimate_order([1e-1], [1e-2])
    with pytest.raises(ValueError):
        # second point sits below the roundoff floor
        estimate_order([1e-1, 1e-2], [1e-2, 1e-16])


@pytest.mark.parametrize(
    "hs, errs",
    [
        ([0.1, 0.01, 0.001], [1.0, np.nan, 1e-3]),  # not dropped as if below the floor
        ([0.1, 0.01, 0.001], [1.0, np.inf, 1e-3]),
        ([0.1, 0.01, 0.001], [1.0, -np.inf, 1e-3]),
        ([0.1, 0.0, 0.001], [1.0, 1e-2, 1e-3]),  # named, not a LinAlgError from the fit
        ([0.1, -0.01, 0.001], [1.0, 1e-2, 1e-3]),
        ([0.1, np.inf, 0.001], [1.0, 1e-2, 1e-3]),
        ([0.1, np.nan, 0.001], [1.0, 1e-2, 1e-3]),
    ],
)
def test_estimate_order_rejects_non_finite_input(hs, errs):
    with pytest.raises(ValueError, match="need positive finite hs and finite errs"):
        estimate_order(hs, errs)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: estimate_order([0.1, 0.01], [1.0, 0.1, 0.01]), "1-d arrays of equal length"),
        (lambda: estimate_order([[0.1, 0.01]], [[1.0, 0.1]]), "1-d arrays of equal length"),
        (lambda: format_csv("json", []), "unknown csv kind 'json'"),
    ],
)
def test_harness_input_checks(call, match):
    with pytest.raises(ValueError, match=match):
        call()


@pytest.mark.parametrize(
    "call, source",
    [
        (lambda: estimate_order(["0.1", "0.05"], [1e-2, 2.5e-3]), "hs holds non-numeric"),
        (lambda: estimate_order(np.array([0.1, 0.05]) + 0j, [1e-2, 2.5e-3]), "hs holds complex"),
        (lambda: estimate_order([0.1, 0.05], ["0.01", "0.0025"]), "errs holds non-numeric"),
        (lambda: estimate_order([0.1, 0.05], [1e-2 + 0j, 2.5e-3]), "errs holds complex"),
        (lambda: converge(belzen(), ["heun"], ["0.5", "0.25"], 1.0), "h holds non-numeric"),
        (lambda: converge(belzen(), ["heun"], [0.5 + 0j, 0.25], 1.0), "h holds complex"),
        (lambda: TrajectoryRecorder(t0="0.0", values0=[1.0]), "t0 holds non-numeric"),
        (lambda: TrajectoryRecorder(values0=[1.0 + 1j]), "values0 holds complex"),
        (lambda: TrajectoryRecorder(values0=["1.0"]), "values0 holds non-numeric"),
        (lambda: TrajectoryRecorder()(0.5, np.array([1j])), "values holds complex"),
        (lambda: TrajectoryRecorder()(0.5, ["1.0"]), "values holds non-numeric"),
        (lambda: TrajectoryRecorder()("0.5", np.ones(1)), "t holds non-numeric"),
        (lambda: TrajectoryRecorder()(0.5 + 0j, np.ones(1)), "t holds complex"),
    ],
)
def test_harness_inputs_go_through_the_one_reader(call, source):
    # a TypeError naming the source, not a ComplexWarning, a parsed string or a raw float() error
    with pytest.raises(TypeError, match=f"^{source} values"):
        call()


def test_recorder_reads_t_only_on_recorded_steps():
    recorder = TrajectoryRecorder(2)
    recorder("skipped", np.ones(1))  # step 1 is not recorded: its t is not read
    recorder(np.float32(0.5), np.ones(1))
    recorder(None, np.ones(1))  # nor is step 3's
    with pytest.raises(ValueError, match=r"t holds shape \(1,\), expected \(\)"):
        recorder([1.0], np.ones(1))
    assert recorder.times == [0.5] and type(recorder.times[0]) is float


def test_recorder_keeps_float64_values_as_given():
    values = np.array([1.0, 2.0])
    recorder = TrajectoryRecorder(values0=values)
    recorder(0.5, values)
    assert all(v is values for v in recorder.values)


def test_converge_refuses_two_methods_of_one_name():
    # the last tableau of a name no longer replaces the first silently
    impostor = dataclasses.replace(builtin("heun"), name="expeuler")
    with pytest.raises(ValueError, match="two different methods are named 'expeuler'"):
        converge(belzen(), [builtin("expeuler"), impostor], [0.5, 0.25], 1.0)
    rows, slopes = converge(belzen(), ["heun", builtin("heun")], [0.5, 0.25], 1.0)
    assert [(row["method"], row["h"]) for row in rows] == [("heun", 0.5), ("heun", 0.25)]
    assert list(slopes) == ["heun"]


@settings(deadline=None, max_examples=50)
@given(
    st.floats(min_value=0.25, max_value=4.0),
    st.floats(min_value=1e-6, max_value=1e3),
)
def test_estimate_order_recovers_exponent(p, C):
    hs = np.array([1e-1, 3e-2, 1e-2])
    errs = C * hs**p
    assert estimate_order(hs, errs) == pytest.approx(p, abs=1e-9)


def test_converge_rows_schema_and_order():
    prob = belzen(1.0)
    rows, slopes = converge(prob, ["heun", "expeuler"], [0.05, 0.1], 1.0)
    # rows in deterministic sorted order: method name, then h descending
    assert [(r["method"], r["h"]) for r in rows] == [
        ("expeuler", 0.1),
        ("expeuler", 0.05),
        ("heun", 0.1),
        ("heun", 0.05),
    ]
    text = format_csv("converge", rows)
    lines = text.strip().split("\n")
    assert lines[0] == CONVERGE_HEADER
    assert len(lines) == 5
    assert slopes["expeuler"][0] == pytest.approx(1.0, abs=0.35)


@pytest.mark.parametrize("norm", ["L1", "max", 1])
def test_converge_checks_its_norm_before_the_first_integration(monkeypatch, norm):
    from expdelay import harness

    runs = []
    monkeypatch.setattr(harness, "integrate", lambda *args: runs.append(args))
    with pytest.raises(ValueError, match=r"norm must be None, 'sup' or 'l1', got"):
        converge(quadratic_re(), ["expo3"], [1e-2, 1e-3], 4.0, norm=norm)
    assert runs == []


@pytest.mark.parametrize("hs", [[0.001, 0.001], [0.5], [0.25, np.float64(0.25), 0.25]])
def test_converge_refuses_fewer_than_two_distinct_h_before_the_first_integration(
    monkeypatch, capsys, hs
):
    # one slope needs two distinct h: refused before any solve, by the library and the CLI
    from expdelay import harness

    runs = []
    monkeypatch.setattr(harness, "integrate", lambda *args: runs.append(args))
    with pytest.raises(ValueError, match=r"^need at least 2 distinct h to fit an order, have 1$"):
        converge(belzen(), ["heun"], hs, 1.0)
    argv = ["converge", "--problem", "belzen", "--method", "heun", "--T", "1.0"]
    assert main(argv + [arg for h in hs for arg in ("--h", str(h))]) == 2
    assert "need at least 2 distinct h" in capsys.readouterr().err
    assert runs == []


def test_converge_requires_exact_solution():
    from expdelay import daphnia

    with pytest.raises(ValueError):
        converge(daphnia(), ["expo3"], [0.1], 1.0)


@pytest.mark.parametrize("make", [belzen, quadratic_re])
def test_complex_exact_raises(make):
    # a TypeError naming exact, not a real part kept after a ComplexWarning
    prob = make()
    complex_exact = dataclasses.replace(prob, exact=lambda t: prob.exact(t) + 0j)
    with pytest.raises(TypeError, match="^exact returned complex values"):
        converge(complex_exact, ["heun"], [0.5, 0.25], 1.0)


def test_exact_value_of_the_wrong_shape_is_refused():
    # a dim-2 exact(T) of shape (1,) is named, not broadcast into err_x
    prob = Problem(
        kind="dde", dim=2, tau=1.0, rhs=lambda t, v: -v.eval(-1.0),
        phi0=lambda th: np.ones((len(th), 2)),
        exact=lambda t: np.ones((np.size(t), 2)) if np.ndim(t) else np.ones(1),
    )
    with pytest.raises(ValueError, match=r"^exact returned shape \(1,\), expected \(2,\)$"):
        converge(prob, ["heun"], [0.5, 0.25], 1.0)


def test_integrated_error_does_not_depend_on_the_layout_of_exact():
    # a strided (m, 1) view of exact's values sums as the same values made contiguous
    def wave(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.sin(t), np.cos(t)], axis=-1)[..., :1]

    errs = []
    for exact in (wave, lambda t: np.ascontiguousarray(wave(t))):
        prob = Problem(kind="re", dim=1, tau=1.0, phi0=lambda th: np.ones((len(th), 1)),
                       rhs=lambda t, v: -0.5 * v.eval(-1.0), exact=exact)
        rows, _ = converge(prob, ["heun"], [0.5, 0.25], 1.0)
        errs.append([(row["err_x"], row["err_u"]) for row in rows])
    assert errs[0] == errs[1]


def test_simulate_rows_and_sampling():
    prob = belzen(1.0)
    header, rows = simulate(prob, "heun", 0.1, 1.0, sample_every=10)
    assert header == ("t", "x")
    # only the initial and final rows survive sample_every = N
    assert len(rows) == 2
    assert rows[0][0] == 0.0
    assert rows[1][0] == pytest.approx(1.0)
    got = rows[1][1][0]
    assert got == pytest.approx(float(prob.exact(1.0)), abs=5e-2)


def test_simulate_tracks_exact_solution():
    prob = belzen(1.0)
    _, rows = simulate(prob, "expo3", 0.01, 2.0, sample_every=20)
    for t, vals in rows:
        assert vals[0] == pytest.approx(float(prob.exact(t)), abs=1e-5)


def test_csv_17_significant_digits():
    text = format_csv(
        "converge",
        [
            {
                "problem": "p",
                "method": "m",
                "h": 0.1,
                "err_x": 1.0 / 3.0,
                "err_u": 2.0 / 3.0,
            }
        ],
    )
    row = text.strip().split("\n")[1].split(",")
    assert row[2] == "1.0000000000000001e-01"
    assert row[3] == "3.3333333333333331e-01"


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_converge_writes_csv_and_is_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    argv = [
        "converge",
        "--problem",
        "belzen",
        "--method",
        "expeuler",
        "--h",
        "0.1",
        "--h",
        "0.05",
        "--T",
        "1.0",
    ]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    data1 = out1.read_bytes()
    assert data1 == out2.read_bytes()
    assert data1.decode().split("\n")[0] == CONVERGE_HEADER
    assert "slope belzen expeuler" in capsys.readouterr().out


def test_cli_converge_rejects_misaligned_h(capsys):
    code = main(
        ["converge", "--problem", "belzen", "--method", "heun", "--h", "0.3", "--T", "0.9"]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err
    for flag, value in (("--T", "inf"), ("--T", "nan"), ("--h", "nan"), ("--h", "inf")):
        for command in ("converge", "simulate"):
            code = main([command, "--problem", "belzen", "--method", "heun", flag, value])
            assert code == 2
            assert "error:" in capsys.readouterr().err


def test_cli_reports_divergence_with_exit_3(capsys, monkeypatch):
    from expdelay import Problem

    def diverging():
        return Problem(
            kind="dde",
            dim=1,
            tau=1.0,
            rhs=lambda t, v: np.array([np.inf]),
            phi0=lambda th: np.ones(np.shape(th)),
            name="diverging",
            exact=lambda t: np.zeros(np.shape(t)),
        )

    monkeypatch.setitem(REGISTRY, "diverging", diverging)
    monkeypatch.setitem(
        CLI_DEFAULTS, "diverging", {"T": 1.0, "hs": (0.1, 0.05), "h": 0.1}
    )
    # two distinct h: converge refuses fewer before its first solve, with exit 2
    code = main(["converge", "--problem", "diverging", "--method", "expeuler",
                 "--h", "0.1", "--h", "0.05", "--T", "1.0"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_cli_simulate_sample_every(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(
        [
            "simulate",
            "--problem",
            "belzen",
            "--method",
            "heun",
            "--h",
            "0.1",
            "--T",
            "1.0",
            "--sample-every",
            "10",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,x"
    assert len(lines) == 3  # header + t=0 + t=1


def test_cli_simulate_daphnia_header(tmp_path):
    out = tmp_path / "traj.csv"
    code = main(
        [
            "simulate",
            "--problem",
            "daphnia",
            "--method",
            "expo3",
            "--h",
            "0.5",
            "--T",
            "2.0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,b,S"
    assert len(lines) == 6


def test_cli_check_exit_codes(capsys):
    assert main(["check", "--method", "expeuler", "--order", "1", "--mode", "strong"]) == 0
    assert main(["check", "--method", "heun", "--order", "2", "--mode", "strong"]) == 0
    assert main(["check", "--method", "expo3"]) == 0  # declared: weak order 3
    assert main(["check", "--method", "expo3", "--order", "3", "--mode", "strong"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "PASS" in out


def test_cli_simulate_takes_one_method(capsys):
    argv = ["simulate", "--problem", "belzen", "--method", "heun", "--method", "expo3"]
    assert main(argv + ["--h", "0.1", "--T", "0.2"]) == 2
    assert "simulate takes exactly one --method" in capsys.readouterr().err


def test_cli_converge_out_dash_writes_stdout(capsys):
    argv = ["converge", "--problem", "belzen", "--method", "heun", "--h", "0.1", "--h", "0.05"]
    assert main(argv + ["--T", "0.2", "--out", "-"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == CONVERGE_HEADER
    assert len(lines) == 3 and lines[1].startswith("belzen,heun,1.0000000000000001e-01,")
    assert "slope belzen heun" in captured.err  # slopes go to stderr, off the CSV


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "--problem", "belzen", "--method", "heun", "--h", "0.1", "--h", "0.05"],
        ["simulate", "--problem", "belzen", "--h", "0.1"],
    ],
)
def test_cli_unwritable_out_exits_2(tmp_path, capsys, argv):
    # exit 1 means a failed order check; a path that cannot be opened is a
    # named error with code 2, not a traceback
    out = tmp_path / "missing" / "x.csv"
    assert main(argv + ["--T", "0.2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cli_unknown_choices_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["converge", "--problem", "unknown"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["check", "--method", "rk4"])
    assert exc.value.code == 2
