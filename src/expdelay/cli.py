"""Command-line harness: convergence studies, trajectory runs, order checks.

Subcommands::

    expdelay converge --problem belzen --method expeuler --method heun \
        --h 1e-1 --h 1e-2 --T 2 --out conv.csv
    expdelay simulate --problem daphnia --method expo3 --h 1e-2 --T 60 \
        --sample-every 100 --out traj.csv
    expdelay check --method expo3 --order 3 --mode weak

Exit codes: 0 success (and, for ``check``, all conditions satisfied),
2 constraint or lookup failure or an output file that cannot be written,
3 divergence (non-finite values) during integration.
"""

from __future__ import annotations

import argparse
import sys

from . import problems
from .harness import converge, format_csv, simulate
from .stepper import IntegrationDiverged
from .tableau import builtin, builtin_names, check_order


def _write(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument(
        "--problem",
        required=True,
        choices=sorted(problems.REGISTRY),
        help="benchmark problem name",
    )
    p.add_argument(
        "--method",
        action="append",
        choices=builtin_names(),
        help="method name (repeatable; default: all built-ins)",
    )
    p.add_argument("--T", type=float, default=None, help="final time")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expdelay",
        description="Exponential Runge-Kutta integration of delay and renewal equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_conv = sub.add_parser("converge", help="error-vs-h study against the exact solution")
    p_conv.set_defaults(run=_cmd_converge)
    _add_common(p_conv)
    p_conv.add_argument(
        "--h",
        action="append",
        type=float,
        dest="hs",
        help="step size (repeatable; default: problem-specific list)",
    )
    p_conv.add_argument(
        "--norm",
        choices=("sup", "l1"),
        default=None,
        help="history norm for err_u (and err_x on renewal problems)",
    )

    p_sim = sub.add_parser("simulate", help="single trajectory run")
    p_sim.set_defaults(run=_cmd_simulate)
    _add_common(p_sim)
    p_sim.add_argument("--h", type=float, default=None, help="step size")
    p_sim.add_argument(
        "--sample-every",
        type=int,
        default=1,
        help="record every k-th step (t=0 row always included)",
    )

    p_chk = sub.add_parser("check", help="stiff order-condition report")
    p_chk.set_defaults(run=_cmd_check)
    p_chk.add_argument("--method", required=True, choices=builtin_names())
    p_chk.add_argument("--order", type=int, default=None, help="order to certify (1..4)")
    p_chk.add_argument("--mode", choices=("strong", "weak"), default=None)
    return parser


def _cmd_converge(args) -> int:
    problem = problems.make(args.problem)
    defaults = problems.CLI_DEFAULTS[args.problem]
    methods = args.method or list(builtin_names())
    hs = args.hs or list(defaults.get("hs", ()))
    T = args.T if args.T is not None else defaults["T"]
    norm = args.norm
    rows, slopes = converge(problem, methods, hs, T, norm=norm)
    _write(args.out, format_csv("converge", rows))
    for method in sorted(slopes):
        sx, su = slopes[method]
        print(
            f"slope {args.problem} {method}: err_x {sx:.3f}  err_u {su:.3f}",
            file=sys.stderr if args.out in (None, "-") else sys.stdout,
        )
    return 0


def _cmd_simulate(args) -> int:
    problem = problems.make(args.problem)
    defaults = problems.CLI_DEFAULTS[args.problem]
    methods = args.method or ["expo3"]
    if len(methods) != 1:
        print("simulate takes exactly one --method", file=sys.stderr)
        return 2
    h = args.h if args.h is not None else defaults["h"]
    T = args.T if args.T is not None else defaults["T"]
    payload = simulate(problem, methods[0], h, T, sample_every=args.sample_every)
    _write(args.out, format_csv("simulate", payload))
    return 0


def _cmd_check(args) -> int:
    tab = builtin(args.method)
    order = args.order if args.order is not None else tab.declared_order
    mode = args.mode if args.mode is not None else tab.declared_mode
    report = check_order(tab, order, mode)
    print(report)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, KeyError, OSError) as exc:  # MeshError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrationDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
