"""Command-line entry points.

Subcommands: ``bound`` evaluates a transfer bound from flags,
``estimate`` runs a complexity estimator on a CSV function-value
matrix, ``simulate`` runs a bound-validity experiment from a JSON
config, and ``sweep`` repeats it along one parameter axis. Exit codes:
0 on success, 2 on bad input, such as an integer beyond float range or a
size no array or memory can hold, 3 on a numeric failure leaving no result.

A run's seed is ``--seed`` if given, else the config's (``estimate``:
0). Its output CSV is ``--output`` (default: results.csv or sweep.csv in
the working directory).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, replace

from .bounds import (
    BOUND_KINDS,
    DEFAULT_C0,
    BoundInputs,
    covering_transfer_bound,
    gaussian_transfer_bound,
    kway_sshot_complexity_term,
    surrogate_multimargin_bound,
    vc_transfer_bound,
)
from .complexity import (
    FunctionValueMatrix,
    dudley_bound,
    entropy_integral,
    gaussian_complexity_mc,
    greedy_epsilon_cover,
    massart_bound,
    rademacher_complexity_mc,
)
from .core import EpisodeShape
from .harness import (
    SWEEP_AXES,
    ExperimentConfig,
    SweepRow,
    bound_validity_experiment,
    sweep,
    write_result_rows,
)
from .learners import NumericError


def _print_json(payload: dict, indent: int | None = None) -> None:
    """Print strict JSON: a NaN or infinity in the output is a numeric
    failure, never a JSON extension."""
    try:
        text = json.dumps(payload, indent=indent, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"non-finite value in output: {exc}") from exc
    print(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="metamargin")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate a transfer bound from flags")
    p_bound.add_argument("--kind", default="vc", choices=[*BOUND_KINDS, "kway_sshot"])
    p_bound.add_argument("--k", type=int, required=True)
    p_bound.add_argument("--rho", type=float, required=True)
    p_bound.add_argument("--delta", type=float, default=0.1)
    p_bound.add_argument("--m", type=int)
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.add_argument("--v", type=int, required=True)
    p_bound.add_argument("--b", type=float, required=True)
    p_bound.add_argument("--c0", type=float, default=DEFAULT_C0)
    p_bound.add_argument("--avg-loss", type=float, default=0.0,
                         help="average empirical loss (multi-margin for --kind surrogate)")
    p_bound.add_argument("--gamma-meta", type=float, default=0.0)
    p_bound.add_argument("--gamma-task", type=float, default=0.0)
    p_bound.add_argument("--entropy-meta", type=float, default=0.0)
    p_bound.add_argument("--entropy-task", type=float, default=0.0)
    p_bound.add_argument("--s", type=int, help="support size per class (kway_sshot)")
    p_bound.add_argument("--q", type=int, help="query size per class (kway_sshot)")

    p_est = sub.add_parser("estimate", help="run a complexity estimator on a matrix CSV")
    p_est.add_argument("--input", required=True, help="function-value matrix CSV")
    p_est.add_argument("--estimator", required=True,
                       choices=["gaussian", "rademacher", "massart", "dudley", "entropy", "cover"])
    p_est.add_argument("--draws", type=int, default=2000)
    p_est.add_argument("--seed", type=int, default=0)
    p_est.add_argument("--levels", type=int, default=12)
    p_est.add_argument("--eps", type=float, help="radius for --estimator cover")

    run = argparse.ArgumentParser(add_help=False)  # the flags simulate and sweep share
    run.add_argument("--config", required=True, help="experiment config JSON")
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--workers", type=int, default=None)

    p_sim = sub.add_parser("simulate", parents=[run], help="run a bound-validity experiment")
    p_sim.add_argument("--output", default="results.csv", help="output CSV path")
    p_sweep = sub.add_parser("sweep", parents=[run], help="sweep one parameter axis")
    p_sweep.add_argument("--output", default="sweep.csv", help="output CSV path")
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    return parser


_PARSER = _build_parser()


def _cmd_bound(args: argparse.Namespace) -> int:
    kwargs = {"k": args.k, "rho": args.rho, "delta": args.delta, "n": args.n,
              "v": args.v, "b": args.b, "c0": args.c0}
    if args.kind == "kway_sshot":
        if args.s is None or args.q is None:
            raise ValueError("--kind kway_sshot requires --s and --q")
        shape = EpisodeShape(args.s, args.q)
        term = kway_sshot_complexity_term(args.k, *shape, args.n, args.rho, args.v, args.b, args.c0)
        _print_json({"kind": "kway_sshot", "m": shape.m(args.k), "complexity_term": term})
        return 0
    if args.m is None:
        raise ValueError("--m is required for this bound kind")
    inputs = BoundInputs(m=args.m, **kwargs)
    if args.kind == "vc":
        report = vc_transfer_bound(inputs, args.avg_loss)
    elif args.kind == "surrogate":
        report = surrogate_multimargin_bound(inputs, args.avg_loss)
    elif args.kind == "gaussian":
        report = gaussian_transfer_bound(inputs, args.avg_loss, args.gamma_meta, args.gamma_task)
    else:
        report = covering_transfer_bound(inputs, args.avg_loss, args.entropy_meta, args.entropy_task)
    _print_json(asdict(report))
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    matrix = FunctionValueMatrix.from_csv(args.input)
    if args.estimator in ("gaussian", "rademacher"):
        fn = gaussian_complexity_mc if args.estimator == "gaussian" else rademacher_complexity_mc
        est = fn(matrix, args.draws, args.seed)
        _print_json({"estimator": args.estimator, **asdict(est)})
    elif args.estimator == "massart":
        _print_json({"estimator": "massart", "value": massart_bound(matrix)})
    elif args.estimator == "dudley":
        _print_json({"estimator": "dudley", "levels": args.levels,
                     "value": dudley_bound(matrix, args.levels)})
    elif args.estimator == "entropy":
        _print_json({"estimator": "entropy", "levels": args.levels,
                     "value": entropy_integral(matrix, args.levels)})
    else:
        if args.eps is None:
            raise ValueError("--estimator cover requires --eps")
        centers, size = greedy_epsilon_cover(matrix, args.eps)
        _print_json({"estimator": "cover", "eps": args.eps,
                     "size": size, "centers": centers})
    return 0


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    with open(args.config) as handle:
        config = ExperimentConfig.from_json(json.load(handle))
    flags = {"seed": args.seed, "workers": args.workers}
    return replace(config, **{name: value for name, value in flags.items() if value is not None})


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    start = time.perf_counter()
    rows, summary = bound_validity_experiment(config)
    write_result_rows(rows, args.output)
    summary["output_path"] = args.output
    summary["elapsed_s"] = round(time.perf_counter() - start, 3)
    _print_json(summary, indent=2)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"--values must be comma-separated numbers: {exc}") from exc
    start = time.perf_counter()
    rows = sweep(config, args.axis, values)
    write_result_rows(rows, args.output, SweepRow)
    _print_json({
        "axis": args.axis,
        "values": values,
        "statuses": [r.status for r in rows],
        "output_path": args.output,
        "elapsed_s": round(time.perf_counter() - start, 3),
    }, indent=2)
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        commands = {"bound": _cmd_bound, "estimate": _cmd_estimate, "simulate": _cmd_simulate, "sweep": _cmd_sweep}
        return commands[args.command](args)
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, OverflowError) as exc:  # OverflowError: an int beyond float
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
