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
from dataclasses import MISSING, asdict, fields, replace
from typing import get_type_hints

from .bounds import BOUND_KINDS, BoundInputs, kway_sshot_complexity_term, transfer_bound
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


class _Parser(argparse.ArgumentParser):
    """A bad flag prints one stderr line, ``error: <message>``, and exits 2; subparsers inherit it."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _cover(matrix: FunctionValueMatrix, args: argparse.Namespace) -> dict:
    if args.eps is None:
        raise ValueError("--estimator cover requires --eps")
    centers, size = greedy_epsilon_cover(matrix, args.eps)
    return {"eps": args.eps, "size": size, "centers": centers}


# Each estimator's output fields, from the matrix and the flags. The lambdas look each function up
# by its module-level name at call time, so a wrapped one sees every call.
_ESTIMATORS = {
    "gaussian": lambda matrix, args: asdict(gaussian_complexity_mc(matrix, args.draws, args.seed)),
    "rademacher": lambda matrix, args: asdict(rademacher_complexity_mc(matrix, args.draws, args.seed)),
    "massart": lambda matrix, args: {"value": massart_bound(matrix)},
    "dudley": lambda matrix, args: {"levels": args.levels, "value": dudley_bound(matrix, args.levels)},
    "entropy": lambda matrix, args: {"levels": args.levels, "value": entropy_integral(matrix, args.levels)},
    "cover": _cover,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="metamargin")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate a transfer bound from flags")
    p_bound.add_argument("--kind", default="vc", choices=[*BOUND_KINDS, "kway_sshot"])
    # one flag per BoundInputs field, of its type and default, except that --delta defaults to 0.1
    # and --m is optional, since kway_sshot derives m from --s and --q
    hints = get_type_hints(BoundInputs)
    for field in fields(BoundInputs):
        default = {"delta": 0.1, "m": None}.get(field.name, field.default)
        p_bound.add_argument(f"--{field.name}", type=hints[field.name],
                             **({"required": True} if default is MISSING else {"default": default}))
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
    p_est.add_argument("--estimator", required=True, choices=list(_ESTIMATORS))
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
    if args.kind == "kway_sshot":
        if args.s is None or args.q is None:
            raise ValueError("--kind kway_sshot requires --s and --q")
        shape = EpisodeShape(args.s, args.q)
        term = kway_sshot_complexity_term(args.k, *shape, args.n, args.rho, args.v, args.b, args.c0)
        _print_json({"kind": "kway_sshot", "m": shape.m(args.k), "complexity_term": term})
        return 0
    if args.m is None:
        raise ValueError("--m is required for this bound kind")
    inputs = BoundInputs(**{field.name: getattr(args, field.name) for field in fields(BoundInputs)})
    # --avg-loss is surrogate's multi-margin loss and the other kinds' ramp loss
    report = transfer_bound(args.kind, inputs, avg_margin_loss=args.avg_loss, avg_multimargin_loss=args.avg_loss,
                            gamma_meta=args.gamma_meta, gamma_task=args.gamma_task,
                            entropy_meta=args.entropy_meta, entropy_task=args.entropy_task)
    _print_json(asdict(report))
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    matrix = FunctionValueMatrix.from_csv(args.input)
    _print_json({"estimator": args.estimator, **_ESTIMATORS[args.estimator](matrix, args)})
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
