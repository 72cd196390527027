#!/usr/bin/env python3
"""End-to-end benchmark of metamargin, with a traced per-layer run.

Run from the root of a source checkout:

    python3 benchmarks/run.py [--workload NAME|all] [--seed N]
                              [--seconds S] [--trace 0|1]

Workloads (see benchmarks/README.md for why each was chosen and which
layers it loads):

- ``simulate-centroid``: ``metamargin simulate`` on configs/default.json
  as shipped, with the trial count set by the benchmark.
- ``sweep-multimargin``: ``metamargin simulate`` on configs/sweep.json
  at ``bound.n = 2000``, the middle point of the shipped n sweep. Its
  trials (about 14 s each) are too few per run to be steady on a
  shared host, so ``BENCHMARK.json`` does not list it; run it by name.
- ``estimate-cli``: a fixed session of ``metamargin estimate`` and
  ``metamargin bound`` calls on two matrix CSVs built at set-up.

Each workload is one closed loop: a single caller drives
``metamargin.cli.main`` in-process, one call after the other, with
``workers=1`` and one BLAS thread. The loop repeats whole commands (or
whole sessions) at least twice, so every run also checks that
same-seed repeats give identical outputs, and for about ``--seconds``:
it starts no further unit once that unit would end more than half its
length past ``--seconds``.

With ``--trace 0`` the last line of output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` the same untraced loop is
followed by one traced command (or set-up plus session), and the JSON
holds the per-layer metrics. ``--workload all`` (the default) runs
every workload, untraced then traced, each in its own process.

The seed defaults to the shipped config seed of each workload; 7 is
the second seed for confirming a claim. Results, spans and outputs go
to ``.bench_out/<workload>/`` under the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPEATS = 2  # same-seed commands or sessions per untraced loop
P90_MIN_SAMPLES = 100  # p90 needs ten samples beyond it


@dataclass(frozen=True)
class Simulate:
    """``metamargin simulate`` on a shipped config with overrides."""

    config: str
    seed: int
    overrides: dict


@dataclass(frozen=True)
class Estimate:
    """A session of ``metamargin estimate`` and ``bound`` calls.

    ``wide`` is the default config's meta-sample restriction; ``tall``
    is a single-episode restriction of a family of ``tall_groups``.
    """

    seed: int
    draws: int = 2000
    levels: int = 12
    cover_eps: tuple = (0.2, 0.1, 0.05)
    tall_groups: tuple = (("identity", 1), ("random_relu", 32), ("random_linear", 31))
    meta_n: int | None = None  # None keeps the default config's n
    avg_loss: float = 0.25
    setups: int = 9


WORKLOADS = {
    "simulate-centroid": Simulate("configs/default.json", 20240801,
                                  {"trials": 10, "record_timing": True}),
    "sweep-multimargin": Simulate("configs/sweep.json", 9,
                                  {"trials": 1, "record_timing": True, "bound": {"n": 2000}}),
    "estimate-cli": Estimate(20240801),
}

# The metrics of the last output line with --trace 0; the report lines
# before it also print wall_s, the per-workload names (trials_per_s,
# trial_s_p50, trial_s_p90, calls_per_s) and the output metrics.
# Self times that are exactly 0 where a workload never enters that code
# (losses and write_result_rows on estimate-cli, the matrix CSV methods
# on the simulate workloads). The report prints them, but a time that
# reads 0 on every run measures nothing, so the last line leaves them out.
REPORT_ONLY_LAYER_METRICS = frozenset({
    "losses.self_s", "complexity.csv.self_s", "harness.write_result_rows.self_s"})

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_s_p50": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Run:
    """Everything one workload run measured and checked."""

    workload: str
    seed: int
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit, sample count)
    outputs: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)

    def add(self, name: str, value: float, unit: str, count: int = 1) -> None:
        self.metrics[name] = (value, unit, count)


# -- environment ---------------------------------------------------------

class SetupError(RuntimeError):
    """The checkout does not hold what the benchmark needs."""


def import_package():
    """Import metamargin from this checkout's ``src``, never elsewhere."""
    src = ROOT / "src"
    if not (src / "metamargin" / "cli.py").is_file():
        raise SetupError(f"no metamargin sources under {src}")
    for config in ("configs/default.json", "configs/sweep.json"):
        if not (ROOT / config).is_file():
            raise SetupError(f"missing {config}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import metamargin.cli
    if not Path(metamargin.cli.__file__).resolve().is_relative_to(src):
        raise SetupError(f"metamargin was imported from {metamargin.cli.__file__}, not {src}")
    return metamargin


def _blas_info() -> dict:
    import numpy as np
    info = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=deps.get("name"), version=deps.get("version"))
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    if libs:
        try:
            lib = ctypes.CDLL(libs[0])
            threads = lib.scipy_openblas_get_num_threads64_
            threads.restype = ctypes.c_int
            config = lib.scipy_openblas_get_config64_
            config.restype = ctypes.c_char_p
            info.update(threads=threads(), config=config().decode())
        except (OSError, AttributeError):
            pass
    return info


def machine_info() -> dict:
    import numpy as np
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- driving the CLI -----------------------------------------------------

def call_cli(argv: list[str]) -> tuple[int, str, str, float]:
    """Run ``metamargin.cli.main(argv)`` in-process.

    Looks ``main`` up at call time so a traced wrapper is used when
    installed. Returns (exit code, stdout, stderr, wall seconds); an
    exception escaping ``main`` counts as exit code -1.
    """
    main = sys.modules["metamargin.cli"].main
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def cli_json(run: Run, argv: list[str], code: int, stdout: str, stderr: str):
    """Check one call: exit code 0 and strict JSON on stdout."""
    what = "metamargin " + " ".join(argv[:3])
    if code != 0:
        run.problems.append(f"{what}: exit code {code}: {stderr.strip()[-300:]}")
        return None
    try:
        return checks.strict_json(stdout)
    except ValueError as exc:
        run.problems.append(f"{what}: stdout is not strict JSON ({exc})")
        return None


def repeat_for(seconds: float, minimum: int, unit) -> None:
    """Call ``unit(i)`` at least ``minimum`` times, and then while the
    next call, taking as long as the median call so far, would end no
    more than half a call past ``seconds``."""
    start = time.perf_counter()
    lengths = []
    while len(lengths) < minimum or (
            time.perf_counter() - start + statistics.median(lengths) / 2 < seconds):
        began = time.perf_counter()
        unit(len(lengths))
        lengths.append(time.perf_counter() - began)


def merge(base: dict, overrides: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in overrides.items():
        if isinstance(value, dict):
            out[key] = merge(out.get(key, {}), value)
        else:
            out[key] = value
    return out


# -- simulate workloads --------------------------------------------------

def run_simulate(run: Run, spec: Simulate, seconds: float, trace: bool, workdir: Path,
                 recorded: dict | None):
    with open(ROOT / spec.config) as handle:
        config = merge(json.load(handle), spec.overrides)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    trials = config["trials"]
    blanked, summaries = [], []
    walls, setups, trial_times = [], [], []
    accuracy = hold_min = None

    def invoke(tag: str, record: bool) -> None:
        nonlocal accuracy, hold_min
        csv_path = workdir / f"results-{tag}.csv"
        argv = ["simulate", "--config", str(config_path), "--seed", str(run.seed),
                "--output", str(csv_path)]
        code, stdout, stderr, wall = call_cli(argv)
        run.attempted += trials
        summary = cli_json(run, argv, code, stdout, stderr)
        if summary is None:
            run.failed += trials
            return
        run.failed += summary["failed_trials"]
        text = csv_path.read_text()
        rows, problems = checks.parse_results_csv(text)
        problems += checks.check_results_rows(rows)
        if len(rows) != trials - summary["failed_trials"]:
            problems.append(f"{len(rows)} CSV rows for {trials - summary['failed_trials']} trials")
        run.problems += [f"{csv_path.name}: {p}" for p in problems]
        blanked.append(checks.blank_elapsed(text))
        summaries.append({k: v for k, v in summary.items() if k not in ("elapsed_s", "output_path")})
        if rows:
            accuracy = summary["mean_test_accuracy"]
            hold_min = min(summary[f"hold_freq_{kind}"] for kind in checks.BOUND_KINDS)
        if record:
            times = [row["elapsed_ms"] / 1000.0 for row in rows]
            walls.append(wall)
            setups.append(wall - sum(times))
            trial_times.extend(times)

    repeat_for(seconds, MIN_REPEATS if not trace else 1, lambda i: invoke(f"run{i}", True))
    if trace:
        tracer, traced_wall = traced(lambda: invoke("traced", False))
        finish_trace(run, tracer, traced_wall, statistics.median(walls), workdir)

    run.problems += checks.check_same_outputs(blanked, "results CSVs (elapsed_ms blanked)")
    run.problems += checks.check_same_outputs(
        [json.dumps(s, sort_keys=True) for s in summaries], "run summaries")
    run.outputs = {"hold_freq_min": hold_min, "mean_test_accuracy": accuracy}
    if recorded is not None:
        run.problems += checks.check_recorded(run.outputs, recorded)

    n = len(walls)
    run.add("setup_s", statistics.median(setups), "s", n)
    run.add("wall_s", statistics.median(walls), "s", n)
    if trial_times:
        rate = len(trial_times) / sum(trial_times)
        run.add("items_per_s", rate, "1/s", len(trial_times))
        run.add("trials_per_s", rate, "1/s", len(trial_times))
        p50 = statistics.median(trial_times)
        run.add("item_s_p50", p50, "s", len(trial_times))
        run.add("trial_s_p50", p50, "s", len(trial_times))
        if len(trial_times) >= P90_MIN_SAMPLES:
            run.add("trial_s_p90", statistics.quantiles(trial_times, n=10)[-1], "s", len(trial_times))
    if accuracy is not None:
        run.add("hold_freq_min", hold_min, "frac", len(summaries))
        run.add("mean_test_accuracy", accuracy, "frac", len(summaries))


# -- estimate-cli workload -------------------------------------------------

def build_matrices(spec: Estimate, seed: int, workdir: Path) -> dict:
    """Build and write the ``wide`` and ``tall`` matrix CSVs with the
    library; returns {name: (path, n_points)}."""
    from metamargin.complexity import build_pi1f_restriction
    from metamargin.core import SeedPolicy, sample_kway_sshot_episode, sample_meta_sample, sample_task
    from metamargin.harness import (
        ExperimentConfig, FamilyGroup, FamilySpec, build_family, make_base_learner)

    with open(ROOT / "configs/default.json") as handle:
        config = ExperimentConfig.from_json(json.load(handle))
    env, bound = config.environment, config.bound
    s, q = config.episode_shape
    root = SeedPolicy(seed)
    learner = make_base_learner(config.learner, bound.rho, bound.b)
    family = build_family(config.family, env.d_raw, root.child(0))
    meta = sample_meta_sample(env, spec.meta_n or bound.n, bound.m, root.child(1), config.episode_shape)
    wide = build_pi1f_restriction(meta, family, learner, bound.k)
    tall_spec = FamilySpec(d=config.family.d, norm_cap=config.family.norm_cap,
                           groups=tuple(FamilyGroup(kind, count) for kind, count in spec.tall_groups))
    tall_family = build_family(tall_spec, env.d_raw, root.child(2))
    task = sample_task(env, root.child(3))
    episode = sample_kway_sshot_episode(task, env.k, s, q, root.child(4))
    tall = build_pi1f_restriction(episode, tall_family, learner, bound.k)
    out = {}
    for name, matrix in (("wide", wide), ("tall", tall)):
        path = workdir / f"{name}.csv"
        matrix.to_csv(str(path))
        out[name] = (str(path), matrix.n_points)
    return out


def _estimate_calls(spec: Estimate, seed: int, path: str) -> list[tuple[str, list[str]]]:
    calls = []
    for est in ("gaussian", "rademacher"):
        calls.append((est, ["estimate", "--input", path, "--estimator", est,
                            "--draws", str(spec.draws), "--seed", str(seed)]))
    calls.append(("massart", ["estimate", "--input", path, "--estimator", "massart"]))
    for est in ("entropy", "dudley"):
        calls.append((est, ["estimate", "--input", path, "--estimator", est,
                            "--levels", str(spec.levels)]))
    for eps in spec.cover_eps:
        calls.append((f"cover@{eps!r}", ["estimate", "--input", path, "--estimator", "cover",
                                         "--eps", repr(eps)]))
    return calls


def _bound_calls(spec: Estimate, bound: dict, shape: dict, out: dict) -> list[tuple[str, list[str]]]:
    common = ["--k", str(bound["k"]), "--rho", repr(bound["rho"]), "--delta", repr(bound["delta"]),
              "--n", str(bound["n"]), "--v", str(bound["v"]), "--b", repr(bound["b"])]
    with_m = common + ["--m", str(bound["m"]), "--avg-loss", repr(spec.avg_loss)]
    return [
        ("vc", ["bound", "--kind", "vc"] + with_m),
        ("gaussian", ["bound", "--kind", "gaussian"] + with_m + [
            "--gamma-meta", repr(out["wide.gaussian"]["mean"]),
            "--gamma-task", repr(out["tall.gaussian"]["mean"])]),
        ("covering", ["bound", "--kind", "covering"] + with_m + [
            "--entropy-meta", repr(out["wide.entropy"]), "--entropy-task", repr(out["tall.entropy"])]),
        ("surrogate", ["bound", "--kind", "surrogate"] + with_m),
        ("kway_sshot", ["bound", "--kind", "kway_sshot"] + common + [
            "--s", str(shape["s"]), "--q", str(shape["q"])]),
    ]


def _summarize_estimate(result: dict):
    """The recorded form of one estimate output."""
    if "mean" in result:
        return {"mean": result["mean"], "std_error": result["std_error"]}
    if "size" in result:
        return result["size"]
    return result["value"]


def check_session(spec: Estimate, results: dict, n_points: dict, bound: dict,
                  shape: dict) -> list[str]:
    """Invariants that hold for every seed."""
    problems = []
    for name in ("wide", "tall"):
        if f"{name}.dudley" in results and f"{name}.entropy" in results:
            want = 24.0 / n_points[name] ** 0.5 * results[f"{name}.entropy"]["value"]
            if abs(results[f"{name}.dudley"]["value"] - want) > 1e-12 * max(1.0, abs(want)):
                problems.append(f"{name}: dudley is not 24/sqrt(M) times the entropy sum")
        for est in ("gaussian", "rademacher"):
            r = results.get(f"{name}.{est}")
            if r is not None and (r["draws"] != spec.draws or not r["std_error"] > 0):
                problems.append(f"{name}.{est}: bad draws or standard error")
        sizes = []
        for eps in sorted(spec.cover_eps):
            r = results.get(f"{name}.cover@{eps!r}")
            if r is not None:
                if r["size"] != len(r["centers"]) or r["size"] < 1:
                    problems.append(f"{name}.cover@{eps!r}: size disagrees with its centers")
                sizes.append(r["size"])
        if sizes != sorted(sizes, reverse=True):
            problems.append(f"{name}: cover sizes grow with eps")
    for kind in ("vc", "gaussian", "covering", "surrogate"):
        if f"bound.{kind}" in results:
            problems += checks.check_bound_report(f"bound.{kind}", results[f"bound.{kind}"])
    kway = results.get("bound.kway_sshot")
    if kway is not None and kway["m"] != bound["k"] * (shape["s"] + shape["q"]):
        problems.append("bound.kway_sshot: m is not k*(s+q)")
    return problems


def run_estimate(run: Run, spec: Estimate, seconds: float, trace: bool, workdir: Path,
                 recorded: dict | None):
    with open(ROOT / "configs/default.json") as handle:
        shipped = json.load(handle)
    bound, shape = shipped["bound"], shipped["episode_shape"]
    if spec.meta_n is not None:
        bound = {**bound, "n": spec.meta_n}

    setups, matrix_bytes = [], []
    for _ in range(spec.setups):
        start = time.perf_counter()
        matrices = build_matrices(spec, run.seed, workdir)
        setups.append(time.perf_counter() - start)
        matrix_bytes.append(b"".join(Path(p).read_bytes() for p, _ in matrices.values()))
    run.problems += checks.check_same_outputs(matrix_bytes, "matrix CSVs")
    n_points = {name: n for name, (_, n) in matrices.items()}

    pass_walls, call_walls, transcripts = [], [], []
    results: dict = {}

    def session(record: bool) -> None:
        start = time.perf_counter()
        transcript = []
        results.clear()

        def call(key: str, argv: list[str]) -> None:
            code, stdout, stderr, wall = call_cli(argv)
            run.attempted += 1
            run.failed += code != 0
            if record:
                call_walls.append(wall)
            transcript.append(stdout)
            parsed = cli_json(run, argv, code, stdout, stderr)
            if parsed is not None:
                results[key] = parsed

        for name, (path, _) in matrices.items():
            for label, argv in _estimate_calls(spec, run.seed, path):
                call(f"{name}.{label}", argv)
        # The bound calls are fed by this session's estimates.
        needed = ("wide.gaussian", "tall.gaussian", "wide.entropy", "tall.entropy")
        if all(k in results for k in needed):
            fed = {k: _summarize_estimate(results[k]) for k in needed}
            for label, argv in _bound_calls(spec, bound, shape, fed):
                call(f"bound.{label}", argv)
        transcripts.append("".join(transcript))
        if record:
            pass_walls.append(time.perf_counter() - start)

    repeat_for(seconds, MIN_REPEATS if not trace else 1, lambda i: session(True))
    if trace:
        def traced_work():
            build_matrices(spec, run.seed, workdir)
            session(False)
        tracer, traced_wall = traced(traced_work)
        finish_trace(run, tracer, traced_wall,
                     statistics.median(setups) + statistics.median(pass_walls), workdir)

    run.problems += checks.check_same_outputs(transcripts, "session outputs")
    run.problems += check_session(spec, results, n_points, bound, shape)
    run.outputs = {key: (_summarize_estimate(r) if not key.startswith("bound.")
                         else r.get("total", r.get("complexity_term")))
                   for key, r in sorted(results.items())}
    if recorded is not None:
        run.problems += checks.check_recorded(run.outputs, recorded)

    calls = len(call_walls)
    run.add("setup_s", statistics.median(setups), "s", len(setups))
    run.add("wall_s", statistics.median(pass_walls), "s", len(pass_walls))
    if calls:
        rate = calls / sum(pass_walls)
        run.add("items_per_s", rate, "1/s", calls)
        run.add("calls_per_s", rate, "1/s", calls)
        run.add("item_s_p50", statistics.median(call_walls), "s", calls)


# -- tracing ---------------------------------------------------------------

def traced(work):
    """Run ``work()`` once with spans recorded; returns (tracer, wall)."""
    import spans
    tracer = spans.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        work()
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return tracer, wall


def finish_trace(run: Run, tracer, traced_wall: float, untraced_wall: float, workdir: Path) -> None:
    run.per_layer = tracer.layer_metrics(traced_wall)
    run.per_layer["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    tracer.write_csv(str(workdir / "spans.csv"))


# -- reporting -------------------------------------------------------------

def execute(name: str, seed: int, seconds: float, trace: bool, spec=None) -> Run:
    """Run one workload in this process and return what it measured.

    ``spec`` replaces the shipped workload definition (the self-tests
    pass tiny ones); recorded values are only compared for the shipped
    definitions.
    """
    shipped = WORKLOADS[name]
    spec = spec or shipped
    import_package()
    workdir = OUT / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    recorded = None
    if spec == shipped:
        with open(BENCH_DIR / "expected.json") as handle:
            recorded = json.load(handle).get(name, {}).get(str(seed))
    run = Run(workload=name, seed=seed)
    runner = run_simulate if isinstance(spec, Simulate) else run_estimate
    runner(run, spec, seconds, trace, workdir, recorded)
    run.add("peak_rss_mb", peak_rss_mb(), "MB")
    run.add("failed_frac", run.failed / max(run.attempted, 1), "frac", run.attempted)
    return run


def result_line(run: Run, trace: bool) -> dict:
    if trace:
        import spans
        metrics = {k: {"value": run.per_layer[k], "unit": u}
                   for k, u in spans.per_layer_units().items() if k not in REPORT_ONLY_LAYER_METRICS}
    else:
        metrics = {k: {"value": run.metrics[k][0], "unit": u} for k, u in END_TO_END_UNITS.items()}
    return {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def report(run: Run, trace: bool) -> list[str]:
    lines = [f"workload {run.workload} seed={run.seed} trace={int(trace)}"]
    for name, (value, unit, count) in run.metrics.items():
        lines.append(f"  {name:<22} {value:>14.6g} {unit:<6} n={count}")
    if trace:
        import spans
        for name, unit in spans.per_layer_units().items():
            lines.append(f"  {name:<40} {run.per_layer[name]:>14.6g} {unit}")
    lines.append("outputs " + json.dumps(run.outputs, sort_keys=True))
    if run.problems:
        lines += [f"check FAILED: {p}" for p in run.problems]
    else:
        lines.append("checks passed")
    return lines


def run_one(args) -> int:
    name = args.workload
    seed = args.seed if args.seed is not None else WORKLOADS[name].seed
    machine = machine_info()
    load_start = os.getloadavg()
    run = execute(name, seed, args.seconds, bool(args.trace))
    machine["loadavg_start"], machine["loadavg_end"] = load_start, os.getloadavg()
    line = result_line(run, bool(args.trace))
    record = {"machine": machine, "workload": name, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "metrics": run.metrics, "per_layer": run.per_layer,
              "outputs": run.outputs, "problems": run.problems, "result": line}
    (OUT / name / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=2))
    print("machine " + json.dumps(machine, sort_keys=True))
    print("\n".join(report(run, bool(args.trace))))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seconds", repr(args.seconds), "--trace", str(trace)]
            if args.seed is not None:
                argv += ["--seed", str(args.seed)]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = checks.strict_json(lines[-1])
            except ValueError:
                combined["correct"] = False
                continue
            combined["correct"] &= result["correct"] and proc.returncode == 0
            if trace == 0:
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the shipped config seed)")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measure about this long, repeating whole commands")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    try:
        if args.workload == "all":
            import_package()
            return run_all(args)
        return run_one(args)
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
