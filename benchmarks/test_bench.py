"""Self-tests of the benchmark at tiny size.

Run from the root of the checkout: ``python3 -m pytest benchmarks``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import checks
import run
import spans

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())

TINY_SIM = {"trials": 2, "record_timing": True, "test_episodes": 10, "outer_task_draws": 2,
            "outer_meta_draws": 1, "mc_draws": 50, "bound": {"n": 5}}
TINY = {
    "simulate-centroid": run.Simulate("configs/default.json", 1, TINY_SIM),
    "sweep-multimargin": run.Simulate("configs/sweep.json", 1, TINY_SIM),
    "estimate-cli": run.Estimate(1, draws=50, meta_n=3, tall_groups=(("random_relu", 4),), setups=2),
}


@pytest.fixture(scope="module")
def tiny_runs():
    return {(name, trace): run.execute(name, 3, 0.0, trace, spec=spec)
            for name, spec in TINY.items() for trace in (False, True)}


@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_emitted_with_its_unit(tiny_runs, name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.result_line(tiny_runs[name, trace], trace)
        assert result["correct"], tiny_runs[name, trace].problems
        assert result["attempted"] >= 1 and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
        assert json.loads(json.dumps(result)) == result


def test_end_to_end_metrics_are_positive(tiny_runs):
    for name in TINY:
        metrics = run.result_line(tiny_runs[name, False], False)["metrics"]
        assert all(v["value"] > 0 for v in metrics.values()), name


@pytest.mark.parametrize("name", list(TINY))
def test_span_accounting_closes(name):
    run.import_package()
    argv = {
        "simulate-centroid": None, "sweep-multimargin": None,
        "estimate-cli": ["bound", "--kind", "vc", "--k", "5", "--rho", "1", "--n", "10",
                         "--v", "17", "--b", "1", "--m", "20"],
    }[name]
    work_run = run.Run(workload=name, seed=3)
    workdir = run.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)

    def work():
        if argv is not None:
            assert run.call_cli(argv)[0] == 0
        else:
            run.run_simulate(work_run, TINY[name], 0.0, False, workdir, None)

    tracer, wall = run.traced(work)
    metrics = tracer.layer_metrics(wall)
    layers = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert metrics["bench.self_s"] >= 0
    assert math.isclose(layers + metrics["bench.self_s"], wall, rel_tol=1e-9, abs_tol=1e-9)
    assert metrics["trace.spans"] > 0 and (tracer.self_times() >= -1e-9).all()


def test_uninstall_restores_originals():
    run.import_package()
    import metamargin.harness as harness
    import metamargin.learners as learners
    before = (harness.nearest_centroid_learn, learners.FeatureMap.apply_matrix,
              learners.FeatureMap.__dict__["apply_matrix"])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert harness.nearest_centroid_learn is not before[0]
    finally:
        tracer.uninstall()
    assert (harness.nearest_centroid_learn, learners.FeatureMap.apply_matrix,
            learners.FeatureMap.__dict__["apply_matrix"]) == before


def _tiny_csv() -> str:
    return (run.OUT / "simulate-centroid" / "results-run0.csv").read_text()


def test_checks_accept_a_real_csv(tiny_runs):
    rows, problems = checks.parse_results_csv(_tiny_csv())
    assert rows and not problems
    assert checks.check_results_rows(rows) == []


def test_checks_reject_nan_in_csv(tiny_runs):
    header, first, *rest = _tiny_csv().splitlines()
    fields = first.split(",")
    fields[2] = "nan"
    rows, problems = checks.parse_results_csv("\n".join([header, ",".join(fields), *rest]))
    assert any("non-finite" in p for p in problems)


def test_checks_reject_flipped_holds(tiny_runs):
    rows, _ = checks.parse_results_csv(_tiny_csv())
    rows[0]["holds_gaussian"] = 1.0 - rows[0]["holds_gaussian"]
    assert any("holds_gaussian" in p for p in checks.check_results_rows(rows))
    rows[0]["holds_gaussian"] = 1.0 - rows[0]["holds_gaussian"]
    rows[0]["vacuous_vc"] = 1.0 - rows[0]["vacuous_vc"]
    assert any("vacuous_vc" in p for p in checks.check_results_rows(rows))


def test_checks_reject_bad_header():
    _, problems = checks.parse_results_csv("trial,oops\n0,1\n")
    assert problems


@pytest.mark.parametrize("text", [
    '{"estimator": "gaussian", "mean": NaN, "std_error": 0.1}',
    '{"total": Infinity}',
    '{"total": -Infinity}',
])
def test_checks_reject_non_finite_cli_json(text):
    with pytest.raises(ValueError):
        checks.strict_json(text)


def test_cli_json_records_nan_output_as_a_problem():
    r = run.Run(workload="estimate-cli", seed=0)
    assert run.cli_json(r, ["bound", "--kind", "vc"], 0, '{"total": NaN}', "") is None
    assert r.problems


def test_recorded_values_compare():
    recorded = {"a.gaussian": {"mean": 1.0, "std_error": 0.1}, "a.cover@0.1": 7, "a.entropy": 0.5}
    good = {"a.gaussian": {"mean": 1.2, "std_error": 0.1}, "a.cover@0.1": 7, "a.entropy": 0.5}
    assert checks.check_recorded(good, recorded) == []
    bad = {"a.gaussian": {"mean": 1.5, "std_error": 0.1}, "a.cover@0.1": 8, "a.entropy": 0.5000001}
    assert len(checks.check_recorded(bad, recorded)) == 3


def test_shipped_seeds_have_recorded_values():
    expected = json.loads((run.BENCH_DIR / "expected.json").read_text())
    for name, spec in run.WORKLOADS.items():
        assert str(spec.seed) in expected[name]
