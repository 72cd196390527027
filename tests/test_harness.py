import csv
import hashlib
import json
import math
import tracemalloc
import weakref
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import ConstantScorer
from metamargin.cli import main
from metamargin.bounds import BoundInputs, gaussian_transfer_bound, covering_transfer_bound, \
    surrogate_multimargin_bound, vc_transfer_bound
from metamargin import core, harness
from metamargin.complexity import (
    ComplexityEstimate,
    build_pi1f_restriction,
    dudley_bound,
    entropy_integral,
    episode_restrictions,
    gaussian_complexity_mc,
    gaussian_complexity_rowspace,
    massart_bound,
)
from metamargin.core import (
    EnvironmentSpec,
    EpisodeBatch,
    SeedPolicy,
    sample_episode_batches,
    sample_kway_sshot_episode,
    sample_meta_sample,
    sample_task,
)
from metamargin.harness import (
    BOUND_KINDS,
    ExperimentConfig,
    FamilyGroup,
    FamilySpec,
    LearnerSpec,
    ResultRow,
    SweepRow,
    bound_holds,
    bound_validity_experiment,
    build_family,
    estimate_transfer_risk,
    make_base_learner,
    query_split_accuracy,
    sweep,
    write_result_rows,
)
from metamargin.learners import NumericError, make_feature_family, meta_erm_select, nearest_centroid_learn
from metamargin.losses import episode_losses, margin_terms

ENV = EnvironmentSpec(d_raw=8, k=3, prototype_scale=1.0, noise_sigma=1.0)
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def small_config(**overrides):
    base = dict(
        environment=ENV,
        family=FamilySpec(d=8, groups=(FamilyGroup("identity", 1), FamilyGroup("random_relu", 2))),
        learner=LearnerSpec(kind="nearest_centroid"),
        bound=BoundInputs(k=3, rho=1.0, delta=0.1, m=12, n=6, v=9, b=1.0),
        trials=3,
        test_points_per_task=20,
        outer_task_draws=4,
        outer_meta_draws=2,
        mc_draws=200,
        dudley_levels=6,
        test_episodes=12,
        episode_shape=(2, 2),
        seed=123,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def unsplit_config(m, n, trials):
    """configs/default.json with k=3, unsplit m-point episodes, 200 Monte
    Carlo draws and seed 5: a trial whose meta-sample has an episode that
    misses a class fails."""
    data = json.loads((CONFIGS / "default.json").read_text())
    data["environment"]["k"] = 3
    data["bound"].update(k=3, m=m, n=n)
    del data["episode_shape"]
    data.update(trials=trials, mc_draws=200, seed=5)
    return ExperimentConfig.from_json(data)


class TestEstimateTransferRisk:
    def test_point_mass_environment(self):
        env = EnvironmentSpec(d_raw=4, k=2, prototype_scale=10.0, noise_sigma=1e-12)
        phi = make_feature_family(4, 4, 1, "identity", 0).maps[0]
        learner = lambda ep, p: nearest_centroid_learn(ep, p, 1.0)
        est = estimate_transfer_risk(env, phi, learner, 0.3, 10, 20, 25, seed=1)
        assert est.risk < 0.01
        assert est.accuracy == 1.0

    def test_constant_scorer_gives_risk_one(self):
        phi = make_feature_family(8, 8, 1, "identity", 0).maps[0]
        learner = lambda batch, p: ConstantScorer(3, 0.0, b=1.0, episodes=batch.n)
        est = estimate_transfer_risk(ENV, phi, learner, 1.0, 12, 5, 10, seed=2)
        assert est.risk == 1.0

    def test_se_scaling(self):
        # quadrupling the test points halves the pooled SE, within 30%
        phi = make_feature_family(8, 8, 1, "identity", 0).maps[0]
        learner = lambda ep, p: nearest_centroid_learn(ep, p, 1.0)
        small = estimate_transfer_risk(ENV, phi, learner, 1.0, 12, 30, 50, seed=3)
        big = estimate_transfer_risk(ENV, phi, learner, 1.0, 12, 30, 200, seed=4)
        ratio = big.std_error / small.std_error
        assert 0.35 <= ratio <= 0.65

    def test_deterministic(self):
        phi = make_feature_family(8, 8, 1, "identity", 0).maps[0]
        learner = lambda ep, p: nearest_centroid_learn(ep, p, 1.0)
        a = estimate_transfer_risk(ENV, phi, learner, 1.0, 12, 5, 10, seed=9)
        b = estimate_transfer_risk(ENV, phi, learner, 1.0, 12, 5, 10, seed=9)
        assert a == b

    def test_failed_draws_counted(self):
        phi = make_feature_family(8, 8, 1, "identity", 0).maps[0]

        def flaky(batch, p):
            # every third draw fails to fit
            scorer = nearest_centroid_learn(batch, p, 1.0)
            scorer.failed = scorer.failed | (np.arange(batch.n) % 3 == 2)
            return scorer

        est = estimate_transfer_risk(ENV, phi, flaky, 1.0, 12, 9, 10, seed=5)
        assert est.failures == 3
        # a failed draw counts as ramp loss 1 and a miss on every test point
        train, test = sample_episode_batches(ENV, 9, 5, [(12, None), (10, None)])
        scores = nearest_centroid_learn(train, phi, 1.0).scores_matrix(test.xs)
        losses = np.clip(1.0 - margin_terms(scores, test.ys, 1.0)[0], 0.0, 1.0)
        hits = scores.argmax(axis=-1) + 1 == test.ys
        losses[2::3], hits[2::3] = 1.0, False
        assert est.risk == pytest.approx(losses.mean(), abs=1e-12)
        assert est.std_error == pytest.approx(losses.std(ddof=1) / np.sqrt(losses.size), abs=1e-12)
        assert est.accuracy == pytest.approx(hits.mean(), abs=1e-12)


class TestBoundValidity:
    def test_single_trial(self):
        rows, summary = bound_validity_experiment(small_config(trials=1))
        assert len(rows) == 1
        assert summary["hold_freq_vc"] in (0.0, 1.0)

    def test_bound_kinds_name_the_columns_and_summary_keys(self, monkeypatch):
        names = [f.name for f in fields(ResultRow)]
        assert [n for n in names if n.startswith("bound_")] == [f"bound_{kind}" for kind in BOUND_KINDS]
        assert [n for n in names if n.startswith("holds_")] == [f"holds_{kind}" for kind in BOUND_KINDS]
        sweep_names = [f.name for f in fields(SweepRow)]
        assert [n for n in sweep_names if n.startswith("mean_bound_")] == [f"mean_bound_{kind}" for kind in BOUND_KINDS]
        assert [n for n in sweep_names if n.startswith("hold_freq_")] == [f"hold_freq_{kind}" for kind in BOUND_KINDS]
        # every bound of this config is vacuous; make one trial's Gaussian bound not
        totals = iter([0.5, 2.0])
        gaussian = harness.gaussian_transfer_bound
        monkeypatch.setattr(harness, "gaussian_transfer_bound",
                            lambda *args: replace(gaussian(*args), total=next(totals)))
        rows, summary = bound_validity_experiment(small_config(trials=2))
        assert list(summary) == [
            "trials", "failed_trials", "failed_by_reason", "failed_outer_draws_task",
            "failed_outer_draws_meta", "expected_complexities",
            *(name for kind in BOUND_KINDS for name in (
                f"hold_freq_{kind}", f"hold_freq_{kind}_attempted", f"mean_bound_{kind}", f"vacuous_freq_{kind}")),
            "mean_avg_empirical_loss", "mean_transfer_risk",
            "mean_test_accuracy", "test_accuracy_se",
        ]
        for kind in BOUND_KINDS:
            bounds = [getattr(r, f"bound_{kind}") for r in rows]
            assert summary[f"vacuous_freq_{kind}"] == np.mean([b >= 1.0 for b in bounds])
        assert summary["vacuous_freq_gaussian"] == 0.5 and summary["vacuous_freq_vc"] == 1.0

    def test_row_flag_consistency(self):
        rows, _ = bound_validity_experiment(small_config())
        for row in rows:
            for kind in ("vc", "gaussian", "covering", "surrogate"):
                expected = bound_holds(row.transfer_risk, row.transfer_risk_se,
                                       getattr(row, f"bound_{kind}"))
                assert getattr(row, f"holds_{kind}") == expected
            assert row.vacuous_vc == (row.bound_vc >= 1.0)

    def test_elapsed_zero_without_timing(self):
        rows, _ = bound_validity_experiment(small_config())
        assert all(row.elapsed_ms == 0.0 for row in rows)

    def test_elapsed_recorded_when_enabled(self):
        rows, _ = bound_validity_experiment(small_config(trials=1, record_timing=True))
        assert rows[0].elapsed_ms > 0.0

    def test_workers_do_not_change_results(self):
        rows1, _ = bound_validity_experiment(small_config())
        rows3, _ = bound_validity_experiment(small_config(workers=3))
        assert rows1 == rows3

    def test_failed_trials_counted_by_reason(self, tmp_path):
        rows, summary = bound_validity_experiment(unsplit_config(m=8, n=3, trials=6))
        assert summary["failed_trials"] == 3 and summary["failed_by_reason"] == {"NumericError": 3}
        path = str(tmp_path / "rows.csv")
        write_result_rows(rows, path)
        lines = Path(path).read_text().splitlines()
        assert lines[0] == ",".join(f.name for f in fields(ResultRow))
        assert len(lines) == 1 + 3  # the reasons stay out of the CSV
        for kind in BOUND_KINDS:
            held = sum(getattr(r, f"holds_{kind}") for r in rows)
            assert summary[f"hold_freq_{kind}"] == held / 3
            assert summary[f"hold_freq_{kind}_attempted"] == held / 6  # a failed trial does not hold
        _, clean = bound_validity_experiment(small_config())
        assert clean["failed_trials"] == 0 and clean["failed_by_reason"] == {}
        for kind in BOUND_KINDS:
            assert clean[f"hold_freq_{kind}_attempted"] == clean[f"hold_freq_{kind}"]

    def test_failed_outer_draws_match_a_recount(self):
        # i.i.d. 8-point episodes of 3 classes: a nearest-centroid fit fails
        # on a task draw that misses a class, and on a meta draw of which any
        # episode does. The recount redraws set-up's samples from its seeds.
        config = replace(unsplit_config(m=8, n=3, trials=3), seed=8)
        env, bound = config.environment, config.bound
        setup = SeedPolicy(SeedPolicy(config.seed).child(2))
        missing = lambda ys: len(np.unique(ys)) < env.k
        tasks = sample_meta_sample(env, config.outer_task_draws, bound.m, setup.child(0))
        task_failed = sum(map(missing, tasks.ys))
        meta_root = SeedPolicy(setup.child(1))
        meta_failed = sum(any(map(missing, sample_meta_sample(
            env, bound.n, bound.m, SeedPolicy(meta_root.child(j)).child(0)).ys))
            for j in range(config.outer_meta_draws))
        assert 0 < task_failed < config.outer_task_draws and 0 < meta_failed < config.outer_meta_draws
        _, summary = bound_validity_experiment(config)
        assert summary["failed_outer_draws_task"] == {"NumericError": task_failed}
        assert summary["failed_outer_draws_meta"] == {"NumericError": meta_failed}
        _, clean = bound_validity_experiment(small_config())
        assert clean["failed_outer_draws_task"] == {} and clean["failed_outer_draws_meta"] == {}

    def test_summary_reports_gaussian_standard_errors(self, monkeypatch):
        def run_with(std_errors, outer_meta_draws=2):
            """The experiment with each outer draw's Gaussian standard error
            taken in turn from std_errors: 4 task draws, then the meta draws."""
            errors = iter(std_errors)
            monkeypatch.setattr(harness, "gaussian_complexity_rowspace", lambda A, draws, seed:
                                ComplexityEstimate(mean=0.01, std_error=next(errors), draws=draws))
            return bound_validity_experiment(small_config(outer_meta_draws=outer_meta_draws))

        rows, summary = run_with([0.1, 0.2, 0.2, 0.4, 0.3, 0.4])
        expected = summary["expected_complexities"]
        assert expected["gamma_task_mc_se"] == pytest.approx(math.sqrt(0.01 + 0.04 + 0.04 + 0.16) / 4)
        assert expected["gamma_meta_mc_se"] == pytest.approx(math.sqrt(0.09 + 0.16) / 2)
        assert expected["gamma_task"] == pytest.approx(0.01) and expected["gamma_meta"] == pytest.approx(0.01)
        # equal per-draw means have no spread, whatever their Monte Carlo errors
        assert expected["gamma_task_se"] == expected["gamma_meta_se"] == 0.0
        # one meta draw has no spread to measure: its SE is the Monte Carlo one
        one = run_with([0.1, 0.2, 0.2, 0.4, 0.3], outer_meta_draws=1)[1]["expected_complexities"]
        assert one["gamma_meta_se"] == one["gamma_meta_mc_se"] == pytest.approx(0.3)
        assert one["entropy_meta_se"] == 0.0
        # reported only: no bound and no row depends on them
        assert run_with([0.0] * 6)[0] == rows

    def test_summary_standard_errors_are_the_spread_of_the_draws(self, monkeypatch):
        # a recount from each outer draw's Gaussian mean and entropy integral:
        # 4 task draws, then 2 meta draws
        gammas, entropies = [], []
        rowspace, integral = harness.gaussian_complexity_rowspace, harness.entropy_integral
        def record(values, f):
            def wrapped(*args):
                out = f(*args)
                values.append(max(0.0, out.mean) if isinstance(out, ComplexityEstimate) else out)
                return out
            return wrapped
        monkeypatch.setattr(harness, "gaussian_complexity_rowspace", record(gammas, rowspace))
        monkeypatch.setattr(harness, "entropy_integral", record(entropies, integral))
        expected = bound_validity_experiment(small_config())[1]["expected_complexities"]
        assert len(gammas) == len(entropies) == 6
        for name, draws in (("task", slice(0, 4)), ("meta", slice(4, 6))):
            for kind, values in (("gamma", gammas), ("entropy", entropies)):
                v = np.array(values[draws])
                assert expected[f"{kind}_{name}"] == sum(values[draws]) / v.size
                assert expected[f"{kind}_{name}_se"] == pytest.approx(
                    v.std(ddof=1) / math.sqrt(v.size), rel=1e-12, abs=1e-12)
                assert expected[f"{kind}_{name}_se"] > 0


class TestResultCsv:
    CASTS = {"int": int, "float": float, "bool": lambda cell: bool(int(cell)), "str": str,
             "Optional[float]": lambda cell: float(cell) if cell else None}

    @pytest.mark.parametrize("row_type", [ResultRow, SweepRow], ids=lambda t: t.__name__)
    def test_roundtrip_is_lossless(self, tmp_path, row_type):
        if row_type is ResultRow:
            rows, _ = bound_validity_experiment(small_config())
        else:  # an error row (empty metric cells, a comma in its text) and an ok row
            rows = sweep(small_config(), "n", [0, 6])
            assert [r.status for r in rows] == ["error", "ok"] and "," in rows[0].error
        path = str(tmp_path / "rows.csv")
        write_result_rows(rows, path, row_type)
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            assert next(reader) == [f.name for f in fields(row_type)]
            casts = [self.CASTS[f.type] for f in fields(row_type)]
            parsed = [row_type(*(cast(cell) for cast, cell in zip(casts, line))) for line in reader]
        assert len(parsed) == len(rows)
        second = str(tmp_path / "rows2.csv")
        write_result_rows(parsed, second, row_type)
        assert Path(path).read_bytes() == Path(second).read_bytes()

    def test_header_matches_contract(self, tmp_path):
        path = str(tmp_path / "rows.csv")
        write_result_rows([], path)
        expected = (
            "trial,avg_empirical_loss,transfer_risk,transfer_risk_se,"
            "bound_vc,bound_gaussian,bound_covering,bound_surrogate,"
            "holds_vc,holds_gaussian,holds_covering,holds_surrogate,"
            "test_accuracy,vacuous_vc,elapsed_ms"
        )
        assert Path(path).read_text() == expected + "\n"

    def test_sweep_header_matches_contract(self, tmp_path):
        path = str(tmp_path / "sweep.csv")
        write_result_rows([], path, SweepRow)
        expected = (
            "axis,value,status,trials,mean_test_accuracy,test_accuracy_se,"
            "mean_avg_empirical_loss,mean_bound_vc,mean_bound_gaussian,"
            "mean_bound_covering,mean_bound_surrogate,hold_freq_vc,"
            "hold_freq_gaussian,hold_freq_covering,hold_freq_surrogate,error"
        )
        assert Path(path).read_text() == expected + "\n"


    def test_default_run_csv_is_pinned(self, tmp_path):
        # Golden output: the results CSV of configs/default.json at 3 trials,
        # seed 20240801 and no timing, by sha256, as the code gave it
        # before this test was added. A change that moves the digest must
        # explain every moved cell.
        config = ExperimentConfig.from_json(json.loads((CONFIGS / "default.json").read_text()))
        rows, _ = bound_validity_experiment(replace(config, trials=3, record_timing=False, seed=20240801))
        path = tmp_path / "results.csv"
        write_result_rows(rows, str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "689ef1d984e14610b59db8045aab8b6ad0fffca8f565240b8d3e45f6cded8821"

    def test_sweep_csv_is_pinned(self, tmp_path, capsys):
        # Golden output: the sweep CSV of configs/sweep.json over n = 50 and
        # 500, by sha256 (md5 e17a55ed...), as the code gave it when its rows
        # were still dicts written cell by cell. Run through the CLI, so the
        # pin covers the command's sweep and writer calls as shipped.
        path = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(CONFIGS / "sweep.json"), "--axis", "n",
                     "--values", "50,500", "--output", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["statuses"] == ["ok", "ok"]
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "4f87b7ba676da9e768b55a187b823533b1a371ce2b4f772454a11896acd647a9"


class TestSweep:
    def test_single_value_matches_validity_experiment(self):
        config = small_config()
        rows = sweep(config, "n", [6])
        _, summary = bound_validity_experiment(config)
        assert rows[0].status == "ok"
        assert rows[0].mean_test_accuracy == summary["mean_test_accuracy"]
        assert rows[0].hold_freq_vc == summary["hold_freq_vc"]
        assert rows[0].mean_bound_vc == summary["mean_bound_vc"]

    def test_invalid_value_marks_error_and_continues(self):
        rows = sweep(small_config(), "n", [0, 6])
        assert rows[0].status == "error" and rows[1].status == "ok"

    def test_axis_m_requires_unsplit(self):
        rows = sweep(small_config(), "m", [12])
        assert rows[0].status == "error"

    def test_axis_s_updates_m(self):
        rows = sweep(small_config(trials=1), "s", [3])
        assert rows[0].status == "ok"

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError):
            sweep(small_config(), "delta", [0.1])

    def test_value_where_every_trial_fails_is_an_error(self, tmp_path):
        rows = sweep(unsplit_config(m=4, n=50, trials=3), "n", [3])
        assert rows[0].status == "error"
        assert rows[0].error == "all 3 trials failed (NumericError: 3)"
        path = str(tmp_path / "sweep.csv")
        write_result_rows(rows, path, SweepRow)
        line = Path(path).read_bytes().decode().split("\n")[1]
        assert line == "n,3,error,0" + "," * 12 + "all 3 trials failed (NumericError: 3)"

    def test_error_text_stays_on_one_row(self, tmp_path):
        path = str(tmp_path / "sweep.csv")
        write_result_rows([SweepRow("n", 0, "error", error="a\nb,c\r\nd")], path, SweepRow)
        lines = Path(path).read_bytes().decode().split("\n")
        header = [f.name for f in fields(SweepRow)]
        assert lines[0] == ",".join(header) and lines[2:] == [""]
        cells = lines[1].split(",")
        assert len(cells) == len(header) and cells[-1] == "a b;c  d"


class TestPairedBoundInequalities:
    """Bound-vs-bound inequalities on simulated instances."""

    LEARNER = staticmethod(lambda ep, p: nearest_centroid_learn(ep, p, 1.0))

    def test_surrogate_dominates_vc_on_simulated_meta_samples(self):
        fam = make_feature_family(8, 8, 1, "identity", 0)
        inputs = BoundInputs(k=3, rho=1.0, delta=0.1, m=15, n=4, v=9, b=1.0)
        for seed in range(50):
            meta = sample_meta_sample(ENV, 4, 15, seed, shape=(2, 3))
            chosen = meta_erm_select(meta, fam, self.LEARNER, 1.0).chosen
            margin_avg = multi_avg = 0.0
            for l in range(meta.n):
                ep = EpisodeBatch(meta.xs[l:l + 1], meta.ys[l:l + 1], meta.k, meta.shape)
                margin, multi = episode_losses(self.LEARNER(ep, chosen).scores_matrix(ep.xs), ep.ys, 1.0)
                margin_avg += margin[0]
                multi_avg += multi[0]
            margin_avg /= meta.n
            multi_avg /= meta.n
            assert (surrogate_multimargin_bound(inputs, multi_avg).total
                    >= vc_transfer_bound(inputs, margin_avg).total)

    def test_covering_dominates_gaussian_from_same_matrices(self):
        fam = make_feature_family(8, 6, 2, "random_linear", 1)
        inputs = BoundInputs(k=3, rho=1.0, delta=0.1, m=15, n=4, v=7, b=1.0)
        for seed in range(50):
            meta = sample_meta_sample(ENV, 4, 15, seed, shape=(2, 3))
            episode = sample_kway_sshot_episode(sample_task(ENV, seed + 900), 3, 2, 3, seed)
            A_meta = build_pi1f_restriction(meta, fam, self.LEARNER, 3)
            A_task = build_pi1f_restriction(episode, fam, self.LEARNER, 3)
            gamma_meta = max(0.0, gaussian_complexity_mc(A_meta, 400, seed).mean)
            gamma_task = max(0.0, gaussian_complexity_mc(A_task, 400, seed + 1).mean)
            ent_meta = entropy_integral(A_meta, 12)
            ent_task = entropy_integral(A_task, 12)
            g = gaussian_transfer_bound(inputs, 0.2, gamma_meta, gamma_task)
            c = covering_transfer_bound(inputs, 0.2, ent_meta, ent_task)
            assert c.total >= g.total

    def test_gaussian_means_within_massart_and_dudley_on_run_restrictions(self, monkeypatch):
        # Every restriction a default run builds, from episode_restrictions
        # (task level) and build_pi1f_restriction (meta level), goes through
        # gaussian_complexity_rowspace once: its Monte Carlo mean may exceed the
        # Massart and Dudley upper bounds by at most 4 standard errors.
        seen = []

        def recording(A, draws, seed):
            estimate = gaussian_complexity_rowspace(A, draws, seed)
            seen.append((A, estimate))
            return estimate

        monkeypatch.setattr(harness, "gaussian_complexity_rowspace", recording)
        config = ExperimentConfig.from_json(json.loads((CONFIGS / "default.json").read_text()))
        bound_validity_experiment(replace(config, trials=1))
        assert len(seen) == config.outer_task_draws + config.outer_meta_draws
        for A, estimate in seen:
            slack = 4.0 * estimate.std_error
            assert estimate.mean <= massart_bound(A) + slack
            assert estimate.mean <= dudley_bound(A, config.dudley_levels) + slack


@pytest.mark.parametrize("make_config, failed_meta", [
    (lambda: small_config(outer_meta_draws=3), {}),
    (lambda: replace(unsplit_config(m=8, n=3, trials=1), seed=8), {"NumericError": 1}),
], ids=["fitted", "failed-fits"])
def test_set_up_holds_one_outer_draw_at_a_time(monkeypatch, make_config, failed_meta):
    # Set-up reduces each outer draw where it is drawn. When a meta-sample
    # is drawn or its restriction built, no earlier draw is alive: not an
    # earlier meta-sample (a failed fit's error keeps no traceback to it) or
    # restriction, and not the task level's batch or any of its per-episode
    # restrictions.
    draws, alive_at_sample, alive_at_build = [], [], []
    alive = lambda: sum(ref() is not None for ref in draws)

    def sample(*args):
        alive_at_sample.append(alive())
        batch = sample_meta_sample(*args)
        draws.append(weakref.ref(batch))
        return batch

    def task_restrictions(*args):
        out = episode_restrictions(*args)
        draws.extend(weakref.ref(A) for A in out if not isinstance(A, NumericError))
        return out

    def restriction(*args):
        alive_at_build.append(alive())
        A = build_pi1f_restriction(*args)
        draws.append(weakref.ref(A))
        return A

    monkeypatch.setattr(harness, "sample_meta_sample", sample)
    monkeypatch.setattr(harness, "episode_restrictions", task_restrictions)
    monkeypatch.setattr(harness, "build_pi1f_restriction", restriction)
    config = make_config()
    _, summary = bound_validity_experiment(config)
    # the task level's batch, then the meta-samples; each meta-sample is
    # alive (and only it) while its restriction is built
    assert alive_at_sample[:1 + config.outer_meta_draws] == [0] * (1 + config.outer_meta_draws)
    assert alive_at_build == [1] * config.outer_meta_draws
    assert summary["failed_outer_draws_meta"] == failed_meta


@pytest.mark.parametrize("evaluator", ["transfer_risk", "query_split"])
def test_fresh_episode_evaluators_hold_one_block(monkeypatch, evaluator):
    # When a block's tasks are drawn, the inputs of every earlier block
    # are dead: neither the evaluator nor its consumer keeps them.
    inputs, alive = [], []
    blocks, draw_tasks = harness._episode_blocks, core._draw_tasks

    def record(batches):
        inputs.extend(weakref.ref(batch.xs) for batch in batches)
        return batches

    def tasks(*args):
        alive.append(sum(ref() is not None for ref in inputs))
        return draw_tasks(*args)

    # a map, unlike a wrapping generator, holds no block between two draws
    monkeypatch.setattr(harness, "_episode_blocks", lambda *args: map(record, blocks(*args)))
    monkeypatch.setattr(core, "_draw_tasks", tasks)
    monkeypatch.setattr(harness, "_QUERY_BLOCK_VALUES", 1)  # one unit per block
    phi = make_feature_family(8, 8, 1, "identity", 0).maps[0]
    learner = lambda ep, p: nearest_centroid_learn(ep, p, 1.0)
    if evaluator == "transfer_risk":
        estimate_transfer_risk(ENV, phi, learner, 1.0, 12, 5, 10, 3, (2, 2))
    else:
        query_split_accuracy(ENV, phi, learner, (2, 2), 5, 3)
    assert alive == [0] * 5


def _config_without_shape():
    # no episode_shape
    return small_config(
        family=FamilySpec(d=8, groups=(FamilyGroup("random_linear", 2), FamilyGroup("identity", 1))),
        episode_shape=None,
    )


class TestConfig:
    @pytest.mark.parametrize("make", [
        lambda: ExperimentConfig.from_json(json.loads((CONFIGS / "default.json").read_text())),
        lambda: ExperimentConfig.from_json(json.loads((CONFIGS / "sweep.json").read_text())),
        _config_without_shape,
    ], ids=["default.json", "sweep.json", "unsplit"])
    def test_json_roundtrip(self, make):
        config = make()
        assert ExperimentConfig.from_json(asdict(config)) == config
        assert ExperimentConfig.from_json(json.loads(json.dumps(asdict(config)))) == config

    def test_k_mismatch_rejected(self):
        with pytest.raises(ValueError):
            small_config(bound=BoundInputs(k=4, rho=1.0, delta=0.1, m=12, n=6, v=9, b=1.0))

    def test_shape_m_consistency_enforced(self):
        with pytest.raises(ValueError):
            small_config(episode_shape=(2, 3))  # k*(s+q)=15 != m=12

    def test_build_family_ids_distinct_across_groups(self):
        spec = FamilySpec(d=4, groups=(FamilyGroup("random_linear", 2),
                                       FamilyGroup("random_linear", 1)))
        fam = build_family(spec, 8, 7)
        assert [m.d for m in fam.maps] == [4, 4, 4]
        assert len({m.id for m in fam.maps}) == 3


def test_query_split_accuracy_perfect_on_separated_env():
    env = EnvironmentSpec(d_raw=4, k=2, prototype_scale=20.0, noise_sigma=1e-6)
    phi = make_feature_family(4, 4, 1, "identity", 0).maps[0]
    learner = lambda ep, p: nearest_centroid_learn(ep, p, 1.0)
    acc, se = query_split_accuracy(env, phi, learner, (2, 3), 20, seed=3)
    assert acc == 1.0 and se == 0.0


def test_query_split_accuracy_needs_an_episode():
    # a loop over zero blocks would return a NaN mean
    phi = make_feature_family(8, 8, 1, "identity", 0).maps[0]
    learner = lambda ep, p: nearest_centroid_learn(ep, p, 1.0)
    with pytest.raises(ValueError):
        query_split_accuracy(ENV, phi, learner, (2, 3), 0, seed=3)


@pytest.mark.parametrize("kind", ["identity", "random_relu"])
def test_query_split_accuracy_does_not_depend_on_block_size(monkeypatch, kind):
    phi = make_feature_family(8, 8, 1, kind, 4).maps[0]
    learner = lambda ep, p: nearest_centroid_learn(ep, p, 1.0)
    values_per_episode = 15 * ENV.d_raw  # m = k*(s+q) = 15
    results = []
    for block in (1, 7, 23, 40):
        monkeypatch.setattr(harness, "_QUERY_BLOCK_VALUES", block * values_per_episode)
        results.append(query_split_accuracy(ENV, phi, learner, (2, 3), 23, seed=9))
    assert results[1:] == results[:-1]


def test_query_split_peak_memory_does_not_grow_with_episodes():
    config = ExperimentConfig.from_json(json.loads((CONFIGS / "default.json").read_text()))
    env = config.environment
    phi = build_family(config.family, env.d_raw, 0).maps[1]
    learner = make_base_learner(config.learner, config.bound.rho, config.bound.b)

    def peak(episodes):
        tracemalloc.start()
        try:
            query_split_accuracy(env, phi, learner, config.episode_shape, episodes, 5)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2000) <= 1.5 * peak(200)


@pytest.mark.parametrize("shape, m", [((2, 3), 20), (None, 6)], ids=["shaped", "unsplit"])
def test_transfer_risk_does_not_depend_on_block_size(monkeypatch, shape, m):
    # unsplit, six i.i.d. draws over four classes miss one in 17 of the 30
    # draws, so failed centroid fits fall on both sides of the block edges
    env = EnvironmentSpec(d_raw=8, k=4, prototype_scale=1.0, noise_sigma=1.0)
    phi = make_feature_family(8, 8, 1, "identity", 0).maps[0]
    learner = lambda ep, p: nearest_centroid_learn(ep, p, 1.0)
    values_per_draw = (m + 25) * env.d_raw  # training episode plus 25 test points
    results = []
    for block in (1, 4, 9, 40):
        monkeypatch.setattr(harness, "_QUERY_BLOCK_VALUES", block * values_per_draw)
        results.append(estimate_transfer_risk(env, phi, learner, 1.0, m, 30, 25, 31, shape))
    assert results[1:] == results[:-1]
    assert (results[0].failures > 0) == (shape is None)


def test_transfer_risk_peak_memory_does_not_grow_with_draws():
    env = EnvironmentSpec(d_raw=8, k=4, prototype_scale=1.0, noise_sigma=1.0)
    phi = make_feature_family(8, 8, 1, "identity", 0).maps[0]
    learner = lambda ep, p: nearest_centroid_learn(ep, p, 1.0)

    def peak(draws):
        tracemalloc.start()
        try:
            estimate_transfer_risk(env, phi, learner, 1.0, 100, draws, 40, 5, (5, 20))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2000) <= 1.5 * peak(200)


def test_make_base_learner_kinds():
    for kind in ("nearest_centroid", "linear_multimargin", "linear_softmax"):
        learner = make_base_learner(LearnerSpec(kind=kind, steps=3), 1.0, 1.0)
        (episode,) = sample_episode_batches(ENV, 1, 0, [(12, None)])
        scorer = learner(episode, make_feature_family(8, 8, 1, "identity", 0).maps[0])[0]
        assert np.abs(scorer.scores_matrix(np.zeros((1, 8)))).max() <= 1.0
