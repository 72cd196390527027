import copy
import csv
import functools
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from metamargin.bounds import BOUND_KINDS
from metamargin.cli import main
from metamargin.complexity import FunctionValueMatrix
from metamargin.harness import SWEEP_AXES, ExperimentConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

CONFIG = {
    "environment": {"d_raw": 8, "k": 3, "prototype_scale": 1.0, "noise_sigma": 1.0,
                    "balanced": True},
    "family": {"d": 8, "groups": [{"kind": "identity", "count": 1},
                                  {"kind": "random_relu", "count": 2}]},
    "learner": {"kind": "nearest_centroid"},
    "bound": {"k": 3, "rho": 1.0, "delta": 0.1, "m": 12, "n": 6, "v": 9, "b": 1.0},
    "episode_shape": {"s": 2, "q": 2},
    "trials": 2,
    "test_points_per_task": 10,
    "outer_task_draws": 3,
    "outer_meta_draws": 1,
    "mc_draws": 100,
    "dudley_levels": 5,
    "test_episodes": 8,
    "seed": 11,
}


def write_config(tmp_path, **overrides):
    data = {**CONFIG, **overrides}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestBoundCommand:
    def test_vc_bound_json(self, capsys):
        code = main(["bound", "--k", "5", "--rho", "1", "--m", "100", "--n", "50",
                     "--v", "17", "--b", "1", "--delta", "0.1", "--avg-loss", "0.1"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "vc"
        assert payload["total"] == pytest.approx(
            payload["empirical_term"] + payload["confidence_term"] + payload["complexity_term"])

    def test_missing_required_flag_exits_2(self, capsys):
        # the parser's error alone, without argparse's usage text
        for argv, missing in [(["bound", "--k", "5"], "--rho, --n, --v, --b"), (["simulate"], "--config")]:
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: the following arguments are required: {missing}\n"

    def test_invalid_value_exits_2(self, capsys):
        code = main(["bound", "--k", "1", "--rho", "1", "--m", "10", "--n", "10",
                     "--v", "1", "--b", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error" in err and err.count("\n") == 1
        # argparse reads "-inf" as a flag, so --m has no value
        assert main(["bound", "--k", "5", "--rho", "1", "--n", "50", "--v", "17", "--b", "1", "--m", "-inf"]) == 2
        assert capsys.readouterr().err == "error: argument --m: expected one argument\n"

    @pytest.mark.parametrize("flag", ["--k", "--m", "--n", "--v"])
    def test_integer_beyond_float_range_exits_2(self, capsys, flag):
        # a 401-digit integer is valid to argparse but has no float value
        args = {"--k": "5", "--m": "100", "--n": "50", "--v": "17", flag: "1" + "0" * 400}
        assert main(["bound", "--rho", "1", "--b", "1", *(x for pair in args.items() for x in pair)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_gaussian_kind(self, capsys):
        code = main(["bound", "--kind", "gaussian", "--k", "5", "--rho", "1", "--m", "100",
                     "--n", "50", "--v", "17", "--b", "1", "--gamma-meta", "0.01",
                     "--gamma-task", "0.05"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "gaussian"

    def test_kway_sshot_kind(self, capsys):
        code = main(["bound", "--kind", "kway_sshot", "--k", "5", "--rho", "1",
                     "--n", "50", "--v", "17", "--b", "1", "--s", "5", "--q", "15"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m"] == 100 and payload["complexity_term"] > 0

    @pytest.mark.parametrize("kind_args", [
        ["--kind", "vc", "--m", "100"],
        ["--kind", "kway_sshot", "--s", "5", "--q", "15"],
    ])
    def test_c0_defaults_to_e(self, capsys, kind_args):
        def run(*c0_args):
            argv = ["bound", *kind_args, "--k", "5", "--rho", "1", "--n", "50", "--v", "17", "--b", "1"]
            assert main(argv + list(c0_args)) == 0
            return capsys.readouterr().out

        default = run()
        assert default == run("--c0", "2.718281828459045")
        assert default != run("--c0", "4")

    def test_avg_loss_is_read_by_each_kind_as_its_own_loss(self, capsys):
        # surrogate reads --avg-loss as a multi-margin loss (>= 0), the other kinds as a ramp loss in [0, 1]
        argv = ["bound", "--k", "5", "--rho", "1", "--m", "100", "--n", "50", "--v", "17", "--b", "1",
                "--avg-loss", "1.5"]
        assert main(argv + ["--kind", "surrogate"]) == 0
        assert json.loads(capsys.readouterr().out)["empirical_term"] == (5 - 1) * 1.5
        for kind in ("vc", "gaussian", "covering"):
            assert main(argv + ["--kind", kind]) == 2
            assert capsys.readouterr() == ("", "error: average empirical margin loss must lie in [0, 1]\n")

    def test_an_overflowing_bound_exits_3(self, capsys):
        # rho = 1e-300 and b = 1e300 overflow the complexity term; no JSON Infinity is printed
        assert main(["bound", "--k", "5", "--rho", "1e-300", "--m", "100", "--n", "50", "--v", "17",
                     "--b", "1e300"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("numeric failure: non-finite value in output") and err.count("\n") == 1


class TestEstimateCommand:
    def test_gaussian_estimator(self, tmp_path, capsys):
        path = str(tmp_path / "matrix.csv")
        FunctionValueMatrix(values=np.array([[1.0, 0.0], [0.0, 1.0]]), b=1.0).to_csv(path)
        code = main(["estimate", "--input", path, "--estimator", "gaussian",
                     "--draws", "5000", "--seed", "3"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["mean"] - 0.5642) < 4 * payload["std_error"] + 0.02

    def test_massart_estimator(self, tmp_path, capsys):
        path = str(tmp_path / "matrix.csv")
        FunctionValueMatrix(values=np.array([[1.0, 0.0], [0.0, 1.0]]), b=1.0).to_csv(path)
        assert main(["estimate", "--input", path, "--estimator", "massart"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(0.8325546, abs=1e-6)

    def test_cover_requires_eps(self, tmp_path, capsys):
        path = str(tmp_path / "matrix.csv")
        FunctionValueMatrix(values=np.ones((2, 2)), b=1.0).to_csv(path)
        assert main(["estimate", "--input", path, "--estimator", "cover"]) == 2

    def test_a_second_call_on_a_file_skips_the_parse(self, tmp_path, capsys, monkeypatch):
        path = str(tmp_path / "matrix.csv")
        FunctionValueMatrix(values=np.array([[1.0, -0.0], [0.5, 1e-320]]), b=1.0,
                            labels=("a,b", "q\"\n\x00")).to_csv(path)
        argv = ["estimate", "--input", path, "--estimator", "gaussian", "--draws", "50"]
        assert main(argv) == 0
        first = capsys.readouterr().out

        def parse(*args, **kwargs):
            raise AssertionError("the CSV was parsed again")

        monkeypatch.setattr(np, "loadtxt", parse)
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_missing_file_exits_2(self, capsys):
        assert main(["estimate", "--input", "/nonexistent.csv", "--estimator", "massart"]) == 2

    @pytest.mark.parametrize("estimator", ["entropy", "dudley"])
    def test_levels_past_1074_end(self, tmp_path, capsys, estimator):
        # a 401-digit --levels is computed as 1074 levels, since later ones add nothing
        path = str(tmp_path / "matrix.csv")
        FunctionValueMatrix(values=np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]), b=1.0).to_csv(path)
        values = []
        for levels in (1074, 10 ** 400):
            assert main(["estimate", "--input", path, "--estimator", estimator, "--levels", str(levels)]) == 0
            values.append(json.loads(capsys.readouterr().out)["value"])
        assert values[0] == values[1] > 0

    @pytest.mark.parametrize("estimator", ["gaussian", "rademacher"])
    def test_draws_beyond_memory_exit_2(self, tmp_path, capsys, estimator):
        # 10**15 draws ask for an 8 PB array of sups, which fails before any
        # page is touched, even where memory is overcommitted
        path = str(tmp_path / "matrix.csv")
        FunctionValueMatrix(values=np.array([[1.0, 0.0], [0.0, 1.0]]), b=1.0).to_csv(path)
        code = main(["estimate", "--input", path, "--estimator", estimator, "--draws", str(10 ** 15)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1


class TestSimulateCommand:
    def test_runs_and_writes_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "results.csv")
        assert main(["simulate", "--config", cfg, "--output", out]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["trials"] == 2
        lines = Path(out).read_text().splitlines()
        assert len(lines) == 3  # header + 2 trials

    def test_byte_identical_across_worker_counts(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["simulate", "--config", cfg, "--output", out1, "--workers", "1"]) == 0
        assert main(["simulate", "--config", cfg, "--output", out2, "--workers", "3"]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_seed_flag_changes_results(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["simulate", "--config", cfg, "--output", out1]) == 0
        assert main(["simulate", "--config", cfg, "--output", out2, "--seed", "999"]) == 0
        assert Path(out1).read_bytes() != Path(out2).read_bytes()

    def test_env_seed_is_ignored(self, tmp_path, capsys, monkeypatch):
        # METAMARGIN_SEED is not a seed source: a seedless config and a
        # seedless estimate give the same output with it set or unset
        path = tmp_path / "config.json"
        path.write_text(json.dumps({k: v for k, v in CONFIG.items() if k != "seed"}))
        matrix = str(tmp_path / "matrix.csv")
        FunctionValueMatrix(values=np.array([[1.0, 0.0], [0.0, 1.0]]), b=1.0).to_csv(matrix)
        monkeypatch.delenv("METAMARGIN_SEED", raising=False)
        outputs = []
        for env_seed in (None, "11"):
            if env_seed is not None:
                monkeypatch.setenv("METAMARGIN_SEED", env_seed)
            out = tmp_path / f"results-{env_seed}.csv"
            assert main(["simulate", "--config", str(path), "--output", str(out)]) == 0
            capsys.readouterr()
            assert main(["estimate", "--input", matrix, "--estimator", "gaussian", "--draws", "50"]) == 0
            outputs.append((out.read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    def test_output_defaults_to_the_working_directory(self, tmp_path, capsys, monkeypatch):
        # --output is the only output-path setting: METAMARGIN_OUTPUT_DIR
        # does not move the default results.csv or sweep.csv
        cfg = write_config(tmp_path)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.setenv("METAMARGIN_OUTPUT_DIR", str(elsewhere))
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["output_path"] == "results.csv"
        assert main(["sweep", "--config", cfg, "--axis", "n", "--values", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["output_path"] == "sweep.csv"
        assert (tmp_path / "results.csv").exists() and (tmp_path / "sweep.csv").exists()
        assert not any(elsewhere.iterdir())

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bound={**CONFIG["bound"], "k": 4})
        assert main(["simulate", "--config", cfg, "--output", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("key,value", [
        ("trials", 2.5), ("record_timing", "false"), ("trails", 9), ("loss_kind", 0),
        ("output_path", "results.csv")])
    def test_mistyped_or_unknown_key_exits_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, **{key: value})
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", cfg, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert key in err and not out.exists()

    def test_missing_required_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({k: v for k, v in CONFIG.items() if k != "trials"}))
        assert main(["simulate", "--config", str(path), "--output", str(tmp_path / "x.csv")]) == 2
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize("section,field,value", [
        ("learner", "lam", math.nan), ("learner", "lam", math.inf), ("learner", "lam", -1.0),
        ("learner", "step_size", math.nan), ("learner", "step_size", -1.0),
        ("family", "norm_cap", math.nan), ("family", "norm_cap", math.inf),
    ])
    def test_bad_hyperparameter_exits_2(self, tmp_path, capsys, section, field, value):
        # bad input, not a numeric failure of the run: exit 2, before any CSV
        data = {"learner": {"kind": "linear_multimargin", "steps": 3}, "family": dict(CONFIG["family"])}
        data[section][field] = value
        cfg = write_config(tmp_path, **data)
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", cfg, "--output", str(out)]) == 2
        assert field in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize("overrides", [
        {"bound": {**CONFIG["bound"], "n": 10 ** 19}}, {"test_episodes": 10 ** 19},
        {"test_points_per_task": 10 ** 19}], ids=["bound.n", "test_episodes", "test_points_per_task"])
    def test_sizes_beyond_memory_exit_2(self, tmp_path, capsys, overrides):
        # numpy rejects an array of 10**19 entries with a ValueError: bad
        # input, not a failed trial or outer draw
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", write_config(tmp_path, **overrides), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Maximum allowed") and err.count("\n") == 1
        assert not out.exists()

    def test_dudley_levels_past_1074_end(self, tmp_path, capsys):
        # set-up's entropy integrals stop at level 1074, where every later
        # scale is 0.0, so a 401-digit dudley_levels runs like 1074
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", write_config(tmp_path, dudley_levels=10 ** 400),
                     "--output", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert main(["simulate", "--config", write_config(tmp_path, dudley_levels=1074),
                     "--output", str(tmp_path / "y.csv")]) == 0
        assert json.loads(capsys.readouterr().out)["expected_complexities"] == summary["expected_complexities"]
        assert out.read_bytes() == (tmp_path / "y.csv").read_bytes()

    def test_integer_beyond_float_range_in_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bound={**CONFIG["bound"], "v": 10 ** 400})
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", cfg, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: int too large to convert to float\n" and not out.exists()

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, seed):
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", write_config(tmp_path), "--output", str(out),
                     "--seed", str(seed)]) == 2
        assert capsys.readouterr().err == f"error: seed must lie in [0, 2**64), got {seed}\n"
        assert not out.exists()

    def test_every_outer_draw_failing_exits_3(self, tmp_path, capsys):
        # configs/default.json at k=3 with unsplit 2-point episodes: every
        # episode misses a class, so every fit of set-up's 20 task draws
        # and 3 meta draws fails
        data = json.loads((CONFIGS / "default.json").read_text())
        data["environment"]["k"] = 3
        data["bound"].update(k=3, m=2)
        del data["episode_shape"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "results.csv"
        assert main(["simulate", "--config", str(path), "--output", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numeric failure: every outer draw of a level failed while estimating expected complexities "
            "(task level: NumericError: 20; meta level: NumericError: 3)\n")
        assert not out.exists()

    def test_every_trial_failing_exits_3(self, tmp_path, capsys):
        # configs/default.json at k=3 with unsplit 4-point episodes and
        # n=3: at seed 5 each trial's meta-sample has an episode that
        # misses a class, so every trial fails
        data = json.loads((CONFIGS / "default.json").read_text())
        data["environment"]["k"] = 3
        data["bound"].update(k=3, m=4, n=3)
        del data["episode_shape"]
        data.update(trials=3, mc_draws=200)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "results.csv"
        assert main(["simulate", "--config", str(path), "--output", str(out), "--seed", "5"]) == 3
        assert "all 3 trials failed (NumericError: 3)" in capsys.readouterr().err
        assert not out.exists()


class TestSweepCommand:
    def test_single_axis_sweep(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--config", cfg, "--axis", "n", "--values", "4,6", "--output", out]) == 0
        lines = Path(out).read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "n"

    def test_unknown_nested_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, learner={"kind": "nearest_centroid", "lr": 0.1})
        assert main(["sweep", "--config", cfg, "--axis", "n", "--values", "4",
                     "--output", str(tmp_path / "s.csv")]) == 2
        assert "lr" in capsys.readouterr().err

    def test_size_beyond_memory_is_an_error_row(self, tmp_path, capsys):
        # n = 1e19 asks for a meta-sample no array can hold: numpy's
        # ValueError is that value's error row, and the sweep goes on
        out = tmp_path / "s.csv"
        assert main(["sweep", "--config", write_config(tmp_path), "--axis", "n", "--values", "50,1e19",
                     "--output", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[2] for row in rows] == ["ok", "error"]
        assert rows[1][-1] == "Maximum allowed size exceeded"

    def test_bad_values_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "s.csv"
        for values in ("abc", "inf", "1e400", "nan"):
            assert main(["sweep", "--config", cfg, "--axis", "n", "--values", values,
                         "--output", str(out)]) == 2
            assert not out.exists()


def run_cli(argv):
    """main(argv) in-process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_exit_contract(code, out, err):
    """Exit 0 prints strict JSON and nothing on stderr; exits 2 and 3 print
    nothing on stdout and one stderr line. Returns the JSON on exit 0."""
    assert code in (0, 2, 3)
    if code != 0:
        assert out == "" and err.endswith("\n") and err.count("\n") == 1
        return None
    assert err == ""

    def reject(constant):
        raise AssertionError(f"{constant} in the JSON output")

    return json.loads(out, parse_constant=reject)


BOUND_FLAGS = {"--k": "5", "--rho": "1", "--delta": "0.1", "--m": "100", "--n": "50", "--v": "17",
               "--b": "1", "--c0": "2", "--avg-loss": "0.1", "--gamma-meta": "0.01", "--gamma-task": "0.05",
               "--entropy-meta": "0.2", "--entropy-task": "0.3", "--s": "5", "--q": "15"}
ODD_VALUES = ["0", "-1", "1e-300", "1e300", "nan", "inf", "-inf", "1" + "0" * 400, "abc"]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(kind=st.sampled_from([*BOUND_KINDS, "kway_sshot"]), flag=st.sampled_from(sorted(BOUND_FLAGS)),
       value=st.sampled_from(ODD_VALUES))
def test_bound_keeps_the_exit_contract(kind, flag, value):
    # --flag=value, so that argparse reads a negative value as a value
    argv = ["bound", "--kind", kind, *(f"{name}={text}" for name, text in BOUND_FLAGS.items() if name != flag)]
    payload = check_exit_contract(*run_cli(argv + [f"{flag}={value}"]))
    if payload is not None and kind != "kway_sshot":
        assert payload["total"] == payload["empirical_term"] + payload["confidence_term"] + payload["complexity_term"]


@st.composite
def odd_matrices(draw):
    """A small matrix of one odd kind, and its bound b."""
    kind = draw(st.sampled_from(["1x1", "constant rows", "duplicate rows", "huge", "tiny"]))
    shape = (1, 1) if kind == "1x1" else (draw(st.integers(1, 3)), draw(st.integers(1, 4)))
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=shape[0] * shape[1],
                                   max_size=shape[0] * shape[1]))).reshape(shape)
    if kind == "constant rows":
        signs = np.repeat(signs[:, :1], shape[1], axis=1)
    elif kind == "duplicate rows":
        signs = np.vstack([signs, signs[::-1]])
    b = {"huge": 1e300, "tiny": 1e-300}.get(kind, 1.0)
    return signs * b, b


@settings(max_examples=150, deadline=None, derandomize=True)
@given(matrix=odd_matrices(), estimator=st.sampled_from(["gaussian", "rademacher", "massart", "dudley",
                                                         "entropy", "cover"]),
       eps=st.sampled_from([1e-300, 0.1, 1.0, 1e300]))
def test_estimate_keeps_the_exit_contract(tmp_path_factory, matrix, estimator, eps):
    values, b = matrix
    path = str(tmp_path_factory.getbasetemp() / "odd_matrix.csv")
    FunctionValueMatrix(values=values, b=b).to_csv(path)
    argv = ["estimate", "--input", path, "--estimator", estimator, "--draws", "20", "--eps", repr(eps * b)]
    check_exit_contract(*run_cli(argv))


# Every key of ExperimentConfig, at sizes that run in milliseconds: 2 trials, 4-point episodes, 20 draws.
TINY_RUN = {
    "environment": {"d_raw": 3, "k": 2, "prototype_scale": 1.0, "noise_sigma": 1.0, "balanced": True},
    "family": {"d": 3, "norm_cap": 1e6, "groups": [{"kind": "identity", "count": 1},
                                                   {"kind": "random_relu", "count": 1}]},
    "learner": {"kind": "linear_multimargin", "lam": 1e-3, "steps": 3, "step_size": 0.1},
    "bound": {"k": 2, "rho": 1.0, "delta": 0.1, "m": 6, "n": 4, "v": 5, "b": 1.0, "c0": math.e},
    "trials": 2, "test_points_per_task": 4, "outer_task_draws": 2, "outer_meta_draws": 1, "mc_draws": 20,
    "dudley_levels": 3, "test_episodes": 4, "episode_shape": {"s": 1, "q": 2}, "loss_kind": "margin",
    "seed": 1, "workers": 1, "record_timing": False,
}
# A number field's edge values, each drawn three times as often as a wrong type.
EDGE_NUMBERS = [0, -1, 1e-300, 1e300, math.nan, 10 ** 400, 10 ** 19, 2 ** 64]
WRONG_TYPES = [None, "x", True, [], {}]
# Loop counts, for which a huge value is a valid long run, not an error: the fuzz keeps them small.
LOOP_CAPS = {("trials",): 2, ("outer_meta_draws",): 2, ("workers",): 2, ("family", "groups", 0, "count"): 2}


def config_paths(cls, prefix=()):
    """(key path, type) of every field of dataclass ``cls``, nested ones
    included; a tuple field's path goes on through its first item."""
    hints = get_type_hints(cls)
    for field in fields(cls):
        path, tp = prefix + (field.name,), hints[field.name]
        if get_origin(tp) is Union:  # Optional[X]
            (tp,) = [arg for arg in get_args(tp) if arg is not type(None)]
        yield path, tp
        if get_origin(tp) is tuple:
            path, tp = path + (0,), get_args(tp)[0]
            yield path, tp
        if is_dataclass(tp):
            yield from config_paths(tp, path)


CONFIG_PATHS = list(config_paths(ExperimentConfig))


@st.composite
def odd_configs(draw):
    """TINY_RUN with one or two keys set to an edge number (number fields
    only) or a wrong type, deleted, or joined by an unknown key."""
    config = copy.deepcopy(TINY_RUN)
    for _ in range(draw(st.sampled_from([1, 1, 1, 2]))):
        path, tp = draw(st.sampled_from(CONFIG_PATHS))
        edit = draw(st.sampled_from(["set"] * 8 + ["delete", "unknown"]))
        cap = LOOP_CAPS.get(path, math.inf)
        numbers = [v for v in EDGE_NUMBERS if not v > cap] if tp in (int, float) else []
        value = draw(st.sampled_from(numbers * 3 + WRONG_TYPES))
        try:
            node = functools.reduce(lambda node, key: node[key], path[:-1], config)
            if edit == "set":
                node[path[-1]] = value
            elif edit == "delete":
                del node[path[-1]]
            else:
                node["unknown_key"] = 1
        except (KeyError, IndexError, TypeError):
            pass  # the first edit removed or replaced a parent of this path
    return config


def check_run_csv(path, command):
    """Every cell of a run's CSV is finite, and each holds_* column follows
    from its row: the risk is within 2 standard errors above the bound."""
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    for row in rows:
        for cell in row.values():
            try:
                value = float(cell)
            except ValueError:
                continue  # text, or an empty cell of a sweep's error row
            assert math.isfinite(value), row
        if command == "simulate":
            for kind in BOUND_KINDS:
                risk, se, bound = (float(row[name]) for name in ("transfer_risk", "transfer_risk_se",
                                                                 f"bound_{kind}"))
                if not math.isclose(risk, bound + 2.0 * se, rel_tol=1e-8):  # cells keep 9 digits
                    assert row[f"holds_{kind}"] == str(int(risk <= bound + 2.0 * se)), row


@example(config=TINY_RUN, command="simulate", axis="n", values=["1"])
# lam 1e300 makes every linear fit fail; scoring the failed fits once printed numpy warnings too
@example(config={**TINY_RUN, "learner": {**TINY_RUN["learner"], "lam": 1e300}}, command="simulate",
         axis="n", values=["1"])
@settings(max_examples=400, deadline=None, derandomize=True)
@given(config=odd_configs(), command=st.sampled_from(["simulate", "sweep"]),
       axis=st.sampled_from(SWEEP_AXES), values=st.lists(st.sampled_from(["1", "2", "-1", "1e300", "nan"]),
                                                         min_size=1, max_size=2))
def test_simulate_and_sweep_keep_the_exit_contract(tmp_path_factory, config, command, axis, values):
    base = tmp_path_factory.getbasetemp()
    config_path, output = base / "odd_config.json", base / "odd_run.csv"
    config_path.write_text(json.dumps(config))
    output.unlink(missing_ok=True)
    argv = [command, "--config", str(config_path), "--output", str(output)]
    if command == "sweep":
        argv += ["--axis", axis, "--values=" + ",".join(values)]  # a value may start with "-"
    if check_exit_contract(*run_cli(argv)) is not None:
        check_run_csv(output, command)
    else:  # so that the CSV checks run at all, the unedited run must succeed (compared as JSON: True == 1.0)
        assert config_path.read_text() != json.dumps(TINY_RUN) or command != "simulate"
