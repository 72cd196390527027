"""Non-finite inputs are rejected by every validator and by the CLI, and
config loading rejects unknown keys, missing keys and mistyped values."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metamargin.bounds import (
    BoundInputs,
    covering_transfer_bound,
    gaussian_transfer_bound,
    kway_sshot_complexity_term,
    surrogate_multimargin_bound,
)
from metamargin.cli import main
from metamargin.complexity import FunctionValueMatrix
from metamargin.core import EnvironmentSpec, EpisodeBatch
from metamargin.harness import ExperimentConfig
from metamargin.learners import FeatureMap, linear_multimargin_learn, linear_softmax_learn

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
BOUND = dict(k=5, rho=1.0, delta=0.1, m=100, n=50, v=17, b=1.0, c0=math.e)
INPUTS = BoundInputs(**BOUND)


IDENTITY_2D = FeatureMap(id="identity", kind="identity", d=2)
LINEAR_LEARNERS = {
    "multimargin": lambda batch, lam, step_size: linear_multimargin_learn(
        batch, IDENTITY_2D, 1.0, lam, 3, step_size, 1.0),
    "softmax": lambda batch, lam, step_size: linear_softmax_learn(
        batch, IDENTITY_2D, lam, 3, step_size, 1.0),
}
TINY_BATCH = EpisodeBatch(np.array([[[-1.0, 0.0], [1.0, 0.0], [-2.0, 1.0], [2.0, 1.0]]]),
                          np.array([[1, 2, 1, 2]]), 2)


@given(st.sampled_from(sorted(LINEAR_LEARNERS)), st.sampled_from(["lam", "step_size"]),
       st.one_of(NON_FINITE, st.floats(max_value=-1e-300, allow_infinity=False)))
def test_linear_learners_reject_bad_hyperparameters(kind, field, bad):
    # a negative step size would climb the loss instead of descending it
    params = {"lam": 1e-3, "step_size": 0.1, field: bad}
    with pytest.raises(ValueError, match=field):
        LINEAR_LEARNERS[kind](TINY_BATCH, **params)


@pytest.mark.parametrize("kind", sorted(LINEAR_LEARNERS))
def test_linear_learners_accept_zero_lam_and_step_size(kind):
    scorer = LINEAR_LEARNERS[kind](TINY_BATCH, lam=0.0, step_size=0.0)
    assert not scorer.failed.any() and np.all(scorer.W == 0.0)


@given(NON_FINITE)
def test_feature_map_rejects_non_finite_norm_cap(bad):
    # a NaN cap would never cap anything
    with pytest.raises(ValueError, match="norm_cap"):
        FeatureMap(id="identity", kind="identity", d=2, norm_cap=bad)


@given(st.sampled_from(["rho", "delta", "b", "c0"]), NON_FINITE)
def test_bound_inputs_reject_non_finite(field, bad):
    with pytest.raises(ValueError):
        BoundInputs(**{**BOUND, field: bad})


@given(st.sampled_from(["prototype_scale", "noise_sigma"]), NON_FINITE)
def test_environment_rejects_non_finite(field, bad):
    fields = dict(d_raw=16, k=5, prototype_scale=1.0, noise_sigma=1.0)
    with pytest.raises(ValueError):
        EnvironmentSpec(**{**fields, field: bad})


@given(st.integers(0, 1), NON_FINITE, st.floats(0.0, 10.0))
def test_complexity_bounds_reject_non_finite(position, bad, good):
    args = [good, good]
    args[position] = bad
    with pytest.raises(ValueError):
        gaussian_transfer_bound(INPUTS, 0.2, *args)
    with pytest.raises(ValueError):
        covering_transfer_bound(INPUTS, 0.2, *args)


@given(NON_FINITE)
def test_surrogate_and_kway_reject_non_finite(bad):
    with pytest.raises(ValueError):
        surrogate_multimargin_bound(INPUTS, bad)
    with pytest.raises(ValueError):
        kway_sshot_complexity_term(5, 5, 15, 50, bad, 17, 1.0)


@given(st.integers(1, 6), st.integers(1, 6), st.data(), NON_FINITE)
def test_matrix_rejects_non_finite_entries(rows, cols, data, bad):
    values = np.zeros((rows, cols))
    values[data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))] = bad
    with pytest.raises(ValueError):
        FunctionValueMatrix(values=values, b=1.0)
    with pytest.raises(ValueError):
        FunctionValueMatrix(values=np.zeros((rows, cols)), b=bad)


BOUND_ARGV = ["bound", "--k", "5", "--rho", "1", "--m", "100", "--n", "50", "--v", "17",
              "--b", "1", "--delta", "0.1"]
FLAGS = {
    "vc": ["--rho", "--b", "--c0", "--delta", "--avg-loss"],
    "gaussian": ["--gamma-meta", "--gamma-task"],
    "covering": ["--entropy-meta", "--entropy-task"],
    "surrogate": ["--avg-loss"],
    "kway_sshot": ["--rho", "--b", "--c0"],
}


def _set(argv, flag, value):
    argv = list(argv)
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    return argv


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(kind, flag) for kind, flags in FLAGS.items() for flag in flags]),
       st.sampled_from(["nan", "inf", "-inf"]))
def test_cli_bound_exits_2_on_non_finite(kind_flag, bad):
    kind, flag = kind_flag
    argv = BOUND_ARGV + ["--kind", kind]
    if kind == "kway_sshot":
        argv += ["--s", "5", "--q", "15"]
    assert main(_set(argv, flag, bad)) == 2


def test_cli_bound_nan_rho_is_rejected(capsys):
    code = main(["bound", "--kind", "vc", "--k", "5", "--rho", "nan", "--m", "100", "--n", "50",
                 "--v", "17", "--b", "1"])
    out = capsys.readouterr()
    assert code == 2 and out.out == "" and "rho" in out.err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_cli_estimate_exits_2_on_non_finite_matrix(tmp_path, bad):
    path = tmp_path / "matrix.csv"
    path.write_text(f"# b=1.0\nf0,0.5,{bad}\nf1,0.25,0.0\n")
    assert main(["estimate", "--input", str(path), "--estimator", "massart"]) == 2
    FunctionValueMatrix(values=np.zeros((1, 1)), b=1.0).to_csv(str(path))
    assert main(["estimate", "--input", str(path), "--estimator", "cover", "--eps", bad]) == 2


DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"


def _config_data(path=(), value=None, delete=False):
    """The default config as parsed JSON, with the item at ``path`` (keys
    and list indices) set to ``value`` or deleted."""
    data = json.loads(DEFAULT_CONFIG.read_text())
    if path:
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if delete:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return data


@pytest.mark.parametrize("path,value,message", [
    (("trails",), 9, "unknown ExperimentConfig keys: trails"),
    (("environment", "seed"), 1, "unknown EnvironmentSpec keys: seed"),
    (("family", "groups", 0, "size"), 3, "unknown FamilyGroup keys: size"),
    (("episode_shape", "r"), 1, "unknown EpisodeShape keys: r"),
    (("trials",), 2.5, "ExperimentConfig.trials must be a JSON int"),
    (("trials",), True, "ExperimentConfig.trials must be a JSON int"),
    (("bound", "n"), "50", "BoundInputs.n must be a JSON int"),
    (("family", "groups", 1, "count"), 4.5, "FamilyGroup.count must be a JSON int"),
    (("record_timing",), "false", "ExperimentConfig.record_timing must be a JSON bool"),
    (("environment", "balanced"), 1, "EnvironmentSpec.balanced must be a JSON bool"),
    (("loss_kind",), 1, "ExperimentConfig.loss_kind must be a JSON str"),
    (("learner", "kind"), None, "LearnerSpec.kind must be a JSON str"),
    (("record_timing",), 7, "ExperimentConfig.record_timing must be a JSON bool"),
    (("bound", "rho"), True, "BoundInputs.rho must be a JSON float"),
    (("bound", "rho"), "1.0", "BoundInputs.rho must be a JSON float"),
    (("family", "groups"), {"kind": "identity", "count": 1}, "FamilySpec.groups must be a JSON array"),
    (("episode_shape",), [5, 15], "EpisodeShape needs a JSON object"),
    (("environment",), [16, 5], "EnvironmentSpec needs a JSON object"),
    (("family", "groups", 0, "d"), 4, "unknown FamilyGroup keys: d"),
])
def test_config_rejects_unknown_keys_and_mistyped_values(path, value, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_json(_config_data(path, value))


@pytest.mark.parametrize("path,message", [
    (("trials",), "ExperimentConfig is missing the required key 'trials'"),
    (("environment",), "ExperimentConfig is missing the required key 'environment'"),
    (("bound", "k"), "BoundInputs is missing the required key 'k'"),
    (("family", "groups", 0, "kind"), "FamilyGroup is missing the required key 'kind'"),
    (("episode_shape", "q"), "EpisodeShape is missing the required key 'q'"),
])
def test_config_missing_required_key_is_a_value_error(path, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_json(_config_data(path, delete=True))


@pytest.mark.parametrize("draws", [1, 0])
def test_config_needs_two_monte_carlo_draws(draws):
    # a standard error needs two draws; set-up would otherwise fail later
    with pytest.raises(ValueError, match="mc_draws must be >= 2"):
        ExperimentConfig.from_json(_config_data(("mc_draws",), draws))
    config = ExperimentConfig.from_json(_config_data(("mc_draws",), 2))
    assert config.mc_draws == 2


def test_config_accepts_json_numbers_of_either_kind_and_null_optionals():
    config = ExperimentConfig.from_json(_config_data(("bound", "rho"), 1))
    assert config.bound.rho == 1.0 and isinstance(config.bound.rho, float)
    config = ExperimentConfig.from_json(_config_data(("trials",), 3.0))
    assert config.trials == 3 and isinstance(config.trials, int)
    data = _config_data()
    data.update(episode_shape=None)
    assert ExperimentConfig.from_json(data).episode_shape is None
