"""Non-finite inputs are rejected by every validator and by the CLI."""

import math

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
from metamargin.core import EnvironmentSpec

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
BOUND = dict(k=5, rho=1.0, delta=0.1, m=100, n=50, v=17, b=1.0, c0=math.e)
INPUTS = BoundInputs(**BOUND)


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
