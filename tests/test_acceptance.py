"""Acceptance suite: one test per criterion, each printing a pass/fail
line. Run with `pytest tests/test_acceptance.py -v -s`.

The experiment-backed criteria (6, 7, 10) use fixed seeds, so their
outcomes are reproducible runs of the shipped configurations.
"""

import dataclasses
import json
import math
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

import metamargin as mm
from conftest import TableScorer
from metamargin.cli import main as cli_main
from metamargin.complexity import FunctionValueMatrix, dudley_bound, gaussian_complexity_mc, \
    massart_bound, rademacher_complexity_mc
from metamargin.harness import ExperimentConfig, FamilyGroup, FamilySpec, LearnerSpec, \
    bound_validity_experiment, sweep
from metamargin.losses import episode_losses, margin_loss_array


def report(number: int, name: str, ok: bool, detail: str) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number:2d} ({name}): {status}: {detail}")
    return ok


def default_validity_config(**overrides) -> ExperimentConfig:
    """k=5, m=100, n=50, |D|=8, nearest-centroid, rho=1, delta=0.1."""
    base = dict(
        environment=mm.EnvironmentSpec(d_raw=16, k=5, prototype_scale=1.0, noise_sigma=1.0),
        family=FamilySpec(d=16, groups=(
            FamilyGroup("identity", 1),
            FamilyGroup("random_relu", 4),
            FamilyGroup("random_linear", 3),
        )),
        learner=LearnerSpec(kind="nearest_centroid"),
        bound=mm.BoundInputs(k=5, rho=1.0, delta=0.1, m=100, n=50, v=17, b=1.0),
        trials=200,
        test_points_per_task=40,
        outer_task_draws=20,
        outer_meta_draws=3,
        mc_draws=2000,
        dudley_levels=12,
        test_episodes=600,
        episode_shape=(5, 15),
        seed=20240801,
        workers=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def sweep_config(**overrides) -> ExperimentConfig:
    """Linear multi-margin learner over a family of six random linear maps."""
    base = dict(
        environment=mm.EnvironmentSpec(d_raw=16, k=5, prototype_scale=1.0, noise_sigma=1.3),
        family=FamilySpec(d=16, groups=(FamilyGroup("random_linear", 6),)),
        learner=LearnerSpec(kind="linear_multimargin", lam=1e-3, steps=25, step_size=0.1),
        bound=mm.BoundInputs(k=5, rho=1.0, delta=0.1, m=35, n=500, v=17, b=25.0),
        trials=3,
        test_points_per_task=40,
        outer_task_draws=10,
        outer_meta_draws=1,
        mc_draws=500,
        dudley_levels=12,
        test_episodes=600,
        episode_shape=(2, 5),
        seed=9,
        workers=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def random_bounded_matrices(count: int, seed: int, b: float = 1.0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 51))
        m = int(rng.integers(1, 31))
        out.append(FunctionValueMatrix(values=rng.uniform(-b, b, size=(n, m)), b=b))
    return out


def test_criterion_01_surrogate_inequality():
    # ramp(margin) <= (k-1) * multimargin on 1e5 random draws, zero
    # violations, under 5 s
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    total = violations = 0
    for k in range(2, 11):
        draws = 100_000 // 9 + 1
        scores = rng.uniform(-5.0, 5.0, size=(draws, k))
        ys = rng.integers(0, k, size=draws)
        rhos = rng.uniform(0.1, 10.0, size=draws)
        idx = np.arange(draws)
        true = scores[idx, ys]
        masked = scores.copy()
        masked[idx, ys] = -np.inf
        ramp = np.clip(1.0 - (true - masked.max(axis=1)) / rhos, 0.0, 1.0)
        hinges = np.maximum(0.0, 1.0 - (true[:, None] - scores) / rhos[:, None])
        hinges[idx, ys] = 0.0
        surrogate = hinges.sum(axis=1)  # (k-1) * multimargin
        violations += int(np.sum(ramp > surrogate + 1e-12))
        total += draws

    # spot-check the vectorized evaluation against episode_losses
    for _ in range(200):
        k = int(rng.integers(2, 11))
        s = rng.uniform(-5, 5, k)
        y = int(rng.integers(1, k + 1))
        rho = float(rng.uniform(0.1, 10.0))
        f = TableScorer([s], b=5.0)
        ramp, multi = episode_losses(f.scores_matrix(np.array([[0.0]])), np.array([y]), rho)
        assert ramp <= (k - 1) * multi + 1e-12
    elapsed = time.perf_counter() - start
    ok = violations == 0 and total >= 100_000 and elapsed < 5.0
    assert report(1, "surrogate inequality", ok,
                  f"{violations} violations in {total} draws, {elapsed:.2f}s")


def test_criterion_02_gaussian_rademacher_relation():
    start = time.perf_counter()
    passes = 0
    for i, A in enumerate(random_bounded_matrices(100, seed=202)):
        g = gaussian_complexity_mc(A, 2000, 3000 + i)
        r = rademacher_complexity_mc(A, 2000, 7000 + i)
        se = math.hypot(g.std_error, r.std_error)
        if g.mean >= math.sqrt(2.0 / math.pi) * r.mean - 4.0 * se:
            passes += 1
    elapsed = time.perf_counter() - start
    ok = passes >= 99 and elapsed < 30.0
    assert report(2, "gaussian >= sqrt(2/pi) rademacher", ok,
                  f"{passes}/100 matrices, {elapsed:.2f}s")


def test_criterion_03_closed_form_gaussian_complexity():
    A = FunctionValueMatrix(values=np.array([[1.0, 0.0], [0.0, 1.0]]), b=1.0)
    est = gaussian_complexity_mc(A, 100_000, 303)
    target = 1.0 / math.sqrt(math.pi)
    massart = massart_bound(A)
    ok = (abs(est.mean - target) <= 0.02
          and abs(massart - math.sqrt(math.log(2.0))) <= 1e-9
          and est.mean <= massart)
    assert report(3, "closed-form Gaussian complexity", ok,
                  f"estimate {est.mean:.5f} vs 1/sqrt(pi)={target:.5f}, massart {massart:.5f}")


def test_criterion_04_contraction():
    checks = passes = 0
    for i, A in enumerate(random_bounded_matrices(100, seed=404)):
        for j, rho in enumerate((0.5, 1.0, 2.0)):
            transformed = FunctionValueMatrix(values=margin_loss_array(rho, A.values), b=1.0)
            left = gaussian_complexity_mc(transformed, 2000, 11_000 + 10 * i + j)
            right = gaussian_complexity_mc(A, 2000, 17_000 + 10 * i + j)
            se = math.hypot(left.std_error, right.std_error / rho)
            checks += 1
            if left.mean <= right.mean / rho + 4.0 * se:
                passes += 1
    ok = passes / checks >= 0.99
    assert report(4, "Gaussian contraction", ok, f"{passes}/{checks} (matrix, rho) pairs")


def test_criterion_05_dudley_domination():
    passes = 0
    for i, A in enumerate(random_bounded_matrices(100, seed=505)):
        est = gaussian_complexity_mc(A, 2000, 23_000 + i)
        if dudley_bound(A, 12) >= est.mean - 4.0 * est.std_error:
            passes += 1
    ok = passes >= 99
    assert report(5, "Dudley domination", ok, f"{passes}/100 matrices")


def test_criterion_06_bound_validity():
    start = time.perf_counter()
    rows, summary = bound_validity_experiment(default_validity_config())
    elapsed = time.perf_counter() - start
    freqs = {kind: summary[f"hold_freq_{kind}"] for kind in
             ("vc", "gaussian", "covering", "surrogate")}
    ok = (len(rows) + summary["failed_trials"] == 200
          and all(f >= 0.9 for f in freqs.values())
          and elapsed <= 600.0)
    assert report(6, "bound validity", ok,
                  f"hold freqs {freqs}, {summary['failed_trials']} failed trials, {elapsed:.0f}s")


def test_criterion_07a_accuracy_vs_n_trend():
    rows = sweep(sweep_config(), "n", [500, 2000, 8000])
    accs = [r["mean_test_accuracy"] for r in rows]
    ses = [r["test_accuracy_se"] for r in rows]
    ok = all(r["status"] == "ok" for r in rows)
    for i in range(len(rows) - 1):
        ok = ok and accs[i + 1] >= accs[i] - math.hypot(ses[i], ses[i + 1])
    detail = ", ".join(f"n={int(r['value'])}: {a:.4f}±{s:.4f}"
                       for r, a, s in zip(rows, accs, ses))
    assert report(7, "accuracy vs n nondecreasing (7a)", ok, detail)


def test_criterion_07b_rho_insensitivity():
    rows = sweep(sweep_config(), "rho", [0.1, 1.0, 10.0])
    accs = [r["mean_test_accuracy"] for r in rows]
    spread = max(accs) - min(accs)
    ok = all(r["status"] == "ok" for r in rows) and spread <= 0.05
    detail = ", ".join(f"rho={r['value']}: {a:.4f}" for r, a in zip(rows, accs))
    assert report(7, "rho insensitivity (7b)", ok, f"{detail}; spread {100 * spread:.2f} points")


def test_criterion_08_constants():
    mpmath.mp.dps = 50
    lead = 24 * mpmath.sqrt(2 * mpmath.pi)
    root = mpmath.sqrt(mpmath.log(16 * mpmath.e))
    exact_c1 = float(lead * (1 + root + 2 * mpmath.sqrt(2)))
    exact_c2 = float(lead * (1 + root))  # sqrt(ln e) = 1
    c1, c2 = mm.constants_c1_c2(1.0, math.e)
    rel1 = abs(c1 - exact_c1) / exact_c1
    rel2 = abs(c2 - exact_c2) / exact_c2
    ok = rel1 < 1e-9 and rel2 < 1e-9
    assert report(8, "constants C1, C2", ok,
                  f"C1={c1:.6f} (rel err {rel1:.1e}), C2={c2:.6f} (rel err {rel2:.1e})")


def test_criterion_09_sample_efficiency():
    grid = [100, 400, 1600, 1e12]
    vals = [mm.sample_efficiency_min_m(0.5, 2, 4, n, 1.0) for n in grid]
    limit = mm.sample_efficiency_min_m(0.5, 2, 4, math.inf, 1.0)
    ok = (all(a >= b for a, b in zip(vals, vals[1:]))
          and vals[-1] >= limit
          and limit == 64
          and vals[1] == 178)
    assert report(9, "sample efficiency", ok,
                  f"m_min over n grid {dict(zip(map(int, grid), vals))}, limit {limit}")


def test_criterion_10_simulate_determinism(tmp_path, capsys):
    config = default_validity_config(trials=8, test_episodes=100, outer_task_draws=5,
                                     outer_meta_draws=1, mc_draws=500)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dataclasses.asdict(config)))
    out1, out2 = str(tmp_path / "run1.csv"), str(tmp_path / "run2.csv")
    code1 = cli_main(["simulate", "--config", str(cfg_path), "--output", out1, "--workers", "1"])
    code2 = cli_main(["simulate", "--config", str(cfg_path), "--output", out2, "--workers", "4"])
    capsys.readouterr()
    identical = Path(out1).read_bytes() == Path(out2).read_bytes()
    ok = code1 == 0 and code2 == 0 and identical
    assert report(10, "simulate determinism", ok,
                  f"byte-identical CSVs across 1 vs 4 workers: {identical}")
