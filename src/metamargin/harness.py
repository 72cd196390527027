"""Experiment orchestration: transfer-risk Monte Carlo, bound-validity
trials, and parameter sweeps, with JSON config in and CSV out.

A validity experiment repeats, per trial: draw a meta-sample, select a
feature map by empirical risk, evaluate its average empirical losses,
estimate its true transfer risk by Monte Carlo on fresh tasks, and
compare against the four bound evaluations. Expected complexity inputs
(Gaussian complexity and entropy integrals of the restricted class)
are estimated once per run by averaging over fresh outer draws and
shared across trials, matching the bounds' expectation form.

Per-trial derived seeds make output files byte-identical across runs and
worker counts while ``record_timing`` is off (``elapsed_ms`` is wall time).
"""

from __future__ import annotations

import math
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from typing import Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from .bounds import BOUND_KINDS, BoundInputs, transfer_bound
from .complexity import (
    _mean_se,
    build_pi1f_restriction,
    entropy_integral,
    episode_restrictions,
    gaussian_complexity_rowspace,
)
from .core import (
    EnvironmentSpec,
    EpisodeShape,
    SeedPolicy,
    _episode_blocks,
    _episode_shape,
    _seed64,
    sample_meta_sample,
)
from .learners import (
    DEFAULT_NORM_CAP,
    BaseLearner,
    FeatureFamily,
    FeatureMap,
    NumericError,
    linear_multimargin_learn,
    linear_softmax_learn,
    make_feature_family,
    meta_erm_select,
    nearest_centroid_learn,
    require_fitted,
)
from .losses import LOSS_KINDS, margin_loss_array, margin_terms

LEARNER_KINDS = ("nearest_centroid", "linear_multimargin", "linear_softmax")
SWEEP_AXES = ("n", "m", "rho", "s")
# Both fresh-episode evaluators (transfer risk and query-split accuracy)
# sample, fit and score in blocks of this many float64 input values
# (0.64 MB): 50 default-shaped query episodes (m = 100, d_raw = 16). A
# block's transients must stay below the free memory glibc's malloc keeps
# after set-up, which it sizes from the largest block freed so far (on the
# default config, a meta-level restriction's 1.6 MB of values); larger
# blocks are given back to the OS and faulted in again on every block.
_QUERY_BLOCK_VALUES = 80_000


def _from_json(cls, data):
    """An instance of dataclass ``cls`` built from parsed JSON ``data``.

    Every key must name a field, and a missing key takes the field's
    default. Nested dataclasses, Optional and tuple fields are read
    recursively from objects, null and arrays. An int field takes an
    integral number, a float field any number, and bool and str fields
    only their own JSON type; anything else raises ValueError.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{cls.__name__} needs a JSON object, got {data!r}")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    hints = get_type_hints(cls)
    kwargs = {}
    for name, f in known.items():
        if name in data:
            kwargs[name] = _from_json_value(hints[name], data[name], f"{cls.__name__}.{name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{cls.__name__} is missing the required key {name!r}")
    return cls(**kwargs)


def _from_json_value(tp, value, where: str):
    origin = get_origin(tp)
    if origin is Union:  # Optional[X]
        if value is None:
            return None
        (tp,) = [arg for arg in get_args(tp) if arg is not type(None)]
        return _from_json_value(tp, value, where)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{where} must be a JSON array, got {value!r}")
        item = get_args(tp)[0]  # every tuple field is tuple[X, ...]
        return tuple(_from_json_value(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    if is_dataclass(tp):
        return _from_json(tp, value)
    if isinstance(value, bool) != (tp is bool):
        ok = False
    elif tp is int:
        ok = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    elif tp is float:
        ok = isinstance(value, (int, float))
    else:
        ok = isinstance(value, tp)
    if not ok:
        raise ValueError(f"{where} must be a JSON {tp.__name__}, got {value!r}")
    return tp(value)


@dataclass(frozen=True)
class FamilyGroup:
    kind: str
    count: int


@dataclass(frozen=True)
class FamilySpec:
    """How to build the candidate feature-map family."""

    d: int
    groups: tuple[FamilyGroup, ...]
    norm_cap: float = DEFAULT_NORM_CAP


@dataclass(frozen=True)
class LearnerSpec:
    """Base-learner choice plus its optimizer hyperparameters.

    rho and the score bound b are taken from the bound inputs so the
    learner and the bound machinery always agree on them.
    """

    kind: str
    lam: float = 1e-3
    steps: int = 30
    step_size: float = 0.1

    def __post_init__(self) -> None:
        if self.kind not in LEARNER_KINDS:
            raise ValueError(f"learner kind must be one of {LEARNER_KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    environment: EnvironmentSpec
    family: FamilySpec
    learner: LearnerSpec
    bound: BoundInputs
    trials: int
    test_points_per_task: int = 40
    outer_task_draws: int = 20
    outer_meta_draws: int = 3
    mc_draws: int = 2000
    dudley_levels: int = 12
    test_episodes: int = 600
    episode_shape: Optional[EpisodeShape] = None
    loss_kind: str = "margin"
    seed: int = 0
    workers: int = 1
    record_timing: bool = False

    def __post_init__(self) -> None:
        for name in ("trials", "test_points_per_task", "outer_task_draws", "outer_meta_draws",
                     "dudley_levels", "test_episodes", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        _seed64(self.seed)  # a run's seed must lie in [0, 2**64)
        if self.mc_draws < 2:  # a standard error needs two draws
            raise ValueError("mc_draws must be >= 2")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}")
        if self.environment.k != self.bound.k:
            raise ValueError("environment.k and bound.k must agree")
        if self.episode_shape is not None:
            shape = _episode_shape(self.episode_shape)  # an (s, q) pair works too
            object.__setattr__(self, "episode_shape", shape)
            if self.bound.m != shape.m(self.bound.k):
                raise ValueError(f"bound.m={self.bound.m} must equal k*(s+q)={shape.m(self.bound.k)}")

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        """Read a config object; unknown keys and mistyped values raise
        ValueError."""
        return _from_json(cls, data)


def build_family(spec: FamilySpec, d_raw: int, seed: int) -> FeatureFamily:
    """Materialize the family; map ids are prefixed per group so they
    stay distinct across groups."""
    policy = SeedPolicy(seed)
    maps: list[FeatureMap] = []
    for gi, group in enumerate(spec.groups):
        sub = make_feature_family(d_raw, spec.d, group.count, group.kind, policy.child(gi), spec.norm_cap)
        for fm in sub.maps:
            maps.append(FeatureMap(id=f"g{gi}-{fm.id}", kind=fm.kind, d=fm.d,
                                   weight=fm.weight, norm_cap=fm.norm_cap))
    return FeatureFamily(maps=tuple(maps))


def make_base_learner(spec: LearnerSpec, rho: float, b: float) -> BaseLearner:
    if spec.kind == "nearest_centroid":
        return lambda ep, phi: nearest_centroid_learn(ep, phi, b)
    if spec.kind == "linear_multimargin":
        return lambda ep, phi: linear_multimargin_learn(
            ep, phi, rho, spec.lam, spec.steps, spec.step_size, b)
    return lambda ep, phi: linear_softmax_learn(ep, phi, spec.lam, spec.steps, spec.step_size, b)


@dataclass(frozen=True)
class TransferRiskEstimate:
    """Monte Carlo estimate of transfer risk for a fixed feature map;
    ``failures`` counts the draws whose learner failed."""

    risk: float
    std_error: float
    accuracy: float
    failures: int


def _fresh_episode_scores(env: EnvironmentSpec, phi: FeatureMap, base_learner: BaseLearner,
                          count: int, seed: int, plan: list, record) -> int:
    """Fit and score the ``count`` units ``sample_episode_batches`` draws from
    ``seed`` and ``plan`` in blocks of at most ``_QUERY_BLOCK_VALUES`` input
    values (one unit at least): fit each unit's first episode with phi and
    score the query portion of its last. Calls ``record(rows, scores, labels,
    hits)`` per block with the fitted units' indices, scores, labels and hits
    (none of them depends on the block), and returns the number of fitted
    units. Nothing of a block is referenced after its ``record`` returns, so
    one block is alive at a time."""
    block = max(1, _QUERY_BLOCK_VALUES // (sum(m for m, _ in plan) * env.d_raw))

    def fit_and_score(a: int, batches) -> int:
        scorer = base_learner(batches[0], phi)
        qx, qy = batches[-1].query()
        ok = ~scorer.failed
        if not ok.all():  # masking copies, so only when some unit failed
            scorer, qx, qy = scorer[ok], qx[ok], qy[ok]
        scores = scorer.scores_matrix(qx)
        rows = a + np.flatnonzero(ok)
        record(rows, scores, qy, scores.argmax(axis=-1) + 1 == qy)
        return rows.size

    # map holds neither block nor result while it draws the next block; a for loop's variables would
    return sum(map(fit_and_score, range(0, count, block), _episode_blocks(env, count, seed, plan, block)))


def estimate_transfer_risk(
    env: EnvironmentSpec,
    phi: FeatureMap,
    base_learner: BaseLearner,
    rho: float,
    m: int,
    task_draws: int,
    test_points: int,
    seed: int,
    shape: Optional[EpisodeShape] = None,
) -> TransferRiskEstimate:
    """Monte Carlo evaluation of the train-on-fresh-task protocol.

    Per task draw: sample a task, a training episode of size m, and
    test_points i.i.d. test pairs; train the base-learner with phi frozen
    and average the ramp loss over the test pairs, in bounded blocks. A
    draw the learner flags as failed counts as ramp loss 1 and a miss on
    every test point, the worst case, so failures never favour the
    bounds. The standard error pools all per-point losses.
    """
    if task_draws < 1 or test_points < 1:
        raise ValueError("task_draws and test_points must be >= 1")
    losses = np.ones((task_draws, test_points))
    hits = 0

    def record(rows, scores, ys, block_hits) -> None:
        nonlocal hits
        losses[rows] = margin_loss_array(rho, margin_terms(scores, ys, rho)[0])
        hits += int(block_hits.sum())

    fitted = _fresh_episode_scores(env, phi, base_learner, task_draws, seed,
                                   [(m, shape), (test_points, None)], record)
    if not fitted:
        raise NumericError("all transfer-risk draws failed")
    risk, se = _mean_se(losses.ravel())
    return TransferRiskEstimate(risk, se, hits / losses.size, failures=task_draws - fitted)


def query_split_accuracy(
    env: EnvironmentSpec,
    phi: FeatureMap,
    base_learner: BaseLearner,
    shape: EpisodeShape,
    episodes: int,
    seed: int,
) -> tuple[float, float]:
    """Mean 0-1 accuracy on the query split over ``episodes`` fresh test
    episodes, and its standard error; a failed fit raises. The episodes
    are fitted and scored in bounded blocks (``_fresh_episode_scores``)."""
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    plan = [(_episode_shape(shape).m(env.k), shape)]
    strict = lambda batch, p: require_fitted(base_learner(batch, p))
    accs = np.empty(episodes)

    def record(rows, scores, ys, hits) -> None:
        accs[rows] = hits.mean(axis=-1)

    _fresh_episode_scores(env, phi, strict, episodes, seed, plan, record)
    return _mean_se(accs)


@dataclass(frozen=True)
class ExpectedComplexities:
    """Environment-level complexity inputs, averaged over outer draws.

    Each Gaussian complexity is sampled in the row space
    (``gaussian_complexity_rowspace``): the same distribution as
    ``gaussian_complexity_mc``'s, but another random stream, so it differs
    from ``estimate --estimator gaussian`` on the same matrix. Over the K
    draws of a level that succeeded, each ``*_se`` field is the standard
    error of its mean as an expectation over draws: the sample standard
    deviation of the K per-draw values over sqrt(K), which covers both the
    draw-to-draw spread and the Monte Carlo noise. At K = 1 there is no
    spread to measure, so ``gamma_*_se`` is the inner Monte Carlo SE and
    ``entropy_*_se`` is 0 (an entropy integral has no Monte Carlo noise).
    ``gamma_*_mc_se`` is the inner Monte Carlo SE alone, sqrt(sum of the
    draws' squared standard errors) / K. All are reported, never bounded on.
    """

    gamma_meta: float
    gamma_task: float
    entropy_meta: float
    entropy_task: float
    gamma_meta_se: float
    gamma_task_se: float
    entropy_meta_se: float
    entropy_task_se: float
    gamma_meta_mc_se: float
    gamma_task_mc_se: float


def _reasons(counts: dict[str, int]) -> str:
    """Failure counts by exception type, as "NumericError: 3", or "none"."""
    return ", ".join(f"{name}: {count}" for name, count in counts.items()) or "none"


def estimate_expected_complexities(config: ExperimentConfig, family: FeatureFamily, base_learner: BaseLearner,
                                   seed: int) -> tuple[ExpectedComplexities, dict[str, dict[str, int]]]:
    """Average complexity inputs over fresh outer draws.

    A draw whose fit fails (a NumericError, e.g. a class missing from an
    i.i.d. episode) is skipped and counted; any other error is raised. If
    every draw of a level fails, NumericError is raised with both levels'
    counts. The single-task draws are fitted as one batch. Also returns
    the skipped draws of each level by exception type, as
    ``failed_outer_draws_task`` and ``failed_outer_draws_meta``.
    """
    env, bound = config.environment, config.bound
    policy = SeedPolicy(seed)
    task_root, meta_root = SeedPolicy(policy.child(0)), SeedPolicy(policy.child(1))

    def reduce(A, mc_seed: int):
        """Restriction A's (max(0, Gaussian complexity), entropy integral,
        Monte Carlo SE), or A itself if it is a failed fit's NumericError."""
        if isinstance(A, NumericError):
            return A
        gamma = gaussian_complexity_rowspace(A, config.mc_draws, mc_seed)
        return max(0.0, gamma.mean), entropy_integral(A, config.dudley_levels), gamma.std_error

    def level(name: str, draws) -> tuple[dict[str, int], dict[str, float]]:
        """Level ``name``'s failed fits by type, and its ExpectedComplexities
        fields (none if every draw failed) from its draws' ``reduce`` values:
        the means, summed in draw order, and SEs."""
        kept, failed = [], Counter()
        for stats in draws:
            if isinstance(stats, NumericError):
                failed[type(stats).__name__] += 1
            else:
                kept.append(stats)
        failed = dict(sorted(failed.items()))
        if not kept:
            return failed, {}
        gammas, entropies, ses = zip(*kept)
        k = len(kept)
        mc_se = math.sqrt(sum(se * se for se in ses)) / k
        return failed, {f"gamma_{name}": sum(gammas) / k, f"entropy_{name}": sum(entropies) / k,
                        f"gamma_{name}_se": _mean_se(gammas)[1] if k > 1 else mc_se,
                        f"entropy_{name}_se": _mean_se(entropies)[1], f"gamma_{name}_mc_se": mc_se}

    def meta_draw(j: int):
        """Meta draw j, reduced: its meta-sample and restriction die on return."""
        unit = SeedPolicy(meta_root.child(j))
        batch = sample_meta_sample(env, bound.n, bound.m, unit.child(0), config.episode_shape)
        try:
            A = build_pi1f_restriction(batch, family, base_learner, bound.k)
        except NumericError as exc:  # kept as a value, as episode_restrictions keeps a task's;
            return exc.with_traceback(None)  # its traceback would keep the draw's frames alive
        return reduce(A, unit.child(1))

    # Each outer draw is reduced where it is drawn, so set-up holds one meta
    # restriction at a time, and none of the task level's during the meta level.
    tasks = sample_meta_sample(env, config.outer_task_draws, bound.m, task_root.master_seed, config.episode_shape)
    task_draws = [reduce(A, SeedPolicy(task_root.child(j)).child(2))
                  for j, A in enumerate(episode_restrictions(tasks, family, base_learner, bound.k))]
    del tasks
    task_failures, task = level("task", task_draws)
    meta_failures, meta = level("meta", map(meta_draw, range(config.outer_meta_draws)))
    if not task or not meta:
        raise NumericError("every outer draw of a level failed while estimating expected complexities "
                           f"(task level: {_reasons(task_failures)}; meta level: {_reasons(meta_failures)})")
    return ExpectedComplexities(**task, **meta), {"failed_outer_draws_task": task_failures,
                                                  "failed_outer_draws_meta": meta_failures}


@dataclass(frozen=True)
class ResultRow:
    trial: int
    avg_empirical_loss: float
    transfer_risk: float
    transfer_risk_se: float
    bound_vc: float
    bound_gaussian: float
    bound_covering: float
    bound_surrogate: float
    holds_vc: bool
    holds_gaussian: bool
    holds_covering: bool
    holds_surrogate: bool
    test_accuracy: float
    vacuous_vc: bool
    elapsed_ms: float


@dataclass(frozen=True)
class SweepRow:
    """One sweep CSV row: an axis value's run-summary metrics, or, with
    status "error", the reason it has none."""
    axis: str
    value: float
    status: str
    trials: int = 0
    mean_test_accuracy: Optional[float] = None
    test_accuracy_se: Optional[float] = None
    mean_avg_empirical_loss: Optional[float] = None
    mean_bound_vc: Optional[float] = None
    mean_bound_gaussian: Optional[float] = None
    mean_bound_covering: Optional[float] = None
    mean_bound_surrogate: Optional[float] = None
    hold_freq_vc: Optional[float] = None
    hold_freq_gaussian: Optional[float] = None
    hold_freq_covering: Optional[float] = None
    hold_freq_surrogate: Optional[float] = None
    error: str = ""


def _csv_cell(value) -> str:
    """A CSV field: None empty, text on one line with commas as
    semicolons, bools as 0/1, ints as written, floats to 9 significant
    digits."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value.replace(",", ";").replace("\r", " ").replace("\n", " ")
    return str(int(value)) if isinstance(value, int) else f"{float(value):.9g}"


def bound_holds(transfer_risk: float, transfer_risk_se: float, bound_total: float) -> bool:
    """The validity check allows 2 standard errors of estimator noise
    before declaring a violation."""
    return transfer_risk <= bound_total + 2.0 * transfer_risk_se


def _run_trial(trial: int, config: ExperimentConfig, family: FeatureFamily,
               base_learner: BaseLearner, expected: ExpectedComplexities,
               trial_seed: int) -> ResultRow:
    start = time.perf_counter()
    env, bound = config.environment, config.bound
    unit = SeedPolicy(trial_seed)

    meta = sample_meta_sample(env, bound.n, bound.m, unit.child(0), config.episode_shape)
    selection = meta_erm_select(meta, family, base_learner, bound.rho, config.loss_kind)
    chosen = selection.chosen
    avg_margin = float(selection.margin[selection.index].mean())
    avg_multi = float(selection.multi_margin[selection.index].mean())

    risk = estimate_transfer_risk(
        env, chosen, base_learner, bound.rho, bound.m,
        config.outer_task_draws, config.test_points_per_task,
        unit.child(1), config.episode_shape,
    )

    reports = {kind: transfer_bound(kind, bound, avg_margin_loss=avg_margin, avg_multimargin_loss=avg_multi,
                                    gamma_meta=expected.gamma_meta, gamma_task=expected.gamma_task,
                                    entropy_meta=expected.entropy_meta, entropy_task=expected.entropy_task)
               for kind in BOUND_KINDS}

    if config.episode_shape is not None:
        accuracy, _ = query_split_accuracy(
            env, chosen, base_learner, config.episode_shape, config.test_episodes, unit.child(2))
    else:
        accuracy = risk.accuracy

    elapsed_ms = (time.perf_counter() - start) * 1000.0 if config.record_timing else 0.0
    return ResultRow(
        trial=trial,
        avg_empirical_loss=avg_margin,
        transfer_risk=risk.risk,
        transfer_risk_se=risk.std_error,
        **{f"bound_{kind}": report.total for kind, report in reports.items()},
        **{f"holds_{kind}": bound_holds(risk.risk, risk.std_error, report.total)
           for kind, report in reports.items()},
        test_accuracy=accuracy,
        vacuous_vc=reports["vc"].vacuous,
        elapsed_ms=elapsed_ms,
    )


def bound_validity_experiment(config: ExperimentConfig) -> tuple[list[ResultRow], dict]:
    """Run all trials; returns rows in trial order plus a summary with
    the hold frequency per bound kind.

    A trial fails only by a failed fit (NumericError; other errors raise).
    Failed trials leave the rows and frequency denominators, though
    ``hold_freq_<kind>_attempted`` counts them as not held, and are counted
    in total and by type (``failed_by_reason``); if all fail, NumericError
    is raised with those counts. The summary also counts set-up's skipped
    outer draws by type per level (``failed_outer_draws_{task,meta}``).
    """
    root = SeedPolicy(config.seed)
    family = build_family(config.family, config.environment.d_raw, root.child(0))
    base_learner = make_base_learner(config.learner, config.bound.rho, config.bound.b)
    expected, outer_failures = estimate_expected_complexities(config, family, base_learner, root.child(2))
    trials_root = SeedPolicy(root.child(1))

    def run(t: int) -> ResultRow | str:
        """The trial's row, or the name of the exception that failed it."""
        try:
            return _run_trial(t, config, family, base_learner, expected, trials_root.child(t))
        except NumericError as exc:  # any other error is raised: bad input fails the run
            return type(exc).__name__

    if config.workers == 1:  # a pool thread's own malloc arena costs 12% peak RSS
        results = [run(t) for t in range(config.trials)]
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(run, range(config.trials)))

    rows = [r for r in results if isinstance(r, ResultRow)]
    reasons = dict(sorted(Counter(r for r in results if isinstance(r, str)).items()))
    if not rows:
        raise NumericError(f"all {config.trials} trials failed ({_reasons(reasons)})")
    summary: dict = {
        "trials": config.trials,
        "failed_trials": config.trials - len(rows),
        "failed_by_reason": reasons,
        **outer_failures,
        "expected_complexities": asdict(expected),
    }
    for kind in BOUND_KINDS:
        flags = [getattr(r, f"holds_{kind}") for r in rows]
        summary[f"hold_freq_{kind}"] = sum(flags) / len(rows)
        summary[f"hold_freq_{kind}_attempted"] = sum(flags) / config.trials  # a failed trial does not hold
        bounds = [getattr(r, f"bound_{kind}") for r in rows]
        summary[f"mean_bound_{kind}"] = float(np.mean(bounds))
        summary[f"vacuous_freq_{kind}"] = sum(bound >= 1.0 for bound in bounds) / len(rows)
    summary["mean_avg_empirical_loss"] = float(np.mean([r.avg_empirical_loss for r in rows]))
    summary["mean_transfer_risk"] = float(np.mean([r.transfer_risk for r in rows]))
    summary["mean_test_accuracy"], summary["test_accuracy_se"] = _mean_se([r.test_accuracy for r in rows])
    return rows, summary


def write_result_rows(rows: Sequence, path: str, row_type: type = ResultRow) -> None:
    """Write ``rows`` of dataclass ``row_type`` as a CSV: a header of its
    field names, then one line per row. The type is passed apart from the
    rows so that an empty list still writes its header."""
    names = [f.name for f in fields(row_type)]
    with open(path, "w", newline="") as handle:
        handle.write(",".join(names) + "\n")
        for row in rows:
            handle.write(",".join(_csv_cell(getattr(row, name)) for name in names) + "\n")


def _apply_axis(config: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    """``config`` with a finite ``value`` set on ``axis``, one of SWEEP_AXES."""
    if axis == "rho":
        if value <= 0:
            raise ValueError(f"axis rho needs a positive value, got {value}")
        return replace(config, bound=replace(config.bound, rho=float(value)))
    if value != int(value) or value < 1:
        raise ValueError(f"axis {axis} needs a positive integer, got {value}")
    value = int(value)
    if axis == "n":
        return replace(config, bound=replace(config.bound, n=value))
    if axis == "m":
        if config.episode_shape is not None:
            raise ValueError("axis m requires unsplit episodes; sweep s instead")
        return replace(config, bound=replace(config.bound, m=value))
    # axis s
    if config.episode_shape is None:
        raise ValueError("axis s requires an episode shape in the config")
    shape = EpisodeShape(value, config.episode_shape.q)
    return replace(config, episode_shape=shape, bound=replace(config.bound, m=shape.m(config.bound.k)))


def sweep(config: ExperimentConfig, axis: str, values: Sequence[float]) -> list[SweepRow]:
    """Run one bound-validity experiment per axis value.

    A non-finite value raises ValueError before any run. Other invalid
    values, and values at which every trial fails, produce a row with
    status "error" and the sweep continues. Rows come back in input
    order.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    bad = [value for value in values if not math.isfinite(value)]
    if bad:
        raise ValueError(f"sweep values must be finite, got {bad}")
    out = []
    for value in values:
        try:
            _, summary = bound_validity_experiment(_apply_axis(config, axis, value))
        except (ValueError, NumericError) as exc:
            out.append(SweepRow(axis, float(value), "error", error=str(exc)))
            continue
        # the metric fields are the ones that default to None
        metrics = {f.name: summary[f.name] for f in fields(SweepRow) if f.default is None}
        out.append(SweepRow(axis, float(value), "ok", summary["trials"] - summary["failed_trials"], **metrics))
    return out
