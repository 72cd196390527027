"""Domain types and seeded samplers for synthetic task environments.

The sampling hierarchy is: an environment is a distribution over
classification tasks, a task is a distribution over labeled examples,
and a meta-sample is a collection of episodes drawn from independently
sampled tasks. Tasks are isotropic Gaussian mixtures around per-task
class prototypes; the prototypes themselves are drawn from a centered
Gaussian prior whose scale is set by the environment.

Every sampler is a pure function of (spec, seed). Child seeds are
derived from a master seed with a splitmix64-style mixer so that
results do not depend on execution order or parallelism degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

MIN_NOISE_SIGMA = 1e-12

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class SeedPolicy:
    """Derives independent child seeds from a master seed.

    child(i) is a strong 64-bit mix of (master_seed, i), so identical
    (master_seed, index) pairs always yield identical child streams,
    independent of the order units of work are executed in.
    """

    master_seed: int

    def child(self, index: int) -> int:
        if index < 0:
            raise ValueError(f"unit index must be >= 0, got {index}")
        return _splitmix64(_splitmix64(self.master_seed & _MASK64) ^ (index & _MASK64))


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    out.setflags(write=False)
    return out


def _checked_arrays(xs, ys, k: int, split: Optional[int], batched: bool) -> tuple[np.ndarray, np.ndarray]:
    """Validated read-only float64 inputs and int64 labels of one episode
    (xs (m, d), ys (m,)) or of a stack of them (xs (n, m, d), ys (n, m))."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.int64)
    lead = 1 if batched else 0
    if xs.ndim != lead + 2 or ys.ndim != lead + 1 or xs.shape[:-1] != ys.shape:
        raise ValueError("xs must be (n, m, d) and ys must be (n, m)" if batched
                         else "xs must be (m, d) and ys must be (m,)")
    if batched and xs.shape[0] < 1:
        raise ValueError("a batch needs at least one episode")
    m = xs.shape[-2]
    if m < 1:
        raise ValueError("episode must contain at least one example")
    if not np.all(np.isfinite(xs)):
        raise ValueError("episode inputs must be finite")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if ys.min() < 1 or ys.max() > k:
        raise ValueError(f"labels must lie in 1..{k}")
    if split is not None:
        s = int(split)
        if s < 1 or k * s >= m:
            raise ValueError(f"support size s={s} requires k*s < m={m}")
        if (m - k * s) % k != 0:
            raise ValueError(f"m={m} must equal k*(s+q) for integer q >= 1")
    xs.setflags(write=False)
    ys.setflags(write=False)
    return xs, ys


class _Portions:
    """Support and query portions of an Episode or of every episode of an
    EpisodeBatch: with a split s, the first k*s examples are support."""

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(xs, ys) of the support portion; everything if unsplit."""
        if self.split is None:
            return self.xs, self.ys
        cut = self.k * self.split
        return self.xs[..., :cut, :], self.ys[..., :cut]

    def query(self) -> tuple[np.ndarray, np.ndarray]:
        """(xs, ys) of the query portion; everything if unsplit."""
        if self.split is None:
            return self.xs, self.ys
        cut = self.k * self.split
        return self.xs[..., cut:, :], self.ys[..., cut:]


@dataclass(frozen=True, eq=False)
class Episode(_Portions):
    """m labeled examples from one task, stored as arrays.

    xs has shape (m, d_raw) and ys holds integer labels in 1..k. If
    ``split`` is set to a support size s, the first k*s examples are
    the support portion and the remaining k*q are query, with
    m = k*(s+q).
    """

    xs: np.ndarray
    ys: np.ndarray
    k: int
    split: Optional[int] = None

    def __post_init__(self) -> None:
        xs, ys = _checked_arrays(self.xs, self.ys, self.k, self.split, batched=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def m(self) -> int:
        return self.xs.shape[0]


@dataclass(frozen=True, eq=False)
class EpisodeBatch(_Portions):
    """n episodes of one shape, stacked along a leading episode axis.

    xs has shape (n, m, d_raw) and ys (n, m), labels in 1..k; ``split``
    means what it means for an Episode and holds for every episode. A
    meta-sample is a batch whose episodes come from n independently
    drawn tasks. Inputs and labels are validated once, on the stack.
    Indexing gives episode i as an Episode.
    """

    xs: np.ndarray
    ys: np.ndarray
    k: int
    split: Optional[int] = None

    def __post_init__(self) -> None:
        xs, ys = _checked_arrays(self.xs, self.ys, self.k, self.split, batched=True)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @classmethod
    def stack(cls, episodes) -> "EpisodeBatch":
        """Stack episodes that share m, k and split."""
        eps = tuple(episodes)
        if not eps:
            raise ValueError("a batch needs at least one episode")
        first = eps[0]
        if any((e.m, e.k, e.split) != (first.m, first.k, first.split) for e in eps):
            raise ValueError("all episodes must share identical m, k and split")
        return cls(np.stack([e.xs for e in eps]), np.stack([e.ys for e in eps]), first.k, first.split)

    @classmethod
    def of(cls, data: "Episode | EpisodeBatch") -> "EpisodeBatch":
        """``data`` itself if it is a batch, else a batch of that one episode."""
        return data if isinstance(data, EpisodeBatch) else cls.stack([data])

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def m(self) -> int:
        return self.xs.shape[1]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> Episode:
        return Episode(xs=self.xs[i], ys=self.ys[i], k=self.k, split=self.split)


@dataclass(frozen=True, eq=False)
class TaskSpec:
    """A task: Gaussian clusters around k prototypes with class weights."""

    prototypes: np.ndarray
    noise_sigma: float
    class_probs: np.ndarray

    def __post_init__(self) -> None:
        protos = _as_readonly(self.prototypes)
        if protos.ndim != 2:
            raise ValueError("prototypes must be a (k, d_raw) array")
        probs = _as_readonly(self.class_probs)
        if probs.ndim != 1 or probs.shape[0] != protos.shape[0]:
            raise ValueError("class_probs must have one entry per prototype")
        if np.any(probs < 0) or abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ValueError("class_probs must be nonnegative and sum to 1")
        sigma = max(float(self.noise_sigma), MIN_NOISE_SIGMA)
        object.__setattr__(self, "prototypes", protos)
        object.__setattr__(self, "class_probs", probs)
        object.__setattr__(self, "noise_sigma", sigma)

    @property
    def k(self) -> int:
        return self.prototypes.shape[0]

    @property
    def d_raw(self) -> int:
        return self.prototypes.shape[1]


@dataclass(frozen=True)
class EnvironmentSpec:
    """Distribution over tasks: prototype prior scale plus noise level."""

    d_raw: int
    k: int
    prototype_scale: float
    noise_sigma: float
    balanced: bool = True

    def __post_init__(self) -> None:
        if self.d_raw < 1 or self.k < 1:
            raise ValueError("d_raw and k must be positive integers")
        if not (math.isfinite(self.prototype_scale) and self.prototype_scale >= 0):
            raise ValueError(f"prototype_scale must be finite and >= 0, got {self.prototype_scale}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma > 0):
            raise ValueError(f"noise_sigma must be finite and > 0, got {self.noise_sigma}")


def _task_arrays(env: EnvironmentSpec, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Prototypes (k, d_raw) and class probabilities (k,) of one task."""
    rng = np.random.default_rng(seed)
    protos = rng.normal(0.0, 1.0, size=(env.k, env.d_raw)) * env.prototype_scale
    if env.balanced:
        probs = np.full(env.k, 1.0 / env.k)
    else:
        probs = rng.dirichlet(np.ones(env.k))
        probs = probs / probs.sum()
    return protos, probs


def _kway_labels(k: int, s: int, q: int) -> np.ndarray:
    """Labels of a k-way episode: s then q per class, each block class-major."""
    classes = np.arange(1, k + 1)
    return np.concatenate([np.repeat(classes, s), np.repeat(classes, q)])


def _episode_arrays(protos: np.ndarray, probs: np.ndarray, sigma: float, m: int,
                    ys: Optional[np.ndarray], seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(xs, ys) of one episode: the given labels, or m i.i.d. labels drawn
    from probs when ys is None, each point its prototype plus noise."""
    # A k-way episode's support and query noise come from one draw; the
    # generator yields the same numbers as drawing the two blocks in turn.
    rng = np.random.default_rng(seed)
    if ys is None:
        ys = rng.choice(probs.shape[0], size=m, p=probs) + 1
    noise = rng.normal(0.0, sigma, size=(ys.shape[0], protos.shape[1]))
    return protos[ys - 1] + noise, ys


def sample_task(env: EnvironmentSpec, seed: int) -> TaskSpec:
    """Draw one task from the environment.

    Prototypes are i.i.d. centered Gaussian with per-coordinate std
    ``prototype_scale``; class probabilities are uniform when the
    environment is balanced and a flat Dirichlet draw otherwise.
    """
    protos, probs = _task_arrays(env, seed)
    return TaskSpec(prototypes=protos, noise_sigma=env.noise_sigma, class_probs=probs)


def sample_episode(task: TaskSpec, m: int, seed: int) -> Episode:
    """Draw m i.i.d. labeled examples from the task."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    xs, ys = _episode_arrays(task.prototypes, task.class_probs, task.noise_sigma, m, None, seed)
    return Episode(xs=xs, ys=ys, k=task.k)


def sample_kway_sshot_episode(task: TaskSpec, k: int, s: int, q: int, seed: int) -> Episode:
    """Draw an episode with exactly s support and q query examples per class.

    The first k*s examples are the support portion (class-major order),
    the remaining k*q the query portion; m = k*(s+q).
    """
    if task.k != k:
        raise ValueError(f"task has {task.k} classes, expected {k}")
    if s < 1 or q < 1:
        raise ValueError(f"s and q must be >= 1, got s={s}, q={q}")
    xs, ys = _episode_arrays(task.prototypes, task.class_probs, task.noise_sigma, k * (s + q),
                             _kway_labels(k, s, q), seed)
    return Episode(xs=xs, ys=ys, k=k, split=s)


# One episode per task: its size m, and (s, q) for a k-way s-shot
# episode with m = k*(s+q) or None for m i.i.d. examples.
EpisodePlan = tuple[int, Optional[tuple[int, int]]]


def sample_episode_batches(
    env: EnvironmentSpec,
    count: int,
    seed: int,
    plan: Sequence[EpisodePlan],
) -> tuple[EpisodeBatch, ...]:
    """Draw ``count`` independent tasks and, from each, one episode per
    plan entry; returns one batch per plan entry.

    Unit l derives its seeds from child l of ``seed``: the task from
    child 0, the episode of plan entry i from child i+1. Each batch is
    bit-identical to stacking ``sample_episode`` or
    ``sample_kway_sshot_episode`` on ``sample_task`` with those seeds,
    but no per-task or per-episode object is built.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    for m, shape in plan:
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if shape is not None:
            s, q = shape
            if s < 1 or q < 1:
                raise ValueError(f"s and q must be >= 1, got s={s}, q={q}")
            if m != env.k * (s + q):
                raise ValueError(f"m={m} must equal k*(s+q)={env.k * (s + q)}")
    sigma = max(float(env.noise_sigma), MIN_NOISE_SIGMA)  # as TaskSpec clamps it
    labels = [None if shape is None else _kway_labels(env.k, *shape) for _, shape in plan]
    xs = [np.empty((count, m, env.d_raw)) for m, _ in plan]
    ys = [np.empty((count, m), dtype=np.int64) for m, _ in plan]
    policy = SeedPolicy(seed)
    for l in range(count):
        unit = SeedPolicy(policy.child(l))
        protos, probs = _task_arrays(env, unit.child(0))
        for i, (m, _) in enumerate(plan):
            xs[i][l], ys[i][l] = _episode_arrays(protos, probs, sigma, m, labels[i], unit.child(i + 1))
    return tuple(EpisodeBatch(x, y, env.k, None if shape is None else shape[0])
                 for x, y, (_, shape) in zip(xs, ys, plan))


def sample_meta_sample(
    env: EnvironmentSpec,
    n: int,
    m: int,
    seed: int,
    shape: Optional[tuple[int, int]] = None,
) -> EpisodeBatch:
    """Draw n independent (task, episode) pairs; only the episodes are kept.

    With ``shape=(s, q)`` the episodes are k-way s-shot with m = k*(s+q);
    otherwise each episode is m i.i.d. draws from its task.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return sample_episode_batches(env, n, seed, [(m, shape)])[0]
