"""Domain types and seeded samplers for synthetic task environments.

The sampling hierarchy is: an environment is a distribution over
classification tasks, a task is a distribution over labeled examples,
and a meta-sample is a collection of episodes drawn from independently
sampled tasks. Tasks are isotropic Gaussian mixtures around per-task
class prototypes; the prototypes themselves are drawn from a centered
Gaussian prior whose scale is set by the environment.

Every sampler is a pure function of (spec, seed). Child seeds are
derived from a master seed with a splitmix64-style mixer so that
results do not depend on execution order or parallelism degree. Each
task or episode draws from the stream ``np.random.default_rng(seed)``
would give; the samplers derive every stream's PCG64 state for a whole
batch of seeds at once and set one generator to each in turn.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

MIN_NOISE_SIGMA = 1e-12

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z):
    """splitmix64 of a Python int, or of each entry of a uint64 array."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _child_seeds(masters, indices):
    """Child ``indices`` of the master seeds ``masters``: Python ints, or
    uint64 arrays (with a Python int) that broadcast together."""
    return _splitmix64(_splitmix64(masters & _MASK64) ^ (indices & _MASK64))


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
        return _child_seeds(int(self.master_seed), int(index))


def _hash_constants(init: int, mult: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiply) constants of ``steps`` successive SeedSequence
    hash steps: each step multiplies the running constant by ``mult``."""
    consts = [init]
    for _ in range(steps):
        consts.append((consts[-1] * mult) & _MASK32)
    return np.array(consts[:-1], dtype=np.uint32)[:, None], np.array(consts[1:], dtype=np.uint32)[:, None]


# numpy's SeedSequence with its pool of four 32-bit words: 4 hash steps
# take in the entropy and 12 mix every word into every other; 8 hash
# steps with their own constants read out 4 uint64 words. Then PCG64's
# default 128-bit LCG multiplier.
_POOL_XOR, _POOL_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUT_XOR, _OUT_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT_HI, _PCG64_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def _seed_sequence_state(seeds: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(s).generate_state(4, np.uint64)`` of each
    uint64 seed s, as an (n, 4) array.

    A seed's entropy is its one or two little-endian 32-bit words; the
    pool has four words and a missing word hashes like a zero word, so
    every seed takes the two-word path.
    """
    def hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
        values = (values ^ xor) * mul
        return values ^ (values >> np.uint32(16))

    seeds = np.asarray(seeds, dtype=np.uint64)
    words = np.zeros((4, seeds.shape[0]), dtype=np.uint32)
    words[0] = seeds & _MASK32
    words[1] = seeds >> 32
    pool = hashmix(words, _POOL_XOR[:4], _POOL_MUL[:4])
    for src in range(4):
        steps = slice(4 + 3 * src, 7 + 3 * src)
        dst = [d for d in range(4) if d != src]
        mixed = pool[dst] * _MIX_L - hashmix(pool[src], _POOL_XOR[steps], _POOL_MUL[steps]) * _MIX_R
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    out = hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUT_XOR, _OUT_MUL).astype(np.uint64)
    return (out[0::2] | (out[1::2] << np.uint64(32))).T


def _mul128(hi: np.ndarray, lo: np.ndarray, c_hi: int, c_lo: int) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) * (c_hi, c_lo) mod 2**128, with uint64 halves."""
    a0, a1 = lo & _MASK32, lo >> 32
    b0, b1 = c_lo & _MASK32, c_lo >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    carry = ((p00 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)) >> 32
    lo_hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + carry
    return lo_hi + lo * c_hi + hi * c_lo, lo * c_lo


def _stream_states(seeds: np.ndarray) -> list[dict]:
    """The bit-generator state ``np.random.default_rng(s)`` starts in, for
    each uint64 seed s.

    PCG64 seeds from the seed sequence's four words (initial state, then
    stream) by srandom: inc = 2*stream + 1, state = (inc + initial)*M + inc.
    """
    init_hi, init_lo, seq_hi, seq_lo = _seed_sequence_state(seeds).T
    inc_hi = (seq_hi << 1) | (seq_lo >> 63)
    inc_lo = (seq_lo << 1) | 1
    lo = inc_lo + init_lo
    hi = inc_hi + init_hi + (lo < inc_lo)
    hi, lo = _mul128(hi, lo, _PCG64_MULT_HI, _PCG64_MULT_LO)
    state_lo = lo + inc_lo
    state_hi = hi + inc_hi + (state_lo < lo)
    return [{"bit_generator": "PCG64", "state": {"state": sh << 64 | sl, "inc": ih << 64 | il},
             "has_uint32": 0, "uinteger": 0}
            for sh, sl, ih, il in zip(state_hi.tolist(), state_lo.tolist(), inc_hi.tolist(), inc_lo.tolist())]


def _one_stream(seed: int) -> list[dict]:
    """The stream state of one caller's seed, which must lie in [0, 2**64)."""
    seed = operator.index(seed)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return _stream_states(np.array([seed], dtype=np.uint64))


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


def _draw_tasks(env: EnvironmentSpec, states: Sequence[dict]) -> tuple[np.ndarray, np.ndarray]:
    """Prototypes (n, k, d_raw) and class probabilities (n, k) of the
    task drawn from each of n stream states."""
    n = len(states)
    protos = np.empty((n, env.k, env.d_raw))
    probs = np.full((n, env.k), 1.0 / env.k)
    rng = np.random.Generator(np.random.PCG64(0))
    for l, state in enumerate(states):
        rng.bit_generator.state = state
        rng.standard_normal(out=protos[l])
        if not env.balanced:
            p = rng.dirichlet(np.ones(env.k))
            probs[l] = p / p.sum()
    protos *= env.prototype_scale
    return protos, probs


def _kway_labels(k: int, s: int, q: int) -> np.ndarray:
    """Labels of a k-way episode: s then q per class, each block class-major."""
    classes = np.arange(1, k + 1)
    return np.concatenate([np.repeat(classes, s), np.repeat(classes, q)])


def _draw_episodes(protos: np.ndarray, probs: np.ndarray, sigma: float, m: int,
                   labels: Optional[np.ndarray], states: Sequence[dict]) -> tuple[np.ndarray, np.ndarray]:
    """(xs (n, m, d_raw), ys (n, m)) of one episode per task l, drawn from
    stream states[l]: the given labels, or m i.i.d. labels drawn from probs[l]
    when labels is None, each point its prototype plus noise."""
    # A k-way episode's support and query noise come from one draw; the
    # generator yields the same numbers as drawing the two blocks in turn.
    n, k, d = protos.shape
    xs = np.empty((n, m, d))
    ys = np.empty((n, m), dtype=np.int64)
    if labels is not None:
        ys[:] = labels
    rng = np.random.Generator(np.random.PCG64(0))
    for l, state in enumerate(states):
        rng.bit_generator.state = state
        if labels is None:
            ys[l] = rng.choice(k, size=m, p=probs[l]) + 1
        rng.standard_normal(out=xs[l])
    xs *= sigma
    xs += protos[np.arange(n)[:, None], ys - 1]
    return xs, ys


def sample_task(env: EnvironmentSpec, seed: int) -> TaskSpec:
    """Draw one task from the environment.

    Prototypes are i.i.d. centered Gaussian with per-coordinate std
    ``prototype_scale``; class probabilities are uniform when the
    environment is balanced and a flat Dirichlet draw otherwise. The
    seed must lie in [0, 2**64).
    """
    protos, probs = _draw_tasks(env, _one_stream(seed))
    return TaskSpec(prototypes=protos[0], noise_sigma=env.noise_sigma, class_probs=probs[0])


def sample_episode(task: TaskSpec, m: int, seed: int) -> Episode:
    """Draw m i.i.d. labeled examples from the task."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    xs, ys = _draw_episodes(task.prototypes[None], task.class_probs[None], task.noise_sigma, m,
                            None, _one_stream(seed))
    return Episode(xs=xs[0], ys=ys[0], k=task.k)


def sample_kway_sshot_episode(task: TaskSpec, k: int, s: int, q: int, seed: int) -> Episode:
    """Draw an episode with exactly s support and q query examples per class.

    The first k*s examples are the support portion (class-major order),
    the remaining k*q the query portion; m = k*(s+q).
    """
    if task.k != k:
        raise ValueError(f"task has {task.k} classes, expected {k}")
    if s < 1 or q < 1:
        raise ValueError(f"s and q must be >= 1, got s={s}, q={q}")
    xs, ys = _draw_episodes(task.prototypes[None], task.class_probs[None], task.noise_sigma,
                            k * (s + q), _kway_labels(k, s, q), _one_stream(seed))
    return Episode(xs=xs[0], ys=ys[0], k=k, split=s)


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
    units = _child_seeds(int(seed), np.arange(count, dtype=np.uint64))
    seeds = _child_seeds(units, np.arange(len(plan) + 1, dtype=np.uint64)[:, None])
    states = _stream_states(seeds.ravel())
    streams = [states[j * count:(j + 1) * count] for j in range(len(plan) + 1)]
    protos, probs = _draw_tasks(env, streams[0])
    batches = []
    for i, (m, shape) in enumerate(plan):
        labels = None if shape is None else _kway_labels(env.k, *shape)
        xs, ys = _draw_episodes(protos, probs, sigma, m, labels, streams[i + 1])
        batches.append(EpisodeBatch(xs, ys, env.k, None if shape is None else shape[0]))
    return tuple(batches)


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
