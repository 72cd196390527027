"""Domain types and seeded samplers for synthetic task environments.

The sampling hierarchy is: an environment is a distribution over
classification tasks, a task is a distribution over labeled examples,
and a meta-sample is a collection of episodes drawn from independently
sampled tasks. Tasks are isotropic Gaussian mixtures around per-task
class prototypes; the prototypes themselves are drawn from a centered
Gaussian prior whose scale is set by the environment. A k-way s-shot
episode's geometry has one owner, ``EpisodeShape``: its size m = k*(s+q)
and its labels, support portion first. ``EpisodeBatch`` carries the shape.

Every sampler is a pure function of (spec, seed). Child seeds are
derived from a master seed with a splitmix64-style mixer so that
results do not depend on execution order or parallelism degree. Each
task or episode draws from the stream ``np.random.default_rng(seed)``
would give; the samplers derive the seed words of every stream of a block
of units at once and set one generator to each stream's PCG64 state in
turn.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
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
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


def _stream_states(words: np.ndarray) -> list[dict]:
    """The bit-generator state ``np.random.default_rng(s)`` starts in, for
    each row of ``_seed_sequence_state`` words of a seed s.

    PCG64 seeds from the seed sequence's four words (initial state, then
    stream) by srandom: inc = 2*stream + 1, state = (inc + initial)*M + inc,
    both mod 2**128.
    """
    states = []
    for init_hi, init_lo, seq_hi, seq_lo in words.tolist():
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((inc + (init_hi << 64 | init_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _seed64(seed: int) -> int:
    """A caller's seed, which must lie in [0, 2**64)."""
    seed = operator.index(seed)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def _one_stream(seed: int) -> tuple[list[dict], np.random.Generator]:
    """The stream state of one caller's seed and a generator to draw it
    with."""
    states = _stream_states(_seed_sequence_state(np.array([_seed64(seed)], dtype=np.uint64)))
    return states, np.random.Generator(np.random.PCG64(0))


def _as_readonly(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class EpisodeShape:
    """A k-way s-shot episode: s support and q query points per class,
    support portion first, so m = k*(s+q). Unpacks as ``s, q = shape``."""

    s: int
    q: int

    def __post_init__(self) -> None:
        if self.s < 1 or self.q < 1:
            raise ValueError(f"s and q must be >= 1, got s={self.s}, q={self.q}")

    def __iter__(self):
        return iter((self.s, self.q))

    def m(self, k: int) -> int:
        """The size of a k-way episode of this shape."""
        return k * (self.s + self.q)

    def labels(self, k: int) -> np.ndarray:
        """Labels of a k-way episode: s then q per class, each block class-major."""
        classes = np.arange(1, k + 1)
        return np.concatenate([np.repeat(classes, self.s), np.repeat(classes, self.q)])


def _episode_shape(shape) -> EpisodeShape:
    """``shape`` as an EpisodeShape; an (s, q) pair works too, and a pair
    of the wrong length raises ValueError."""
    s, q = shape
    return EpisodeShape(s, q)


@dataclass(frozen=True, eq=False)
class EpisodeBatch:
    """n episodes of one shape, stacked along a leading episode axis.

    xs has shape (n, m, d_raw) and ys (n, m), labels in 1..k. If
    ``shape`` is set, m must equal ``shape.m(k)``: the first k*s examples
    of every episode are its support portion and the remaining k*q its
    query portion. A meta-sample is a batch whose episodes come from n
    independently drawn tasks; a single episode is a batch with n = 1.
    Inputs and labels are validated once, on the stack.
    """

    xs: np.ndarray
    ys: np.ndarray
    k: int
    shape: Optional[EpisodeShape] = None

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=np.float64)
        ys = np.asarray(self.ys, dtype=np.int64)
        if xs.ndim != 3 or ys.ndim != 2 or xs.shape[:-1] != ys.shape:
            raise ValueError("xs must be (n, m, d) and ys must be (n, m)")
        n, m = ys.shape
        if n < 1:
            raise ValueError("a batch needs at least one episode")
        if m < 1:
            raise ValueError("episode must contain at least one example")
        if not np.all(np.isfinite(xs)):
            raise ValueError("episode inputs must be finite")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if ys.min() < 1 or ys.max() > self.k:
            raise ValueError(f"labels must lie in 1..{self.k}")
        if self.shape is not None:
            object.__setattr__(self, "shape", _episode_shape(self.shape))
            if m != self.shape.m(self.k):
                raise ValueError(f"m={m} must equal k*(s+q)={self.shape.m(self.k)}")
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def m(self) -> int:
        return self.xs.shape[1]

    def _cut(self) -> Optional[int]:
        return None if self.shape is None else self.k * self.shape.s

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(xs, ys) of every episode's support portion; everything if unsplit."""
        return self.xs[:, :self._cut()], self.ys[:, :self._cut()]

    def query(self) -> tuple[np.ndarray, np.ndarray]:
        """(xs, ys) of every episode's query portion; everything if unsplit."""
        return self.xs[:, self._cut():], self.ys[:, self._cut():]


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
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma > 0):
            raise ValueError(f"noise_sigma must be finite and > 0, got {self.noise_sigma}")
        object.__setattr__(self, "prototypes", protos)
        object.__setattr__(self, "class_probs", probs)

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


def _draw_tasks(env: EnvironmentSpec, states: Sequence[dict],
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Prototypes (n, k, d_raw) and class probabilities (n, k) of the
    task drawn from each of n stream states, with rng."""
    n = len(states)
    protos = np.empty((n, env.k, env.d_raw))
    probs = np.full((n, env.k), 1.0 / env.k)
    for l, state in enumerate(states):
        rng.bit_generator.state = state
        rng.standard_normal(out=protos[l])
        if not env.balanced:
            p = rng.dirichlet(np.ones(env.k))
            probs[l] = p / p.sum()
    protos *= env.prototype_scale
    return protos, probs


def _draw_episodes(protos: np.ndarray, probs: np.ndarray, sigma: float, m: int,
                   shape: Optional[EpisodeShape], states: Sequence[dict],
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(xs (n, m, d_raw), ys (n, m)) of one episode per task l, drawn with
    rng from stream states[l]: a k-way episode of the given shape, or m i.i.d. labels
    drawn from probs[l] when shape is None, each point its prototype plus noise."""
    # A k-way episode's support and query noise come from one draw; the
    # generator yields the same numbers as drawing the two blocks in turn.
    n, k, d = protos.shape
    xs = np.empty((n, m, d))
    ys = np.empty((n, m), dtype=np.int64)
    if shape is not None:
        ys[:] = shape.labels(k)
    for l, state in enumerate(states):
        rng.bit_generator.state = state
        if shape is None:
            ys[l] = rng.choice(k, size=m, p=probs[l]) + 1
        rng.standard_normal(out=xs[l])
    xs *= sigma
    if shape is None:
        xs += protos[np.arange(n)[:, None], ys - 1]
    else:  # class-major blocks of s, then of q: each gets its prototype, with no gathered copy
        s, q = shape
        for c in range(k):
            xs[:, c * s:(c + 1) * s] += protos[:, c, None]
            xs[:, k * s + c * q:k * s + (c + 1) * q] += protos[:, c, None]
    return xs, ys


def sample_task(env: EnvironmentSpec, seed: int) -> TaskSpec:
    """Draw one task from the environment.

    Prototypes are i.i.d. centered Gaussian with per-coordinate std
    ``prototype_scale``; class probabilities are uniform when the
    environment is balanced and a flat Dirichlet draw otherwise. The
    seed must lie in [0, 2**64).
    """
    protos, probs = _draw_tasks(env, *_one_stream(seed))
    return TaskSpec(prototypes=protos[0], noise_sigma=env.noise_sigma, class_probs=probs[0])


def sample_kway_sshot_episode(task: TaskSpec, k: int, s: int, q: int, seed: int) -> EpisodeBatch:
    """Draw an episode with exactly s support and q query examples per
    class, as a batch of one episode.

    The first k*s examples are the support portion (class-major order),
    the remaining k*q the query portion; m = k*(s+q).
    """
    if task.k != k:
        raise ValueError(f"task has {task.k} classes, expected {k}")
    shape = EpisodeShape(s, q)
    xs, ys = _draw_episodes(task.prototypes[None], task.class_probs[None], task.noise_sigma,
                            shape.m(k), shape, *_one_stream(seed))
    return EpisodeBatch(xs, ys, k, shape)


# One episode per task: its size m, and (s, q) for a k-way s-shot
# episode with m = k*(s+q) or None for m i.i.d. examples.
EpisodePlan = tuple[int, Optional[tuple[int, int]]]


def _episode_blocks(
    env: EnvironmentSpec,
    count: int,
    seed: int,
    plan: Sequence[EpisodePlan],
    block: int,
) -> Iterator[tuple[EpisodeBatch, ...]]:
    """``sample_episode_batches(env, count, seed, plan)`` in blocks of at
    most ``block`` units: yields one batch per plan entry for each block,
    units in order. A block's child seeds and SeedSequence words are derived
    in one pass when the block is drawn (a unit's seeds depend only on its
    index), and one generator draws every stream. So the blocks are rows of
    one draw, whatever ``block``, and nothing is held for the units of later
    blocks.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    plan = [(m, None if shape is None else _episode_shape(shape)) for m, shape in plan]
    for m, shape in plan:
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if shape is not None and m != shape.m(env.k):
            raise ValueError(f"m={m} must equal k*(s+q)={shape.m(env.k)}")
    seed = _seed64(seed)
    rng = np.random.Generator(np.random.PCG64(0))

    def draw(a: int) -> tuple[EpisodeBatch, ...]:
        units = _child_seeds(seed, np.arange(a, min(a + block, count), dtype=np.uint64))
        seeds = _child_seeds(units, np.arange(len(plan) + 1, dtype=np.uint64)[:, None])
        words = _seed_sequence_state(seeds.ravel()).reshape(len(plan) + 1, units.size, 4)
        protos, probs = _draw_tasks(env, _stream_states(words[0]), rng)
        return tuple(EpisodeBatch(*_draw_episodes(protos, probs, env.noise_sigma, m, shape,
                                                  _stream_states(words[i + 1]), rng), env.k, shape)
                     for i, (m, shape) in enumerate(plan))

    # The block is drawn in draw's frame, so this generator holds none of it
    # while the caller draws the next: a consumer can hold one block at a time.
    for a in range(0, count, block):
        yield draw(a)


def sample_episode_batches(
    env: EnvironmentSpec,
    count: int,
    seed: int,
    plan: Sequence[EpisodePlan],
) -> tuple[EpisodeBatch, ...]:
    """Draw ``count`` independent tasks and, from each, one episode per
    plan entry; returns one batch per plan entry.

    Unit l derives its seeds from child l of ``seed``: the task from child
    0, the episode of plan entry i from child i+1. A shaped entry's batch
    is bit-identical to stacking ``sample_kway_sshot_episode`` on
    ``sample_task`` with those seeds, but no per-task or per-episode object
    is built. ``seed`` must lie in [0, 2**64).
    """
    return next(_episode_blocks(env, count, seed, plan, count))


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
