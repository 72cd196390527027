import json
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from metamargin.core import (
    _child_seeds,
    _episode_blocks,
    _seed_sequence_state,
    _stream_states,
    EnvironmentSpec,
    EpisodeBatch,
    EpisodeShape,
    SeedPolicy,
    TaskSpec,
    sample_episode_batches,
    sample_kway_sshot_episode,
    sample_meta_sample,
    sample_task,
)
from metamargin.harness import ExperimentConfig, query_split_accuracy
from metamargin.learners import FeatureMap, nearest_centroid_learn

ENV = EnvironmentSpec(d_raw=16, k=5, prototype_scale=1.0, noise_sigma=1.0)


class TestSeedPolicy:
    def test_deterministic(self):
        p = SeedPolicy(123)
        assert p.child(7) == SeedPolicy(123).child(7)
        draw = lambda: np.random.default_rng(p.child(3)).integers(0, 1 << 30)
        assert draw() == draw()

    def test_children_distinct(self):
        p = SeedPolicy(99)
        seeds = [p.child(i) for i in range(1000)]
        assert len(set(seeds)) == 1000

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            SeedPolicy(0).child(-1)

    @given(st.integers(-2**70, 2**70))
    def test_bulk_children_match_child(self, master):
        p = SeedPolicy(master)
        units = _child_seeds(master, np.arange(20, dtype=np.uint64))
        assert units.dtype == np.uint64 and units.tolist() == [p.child(i) for i in range(20)]
        streams = _child_seeds(units[:, None], np.arange(3, dtype=np.uint64))
        assert streams.tolist() == [[SeedPolicy(u).child(j) for j in range(3)] for u in units.tolist()]


SEEDS = st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6)


@given(SEEDS)
@example([0, 2**32 - 1, 2**32, 2**64 - 1])
@settings(deadline=None)
def test_bulk_seeding_matches_default_rng(seeds):
    # numpy's documented seeding is the oracle: SeedSequence words, then
    # the streams of default_rng.
    arr = np.array(seeds, dtype=np.uint64)
    rng = np.random.Generator(np.random.PCG64(0))
    for s, words, state in zip(seeds, _seed_sequence_state(arr), _stream_states(_seed_sequence_state(arr))):
        assert np.array_equal(words, np.random.SeedSequence(s).generate_state(4, np.uint64))
        ref = np.random.default_rng(s)
        assert state == ref.bit_generator.state
        rng.bit_generator.state = state
        assert np.array_equal(rng.standard_normal(9), ref.standard_normal(9))
        assert np.array_equal(rng.dirichlet(np.ones(4)), ref.dirichlet(np.ones(4)))
        p = [0.1, 0.2, 0.3, 0.4]
        assert np.array_equal(rng.choice(4, size=11, p=p), ref.choice(4, size=11, p=p))


@pytest.mark.parametrize("seed", [-1, 2**64, -2**64])
def test_seed_outside_64_bits_rejected(seed):
    task = sample_task(ENV, 0)
    with pytest.raises(ValueError):
        sample_task(ENV, seed)
    with pytest.raises(ValueError):
        sample_episode_batches(ENV, 1, seed, [(10, None)])
    with pytest.raises(ValueError):
        sample_kway_sshot_episode(task, 5, 1, 1, seed)


def one_episode(xs, ys, k, shape=None):
    """The episode (xs (m, d), ys (m,)) as a batch of one."""
    return EpisodeBatch(np.asarray(xs)[None], np.asarray(ys)[None], k, shape)


class TestTypes:
    def test_labeled_example_validation(self):
        # a labeled example is an episode of one point
        with pytest.raises(ValueError):
            one_episode(np.array([[np.inf, 0.0]]), np.array([1]), 2)
        with pytest.raises(ValueError):
            one_episode(np.zeros((1, 3)), np.array([0]), 2)

    def test_episode_label_range(self):
        with pytest.raises(ValueError):
            one_episode(np.zeros((2, 3)), np.array([1, 4]), 3)
        with pytest.raises(ValueError, match="k must be >= 2"):  # one class leaves no margin
            one_episode(np.zeros((2, 3)), np.array([1, 1]), 1)

    def test_environment_needs_two_classes(self):
        with pytest.raises(ValueError, match="k >= 2"):
            EnvironmentSpec(d_raw=4, k=1, prototype_scale=1.0, noise_sigma=1.0)

    def test_episode_split_invariants(self):
        xs, ys = np.zeros((4, 2)), np.array([1, 2, 1, 2])
        ep = one_episode(xs, ys, 2, shape=EpisodeShape(1, 1))
        assert ep.m == 4 and ep.shape == EpisodeShape(1, 1)
        assert np.array_equal(ep.support()[1], [[1, 2]]) and np.array_equal(ep.query()[1], [[1, 2]])
        with pytest.raises(ValueError):
            EpisodeShape(2, 0)  # k*s == m leaves no query
        with pytest.raises(ValueError, match=r"m=4 must equal k\*\(s\+q\)=6"):
            one_episode(xs, ys, 2, shape=EpisodeShape(2, 1))
        with pytest.raises(ValueError, match=r"m=5 must equal k\*\(s\+q\)=4"):
            one_episode(np.zeros((5, 2)), np.array([1, 2, 1, 2, 1]), 2, shape=EpisodeShape(1, 1))

    def test_episode_shape_may_be_an_s_q_pair(self):
        xs, ys = np.zeros((4, 2)), np.array([1, 2, 1, 2])
        pair, shape = one_episode(xs, ys, 2, shape=(1, 1)), one_episode(xs, ys, 2, shape=EpisodeShape(1, 1))
        assert pair.shape == shape.shape
        assert np.array_equal(pair.xs, shape.xs) and np.array_equal(pair.ys, shape.ys)
        assert np.array_equal(pair.support()[0], shape.support()[0])
        for bad in [(1,), (1, 2, 3), (0, 1)]:
            with pytest.raises(ValueError):
                one_episode(xs, ys, 2, shape=bad)

    @pytest.mark.parametrize("bad", [(1,), (1, 2, 3)])
    def test_malformed_s_q_pair_is_a_value_error_everywhere(self, bad):
        path = Path(__file__).resolve().parent.parent / "configs" / "default.json"
        config = ExperimentConfig.from_json(json.loads(path.read_text()))
        phi = FeatureMap(id="identity", kind="identity", d=ENV.d_raw)
        learner = lambda ep, p: nearest_centroid_learn(ep, p, 1.0)
        with pytest.raises(ValueError):
            replace(config, episode_shape=bad)
        with pytest.raises(ValueError):
            sample_episode_batches(ENV, 2, 0, [(100, bad)])
        with pytest.raises(ValueError):
            query_split_accuracy(ENV, phi, learner, bad, 4, 0)

    def test_environment_json_field_names(self):
        path = Path(__file__).resolve().parent.parent / "configs" / "default.json"
        config = replace(ExperimentConfig.from_json(json.loads(path.read_text())), environment=ENV)
        data = asdict(config)
        assert set(data["environment"]) == {"d_raw", "k", "prototype_scale", "noise_sigma", "balanced"}
        assert ExperimentConfig.from_json(data).environment == ENV

    def test_task_spec_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TaskSpec(prototypes=np.zeros((2, 3)), noise_sigma=1.0,
                     class_probs=np.array([0.6, 0.5]))

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
    def test_task_spec_rejects_bad_noise_sigma(self, sigma):
        # as EnvironmentSpec does: no clamp to a tiny positive sigma
        with pytest.raises(ValueError, match="noise_sigma must be finite and > 0"):
            TaskSpec(prototypes=np.zeros((2, 3)), noise_sigma=sigma, class_probs=np.array([0.5, 0.5]))


class TestSampleTask:
    def test_zero_scale_gives_zero_prototypes(self):
        env = EnvironmentSpec(d_raw=4, k=3, prototype_scale=0.0, noise_sigma=1.0)
        task = sample_task(env, 5)
        assert np.all(task.prototypes == 0.0)

    def test_deterministic(self):
        t1, t2 = sample_task(ENV, 11), sample_task(ENV, 11)
        assert np.array_equal(t1.prototypes, t2.prototypes)
        assert np.array_equal(t1.class_probs, t2.class_probs)

    def test_prototype_prior_mean(self):
        # 1000 draws of 5x16 prototypes: per-coordinate mean within 4 SE of 0
        draws = 1000
        total = np.zeros((5, 16))
        for i in range(draws):
            total += sample_task(ENV, 1000 + i).prototypes
        mean = total / draws
        se = ENV.prototype_scale / np.sqrt(draws)
        assert np.all(np.abs(mean) < 4 * se)

    def test_unbalanced_probs_valid(self):
        env = EnvironmentSpec(d_raw=2, k=4, prototype_scale=1.0, noise_sigma=1.0, balanced=False)
        task = sample_task(env, 3)
        assert abs(task.class_probs.sum() - 1.0) < 1e-9
        assert np.all(task.class_probs >= 0)


class TestSampleEpisode:
    def test_minimal_noise_sticks_to_prototypes(self):
        env = EnvironmentSpec(d_raw=8, k=3, prototype_scale=1.0, noise_sigma=1e-12)
        (ep,) = sample_episode_batches(env, 1, 3, [(50, None)])
        # the unit's task is drawn from child 0 of the unit's seed, child 0 of 3
        task = sample_task(env, SeedPolicy(SeedPolicy(3).child(0)).child(0))
        deviation = np.abs(ep.xs - task.prototypes[ep.ys - 1]).max()
        assert deviation < 1e-9

    def test_balanced_class_counts(self):
        # binomial oracle: per-class count has mean 20, sd 4 at m=100, p=0.2
        # (every task of a balanced environment); the mean over 100 repeats
        # lies within 4 * (4 / 10) of 20
        counts = np.zeros(5)
        repeats = 100
        for i in range(repeats):
            (ep,) = sample_episode_batches(ENV, 1, 50 + i, [(100, None)])
            counts += np.bincount(ep.ys[0], minlength=6)[1:]
        mean_counts = counts / repeats
        tol = 4 * np.sqrt(100 * 0.2 * 0.8) / np.sqrt(repeats)
        assert np.all(np.abs(mean_counts - 20.0) < tol)

    def test_deterministic(self):
        (e1,), (e2,) = (sample_episode_batches(ENV, 1, 9, [(20, None)]) for _ in range(2))
        assert np.array_equal(e1.xs, e2.xs) and np.array_equal(e1.ys, e2.ys)

    def test_m_validation(self):
        with pytest.raises(ValueError):
            sample_episode_batches(ENV, 1, 1, [(0, None)])


class TestKwayShotEpisode:
    def test_paper_shape(self):
        # k=5, q=15 with s=5 gives the 100-point episode
        task = sample_task(ENV, 7)
        ep = sample_kway_sshot_episode(task, 5, 5, 15, 1)
        assert ep.xs.shape == (1, 100, 16) and ep.m == 100 and ep.shape == EpisodeShape(5, 15)

    def test_smallest_instance(self):
        env = EnvironmentSpec(d_raw=2, k=2, prototype_scale=1.0, noise_sigma=1.0)
        ep = sample_kway_sshot_episode(sample_task(env, 1), 2, 1, 1, 2)
        assert ep.m == 4 and ep.shape == EpisodeShape(1, 1)

    def test_exact_per_class_counts(self):
        task = sample_task(ENV, 3)
        for seed in range(50):
            ep = sample_kway_sshot_episode(task, 5, 3, 4, seed)
            counts = np.bincount(ep.ys[0], minlength=6)[1:]
            assert np.all(counts == 7)
            sup_counts = np.bincount(ep.support()[1][0], minlength=6)[1:]
            assert np.all(sup_counts == 3)
            assert np.array_equal(ep.ys[0], EpisodeShape(3, 4).labels(5))
        # EpisodeShape's own m and labels: s then q per class, class-major
        for k, (s, q), labels in [
            (1, (1, 1), [1, 1]),
            (2, (1, 2), [1, 2, 1, 1, 2, 2]),
            (3, (2, 1), [1, 1, 2, 2, 3, 3, 1, 2, 3]),
        ]:
            shape = EpisodeShape(s, q)
            assert shape.m(k) == len(labels) == k * (s + q)
            assert shape.labels(k).tolist() == labels

    def test_invalid_sq_rejected(self):
        task = sample_task(ENV, 3)
        with pytest.raises(ValueError):
            sample_kway_sshot_episode(task, 5, 0, 1, 1)
        with pytest.raises(ValueError):
            sample_kway_sshot_episode(task, 4, 1, 1, 1)  # k mismatch


class TestMetaSample:
    def test_single_episode(self):
        ms = sample_meta_sample(ENV, 1, 10, 4)
        assert ms.n == 1 and ms.m == 10

    def test_deterministic(self):
        a = sample_meta_sample(ENV, 5, 10, 4)
        b = sample_meta_sample(ENV, 5, 10, 4)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)

    def test_structural_homogeneity(self):
        ms = sample_meta_sample(ENV, 50, 100, 8)
        assert ms.xs.shape == (50, 100, ENV.d_raw) and ms.ys.shape == (50, 100) and ms.k == 5

    @pytest.mark.parametrize("plan", [[(20, (1, 3))], [(9, None), (4, None)]])
    @pytest.mark.parametrize("block", [1, 4, 11])
    def test_a_block_is_rows_of_one_draw(self, plan, block):
        whole = sample_episode_batches(ENV, 11, 6, plan)
        blocks = list(_episode_blocks(ENV, 11, 6, plan, block))
        assert [b.n for b, *_ in blocks] == [min(block, 11 - a) for a in range(0, 11, block)]
        for i, w in enumerate(whole):
            assert np.array_equal(np.concatenate([b[i].xs for b in blocks]), w.xs)
            assert np.array_equal(np.concatenate([b[i].ys for b in blocks]), w.ys)
            assert all(b[i].shape == w.shape for b in blocks)

    def test_shaped_draw_holds_little_beyond_its_output(self):
        # 100 default-shaped episodes: 1.3 MB of xs and ys; a gathered
        # (n, m, d) prototype per point would add as much again
        plan = [(100, (5, 15))]
        sample_episode_batches(ENV, 100, 1, plan)
        tracemalloc.start()
        try:
            (batch,) = sample_episode_batches(ENV, 100, 1, plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (batch.xs.nbytes + batch.ys.nbytes)

    def test_shape_episodes(self):
        ms = sample_meta_sample(ENV, 3, 100, 8, shape=(5, 15))
        assert ms.n == 3 and ms.shape == EpisodeShape(5, 15)
        with pytest.raises(ValueError):
            sample_meta_sample(ENV, 3, 99, 8, shape=(5, 15))


def test_label_range_many_episodes():
    # samplers only ever emit labels in 1..k
    for i in range(10_000):
        (ep,) = sample_episode_batches(ENV, 1, i, [(3, None)])
        assert ep.ys.min() >= 1 and ep.ys.max() <= 5
