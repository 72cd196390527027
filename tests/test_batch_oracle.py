"""The batched engine against per-episode reference loops.

The references below are the per-episode implementations the batched
learners, losses and harness functions replaced: one fit per (map,
episode) pair, margins and hinges per episode. Each takes one episode
as a batch of one. Batched results must match them to 1e-12; only the
summation order differs.
"""

import math

import numpy as np
import pytest

from metamargin.complexity import build_pi1f_restriction, episode_restrictions
from metamargin.core import (
    EnvironmentSpec,
    EpisodeBatch,
    SeedPolicy,
    sample_episode_batches,
    sample_kway_sshot_episode,
    sample_meta_sample,
    sample_task,
)
from metamargin.harness import estimate_transfer_risk, query_split_accuracy
from metamargin.learners import (
    FeatureFamily,
    NumericError,
    linear_multimargin_learn,
    linear_softmax_learn,
    make_feature_family,
    meta_erm_select,
    nearest_centroid_learn,
    require_fitted,
)

TOL = 1e-12
ENV = EnvironmentSpec(d_raw=8, k=4, prototype_scale=1.0, noise_sigma=1.0)
FAMILY = FeatureFamily(maps=(
    make_feature_family(8, 8, 1, "identity", 0).maps
    + make_feature_family(8, 6, 2, "random_relu", 1).maps
    + make_feature_family(8, 5, 2, "random_linear", 2).maps
))


# -- per-episode references ------------------------------------------------

def episodes(batch):
    """Each episode of the batch as a batch of one."""
    return [EpisodeBatch(batch.xs[l:l + 1], batch.ys[l:l + 1], batch.k, batch.shape)
            for l in range(batch.n)]


def support(episode):
    """(xs (m, d), ys (m,)) of the support portion of a batch of one."""
    xs, ys = episode.support()
    return xs[0], ys[0]


class RefScorer:
    def __init__(self, phi, b, centroids=None, scale=None, W=None, history=()):
        self.phi, self.b = phi, b
        self.centroids, self.scale, self.W, self.history = centroids, scale, W, history

    def scores_matrix(self, xs):
        feats = self.phi.apply_matrix(xs)
        if self.W is not None:
            return np.clip(feats @ self.W.T, -self.b, self.b)
        dists = np.linalg.norm(feats[:, None, :] - self.centroids[None, :, :], axis=2)
        return np.clip(-dists / self.scale, -self.b, self.b)


def ref_centroid(episode, phi, b):
    xs, ys = support(episode)
    feats = phi.apply_matrix(xs)
    centroids = np.empty((episode.k, phi.d))
    for y in range(1, episode.k + 1):
        mask = ys == y
        if not np.any(mask):
            raise ValueError(f"class {y} missing")
        centroids[y - 1] = feats[mask].mean(axis=0)
    iu = np.triu_indices(episode.k, k=1)
    scale = float(np.median(np.linalg.norm(centroids[iu[0]] - centroids[iu[1]], axis=1)))
    return RefScorer(phi, b, centroids=centroids, scale=scale if scale > 0 else 1.0)


def ref_multimargin(episode, phi, rho, lam, steps, step_size, b):
    xs, ys = support(episode)
    feats = phi.apply_matrix(xs)
    m, d = feats.shape
    k = episode.k
    idx, col = np.arange(m), ys - 1
    W = np.zeros((k, d))
    history = []
    for _ in range(steps):
        scores = feats @ W.T
        true = scores[idx, col]
        hinges = np.maximum(0.0, 1.0 - (true[:, None] - scores) / rho)
        hinges[idx, col] = 0.0
        loss = float(hinges.sum() / ((k - 1) * m) + lam * float((W * W).sum()))
        if not np.isfinite(loss):
            raise NumericError("non-finite training loss")
        history.append(loss)
        active = (hinges > 0).astype(np.float64)
        grad = active.T @ feats
        np.subtract.at(grad, col, active.sum(axis=1)[:, None] * feats)
        grad /= rho * (k - 1) * m
        grad += 2.0 * lam * W
        W -= step_size * grad
    return RefScorer(phi, b, W=W, history=history)


def ref_softmax(episode, phi, lam, steps, step_size, b):
    xs, ys = support(episode)
    feats = phi.apply_matrix(xs)
    m, d = feats.shape
    idx = np.arange(m)
    W = np.zeros((episode.k, d))
    history = []
    for _ in range(steps):
        scores = feats @ W.T
        scores -= scores.max(axis=1, keepdims=True)
        expd = np.exp(scores)
        probs = expd / expd.sum(axis=1, keepdims=True)
        nll = -np.log(np.maximum(probs[idx, ys - 1], 1e-300))
        history.append(float(nll.mean() + lam * float((W * W).sum())))
        probs[idx, ys - 1] -= 1.0
        W -= step_size * (probs.T @ feats / m + 2.0 * lam * W)
    return RefScorer(phi, b, W=W, history=history)


def ref_margins(scores, ys):
    idx = np.arange(ys.shape[0])
    true = scores[idx, ys - 1]
    masked = scores.copy()
    masked[idx, ys - 1] = -np.inf
    return true - masked.max(axis=1)


def ref_losses(scorer, episode, rho):
    """(mean ramp loss, mean multi-margin loss) of one episode."""
    s, ys = scorer.scores_matrix(episode.xs[0]), episode.ys[0]
    ramp = np.clip(1.0 - ref_margins(s, ys) / rho, 0.0, 1.0).mean()
    idx = np.arange(episode.m)
    hinges = np.maximum(0.0, 1.0 - (s[idx, ys - 1][:, None] - s) / rho)
    hinges[idx, ys - 1] = 0.0
    return ramp, (hinges.sum(axis=1) / (episode.k - 1)).mean()


LEARNERS = {
    "nearest_centroid": (lambda e, p: nearest_centroid_learn(e, p, 1.0),
                         lambda e, p: ref_centroid(e, p, 1.0)),
    "linear_multimargin": (lambda e, p: linear_multimargin_learn(e, p, 1.0, 1e-3, 25, 0.1, 3.0),
                           lambda e, p: ref_multimargin(e, p, 1.0, 1e-3, 25, 0.1, 3.0)),
    "linear_softmax": (lambda e, p: linear_softmax_learn(e, p, 1e-3, 25, 0.5, 3.0),
                       lambda e, p: ref_softmax(e, p, 1e-3, 25, 0.5, 3.0)),
}


def close(a, b):
    np.testing.assert_allclose(a, b, rtol=0, atol=TOL)


def iid_batch(n, m, seed):
    """Unsplit i.i.d. episodes with every class present."""
    rng = np.random.default_rng(seed)
    ys = np.stack([rng.permutation(np.arange(m) % ENV.k) + 1 for _ in range(n)])
    return EpisodeBatch(rng.normal(size=(n, m, ENV.d_raw)), ys, ENV.k)


BATCHES = {
    "split": lambda: sample_meta_sample(ENV, 7, 20, 3, shape=(2, 3)),
    "unsplit": lambda: iid_batch(7, 18, 4),
}


# -- learners --------------------------------------------------------------

@pytest.mark.parametrize("kind", list(LEARNERS))
@pytest.mark.parametrize("layout", list(BATCHES))
def test_learners_match_per_episode_loops(kind, layout):
    batched, ref = LEARNERS[kind]
    batch = BATCHES[layout]()
    for phi in FAMILY.maps:
        scorer = batched(batch, phi)
        assert not scorer.failed.any()
        scores = scorer.scores_matrix(batch.xs)
        for l, episode in enumerate(episodes(batch)):
            expected = ref(episode, phi)
            close(scores[l], expected.scores_matrix(episode.xs[0]))
            single = batched(episode, phi)
            close(single.scores_matrix(episode.xs)[0], scores[l])
            if expected.W is None:
                close(scorer.centroids[l], expected.centroids)
                close(scorer.scale[l], expected.scale)
            else:
                close(scorer.W[l], expected.W)
                close(scorer.loss_history[:, l], expected.history)


def test_missing_class_is_flagged_per_episode():
    batch = iid_batch(4, 12, 5)
    ys = batch.ys.copy()
    ys[2, ys[2] == 3] = 1  # episode 2 loses class 3
    batch = EpisodeBatch(batch.xs, ys, batch.k)
    phi = FAMILY.maps[1]
    scorer = nearest_centroid_learn(batch, phi, 1.0)
    assert scorer.failed.tolist() == [False, False, True, False]
    singles = episodes(batch)
    for l in (0, 1, 3):
        close(scorer[l].centroids, ref_centroid(singles[l], phi, 1.0).centroids)
    with pytest.raises(ValueError):
        ref_centroid(singles[2], phi, 1.0)
    with pytest.raises(NumericError):
        require_fitted(nearest_centroid_learn(singles[2], phi, 1.0))


def test_divergence_is_flagged_per_episode():
    # lam * step_size = 1e6 grows W about 2e6-fold per step from a start
    # proportional to the inputs: only the large-input episode overflows
    ys = np.tile(np.array([1, 2, 3, 1, 2, 3]), (2, 1))
    pattern = np.stack([ys[0], np.ones(6)], axis=1)
    batch = EpisodeBatch(np.stack([1e-200 * pattern, 1e5 * pattern]), ys, 3)
    phi = make_feature_family(2, 2, 1, "identity", 0).maps[0]
    scorer = linear_multimargin_learn(batch, phi, 1.0, 1e3, 25, 1e3, 1.0)
    assert scorer.failed.tolist() == [False, True]
    singles = episodes(batch)
    close(scorer[0].W, ref_multimargin(singles[0], phi, 1.0, 1e3, 25, 1e3, 1.0).W)
    with pytest.raises(NumericError):
        ref_multimargin(singles[1], phi, 1.0, 1e3, 25, 1e3, 1.0)
    with pytest.raises(NumericError):
        require_fitted(linear_multimargin_learn(singles[1], phi, 1.0, 1e3, 25, 1e3, 1.0))


# -- samplers --------------------------------------------------------------

def ref_task(env, seed):
    rng = np.random.default_rng(seed)
    protos = rng.normal(0.0, 1.0, size=(env.k, env.d_raw)) * env.prototype_scale
    if env.balanced:
        return protos, np.full(env.k, 1.0 / env.k)
    probs = rng.dirichlet(np.ones(env.k))
    return protos, probs / probs.sum()


def ref_iid_episode(protos, probs, sigma, m, seed):
    rng = np.random.default_rng(seed)
    ys = rng.choice(probs.shape[0], size=m, p=probs) + 1
    return protos[ys - 1] + rng.normal(0.0, sigma, size=(m, protos.shape[1])), ys


def ref_iid_batch(task, m, seed):
    """``ref_iid_episode`` from a sampled task, as a batch of one."""
    xs, ys = ref_iid_episode(task.prototypes, task.class_probs, task.noise_sigma, m, seed)
    return EpisodeBatch(xs[None], ys[None], task.k)


def ref_kway_episode(protos, sigma, s, q, seed):
    rng = np.random.default_rng(seed)
    blocks = []
    for per_class in (s, q):
        ys = np.repeat(np.arange(1, protos.shape[0] + 1), per_class)
        noise = rng.normal(0.0, sigma, size=(ys.shape[0], protos.shape[1]))
        blocks.append((protos[ys - 1] + noise, ys))
    return np.concatenate([blocks[0][0], blocks[1][0]]), np.concatenate([blocks[0][1], blocks[1][1]])


@pytest.mark.parametrize("balanced", [True, False])
def test_stacked_sampler_is_bit_identical(balanced):
    env = EnvironmentSpec(d_raw=6, k=3, prototype_scale=2.0, noise_sigma=0.7, balanced=balanced)
    plan = [(15, (2, 3)), (11, None), (4, None)]
    batches = sample_episode_batches(env, 9, 77, plan)
    policy = SeedPolicy(77)
    for l in range(9):
        unit = SeedPolicy(policy.child(l))
        protos, probs = ref_task(env, unit.child(0))
        expected = [ref_kway_episode(protos, 0.7, 2, 3, unit.child(1)),
                    ref_iid_episode(protos, probs, 0.7, 11, unit.child(2)),
                    ref_iid_episode(protos, probs, 0.7, 4, unit.child(3))]
        for batch, (xs, ys) in zip(batches, expected):
            assert np.array_equal(batch.xs[l], xs) and np.array_equal(batch.ys[l], ys)
        episode = sample_kway_sshot_episode(sample_task(env, unit.child(0)), 3, 2, 3, unit.child(1))
        assert np.array_equal(episode.xs[0], expected[0][0]) and np.array_equal(episode.ys[0], expected[0][1])
        assert [batch.shape for batch in batches] == [episode.shape, None, None]


# -- harness ---------------------------------------------------------------

@pytest.mark.parametrize("kind", ["nearest_centroid", "linear_multimargin"])
@pytest.mark.parametrize("loss_kind", ["margin", "multimargin"])
def test_meta_erm_select_matches_loop(kind, loss_kind):
    batched, ref = LEARNERS[kind]
    meta = sample_meta_sample(ENV, 9, 20, 11, shape=(2, 3))
    selection = meta_erm_select(meta, FAMILY, batched, 1.0, loss_kind)
    pick = 0 if loss_kind == "margin" else 1
    averages = []
    for i, phi in enumerate(FAMILY.maps):
        per_episode = np.array([ref_losses(ref(e, phi), e, 1.0) for e in episodes(meta)])
        close(selection.margin[i], per_episode[:, 0])
        close(selection.multi_margin[i], per_episode[:, 1])
        averages.append(sum(per_episode[:, pick]) / meta.n)
    close(selection.losses, averages)
    best = min(range(len(FAMILY)), key=lambda i: (averages[i], FAMILY.maps[i].id))
    assert selection.chosen is FAMILY.maps[best] and selection.index == best


def test_query_split_accuracy_matches_loop():
    batched, ref = LEARNERS["nearest_centroid"]
    phi = FAMILY.maps[2]
    policy = SeedPolicy(21)
    accs = np.empty(40)
    for j in range(40):
        unit = SeedPolicy(policy.child(j))
        episode = sample_kway_sshot_episode(sample_task(ENV, unit.child(0)), ENV.k, 2, 3, unit.child(1))
        qx, qy = episode.query()
        accs[j] = (ref(episode, phi).scores_matrix(qx[0]).argmax(axis=1) + 1 == qy[0]).mean()
    acc, se = query_split_accuracy(ENV, phi, batched, (2, 3), 40, 21)
    close(acc, accs.mean())
    close(se, accs.std(ddof=1) / math.sqrt(40))


@pytest.mark.parametrize("kind", ["nearest_centroid", "linear_multimargin"])
@pytest.mark.parametrize("shape,m", [((2, 3), 20), (None, 6)])
def test_transfer_risk_matches_loop(kind, shape, m):
    batched, ref = LEARNERS[kind]
    phi = FAMILY.maps[3]
    policy = SeedPolicy(31)
    losses, hits, failures = [], [], 0
    for j in range(30):
        unit = SeedPolicy(policy.child(j))
        task = sample_task(ENV, unit.child(0))
        if shape is None:
            train = ref_iid_batch(task, m, unit.child(1))
        else:
            train = sample_kway_sshot_episode(task, ENV.k, *shape, unit.child(1))
        try:
            scorer = ref(train, phi)
        except (ValueError, NumericError):
            # a failed draw counts as ramp loss 1 and a miss on every test point
            failures += 1
            losses.append(np.ones(25))
            hits.append(np.zeros(25, dtype=bool))
            continue
        test = ref_iid_batch(task, 25, unit.child(2))
        scores = scorer.scores_matrix(test.xs[0])
        losses.append(np.clip(1.0 - ref_margins(scores, test.ys[0]), 0.0, 1.0))
        hits.append(scores.argmax(axis=1) + 1 == test.ys[0])
    est = estimate_transfer_risk(ENV, phi, batched, 1.0, m, 30, 25, 31, shape)
    pooled = np.concatenate(losses)
    if shape is None and kind == "nearest_centroid":
        assert failures > 0  # six i.i.d. draws over four classes often miss one
    assert est.failures == failures
    close(est.risk, pooled.mean())
    close(est.std_error, pooled.std(ddof=1) / math.sqrt(pooled.size))
    close(est.accuracy, np.concatenate(hits).mean())


def ref_restriction(singles):
    ref = LEARNERS["nearest_centroid"][1]
    return np.concatenate([
        np.concatenate([ref(e, phi).scores_matrix(e.xs[0]).T for e in singles], axis=1)
        for phi in FAMILY.maps
    ])


def test_restriction_matches_loop():
    learner = LEARNERS["nearest_centroid"][0]
    meta = sample_meta_sample(ENV, 5, 20, 41, shape=(2, 3))
    A = build_pi1f_restriction(meta, FAMILY, learner, ENV.k)
    singles = episodes(meta)
    close(A.values, ref_restriction(singles))
    B = build_pi1f_restriction(singles[3], FAMILY, learner, ENV.k)
    close(B.values, ref_restriction([singles[3]]))
    assert A.labels == B.labels


def test_episode_restrictions_skip_failed_episodes():
    learner = LEARNERS["nearest_centroid"][0]
    batch = sample_meta_sample(ENV, 12, 6, 43)
    restrictions = episode_restrictions(batch, FAMILY, learner, ENV.k)
    failed = [isinstance(A, Exception) for A in restrictions]
    assert any(failed) and not all(failed)
    for episode, A in zip(episodes(batch), restrictions):
        if isinstance(A, Exception):
            with pytest.raises(type(A), match=str(A)):
                build_pi1f_restriction(episode, FAMILY, learner, ENV.k)
        else:
            close(A.values, ref_restriction([episode]))
    with pytest.raises(NumericError):
        build_pi1f_restriction(batch, FAMILY, learner, ENV.k)
