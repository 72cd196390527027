import numpy as np
import pytest
import scipy.optimize

from metamargin.core import EnvironmentSpec, EpisodeBatch, sample_meta_sample
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
from metamargin.losses import episode_losses


def two_cluster_episode(seed=0, gap=4.0, m_per=20, d=2, spread=0.3):
    rng = np.random.default_rng(seed)
    xs = np.concatenate([
        rng.normal(-gap / 2, spread, (m_per, d)),
        rng.normal(gap / 2, spread, (m_per, d)),
    ])
    ys = np.array([1] * m_per + [2] * m_per)
    return EpisodeBatch(xs[None], ys[None], 2)


class TestFeatureFamily:
    def test_identity_is_identity(self):
        fam = make_feature_family(4, 4, 1, "identity", 0)
        x = np.array([1.0, -2.0, 0.5, 3.0])
        assert np.array_equal(fam.maps[0].apply_matrix(x[None])[0], x)

    def test_identity_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            make_feature_family(4, 3, 1, "identity", 0)

    def test_same_seed_identical(self):
        a = make_feature_family(6, 4, 3, "random_linear", 9)
        b = make_feature_family(6, 4, 3, "random_linear", 9)
        for ma, mb in zip(a.maps, b.maps):
            assert np.array_equal(ma.weight, mb.weight)

    def test_linear_maps_zero_to_zero(self):
        fam = make_feature_family(6, 4, 2, "random_linear", 3)
        assert np.all(fam.maps[0].apply_matrix(np.zeros(6)[None])[0] == 0.0)

    def test_relu_nonnegative(self):
        fam = make_feature_family(6, 4, 1, "random_relu", 3)
        out = fam.maps[0].apply_matrix(np.random.default_rng(0).normal(size=(50, 6)))
        assert np.all(out >= 0.0)

    def test_norm_cap_rescales(self):
        fam = make_feature_family(3, 3, 1, "identity", 0, norm_cap=1.0)
        out = fam.maps[0].apply_matrix(np.array([100.0, 0.0, 0.0])[None])[0]
        assert np.linalg.norm(out) <= 1.0 + 1e-12

    def test_distinct_ids_required(self):
        fm = make_feature_family(3, 3, 1, "identity", 0).maps[0]
        with pytest.raises(ValueError):
            FeatureFamily(maps=(fm, fm))


class TestNearestCentroid:
    def test_query_at_centroid_wins(self):
        xs = np.array([[0.0, 0.0], [10.0, 10.0]])
        ep = EpisodeBatch(xs[None], np.array([[1, 2]]), 2)
        phi = make_feature_family(2, 2, 1, "identity", 0).maps[0]
        scorer = nearest_centroid_learn(ep, phi, 1.0)[0]
        assert scorer.scores_matrix(np.array([[0.0, 0.0]]))[0].argmax() == 0
        assert scorer.scores_matrix(np.array([[10.0, 10.0]]))[0].argmax() == 1

    def test_identical_centroids_tie(self):
        xs = np.array([[1.0, 1.0], [1.0, 1.0]])
        ep = EpisodeBatch(xs[None], np.array([[1, 2]]), 2)
        phi = make_feature_family(2, 2, 1, "identity", 0).maps[0]
        scorer = nearest_centroid_learn(ep, phi, 1.0)[0]
        s = scorer.scores_matrix(np.array([[3.0, -1.0]]))[0]
        assert s[0] == s[1]

    def test_hand_1d_example(self):
        # support (-1, class 1), (+1, class 2); query -0.9 is nearer class 1
        ep = EpisodeBatch(np.array([[[-1.0], [1.0]]]), np.array([[1, 2]]), 2)
        phi = make_feature_family(1, 1, 1, "identity", 0).maps[0]
        scorer = nearest_centroid_learn(ep, phi, 1.0)[0]
        s = scorer.scores_matrix(np.array([[-0.9]]))[0]
        assert s.argmax() == 0
        # s_norm is the lone pairwise distance 2: scores are -0.05 and -0.95
        assert s[0] == pytest.approx(-0.05)
        assert s[1] == pytest.approx(-0.95)

    def test_missing_class_rejected(self):
        ep = EpisodeBatch(np.zeros((1, 2, 2)), np.array([[1, 1]]), 2)
        phi = make_feature_family(2, 2, 1, "identity", 0).maps[0]
        with pytest.raises(ValueError):
            require_fitted(nearest_centroid_learn(ep, phi, 1.0))

    def test_trains_on_support_only(self):
        xs = np.array([[-1.0], [1.0], [5.0], [-5.0]])
        ep = EpisodeBatch(xs[None], np.array([[1, 2, 1, 2]]), 2, split=1)
        phi = make_feature_family(1, 1, 1, "identity", 0).maps[0]
        scorer = nearest_centroid_learn(ep, phi, 1.0)[0]
        assert np.array_equal(scorer.centroids, np.array([[-1.0], [1.0]]))

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(size=(30, 4))
        ys = rng.integers(1, 4, size=30)
        ys[:3] = [1, 2, 3]
        phi = make_feature_family(4, 4, 1, "identity", 0).maps[0]
        perm = np.array([3, 1, 2])  # y -> perm[y-1]
        # b high enough that no query saturates the clamp
        scorer = nearest_centroid_learn(EpisodeBatch(xs[None], ys[None], 3), phi, 5.0)[0]
        permuted = nearest_centroid_learn(EpisodeBatch(xs[None], perm[ys - 1][None], 3), phi, 5.0)[0]
        queries = rng.normal(size=(20, 4))
        s0 = scorer.scores_matrix(queries)
        s1 = permuted.scores_matrix(queries)
        assert np.allclose(s1[:, perm - 1], s0)
        assert np.array_equal(perm[s0.argmax(axis=1)], s1.argmax(axis=1) + 1)

    def test_clamping_many_queries(self):
        rng = np.random.default_rng(2)
        ep = two_cluster_episode(gap=50.0)
        phi = make_feature_family(2, 2, 1, "identity", 0).maps[0]
        b = 0.7
        scorer = nearest_centroid_learn(ep, phi, b)[0]
        scores = scorer.scores_matrix(rng.normal(0, 100, size=(10_000, 2)))
        assert np.all(np.abs(scores) <= b)


class TestLinearMultimargin:
    PHI2 = make_feature_family(2, 2, 1, "identity", 0).maps[0]

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            linear_multimargin_learn(two_cluster_episode(), self.PHI2, 1.0, 0.0, 0, 0.1, 1.0)

    def test_zero_step_size_keeps_zero_weights(self):
        ep = two_cluster_episode()
        scorer = linear_multimargin_learn(ep, self.PHI2, 1.0, 0.0, 1, 0.0, 1.0)
        assert np.all(scorer.W == 0.0)
        assert episode_losses(scorer.scores_matrix(ep.xs), ep.ys, 1.0)[1][0] == 1.0

    def test_separable_reaches_low_loss(self):
        ep = two_cluster_episode(gap=6.0)
        rho, lam = 1.0, 1e-4
        scorer = linear_multimargin_learn(ep, self.PHI2, rho, lam, 400, 0.2, 10.0)
        psi = episode_losses(scorer.scores_matrix(ep.xs), ep.ys, rho)[1][0]
        assert psi < 0.05

        # independent convex-solver oracle on the same objective
        feats = self.PHI2.apply_matrix(ep.xs[0])
        idx, col = np.arange(ep.m), ep.ys[0] - 1

        def objective(w_flat):
            W = w_flat.reshape(2, 2)
            scores = feats @ W.T
            true = scores[idx, col]
            hinges = np.maximum(0.0, 1.0 - (true[:, None] - scores) / rho)
            hinges[idx, col] = 0.0
            return hinges.sum() / ((2 - 1) * ep.m) + lam * (W ** 2).sum()

        res = scipy.optimize.minimize(objective, np.zeros(4), method="Nelder-Mead",
                                 options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 5000})
        assert res.fun < 0.05  # the oracle confirms the instance is solvable
        assert objective(scorer.W.ravel()) <= res.fun + 0.05

    def test_smoothed_loss_nonincreasing(self):
        ep = two_cluster_episode(gap=4.0)
        scorer = linear_multimargin_learn(ep, self.PHI2, 1.0, 1e-4, 300, 0.2, 10.0)[0]
        h = np.asarray(scorer.loss_history)
        smoothed = np.convolve(h, np.ones(10) / 10, mode="valid")
        assert np.all(np.diff(smoothed) <= 1e-8)

    def test_numeric_blowup_raises(self):
        scorer = linear_multimargin_learn(two_cluster_episode(), self.PHI2, 1.0, 1e3, 200, 1e3, 1.0)
        with pytest.raises(NumericError):
            require_fitted(scorer)

    def test_deterministic(self):
        a = linear_multimargin_learn(two_cluster_episode(), self.PHI2, 1.0, 1e-3, 50, 0.1, 1.0)
        b = linear_multimargin_learn(two_cluster_episode(), self.PHI2, 1.0, 1e-3, 50, 0.1, 1.0)
        assert np.array_equal(a.W, b.W)

    def test_clamped_scores(self):
        ep = two_cluster_episode(gap=40.0)
        scorer = linear_multimargin_learn(ep, self.PHI2, 1.0, 0.0, 200, 0.5, 0.3)[0]
        scores = scorer.scores_matrix(np.random.default_rng(1).normal(0, 30, (1000, 2)))
        assert np.all(np.abs(scores) <= 0.3)

    def test_fit_records_map_and_history(self):
        scorer = linear_multimargin_learn(two_cluster_episode(), self.PHI2, 1.0, 1e-3, 5, 0.1, 1.0)[0]
        assert scorer.phi.id == self.PHI2.id
        assert scorer.loss_history.shape == (5,)
        assert scorer.W.shape == (2, 2)


def test_linear_softmax_learn_improves():
    ep = two_cluster_episode(gap=6.0)
    phi = make_feature_family(2, 2, 1, "identity", 0).maps[0]
    scorer = linear_softmax_learn(ep, phi, 1e-4, 200, 0.5, 10.0)[0]
    assert scorer.loss_history[-1] < scorer.loss_history[0]
    preds = scorer.scores_matrix(ep.xs[0]).argmax(axis=1) + 1
    assert (preds == ep.ys[0]).mean() == 1.0


class TestMetaErmSelect:
    ENV = EnvironmentSpec(d_raw=8, k=3, prototype_scale=5.0, noise_sigma=1e-12)

    @staticmethod
    def centroid_learner(ep, phi):
        return nearest_centroid_learn(ep, phi, 1.0)

    def test_singleton_family(self):
        fam = make_feature_family(8, 8, 1, "identity", 0)
        meta = sample_meta_sample(self.ENV, 3, 12, 1)
        selection = meta_erm_select(meta, fam, self.centroid_learner, 0.3)
        chosen, losses = selection.chosen, selection.losses
        assert chosen is fam.maps[0] and len(losses) == 1

    def test_noiseless_identity_reaches_zero(self):
        maps = (make_feature_family(8, 8, 1, "identity", 0).maps
                + make_feature_family(8, 2, 3, "random_relu", 4).maps)
        fam = FeatureFamily(maps=maps)
        meta = sample_meta_sample(self.ENV, 5, 30, 2)
        selection = meta_erm_select(meta, fam, self.centroid_learner, 0.3)
        chosen, losses = selection.chosen, selection.losses
        assert min(losses) == 0.0
        assert losses[[m.id for m in fam.maps].index(chosen.id)] == 0.0

    def test_returns_argmin_and_all_losses(self):
        fam = make_feature_family(8, 4, 4, "random_linear", 7)
        meta = sample_meta_sample(self.ENV, 4, 15, 3)
        selection = meta_erm_select(meta, fam, self.centroid_learner, 0.3)
        chosen, losses = selection.chosen, selection.losses
        assert len(losses) == 4
        chosen_idx = [m.id for m in fam.maps].index(chosen.id)
        assert losses[chosen_idx] == min(losses)

    def test_tie_broken_by_lowest_id(self):
        fam = make_feature_family(8, 8, 2, "identity", 0)  # identical maps, distinct ids
        meta = sample_meta_sample(self.ENV, 3, 12, 1)
        selection = meta_erm_select(meta, fam, self.centroid_learner, 0.3)
        chosen, losses = selection.chosen, selection.losses
        assert losses[0] == losses[1]
        assert chosen.id == "identity-00"
