import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from metamargin.core import EnvironmentSpec, EpisodeBatch, EpisodeShape, sample_meta_sample
from metamargin.learners import (
    CentroidScorer,
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

    @pytest.mark.parametrize("cap", [1e-3, 1.0, 5.0, 1e6, 1e150])
    def test_norm_cap_decides_rows_by_the_exact_norm(self, cap):
        # Rows on the cap in many directions, and one ulp off it per entry:
        # some of them round their squared norm below cap^2 and their exact
        # norm above cap.
        rng = np.random.default_rng(7)
        u = rng.normal(size=(256, 37))
        on = u / np.linalg.norm(u, axis=1, keepdims=True) * cap
        axis = np.eye(37)[:3]
        rows = np.concatenate([
            axis * cap, axis * np.nextafter(cap, np.inf), axis * np.nextafter(cap, 0.0),
            on, np.nextafter(on, np.copysign(np.inf, on)), np.nextafter(on, 0.0),
            1e3 * on, np.zeros((3, 37)),
        ])
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(rows, axis=1)
            assert {cap, np.nextafter(cap, np.inf), np.nextafter(cap, 0.0)} <= set(norms)
            want = rows.copy()
            over = norms > cap
            want[over] *= (cap / norms[over])[:, None]
            phi = make_feature_family(37, 37, 1, "identity", 0, norm_cap=cap).maps[0]
            assert phi.apply_matrix(rows).tobytes() == want.tobytes()

    @pytest.mark.parametrize("cap", [1.0, 1e6, 1e150])
    def test_norm_cap_rescales_rows_whose_norm_overflows(self, cap):
        rows = np.array([[1e160, 0.0], [-1e300, 1e300], [3e200, -4e200], [1e155, 1e155]])
        phi = make_feature_family(2, 2, 1, "identity", 0, norm_cap=cap).maps[0]
        with np.errstate(over="ignore"):
            assert np.isinf(np.linalg.norm(rows, axis=1)).all()
        with warnings.catch_warnings():  # numpy's overflow warning would reach a CLI user's stderr
            warnings.simplefilter("error")
            out = phi.apply_matrix(rows)
        want = np.array([[1.0, 0.0], [-np.sqrt(0.5), np.sqrt(0.5)], [0.6, -0.8], [np.sqrt(0.5)] * 2]) * cap
        assert np.allclose(out, want, rtol=1e-15, atol=0.0)
        assert np.array_equal(out[0], [cap, 0.0])

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

    def test_query_on_its_centroid_scores_exactly_zero(self):
        # One support point per class puts each centroid on a point. Far
        # from the origin, ||f||^2 - 2 f.c + ||c||^2 leaves a residual there.
        rng = np.random.default_rng(3)
        xs = 1e3 + rng.normal(size=(4, 5, 8))
        ys = np.tile(np.arange(1, 6), (4, 1))
        phi = make_feature_family(8, 8, 1, "identity", 0).maps[0]
        scorer = nearest_centroid_learn(EpisodeBatch(xs, ys, 5), phi, 1e6)
        assert np.all(np.diagonal(scorer.scores_matrix(xs), axis1=1, axis2=2) == 0.0)
        assert np.all(scorer[2].scores_matrix(xs[2]).diagonal() == 0.0)

    def test_overflowing_squares_score_like_differences(self):
        # Features of norm 1e154 pass a cap of 1e200, but 2 f.c overflows.
        phi = make_feature_family(2, 2, 1, "identity", 0, norm_cap=1e200).maps[0]
        points = np.array([[1e154, 0.0], [-1e154, 0.0]])
        scorer = CentroidScorer(points, 1.0, 1.0, phi, False)
        with np.errstate(over="ignore", invalid="ignore"):
            scores = scorer.scores_matrix(points)
        assert np.array_equal(scores, [[0.0, -1.0], [-1.0, 0.0]])

    @given(st.floats(0.0, 4.0), st.integers(2, 6), st.integers(1, 24), st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=200)
    def test_far_from_the_origin_matches_class_differences(self, log_offset, k, d, seed):
        # ||f - c||^2 is small against ||f||^2 + ||c||^2 here, the regime in
        # which the expanded square cancels.
        rng = np.random.default_rng(seed)
        offset = 10.0 ** log_offset
        xs = offset + rng.normal(size=(3, 2 * k, d))
        ys = np.tile(np.arange(1, k + 1), (3, 2))
        phi = make_feature_family(d, d, 1, "identity", 0).maps[0]
        scorer = nearest_centroid_learn(EpisodeBatch(xs, ys, k), phi, 1e6)
        queries = np.concatenate([xs, offset + rng.normal(size=(3, 10, d))], axis=1)
        dists = np.linalg.norm(queries[:, :, None, :] - scorer.centroids[:, None, :, :], axis=-1)
        want = -dists / scorer.scale[:, None, None]
        np.testing.assert_allclose(scorer.scores_matrix(queries), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_scale_is_the_median_pairwise_distance(self, k):
        # 1, 3, 6 and 10 class pairs: odd and even counts. Episode 0's
        # centroids coincide, so its distances tie at 0. Episode 1's classes
        # 1 and 2 overflow to infinite centroids: the distance between them
        # is NaN, and those to the other classes are infinite.
        rng = np.random.default_rng(k)
        ys = np.tile(np.arange(1, k + 1), (40, 2))
        xs = rng.normal(size=(40, 2 * k, 3))
        xs[0] = xs[0, 0]
        xs[1, ys[1] <= 2] = 1e308
        phi = make_feature_family(3, 3, 1, "identity", 0, norm_cap=1.7e308).maps[0]
        with np.errstate(over="ignore", invalid="ignore"):
            scorer = nearest_centroid_learn(EpisodeBatch(xs, ys, k), phi, 1.0)
            left, right = np.triu_indices(k, k=1)
            c = scorer.centroids
            want = np.median(np.linalg.norm(c[:, left] - c[:, right], axis=-1), axis=-1)
        want[want <= 0.0] = 1.0
        assert np.array_equal(scorer.scale, want, equal_nan=True)
        assert scorer.scale[0] == 1.0 and np.isnan(scorer.scale[1])

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
        with pytest.raises(NumericError):
            require_fitted(nearest_centroid_learn(ep, phi, 1.0))

    def test_trains_on_support_only(self):
        xs = np.array([[-1.0], [1.0], [5.0], [-5.0]])
        ep = EpisodeBatch(xs[None], np.array([[1, 2, 1, 2]]), 2, shape=EpisodeShape(1, 1))
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


@pytest.mark.parametrize("b", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("learn", [
    lambda ep, phi, b: nearest_centroid_learn(ep, phi, b),
    lambda ep, phi, b: linear_multimargin_learn(ep, phi, 1.0, 1e-3, 5, 0.1, b),
    lambda ep, phi, b: linear_softmax_learn(ep, phi, 1e-3, 5, 0.1, b),
], ids=["centroid", "multimargin", "softmax"])
def test_learners_require_finite_positive_b(learn, b):
    phi = make_feature_family(2, 2, 1, "identity", 0).maps[0]
    with pytest.raises(ValueError, match="finite b > 0"):
        learn(two_cluster_episode(), phi, b)


def test_linear_softmax_learn_flags_non_finite_weights():
    # one huge step leaves W non-finite while the recorded objective
    # (taken before the step) is finite; the multi-margin rule flags it
    env = EnvironmentSpec(d_raw=8, k=3, prototype_scale=10.0, noise_sigma=1.0)
    meta = sample_meta_sample(env, 2, 12, 1)
    phi = make_feature_family(8, 8, 1, "identity", 0).maps[0]
    scorer = linear_softmax_learn(meta, phi, 0.0, 1, 1e308, 1.0)
    assert not np.isfinite(scorer.W).all() and scorer.failed.all()
    with pytest.raises(NumericError):
        require_fitted(scorer)


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
