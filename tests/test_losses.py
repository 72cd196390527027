import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import ConstantScorer, TableScorer
from metamargin.core import EpisodeBatch
from metamargin.learners import FeatureFamily, FeatureMap, meta_erm_select
from metamargin.losses import episode_losses, margin_loss_array, margin_terms


def index_episode(ys, k):
    """One episode whose points are table indices 0..m-1."""
    m = len(ys)
    xs = np.arange(m, dtype=np.float64).reshape(1, m, 1)
    return EpisodeBatch(xs, np.asarray(ys)[None], k)


def empirical_losses(f, ep, rho):
    """(mean ramp loss, mean multi-margin loss) of f over the points of
    the one episode of ``ep``."""
    ramp, multi = episode_losses(f.scores_matrix(ep.xs[0]), ep.ys[0], rho)
    return float(ramp), float(multi)


def point_terms(f, y, rho=1.0):
    """Margin and per-competitor hinges of f at the single input 0 with
    label y."""
    margins, hinges = margin_terms(f.scores_matrix(np.array([[0.0]])), np.array([y]), rho)
    return float(margins[0]), hinges[0]


def point_margin(f, y):
    # rho only scales the hinges, which are not used here
    return point_terms(f, y)[0]


def point_multi(f, y, rho):
    """Multi-margin loss at one point: the hinge sum over the k-1 competitors."""
    hinges = point_terms(f, y, rho)[1]
    return float(hinges.sum() / (len(hinges) - 1))


def ramp(rho, t):
    return float(margin_loss_array(rho, t))


class TestMargin:
    def test_all_scores_equal(self):
        f = TableScorer([[0.3, 0.3, 0.3]])
        assert point_margin(f, 1) == 0.0

    def test_clear_winner(self):
        f = TableScorer([[2.0, 0.0, 0.0]])
        assert point_margin(f, 1) == 2.0

    def test_negative_margin(self):
        # 0.5 - max(0, 1) = -0.5
        f = TableScorer([[0.5, 0.0, 1.0]])
        assert point_margin(f, 1) == -0.5

    def test_k_one_rejected(self):
        f = TableScorer([[1.0]])
        with pytest.raises(ValueError):
            point_margin(f, 1)

    def test_range(self):
        rng = np.random.default_rng(0)
        b = 2.0
        for _ in range(200):
            k = rng.integers(2, 8)
            f = TableScorer([rng.uniform(-b, b, k)], b=b)
            val = point_margin(f, int(rng.integers(1, k + 1)))
            assert -2 * b <= val <= 2 * b


class TestMarginLoss:
    def test_beyond_rho(self):
        assert ramp(1.0, 2.0) == 0.0

    def test_nonpositive_margin(self):
        assert ramp(1.0, -3.0) == 1.0

    def test_midpoint(self):
        assert ramp(1.0, 0.5) == 0.5

    def test_rho_validation(self):
        for rho in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                ramp(rho, 1.0)
            with pytest.raises(ValueError):
                margin_loss_array(rho, np.array([1.0]))

    def test_nan_margin_is_nan(self):
        # a NaN margin is not a fully right point (loss 0)
        assert math.isnan(ramp(1.0, math.nan))
        assert np.isnan(margin_loss_array(1.0, np.array([0.5, math.nan]))[1])

    @given(st.floats(-50, 50), st.floats(-50, 50),
           st.floats(0.01, 100))
    def test_lipschitz(self, a, b, rho):
        assert abs(ramp(rho, a) - ramp(rho, b)) <= abs(a - b) / rho + 1e-12

    def test_lipschitz_bulk(self):
        # 1e5 random pairs, vectorized
        rng = np.random.default_rng(1)
        a, b = rng.uniform(-10, 10, 100_000), rng.uniform(-10, 10, 100_000)
        rho = rng.uniform(0.1, 10, 100_000)
        gap = np.abs(np.clip(1 - a / rho, 0, 1) - np.clip(1 - b / rho, 0, 1))
        assert np.all(gap <= np.abs(a - b) / rho + 1e-12)

    @given(st.floats(-100, 100), st.floats(0.01, 100))
    def test_range(self, t, rho):
        assert 0.0 <= ramp(rho, t) <= 1.0

    @given(st.floats(-20, 20), st.floats(0.01, 10), st.floats(0.01, 10))
    def test_scale_equivariance(self, t, rho, c):
        assert ramp(c * rho, c * t) == pytest.approx(ramp(rho, t), abs=1e-12)

    def test_monotone_nonincreasing(self):
        ts = np.linspace(-5, 5, 2001)
        vals = margin_loss_array(2.0, ts)
        assert np.all(np.diff(vals) <= 1e-15)


class TestEmpiricalMarginLoss:
    def test_all_margins_large(self):
        f = TableScorer([[5.0, 0.0], [4.0, 0.0]], b=5.0)
        ep = index_episode([1, 1], 2)
        assert empirical_losses(f, ep, 1.0)[0] == 0.0

    def test_constant_scorer(self):
        ep = index_episode([1, 2, 1], 2)
        assert empirical_losses(ConstantScorer(2), ep, 1.0)[0] == 1.0

    def test_mixed_episode(self):
        # margins rho/2 and rho -> losses 0.5 and 0 -> mean 0.25
        f = TableScorer([[0.5, 0.0], [1.0, 0.0]])
        ep = index_episode([1, 1], 2)
        assert empirical_losses(f, ep, 1.0)[0] == pytest.approx(0.25)


class TestMultiMarginLoss:
    def test_large_gaps(self):
        f = TableScorer([[2.0, 0.0, 0.0]])
        assert point_multi(f, 1, 1.0) == 0.0

    def test_all_zero_scores(self):
        f = TableScorer([[0.0, 0.0, 0.0]], b=1.0)
        assert point_multi(f, 1, 1.0) == 1.0

    def test_hand_value(self):
        # terms max(0, 1-0.5) = 0.5 and max(0, 1-(-0.5)) = 1.5 -> mean 1.0
        f = TableScorer([[0.5, 0.0, 1.0]])
        assert point_multi(f, 1, 1.0) == pytest.approx(1.0)

    def test_can_exceed_one(self):
        f = TableScorer([[-1.0, 1.0]])
        assert point_multi(f, 1, 1.0) == 3.0

    @given(st.integers(2, 8), st.floats(0.05, 5), st.data())
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_and_bounded(self, k, rho, data):
        b = 2.0
        scores = data.draw(st.lists(st.floats(-b, b), min_size=k, max_size=k))
        y = data.draw(st.integers(1, k))
        val = point_multi(TableScorer([scores], b=b), y, rho)
        assert 0.0 <= val <= 1.0 + 2.0 * b / rho + 1e-9


class TestEmpiricalMultiMarginLoss:
    def test_all_correct_large_gap(self):
        f = TableScorer([[5.0, 0.0], [5.0, 0.0]], b=5.0)
        assert empirical_losses(f, index_episode([1, 1], 2), 1.0)[1] == 0.0

    def test_constant_scorer(self):
        assert empirical_losses(ConstantScorer(2), index_episode([1, 2], 2), 1.0)[1] == 1.0

    def test_two_example_mean(self):
        # point 0 has gap 2 (loss 0), point 1 has gap 0 (loss 1) -> 0.5
        f = TableScorer([[2.0, 0.0], [0.0, 0.0]])
        assert empirical_losses(f, index_episode([1, 1], 2), 1.0)[1] == pytest.approx(0.5)


class TestSurrogateInequality:
    @given(st.integers(2, 10), st.floats(0.1, 10), st.data())
    @settings(max_examples=300, deadline=None)
    def test_pointwise(self, k, rho, data):
        scores = data.draw(st.lists(st.floats(-5, 5), min_size=k, max_size=k))
        y = data.draw(st.integers(1, k))
        f = TableScorer([scores], b=5.0)
        lhs = ramp(rho, point_margin(f, y))
        rhs = (k - 1) * point_multi(f, y, rho)
        assert lhs <= rhs + 1e-12


class TestAverageEmpiricalLoss:
    """The average empirical loss of a meta-sample is the mean over the
    episode axis of ``episode_losses``, each episode scored by its own
    scorer."""

    @staticmethod
    def _average(scorers, episodes, rho=1.0):
        ys = np.concatenate([ep.ys for ep in episodes])
        scores = np.stack([f.scores_matrix(ep.xs[0]) for f, ep in zip(scorers, episodes)])
        return float(episode_losses(scores, ys, rho)[0].mean())

    def test_single_episode(self):
        ep = index_episode([1, 2], 2)
        f = ConstantScorer(2)
        assert self._average([f], [ep]) == empirical_losses(f, ep, 1.0)[0]

    def test_repeated_episodes(self):
        ep = index_episode([1, 2], 2)
        assert self._average([ConstantScorer(2)] * 4, [ep] * 4) == 1.0

    def test_constructed_mean(self):
        # per-episode losses 0, 0.5, 1 -> mean 0.5
        perfect = TableScorer([[5.0, 0.0]], b=5.0)
        half = TableScorer([[0.5, 0.0]], b=5.0)
        zero = ConstantScorer(2, b=5.0)
        ep = index_episode([1], 2)
        assert self._average([perfect, half, zero], [ep] * 3) == pytest.approx(0.5)

    def test_bad_loss_kind(self):
        meta = index_episode([1], 2)
        family = FeatureFamily((FeatureMap(id="identity", kind="identity", d=1),))
        with pytest.raises(ValueError):
            meta_erm_select(meta, family, lambda batch, phi: ConstantScorer(2, episodes=batch.n),
                            1.0, "zero_one")
