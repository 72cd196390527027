import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import ConstantScorer
from metamargin.complexity import (
    _greedy_cover_from_sq_dists,
    _normalized_sq_dists,
    ComplexityEstimate,
    FunctionValueMatrix,
    build_pi1f_restriction,
    dudley_bound,
    entropy_integral,
    gaussian_complexity_mc,
    greedy_epsilon_cover,
    massart_bound,
    rademacher_complexity_mc,
    vc_covering_number_bound,
)
from metamargin.core import EnvironmentSpec, Episode, sample_meta_sample
from metamargin.learners import make_feature_family, nearest_centroid_learn
from metamargin.losses import margin_loss_array


def rand_matrix(rng, n_max=50, m_max=30, b=1.0):
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    return FunctionValueMatrix(values=rng.uniform(-b, b, size=(n, m)), b=b)


def exhaustive_rademacher(A):
    """Exact Rademacher complexity by enumerating all sign vectors."""
    vals = A.values
    m = vals.shape[1]
    total = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=m):
        total += (vals @ np.asarray(signs)).max()
    return 2.0 / m * total / 2 ** m


def brute_force_min_cover(A, eps):
    """Smallest cover whose centers are rows of A, by subset enumeration."""
    vals = A.values
    n, m = vals.shape
    d = np.sqrt(((vals[:, None, :] - vals[None, :, :]) ** 2).mean(axis=2))
    for size in range(1, n + 1):
        for centers in itertools.combinations(range(n), size):
            if np.all(d[:, list(centers)].min(axis=1) <= eps):
                return size
    return n


class TestRestriction:
    ENV = EnvironmentSpec(d_raw=4, k=2, prototype_scale=2.0, noise_sigma=0.5)

    @staticmethod
    def learner(ep, phi):
        return nearest_centroid_learn(ep, phi, 1.0)

    def test_single_episode_shape(self):
        ep = Episode(xs=np.array([[0.0], [1.0], [2.0]]), ys=np.array([1, 2, 1]), k=2)
        fam = make_feature_family(1, 1, 1, "identity", 0)
        A = build_pi1f_restriction(ep, fam, self.learner, 2)
        assert A.values.shape == (2, 3)
        assert A.labels == ("y=1|phi=identity-00", "y=2|phi=identity-00")

    def test_meta_sample_shape(self):
        meta = sample_meta_sample(self.ENV, 4, 12, 1)
        fam = make_feature_family(4, 3, 3, "random_linear", 2)
        A = build_pi1f_restriction(meta, fam, self.learner, 2)
        assert A.values.shape == (2 * 3, 4 * 12)

    def test_constant_zero_scorers(self):
        ep = Episode(xs=np.zeros((3, 2)), ys=np.array([1, 2, 1]), k=2)
        fam = make_feature_family(2, 2, 1, "identity", 0)
        A = build_pi1f_restriction(ep, fam, lambda batch, p: ConstantScorer(2, 0.0, b=1.0, episodes=batch.n), 2)
        assert np.all(A.values == 0.0)

    def test_entries_bounded(self):
        for seed in range(5):
            meta = sample_meta_sample(self.ENV, 3, 8, seed)
            fam = make_feature_family(4, 4, 2, "random_relu", seed)
            A = build_pi1f_restriction(meta, fam, self.learner, 2)
            assert np.abs(A.values).max() <= A.b


class TestMatrixValidation:
    def test_entries_must_respect_bound(self):
        with pytest.raises(ValueError):
            FunctionValueMatrix(values=np.array([[2.0]]), b=1.0)

    def test_estimate_validation(self):
        with pytest.raises(ValueError):
            ComplexityEstimate(mean=0.0, std_error=-1.0, draws=10)

    def test_csv_roundtrip(self, tmp_path):
        A = FunctionValueMatrix(values=np.array([[0.25, -0.5], [1.0, 0.0]]), b=1.5,
                                labels=("y=1|phi=a", "y=2|phi=a"))
        path = str(tmp_path / "matrix.csv")
        A.to_csv(path)
        B = FunctionValueMatrix.from_csv(path)
        assert np.array_equal(A.values, B.values)
        assert B.b == 1.5 and B.labels == A.labels


class TestGaussianComplexity:
    def test_single_row_near_zero(self):
        A = FunctionValueMatrix(values=np.array([[0.4, -0.7, 0.1]]), b=1.0)
        est = gaussian_complexity_mc(A, 4000, 0)
        assert abs(est.mean) <= 4 * est.std_error

    def test_closed_form_two_basis_rows(self):
        # E max(g1, g2) = 1/sqrt(pi)
        A = FunctionValueMatrix(values=np.array([[1.0, 0.0], [0.0, 1.0]]), b=1.0)
        est = gaussian_complexity_mc(A, 100_000, 7)
        assert abs(est.mean - 1.0 / math.sqrt(math.pi)) <= 4 * est.std_error

    def test_positive_homogeneity_power_of_two_exact(self):
        rng = np.random.default_rng(3)
        A = rand_matrix(rng)
        scaled = FunctionValueMatrix(values=2.0 * A.values, b=2.0 * A.b)
        a = gaussian_complexity_mc(A, 500, 11)
        c = gaussian_complexity_mc(scaled, 500, 11)
        assert c.mean == 2.0 * a.mean

    def test_positive_homogeneity_general_scale(self):
        rng = np.random.default_rng(4)
        A = rand_matrix(rng)
        scale = 0.37
        scaled = FunctionValueMatrix(values=scale * A.values, b=A.b)
        a = gaussian_complexity_mc(A, 500, 11)
        c = gaussian_complexity_mc(scaled, 500, 11)
        assert c.mean == pytest.approx(scale * a.mean, rel=1e-12)

    def test_draws_validation(self):
        A = FunctionValueMatrix(values=np.ones((1, 1)), b=1.0)
        with pytest.raises(ValueError):
            gaussian_complexity_mc(A, 1, 0)


class TestRademacherComplexity:
    def test_positive_homogeneity_power_of_two_exact(self):
        rng = np.random.default_rng(13)
        A = rand_matrix(rng)
        scaled = FunctionValueMatrix(values=2.0 * A.values, b=2.0 * A.b)
        assert (rademacher_complexity_mc(scaled, 500, 11).mean
                == 2.0 * rademacher_complexity_mc(A, 500, 11).mean)

    def test_single_row_near_zero(self):
        A = FunctionValueMatrix(values=np.array([[0.4, -0.7, 0.1]]), b=1.0)
        est = rademacher_complexity_mc(A, 4000, 0)
        assert abs(est.mean) <= 4 * est.std_error

    def test_exhaustive_oracle_two_basis_rows(self):
        A = FunctionValueMatrix(values=np.array([[1.0, 0.0], [0.0, 1.0]]), b=1.0)
        exact = exhaustive_rademacher(A)
        assert exact == pytest.approx(0.5)
        est = rademacher_complexity_mc(A, 50_000, 5)
        assert abs(est.mean - exact) <= 4 * est.std_error

    def test_exhaustive_oracle_random_small(self):
        rng = np.random.default_rng(8)
        for seed in range(3):
            A = FunctionValueMatrix(values=rng.uniform(-1, 1, size=(4, 6)), b=1.0)
            exact = exhaustive_rademacher(A)
            est = rademacher_complexity_mc(A, 30_000, seed)
            assert abs(est.mean - exact) <= 4 * est.std_error

    def test_gaussian_dominates_scaled_rademacher(self):
        rng = np.random.default_rng(12)
        fails = 0
        for seed in range(20):
            A = rand_matrix(rng)
            g = gaussian_complexity_mc(A, 2000, seed)
            r = rademacher_complexity_mc(A, 2000, seed + 1000)
            se = math.hypot(g.std_error, r.std_error)
            if g.mean < math.sqrt(2 / math.pi) * r.mean - 4 * se:
                fails += 1
        assert fails == 0


class TestMassart:
    def test_single_row_zero(self):
        A = FunctionValueMatrix(values=np.array([[0.3, -0.3]]), b=1.0)
        assert massart_bound(A) == 0.0

    def test_hand_value_two_basis_rows(self):
        # sqrt(0.5) * 2 sqrt(2 ln 2) / 2 = sqrt(ln 2)
        A = FunctionValueMatrix(values=np.array([[1.0, 0.0], [0.0, 1.0]]), b=1.0)
        assert massart_bound(A) == pytest.approx(math.sqrt(math.log(2.0)), abs=1e-12)

    def test_dominates_mc_estimate(self):
        rng = np.random.default_rng(21)
        for seed in range(20):
            A = rand_matrix(rng)
            est = gaussian_complexity_mc(A, 2000, seed)
            assert massart_bound(A) >= est.mean - 4 * est.std_error


class TestGreedyCover:
    def test_eps_above_diameter(self):
        rng = np.random.default_rng(0)
        A = rand_matrix(rng)
        _, size = greedy_epsilon_cover(A, 10.0 * A.b)
        assert size == 1

    def test_three_points_on_line(self):
        A = FunctionValueMatrix(values=np.array([[0.0], [1.0], [2.0]]), b=2.0)
        centers, size = greedy_epsilon_cover(A, 1.0)
        assert size == 2 and centers == [0, 2]
        assert brute_force_min_cover(A, 1.0) == 1  # center row 1 covers both ends

    def test_greedy_upper_bounds_minimum(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            A = FunctionValueMatrix(values=rng.uniform(-1, 1, size=(7, 3)), b=1.0)
            eps = float(rng.uniform(0.2, 1.5))
            _, size = greedy_epsilon_cover(A, eps)
            assert size >= brute_force_min_cover(A, eps)

    def test_size_monotone_in_eps(self):
        rng = np.random.default_rng(6)
        A = rand_matrix(rng)
        sizes = [greedy_epsilon_cover(A, eps)[1] for eps in np.linspace(0.05, 2.5, 15)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_every_row_within_eps_of_a_center(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            A = rand_matrix(rng)
            eps = float(rng.uniform(0.1, 1.0))
            centers, _ = greedy_epsilon_cover(A, eps)
            d = np.sqrt(((A.values[:, None, :] - A.values[None, centers, :]) ** 2).mean(axis=2))
            assert np.all(d.min(axis=1) <= eps + 1e-12)

    def test_eps_validation(self):
        A = FunctionValueMatrix(values=np.ones((1, 1)), b=1.0)
        with pytest.raises(ValueError):
            greedy_epsilon_cover(A, 0.0)


def loop_cover(d2, eps):
    """Reference first-fit cover: row i opens a center when every earlier
    center c has d2[i, c] > eps^2."""
    centers = []
    for i in range(d2.shape[0]):
        if not centers or min(d2[i, c] for c in centers) > eps * eps:
            centers.append(i)
    return centers


@given(st.integers(1, 40), st.sampled_from(["rows", "asymmetric", "ties"]),
       st.floats(0.05, 2.0), st.integers(0, 2**32 - 1))
@settings(deadline=None)
def test_vectorized_cover_matches_loop(n, kind, eps, seed):
    rng = np.random.default_rng(seed)
    if kind == "rows":
        d2 = _normalized_sq_dists(rng.uniform(-1, 1, size=(n, int(rng.integers(1, 6)))))
    elif kind == "asymmetric":
        d2 = rng.uniform(0.0, 4.0, size=(n, n))
    else:  # integer distances at eps = 1 put rows exactly on the boundary
        d2, eps = rng.integers(0, 3, size=(n, n)).astype(np.float64), 1.0
    assert _greedy_cover_from_sq_dists(d2, eps) == loop_cover(d2, eps)


class TestDudley:
    def test_single_row_zero(self):
        A = FunctionValueMatrix(values=np.array([[0.5, -0.5]]), b=1.0)
        assert dudley_bound(A, 12) == 0.0

    def test_dominates_mc_estimate(self):
        rng = np.random.default_rng(31)
        for seed in range(20):
            A = rand_matrix(rng)
            est = gaussian_complexity_mc(A, 2000, seed)
            assert dudley_bound(A, 12) >= est.mean - 4 * est.std_error

    def test_nondecreasing_in_levels(self):
        rng = np.random.default_rng(32)
        A = rand_matrix(rng)
        vals = [dudley_bound(A, j) for j in range(1, 16)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_consistent_with_entropy_integral(self):
        rng = np.random.default_rng(33)
        A = rand_matrix(rng)
        assert dudley_bound(A, 12) == pytest.approx(
            24.0 / math.sqrt(A.n_points) * entropy_integral(A, 12))


class TestGaussianContraction:
    def test_ramp_composition_contracts(self):
        rng = np.random.default_rng(41)
        for seed in range(10):
            A = rand_matrix(rng, b=1.0)
            for rho in (0.5, 1.0, 2.0):
                transformed = FunctionValueMatrix(
                    values=margin_loss_array(rho, A.values), b=1.0)
                left = gaussian_complexity_mc(transformed, 2000, seed)
                right = gaussian_complexity_mc(A, 2000, seed + 500)
                se = math.hypot(left.std_error, right.std_error / rho)
                assert left.mean <= right.mean / rho + 4 * se


def test_sign_times_gaussian_is_gaussian():
    # Kolmogorov-Smirnov check at significance 0.001 on 1e5 draws
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(55)
    sigma = rng.integers(0, 2, size=100_000) * 2.0 - 1.0
    gamma = rng.standard_normal(100_000)
    result = stats.kstest(sigma * gamma, "norm")
    assert result.pvalue >= 0.001


class TestVcCoveringBound:
    def test_tau_equals_b(self):
        out = vc_covering_number_bound(1.0, 3, 1.0, 2, 2.0)
        expected = math.log(2.0) + math.log(4) + 4 * math.log(16 * math.e)
        assert out.log_value == pytest.approx(expected, abs=1e-12)

    def test_arithmetic_oracle(self):
        # v=1, p=2, b=1, C0=e, tau=0.5: 1 + ln 2 + 2 ln(16e) + 2 ln 2
        out = vc_covering_number_bound(0.5, 1, 1.0, 2, math.e)
        expected = 1.0 + math.log(2.0) + 2.0 * math.log(16.0 * math.e) + 2.0 * math.log(2.0)
        assert out.log_value == pytest.approx(expected, abs=1e-12)

    def test_log_decreasing_in_tau(self):
        taus = np.linspace(0.05, 1.0, 30)
        logs = [vc_covering_number_bound(float(t), 4, 1.0, 2, math.e).log_value for t in taus]
        assert all(a > b for a, b in zip(logs, logs[1:]))

    def test_value_exponentiates(self):
        out = vc_covering_number_bound(0.5, 1, 1.0, 1, 1.0)
        assert out.value == pytest.approx(math.exp(out.log_value))
        big = vc_covering_number_bound(1e-300, 50, 1.0, 2, 1.0)
        assert big.value == math.inf

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            vc_covering_number_bound(0.0, 1, 1.0, 2, 1.0)
        with pytest.raises(ValueError):
            vc_covering_number_bound(1.5, 1, 1.0, 2, 1.0)
