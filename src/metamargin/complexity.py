"""Empirical-process estimators over restricted function classes.

A restricted class is stored as a matrix of function values: one row
per scalar function (a trained scorer projected onto one class label),
one column per sample point. On top of that matrix this module
provides Monte Carlo Gaussian and Rademacher complexity, the Massart
finite-class bound, greedy epsilon-covers under the data-dependent L2
metric d(f, g) = sqrt(mean_j (f_j - g_j)^2), the finite chaining
(Dudley) bound, and the VC covering-number bound.

All logarithms are natural.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .core import Episode, EpisodeBatch
from .learners import BaseLearner, FeatureFamily, require_fitted

# Keep one MC noise chunk below ~64 MB of float64 entries.
_CHUNK_ELEMENTS = 1 << 23


@dataclass(frozen=True, eq=False)
class FunctionValueMatrix:
    """Restriction of a function class to sample points.

    values[i, j] is the i-th function evaluated at the j-th point;
    every entry is bounded by b in absolute value. labels optionally
    carries one string of row metadata per function.
    """

    values: np.ndarray
    b: float
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] < 1:
            raise ValueError("values must be a nonempty 2-D matrix")
        if not (math.isfinite(self.b) and self.b > 0):
            raise ValueError(f"b must be finite and > 0, got {self.b}")
        # the maximum is NaN if any entry is, so this also rejects NaN
        if not np.abs(vals).max() <= self.b + 1e-9:
            raise ValueError(f"entries must be finite and within bound b={self.b}")
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != vals.shape[0]:
                raise ValueError("need one label per row")
            object.__setattr__(self, "labels", labels)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_functions(self) -> int:
        return self.values.shape[0]

    @property
    def n_points(self) -> int:
        return self.values.shape[1]

    def to_csv(self, path_or_buf) -> None:
        """Write as CSV: a ``# b=<float>`` header line, then one row per
        function with its label in the first column."""
        own = isinstance(path_or_buf, (str, bytes))
        handle = open(path_or_buf, "w", newline="") if own else path_or_buf
        try:
            handle.write(f"# b={self.b!r}\n")
            writer = csv.writer(handle)
            labels = self.labels or tuple(f"f{i}" for i in range(self.n_functions))
            for label, row in zip(labels, self.values):
                writer.writerow([label] + [repr(float(v)) for v in row])
        finally:
            if own:
                handle.close()

    @classmethod
    def from_csv(cls, path_or_buf) -> "FunctionValueMatrix":
        own = isinstance(path_or_buf, (str, bytes))
        handle = open(path_or_buf, "r", newline="") if own else path_or_buf
        try:
            header = handle.readline().strip()
            if not header.startswith("# b="):
                raise ValueError("matrix CSV must start with a '# b=<value>' line")
            b = float(header[len("# b="):])
            labels, rows = [], []
            for record in csv.reader(handle):
                if not record:
                    continue
                labels.append(record[0])
                rows.append([float(v) for v in record[1:]])
            if not rows:
                raise ValueError("matrix CSV contains no rows")
            return cls(values=np.array(rows), b=b, labels=tuple(labels))
        finally:
            if own:
                handle.close()


@dataclass(frozen=True)
class ComplexityEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    std_error: float
    draws: int

    def __post_init__(self) -> None:
        if self.draws < 1:
            raise ValueError("draws must be >= 1")
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")


def _restriction_values(batch: EpisodeBatch, family: FeatureFamily, base_learner: BaseLearner,
                        k: int) -> tuple[np.ndarray, list, float, tuple[str, ...]]:
    """Fit every map on the whole batch: values (k*|family|, n, m), the
    scorers, their shared bound b and the row labels."""
    if batch.k != k:
        raise ValueError("episode class count does not match k")
    blocks, scorers, labels = [], [], []
    b = None
    for phi in family.maps:
        scorer = base_learner(batch, phi)
        if b is None:
            b = float(scorer.b)
        elif float(scorer.b) != b:
            raise ValueError("all scorers in a restriction must share the bound b")
        blocks.append(np.moveaxis(scorer.scores_matrix(batch.xs), -1, 0))  # (k, n, m)
        scorers.append(scorer)
        labels.extend(f"y={y}|phi={phi.id}" for y in range(1, k + 1))
    return np.concatenate(blocks), scorers, b, tuple(labels)


def build_pi1f_restriction(
    data: Union[Episode, EpisodeBatch],
    family: FeatureFamily,
    base_learner: BaseLearner,
    k: int,
) -> FunctionValueMatrix:
    """Function values of every (class label, feature map) projection.

    Per feature map one batched fit trains a scorer on each episode;
    the column block for episode l holds that scorer's values on
    episode l's own m points. Shape is (k * |family|) x m for a single
    episode and (k * |family|) x (n * m) for a batch. Raises the
    base-learner's error if it fails on any episode.
    """
    values, scorers, b, labels = _restriction_values(EpisodeBatch.of(data), family, base_learner, k)
    for scorer in scorers:
        require_fitted(scorer)
    return FunctionValueMatrix(values=values.reshape(len(labels), -1), b=b, labels=labels)


def episode_restrictions(
    batch: EpisodeBatch,
    family: FeatureFamily,
    base_learner: BaseLearner,
    k: int,
) -> list[Optional[FunctionValueMatrix]]:
    """The single-episode restriction of each episode of the batch, as
    ``build_pi1f_restriction`` gives it, from one batched fit per map;
    None for an episode the base-learner failed on for some map."""
    values, scorers, b, labels = _restriction_values(batch, family, base_learner, k)
    failed = np.any([scorer.failed for scorer in scorers], axis=0)
    return [None if failed[l] else
            FunctionValueMatrix(values=np.ascontiguousarray(values[:, l]), b=b, labels=labels)
            for l in range(batch.n)]


def _sup_linear_forms(A: FunctionValueMatrix, draws: int, seed: int, gaussian: bool) -> ComplexityEstimate:
    if draws < 2:
        raise ValueError("draws must be >= 2")
    vals = A.values
    n_pts = A.n_points
    rng = np.random.default_rng(seed)
    chunk = max(1, _CHUNK_ELEMENTS // n_pts)
    sups = np.empty(draws)
    done = 0
    while done < draws:
        take = min(chunk, draws - done)
        if gaussian:
            noise = rng.standard_normal((n_pts, take))
        else:
            noise = rng.integers(0, 2, size=(n_pts, take)).astype(np.float64) * 2.0 - 1.0
        sups[done:done + take] = (vals @ noise).max(axis=0)
        done += take
    sups *= 2.0 / n_pts
    mean = float(sups.mean())
    se = float(sups.std(ddof=1) / math.sqrt(draws))
    return ComplexityEstimate(mean=mean, std_error=se, draws=draws)


def gaussian_complexity_mc(A: FunctionValueMatrix, draws: int = 2000, seed: int = 0) -> ComplexityEstimate:
    """Monte Carlo estimate of E_g max_rows (2/M) <row, g>, g ~ N(0, I)."""
    return _sup_linear_forms(A, draws, seed, gaussian=True)


def rademacher_complexity_mc(A: FunctionValueMatrix, draws: int = 2000, seed: int = 0) -> ComplexityEstimate:
    """Monte Carlo estimate with i.i.d. +-1 signs in place of Gaussians."""
    return _sup_linear_forms(A, draws, seed, gaussian=False)


def massart_bound(A: FunctionValueMatrix) -> float:
    """Finite-class bound: max_a ||a - abar|| * 2 sqrt(2 ln N) / M."""
    vals = A.values
    n, m = vals.shape
    centered = vals - vals.mean(axis=0, keepdims=True)
    radius = float(np.linalg.norm(centered, axis=1).max())
    return radius * 2.0 * math.sqrt(2.0 * math.log(n)) / m


def _normalized_sq_dists(vals: np.ndarray) -> np.ndarray:
    # Squared data-dependent L2 distances, (N, N); clipped at 0 for round-off.
    sq = np.einsum("ij,ij->i", vals, vals)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (vals @ vals.T)
    return np.maximum(d2, 0.0) / vals.shape[1]


def _greedy_cover_from_sq_dists(d2: np.ndarray, eps: float) -> list[int]:
    # First fit: row i opens a center when min over earlier centers c of
    # d2[i, c] exceeds eps^2. near[j] holds that minimum for every row j,
    # so the next center is the first later row with near > eps^2.
    eps_sq = eps * eps
    centers = [0]
    near = d2[:, 0].copy()
    while True:
        i = centers[-1]
        later = np.flatnonzero(near[i + 1:] > eps_sq)
        if later.size == 0:
            return centers
        centers.append(i + 1 + int(later[0]))
        np.minimum(near, d2[:, centers[-1]], out=near)


def greedy_epsilon_cover(A: FunctionValueMatrix, eps: float) -> tuple[list[int], int]:
    """First-fit cover under the normalized L2 metric.

    Scans rows in index order, opening a new center whenever no
    existing center lies within eps. Every row ends within eps of a
    center, so the returned size upper-bounds the minimal covering
    number at eps.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps}")
    centers = _greedy_cover_from_sq_dists(_normalized_sq_dists(A.values), eps)
    return centers, len(centers)


def entropy_integral(A: FunctionValueMatrix, levels: int) -> float:
    """Chaining sum sum_{i=1..J} (alpha_i - alpha_{i+1}) sqrt(ln |T_i|).

    alpha_i = L * 2^-i with L the largest normalized row norm, and T_i
    a greedy cover at scale alpha_i. Greedy covers over-count, so the
    sum upper-bounds the entropy integral from 0 to L of
    sqrt(ln N(tau)) dtau; covers of size 1 contribute 0.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    vals = A.values
    L = float(np.sqrt(np.einsum("ij,ij->i", vals, vals) / vals.shape[1]).max())
    if L == 0.0:
        return 0.0
    d2 = _normalized_sq_dists(vals)
    total = 0.0
    for i in range(1, levels + 1):
        alpha_i = L * 2.0 ** (-i)
        size = len(_greedy_cover_from_sq_dists(d2, alpha_i))
        if size > 1:
            total += (alpha_i / 2.0) * math.sqrt(math.log(size))
    return total


def dudley_bound(A: FunctionValueMatrix, levels: int) -> float:
    """Chaining upper bound on the Gaussian complexity of the rows:
    (24 / sqrt(M)) times the finite entropy chaining sum."""
    return 24.0 / math.sqrt(A.n_points) * entropy_integral(A, levels)


@dataclass(frozen=True)
class CoveringNumberBound:
    """VC covering-number bound kept in log space to avoid overflow."""

    log_value: float

    @property
    def value(self) -> float:
        try:
            return math.exp(self.log_value)
        except OverflowError:
            return math.inf


def vc_covering_number_bound(tau: float, v: int, b: float, p: float, c0: float) -> CoveringNumberBound:
    """Covering bound N(tau) <= C0 (v+1) (16e)^(v+1) (b/tau)^(p v)."""
    if not all(map(math.isfinite, (tau, b, p, c0))):
        raise ValueError("tau, b, p and C0 must be finite")
    if not 0 < tau <= b:
        raise ValueError(f"tau must lie in (0, b={b}], got {tau}")
    if v < 1:
        raise ValueError("v must be >= 1")
    if p < 1:
        raise ValueError("p must be >= 1")
    if c0 <= 0:
        raise ValueError("C0 must be > 0")
    log_value = (
        math.log(c0)
        + math.log(v + 1)
        + (v + 1) * math.log(16.0 * math.e)
        + p * v * math.log(b / tau)
    )
    return CoveringNumberBound(log_value=log_value)
