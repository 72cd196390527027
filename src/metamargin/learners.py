"""Base-learners over fixed feature maps, and empirical-risk selection
of a feature map from a finite family.

A base-learner turns episodes into scoring functions while the feature
map stays frozen, fitting a whole batch of episodes at once. Two
base-learners are provided: a nearest centroid scorer (metric style)
and a linear scorer trained with subgradient descent on the
multi-margin objective (classifier style). A softmax cross-entropy
objective for the linear scorer is included only as a comparison
objective for loss-swap experiments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import EpisodeBatch
from .losses import LOSS_KINDS, ScoringFunction, episode_losses, margin_terms

FEATURE_KINDS = ("identity", "random_linear", "random_relu")

DEFAULT_NORM_CAP = 1e6


class NumericError(RuntimeError):
    """A failed fit (a class missing from the support, a non-finite loss or weight) or a non-finite result."""


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Deterministic embedding of raw inputs into R^d.

    Outputs whose L2 norm exceeds ``norm_cap`` are rescaled onto the
    cap, so downstream score bounds stay enforceable.
    """

    id: str
    kind: str
    d: int
    weight: Optional[np.ndarray] = None
    norm_cap: float = DEFAULT_NORM_CAP

    def __post_init__(self) -> None:
        if self.kind not in FEATURE_KINDS:
            raise ValueError(f"kind must be one of {FEATURE_KINDS}, got {self.kind!r}")
        if not (math.isfinite(self.norm_cap) and self.norm_cap > 0):
            raise ValueError(f"norm_cap must be finite and > 0, got {self.norm_cap}")
        if self.kind == "identity":
            if self.weight is not None:
                raise ValueError("identity map takes no weight")
        else:
            w = np.asarray(self.weight, dtype=np.float64)
            if w.ndim != 2 or w.shape[0] != self.d:
                raise ValueError(f"weight must be (d={self.d}, d_raw)")
            w.setflags(write=False)
            object.__setattr__(self, "weight", w)

    def apply_matrix(self, xs: np.ndarray) -> np.ndarray:
        """Embed a batch of raw inputs, shape (m, d_raw) -> (m, d)."""
        xs = np.asarray(xs, dtype=np.float64)
        if self.kind == "identity":
            out = xs.copy()
        else:
            out = xs @ self.weight.T
            if self.kind == "random_relu":
                np.maximum(out, 0.0, out=out)
        cap = self.norm_cap
        # Squared norms screen the rows, with slack for their rounding; exact norms decide.
        rows = np.flatnonzero(np.einsum("ij,ij->i", out, out) >= cap * cap * (1 - 1e-6))
        if rows.size:
            with np.errstate(over="ignore"):  # an overflowed norm is rescaled below
                norms = np.linalg.norm(out[rows], axis=1)
            over = norms > cap
            huge = np.isinf(norms)
            if huge.any():  # the squares overflowed: divide the row by its largest entry first
                scaled = out[rows[huge]]
                scaled /= np.abs(scaled).max(axis=1, keepdims=True)
                out[rows[huge]] = scaled
                norms[huge] = np.linalg.norm(scaled, axis=1)
            out[rows[over]] *= (cap / norms[over])[:, None]
        return out


@dataclass(frozen=True, eq=False)
class FeatureFamily:
    """Finite set of candidate feature maps with distinct ids."""

    maps: tuple[FeatureMap, ...]

    def __post_init__(self) -> None:
        maps = tuple(self.maps)
        if not maps:
            raise ValueError("feature family must be nonempty")
        ids = [m.id for m in maps]
        if len(set(ids)) != len(ids):
            raise ValueError("feature map ids must be distinct")
        object.__setattr__(self, "maps", maps)

    def __len__(self) -> int:
        return len(self.maps)


def make_feature_family(
    d_raw: int,
    d: int,
    count: int,
    kind: str,
    seed: int,
    norm_cap: float = DEFAULT_NORM_CAP,
) -> FeatureFamily:
    """Build ``count`` feature maps of one kind.

    ``random_linear`` draws a (d, d_raw) Gaussian matrix scaled by
    1/sqrt(d_raw); ``random_relu`` follows the same linear layer with a
    componentwise max(0, .). ``identity`` requires d == d_raw.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if kind not in FEATURE_KINDS:
        raise ValueError(f"kind must be one of {FEATURE_KINDS}, got {kind!r}")
    if kind == "identity" and d != d_raw:
        raise ValueError(f"identity map requires d == d_raw, got d={d}, d_raw={d_raw}")
    rng = np.random.default_rng(seed)
    maps = []
    for i in range(count):
        if kind == "identity":
            maps.append(FeatureMap(id=f"identity-{i:02d}", kind=kind, d=d, norm_cap=norm_cap))
        else:
            w = rng.normal(0.0, 1.0, size=(d, d_raw)) / np.sqrt(d_raw)
            tag = "linear" if kind == "random_linear" else "relu"
            maps.append(FeatureMap(id=f"{tag}-{i:02d}", kind=kind, d=d, weight=w, norm_cap=norm_cap))
    return FeatureFamily(maps=tuple(maps))


# A base-learner maps a batch of episodes and a frozen feature map to one
# scorer over the batch (see ScoringFunction): every episode is fitted at
# once, and the episodes it cannot fit are flagged, not raised: their
# error, ``fit_error()``, is a NumericError (a ValueError is bad input).
BaseLearner = Callable[[EpisodeBatch, FeatureMap], ScoringFunction]


def _features(phi: FeatureMap, xs: np.ndarray) -> np.ndarray:
    """phi applied to inputs (..., m, d_raw), giving (..., m, d)."""
    xs = np.asarray(xs, dtype=np.float64)
    return phi.apply_matrix(xs.reshape(-1, xs.shape[-1])).reshape(xs.shape[:-1] + (phi.d,))


def _onehot(ys: np.ndarray, k: int) -> np.ndarray:
    """(..., m) labels in 1..k as (..., m, k) float indicators."""
    return (ys[..., None] == np.arange(1, k + 1)).astype(np.float64)


def _check_linear(steps: int, lam: float, step_size: float, b: float) -> None:
    """The hyperparameter checks both linear learners share."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not (0 < b < math.inf and 0 <= lam < math.inf and 0 <= step_size < math.inf):
        raise ValueError(f"need finite b > 0 and finite lam, step_size >= 0; got b={b}, lam={lam}, "
                         f"step_size={step_size}")


def require_fitted(scorer: ScoringFunction) -> ScoringFunction:
    """``scorer``, unless its base-learner failed on some episode of the
    batch; then the learner's error is raised."""
    if np.any(scorer.failed):
        raise scorer.fit_error()
    return scorer


class CentroidScorer(ScoringFunction):
    """Scores by normalized negative distance to class centroids.

    centroids has shape (n, k, d) and scale (n,) for a scorer fitted on
    a batch of n episodes. Indexing selects a sub-batch (a mask) or one
    episode's scorer (an int), which has no episode axis and scores
    (m, d_raw) inputs.

    Squared distances expand as ||f||^2 - 2 f.c + ||c||^2, every f.c of
    a call from one batched matmul. Near a centroid the expansion cancels:
    a point on it would score about -1e-8, not 0. So every entry with
    d^2 <= 1e-2 (||f||^2 + ||c||^2) is recomputed exactly as sum((f - c)^2).
    """

    def __init__(self, centroids: np.ndarray, scale, b: float, phi: FeatureMap, failed):
        self.centroids = np.asarray(centroids, dtype=np.float64)
        self.scale = np.asarray(scale, dtype=np.float64)
        self.b = float(b)
        self.phi = phi
        self.failed = np.asarray(failed, dtype=bool)

    def __getitem__(self, index) -> "CentroidScorer":
        return CentroidScorer(self.centroids[index], self.scale[index], self.b, self.phi,
                              self.failed[index])

    def fit_error(self) -> Exception:
        return NumericError("a class is missing from the training portion; centroid undefined")

    def scores_matrix(self, xs: np.ndarray) -> np.ndarray:
        feats = _features(self.phi, xs)
        cents = self.centroids
        sq = (np.einsum("...i,...i->...", feats, feats)[..., :, None]
              + np.einsum("...i,...i->...", cents, cents)[..., None, :])
        d2 = feats @ np.ascontiguousarray(np.swapaxes(-2.0 * cents, -1, -2))
        d2 += sq
        sq *= 1e-2
        near = ~(d2 > sq)  # not d2 <= sq: NaNs from overflow are recomputed too
        if near.any():
            *ep, i, j = np.nonzero(near)
            diff = (np.broadcast_to(feats, d2.shape[:-1] + feats.shape[-1:])[(*ep, i)]
                    - np.broadcast_to(cents, d2.shape[:-2] + cents.shape[-2:])[(*ep, j)])
            d2[near] = np.einsum("ij,ij->i", diff, diff)
        np.sqrt(d2, out=d2)
        d2 /= -self.scale[..., None, None]
        return np.clip(d2, -self.b, self.b, out=d2)


class LinearScorer(ScoringFunction):
    """Linear class scores W phi(x), clamped to [-b, b].

    W has shape (n, k, d) and loss_history (steps, n) for a scorer
    fitted on a batch of n episodes. Indexing selects a sub-batch (a
    mask) or one episode's scorer (an int), which has no episode axis.
    """

    def __init__(self, W: np.ndarray, b: float, phi: FeatureMap, loss_history, failed):
        self.W = np.asarray(W, dtype=np.float64)
        self.b = float(b)
        self.phi = phi
        self.loss_history = np.asarray(loss_history, dtype=np.float64)
        self.failed = np.asarray(failed, dtype=bool)

    def __getitem__(self, index) -> "LinearScorer":
        return LinearScorer(self.W[index], self.b, self.phi, self.loss_history[:, index],
                            self.failed[index])

    def fit_error(self) -> Exception:
        return NumericError("non-finite training loss or weights in linear learner")

    def scores_matrix(self, xs: np.ndarray) -> np.ndarray:
        feats = _features(self.phi, xs)
        return np.clip(feats @ np.swapaxes(self.W, -1, -2), -self.b, self.b)


@functools.cache
def _pairs(k: int) -> tuple[np.ndarray, ...]:
    """Row and column indices of the k*(k-1)/2 class pairs i < j, read-only
    since every call shares them."""
    pairs = np.triu_indices(k, k=1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def nearest_centroid_learn(batch: EpisodeBatch, phi: FeatureMap, b: float) -> CentroidScorer:
    """Fit per-class centroids in feature space, on every episode of a
    batch at once.

    score(x, y) = clamp(-||phi(x) - c_y|| / s, -b, b) where s is the
    median pairwise centroid distance (1 if degenerate). Centroids are
    fitted on the training (support) portion; an episode missing a
    class there is flagged in ``failed``.
    """
    if not 0 < b < math.inf:
        raise ValueError(f"need finite b > 0, got b={b}")
    xs, ys = batch.support()
    k = batch.k
    onehot = _onehot(ys, k)
    counts = onehot.sum(axis=1)
    sums = np.swapaxes(onehot, 1, 2) @ _features(phi, xs)
    centroids = sums / np.maximum(counts, 1.0)[..., None]
    if k >= 2:
        left, right = _pairs(k)
        pairwise = np.linalg.norm(centroids[:, left] - centroids[:, right], axis=-1)
        pairwise.sort(axis=-1)  # the median as np.median takes it: the middle one, or two's mean
        half, odd = divmod(pairwise.shape[-1], 2)
        scale = pairwise[:, half].copy() if odd else (pairwise[:, half - 1] + pairwise[:, half]) / 2
        scale[np.isnan(pairwise[:, -1])] = np.nan  # NaNs sort last, and make np.median NaN
    else:
        scale = np.zeros(batch.n)
    scale[scale <= 0.0] = 1.0
    return CentroidScorer(centroids, scale, b, phi, failed=(counts == 0).any(axis=1))


def linear_multimargin_learn(
    batch: EpisodeBatch,
    phi: FeatureMap,
    rho: float,
    lam: float,
    steps: int,
    step_size: float,
    b: float,
) -> LinearScorer:
    """Train W by subgradient descent on multi-margin loss + lam ||W||^2,
    on every episode of a batch at once.

    W starts at zero so the learner is deterministic. The per-step
    objective values are recorded on the returned scorer. An episode
    whose objective or weights turn non-finite is flagged in
    ``failed``.
    """
    _check_linear(steps, lam, step_size, b)
    if batch.k < 2:
        raise ValueError("linear learner needs k >= 2")
    xs, ys = batch.support()
    feats = _features(phi, xs)
    n, m, d = feats.shape
    k = batch.k
    onehot = _onehot(ys, k)
    W = np.zeros((n, k, d))
    history = np.empty((steps, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            _, hinges = margin_terms(feats @ np.swapaxes(W, 1, 2), ys, rho)
            history[t] = hinges.sum(axis=(1, 2)) / ((k - 1) * m) + lam * (W * W).sum(axis=(1, 2))
            active = (hinges > 0).astype(np.float64)
            # Competitor rows gain phi_i per active hinge; the true-class
            # row loses phi_i once per active hinge of example i.
            coef = active - onehot * active.sum(axis=2, keepdims=True)
            grad = np.swapaxes(coef, 1, 2) @ feats
            grad /= rho * (k - 1) * m
            grad += 2.0 * lam * W
            W -= step_size * grad
    failed = ~np.isfinite(history).all(axis=0) | ~np.isfinite(W).all(axis=(1, 2))
    return LinearScorer(W=W, b=b, phi=phi, loss_history=history, failed=failed)


def linear_softmax_learn(
    batch: EpisodeBatch,
    phi: FeatureMap,
    lam: float,
    steps: int,
    step_size: float,
    b: float,
) -> LinearScorer:
    """Cross-entropy comparator: gradient descent on softmax NLL + L2, on
    every episode of a batch at once. An episode whose objective or
    weights turn non-finite is flagged in ``failed``."""
    _check_linear(steps, lam, step_size, b)
    xs, ys = batch.support()
    feats = _features(phi, xs)
    n, m, d = feats.shape
    onehot = _onehot(ys, batch.k)
    col = ys[..., None] - 1
    W = np.zeros((n, batch.k, d))
    history = np.empty((steps, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            scores = feats @ np.swapaxes(W, 1, 2)
            scores -= scores.max(axis=2, keepdims=True)
            expd = np.exp(scores)
            probs = expd / expd.sum(axis=2, keepdims=True)
            nll = -np.log(np.maximum(np.take_along_axis(probs, col, axis=2)[..., 0], 1e-300))
            history[t] = nll.mean(axis=1) + lam * (W * W).sum(axis=(1, 2))
            grad = np.swapaxes(probs - onehot, 1, 2) @ feats / m + 2.0 * lam * W
            W -= step_size * grad
    failed = ~np.isfinite(history).all(axis=0) | ~np.isfinite(W).all(axis=(1, 2))
    return LinearScorer(W=W, b=b, phi=phi, loss_history=history, failed=failed)


@dataclass(frozen=True, eq=False)
class Selection:
    """What meta_erm_select found.

    ``margin`` and ``multi_margin`` hold the empirical ramp and
    multi-margin loss of every (map, episode) pair, shape
    (|family|, n), maps in family order; ``losses`` is the per-map
    average of the one selection minimized. ``chosen`` is
    ``family.maps[index]``.
    """

    chosen: FeatureMap
    index: int
    margin: np.ndarray
    multi_margin: np.ndarray
    losses: np.ndarray


def meta_erm_select(
    meta_sample: EpisodeBatch,
    family: FeatureFamily,
    base_learner: BaseLearner,
    rho: float,
    loss_kind: str = "margin",
) -> Selection:
    """Pick the feature map with minimal average empirical loss.

    Each map's base-learner fits all n episodes at once; a failure on
    any episode raises. Ties are broken by the lexicographically
    smallest map id.
    """
    if loss_kind not in LOSS_KINDS:
        raise ValueError(f"loss_kind must be one of {LOSS_KINDS}, got {loss_kind!r}")
    margin = np.empty((len(family), meta_sample.n))
    multi = np.empty_like(margin)
    for i, phi in enumerate(family.maps):
        scorer = require_fitted(base_learner(meta_sample, phi))
        margin[i], multi[i] = episode_losses(scorer.scores_matrix(meta_sample.xs), meta_sample.ys, rho)
    losses = (margin if loss_kind == "margin" else multi).mean(axis=1)
    best = min(range(len(family)), key=lambda i: (losses[i], family.maps[i].id))
    return Selection(family.maps[best], best, margin, multi, losses)
