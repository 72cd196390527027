"""Margin, ramp loss, multi-margin surrogate, and their empirical averages.

A scoring function assigns each (input, class) pair a score in [-b, b].
The margin at a labeled point is the true-class score minus the best
competing score. The ramp loss counts a point as fully wrong at margin
<= 0, fully right at margin >= rho, and interpolates linearly between.
The multi-margin loss is the per-competitor hinge average; it upper
bounds the ramp loss via ramp(margin) <= (k-1) * multimargin.
"""

from __future__ import annotations

import numpy as np

LOSS_KINDS = ("margin", "multimargin")


class ScoringFunction:
    """Bounded class-score map. Subclasses implement ``scores_matrix``.

    ``b`` is the score bound: concrete scorers clamp their outputs so
    that |score(x, y)| <= b always holds. A scorer fitted on a batch of
    n episodes maps (n, m, d_raw) inputs to (n, m, k) scores, episode l
    scored by its own fit, and flags in the (n,) bool mask ``failed``
    the episodes its base-learner could not fit.
    """

    b: float

    def scores_matrix(self, xs: np.ndarray) -> np.ndarray:
        """Scores for inputs (..., m, d_raw), shape (..., m, k)."""
        raise NotImplementedError


def margin_terms(scores: np.ndarray, ys: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Margins and per-competitor hinges of scores at their true labels.

    scores has shape (..., m, k) and ys (..., m) with labels in 1..k.
    margins[..., i] is the true-class score minus the best competing
    score; hinges[..., i, j] = max(0, 1 - (s_iy - s_ij) / rho) for each
    competitor j and 0 at j = y. Every loss, the multi-margin learner
    and the transfer-risk estimate take their margins and hinges from
    here.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape[-1] < 2:
        raise ValueError("margins need k >= 2 (max over competing classes is empty)")
    if not rho > 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    col = np.asarray(ys, dtype=np.int64)[..., None] - 1
    gaps = np.take_along_axis(scores, col, axis=-1) - scores
    # The true class competes with nothing: an infinite gap drops it from
    # the minimum and zeroes its hinge. Rounding is monotone, so the
    # minimum gap equals the true score minus the maximum competitor.
    np.put_along_axis(gaps, col, np.inf, axis=-1)
    return gaps.min(axis=-1), np.maximum(0.0, 1.0 - gaps / rho)


def episode_losses(scores: np.ndarray, ys: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Mean ramp loss and mean multi-margin loss of each episode.

    scores (..., m, k) at labels ys (..., m) give two arrays of shape
    (...): one loss per episode, averaged over its m points.
    """
    margins, hinges = margin_terms(scores, ys, rho)
    k = hinges.shape[-1]
    return margin_loss_array(rho, margins).mean(axis=-1), (hinges.sum(axis=-1) / (k - 1)).mean(axis=-1)


def margin_loss_array(rho: float, t: np.ndarray) -> np.ndarray:
    """Ramp loss of margins t: 1 for t <= 0, 0 for t >= rho, linear in
    between; NaN at a NaN margin."""
    if not rho > 0:
        raise ValueError(f"rho must be > 0, got {rho}")
    return np.clip(1.0 - np.asarray(t, dtype=np.float64) / rho, 0.0, 1.0)
