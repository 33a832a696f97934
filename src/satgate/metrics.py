"""Evaluation metrics: ranking quality, recall under a precision floor, and
contextual user satisfaction for clarification turns.

Scores must be finite: a NaN or infinite score fails with a ``ValueError``
naming its index. AUC ranks the scores with a numpy average-rank helper, not
scipy, so importing this module (and ``training`` or ``cli``, which import
it) loads no scipy module; its ranks are the doubles of
``scipy.stats.rankdata``, so every AUC is the same to the last bit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "UndefinedMetricError",
    "CUSRating",
    "auc",
    "cla",
    "accuracy_with_tuned_threshold",
    "precision_recall_table",
    "cus",
]


_THRESHOLDS = np.arange(101) / 100.0  # 0.00, 0.01, ..., 1.00, each the double nearest its label


class UndefinedMetricError(ValueError):
    """The metric needs both classes present in the labels."""


def _scores_labels(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be 1-d sequences of equal length")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be 0 or 1")
    bad = np.flatnonzero(~np.isfinite(s))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"scores must be finite; score {i} is {float(s[i])!r}")
    return s, y.astype(np.int64)


def _average_ranks(s: np.ndarray) -> np.ndarray:
    """1-based ranks of ``s``, each group of tied scores given the mean of
    its ranks, (start + end + 1) / 2 over its sorted positions [start, end).
    These are integers or exact halves: the doubles ``rankdata`` returns."""
    order = np.argsort(s, kind="stable")
    ordered = s[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(s)]
    ranks = np.empty(len(s))
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def auc(scores, labels) -> float:
    """Area under the ROC curve as the Mann-Whitney statistic.

    Equals P(score of a random positive > score of a random negative) plus
    half the tie probability.
    """
    s, y = _scores_labels(scores, labels)
    n_pos = int(y.sum())
    n_neg = int(len(y) - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs at least one positive and one negative")
    ranks = _average_ranks(s)  # average ranks resolve ties as half-credit
    rank_sum_pos = float(ranks[y == 1].sum())
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def cla(scores, labels, precision_floor: float = 0.85) -> float:
    """Maximum recall over score thresholds whose precision meets the floor.

    A sample is predicted positive when its score >= threshold; candidate
    thresholds are the distinct scores (every achievable operating point).
    Returns 0 when no threshold qualifies.
    """
    s, y = _scores_labels(scores, labels)
    n_pos = int(y.sum())
    if n_pos == 0 or n_pos == len(y):
        raise UndefinedMetricError("CLA needs at least one positive and one negative")
    order = np.argsort(-s, kind="mergesort")
    s_sorted = s[order]
    tp = np.cumsum(y[order] == 1)
    predicted = np.arange(1, len(y) + 1)
    # Operating points sit at the last index of each tied score block.
    last_of_block = np.nonzero(np.diff(s_sorted, append=np.nan))[0]
    precision = tp[last_of_block] / predicted[last_of_block]
    recall = tp[last_of_block] / n_pos
    feasible = precision >= precision_floor
    if not np.any(feasible):
        return 0.0
    return float(np.max(recall[feasible]))


def accuracy_with_tuned_threshold(scores, labels) -> tuple[float, float]:
    """Best classification accuracy over the grid 0.00, 0.01, ..., 1.00.

    A sample is predicted positive when its score >= threshold. Returns
    (accuracy, smallest threshold achieving it).
    """
    s, y = _scores_labels(scores, labels)
    n = len(y)
    if n == 0:
        raise ValueError("scores must be non-empty")
    npred, tp = _grid_counts(s, y)
    # Correct = true positives + true negatives = tp + (n - npred - (n_pos - tp)).
    accuracies = (n - npred - int(y.sum()) + 2 * tp) / n
    best = int(np.argmax(accuracies))  # argmax takes the smallest index on ties
    return float(accuracies[best]), float(_THRESHOLDS[best])


def precision_recall_table(scores, labels) -> list[tuple[float, float, float]]:
    """(threshold, precision, recall) rows over the grid that accuracy is tuned
    on; precision is NaN when nothing is predicted positive."""
    s, y = _scores_labels(scores, labels)
    npred, tp = _grid_counts(s, y)
    n_pos = int(y.sum())
    precision = np.divide(tp, npred, out=np.full(len(tp), np.nan), where=npred > 0)
    recall = tp / n_pos if n_pos else np.full(len(tp), np.nan)
    return list(zip(_THRESHOLDS.tolist(), precision.tolist(), recall.tolist()))


def _grid_counts(s: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Predicted-positive and true-positive counts at each threshold of
    ``_THRESHOLDS``, predicting positive where score >= threshold."""
    predicted = s[None, :] >= _THRESHOLDS[:, None]
    return predicted.sum(axis=1), predicted[:, y == 1].sum(axis=1)


@dataclass(frozen=True)
class CUSRating:
    """Experience of one clarification event: the question turn's rating, the
    post-clarification turn's rating, and their product."""

    turn_rating_n: float
    turn_rating_next: float
    contextual: float

    def __post_init__(self):
        for name in ("turn_rating_n", "turn_rating_next", "contextual"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
        if self.contextual != self.turn_rating_n * self.turn_rating_next:
            raise ValueError("contextual must equal the product of the turn ratings")


def cus(turn_rating_n: float, turn_rating_next: float) -> CUSRating:
    """Contextual user satisfaction of a clarification turn: the product of the
    rating when the question is asked and the rating of the following turn."""
    a, b = float(turn_rating_n), float(turn_rating_next)
    return CUSRating(turn_rating_n=a, turn_rating_next=b, contextual=a * b)
