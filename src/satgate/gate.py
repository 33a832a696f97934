"""The respond-vs-clarify gate and offline A/B replay of gating variants.

The dialogue manager asks a clarification question when the predicted
satisfaction falls below the threshold. Replayed offline, a clarification on
a truly unsatisfied turn resolves successfully with probability ``p_fix``
(post-clarification rating 1, else 0); one on an already satisfied turn
annoys the user with probability ``p_annoy`` (question rating 0, else 1).
Each variant's experience is the average contextual satisfaction across its
sessions.

The replay works on corpus-order arrays (sessions in order, each session's
turns in order) with one clarify flag, rating, oracle label and uniform draw
per turn. A session's draws come from a generator seeded by the replay seed
and the session id, taken only when a variant that replays the session
clarifies one of its turns, so every variant sees the same draw for a turn.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .dialog import Session

__all__ = [
    "Decision",
    "GateDecision",
    "BehaviorModel",
    "Variant",
    "VariantReport",
    "gate",
    "resolve_clarifications",
    "simulate_ab",
]


class Decision(Enum):
    RESPOND = "respond"
    CLARIFY = "clarify"


@dataclass(frozen=True)
class GateDecision:
    probability: float
    decision: Decision
    threshold: float

    def __post_init__(self):
        if not (0.0 < self.probability < 1.0):
            raise ValueError(f"probability must lie strictly in (0, 1), got {self.probability!r}")
        if not (0.0 < self.threshold < 1.0):
            raise ValueError(f"threshold must lie strictly in (0, 1), got {self.threshold!r}")
        expected = Decision.CLARIFY if self.probability < self.threshold else Decision.RESPOND
        if self.decision is not expected:
            raise ValueError("decision must be CLARIFY iff probability < threshold")


def gate(probability: float, threshold: float) -> GateDecision:
    """Clarify when predicted satisfaction is strictly below the threshold;
    ties respond."""
    p, t = float(probability), float(threshold)
    decision = Decision.CLARIFY if p < t else Decision.RESPOND
    return GateDecision(probability=p, decision=decision, threshold=t)


@dataclass(frozen=True)
class BehaviorModel:
    p_fix: float = 0.8
    p_annoy: float = 0.5

    def __post_init__(self):
        for name in ("p_fix", "p_annoy"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")


def resolve_clarifications(behavior: BehaviorModel, oracle_satisfied, u) -> np.ndarray:
    """Contextual satisfaction of each clarified turn, each driven by one
    uniform draw in ``u``. On a truly unsatisfied turn the question is welcome
    (rating 1) and the answer is fixed (rating 1) when ``u < p_fix``, else
    stays wrong (0). On a satisfied turn the answer stays right (rating 1) and
    the question annoys (rating 0) when ``u < p_annoy``. The turn scores the
    product of the two ratings, as ``metrics.cus`` does, so 1.0 or 0.0."""
    satisfied = np.asarray(oracle_satisfied, dtype=bool)
    u = np.asarray(u, dtype=np.float64)
    return np.where(satisfied, u >= behavior.p_annoy, u < behavior.p_fix).astype(np.float64)


@dataclass(frozen=True)
class Variant:
    """A gating policy: no predictor (always respond) or per-turn scores with
    a threshold. ``scores`` holds one score per corpus turn, in corpus order."""

    name: str
    scores: Optional[np.ndarray]
    threshold: float = 0.7


@dataclass(frozen=True)
class VariantReport:
    name: str
    avg_cus: float
    clarification_rate: float
    n_sessions: int


def _session_key(session_id: str) -> int:
    return int(hashlib.sha256(session_id.encode("utf-8")).hexdigest()[:12], 16)


def _clarify_mask(variant: Variant, sessions: list[Session], ends: np.ndarray) -> np.ndarray:
    """The variant's clarify flag for each corpus turn, in corpus order; ``ends``
    holds each session's end offset. Scores are checked here, once, before any
    replay: a threshold and one score per turn, each strictly inside (0, 1)."""
    n_turns = int(ends[-1]) if len(ends) else 0
    if variant.scores is None:
        return np.zeros(n_turns, dtype=bool)
    name = variant.name
    if not (0.0 < variant.threshold < 1.0):
        raise ValueError(
            f"variant {name!r}: threshold must lie strictly in (0, 1), got {variant.threshold!r}"
        )
    try:  # np.asarray raises on a ragged list, such as one array per session
        scores = np.asarray(variant.scores, dtype=np.float64)
        if scores.shape != (n_turns,):
            raise ValueError(f"got shape {scores.shape}")
    except (TypeError, ValueError) as exc:
        raise ValueError(f"variant {name!r}: scores must be one 1-d array with a score "
                         f"for each of the corpus's {n_turns} turns: {exc}") from None
    ok = (scores > 0.0) & (scores < 1.0)  # NaN fails both
    if not ok.all():
        session = sessions[int(np.searchsorted(ends, np.argmin(ok), side="right"))]
        raise ValueError(
            f"variant {name!r}: session {session.session_id} has a score that is not "
            "a finite value strictly inside (0, 1)"
        )
    return scores < variant.threshold


def _session_means(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Mean of each session's slice ``values[start : start + length]``, bit for
    bit what ``np.mean`` gives on the slice: the sessions of one length are
    stacked as the rows of a matrix and each row is averaged along itself,
    which sums in the same order."""
    means = np.empty(len(starts))
    for n in np.unique(lengths):
        rows = np.flatnonzero(lengths == n)
        means[rows] = values[starts[rows, None] + np.arange(n)].mean(axis=1)
    return means


def simulate_ab(
    sessions: list[Session],
    variants: Sequence[Variant],
    behavior: BehaviorModel = BehaviorModel(),
    seed: int = 0,
    rating_source: str = "oracle",
    partition_weights: Optional[Sequence[float]] = None,
    paired: bool = False,
) -> list[VariantReport]:
    """Replay the corpus under each gating variant and compare average CUS.

    Sessions are split across variants by a hash of the session id with the
    given weights (equal by default), mirroring a user-population A/B test;
    ``paired=True`` instead replays every variant on every session. Reports
    come back sorted by average CUS.
    """
    if not variants:
        raise ValueError("at least one variant is required")
    lengths = np.array([len(s.turns) for s in sessions], dtype=np.int64)
    ends = np.cumsum(lengths)
    starts = ends - lengths
    masks = [_clarify_mask(variant, sessions, ends) for variant in variants]
    keys = [_session_key(s.session_id) for s in sessions]

    # The sessions each variant replays: every non-empty one, or its share.
    nonempty = lengths > 0
    if paired:
        replays = [nonempty] * len(variants)
    else:
        weights = (
            np.ones(len(variants)) if partition_weights is None else np.asarray(partition_weights, dtype=float)
        )
        if len(weights) != len(variants) or not np.all(np.isfinite(weights) & (weights > 0)):
            raise ValueError("partition_weights must give a finite positive weight per variant")
        edges = np.cumsum(weights) / weights.sum()
        buckets = np.searchsorted(edges, np.array(keys, dtype=np.float64) / float(1 << 48), side="right")
        assignment = np.minimum(buckets, len(variants) - 1)
        replays = [nonempty & (assignment == vi) for vi in range(len(variants))]

    # Each variant's clarified turns per session; a session any variant
    # clarifies in needs its oracle labels and its seeded draws.
    turn_session = np.repeat(np.arange(len(sessions)), lengths)
    clarified = [np.bincount(turn_session[mask], minlength=len(sessions)) for mask in masks]
    drawn = np.logical_or.reduce([replayed & (counts > 0) for replayed, counts in zip(replays, clarified)])

    # Every label a replay reads is checked here, before any replay runs.
    n_turns = len(turn_session)
    ratings = np.fromiter(
        chain.from_iterable(s.labels(rating_source) for s in sessions if s.turns),
        dtype=np.float64, count=n_turns,
    )
    oracle = np.zeros(n_turns, dtype=bool)
    draws = np.zeros(n_turns)
    for si in np.flatnonzero(drawn).tolist():
        span = slice(starts[si], ends[si])
        oracle[span] = sessions[si].labels("oracle")
        draws[span] = np.random.default_rng([seed, keys[si]]).random(lengths[si])
    clarified_cus = resolve_clarifications(behavior, oracle, draws)

    reports = []
    for variant, mask, replayed, counts in zip(variants, masks, replays, clarified):
        turn_cus = np.where(mask, clarified_cus, ratings)
        session_cus = _session_means(turn_cus, starts[replayed], lengths[replayed])
        n_sessions = len(session_cus)
        total_turns = int(lengths[replayed].sum())
        # Session means added one at a time in session order, as a running
        # sum; np.sum would add them pairwise and can differ in the last bit.
        total_cus = float(np.cumsum(session_cus)[-1]) if n_sessions else 0.0
        reports.append(
            VariantReport(
                name=variant.name,
                avg_cus=total_cus / n_sessions if n_sessions else float("nan"),
                clarification_rate=int(counts[replayed].sum()) / total_turns if total_turns else float("nan"),
                n_sessions=n_sessions,
            )
        )
    return sorted(reports, key=lambda r: (r.avg_cus, r.name))
