"""The respond-vs-clarify gate and offline A/B replay of gating variants.

The dialogue manager asks a clarification question when the predicted
satisfaction falls below the threshold. Replayed offline, a clarification on
a truly unsatisfied turn resolves successfully with probability ``p_fix``
(post-clarification rating 1, else 0); one on an already satisfied turn
annoys the user with probability ``p_annoy`` (question rating 0, else 1).
Each variant's experience is the average contextual satisfaction across its
sessions.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .dialog import Session
from .metrics import cus

__all__ = [
    "Decision",
    "GateDecision",
    "ClarificationOutcome",
    "BehaviorModel",
    "Variant",
    "VariantReport",
    "gate",
    "resolve_clarification",
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
class ClarificationOutcome:
    user_satisfied_with_question: int
    post_clarification_rating: float

    def __post_init__(self):
        if self.user_satisfied_with_question not in (0, 1):
            raise ValueError("user_satisfied_with_question must be 0 or 1")
        if not (0.0 <= self.post_clarification_rating <= 1.0):
            raise ValueError("post_clarification_rating must lie in [0, 1]")


@dataclass(frozen=True)
class BehaviorModel:
    p_fix: float = 0.8
    p_annoy: float = 0.5

    def __post_init__(self):
        for name in ("p_fix", "p_annoy"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")


def resolve_clarification(
    behavior: BehaviorModel, oracle_satisfied: bool, u: float
) -> ClarificationOutcome:
    """Outcome of asking a clarification question, driven by one uniform draw."""
    if oracle_satisfied:
        # The candidate response was already right; the question may annoy.
        return ClarificationOutcome(
            user_satisfied_with_question=0 if u < behavior.p_annoy else 1,
            post_clarification_rating=1.0,
        )
    return ClarificationOutcome(
        user_satisfied_with_question=1,
        post_clarification_rating=1.0 if u < behavior.p_fix else 0.0,
    )


@dataclass(frozen=True)
class Variant:
    """A gating policy: no predictor (always respond) or per-turn scores with
    a threshold. ``scores`` aligns with the corpus session order."""

    name: str
    scores: Optional[list[np.ndarray]]
    threshold: float = 0.7


@dataclass(frozen=True)
class VariantReport:
    name: str
    avg_cus: float
    clarification_rate: float
    n_sessions: int


def _session_bucket(session_id: str) -> float:
    digest = hashlib.sha256(session_id.encode("utf-8")).hexdigest()
    return int(digest[:12], 16) / float(1 << 48)


def _clarify_masks(variant: Variant, sessions: list[Session]) -> list[list[bool]]:
    """Per session, the turns the variant clarifies on. Scores are checked
    here, once, before any replay: a threshold inside (0, 1), and per session
    one finite score strictly inside (0, 1) per turn."""
    if variant.scores is None:
        return [[False] * len(session.turns) for session in sessions]
    name = variant.name
    if not (0.0 < variant.threshold < 1.0):
        raise ValueError(
            f"variant {name!r}: threshold must lie strictly in (0, 1), got {variant.threshold!r}"
        )
    if len(variant.scores) != len(sessions):
        raise ValueError(f"variant {name!r} scores do not align with the corpus")
    lengths = [len(raw) for raw in variant.scores]
    for session, n in zip(sessions, lengths):
        if n != len(session.turns):
            raise ValueError(
                f"variant {name!r}: session {session.session_id} has {n} scores "
                f"for {len(session.turns)} turns"
            )
    ends = np.cumsum(lengths, dtype=np.int64)
    flat = np.concatenate([np.zeros(0), *variant.scores])
    ok = (flat > 0.0) & (flat < 1.0)  # NaN fails both
    if not ok.all():
        session = sessions[int(np.searchsorted(ends, np.argmin(ok), side="right"))]
        raise ValueError(
            f"variant {name!r}: session {session.session_id} has a score that is not "
            "a finite value strictly inside (0, 1)"
        )
    clarify = (flat < variant.threshold).tolist()
    return [clarify[end - n : end] for n, end in zip(lengths, ends.tolist())]


def _replay_session(
    session: Session,
    ratings: list[float],
    clarify: list[bool],
    behavior: BehaviorModel,
    seed: int,
) -> tuple[float, int]:
    """Average per-turn experience and clarification count for one session
    that clarifies on the turns where ``clarify`` is set."""
    if not any(clarify):  # the seeded draws only decide clarified turns
        return float(np.mean(ratings)), 0
    sid_key = int(hashlib.sha256(session.session_id.encode("utf-8")).hexdigest()[:12], 16)
    draws = np.random.default_rng([seed, sid_key]).random(len(session.turns))
    contributions = list(ratings)
    for t, clarified in enumerate(clarify):
        if clarified:
            outcome = resolve_clarification(
                behavior, bool(session.oracle_satisfaction[t]), float(draws[t])
            )
            contributions[t] = cus(
                float(outcome.user_satisfied_with_question), outcome.post_clarification_rating
            ).contextual
    return float(np.mean(contributions)), sum(clarify)


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
    masks = [_clarify_masks(variant, sessions) for variant in variants]

    if paired:
        assignment = None
    else:
        weights = (
            np.ones(len(variants)) if partition_weights is None else np.asarray(partition_weights, dtype=float)
        )
        if len(weights) != len(variants) or np.any(weights <= 0):
            raise ValueError("partition_weights must give a positive weight per variant")
        edges = np.cumsum(weights) / weights.sum()
        assignment = [
            int(np.searchsorted(edges, _session_bucket(s.session_id), side="right"))
            for s in sessions
        ]
        assignment = [min(a, len(variants) - 1) for a in assignment]

    # The sessions each variant replays; every label a replay reads is checked
    # here, before any replay runs.
    replays = [
        [si for si, s in enumerate(sessions)
         if s.turns and (assignment is None or assignment[si] == vi)]
        for vi in range(len(variants))
    ]
    ratings = {}
    for vi, replayed in enumerate(replays):
        for si in replayed:
            if si not in ratings:
                ratings[si] = [float(v) for v in sessions[si].labels(rating_source)]
            if any(masks[vi][si]):  # clarifications resolve against the oracle
                sessions[si].labels("oracle")

    reports = []
    for vi, variant in enumerate(variants):
        total_cus = 0.0
        total_clarified = 0
        total_turns = 0
        for si in replays[vi]:
            session_score, clarified = _replay_session(
                sessions[si], ratings[si], masks[vi][si], behavior, seed
            )
            total_cus += session_score
            total_clarified += clarified
            total_turns += len(sessions[si].turns)
        n_sessions = len(replays[vi])
        reports.append(
            VariantReport(
                name=variant.name,
                avg_cus=total_cus / n_sessions if n_sessions else float("nan"),
                clarification_rate=total_clarified / total_turns if total_turns else float("nan"),
                n_sessions=n_sessions,
            )
        )
    return sorted(reports, key=lambda r: (r.avg_cus, r.name))
