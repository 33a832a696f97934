"""Handcrafted turn-pair features and the logistic weak-label generator.

Satisfaction with turn n is inferred ex post from the user's interaction in
turns n and n+1 (21 features: upstream confidences, reaction time, prompt
words, domain/intent popularity, and token-overlap similarities). A small
expert-labeled set fits a logistic regression whose posterior becomes the
weak label for the whole corpus.

``features_matrix`` is the one feature path: a single pass over the corpus
computes each turn's own quantities once (per distinct query, response and
domain-intent) and forms the columns about turns n+1 and n-1 by shifting to
the adjacent row. Fitting, corpus labeling, the CSV export and the
prediction-time feature baseline all read its rows.
"""

from __future__ import annotations

from dataclasses import dataclass
import json

import numpy as np

from .dialog import Session

__all__ = [
    "NUM_FEATURES",
    "CAUSAL_FEATURE_INDICES",
    "FEATURE_NAMES",
    "FeatureExtractor",
    "WeakLabelModel",
    "DegenerateDataError",
    "train_weak_labeler",
    "weak_label",
    "label_corpus",
    "weak_label_sessions",
    "features_matrix",
    "save_weak_model",
    "load_weak_model",
]

NUM_FEATURES = 21

FEATURE_NAMES = (
    "asr_confidence",
    "time_diff_next",
    "affirmation_current",
    "affirmation_next",
    "negation_current",
    "negation_next",
    "domain_popularity_current",
    "domain_popularity_next",
    "intent_popularity_current",
    "intent_popularity_next",
    "utterance_length",
    "asr_confidence_next",
    "nlu_confidence_next",
    "nlu_confidence",
    "intent_similarity_next",
    "query_similarity_next",
    "response_similarity_next",
    "response_similarity_prev",
    "query_response_similarity",
    "termination_current",
    "termination_next",
)

# Features computable from turns <= n only; used by the prediction-time
# feature baseline (the ex-post weak labeler additionally sees turn n+1).
CAUSAL_FEATURE_INDICES = (0, 2, 4, 6, 8, 10, 13, 17, 18, 19)

DEFAULT_AFFIRMATION_WORDS = frozenset(
    "yes yeah yep ok okay sure thanks thank great perfect good nice".split()
)
DEFAULT_NEGATION_WORDS = frozenset("no not nope wrong incorrect nah".split())
DEFAULT_TERMINATION_WORDS = frozenset(
    "stop exit quit goodbye bye cancel nevermind".split()
)

# Reaction-time stand-in when the session ends at turn n: a long silence,
# which in the logs usually means the user walked away satisfied.
ABSENT_NEXT_TIME_DIFF = 300.0


class DegenerateDataError(ValueError):
    """Training labels contain a single class; no decision boundary exists."""


def _set_jaccard(sa: frozenset, sb: frozenset) -> float:
    """|a & b| / |a | b| (0 when both are empty), with the union's size
    counted as |a| + |b| - |a & b|: the same integers, so the same float."""
    inter = len(sa & sb)
    union = len(sa) + len(sb) - inter
    return inter / union if union else 0.0


def _domain_of(domain_intent: str) -> str:
    return domain_intent.split("-", 1)[0]


def _intent_tokens(domain_intent: str) -> tuple[str, ...]:
    return tuple(domain_intent.replace("-", " ").split())


def _minmax_scale(counts: dict[str, int]) -> dict[str, float]:
    if not counts:
        return {}
    values = list(counts.values())
    lo, hi = min(values), max(values)
    if hi == lo:
        return {k: 1.0 for k in counts}
    return {k: (c - lo) / (hi - lo) for k, c in counts.items()}


@dataclass(frozen=True)
class FeatureExtractor:
    """Feature computation state: prompt lexicons and frozen popularity tables."""

    domain_popularity: dict[str, float]
    intent_popularity: dict[str, float]
    affirmation_words: frozenset[str] = DEFAULT_AFFIRMATION_WORDS
    negation_words: frozenset[str] = DEFAULT_NEGATION_WORDS
    termination_words: frozenset[str] = DEFAULT_TERMINATION_WORDS

    @classmethod
    def fit(cls, sessions: list[Session], **lexicons) -> "FeatureExtractor":
        """Freeze min-max-scaled domain/intent frequencies from a corpus."""
        domain_counts: dict[str, int] = {}
        intent_counts: dict[str, int] = {}
        for session in sessions:
            for turn in session.turns:
                d = _domain_of(turn.domain_intent)
                domain_counts[d] = domain_counts.get(d, 0) + 1
                intent_counts[turn.domain_intent] = intent_counts.get(turn.domain_intent, 0) + 1
        return cls(
            domain_popularity=_minmax_scale(domain_counts),
            intent_popularity=_minmax_scale(intent_counts),
            **lexicons,
        )

    def rows(self, session: Session) -> np.ndarray:
        """Feature rows for every turn of one session, shape (len(turns), 21)."""
        return features_matrix([session], self)[0]

    def to_dict(self) -> dict:
        return {
            "domain_popularity": dict(sorted(self.domain_popularity.items())),
            "intent_popularity": dict(sorted(self.intent_popularity.items())),
            "affirmation_words": sorted(self.affirmation_words),
            "negation_words": sorted(self.negation_words),
            "termination_words": sorted(self.termination_words),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureExtractor":
        return cls(
            domain_popularity=dict(d["domain_popularity"]),
            intent_popularity=dict(d["intent_popularity"]),
            affirmation_words=frozenset(d["affirmation_words"]),
            negation_words=frozenset(d["negation_words"]),
            termination_words=frozenset(d["termination_words"]),
        )


def features_matrix(
    sessions: list[Session], extractor: FeatureExtractor
) -> tuple[np.ndarray, np.ndarray]:
    """Stack features for every turn of every session.

    Returns (features of shape (N, 21), index array of (session_idx, turn_idx)).

    One pass over the corpus computes each turn's own quantities once: its
    query and response token sets, prompt flags, popularity lookups, intent
    tokens and query/response similarity, each looked up per distinct query,
    response and domain-intent (the caches live for this call only). The
    columns about turn n+1 (or n-1) are then the next (previous) row's own
    quantities, and the turn-pair similarities are computed once per pair:
    feature 17 of turn n is feature 16 of turn n-1.
    """
    lengths = np.fromiter((len(s.turns) for s in sessions), dtype=np.int64, count=len(sessions))
    n = int(lengths.sum())
    if n == 0:
        return np.zeros((0, NUM_FEATURES)), np.zeros((0, 2), dtype=np.int64)
    session_idx = np.repeat(np.arange(len(sessions), dtype=np.int64), lengths)
    starts = np.cumsum(lengths) - lengths
    index = np.stack([session_idx, np.arange(n, dtype=np.int64) - starts[session_idx]], axis=1)

    affirmation = extractor.affirmation_words
    negation = extractor.negation_words
    termination = extractor.termination_words
    domain_popularity = extractor.domain_popularity
    intent_popularity = extractor.intent_popularity
    by_query: dict[tuple[str, ...], tuple] = {}
    by_response: dict[tuple[str, ...], frozenset] = {}
    by_intent: dict[str, tuple] = {}
    intent_sim: dict[tuple[str, str], float] = {}

    own = []  # per turn: the quantities that need no other turn
    query_sets, response_sets, intents = [], [], []
    for session in sessions:
        for turn in session.turns:
            q = by_query.get(turn.query)
            if q is None:
                toks = turn.query
                q = by_query[toks] = (
                    frozenset(toks),
                    0.0 if affirmation.isdisjoint(toks) else 1.0,
                    0.0 if negation.isdisjoint(toks) else 1.0,
                    0.0 if termination.isdisjoint(toks) else 1.0,
                    float(len(toks)),
                )
            r = by_response.get(turn.voice_response)
            if r is None:
                r = by_response[turn.voice_response] = frozenset(turn.voice_response)
            di = turn.domain_intent
            d = by_intent.get(di)
            if d is None:
                d = by_intent[di] = (
                    domain_popularity.get(_domain_of(di), 0.0),
                    intent_popularity.get(di, 0.0),
                    frozenset(_intent_tokens(di)),
                )
            query_sets.append(q[0])
            response_sets.append(r)
            intents.append(di)
            own.append((
                turn.asr_confidence, turn.nlu_confidence, turn.timestamp,
                q[1], q[2], q[3], d[0], d[1], q[4], _set_jaccard(q[0], r),
            ))
    asr, nlu, ts, aff, neg, term, dom, intent, length, qr = np.array(own, dtype=np.float64).T

    # Rows whose turn has a successor in its session; row i + 1 holds it.
    has_next = np.ones(n, dtype=bool)
    has_next[(starts + lengths - 1)[lengths > 0]] = False
    cur = np.flatnonzero(has_next)
    nxt = cur + 1

    pair = []
    for i in cur.tolist():
        key = (intents[i], intents[i + 1])
        sim = intent_sim.get(key)
        if sim is None:
            sim = intent_sim[key] = _set_jaccard(by_intent[key[0]][2], by_intent[key[1]][2])
        pair.append((
            sim,
            _set_jaccard(query_sets[i], query_sets[i + 1]),
            _set_jaccard(response_sets[i], response_sets[i + 1]),
        ))
    pair = np.array(pair, dtype=np.float64).reshape(-1, 3)

    X = np.zeros((n, NUM_FEATURES))
    X[:, 0] = asr
    X[:, 1] = ABSENT_NEXT_TIME_DIFF
    X[cur, 1] = ts[nxt] - ts[cur]
    X[:, 2] = aff
    X[cur, 3] = aff[nxt]
    X[:, 4] = neg
    X[cur, 5] = neg[nxt]
    X[:, 6] = dom
    X[cur, 7] = dom[nxt]
    X[:, 8] = intent
    X[cur, 9] = intent[nxt]
    X[:, 10] = length
    X[:, 11] = 1.0
    X[cur, 11] = asr[nxt]
    X[:, 12] = 1.0
    X[cur, 12] = nlu[nxt]
    X[:, 13] = nlu
    X[cur, 14:17] = pair
    X[nxt, 17] = pair[:, 2]
    X[:, 18] = qr
    X[:, 19] = term
    X[cur, 20] = term[nxt]
    return X, index


def weak_label_sessions(
    model: WeakLabelModel, extractor: FeatureExtractor, sessions: list[Session]
) -> list[np.ndarray]:
    """Per session, the weak label of every turn, from one corpus-wide
    feature pass. The logits of each session come from its own row slice, so
    they are the same bits as labeling the session alone (one
    matrix-vector product over the whole corpus can differ in the last bit);
    the sigmoid is elementwise and runs once."""
    X, _ = features_matrix(sessions, extractor)
    ends = np.cumsum([len(session.turns) for session in sessions], dtype=np.int64).tolist()
    bounds = [(end - len(session.turns), end) for session, end in zip(sessions, ends)]
    logits = [X[start:end] @ model.weights for start, end in bounds]
    p = _sigmoid(np.concatenate([np.zeros(0), *logits]) + model.bias)
    return [p[start:end] for start, end in bounds]


# --- logistic regression --------------------------------------------------


@dataclass(frozen=True)
class WeakLabelModel:
    """Logistic model over the raw 21 features: sigmoid(weights . v + bias)."""

    weights: np.ndarray
    bias: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", float(self.bias))
        if w.shape != (NUM_FEATURES,):
            raise ValueError(f"weights must have length {NUM_FEATURES}")
        if not (np.all(np.isfinite(w)) and np.isfinite(self.bias)):
            raise ValueError("model parameters must be finite")


def _sigmoid(z):
    z = np.clip(z, -36.0, 36.0)
    return 1.0 / (1.0 + np.exp(-z))


def _nll_and_grad(Xa: np.ndarray, y: np.ndarray, theta: np.ndarray, reg: float):
    """Penalized negative log-likelihood; bias (last coordinate) unpenalized."""
    z = Xa @ theta
    nll = float(np.sum(np.logaddexp(0.0, -z) + (1.0 - y) * z))
    nll += 0.5 * reg * float(theta[:-1] @ theta[:-1])
    p = _sigmoid(z)
    grad = Xa.T @ (p - y)
    grad[:-1] += reg * theta[:-1]
    return nll, grad, p


def fit_logistic(
    X: np.ndarray,
    y: np.ndarray,
    reg: float = 1.0,
    init: np.ndarray | None = None,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> tuple[np.ndarray, float, list[float]]:
    """Newton's method with backtracking on the convex penalized objective.

    Returns (weights, bias, per-iteration loss trace); the trace is strictly
    non-increasing.
    """
    n, d = X.shape
    Xa = np.concatenate([X, np.ones((n, 1))], axis=1)
    theta = np.zeros(d + 1) if init is None else np.asarray(init, dtype=np.float64).copy()
    loss, grad, p = _nll_and_grad(Xa, y, theta, reg)
    trace = [loss]
    for _ in range(max_iter):
        if np.max(np.abs(grad)) < tol:
            break
        w_diag = p * (1.0 - p)
        H = (Xa * w_diag[:, None]).T @ Xa
        H[np.arange(d), np.arange(d)] += reg
        H[np.arange(d + 1), np.arange(d + 1)] += 1e-10  # floor for separable data
        step = np.linalg.solve(H, grad)
        scale = 1.0
        while scale > 1e-12:
            cand = theta - scale * step
            cand_loss, cand_grad, cand_p = _nll_and_grad(Xa, y, cand, reg)
            if cand_loss <= loss:
                theta, loss, grad, p = cand, cand_loss, cand_grad, cand_p
                break
            scale *= 0.5
        else:
            break
        trace.append(loss)
        if len(trace) >= 2 and trace[-2] - trace[-1] < 1e-14 and np.max(np.abs(grad)) < 1e-6:
            break
    return theta[:-1], float(theta[-1]), trace


def train_weak_labeler(
    features,
    labels,
    reg_strength: float = 1.0,
    feature_indices: tuple[int, ...] | None = None,
    init: np.ndarray | None = None,
) -> WeakLabelModel:
    """Fit the logistic weak labeler on z-scored features.

    ``feature_indices`` restricts the model to a feature subset (weights for
    excluded features are zero); the returned weights act on raw, unscaled
    feature vectors.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != NUM_FEATURES:
        raise ValueError(f"features must form an (N, {NUM_FEATURES}) matrix")
    if X.shape[0] != y.shape[0] or X.shape[0] < 1:
        raise ValueError("features and labels must have equal positive length")
    if reg_strength < 0:
        raise ValueError("reg_strength must be non-negative")
    if np.min(y) == np.max(y):
        raise DegenerateDataError("training labels contain a single class")

    idx = np.arange(NUM_FEATURES) if feature_indices is None else np.asarray(feature_indices)
    Xs = X[:, idx]
    mean = Xs.mean(axis=0)
    std = Xs.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    Z = (Xs - mean) / std

    w_std, b_std, _ = fit_logistic(Z, y, reg=reg_strength, init=init)

    # Fold the standardization into the weights so the model acts on raw features.
    weights = np.zeros(NUM_FEATURES)
    weights[idx] = w_std / std
    bias = b_std - float(np.sum(w_std * mean / std))
    return WeakLabelModel(weights=weights, bias=bias)


def weak_label(model: WeakLabelModel, features) -> float:
    """Posterior probability that the user was satisfied with the turn whose
    21 features are given."""
    return float(_sigmoid(model.weights @ np.asarray(features, dtype=np.float64) + model.bias))


def weak_label_many(model: WeakLabelModel, X: np.ndarray) -> np.ndarray:
    return _sigmoid(X @ model.weights + model.bias)


def label_corpus(
    model: WeakLabelModel, extractor: FeatureExtractor, sessions: list[Session]
) -> list[Session]:
    """Attach a weak label to every turn; oracle labels pass through unchanged."""
    return [
        session.with_weak_labels(labels.tolist())
        for session, labels in zip(sessions, weak_label_sessions(model, extractor, sessions))
    ]


# --- model file -----------------------------------------------------------

_MODEL_FORMAT_VERSION = 2


def save_weak_model(path, model: WeakLabelModel, extractor: FeatureExtractor) -> None:
    record = {
        "format_version": _MODEL_FORMAT_VERSION,
        "weights": model.weights.tolist(),
        "bias": model.bias,
        "extractor": extractor.to_dict(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_weak_model(path) -> tuple[WeakLabelModel, FeatureExtractor]:
    with open(path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    if record.get("format_version") != _MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported weak-model format: {record.get('format_version')!r}")
    model = WeakLabelModel(weights=np.asarray(record["weights"]), bias=record["bias"])
    return model, FeatureExtractor.from_dict(record["extractor"])
