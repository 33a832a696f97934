"""Handcrafted turn-pair features and the logistic weak-label generator.

Satisfaction with turn n is inferred ex post from the user's interaction in
turns n and n+1 (21 features: upstream confidences, reaction time, prompt
words, domain/intent popularity, and token-overlap similarities). A small
expert-labeled set fits a logistic regression whose posterior becomes the
weak label for the whole corpus.
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
    "FeatureVector",
    "FeatureExtractor",
    "WeakLabelModel",
    "DegenerateDataError",
    "train_weak_labeler",
    "weak_label",
    "label_corpus",
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

_PROMPT_INDICES = (2, 3, 4, 5, 19, 20)
_SIMILARITY_INDICES = (14, 15, 16, 17, 18)

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


@dataclass(frozen=True)
class FeatureVector:
    """The 21 weak-label features for one turn, in the order of FEATURE_NAMES."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.shape != (NUM_FEATURES,):
            raise ValueError(f"feature vector must have length {NUM_FEATURES}")
        if not np.all(np.isfinite(v)):
            raise ValueError("feature values must be finite")
        for i in _SIMILARITY_INDICES:
            if not (0.0 <= v[i] <= 1.0):
                raise ValueError(f"similarity feature {FEATURE_NAMES[i]} out of [0, 1]")
        for i in _PROMPT_INDICES:
            if v[i] not in (0.0, 1.0):
                raise ValueError(f"prompt feature {FEATURE_NAMES[i]} must be 0 or 1")


def _jaccard(a: tuple[str, ...], b: tuple[str, ...]) -> float:
    sa, sb = set(a), set(b)
    union = sa | sb
    if not union:
        return 0.0
    return len(sa & sb) / len(union)


def _domain_of(domain_intent: str) -> str:
    return domain_intent.split("-", 1)[0]


def _intent_tokens(domain_intent: str) -> tuple[str, ...]:
    return tuple(domain_intent.replace("-", " ").split())


def _has_prompt(tokens: tuple[str, ...], lexicon: frozenset[str]) -> float:
    return 1.0 if any(t in lexicon for t in tokens) else 0.0


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

    def extract(self, session: Session, n: int) -> FeatureVector:
        return FeatureVector(self._row(session, n))

    def rows(self, session: Session) -> np.ndarray:
        """Feature rows for every turn of one session, shape (len(turns), 21)."""
        if not session.turns:
            return np.zeros((0, NUM_FEATURES))
        return np.stack([self._row(session, t) for t in range(len(session.turns))])

    def _row(self, session: Session, n: int) -> np.ndarray:
        turns = session.turns
        if not (0 <= n < len(turns)):
            raise IndexError(f"turn index {n} out of range for {len(turns)} turns")
        cur = turns[n]
        nxt = turns[n + 1] if n + 1 < len(turns) else None
        prv = turns[n - 1] if n > 0 else None

        v = np.empty(NUM_FEATURES, dtype=np.float64)
        v[0] = cur.asr_confidence
        v[1] = (nxt.timestamp - cur.timestamp) if nxt is not None else ABSENT_NEXT_TIME_DIFF
        v[2] = _has_prompt(cur.query, self.affirmation_words)
        v[3] = _has_prompt(nxt.query, self.affirmation_words) if nxt is not None else 0.0
        v[4] = _has_prompt(cur.query, self.negation_words)
        v[5] = _has_prompt(nxt.query, self.negation_words) if nxt is not None else 0.0
        v[6] = self.domain_popularity.get(_domain_of(cur.domain_intent), 0.0)
        v[7] = (
            self.domain_popularity.get(_domain_of(nxt.domain_intent), 0.0)
            if nxt is not None
            else 0.0
        )
        v[8] = self.intent_popularity.get(cur.domain_intent, 0.0)
        v[9] = (
            self.intent_popularity.get(nxt.domain_intent, 0.0) if nxt is not None else 0.0
        )
        v[10] = float(len(cur.query))
        v[11] = nxt.asr_confidence if nxt is not None else 1.0
        v[12] = nxt.nlu_confidence if nxt is not None else 1.0
        v[13] = cur.nlu_confidence
        v[14] = (
            _jaccard(_intent_tokens(cur.domain_intent), _intent_tokens(nxt.domain_intent))
            if nxt is not None
            else 0.0
        )
        v[15] = _jaccard(cur.query, nxt.query) if nxt is not None else 0.0
        v[16] = _jaccard(cur.voice_response, nxt.voice_response) if nxt is not None else 0.0
        v[17] = _jaccard(cur.voice_response, prv.voice_response) if prv is not None else 0.0
        v[18] = _jaccard(cur.query, cur.voice_response)
        v[19] = _has_prompt(cur.query, self.termination_words)
        v[20] = _has_prompt(nxt.query, self.termination_words) if nxt is not None else 0.0
        return v

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
    """
    rows = []
    index = []
    for si, session in enumerate(sessions):
        for ti in range(len(session.turns)):
            rows.append(extractor._row(session, ti))
            index.append((si, ti))
    if not rows:
        return np.zeros((0, NUM_FEATURES)), np.zeros((0, 2), dtype=np.int64)
    return np.stack(rows), np.asarray(index, dtype=np.int64)


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
    X = np.asarray(
        [fv.values if isinstance(fv, FeatureVector) else fv for fv in features],
        dtype=np.float64,
    )
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


def weak_label(model: WeakLabelModel, fv) -> float:
    """Posterior probability that the user was satisfied with the turn."""
    values = fv.values if isinstance(fv, FeatureVector) else np.asarray(fv, dtype=np.float64)
    return float(_sigmoid(model.weights @ values + model.bias))


def weak_label_many(model: WeakLabelModel, X: np.ndarray) -> np.ndarray:
    return _sigmoid(X @ model.weights + model.bias)


def label_corpus(
    model: WeakLabelModel, extractor: FeatureExtractor, sessions: list[Session]
) -> list[Session]:
    """Attach a weak label to every turn; oracle labels pass through unchanged."""
    labeled = []
    for session in sessions:
        labels = weak_label_many(model, extractor.rows(session))
        labeled.append(session.with_weak_labels(labels.tolist()))
    return labeled


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
