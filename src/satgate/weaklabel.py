"""Handcrafted turn-pair features and the logistic weak-label generator.

Satisfaction with turn n is inferred ex post from the user's interaction in
turns n and n+1 (21 features: upstream confidences, reaction time, prompt
words, domain/intent popularity, and token-overlap similarities). A small
expert-labeled set fits a logistic regression whose posterior becomes the
weak label for the whole corpus.

The prompt-word features test a turn's query against three fixed lexicons,
``AFFIRMATION_WORDS``, ``NEGATION_WORDS`` and ``TERMINATION_WORDS``; a
``FeatureExtractor`` holds only the popularity tables fitted on a corpus.

``features_matrix`` is the one feature path: a single pass over the corpus
computes each turn's own quantities once (per distinct query, response and
domain-intent) and forms the columns about turns n+1 and n-1 by shifting to
the adjacent row. Fitting, corpus labeling, the CSV export and the
prediction-time feature baseline all read its rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
import json
import sys

import numpy as np

from .dialog import Session

__all__ = [
    "NUM_FEATURES",
    "CAUSAL_FEATURE_INDICES",
    "FEATURE_NAMES",
    "FeatureExtractor",
    "WeakLabelModel",
    "DegenerateDataError",
    "WeakModelError",
    "train_weak_labeler",
    "weak_label_many",
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

AFFIRMATION_WORDS = frozenset(
    "yes yeah yep ok okay sure thanks thank great perfect good nice".split()
)
NEGATION_WORDS = frozenset("no not nope wrong incorrect nah".split())
TERMINATION_WORDS = frozenset(
    "stop exit quit goodbye bye cancel nevermind".split()
)

# Reaction-time stand-in when the session ends at turn n: a long silence,
# which in the logs usually means the user walked away satisfied.
ABSENT_NEXT_TIME_DIFF = 300.0


class DegenerateDataError(ValueError):
    """Training labels contain a single class; no decision boundary exists."""


class WeakModelError(ValueError):
    """A weak-model file that does not hold what ``save_weak_model`` writes.
    ``field`` names the offending field as a dotted path (``bias``,
    ``weights[3]``, ``extractor.domain_popularity``), or is None when the
    file is not a JSON object."""

    def __init__(self, field, message: str):
        self.field = field
        where = "weak model" if field is None else f"weak model field {field!r}"
        super().__init__(f"{where}: {message}")


_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean", int: "number",
               float: "number", type(None): "null"}


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _json_object(obj, field, keys=None) -> dict:
    """``obj``, checked to be a JSON object, with exactly ``keys`` if given."""
    if not isinstance(obj, dict):
        raise WeakModelError(field, f"expected an object, got {_json_type(obj)}")
    if keys is None:
        return obj
    prefix = "" if field is None else field + "."
    for key in keys:
        if key not in obj:
            raise WeakModelError(prefix + key, "missing")
    unknown = sorted(obj.keys() - set(keys))
    if unknown:
        raise WeakModelError(prefix + unknown[0], "unknown key")
    return obj


def _finite(value, field: str) -> float:
    """``value`` as a float, if it is a finite JSON number (not a boolean)."""
    number = type(value) in (int, float)
    if number and abs(value) <= sys.float_info.max:  # exact for ints, False for NaN
        return float(value)
    got = "a non-finite number" if number else _json_type(value)
    raise WeakModelError(field, f"expected a finite number, got {got}")


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
    """Feature computation state: frozen popularity tables."""

    domain_popularity: dict[str, float]
    intent_popularity: dict[str, float]

    @classmethod
    def fit(cls, sessions: list[Session]) -> "FeatureExtractor":
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
        )

    def rows(self, session: Session) -> np.ndarray:
        """Feature rows for every turn of one session, shape (len(turns), 21)."""
        return features_matrix([session], self)[0]

    def to_dict(self) -> dict:
        return {
            "domain_popularity": dict(sorted(self.domain_popularity.items())),
            "intent_popularity": dict(sorted(self.intent_popularity.items())),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureExtractor":
        """The extractor ``to_dict`` describes; a malformed one is a
        ``WeakModelError`` that names the field."""
        tables = _json_object(d, "extractor", ("domain_popularity", "intent_popularity"))
        return cls(**{
            name: {key: _finite(v, f"extractor.{name}.{key}")
                   for key, v in _json_object(table, f"extractor.{name}").items()}
            for name, table in tables.items()
        })


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
                    0.0 if AFFIRMATION_WORDS.isdisjoint(toks) else 1.0,
                    0.0 if NEGATION_WORDS.isdisjoint(toks) else 1.0,
                    0.0 if TERMINATION_WORDS.isdisjoint(toks) else 1.0,
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
) -> np.ndarray:
    """The weak label of every corpus turn, in corpus order, from one
    corpus-wide feature pass. The logits of each session come from its own
    row slice, so they are the same bits as labeling the session alone (one
    matrix-vector product over the whole corpus can differ in the last bit);
    the sigmoid is elementwise and runs once."""
    X, _ = features_matrix(sessions, extractor)
    ends = accumulate(len(session.turns) for session in sessions)
    logits = [X[end - len(session.turns) : end] @ model.weights for session, end in zip(sessions, ends)]
    return _sigmoid(np.concatenate([np.zeros(0), *logits]) + model.bias)


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


_NEWTON_TOL = 1e-8  # fit_logistic stops once every gradient coordinate is below it
_NEWTON_MAX_ITER = 200


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
) -> tuple[np.ndarray, float, list[float]]:
    """Newton's method with backtracking on the convex penalized objective.

    Returns (weights, bias, per-iteration loss trace); the trace is strictly
    non-increasing.
    """
    n, d = X.shape
    Xa = np.concatenate([X, np.ones((n, 1))], axis=1)
    theta = np.zeros(d + 1)
    loss, grad, p = _nll_and_grad(Xa, y, theta, reg)
    trace = [loss]
    for _ in range(_NEWTON_MAX_ITER):
        if np.max(np.abs(grad)) < _NEWTON_TOL:
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
    if not (np.isfinite(reg_strength) and reg_strength >= 0):
        raise ValueError(f"reg_strength must be finite and non-negative, got {reg_strength!r}")
    if np.min(y) == np.max(y):
        raise DegenerateDataError("training labels contain a single class")

    idx = np.arange(NUM_FEATURES) if feature_indices is None else np.asarray(feature_indices)
    Xs = X[:, idx]
    mean = Xs.mean(axis=0)
    std = Xs.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    Z = (Xs - mean) / std

    w_std, b_std, _ = fit_logistic(Z, y, reg=reg_strength)

    # Fold the standardization into the weights so the model acts on raw features.
    weights = np.zeros(NUM_FEATURES)
    weights[idx] = w_std / std
    bias = b_std - float(np.sum(w_std * mean / std))
    return WeakLabelModel(weights=weights, bias=bias)


def weak_label_many(model: WeakLabelModel, X: np.ndarray) -> np.ndarray:
    """Satisfaction posterior of each row of an (N, 21) feature matrix."""
    return _sigmoid(X @ model.weights + model.bias)


def label_corpus(
    model: WeakLabelModel, extractor: FeatureExtractor, sessions: list[Session]
) -> list[Session]:
    """Attach a weak label to every turn; oracle labels pass through unchanged.
    The sessions were checked when they were built, so only the labels are
    checked again (``Session.with_weak_labels``)."""
    labels = weak_label_sessions(model, extractor, sessions).tolist()
    ends = accumulate(len(session.turns) for session in sessions)
    return [
        session.with_weak_labels(labels[end - len(session.turns) : end])
        for session, end in zip(sessions, ends)
    ]


# --- model file -----------------------------------------------------------

_MODEL_FORMAT_VERSION = 3  # 3: the prompt lexicons are no longer stored


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
    """The model and extractor ``save_weak_model`` wrote. Every field is
    checked here, so a malformed file fails with a ``WeakModelError`` that
    names the field, not later inside labeling."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        record = json.loads(raw)
    except ValueError as exc:  # malformed JSON or UTF-8
        raise WeakModelError(None, f"not a JSON file: {exc}") from exc
    version = _json_object(record, None).get("format_version")
    if type(version) is not int or version != _MODEL_FORMAT_VERSION:
        raise WeakModelError("format_version", f"unsupported weak-model format: {version!r}")
    _json_object(record, None, ("format_version", "weights", "bias", "extractor"))
    weights = record["weights"]
    if not isinstance(weights, list) or len(weights) != NUM_FEATURES:
        got = f"{len(weights)} entries" if isinstance(weights, list) else _json_type(weights)
        raise WeakModelError("weights", f"expected an array of {NUM_FEATURES} numbers, got {got}")
    model = WeakLabelModel(
        weights=np.array([_finite(w, f"weights[{i}]") for i, w in enumerate(weights)]),
        bias=_finite(record["bias"], "bias"),
    )
    return model, FeatureExtractor.from_dict(record["extractor"])
