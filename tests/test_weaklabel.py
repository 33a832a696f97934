import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from satgate.dialog import Session
from satgate.weaklabel import (
    CAUSAL_FEATURE_INDICES,
    NUM_FEATURES,
    DegenerateDataError,
    FeatureExtractor,
    FeatureVector,
    WeakLabelModel,
    features_matrix,
    fit_logistic,
    label_corpus,
    load_weak_model,
    save_weak_model,
    train_weak_labeler,
    weak_label,
)

from conftest import make_turn


def _session(turns, **kw):
    return Session("s0", tuple(turns), **kw)


# --- feature extraction ----------------------------------------------------


def test_identical_consecutive_queries_give_similarity_one(small_extractor):
    t0 = make_turn(timestamp=0.0)
    t1 = make_turn(timestamp=5.0)
    fv = small_extractor.extract(_session([t0, t1]), 0)
    assert fv.values[15] == 1.0


def test_utterance_length_counts_tokens(small_extractor):
    turn = make_turn(query="play music")
    fv = small_extractor.extract(_session([turn]), 0)
    assert fv.values[10] == 2.0


def test_negation_prompt_in_next_turn(small_extractor):
    t0 = make_turn(timestamp=0.0)
    t1 = make_turn(query="no that is wrong", timestamp=3.0)
    fv = small_extractor.extract(_session([t0, t1]), 0)
    assert fv.values[5] == 1.0
    assert fv.values[4] == 0.0  # current turn has no negation word


def test_absent_next_turn_defaults(small_extractor):
    turn = make_turn()
    fv = small_extractor.extract(_session([turn]), 0)
    assert fv.values[1] == 300.0     # time-difference sentinel
    assert fv.values[11] == 1.0      # next asr confidence
    assert fv.values[12] == 1.0      # next nlu confidence
    assert fv.values[3] == 0.0 and fv.values[5] == 0.0 and fv.values[20] == 0.0
    assert fv.values[15] == 0.0 and fv.values[16] == 0.0


def test_confidences_and_time_difference(small_extractor):
    t0 = make_turn(timestamp=0.0, asr_confidence=0.8, nlu_confidence=0.7)
    t1 = make_turn(timestamp=42.5, asr_confidence=0.6, nlu_confidence=0.5)
    fv = small_extractor.extract(_session([t0, t1]), 0)
    assert fv.values[0] == 0.8
    assert fv.values[13] == 0.7
    assert fv.values[1] == 42.5
    assert fv.values[11] == 0.6
    assert fv.values[12] == 0.5


def test_bounds_error(small_extractor):
    with pytest.raises(IndexError):
        small_extractor.extract(_session([make_turn()]), 1)


def test_feature_purity(small_corpus, small_extractor):
    """The vector for turn n depends only on turns n-1, n, n+1."""
    session = next(s for s in small_corpus if len(s.turns) >= 4)
    n = 1
    before = small_extractor.extract(session, n).values
    mutated_turns = list(session.turns)
    mutated_turns[3] = make_turn(query="completely different words", timestamp=mutated_turns[3].timestamp)
    mutated = Session(session.session_id, tuple(mutated_turns))
    after = small_extractor.extract(mutated, n).values
    assert np.array_equal(before, after)


def test_feature_vector_validation():
    with pytest.raises(ValueError):
        FeatureVector(np.zeros(20))
    bad = np.zeros(NUM_FEATURES)
    bad[15] = 1.5  # similarity out of range
    with pytest.raises(ValueError):
        FeatureVector(bad)
    bad = np.zeros(NUM_FEATURES)
    bad[2] = 0.5  # prompt features are binary
    with pytest.raises(ValueError):
        FeatureVector(bad)


def test_extractor_roundtrip(small_extractor):
    back = FeatureExtractor.from_dict(small_extractor.to_dict())
    assert back.domain_popularity == small_extractor.domain_popularity
    assert back.intent_popularity == small_extractor.intent_popularity


# --- logistic model --------------------------------------------------------


def test_zero_model_predicts_half():
    model = WeakLabelModel(weights=np.zeros(NUM_FEATURES), bias=0.0)
    fv = FeatureVector(np.zeros(NUM_FEATURES))
    assert weak_label(model, fv) == 0.5


def test_large_bias_saturates():
    model = WeakLabelModel(weights=np.zeros(NUM_FEATURES), bias=20.0)
    assert weak_label(model, FeatureVector(np.zeros(NUM_FEATURES))) > 0.999


def test_weak_label_matches_scalar_recomputation(rng):
    weights = rng.normal(size=NUM_FEATURES)
    bias = float(rng.normal())
    model = WeakLabelModel(weights=weights, bias=bias)
    values = rng.uniform(0, 1, NUM_FEATURES)
    dot = bias
    for w, v in zip(weights, values):
        dot += w * v
    expected = 1.0 / (1.0 + math.exp(-dot))
    assert abs(weak_label(model, values) - expected) < 1e-12


def _separable_toy_set(rng):
    """20 points, labels decided by feature0 - feature1 > 0, margin >= 0.2."""
    X = np.zeros((20, NUM_FEATURES))
    labels = np.zeros(20)
    for i in range(20):
        gap = rng.uniform(0.2, 1.0) * (1 if i % 2 else -1)
        base = rng.uniform(0, 1)
        X[i, 0] = base + gap / 2
        X[i, 1] = base - gap / 2
        labels[i] = 1 if gap > 0 else 0
    return X, labels


def _line_separates(X, labels, w0, w1, b):
    z = X[:, 0] * w0 + X[:, 1] * w1 + b
    return np.all((z > 0) == (labels == 1)) and np.all(z != 0)


def test_separable_toy_set_reaches_perfect_accuracy(rng):
    X, labels = _separable_toy_set(rng)
    # oracle: exhaustive grid over line angles and offsets confirms separability
    found = False
    for angle in np.linspace(0, 2 * np.pi, 720, endpoint=False):
        for b in np.linspace(-2, 2, 81):
            if _line_separates(X, labels, np.cos(angle), np.sin(angle), b):
                found = True
                break
        if found:
            break
    assert found, "toy set is not linearly separable"
    model = train_weak_labeler(X, labels, reg_strength=1e-6)
    preds = np.array([weak_label(model, x) for x in X])
    assert np.all((preds >= 0.5) == (labels == 1))


def test_training_loss_monotone_and_converges(rng):
    X = rng.normal(size=(200, 6))
    true_w = rng.normal(size=6)
    y = (X @ true_w + rng.normal(scale=0.5, size=200) > 0).astype(float)
    _, _, trace = fit_logistic(X, y, reg=1.0)
    assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))
    assert len(trace) >= 2


def test_convexity_same_optimum_from_different_inits(rng):
    X = rng.normal(size=(150, 5))
    y = (X[:, 0] - X[:, 1] + rng.normal(scale=0.3, size=150) > 0).astype(float)
    _, _, trace_zero = fit_logistic(X, y, reg=0.5)
    init = rng.normal(size=6)
    _, _, trace_rand = fit_logistic(X, y, reg=0.5, init=init)
    assert abs(trace_zero[-1] - trace_rand[-1]) < 1e-6


def test_single_class_raises():
    X = np.zeros((10, NUM_FEATURES))
    with pytest.raises(DegenerateDataError):
        train_weak_labeler(X, np.ones(10))


def test_monotone_link(rng, small_corpus, small_extractor):
    """Raising a positively weighted feature never lowers the output."""
    X, _ = features_matrix(small_corpus, small_extractor)
    y = np.array([v for s in small_corpus for v in s.oracle_satisfaction], float)
    model = train_weak_labeler(X, y, reg_strength=1.0)
    positive = [i for i in range(NUM_FEATURES) if model.weights[i] > 0]
    assert positive
    fv = X[0].copy()
    base = weak_label(model, fv)
    for i in positive[:5]:
        bumped = fv.copy()
        bumped[i] += 1.0
        assert weak_label(model, bumped) >= base


def test_label_corpus(small_corpus, small_extractor):
    X, _ = features_matrix(small_corpus, small_extractor)
    y = np.array([v for s in small_corpus for v in s.oracle_satisfaction], float)
    model = train_weak_labeler(X, y)
    labeled = label_corpus(model, small_extractor, small_corpus)
    assert len(labeled) == len(small_corpus)
    for before, after in zip(small_corpus, labeled):
        assert after.weak_labels is not None
        assert len(after.weak_labels) == len(after.turns)
        assert all(0.0 <= v <= 1.0 for v in after.weak_labels)
        assert after.oracle_satisfaction == before.oracle_satisfaction
        assert after.turns == before.turns
    again = label_corpus(model, small_extractor, small_corpus)
    assert again == labeled


def test_label_corpus_empty(small_corpus, small_extractor):
    X, _ = features_matrix(small_corpus, small_extractor)
    y = np.array([v for s in small_corpus for v in s.oracle_satisfaction], float)
    model = train_weak_labeler(X, y)
    assert label_corpus(model, small_extractor, []) == []


def test_causal_subset_zeroes_excluded_weights(small_corpus, small_extractor):
    X, _ = features_matrix(small_corpus, small_extractor)
    y = np.array([v for s in small_corpus for v in s.oracle_satisfaction], float)
    model = train_weak_labeler(X, y, feature_indices=CAUSAL_FEATURE_INDICES)
    excluded = sorted(set(range(NUM_FEATURES)) - set(CAUSAL_FEATURE_INDICES))
    assert np.all(model.weights[excluded] == 0.0)
    assert np.any(model.weights[list(CAUSAL_FEATURE_INDICES)] != 0.0)


def test_model_file_roundtrip(tmp_path, small_corpus, small_extractor):
    X, _ = features_matrix(small_corpus, small_extractor)
    y = np.array([v for s in small_corpus for v in s.oracle_satisfaction], float)
    model = train_weak_labeler(X, y)
    path = tmp_path / "weak.json"
    save_weak_model(path, model, small_extractor)
    back_model, back_extractor = load_weak_model(path)
    assert np.array_equal(back_model.weights, model.weights)
    assert back_model.bias == model.bias
    assert back_extractor.domain_popularity == small_extractor.domain_popularity
    fv = X[3]
    assert weak_label(back_model, fv) == weak_label(model, fv)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.01, 0.99), st.floats(-3, 3))
def test_weak_label_strictly_inside_unit_interval(value, w):
    model = WeakLabelModel(weights=np.full(NUM_FEATURES, w), bias=0.0)
    p = weak_label(model, np.full(NUM_FEATURES, value))
    assert 0.0 < p < 1.0
