import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from satgate.dialog import DialogueTurn, Session
from satgate.weaklabel import (
    ABSENT_NEXT_TIME_DIFF,
    AFFIRMATION_WORDS,
    CAUSAL_FEATURE_INDICES,
    NEGATION_WORDS,
    NUM_FEATURES,
    TERMINATION_WORDS,
    DegenerateDataError,
    FeatureExtractor,
    WeakLabelModel,
    features_matrix,
    fit_logistic,
    label_corpus,
    load_weak_model,
    save_weak_model,
    train_weak_labeler,
    weak_label,
    weak_label_many,
    weak_label_sessions,
)

from conftest import make_turn

_PROMPT_INDICES = (2, 3, 4, 5, 19, 20)
_SIMILARITY_INDICES = (14, 15, 16, 17, 18)


def _session(turns, **kw):
    return Session("s0", tuple(turns), **kw)


# --- per-turn reference ----------------------------------------------------
#
# The straight-line, one-turn-at-a-time computation that features_matrix
# replaced; it must agree bit for bit.


def _ref_jaccard(a, b):
    sa, sb = set(a), set(b)
    union = sa | sb
    if not union:
        return 0.0
    return len(sa & sb) / len(union)


def _ref_domain(domain_intent):
    return domain_intent.split("-", 1)[0]


def _ref_intent_tokens(domain_intent):
    return tuple(domain_intent.replace("-", " ").split())


def _ref_prompt(tokens, lexicon):
    return 1.0 if any(t in lexicon for t in tokens) else 0.0


def _reference_row(ex, session, n):
    turns = session.turns
    cur = turns[n]
    nxt = turns[n + 1] if n + 1 < len(turns) else None
    prv = turns[n - 1] if n > 0 else None
    v = np.empty(NUM_FEATURES, dtype=np.float64)
    v[0] = cur.asr_confidence
    v[1] = (nxt.timestamp - cur.timestamp) if nxt is not None else ABSENT_NEXT_TIME_DIFF
    v[2] = _ref_prompt(cur.query, AFFIRMATION_WORDS)
    v[3] = _ref_prompt(nxt.query, AFFIRMATION_WORDS) if nxt is not None else 0.0
    v[4] = _ref_prompt(cur.query, NEGATION_WORDS)
    v[5] = _ref_prompt(nxt.query, NEGATION_WORDS) if nxt is not None else 0.0
    v[6] = ex.domain_popularity.get(_ref_domain(cur.domain_intent), 0.0)
    v[7] = (
        ex.domain_popularity.get(_ref_domain(nxt.domain_intent), 0.0) if nxt is not None else 0.0
    )
    v[8] = ex.intent_popularity.get(cur.domain_intent, 0.0)
    v[9] = ex.intent_popularity.get(nxt.domain_intent, 0.0) if nxt is not None else 0.0
    v[10] = float(len(cur.query))
    v[11] = nxt.asr_confidence if nxt is not None else 1.0
    v[12] = nxt.nlu_confidence if nxt is not None else 1.0
    v[13] = cur.nlu_confidence
    v[14] = (
        _ref_jaccard(_ref_intent_tokens(cur.domain_intent), _ref_intent_tokens(nxt.domain_intent))
        if nxt is not None
        else 0.0
    )
    v[15] = _ref_jaccard(cur.query, nxt.query) if nxt is not None else 0.0
    v[16] = _ref_jaccard(cur.voice_response, nxt.voice_response) if nxt is not None else 0.0
    v[17] = _ref_jaccard(cur.voice_response, prv.voice_response) if prv is not None else 0.0
    v[18] = _ref_jaccard(cur.query, cur.voice_response)
    v[19] = _ref_prompt(cur.query, TERMINATION_WORDS)
    v[20] = _ref_prompt(nxt.query, TERMINATION_WORDS) if nxt is not None else 0.0
    return v


def _reference_matrix(sessions, ex):
    rows = [_reference_row(ex, s, n) for s in sessions for n in range(len(s.turns))]
    index = [(si, n) for si, s in enumerate(sessions) for n in range(len(s.turns))]
    if not rows:
        return np.zeros((0, NUM_FEATURES)), np.zeros((0, 2), dtype=np.int64)
    return np.stack(rows), np.asarray(index, dtype=np.int64)


def _assert_matches_reference(sessions, ex):
    X, index = features_matrix(sessions, ex)
    want_X, want_index = _reference_matrix(sessions, ex)
    assert X.dtype == want_X.dtype and X.shape == want_X.shape
    assert X.tobytes() == want_X.tobytes()
    assert index.dtype == want_index.dtype and index.tobytes() == want_index.tobytes()


# Few words, domains and responses, so that drawn sessions repeat contents
# across and within sessions, and also share no tokens at all.
_small_words = st.sampled_from(["yes", "no", "stop", "play", "song", "me", "love", "map", "x"])
_small_tokens = st.lists(_small_words, min_size=1, max_size=4).map(tuple)


@st.composite
def _drawn_turn(draw, timestamp):
    return DialogueTurn(
        query=draw(_small_tokens),
        domain_intent=draw(st.sampled_from(["music-play", "music-stop", "map-find", "unseen-x", "-", "close"])),
        slots=(),
        result_item="item",
        voice_response=draw(_small_tokens),
        timestamp=timestamp,
        asr_confidence=draw(st.floats(0, 1)),
        nlu_confidence=draw(st.floats(0, 1)),
    )


@st.composite
def _drawn_sessions(draw):
    sessions = []
    for si in range(draw(st.integers(0, 5))):
        ts, turns = 0.0, []
        for _ in range(draw(st.integers(0, 4))):
            turns.append(draw(_drawn_turn(ts)))
            ts += draw(st.floats(0, 50))
        sessions.append(Session(f"s{si}", tuple(turns)))
    return sessions


# --- feature extraction ----------------------------------------------------


def test_identical_consecutive_queries_give_similarity_one(small_extractor):
    t0 = make_turn(timestamp=0.0)
    t1 = make_turn(timestamp=5.0)
    assert small_extractor.rows(_session([t0, t1]))[0, 15] == 1.0


def test_utterance_length_counts_tokens(small_extractor):
    turn = make_turn(query="play music")
    assert small_extractor.rows(_session([turn]))[0, 10] == 2.0


def test_negation_prompt_in_next_turn(small_extractor):
    t0 = make_turn(timestamp=0.0)
    t1 = make_turn(query="no that is wrong", timestamp=3.0)
    row = small_extractor.rows(_session([t0, t1]))[0]
    assert row[5] == 1.0
    assert row[4] == 0.0  # current turn has no negation word


def test_absent_next_turn_defaults(small_extractor):
    row = small_extractor.rows(_session([make_turn()]))[0]
    assert row[1] == 300.0     # time-difference sentinel
    assert row[11] == 1.0      # next asr confidence
    assert row[12] == 1.0      # next nlu confidence
    assert row[3] == 0.0 and row[5] == 0.0 and row[20] == 0.0
    assert row[15] == 0.0 and row[16] == 0.0


def test_confidences_and_time_difference(small_extractor):
    t0 = make_turn(timestamp=0.0, asr_confidence=0.8, nlu_confidence=0.7)
    t1 = make_turn(timestamp=42.5, asr_confidence=0.6, nlu_confidence=0.5)
    row = small_extractor.rows(_session([t0, t1]))[0]
    assert row[0] == 0.8
    assert row[13] == 0.7
    assert row[1] == 42.5
    assert row[11] == 0.6
    assert row[12] == 0.5


def test_rows_cover_exactly_the_existing_turns(small_extractor):
    """One row per turn, indexed (session, turn); no row past a session's
    last turn, none for an empty session."""
    sessions = [_session([make_turn()]), Session("s1", ()),
                _session([make_turn(timestamp=0.0), make_turn(timestamp=1.0)])]
    X, index = features_matrix(sessions, small_extractor)
    assert X.shape == (3, NUM_FEATURES)
    assert index.tolist() == [[0, 0], [2, 0], [2, 1]]
    X, index = features_matrix([], small_extractor)
    assert X.shape == (0, NUM_FEATURES) and index.shape == (0, 2)


def test_feature_purity(small_corpus, small_extractor):
    """The row for turn n depends only on turns n-1, n, n+1."""
    session = next(s for s in small_corpus if len(s.turns) >= 4)
    n = 1
    before = small_extractor.rows(session)[n]
    mutated_turns = list(session.turns)
    mutated_turns[3] = make_turn(query="completely different words", timestamp=mutated_turns[3].timestamp)
    mutated = Session(session.session_id, tuple(mutated_turns))
    after = small_extractor.rows(mutated)[n]
    assert np.array_equal(before, after)


@settings(max_examples=60, deadline=None)
@given(_drawn_sessions())
def test_features_matrix_ranges(small_extractor, sessions):
    """Shape (N, 21), finite values, similarities in [0, 1] and prompt flags
    in {0, 1}, for any corpus."""
    X, index = features_matrix(sessions, small_extractor)
    n = sum(len(s.turns) for s in sessions)
    assert X.shape == (n, NUM_FEATURES) and index.shape == (n, 2)
    assert np.all(np.isfinite(X))
    sims = X[:, list(_SIMILARITY_INDICES)]
    assert np.all((sims >= 0.0) & (sims <= 1.0))
    assert np.all(np.isin(X[:, list(_PROMPT_INDICES)], (0.0, 1.0)))


def test_features_matrix_matches_reference_on_corpus(small_corpus, small_extractor):
    _assert_matches_reference(small_corpus, small_extractor)


def test_features_matrix_matches_reference_on_edge_cases(small_extractor):
    """Bit for bit against the per-turn reference on 1-turn sessions,
    contents repeated within and across sessions (the same query with other
    responses, the same response after other queries), token sets that share
    nothing, and domains and intents the extractor never saw."""
    one = make_turn()
    repeat_query = make_turn(voice_response="here is a map", timestamp=2.0)
    repeat_response = make_turn(query="stop now", timestamp=4.0)
    disjoint = make_turn(query="alpha beta", voice_response="gamma delta", timestamp=6.0)
    unknown = make_turn(domain_intent="weather-forecast", timestamp=7.0)
    no_intent_tokens = make_turn(domain_intent="-", timestamp=8.0)
    sessions = [
        Session("single", (one,)),
        Session("repeats", (one, repeat_query, repeat_response, replace(one, timestamp=5.0))),
        Session("disjoint", (disjoint, unknown, no_intent_tokens)),
        Session("single-unknown", (unknown,)),
        Session("empty", ()),
        Session("repeats-again", (replace(repeat_response, timestamp=0.0), repeat_query)),
    ]
    _assert_matches_reference(sessions, small_extractor)
    for session in sessions:
        _assert_matches_reference([session], small_extractor)


@settings(max_examples=60, deadline=None)
@given(_drawn_sessions())
def test_features_matrix_matches_reference_on_drawn_corpora(small_extractor, sessions):
    _assert_matches_reference(sessions, small_extractor)


def test_extractor_roundtrip(small_extractor):
    back = FeatureExtractor.from_dict(small_extractor.to_dict())
    assert back.domain_popularity == small_extractor.domain_popularity
    assert back.intent_popularity == small_extractor.intent_popularity


# --- logistic model --------------------------------------------------------


def test_zero_model_predicts_half():
    model = WeakLabelModel(weights=np.zeros(NUM_FEATURES), bias=0.0)
    assert weak_label(model, np.zeros(NUM_FEATURES)) == 0.5


def test_large_bias_saturates():
    model = WeakLabelModel(weights=np.zeros(NUM_FEATURES), bias=20.0)
    assert weak_label(model, np.zeros(NUM_FEATURES)) > 0.999


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


@pytest.mark.parametrize("reg", [-1.0, float("nan"), float("inf")])
def test_bad_reg_strength_raises(rng, reg):
    X = rng.normal(size=(20, NUM_FEATURES))
    y = np.arange(20) % 2
    with pytest.raises(ValueError, match="reg_strength must be finite and non-negative"):
        train_weak_labeler(X, y, reg_strength=reg)


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


def test_weak_labels_match_labeling_each_session_alone(small_corpus, small_extractor):
    """One corpus-wide feature pass gives every session the same bits as
    labeling it on its own."""
    X, _ = features_matrix(small_corpus, small_extractor)
    y = np.array([v for s in small_corpus for v in s.oracle_satisfaction], float)
    model = train_weak_labeler(X, y)
    got = weak_label_sessions(model, small_extractor, small_corpus)
    alone = [weak_label_many(model, small_extractor.rows(session)) for session in small_corpus]
    assert got.tobytes() == np.concatenate(alone).tobytes()
    assert weak_label_sessions(model, small_extractor, []).shape == (0,)


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


@pytest.mark.parametrize("version", [1, 2])
def test_model_file_of_older_format_rejected(tmp_path, small_extractor, version):
    path = tmp_path / "weak.json"
    save_weak_model(path, WeakLabelModel(weights=np.zeros(NUM_FEATURES), bias=0.0), small_extractor)
    record = json.loads(path.read_text())
    record["format_version"] = version
    path.write_text(json.dumps(record))
    with pytest.raises(ValueError, match=f"unsupported weak-model format: {version}"):
        load_weak_model(path)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.01, 0.99), st.floats(-3, 3))
def test_weak_label_strictly_inside_unit_interval(value, w):
    model = WeakLabelModel(weights=np.full(NUM_FEATURES, w), bias=0.0)
    p = weak_label(model, np.full(NUM_FEATURES, value))
    assert 0.0 < p < 1.0
