from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from satgate.dialog import Session
from satgate.gate import (
    BehaviorModel,
    Decision,
    GateDecision,
    Variant,
    _replay_session,
    gate,
    resolve_clarification,
    simulate_ab,
)
from satgate.synth import CorpusConfig, generate


def _scored_variants(sessions, score_fn, name="scored", threshold=0.7):
    scores = np.array([score_fn(s, t) for s in sessions for t in range(len(s.turns))])
    return Variant(name=name, scores=scores, threshold=threshold)


@pytest.fixture(scope="module")
def corpus():
    return generate(CorpusConfig(seed=55, num_sessions=400))


def oracle_scores(sessions, eps=0.01):
    return np.array([eps + (1 - 2 * eps) * v for s in sessions for v in s.oracle_satisfaction])


# --- gate --------------------------------------------------------------------


def test_gate_rule():
    assert gate(0.9, 0.7).decision is Decision.RESPOND
    assert gate(0.5, 0.7).decision is Decision.CLARIFY
    # equality responds: only strictly smaller probabilities clarify
    assert gate(0.7, 0.7).decision is Decision.RESPOND


def test_gate_domain_errors():
    with pytest.raises(ValueError):
        gate(0.0, 0.7)
    with pytest.raises(ValueError):
        gate(1.0, 0.7)
    with pytest.raises(ValueError):
        gate(0.5, 1.0)


def test_gate_decision_invariant():
    with pytest.raises(ValueError):
        GateDecision(probability=0.9, decision=Decision.CLARIFY, threshold=0.7)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.001, 0.999), st.floats(0.001, 0.999))
def test_gate_invariant_holds(p, t):
    decision = gate(p, t)
    assert (decision.decision is Decision.CLARIFY) == (p < t)


# --- behavior model ------------------------------------------------------------


def test_resolve_clarification_on_error_turn():
    behavior = BehaviorModel(p_fix=0.8, p_annoy=0.5)
    fixed = resolve_clarification(behavior, oracle_satisfied=False, u=0.5)
    assert fixed.user_satisfied_with_question == 1
    assert fixed.post_clarification_rating == 1.0
    failed = resolve_clarification(behavior, oracle_satisfied=False, u=0.95)
    assert failed.post_clarification_rating == 0.0


def test_resolve_clarification_on_satisfied_turn():
    behavior = BehaviorModel(p_fix=0.8, p_annoy=0.5)
    annoyed = resolve_clarification(behavior, oracle_satisfied=True, u=0.2)
    assert annoyed.user_satisfied_with_question == 0
    assert annoyed.post_clarification_rating == 1.0
    tolerant = resolve_clarification(behavior, oracle_satisfied=True, u=0.9)
    assert tolerant.user_satisfied_with_question == 1


def test_behavior_model_validation():
    with pytest.raises(ValueError):
        BehaviorModel(p_fix=1.4)


# --- simulate_ab -----------------------------------------------------------------


def test_no_predictor_variant_reduces_to_mean_rating(corpus):
    reports = simulate_ab(corpus, [Variant("none", None)], seed=1)
    report = reports[0]
    assert report.clarification_rate == 0.0
    expected = np.mean(
        [np.mean(s.oracle_satisfaction) for s in corpus if s.turns]
    )
    assert report.avg_cus == pytest.approx(expected)
    assert report.n_sessions == len(corpus)


def test_oracle_predictor_with_certain_fix_dominates(corpus):
    """Replaying both policies turn-by-turn: every clarified error turn's
    contribution rises from 0 to 1, other turns are unchanged."""
    variants = [
        Variant("none", None),
        Variant("oracle", oracle_scores(corpus), threshold=0.7),
    ]
    reports = simulate_ab(
        corpus, variants, behavior=BehaviorModel(p_fix=1.0, p_annoy=0.5),
        seed=3, paired=True,
    )
    by_name = {r.name: r for r in reports}
    assert by_name["oracle"].avg_cus >= by_name["none"].avg_cus
    # per-turn domination implies a strictly positive gap when errors exist
    assert by_name["oracle"].avg_cus > by_name["none"].avg_cus


def test_threshold_monotonicity(corpus):
    rng = np.random.default_rng(0)
    oracle = np.array([v for s in corpus for v in s.oracle_satisfaction], float)
    noisy = np.clip(oracle * 0.8 + rng.uniform(0.05, 0.15, len(oracle)), 0.01, 0.99)
    rates = []
    for threshold in (0.05, 0.3, 0.5, 0.8, 0.95):
        reports = simulate_ab(
            corpus, [Variant("v", noisy, threshold=threshold)], seed=2, paired=True
        )
        rates.append(reports[0].clarification_rate)
    assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))


def test_degenerate_thresholds(corpus):
    scores = oracle_scores(corpus)
    low = simulate_ab(corpus, [Variant("v", scores, threshold=0.005)], seed=1, paired=True)
    assert low[0].clarification_rate == 0.0
    high = simulate_ab(corpus, [Variant("v", scores, threshold=0.995)], seed=1, paired=True)
    assert high[0].clarification_rate == 1.0


def test_replay_deterministic(corpus):
    variants = [Variant("oracle", oracle_scores(corpus))]
    r1 = simulate_ab(corpus, variants, seed=9)
    r2 = simulate_ab(corpus, variants, seed=9)
    assert r1 == r2


def test_partition_splits_sessions(corpus):
    variants = [Variant("a", None), Variant("b", None), Variant("c", None)]
    reports = simulate_ab(corpus, variants, seed=0)
    total = sum(r.n_sessions for r in reports)
    assert total == len(corpus)
    assert all(r.n_sessions > 0 for r in reports)


def test_partition_weights(corpus):
    variants = [Variant(n, None) for n in ("keep", "w1", "w2", "w3")]
    reports = simulate_ab(corpus, variants, seed=0, partition_weights=[70, 10, 10, 10])
    by_name = {r.name: r for r in reports}
    assert by_name["keep"].n_sessions > 0.5 * len(corpus)


def test_scores_alignment_validated(corpus):
    with pytest.raises(ValueError, match="variant 'bad': .* each of the corpus's"):
        simulate_ab(corpus, [Variant("bad", np.array([0.5]))], seed=0)


@pytest.mark.parametrize(
    "bad", ["zero", "one", "nan", "length", "threshold", "per-session-list", "2-d"]
)
def test_bad_scores_rejected_naming_the_variant(corpus, bad):
    scores = oracle_scores(corpus)
    threshold = 0.7
    where = "variant 'scored'"
    if bad == "length":
        scores = scores[:-1]
    elif bad == "threshold":
        threshold = 1.0
    elif bad == "per-session-list":
        starts = np.cumsum([len(s.turns) for s in corpus])[:-1]
        scores = np.split(scores, starts)
    elif bad == "2-d":
        scores = scores[:, None]
    else:
        assert corpus[3].turns
        scores[sum(len(s.turns) for s in corpus[:3])] = {"zero": 0.0, "one": 1.0, "nan": np.nan}[bad]
        where += f": session {corpus[3].session_id} has a score"
    variants = [Variant("none", None), Variant("scored", scores, threshold=threshold)]
    with pytest.raises(ValueError, match=where):
        simulate_ab(corpus, variants, seed=0)


def test_bad_score_after_empty_sessions_names_its_session(corpus):
    empty = [Session(f"empty-{i}", (), oracle_satisfaction=()) for i in range(2)]
    sessions = [empty[0], corpus[0], empty[1], corpus[1]]
    scores = oracle_scores(sessions)
    scores[len(corpus[0].turns)] = 1.0
    with pytest.raises(ValueError, match=f"session {corpus[1].session_id} has a score"):
        simulate_ab(sessions, [Variant("scored", scores)], seed=0)


def test_reports_sorted_by_cus(corpus):
    variants = [
        Variant("oracle", oracle_scores(corpus)),
        Variant("none", None),
    ]
    reports = simulate_ab(
        corpus, variants, behavior=BehaviorModel(p_fix=1.0), seed=0, paired=True
    )
    values = [r.avg_cus for r in reports]
    assert values == sorted(values)


def test_weak_rated_replay_needs_oracle_labels_for_clarified_turns(corpus):
    """Ratings come from the weak labels, but a clarification is resolved
    against the oracle; a session without it fails before any replay."""
    sessions = [Session(s.session_id, s.turns, weak_labels=[0.5] * len(s.turns))
                for s in corpus[:20]]
    never = _scored_variants(sessions, lambda s, t: 0.9, name="never")
    reports = simulate_ab(sessions, [never], rating_source="weak", paired=True)
    assert reports[0].avg_cus == pytest.approx(0.5)
    always = _scored_variants(sessions, lambda s, t: 0.1, name="always")
    with pytest.raises(ValueError, match=f"session {sessions[0].session_id} has no oracle labels"):
        simulate_ab(sessions, [never, always], rating_source="weak", paired=True)
    with pytest.raises(ValueError, match=f"session {corpus[0].session_id} has no weak labels"):
        simulate_ab(corpus[:20], [never], rating_source="weak", paired=True)


@pytest.fixture(scope="module")
def noisy_scores(corpus):
    rng = np.random.default_rng(4)
    return rng.uniform(0.01, 0.99, sum(len(s.turns) for s in corpus))


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
    st.floats(0, 1),
    st.floats(0, 1),
)
def test_paired_replay_equals_one_variant_runs_and_per_session_replays(
    corpus, noisy_scores, thresholds, seed, p_fix, p_annoy
):
    """With ``paired=True`` a variant's report does not depend on the other
    variants: it equals the variant replayed alone, and the mean of its
    per-session replays over every non-empty session."""
    behavior = BehaviorModel(p_fix=p_fix, p_annoy=p_annoy)
    variants = [Variant("none", None)] + [
        Variant(f"v{i}", noisy_scores, threshold=t) for i, t in enumerate(thresholds)
    ]
    together = {r.name: r for r in simulate_ab(corpus, variants, behavior, seed=seed, paired=True)}
    replayed = [s for s in corpus if s.turns]
    for variant in variants:
        alone = simulate_ab(corpus, [variant], behavior, seed=seed, paired=True)
        assert alone == [together[variant.name]]
        total_cus, clarified = 0.0, 0
        for session, end in zip(corpus, accumulate(len(s.turns) for s in corpus)):
            if not session.turns:
                continue
            clarify = [False] * len(session.turns) if variant.scores is None else [
                bool(p < variant.threshold) for p in variant.scores[end - len(session.turns) : end]
            ]
            ratings = [float(v) for v in session.oracle_satisfaction]
            score, n = _replay_session(session, ratings, clarify, behavior, seed)
            total_cus += score
            clarified += n
        report = together[variant.name]
        assert report.n_sessions == len(replayed)
        assert report.avg_cus == total_cus / len(replayed)
        assert report.clarification_rate == clarified / sum(len(s.turns) for s in replayed)
