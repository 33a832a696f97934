import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from satgate.dialog import Session
from satgate.gate import (
    BehaviorModel,
    Decision,
    GateDecision,
    Variant,
    VariantReport,
    gate,
    resolve_clarifications,
    simulate_ab,
)
from satgate.metrics import cus
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
    fixed, failed = resolve_clarifications(behavior, [False, False], [0.6, 0.95])
    assert (fixed, failed) == (1.0, 0.0)
    # a draw at p_fix fails: only strictly smaller draws fix the turn
    assert resolve_clarifications(behavior, [False], [0.8]).tolist() == [0.0]


def test_resolve_clarification_on_satisfied_turn():
    behavior = BehaviorModel(p_fix=0.8, p_annoy=0.5)
    annoyed, tolerated = resolve_clarifications(behavior, [True, True], [0.2, 0.6])
    assert (annoyed, tolerated) == (0.0, 1.0)
    # a draw at p_annoy is tolerated: only strictly smaller draws annoy
    assert resolve_clarifications(behavior, [True], [0.5]).tolist() == [1.0]


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
    for bad in ([70, 10, 10], [70, 10, 10, 0], [70, 10, 10, -1],
                [np.nan, 1, 1, 1], [np.inf, 1, 1, 1], [1, 1, 1, -np.inf]):
        with pytest.raises(ValueError, match="partition_weights"):
            simulate_ab(corpus, variants, seed=0, partition_weights=bad)


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


@pytest.fixture(scope="module")
def rated_corpus(corpus):
    """The corpus with float weak labels on every turn, plus two empty sessions."""
    rng = np.random.default_rng(6)
    sessions = [s.with_weak_labels(rng.random(len(s.turns))) for s in corpus]
    sessions.insert(3, Session("empty-0", (), oracle_satisfaction=(), weak_labels=()))
    sessions.append(Session("empty-1", (), oracle_satisfaction=(), weak_labels=()))
    return sessions


def _reference_replay(sessions, variants, behavior, seed, rating_source, weights=None):
    """Each variant's report from a turn-by-turn replay in session order. A
    session goes to the variant its id hash falls on under ``weights``, or to
    every variant when ``weights`` is None; a clarified turn is resolved by
    that session's own seeded draw."""
    totals = {v.name: [0.0, 0, 0, 0] for v in variants}  # CUS, clarified, turns, sessions
    offset = 0
    for session in sessions:
        n = len(session.turns)
        start, offset = offset, offset + n
        if not n:
            continue
        key = int(hashlib.sha256(session.session_id.encode("utf-8")).hexdigest()[:12], 16)
        draws = np.random.default_rng([seed, key]).random(n)
        replaying = variants
        if weights is not None:
            edges = np.cumsum(weights) / np.sum(weights)
            bucket = int(np.searchsorted(edges, key / 2**48, side="right"))
            replaying = [variants[min(bucket, len(variants) - 1)]]
        for variant in replaying:
            contributions = [float(r) for r in session.labels(rating_source)]
            clarified = 0
            for t in range(n):
                if variant.scores is None or not variant.scores[start + t] < variant.threshold:
                    continue
                clarified += 1
                if session.oracle_satisfaction[t]:
                    question = 0.0 if draws[t] < behavior.p_annoy else 1.0
                    contributions[t] = cus(question, 1.0).contextual
                else:
                    contributions[t] = cus(1.0, 1.0 if draws[t] < behavior.p_fix else 0.0).contextual
            total = totals[variant.name]
            total[0] += float(np.mean(contributions))
            total[1] += clarified
            total[2] += n
            total[3] += 1
    return {
        name: VariantReport(name, c / k if k else float("nan"), m / t if t else float("nan"), k)
        for name, (c, m, t, k) in totals.items()
    }


def _replay_variants(noisy_scores, thresholds):
    return [Variant("none", None)] + [
        Variant(f"v{i}", noisy_scores, threshold=t) for i, t in enumerate(thresholds)
    ]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
    st.floats(0, 1),
    st.floats(0, 1),
    st.sampled_from(["oracle", "weak"]),
)
def test_paired_replay_equals_one_variant_runs_and_per_session_replays(
    rated_corpus, noisy_scores, thresholds, seed, p_fix, p_annoy, rating_source
):
    """With ``paired=True`` a variant's report does not depend on the other
    variants: it equals the variant replayed alone and, bit for bit, a
    turn-by-turn replay of every non-empty session."""
    behavior = BehaviorModel(p_fix=p_fix, p_annoy=p_annoy)
    variants = _replay_variants(noisy_scores, thresholds)
    together = simulate_ab(rated_corpus, variants, behavior, seed=seed,
                           rating_source=rating_source, paired=True)
    by_name = {r.name: r for r in together}
    assert by_name == _reference_replay(rated_corpus, variants, behavior, seed, rating_source)
    assert all(r.n_sessions == len(rated_corpus) - 2 for r in together)
    for variant in variants:
        alone = simulate_ab(rated_corpus, [variant], behavior, seed=seed,
                            rating_source=rating_source, paired=True)
        assert alone == [by_name[variant.name]]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
    st.floats(0, 1),
    st.floats(0, 1),
    st.sampled_from(["oracle", "weak"]),
    st.booleans(),
)
def test_partitioned_replay_equals_per_turn_replay_of_each_share(
    rated_corpus, noisy_scores, thresholds, seed, p_fix, p_annoy, rating_source, weighted
):
    """Partitioned at equal or unequal weights, each variant's report equals,
    bit for bit, a turn-by-turn replay of the sessions in its share."""
    behavior = BehaviorModel(p_fix=p_fix, p_annoy=p_annoy)
    variants = _replay_variants(noisy_scores, thresholds)
    weights = list(range(1, len(variants) + 1)) if weighted else [1] * len(variants)
    reports = simulate_ab(rated_corpus, variants, behavior, seed=seed, rating_source=rating_source,
                          partition_weights=weights if weighted else None)
    reference = _reference_replay(rated_corpus, variants, behavior, seed, rating_source, weights)
    assert {r.name: r for r in reports} == reference
    assert sum(r.n_sessions for r in reports) == len(rated_corpus) - 2
