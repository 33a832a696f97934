from dataclasses import asdict, replace

import numpy as np
import pytest

from satgate.synth import CorpusConfig, DomainSpec, generate, generate_with_trace


def test_no_errors_means_all_satisfied():
    config = CorpusConfig(
        seed=3, num_sessions=50, asr_error_rate=0.0, nlu_error_rate=0.0, user_error_rate=0.0
    )
    for session in generate(config):
        assert all(v == 1 for v in session.oracle_satisfaction)


def test_deterministic_given_seed():
    config = CorpusConfig(seed=9, num_sessions=40)
    assert generate(config) == generate(config)


def test_sessions_independent_of_corpus_size():
    base = CorpusConfig(seed=9, num_sessions=10)
    more = CorpusConfig(seed=9, num_sessions=25)
    assert generate(base) == generate(more)[:10]


def test_asr_corruption_fraction_matches_rate():
    config = CorpusConfig(
        seed=5, num_sessions=4000, asr_error_rate=0.3, nlu_error_rate=0.0, user_error_rate=0.0
    )
    _, traces = generate_with_trace(config)
    kinds = [k for trace in traces for k in trace]
    assert len(kinds) >= 10_000
    frac = sum(k == "asr" for k in kinds) / len(kinds)
    assert abs(frac - 0.30) <= 0.02


def test_mean_satisfaction_monotone_in_error_rate():
    means = []
    for rate in (0.0, 0.1, 0.2, 0.3, 0.45):
        config = CorpusConfig(seed=17, num_sessions=800, asr_error_rate=rate)
        sessions = generate(config)
        values = [v for s in sessions for v in s.oracle_satisfaction]
        means.append(np.mean(values))
    assert all(a >= b for a, b in zip(means, means[1:]))
    # same discipline for the other two rates
    for field in ("nlu_error_rate", "user_error_rate"):
        means = []
        for rate in (0.0, 0.1, 0.25, 0.4, 0.6):
            config = CorpusConfig(seed=23, num_sessions=500, **{field: rate})
            sessions = generate(config)
            means.append(np.mean([v for s in sessions for v in s.oracle_satisfaction]))
        assert all(a >= b for a, b in zip(means, means[1:]))


def test_confidence_signal_margin():
    sessions = generate(CorpusConfig(seed=31, num_sessions=3000))
    sat, unsat = [], []
    for s in sessions:
        for turn, ok in zip(s.turns, s.oracle_satisfaction):
            (sat if ok else unsat).append(turn.asr_confidence)
    assert np.mean(sat) - np.mean(unsat) >= 0.15


def test_turn_counts_within_bounds():
    config = CorpusConfig(seed=2, num_sessions=300, turns_min=2, turns_max=6)
    for session in generate(config):
        assert 2 <= len(session.turns) <= 6


def test_every_turn_labeled_and_timestamped():
    for session in generate(CorpusConfig(seed=4, num_sessions=100)):
        assert session.oracle_satisfaction is not None
        assert len(session.oracle_satisfaction) == len(session.turns)
        ts = [t.timestamp for t in session.turns]
        assert ts == sorted(ts)
        assert ts[0] == 0.0


def test_unsatisfied_turns_show_reaction_footprint():
    """Error turns with a successor show shorter gaps on average."""
    sessions = generate(CorpusConfig(seed=77, num_sessions=2000))
    gaps = {0: [], 1: []}
    for s in sessions:
        for i in range(len(s.turns) - 1):
            gaps[s.oracle_satisfaction[i]].append(
                s.turns[i + 1].timestamp - s.turns[i].timestamp
            )
    assert np.mean(gaps[0]) < np.mean(gaps[1])


def test_config_validation():
    with pytest.raises(ValueError):
        CorpusConfig(asr_error_rate=1.2).validate()
    with pytest.raises(ValueError):
        CorpusConfig(asr_error_rate=0.5, nlu_error_rate=0.4, user_error_rate=0.3).validate()
    with pytest.raises(ValueError):
        CorpusConfig(num_sessions=0).validate()
    with pytest.raises(ValueError):
        CorpusConfig(turns_min=3, turns_max=2).validate()
    with pytest.raises(ValueError):
        CorpusConfig(domain_catalog=()).validate()
    with pytest.raises(ValueError):
        generate(CorpusConfig(num_sessions=0))


def test_config_roundtrip():
    config = CorpusConfig(seed=1, num_sessions=5, asr_error_rate=0.2)
    assert CorpusConfig.from_dict(config.to_dict()) == config


@pytest.mark.parametrize("field", ["weight", "templates"])
def test_from_dict_names_the_catalog_entry_missing_a_field(field):
    catalog = [asdict(spec) for spec in CorpusConfig().domain_catalog[:2]]
    del catalog[1][field]
    with pytest.raises(ValueError, match=rf"domain_catalog\[1\] lacks required field '{field}'"):
        CorpusConfig.from_dict({"domain_catalog": catalog})


@pytest.mark.parametrize(
    "field, value",
    [("weight", -5.0), ("weight", 0.0), ("weight", float("nan")), ("weight", float("inf")),
     ("templates", ()), ("response_templates", ()), ("items", ())],
)
def test_validate_names_the_catalog_entry_with_a_bad_field(field, value):
    catalog = list(CorpusConfig().domain_catalog[:3])
    catalog[2] = replace(catalog[2], **{field: value})
    with pytest.raises(ValueError, match=rf"domain_catalog\[2\] {field} must be"):
        generate(CorpusConfig(num_sessions=5, domain_catalog=tuple(catalog)))


def test_catalog_override():
    spec = DomainSpec(
        domain_intent="light-on",
        slot_key="room",
        templates=("turn on the light in the {item}",),
        response_templates=("light on in the {item}",),
        items=("kitchen", "bedroom"),
        weight=1.0,
    )
    config = CorpusConfig(seed=0, num_sessions=10, domain_catalog=(spec,))
    sessions = generate(config)
    domains = {t.domain_intent for s in sessions for t in s.turns}
    assert domains <= {"light-on", "system-stop"}
