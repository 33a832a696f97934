import gc
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from satgate.dialog import (
    CorpusParseError,
    CorpusSchemaError,
    DialogueTurn,
    Session,
    read_sessions,
    tokenize,
    write_sessions,
)

from conftest import make_turn

_words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)
_token_seq = st.lists(_words, min_size=1, max_size=6).map(tuple)


@st.composite
def turns_strategy(draw, timestamp: float):
    n_slots = draw(st.integers(0, 2))
    slots = tuple(
        (draw(_words), draw(_token_seq)) for _ in range(n_slots)
    )
    return DialogueTurn(
        query=draw(_token_seq),
        domain_intent=draw(_words),
        slots=slots,
        result_item=draw(_words),
        voice_response=draw(_token_seq),
        timestamp=timestamp,
        asr_confidence=draw(st.floats(0, 1)),
        nlu_confidence=draw(st.floats(0, 1)),
    )


@st.composite
def sessions_strategy(draw):
    n = draw(st.integers(1, 5))
    gaps = draw(st.lists(st.floats(0, 100), min_size=n, max_size=n))
    ts = 0.0
    turns = []
    for gap in gaps:
        turns.append(draw(turns_strategy(ts)))
        ts += gap
    with_oracle = draw(st.booleans())
    with_weak = draw(st.booleans())
    return Session(
        session_id=draw(_words),
        turns=tuple(turns),
        oracle_satisfaction=tuple(draw(st.integers(0, 1)) for _ in turns) if with_oracle else None,
        weak_labels=tuple(draw(st.floats(0, 1)) for _ in turns) if with_weak else None,
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(sessions_strategy(), max_size=5))
def test_roundtrip(tmp_path_factory, sessions):
    path = tmp_path_factory.mktemp("io") / "corpus.jsonl"
    write_sessions(sessions, path)
    back = read_sessions(path)
    assert back == sessions


def test_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert read_sessions(path) == []


def test_order_preserved_and_deterministic(tmp_path, small_corpus):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_sessions(small_corpus, p1)
    write_sessions(small_corpus, p2)
    assert p1.read_bytes() == p2.read_bytes()
    back = read_sessions(p1)
    assert [s.session_id for s in back] == [s.session_id for s in small_corpus]
    assert back == small_corpus


def test_one_line_per_session(tmp_path):
    path = tmp_path / "one.jsonl"
    write_sessions([Session("s1", (make_turn(),))], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    json.loads(lines[0])


def test_malformed_line_cites_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({"session_id": "ok", "turns": []})
    path.write_text(good + "\n{not json\n" + good + "\n")
    with pytest.raises(CorpusParseError, match="line 2"):
        read_sessions(path)


def test_missing_field_is_schema_error(tmp_path):
    path = tmp_path / "missing.jsonl"
    obj = {"session_id": "x", "turns": [{"query": ["hi"]}]}
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(CorpusSchemaError, match="line 1"):
        read_sessions(path)


def _turn_obj(**overrides):
    obj = {
        "query": ["play", "music"],
        "domain_intent": "music-play",
        "slots": [["song", ["show", "me", "love"]]],
        "result_item": "show me love",
        "voice_response": ["playing", "show", "me", "love"],
        "timestamp": 0.0,
        "asr_confidence": 0.9,
        "nlu_confidence": 0.9,
    }
    obj.update(overrides)
    return obj


def _write_records(path, *turn_objs):
    """One good session, then one session per turn object."""
    lines = [json.dumps({"session_id": "ok", "turns": [_turn_obj()]})]
    lines += [json.dumps({"session_id": f"s{i}", "turns": [t]}) for i, t in enumerate(turn_objs)]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "field, value",
    [
        ("query", "play music"),
        ("voice_response", "playing music"),
        ("slots", [["song", "show me love"]]),
        ("timestamp", True),
        ("asr_confidence", "0.5"),
        ("nlu_confidence", False),
    ],
    ids=["string-query", "string-response", "string-slot-value", "bool-timestamp",
         "string-confidence", "bool-confidence"],
)
def test_wrongly_typed_field_is_schema_error_naming_line_and_field(tmp_path, field, value):
    """A string where a token list belongs is not split into characters, and
    a boolean or a numeric string is not taken for a number."""
    path = tmp_path / "typed.jsonl"
    _write_records(path, _turn_obj(**{field: value}))
    with pytest.raises(CorpusSchemaError, match=f"line 2: .*{field}") as info:
        read_sessions(path)
    assert info.value.line_no == 2


@pytest.mark.parametrize("record", [
    {"session_id": "x", "turns": 7},
    {"session_id": "x", "turns": "abc"},
    {"session_id": "x", "turns": [7]},
])
def test_wrongly_shaped_turns_are_schema_errors(tmp_path, record):
    path = tmp_path / "shape.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(CorpusSchemaError, match="line 1"):
        read_sessions(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("oracle_satisfaction", "1"),
        ("oracle_satisfaction", [True]),
        ("oracle_satisfaction", ["1"]),
        ("weak_labels", "0"),
        ("weak_labels", ["0.5"]),
        ("weak_labels", [False]),
    ],
    ids=["string-oracle", "bool-oracle", "string-oracle-value", "string-weak",
         "string-weak-value", "bool-weak"],
)
def test_wrongly_typed_labels_are_schema_errors_naming_line_and_field(tmp_path, field, value):
    path = tmp_path / "labels.jsonl"
    good = json.dumps({"session_id": "ok", "turns": [_turn_obj()]})
    bad = json.dumps({"session_id": "x", "turns": [_turn_obj()], field: value})
    path.write_text(good + "\n" + bad + "\n")
    with pytest.raises(CorpusSchemaError, match=f"line 2: .*{field}"):
        read_sessions(path)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
@pytest.mark.parametrize("outcome", ["success", "parse-error", "schema-error"])
def test_read_leaves_gc_state_as_the_caller_had_it(tmp_path, enabled, outcome):
    path = tmp_path / "corpus.jsonl"
    write_sessions([Session("a", (make_turn(),)), Session("b", (make_turn(),))], path)
    good = path.read_text().splitlines()
    bad = {"parse-error": "{not json", "schema-error": json.dumps(
        {"session_id": "c", "turns": [_turn_obj(query="play music")]})}.get(outcome)
    if bad is not None:
        path.write_text("\n".join([good[0], bad, good[1]]) + "\n")
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        if outcome == "success":
            assert len(read_sessions(path)) == 2
        else:
            error = CorpusParseError if outcome == "parse-error" else CorpusSchemaError
            with pytest.raises(error, match="line 2"):
                read_sessions(path)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


def test_tokenize():
    assert tokenize("Play The SONG") == ("play", "the", "song")


def test_turn_validation():
    with pytest.raises(ValueError):
        make_turn(query="")
    with pytest.raises(ValueError, match="query"):
        replace(make_turn(), query="play music")
    with pytest.raises(ValueError):
        make_turn(asr_confidence=1.5)
    with pytest.raises(ValueError):
        make_turn(nlu_confidence=-0.1)
    with pytest.raises(ValueError):
        make_turn(timestamp=-1.0)


def test_session_validation():
    t0 = make_turn(timestamp=10.0)
    t1 = make_turn(timestamp=5.0)
    with pytest.raises(ValueError, match="non-decreasing"):
        Session("s", (t0, t1))
    with pytest.raises(ValueError, match="length"):
        Session("s", (t0,), oracle_satisfaction=(1, 0))
    with pytest.raises(ValueError):
        Session("s", (t0,), weak_labels=(1.5,))
    with pytest.raises(ValueError):
        Session("s", (t0,), oracle_satisfaction=(2,))
