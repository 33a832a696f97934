import gc
import json
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from satgate import synth
from satgate.dialog import (
    CorpusParseError,
    CorpusSchemaError,
    DialogueTurn,
    Session,
    _session_to_obj,
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
        ("domain_intent", None),
        ("domain_intent", ["music-play"]),
        ("result_item", 5),
        ("result_item", ["a"]),
    ],
    ids=["string-query", "string-response", "string-slot-value", "bool-timestamp",
         "string-confidence", "bool-confidence", "null-domain-intent", "list-domain-intent",
         "number-result-item", "list-result-item"],
)
def test_wrongly_typed_field_is_schema_error_naming_line_and_field(tmp_path, field, value):
    """A string where a token list belongs is not split into characters, a
    boolean or a numeric string is not taken for a number, and a null, number
    or list is not turned into a string."""
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
        ("session_id", None),
        ("session_id", 5),
    ],
    ids=["string-oracle", "bool-oracle", "string-oracle-value", "string-weak",
         "string-weak-value", "bool-weak", "null-session-id", "number-session-id"],
)
def test_wrongly_typed_labels_are_schema_errors_naming_line_and_field(tmp_path, field, value):
    """A session-level field of the wrong JSON type, a label array or the
    session id, fails naming line and field (``field`` overrides the id)."""
    path = tmp_path / "labels.jsonl"
    good = json.dumps({"session_id": "ok", "turns": [_turn_obj()]})
    bad = json.dumps({"session_id": "x", "turns": [_turn_obj()], field: value})
    path.write_text(good + "\n" + bad + "\n")
    with pytest.raises(CorpusSchemaError, match=f"line 2: .*{field}"):
        read_sessions(path)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
@pytest.mark.parametrize("outcome", ["success", "parse-error", "schema-error",
                                     "generate-success", "generate-error"])
def test_read_leaves_gc_state_as_the_caller_had_it(tmp_path, monkeypatch, enabled, outcome):
    """Reading and generating a corpus restore the caller's collector state,
    and a failed build freezes nothing (objects frozen before may still be
    freed meanwhile, so the count may drop)."""
    path = tmp_path / "corpus.jsonl"
    write_sessions([Session("a", (make_turn(),)), Session("b", (make_turn(),))], path)
    good = path.read_text().splitlines()
    bad = {"parse-error": "{not json", "schema-error": json.dumps(
        {"session_id": "c", "turns": [_turn_obj(query="play music")]})}.get(outcome)
    if bad is not None:
        path.write_text("\n".join([good[0], bad, good[1]]) + "\n")
    if outcome == "generate-error":
        build_session = synth._generate_session

        def fail_second(config, index):
            if index == 1:
                raise RuntimeError("session 1 failed")
            return build_session(config, index)

        monkeypatch.setattr(synth, "_generate_session", fail_second)
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        frozen = gc.get_freeze_count()
        if outcome == "success":
            assert len(read_sessions(path)) == 2
        elif outcome == "generate-success":
            assert len(synth.generate(synth.CorpusConfig(num_sessions=3))) == 3
        elif outcome == "generate-error":
            with pytest.raises(RuntimeError, match="session 1 failed"):
                synth.generate(synth.CorpusConfig(num_sessions=3))
            assert gc.get_freeze_count() <= frozen
        else:
            error = CorpusParseError if outcome == "parse-error" else CorpusSchemaError
            with pytest.raises(error, match="line 2"):
                read_sessions(path)
            assert gc.get_freeze_count() <= frozen
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


def test_read_corpora_are_frozen_and_freed_by_refcount(tmp_path, small_corpus):
    """A read corpus leaves the collector's generations for the permanent
    one, and reference counting alone frees it again: reading and dropping
    a corpus 20 times leaves the freeze count flat, a dropped session dies
    with the collector disabled, and a read that fails on line 2 freezes
    nothing."""
    path = tmp_path / "corpus.jsonl"
    write_sessions(small_corpus, path)
    bad = tmp_path / "bad.jsonl"
    bad.write_text(path.read_text().splitlines()[0] + "\n{not json\n")
    read_sessions(path)  # freezes whatever the process tracked before
    frozen = gc.get_freeze_count()
    for _ in range(20):
        assert len(read_sessions(path)) == len(small_corpus)
    assert gc.get_freeze_count() == frozen

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        sessions = read_sessions(path)
        assert gc.get_freeze_count() > frozen
        ref = weakref.ref(sessions[0])
        del sessions
        assert ref() is None
        assert gc.get_freeze_count() == frozen
        with pytest.raises(CorpusParseError, match="line 2"):
            read_sessions(bad)
        assert gc.get_freeze_count() == frozen
    finally:
        if was_enabled:
            gc.enable()


def test_write_matches_per_session_json_dumps(tmp_path):
    """The writer's bytes are one ``json.dumps(..., ensure_ascii=False)``
    line per session, with non-ASCII tokens written as UTF-8."""
    turns = (make_turn(query="播放 café müsic", voice_response="正在 播放 ok", timestamp=0.0,
                       slots=(("song", ("café", "müsic")),)),
             make_turn(timestamp=2.5, asr_confidence=1, nlu_confidence=0.125))
    sessions = [Session("ü1", turns, oracle_satisfaction=(1, 0), weak_labels=(0.25, 1.0)),
                Session("s2", turns[1:], weak_labels=(0.5,)),
                Session("s3", turns[:1], oracle_satisfaction=(0,))]
    path = tmp_path / "corpus.jsonl"
    write_sessions(sessions, path)
    expected = "".join(json.dumps(_session_to_obj(s), ensure_ascii=False) + "\n" for s in sessions)
    assert path.read_bytes() == expected.encode("utf-8")
    assert b"\\u" not in path.read_bytes()
    assert read_sessions(path) == sessions


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


def test_with_weak_labels_checks_the_labels_alone(monkeypatch):
    """The labeled copy equals a fully built session with those labels; a
    wrong count or a label outside [0, 1] is a ValueError, and nothing but
    the labels is checked again."""
    turns = (make_turn(timestamp=0.0), make_turn(timestamp=1.0))
    session = Session("s", turns, oracle_satisfaction=(1, 0))
    labeled = session.with_weak_labels([0.25, 1])
    assert labeled == Session("s", turns, oracle_satisfaction=(1, 0), weak_labels=(0.25, 1.0))
    assert [type(v) for v in labeled.weak_labels] == [float, float]
    assert session.weak_labels is None
    with pytest.raises(ValueError, match="length must match"):
        session.with_weak_labels([0.5])
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        session.with_weak_labels([0.5, float("nan")])

    def fail(self):
        raise AssertionError("the session was validated again")

    monkeypatch.setattr(Session, "__post_init__", fail)
    assert session.with_weak_labels([0.5, 0.5]).weak_labels == (0.5, 0.5)


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
