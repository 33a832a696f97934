import gc
import json
import sys
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from satgate import dialog, synth
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

from conftest import make_turn, mutate_json

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


@pytest.mark.parametrize("bad, newline", [
    (b"\xff", b"\n"),  # a byte that starts no UTF-8 sequence
    (b"\xc3", b"\n"),  # a sequence cut short by the end of its line
    (b"\xe2\x82", b"\r\n"),
])
def test_line_that_is_not_utf8_cites_line_number(tmp_path, small_corpus, bad, newline):
    """Bytes that are not UTF-8 fail as a ``CorpusParseError`` naming their
    line, also where they end a line or the file ends without a newline."""
    path = tmp_path / "bad.jsonl"
    write_sessions(small_corpus[:5], path)
    lines = path.read_bytes().splitlines()
    lines[3] = lines[3][:30] + bad + lines[3][30:]
    path.write_bytes(newline.join(lines) + newline)
    with pytest.raises(CorpusParseError, match=r"^line 4: not UTF-8 \(") as info:
        read_sessions(path)
    assert info.value.line_no == 4
    lines[4] += bad
    path.write_bytes(newline.join(lines))
    with pytest.raises(CorpusParseError, match="line 4"):
        read_sessions(path)
    path.write_bytes(newline.join(lines[:3] + lines[4:]))
    with pytest.raises(CorpusParseError, match="line 4"):
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

        def fail_second(config, index, *rest):
            if index == 1:
                raise RuntimeError("session 1 failed")
            return build_session(config, index, *rest)

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


def _unshared_read(path):
    """The sessions of a JSONL file, each turn built by the checking
    constructor from its own parsed values: no value shared between turns."""
    sessions = []
    for line in path.read_text().splitlines():
        obj = json.loads(line)
        sessions.append(Session(obj["session_id"], tuple(DialogueTurn(**t) for t in obj["turns"]),
                                obj.get("oracle_satisfaction"), obj.get("weak_labels")))
    return sessions


def _held_once(sessions):
    """Whether each distinct query, response, slot tuple, domain-intent,
    result item and string inside them is one object across ``sessions``."""
    turns = [t for s in sessions for t in s.turns]
    strings = [tok for t in turns for tok in t.query + t.voice_response]
    strings += [t.domain_intent for t in turns] + [t.result_item for t in turns]
    strings += [x for t in turns for key, value in t.slots for x in (key, *value)]
    groups = [[t.query for t in turns] + [t.voice_response for t in turns],
              [t.slots for t in turns], strings]
    return all(len({id(v) for v in group}) == len(set(group)) for group in groups)


@pytest.mark.parametrize("source", ["generated", "read"])
def test_corpora_hold_each_distinct_value_once(tmp_path, source):
    """A generated or read corpus holds one object per distinct token tuple,
    slot tuple and string, and equals the same corpus rebuilt unshared."""
    corpus = synth.generate(synth.CorpusConfig(seed=3, num_sessions=300, asr_error_rate=0.2,
                                               nlu_error_rate=0.2, user_error_rate=0.2))
    path = tmp_path / "corpus.jsonl"
    write_sessions(corpus, path)
    sessions = corpus if source == "generated" else read_sessions(path)
    unshared = _unshared_read(path)
    assert not _held_once(unshared)
    assert _held_once(sessions)
    assert sessions == unshared
    assert [[list(map(type, vars(t).values())) for t in s.turns] for s in sessions] == \
        [[list(map(type, vars(t).values())) for t in s.turns] for s in unshared]


def test_shared_values_vouch_only_for_their_own_kind(tmp_path):
    """A slot value may be empty or hold an empty token, a query may not:
    the same list read first as a slot value still fails as a query or a
    response, and a string fails even after its characters were read as a
    token list. Each bad record repeats the good one but for that field."""
    good = _turn_obj(query=["p", "l", "a", "y"], slots=[["song", []], ["album", [""]]])
    cases = [("query", []), ("query", [""]), ("voice_response", [""]), ("query", "play")]
    for field, value in cases:
        path = tmp_path / "kinds.jsonl"
        path.write_text(json.dumps({"session_id": "a", "turns": [good]}) + "\n"
                        + json.dumps({"session_id": "b", "turns": [{**good, field: value}]}) + "\n")
        with pytest.raises(CorpusSchemaError, match=f"line 2: .*{field}"):
            read_sessions(path)


@pytest.mark.parametrize("field, value", [
    ("timestamp", -1.0), ("timestamp", True), ("timestamp", "3"), ("asr_confidence", 1.5),
    ("asr_confidence", "0.5"), ("nlu_confidence", False), ("nlu_confidence", -0.25),
])
def test_repeated_turn_with_a_bad_number_fails_as_a_new_one(tmp_path, field, value):
    """A record whose token lists and strings repeat an earlier record's is
    still checked for its timestamp and confidences: it fails naming its
    line and field, with the message it gets when nothing came before."""
    bad = json.dumps({"session_id": "b", "turns": [_turn_obj(**{field: value})]})
    repeated, first = tmp_path / "repeated.jsonl", tmp_path / "first.jsonl"
    repeated.write_text(json.dumps({"session_id": "a", "turns": [_turn_obj()]}) + "\n" + bad + "\n")
    first.write_text(bad + "\n")
    with pytest.raises(CorpusSchemaError, match=f"line 2: invalid turn: {field}") as info:
        read_sessions(repeated)
    assert info.value.line_no == 2
    with pytest.raises(CorpusSchemaError) as alone:
        read_sessions(first)
    assert str(info.value) == str(alone.value).replace("line 1:", "line 2:", 1)


def test_integer_numbers_read_back_as_floats(tmp_path):
    """An integer timestamp and integer confidences come back as floats,
    in a record whose token lists and strings repeat an earlier record's
    (only its numbers are checked again) and in a new one."""
    path = tmp_path / "ints.jsonl"
    _write_records(path, _turn_obj(timestamp=3, asr_confidence=1, nlu_confidence=0),
                   _turn_obj(query=["new"], timestamp=2, asr_confidence=0, nlu_confidence=1))
    repeated, new = (s.turns[0] for s in read_sessions(path)[1:])
    for turn, want in ((repeated, (3.0, 1.0, 0.0)), (new, (2.0, 0.0, 1.0))):
        got = (turn.timestamp, turn.asr_confidence, turn.nlu_confidence)
        assert got == want and [type(v) for v in got] == [float] * 3


@pytest.mark.parametrize("source", ["generated", "read"])
def test_dropped_corpus_leaves_no_shared_value_behind(tmp_path, source):
    """Once a corpus is dropped, nothing else holds its shared values, with
    the collector disabled: its most repeated query's only reference is the
    test's own (a tuple cannot be weakly referenced, so its count is
    compared with that of a fresh tuple)."""
    path = tmp_path / "corpus.jsonl"
    write_sessions(synth.generate(synth.CorpusConfig(seed=5, num_sessions=50)), path)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        sessions = (synth.generate(synth.CorpusConfig(seed=5, num_sessions=50))
                    if source == "generated" else read_sessions(path))
        queries = [t.query for s in sessions for t in s.turns]
        query = max(queries, key=queries.count)
        fresh = tuple(list(query))
        assert sum(q is query for q in queries) > 1
        del queries
        del sessions
        assert sys.getrefcount(query) == sys.getrefcount(fresh)
    finally:
        if was_enabled:
            gc.enable()


def test_failed_read_keeps_nothing_behind(tmp_path, monkeypatch):
    """A read that fails on line 3 frees its table and the sessions it built
    by reference counting alone, once the error is dropped."""
    refs = []

    class Table(dialog._SharedValues):
        def __init__(self):
            super().__init__()
            refs.append(weakref.ref(self))

    build_session = dialog._session_from_obj

    def recorded(*args):
        session = build_session(*args)
        refs.append(weakref.ref(session))
        return session

    monkeypatch.setattr(dialog, "_SharedValues", Table)
    monkeypatch.setattr(dialog, "_session_from_obj", recorded)
    path = tmp_path / "bad.jsonl"
    _write_records(path, _turn_obj(), _turn_obj(timestamp=-1.0))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with pytest.raises(CorpusSchemaError, match="line 3"):
            read_sessions(path)
        assert len(refs) == 3  # the table and two sessions
        assert all(ref() is None for ref in refs)
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture(scope="module")
def labeled_corpus_bytes():
    """A small generated corpus, with oracle and weak labels, as written."""
    sessions = synth.generate(synth.CorpusConfig(seed=5, num_sessions=6))
    sessions = [s.with_weak_labels([0.25 + 0.5 * (t % 2) for t in range(len(s.turns))])
                for s in sessions]
    lines = [json.dumps(_session_to_obj(s), ensure_ascii=False) + "\n" for s in sessions]
    return "".join(lines).encode("utf-8")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_every_mutated_corpus_fails_with_a_corpus_error_naming_its_line(
        tmp_path_factory, labeled_corpus_bytes, data):
    """Truncating a written corpus, deleting any key or array element of one
    of its records, or giving any value of one record another JSON type
    either still reads or fails with a CorpusParseError or
    CorpusSchemaError that names the mutated line; no KeyError, TypeError,
    AttributeError or IndexError escapes."""
    raw = labeled_corpus_bytes
    path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
    kind = data.draw(st.sampled_from(["truncate", "delete", "retype"]))
    if kind == "truncate":
        cut = data.draw(st.integers(0, len(raw) - 1))
        path.write_bytes(raw[:cut])
        line_no = raw[:cut].count(b"\n") + 1
    else:
        lines = raw.decode("utf-8").splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        record, _ = mutate_json(data, json.loads(lines[i]), kind, lambda p: True)
        lines[i] = json.dumps(record)
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        line_no = i + 1
    try:
        read_sessions(path)
    except (CorpusParseError, CorpusSchemaError) as exc:
        assert exc.line_no == line_no
        assert str(exc).startswith(f"line {line_no}: ")
