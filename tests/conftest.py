import numpy as np
import pytest
from hypothesis import strategies as st

from satgate import _allocator
from satgate.dialog import DialogueTurn, Session
from satgate.synth import CorpusConfig, generate
from satgate.weaklabel import FeatureExtractor


def make_turn(
    query="play the song show me love",
    domain_intent="music-play",
    slots=(("song", ("show", "me", "love")),),
    result_item="show me love",
    voice_response="playing show me love",
    timestamp=0.0,
    asr_confidence=0.9,
    nlu_confidence=0.9,
):
    return DialogueTurn(
        query=tuple(query.split()),
        domain_intent=domain_intent,
        slots=tuple(slots),
        result_item=result_item,
        voice_response=tuple(voice_response.split()),
        timestamp=timestamp,
        asr_confidence=asr_confidence,
        nlu_confidence=nlu_confidence,
    )


def _json_paths(value, path=()):
    """Every (path, value) in a JSON value, the root first; a path is a tuple
    of object keys and array indices."""
    yield path, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _json_paths(child, path + (key,))


def _json_type(value) -> str:
    return {dict: "object", list: "array", str: "string", bool: "boolean",
            type(None): "null"}.get(type(value), "number")


_OTHER_VALUES = {"object": [{}, {"a": 1.0}], "array": [[], [1.0]], "string": ["", "0.5"],
                 "boolean": [True, False], "null": [None], "number": [0.5, 3]}


def mutate_json(data, record, kind, deletable):
    """``record``, a parsed JSON value, with one mutation drawn from
    hypothesis ``data``: for ``kind`` "delete", a key or index that
    ``deletable(path)`` accepts is deleted; for "retype", a value (the root
    included) is replaced by one of another JSON type. Returns the mutated
    record, changed in place unless its root was replaced, and the path."""
    paths = [p for p, _ in _json_paths(record)]
    if kind == "delete":
        paths = [p for p in paths if p and deletable(p)]
    mutated = data.draw(st.sampled_from(paths))
    parent = record
    for key in mutated[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[mutated[-1]]
        return record, mutated
    old = parent[mutated[-1]] if mutated else record
    other = data.draw(st.sampled_from(sorted(t for t in _OTHER_VALUES if t != _json_type(old))))
    new = data.draw(st.sampled_from(_OTHER_VALUES[other]))
    if not mutated:
        return new, mutated
    parent[mutated[-1]] = new
    return record, mutated


@pytest.fixture
def fake_mallopt(monkeypatch):
    """The (param, value) pairs passed to a fake C library's ``mallopt``,
    with the once-per-process allocator policy reset around the test."""
    calls = []
    libc = type("FakeLibc", (), {"mallopt": staticmethod(lambda *args: calls.append(args))})
    monkeypatch.setattr(_allocator.ctypes, "CDLL", lambda name: libc)
    _allocator.keep_working_memory_mapped.cache_clear()
    yield calls
    _allocator.keep_working_memory_mapped.cache_clear()


@pytest.fixture(scope="session")
def small_corpus():
    return generate(CorpusConfig(seed=101, num_sessions=60))


@pytest.fixture(scope="session")
def small_extractor(small_corpus):
    return FeatureExtractor.fit(small_corpus)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)
