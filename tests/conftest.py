import numpy as np
import pytest

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
