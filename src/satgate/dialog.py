"""Core domain types for dialogue logs and their JSONL serialization.

A turn bundles what the user said, how the system parsed it, and what the
system answered; a session is an ordered list of turns from one conversation,
optionally carrying oracle satisfaction labels (synthetic / expert data) and
weak labels produced by the labeling stage.

Validation happens once, where a turn or session is built: the query and
the response must be non-empty sequences of non-empty string tokens and each
slot value a sequence of string tokens (a bare string is rejected, not split
into characters), and timestamps and confidences must be real numbers (not
booleans or numeric strings); a file's label arrays must hold numbers. ``read_sessions`` hands each parsed JSON
record straight to those constructors, so a file's tokens are converted to
tuples once and a bad record fails with a :class:`CorpusSchemaError` naming
its line and field. The cyclic garbage collector is paused while a file is
parsed and built (parsed records and frozen turns hold no reference cycles),
and the caller's collector state is restored afterwards.
"""

from __future__ import annotations

import gc
import json
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

__all__ = [
    "CorpusParseError",
    "CorpusSchemaError",
    "DialogueTurn",
    "Session",
    "tokenize",
    "read_sessions",
    "write_sessions",
]


class CorpusParseError(ValueError):
    """A line of a session file is not well-formed JSON."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class CorpusSchemaError(ValueError):
    """A parsed session record is missing a field or violates an invariant."""

    def __init__(self, line_no: Optional[int], message: str):
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(prefix + message)
        self.line_no = line_no


def tokenize(text: str) -> tuple[str, ...]:
    """Lowercase, whitespace-split tokenization used throughout the data layer."""
    return tuple(text.lower().split())


def _check_tokens(name: str, value, nonempty: bool = True) -> tuple[str, ...]:
    """``value`` as a tuple of string tokens, else a ValueError naming
    ``name``. ``nonempty`` also requires at least one token and no empty
    token."""
    if isinstance(value, str):
        raise ValueError(f"{name} must be a sequence of tokens, not the string {value!r}")
    try:
        toks = tuple(value)
        "".join(toks)  # C-level check that every token is a string
    except TypeError:
        raise ValueError(f"{name} must be a sequence of string tokens, got {value!r}") from None
    if nonempty and (not toks or "" in toks):
        raise ValueError(f"{name} must be a non-empty sequence of non-empty tokens")
    return toks


def _check_slots(slots) -> tuple[tuple[str, tuple[str, ...]], ...]:
    checked = []
    for pair in slots:
        try:
            key, value = pair
        except (TypeError, ValueError):
            raise ValueError(f"slots must hold (key, tokens) pairs, got {pair!r}") from None
        if not isinstance(key, str):
            raise ValueError(f"slot key must be a string, got {key!r}")
        checked.append((key, _check_tokens("slots", value, nonempty=False)))
    return tuple(checked)


def _check_number(name: str, value) -> float:
    if type(value) is not float:
        # bool is an int subclass, and float() would also accept "0.5".
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number, got {value!r}")
        value = float(value)
    return value


def _check_unit(name: str, value) -> float:
    v = _check_number(name, value)
    if not (0.0 <= v <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
    return v


@dataclass(frozen=True)
class DialogueTurn:
    """One user utterance plus the system's parse and candidate response.

    ``query`` and ``voice_response`` are token tuples; ``slots`` is an ordered
    tuple of (slot key, value tokens) pairs; ``timestamp`` counts seconds from
    session start.
    """

    query: tuple[str, ...]
    domain_intent: str
    slots: tuple[tuple[str, tuple[str, ...]], ...]
    result_item: str
    voice_response: tuple[str, ...]
    timestamp: float
    asr_confidence: float
    nlu_confidence: float

    def __post_init__(self):
        setattr_ = object.__setattr__
        setattr_(self, "query", _check_tokens("query", self.query))
        setattr_(self, "voice_response", _check_tokens("voice_response", self.voice_response))
        setattr_(self, "slots", _check_slots(self.slots))
        timestamp = _check_number("timestamp", self.timestamp)
        if timestamp < 0:
            raise ValueError(f"timestamp must be non-negative, got {timestamp!r}")
        setattr_(self, "timestamp", timestamp)
        setattr_(self, "asr_confidence", _check_unit("asr_confidence", self.asr_confidence))
        setattr_(self, "nlu_confidence", _check_unit("nlu_confidence", self.nlu_confidence))


@dataclass(frozen=True)
class Session:
    """Ordered turns of one conversation plus optional per-turn annotations."""

    session_id: str
    turns: tuple[DialogueTurn, ...]
    oracle_satisfaction: Optional[tuple[int, ...]] = None
    weak_labels: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "turns", tuple(self.turns))
        for prev, cur in zip(self.turns, self.turns[1:]):
            if cur.timestamp < prev.timestamp:
                raise ValueError(
                    f"session {self.session_id}: timestamps must be non-decreasing"
                )
        if self.oracle_satisfaction is not None:
            oracle = tuple(int(v) for v in self.oracle_satisfaction)
            if len(oracle) != len(self.turns):
                raise ValueError("oracle_satisfaction length must match turns")
            if any(v not in (0, 1) for v in oracle):
                raise ValueError("oracle_satisfaction values must be 0 or 1")
            object.__setattr__(self, "oracle_satisfaction", oracle)
        if self.weak_labels is not None:
            weak = tuple(float(v) for v in self.weak_labels)
            if len(weak) != len(self.turns):
                raise ValueError("weak_labels length must match turns")
            if any(not (0.0 <= v <= 1.0) for v in weak):
                raise ValueError("weak_labels must lie in [0, 1]")
            object.__setattr__(self, "weak_labels", weak)

    def with_weak_labels(self, labels: Sequence[float]) -> "Session":
        return Session(
            session_id=self.session_id,
            turns=self.turns,
            oracle_satisfaction=self.oracle_satisfaction,
            weak_labels=tuple(labels),
        )

    def labels(self, source: str) -> tuple:
        """The per-turn "oracle" satisfaction bits or "weak" labels, else a
        ValueError naming the session."""
        if source not in ("oracle", "weak"):
            raise ValueError(f"unknown label source {source!r}")
        labels = self.oracle_satisfaction if source == "oracle" else self.weak_labels
        if labels is None:
            raise ValueError(f"session {self.session_id} has no {source} labels")
        return labels


# --- JSONL serialization -------------------------------------------------
#
# One session object per line, UTF-8, fixed key order so identical inputs
# serialize to identical bytes.

_TURN_KEYS = (
    "query",
    "domain_intent",
    "slots",
    "result_item",
    "voice_response",
    "timestamp",
    "asr_confidence",
    "nlu_confidence",
)


def _turn_to_obj(turn: DialogueTurn) -> dict:
    return {
        "query": list(turn.query),
        "domain_intent": turn.domain_intent,
        "slots": [[k, list(v)] for k, v in turn.slots],
        "result_item": turn.result_item,
        "voice_response": list(turn.voice_response),
        "timestamp": turn.timestamp,
        "asr_confidence": turn.asr_confidence,
        "nlu_confidence": turn.nlu_confidence,
    }


def _session_to_obj(session: Session) -> dict:
    obj = {
        "session_id": session.session_id,
        "turns": [_turn_to_obj(t) for t in session.turns],
    }
    if session.oracle_satisfaction is not None:
        obj["oracle_satisfaction"] = list(session.oracle_satisfaction)
    if session.weak_labels is not None:
        obj["weak_labels"] = list(session.weak_labels)
    return obj


def _turn_from_obj(obj, line_no: int) -> DialogueTurn:
    if type(obj) is not dict:
        raise CorpusSchemaError(line_no, "turn must be a JSON object")
    for key in _TURN_KEYS:
        if key not in obj:
            raise CorpusSchemaError(line_no, f"turn is missing required field {key!r}")
    try:
        return DialogueTurn(
            query=obj["query"],
            domain_intent=str(obj["domain_intent"]),
            slots=obj["slots"],
            result_item=str(obj["result_item"]),
            voice_response=obj["voice_response"],
            timestamp=obj["timestamp"],
            asr_confidence=obj["asr_confidence"],
            nlu_confidence=obj["nlu_confidence"],
        )
    except (TypeError, ValueError) as exc:
        raise CorpusSchemaError(line_no, f"invalid turn: {exc}") from exc


def _session_from_obj(obj, line_no: int) -> Session:
    if not isinstance(obj, dict):
        raise CorpusSchemaError(line_no, "session record must be a JSON object")
    for key in ("session_id", "turns"):
        if key not in obj:
            raise CorpusSchemaError(line_no, f"session is missing required field {key!r}")
    if type(obj["turns"]) is not list:
        raise CorpusSchemaError(line_no, "session field 'turns' must be a JSON array")
    turns = tuple([_turn_from_obj(t, line_no) for t in obj["turns"]])
    oracle = _labels_from_obj(obj, "oracle_satisfaction", {int}, "integers", line_no)
    weak = _labels_from_obj(obj, "weak_labels", {int, float}, "numbers", line_no)
    try:
        return Session(
            session_id=str(obj["session_id"]),
            turns=turns,
            oracle_satisfaction=oracle,
            weak_labels=weak,
        )
    except (TypeError, ValueError) as exc:
        raise CorpusSchemaError(line_no, f"invalid session: {exc}") from exc


def _labels_from_obj(obj: dict, key: str, types: set, what: str, line_no: int):
    """An optional per-turn label array as a tuple. Its elements' exact types
    are checked, so a string is not split into characters and neither a
    boolean nor a numeric string passes for a label."""
    values = obj.get(key)
    if values is None:
        return None
    if type(values) is not list or not set(map(type, values)) <= types:
        raise CorpusSchemaError(line_no, f"session field {key!r} must be a JSON array of {what}")
    return tuple(values)


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, restoring the caller's state on exit.

    Building a corpus allocates hundreds of thousands of tracked objects, and
    the collector's periodic full collections walk all of them again as the
    heap grows; the records and frozen turns hold no reference cycles, so
    pausing collects nothing that would otherwise be collected.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def read_sessions(path) -> list[Session]:
    """Read a JSONL session file, preserving file order.

    Raises :class:`CorpusParseError` for malformed JSON (naming the line) and
    :class:`CorpusSchemaError` for structurally invalid records (naming the
    line and the field).
    """
    sessions = []
    with open(path, "r", encoding="utf-8") as fh, _gc_paused():
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusParseError(line_no, f"malformed JSON ({exc.msg})") from exc
            sessions.append(_session_from_obj(obj, line_no))
    return sessions


def write_sessions(sessions: Iterable[Session], path) -> None:
    """Write sessions as one JSON object per line with deterministic key order."""
    with open(path, "w", encoding="utf-8") as fh:
        for session in sessions:
            fh.write(json.dumps(_session_to_obj(session), ensure_ascii=False))
            fh.write("\n")
