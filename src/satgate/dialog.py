"""Core domain types for dialogue logs and their JSONL serialization.

A turn bundles what the user said, how the system parsed it, and what the
system answered; a session is an ordered list of turns from one conversation,
optionally carrying oracle satisfaction labels (synthetic / expert data) and
weak labels produced by the labeling stage.

Validation happens once, where a turn or session is built: the query and
the response must be non-empty sequences of non-empty string tokens and each
slot value a sequence of string tokens (a bare string is rejected, not split
into characters), the domain-intent, the result item and the session id must
be strings, and timestamps and confidences must be real numbers (not
booleans or numeric strings); a file's label arrays must hold numbers.
``read_sessions`` checks each parsed JSON record, so a bad record fails with
a :class:`CorpusSchemaError` naming its line and field. The synthetic
generator (``synth``) skips these checks and builds its turns and sessions
with ``_unchecked_turn`` and ``_unchecked_session``: what it emits passes
them by construction, and a test holds it to that.

A corpus shares equal values (``_SharedValues``). While it is read or
generated, each distinct query or response token tuple, slot tuple and
string (token, slot key, domain-intent, result item) is registered once,
and every turn is built from the registered objects, so the corpus holds
each of them once however many turns repeat it: a 10k-session file reads
into about 10 MB instead of 48 MB (CPython 3.11, tracemalloc). A read
record whose token lists and strings all equal registered values has only
its timestamp and confidences checked again; the rest passed the checks
when it was registered, and any other record is checked in full, so errors
and their messages do not depend on what came before. The table lives only
as long as the build. Object identity is not part of the API: two turns'
equal values may or may not be one object.

Corpora are built outside the cyclic garbage collector's reach
(``_building_corpus``): garbage is collected, the collector is paused while
a corpus is read or generated, and once it is built every object the
process tracks is moved into the permanent generation with ``gc.freeze()``,
so later collections never walk it. Records and frozen turns hold no
reference cycles, so reference counting alone still frees a dropped corpus.
The caller's collector state is restored afterwards.
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
    """A line of a session file is not UTF-8 or not well-formed JSON."""

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


def _check_str(name: str, value) -> None:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")


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


def _check_turn_numbers(timestamp, asr_confidence, nlu_confidence) -> tuple[float, float, float]:
    """A turn's timestamp (non-negative) and confidences (in [0, 1]) as
    floats, else a ValueError naming the first bad one."""
    timestamp = _check_number("timestamp", timestamp)
    if timestamp < 0:
        raise ValueError(f"timestamp must be non-negative, got {timestamp!r}")
    return (timestamp, _check_unit("asr_confidence", asr_confidence),
            _check_unit("nlu_confidence", nlu_confidence))


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
        _check_str("domain_intent", self.domain_intent)
        _check_str("result_item", self.result_item)
        timestamp, asr, nlu = _check_turn_numbers(self.timestamp, self.asr_confidence,
                                                  self.nlu_confidence)
        setattr_(self, "timestamp", timestamp)
        setattr_(self, "asr_confidence", asr)
        setattr_(self, "nlu_confidence", nlu)


def _check_weak_labels(labels, turns) -> tuple[float, ...]:
    """``labels`` as a tuple of floats, one per turn, each in [0, 1]."""
    weak = tuple(float(v) for v in labels)
    if len(weak) != len(turns):
        raise ValueError("weak_labels length must match turns")
    if any(not (0.0 <= v <= 1.0) for v in weak):
        raise ValueError("weak_labels must lie in [0, 1]")
    return weak


@dataclass(frozen=True)
class Session:
    """Ordered turns of one conversation plus optional per-turn annotations."""

    session_id: str
    turns: tuple[DialogueTurn, ...]
    oracle_satisfaction: Optional[tuple[int, ...]] = None
    weak_labels: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        _check_str("session_id", self.session_id)
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
            object.__setattr__(self, "weak_labels", _check_weak_labels(self.weak_labels, self.turns))

    def with_weak_labels(self, labels: Sequence[float]) -> "Session":
        """This session with ``labels`` as its weak labels. Only the labels
        are checked: the rest was checked when this session was built."""
        return _unchecked_session(self.session_id, self.turns, self.oracle_satisfaction,
                                  _check_weak_labels(labels, self.turns))

    def labels(self, source: str) -> tuple:
        """The per-turn "oracle" satisfaction bits or "weak" labels, else a
        ValueError naming the session."""
        if source not in ("oracle", "weak"):
            raise ValueError(f"unknown label source {source!r}")
        labels = self.oracle_satisfaction if source == "oracle" else self.weak_labels
        if labels is None:
            raise ValueError(f"session {self.session_id} has no {source} labels")
        return labels


# The unchecked builders set the attributes in field order, as the dataclass
# ``__init__`` sets them, so each instance keeps its class's key-sharing
# attribute dict. They are spelled out per field because a loop over the
# field names costs twice as much per turn.
_setattr = object.__setattr__


def _unchecked_turn(query, domain_intent, slots, result_item, voice_response, timestamp,
                    asr_confidence, nlu_confidence) -> DialogueTurn:
    """A ``DialogueTurn`` holding these values, built without its checks.
    Only for values that already pass them, in the types the checks produce
    (tuples of ``str`` tokens, ``float`` times and confidences)."""
    turn = object.__new__(DialogueTurn)
    _setattr(turn, "query", query)
    _setattr(turn, "domain_intent", domain_intent)
    _setattr(turn, "slots", slots)
    _setattr(turn, "result_item", result_item)
    _setattr(turn, "voice_response", voice_response)
    _setattr(turn, "timestamp", timestamp)
    _setattr(turn, "asr_confidence", asr_confidence)
    _setattr(turn, "nlu_confidence", nlu_confidence)
    return turn


def _unchecked_session(session_id, turns, oracle_satisfaction, weak_labels) -> Session:
    """A ``Session`` holding these values, built without its checks; as for
    :func:`_unchecked_turn`, only for values that already pass them."""
    session = object.__new__(Session)
    _setattr(session, "session_id", session_id)
    _setattr(session, "turns", turns)
    _setattr(session, "oracle_satisfaction", oracle_satisfaction)
    _setattr(session, "weak_labels", weak_labels)
    return session


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
_TURN_KEY_SET = frozenset(_TURN_KEYS)


def _turn_to_obj(turn: DialogueTurn) -> dict:
    # json.dumps writes the token and slot tuples as JSON arrays.
    return {key: getattr(turn, key) for key in _TURN_KEYS}


def _session_to_obj(session: Session) -> dict:
    obj = {
        "session_id": session.session_id,
        "turns": [_turn_to_obj(t) for t in session.turns],
    }
    if session.oracle_satisfaction is not None:
        obj["oracle_satisfaction"] = session.oracle_satisfaction
    if session.weak_labels is not None:
        obj["weak_labels"] = session.weak_labels
    return obj


def _turn_from_obj(obj, line_no: int, shared: _SharedValues) -> DialogueTurn:
    if type(obj) is not dict:
        raise CorpusSchemaError(line_no, "turn must be a JSON object")
    if not obj.keys() >= _TURN_KEY_SET:
        missing = next(key for key in _TURN_KEYS if key not in obj)
        raise CorpusSchemaError(line_no, f"turn is missing required field {missing!r}")
    try:
        return shared.read_turn(obj)
    except (TypeError, ValueError) as exc:
        raise CorpusSchemaError(line_no, f"invalid turn: {exc}") from exc


def _session_from_obj(obj, line_no: int, shared: _SharedValues) -> Session:
    if not isinstance(obj, dict):
        raise CorpusSchemaError(line_no, "session record must be a JSON object")
    for key in ("session_id", "turns"):
        if key not in obj:
            raise CorpusSchemaError(line_no, f"session is missing required field {key!r}")
    if type(obj["turns"]) is not list:
        raise CorpusSchemaError(line_no, "session field 'turns' must be a JSON array")
    turns = tuple([_turn_from_obj(t, line_no, shared) for t in obj["turns"]])
    oracle = _labels_from_obj(obj, "oracle_satisfaction", {int}, "integers", line_no)
    weak = _labels_from_obj(obj, "weak_labels", {int, float}, "numbers", line_no)
    try:
        return Session(
            session_id=obj["session_id"],
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


def _slots_key(slots: list) -> tuple:
    """A JSON slot list as the slot tuple it stands for, with None for a
    value that is not a JSON array; a TypeError or ValueError for a slot
    that is not a pair."""
    return tuple([(key, tuple(value) if type(value) is list else None) for key, value in slots])


class _SharedValues:
    """One corpus build's table of turn values. Each distinct query or
    response token tuple, slot tuple and string (token, slot key,
    domain-intent, result item) maps to the first equal object registered,
    and the build makes every turn from those objects, so its corpus holds
    each distinct value once. Only values that passed the turn checks are
    registered. The table lives as long as the build.
    """

    __slots__ = ("_texts", "_slots", "_strings")

    def __init__(self):
        self._texts: dict = {}  # query and response token tuples
        self._slots: dict = {}
        self._strings: dict = {}

    def string(self, value: str) -> str:
        return self._strings.setdefault(value, value)

    def tokens(self, tokens: tuple[str, ...]) -> tuple[str, ...]:
        """The shared equal of a query or response that passes the checks."""
        shared = self._texts.get(tokens)
        if shared is None:
            shared = tuple([self.string(token) for token in tokens])
            self._texts[shared] = shared
        return shared

    def slots(self, slots: tuple[tuple[str, tuple[str, ...]], ...]):
        """The shared equal of a slot tuple that passes the checks."""
        shared = self._slots.get(slots)
        if shared is None:
            string = self.string
            shared = tuple([(string(key), tuple([string(token) for token in value]))
                            for key, value in slots])
            self._slots[shared] = shared
        return shared

    def read_turn(self, obj: dict) -> DialogueTurn:
        """The turn of a parsed JSON turn record that has every field, built
        from shared values. When its token lists and strings all equal
        registered values, which passed the checks, only its timestamp and
        confidences are checked again; otherwise the checking constructor
        builds it and its values are registered. Raises what that
        constructor raises, in the same order."""
        query, slots, response = obj["query"], obj["slots"], obj["voice_response"]
        # Only JSON arrays stand for token lists: a string equals no token tuple.
        if type(query) is list and type(slots) is list and type(response) is list:
            texts, strings = self._texts, self._strings
            try:
                found = (
                    texts.get(tuple(query)),
                    strings.get(obj["domain_intent"]),
                    self._slots.get(_slots_key(slots)),
                    strings.get(obj["result_item"]),
                    texts.get(tuple(response)),
                )
            except (TypeError, ValueError):  # an unhashable value, a slot that is not a pair
                found = (None,)
            if None not in found:
                return _unchecked_turn(*found, *_check_turn_numbers(
                    obj["timestamp"], obj["asr_confidence"], obj["nlu_confidence"]))
        turn = DialogueTurn(**{key: obj[key] for key in _TURN_KEYS})
        string = self.string
        return _unchecked_turn(
            self.tokens(turn.query), string(turn.domain_intent), self.slots(turn.slots),
            string(turn.result_item), self.tokens(turn.voice_response), turn.timestamp,
            turn.asr_confidence, turn.nlu_confidence,
        )


@contextmanager
def _building_corpus():
    """Pause the cyclic garbage collector while a corpus is built, yielding
    the build's table of shared values, then move the built corpus out of
    the collector's reach; the caller's collector state is restored on exit.

    A corpus is hundreds of thousands of tracked objects, and collections
    would otherwise walk all of them again as the heap grows, during the
    build and in every stage that follows. Its records and frozen turns hold
    no reference cycles, so pausing collects nothing that would otherwise be
    collected. A build starts with ``gc.collect()``, also when the caller
    has disabled the collector, so the cyclic garbage the process holds is
    freed rather than frozen. On success ``gc.freeze()`` moves every object
    the process tracks at that moment into the permanent generation:
    reference counting still frees them, but the collector never walks them
    again. A failed build is not frozen, so its partial objects stay
    collectable.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield _SharedValues()
        gc.freeze()
    finally:
        if was_enabled:
            gc.enable()


def read_sessions(path) -> list[Session]:
    """Read a JSONL session file, preserving file order.

    Raises :class:`CorpusParseError` for bytes that are not UTF-8 or for
    malformed JSON (naming the line) and :class:`CorpusSchemaError` for
    structurally invalid records (naming the line and the field).
    """
    sessions = []
    with open(path, "r", encoding="utf-8") as fh, _building_corpus() as shared:
        try:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorpusParseError(line_no, f"malformed JSON ({exc.msg})") from exc
                sessions.append(_session_from_obj(obj, line_no, shared))
        except UnicodeDecodeError as exc:
            # The decoder works on chunks and cannot name a line; find it again.
            raise CorpusParseError(_undecodable_line(path), f"not UTF-8 ({exc.reason})") from exc
    return sessions


def _undecodable_line(path) -> int:
    """The number of the first line of ``path`` that holds bytes that are not
    UTF-8, counted as ``read_sessions`` counts lines. The file is read again
    with each such byte decoded to a lone surrogate (``surrogateescape``),
    which UTF-8 never decodes to, so that line alone fails to encode back."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                return line_no


def write_sessions(sessions: Iterable[Session], path) -> None:
    """Write sessions as one JSON object per line with deterministic key order."""
    # The bytes json.dumps(obj, ensure_ascii=False) writes, from one encoder.
    encode = json.JSONEncoder(ensure_ascii=False, check_circular=False).encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(encode(_session_to_obj(session)) + "\n" for session in sessions)
