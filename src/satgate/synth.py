"""Synthetic multi-turn dialogue corpus with controllable error injection.

Stands in for proprietary assistant logs: each turn is planned from a small
domain catalog, then independently corrupted with one of three error kinds
(speech recognition garbling, wrong semantic parse, user misspeaking). The
oracle satisfaction label is 0 exactly when a turn was corrupted. Unsatisfied
users rephrase, negate, or abandon on the following turn and react quickly;
satisfied users move on to a fresh request, sometimes with thanks, and take
their time, which is the footprint the downstream weak labeler learns from.

``CorpusConfig`` sets the seed, size, turn range, error rates and domain
catalog; user behavior, reaction gaps and confidences are module constants.
Turns and sessions are built without ``DialogueTurn``/``Session`` checks:
``CorpusConfig.validate`` checks the catalog they are built from, and a test
checks that every generated turn passes the full checks unchanged. Like a
read corpus, a generated one shares equal values: its tokenized texts, slot
tuples and catalog strings go through the build's table (``dialog``), so a
10k-session corpus holds about 11 MB instead of 43 MB. Object identity is
not part of the API. A session's confidences come from one elementwise
``betaincinv`` call over its turns, which gives the doubles of one call per
value. ``scipy.special`` is imported once per ``generate_with_trace`` call,
not with this module, so only corpus generation loads scipy.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import asdict, dataclass, fields
import numpy as np

from .dialog import (
    DialogueTurn,
    Session,
    _building_corpus,
    _SharedValues,
    _unchecked_session,
    _unchecked_turn,
    tokenize,
)

__all__ = ["DomainSpec", "CorpusConfig", "generate", "generate_with_trace"]


@dataclass(frozen=True)
class DomainSpec:
    """One domain-intent: how users ask for it and how the system answers."""

    domain_intent: str
    slot_key: str
    templates: tuple[str, ...]
    response_templates: tuple[str, ...]
    items: tuple[str, ...]
    weight: float


DEFAULT_CATALOG: tuple[DomainSpec, ...] = (
    DomainSpec(
        "music-play",
        "song",
        (
            "play {item}",
            "play the song {item}",
            "put on {item}",
            "i want to hear {item}",
            "play some {item}",
        ),
        (
            "playing {item}",
            "now playing {item} for you",
            "here is {item}",
            "ok playing it now",
            "starting your music",
        ),
        (
            "show me love",
            "shape of you",
            "rolling thunder",
            "summer nights",
            "lonely river",
            "golden hour",
            "midnight rain",
            "dancing queen",
            "purple haze",
            "silver moon",
            "thunder road",
            "sweet caroline",
            "northern lights",
            "hello darkness",
        ),
        0.28,
    ),
    DomainSpec(
        "weather-query",
        "city",
        (
            "what is the weather in {item}",
            "weather in {item}",
            "will it rain in {item} today",
            "how hot is it in {item}",
            "forecast for {item}",
        ),
        (
            "the weather in {item} is sunny today",
            "expect light rain in {item}",
            "it is cloudy in {item} right now",
            "mostly sunny today with a light breeze",
        ),
        (
            "beijing",
            "shanghai",
            "sydney",
            "london",
            "paris",
            "tokyo",
            "new york",
            "berlin",
            "madrid",
            "cairo",
            "moscow",
            "toronto",
        ),
        0.20,
    ),
    DomainSpec(
        "video-play",
        "video",
        (
            "play the video {item}",
            "show me {item} video",
            "i want to watch {item}",
            "open the video {item}",
        ),
        (
            "playing the video {item}",
            "here is the video {item}",
            "ok starting the video now",
        ),
        (
            "funny cats",
            "cooking pasta",
            "travel vlog",
            "space documentary",
            "soccer highlights",
            "piano tutorial",
            "magic tricks",
            "city tour",
        ),
        0.14,
    ),
    DomainSpec(
        "alarm-set",
        "time",
        (
            "set an alarm for {item}",
            "wake me up at {item}",
            "set a timer for {item}",
            "remind me at {item}",
        ),
        (
            "alarm set for {item}",
            "ok i will wake you at {item}",
            "done your alarm is ready",
        ),
        (
            "seven am",
            "six thirty",
            "eight pm",
            "noon",
            "five forty five",
            "nine in the morning",
            "ten tonight",
        ),
        0.12,
    ),
    DomainSpec(
        "news-read",
        "topic",
        (
            "read the news about {item}",
            "tell me news on {item}",
            "what is happening in {item}",
            "latest news about {item}",
        ),
        (
            "here are the top stories about {item}",
            "reading the latest news on {item}",
            "sure here are the headlines",
        ),
        ("sports", "technology", "finance", "movies", "science", "politics", "health"),
        0.10,
    ),
    DomainSpec(
        "joke-tell",
        "style",
        (
            "tell me a {item} joke",
            "make me laugh with a {item} joke",
            "got any {item} jokes",
        ),
        (
            "here is a {item} joke for you",
            "ok one {item} joke coming up",
            "why did the chicken cross the road",
        ),
        ("funny", "silly", "dad", "knock knock", "clever"),
        0.06,
    ),
    DomainSpec(
        "music-favorite",
        "song",
        (
            "add {item} to my favorites",
            "i love {item} save it",
            "save the song {item}",
        ),
        (
            "added {item} to your favorites",
            "saved {item} for you",
            "saved it to your list",
        ),
        (
            "show me love",
            "golden hour",
            "silver moon",
            "dancing queen",
            "summer nights",
            "thunder road",
        ),
        0.06,
    ),
    DomainSpec(
        "weather-tomorrow",
        "city",
        (
            "what is the weather in {item} tomorrow",
            "will it rain in {item} tomorrow",
            "tomorrow forecast for {item}",
        ),
        (
            "tomorrow in {item} expect sunshine",
            "tomorrow {item} will see some rain",
            "tomorrow looks clear and warm",
        ),
        ("beijing", "sydney", "london", "tokyo", "paris", "toronto"),
        0.04,
    ),
)

# Unrecognizable fragments an ASR front end emits on garbled audio. Real
# recognizer junk is long-tailed, so the pool is wide and each fragment rare.
GARBLE_TOKENS = tuple(
    head + tail
    for head in ("z", "br", "kr", "sh", "vr", "gl", "tz", "pk", "mm", "dr", "bl", "fr")
    for tail in ("ik", "ak", "urn", "op", "esh", "arl", "iff", "onk", "utt", "erz")
)

NEGATION_PREFIXES = ("no", "no not that", "not that one", "wrong", "no that is wrong", "nope")
AFFIRMATION_PREFIXES = ("thanks", "thank you", "great", "okay good", "yes perfect")
TERMINATION_UTTERANCES = ("stop", "goodbye", "stop now", "that is all", "exit")

_TERMINATION_DOMAIN = "system-stop"

# Number of random draws consumed per turn. Fixed so a turn's randomness is a
# pure function of (seed, session index, turn index) regardless of which
# branches earlier turns took.
_SLATE = 14
(
    _U_CORRUPT,
    _U_DOMAIN,
    _U_ITEM,
    _U_TEMPLATE,
    _U_RESPONSE,
    _U_WRONG,
    _U_WRONG2,
    _U_BEHAVIOR,
    _U_GAP,
    _U_AFFIRM,
    _U_TERM,
    _U_EXTRA,
    _U_ASR_CONF,
    _U_NLU_CONF,
) = range(_SLATE)


# Next-turn behavior: unsatisfied users rephrase, else negate, else abandon;
# satisfied ones continue (sometimes opening with thanks), else close the
# session, else go quiet.
REPHRASE_PROB = 0.5
NEGATE_PROB = 0.5
CONTINUE_PROB = 0.7
TERMINATE_PROB = 0.2
AFFIRM_PROB = 0.15

# Inter-turn gap ranges in seconds (uniform), by current-turn satisfaction.
SAT_GAP = (8.0, 60.0)
UNSAT_GAP = (2.0, 25.0)

# Confidence distributions, keyed by (error kind, which confidence): beta
# shaped by (mean, concentration). User errors look clean upstream: the
# recognizer and parser did their job.
CONFIDENCE_BETA: dict[tuple[str, str], tuple[float, float]] = {
    ("clean", "asr"): (0.90, 7.0), ("clean", "nlu"): (0.90, 7.0),
    ("asr", "asr"): (0.58, 3.5), ("asr", "nlu"): (0.78, 3.5),
    ("nlu", "asr"): (0.82, 3.5), ("nlu", "nlu"): (0.58, 3.5),
    ("user", "asr"): (0.90, 7.0), ("user", "nlu"): (0.90, 7.0),
}

# Share of semantic-parse errors that land in the wrong domain (the rest keep
# the domain but fill the wrong slot value).
NLU_WRONG_DOMAIN_SHARE = 0.7


@dataclass(frozen=True)
class CorpusConfig:
    seed: int = 0
    num_sessions: int = 1000
    turns_min: int = 2
    turns_max: int = 8
    asr_error_rate: float = 0.10
    nlu_error_rate: float = 0.08
    user_error_rate: float = 0.05
    domain_catalog: tuple[DomainSpec, ...] = DEFAULT_CATALOG

    def validate(self) -> None:
        for name, low in (("seed", 0), ("num_sessions", 1), ("turns_min", 1), ("turns_max", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        for name in ("asr_error_rate", "nlu_error_rate", "user_error_rate"):
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (real and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")
        total = self.asr_error_rate + self.nlu_error_rate + self.user_error_rate
        if total > 1.0:
            raise ValueError(f"error rates must sum to at most 1, got {total!r}")
        if self.turns_max < self.turns_min:
            raise ValueError(f"turns_max must be >= turns_min, got {self.turns_max} < {self.turns_min}")
        if not self.domain_catalog:
            raise ValueError("domain_catalog must be non-empty")
        for i, entry in enumerate(self.domain_catalog):
            if not (math.isfinite(entry.weight) and entry.weight > 0):
                raise ValueError(f"domain_catalog[{i}] weight must be finite and > 0, got {entry.weight!r}")
            for name in ("templates", "response_templates"):
                if not getattr(entry, name):
                    raise ValueError(f"domain_catalog[{i}] {name} must be non-empty")
            # A misrecognized or misparsed turn returns another item of its domain.
            if len(entry.items) < 2:
                raise ValueError(f"domain_catalog[{i}] items must be at least 2 entries, got {len(entry.items)}")
            # Generated turns are built unchecked, so what the catalog puts in
            # them must already pass DialogueTurn's checks.
            for name in ("domain_intent", "slot_key"):
                if not isinstance(getattr(entry, name), str):
                    raise ValueError(f"domain_catalog[{i}] {name} must be a string, got {getattr(entry, name)!r}")
            for name in ("templates", "response_templates", "items"):
                for j, text in enumerate(getattr(entry, name)):
                    if not isinstance(text, str):
                        raise ValueError(f"domain_catalog[{i}] {name} must be strings, "
                                         f"but {name}[{j}] is {text!r}")
            for name in ("templates", "response_templates"):
                if not all(tokenize(template.format(item=item))
                           for template in getattr(entry, name) for item in entry.items):
                    raise ValueError(f"domain_catalog[{i}] {name} must give every item a non-empty text")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["domain_catalog"] = [asdict(entry) for entry in self.domain_catalog]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "CorpusConfig":
        d = dict(d)
        catalog = d.pop("domain_catalog", None)
        if catalog is not None:
            if not isinstance(catalog, (list, tuple)):
                raise ValueError(f"domain_catalog must be an array of objects, "
                                 f"got {type(catalog).__name__}")
            d["domain_catalog"] = tuple(_domain_spec(i, c) for i, c in enumerate(catalog))
        return cls(**d)


def _domain_spec(index: int, entry) -> DomainSpec:
    """The ``index``-th ``domain_catalog`` entry of a config dict as a
    DomainSpec; an entry that is not an object, lacks a field, or holds a
    weight that is not a number or texts that are not an array raises a
    ValueError naming the entry and the field. ``validate`` checks the
    rest."""
    where = f"domain_catalog[{index}]"
    if not isinstance(entry, dict):
        raise ValueError(f"{where} must be an object, got {type(entry).__name__}")
    for f in fields(DomainSpec):
        if f.name not in entry:
            raise ValueError(f"{where} lacks required field {f.name!r}")
    weight = entry["weight"]
    if isinstance(weight, bool) or not isinstance(weight, (int, float)):
        raise ValueError(f"{where} weight must be a number, got {weight!r}")
    for name in ("templates", "response_templates", "items"):
        if not isinstance(entry[name], (list, tuple)):
            raise ValueError(f"{where} {name} must be an array of strings, "
                             f"got {type(entry[name]).__name__}")
    return DomainSpec(
        domain_intent=entry["domain_intent"],
        slot_key=entry["slot_key"],
        templates=tuple(entry["templates"]),
        response_templates=tuple(entry["response_templates"]),
        items=tuple(entry["items"]),
        weight=float(weight),
    )


def _pick(u: float, n: int) -> int:
    """Map u in [0, 1) to an index in [0, n)."""
    return min(int(u * n), n - 1)


def _pick_other(u: float, n: int, avoid: int) -> int:
    """Index in [0, n) different from ``avoid`` (requires n >= 2)."""
    j = _pick(u, n - 1)
    return j if j < avoid else j + 1


# The beta shape parameters (a, b) of each CONFIDENCE_BETA entry.
_BETA_SHAPE = {
    key: (mean * conc, (1.0 - mean) * conc) for key, (mean, conc) in CONFIDENCE_BETA.items()
}


def _confidences(u: np.ndarray, errors: list[str], betaincinv) -> list[float]:
    """The ASR and NLU confidences of turns with draw slates ``u`` (one row
    per turn) and error kinds ``errors``, interleaved per turn, from one
    elementwise call of scipy's ``betaincinv``: the doubles of one call per
    value."""
    a, b = zip(*[_BETA_SHAPE[error, which] for error in errors for which in ("asr", "nlu")])
    return betaincinv(a, b, u[:, [_U_ASR_CONF, _U_NLU_CONF]].ravel()).tolist()


def _cumulative_weights(catalog: tuple[DomainSpec, ...]) -> list[float]:
    weights = np.array([entry.weight for entry in catalog], dtype=float)
    return np.cumsum(weights / weights.sum()).tolist()


def _domain_index(u: float, cumweights: list[float]) -> int:
    return min(bisect_right(cumweights, u), len(cumweights) - 1)


def _generate_session(config: CorpusConfig, index: int, cumweights: list[float],
                      shared: _SharedValues, betaincinv):
    """Session ``index`` and its turns' error kinds, built from ``shared``
    values; ``cumweights`` are the catalog's cumulative weights."""
    rng = np.random.default_rng([config.seed, index])
    n_target = config.turns_min + _pick(
        float(rng.random()), config.turns_max - config.turns_min + 1
    )
    draws = rng.random((config.turns_max, _SLATE))
    slates = draws.tolist()

    catalog = config.domain_catalog
    total_rate = config.asr_error_rate + config.nlu_error_rate + config.user_error_rate
    # One error kind per corrupted turn, regions proportional to the rates.
    errors = [
        "asr" if uc < config.asr_error_rate
        else "nlu" if uc < config.asr_error_rate + config.nlu_error_rate
        else "user" if uc < total_rate
        else "clean"
        for uc in draws[:n_target, _U_CORRUPT].tolist()
    ]
    confidences = _confidences(draws[:n_target], errors, betaincinv)
    tokens, string = shared.tokens, shared.string

    turns: list[DialogueTurn] = []
    oracle: list[int] = []
    # plan: ("fresh", None) | ("rephrase"|"negate", (domain_idx, item_idx)) | ("terminate", None)
    plan = ("fresh", None)
    prev_satisfied = False
    now = 0.0

    for k in range(n_target):
        u = slates[k]

        kind, wanted = plan
        if kind == "terminate":
            query_text = TERMINATION_UTTERANCES[_pick(u[_U_TEMPLATE], len(TERMINATION_UTTERANCES))]
            wanted_domain = None
        else:
            if kind == "fresh":
                di = _domain_index(u[_U_DOMAIN], cumweights)
                ii = _pick(u[_U_ITEM], len(catalog[di].items))
            else:
                di, ii = wanted
            domain = catalog[di]
            template = domain.templates[_pick(u[_U_TEMPLATE], len(domain.templates))]
            query_text = template.format(item=domain.items[ii])
            if kind == "negate":
                prefix = NEGATION_PREFIXES[_pick(u[_U_EXTRA], len(NEGATION_PREFIXES))]
                query_text = f"{prefix} {query_text}"
            elif kind == "fresh" and prev_satisfied and u[_U_AFFIRM] < AFFIRM_PROB:
                prefix = AFFIRMATION_PREFIXES[_pick(u[_U_EXTRA], len(AFFIRMATION_PREFIXES))]
                query_text = f"{prefix} {query_text}"
            wanted_domain = (di, ii)

        error = errors[k]

        if kind == "terminate":
            # Meta turn: the user closes the session. A corrupted close still
            # counts as an error (system mishears / misparses the farewell).
            query_tokens = tokenize(query_text)
            if error == "asr":
                query_tokens = _garble(query_tokens, u[_U_EXTRA])
            domain_intent = _TERMINATION_DOMAIN if error != "nlu" else catalog[
                _domain_index(u[_U_WRONG], cumweights)
            ].domain_intent
            turn = _unchecked_turn(
                tokens(query_tokens),
                string(domain_intent),
                (),
                string("session-end"),
                tokens(tokenize("goodbye")),
                now,
                confidences[2 * k],
                confidences[2 * k + 1],
            )
            turns.append(turn)
            oracle.append(1 if error == "clean" else 0)
            break

        domain = catalog[wanted_domain[0]]
        item = domain.items[wanted_domain[1]]
        query_tokens = tokenize(query_text)

        if error == "clean":
            parsed, slot_value, result_item = domain, tokenize(item), item
        elif error == "asr":
            # The decoded text itself is wrong: the item words come out as
            # unrecognizable fragments and retrieval falls back to some other
            # item from the same pool.
            garbled = _garble(tokenize(item), u[_U_EXTRA])
            query_tokens = _replace_span(query_tokens, tokenize(item), garbled)
            wrong_ii = _pick_other(u[_U_WRONG], len(domain.items), wanted_domain[1])
            parsed, slot_value, result_item = domain, garbled, domain.items[wrong_ii]
        elif error == "nlu":
            if u[_U_EXTRA] < NLU_WRONG_DOMAIN_SHARE and len(catalog) > 1:
                # Wrong domain parse: the response comes from another domain.
                wrong_di = _pick_other(u[_U_WRONG], len(catalog), wanted_domain[0])
                parsed = catalog[wrong_di]
                wrong_ii = _pick(u[_U_WRONG2], len(parsed.items))
                slot_value, result_item = tokenize(item), parsed.items[wrong_ii]
            else:
                # Right domain, wrong slot value.
                wrong_ii = _pick_other(u[_U_WRONG], len(domain.items), wanted_domain[1])
                parsed = domain
                slot_value = tokenize(domain.items[wrong_ii])
                result_item = domain.items[wrong_ii]
        else:  # user error: the user asked for something they did not want
            said_ii = _pick_other(u[_U_WRONG], len(domain.items), wanted_domain[1])
            said = domain.items[said_ii]
            query_tokens = _replace_span(query_tokens, tokenize(item), tokenize(said))
            parsed, slot_value, result_item = domain, tokenize(said), said

        response_template = parsed.response_templates[
            _pick(u[_U_RESPONSE], len(parsed.response_templates))
        ]
        turn = _unchecked_turn(
            tokens(query_tokens),
            string(parsed.domain_intent),
            shared.slots(((parsed.slot_key, slot_value),)),
            string(result_item),
            tokens(tokenize(response_template.format(item=result_item))),
            now,
            confidences[2 * k],
            confidences[2 * k + 1],
        )
        satisfied = error == "clean"
        turns.append(turn)
        oracle.append(1 if satisfied else 0)

        if k + 1 >= n_target:
            break

        gap_lo, gap_hi = SAT_GAP if satisfied else UNSAT_GAP
        now += gap_lo + u[_U_GAP] * (gap_hi - gap_lo)
        prev_satisfied = satisfied

        if satisfied:
            if k + 1 < config.turns_min or u[_U_BEHAVIOR] < CONTINUE_PROB:
                plan = ("fresh", None)
            elif u[_U_TERM] < TERMINATE_PROB:
                plan = ("terminate", None)
            else:
                break
        else:
            ub = u[_U_BEHAVIOR]
            if ub < REPHRASE_PROB:
                plan = ("rephrase", wanted_domain)
            elif ub < REPHRASE_PROB + (1.0 - REPHRASE_PROB) * NEGATE_PROB:
                plan = ("negate", wanted_domain)
            elif k + 1 < config.turns_min:
                plan = ("fresh", None)
            else:
                break  # abandon

    session = _unchecked_session(f"s{index:07d}", tuple(turns), tuple(oracle), None)
    return session, errors[: len(turns)]


def _garble(item_tokens: tuple[str, ...], u: float) -> tuple[str, ...]:
    start = _pick(u, len(GARBLE_TOKENS))
    n = len(item_tokens)
    return tuple(GARBLE_TOKENS[(start + j) % len(GARBLE_TOKENS)] for j in range(n))


def _replace_span(
    tokens: tuple[str, ...], old: tuple[str, ...], new: tuple[str, ...]
) -> tuple[str, ...]:
    """Replace the last occurrence of the contiguous span ``old`` in ``tokens``."""
    n, m = len(tokens), len(old)
    for start in range(n - m, -1, -1):
        if tokens[start : start + m] == old:
            return tokens[:start] + new + tokens[start + m :]
    return tokens


def generate(config: CorpusConfig) -> list[Session]:
    """Generate a deterministic corpus; each session depends only on (seed, index)."""
    return generate_with_trace(config)[0]


def generate_with_trace(config: CorpusConfig) -> tuple[list[Session], list[list[str]]]:
    """Like :func:`generate` but also return per-turn error kinds for auditing."""
    config.validate()
    from scipy.special import betaincinv

    sessions: list[Session] = []
    traces: list[list[str]] = []
    cumweights = _cumulative_weights(config.domain_catalog)
    with _building_corpus() as shared:
        for index in range(config.num_sessions):
            session, trace = _generate_session(config, index, cumweights, shared, betaincinv)
            sessions.append(session)
            traces.append(trace)
    return sessions, traces
