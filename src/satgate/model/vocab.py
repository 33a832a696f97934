"""Frequency-based vocabularies mapping corpus symbols to embedding ids."""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from typing import Iterable

from ..dialog import Session

__all__ = ["PAD_ID", "OOV_ID", "AGG_ID", "Vocabulary"]

PAD_ID = 0
OOV_ID = 1
AGG_ID = 2
_RESERVED = 3


def _ranked(counter: Counter, cap: int | None = None) -> tuple[str, ...]:
    ordered = sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))
    if cap is not None:
        ordered = ordered[:cap]
    return tuple(k for k, _ in ordered)


class Vocabulary:
    """Token and categorical id maps built from a training corpus.

    Text tokens reserve PAD/OOV/AGG ids; categorical tables (domain-intent,
    slot key, result item) reserve id 0 for out-of-vocabulary symbols.
    """

    def __init__(
        self,
        tokens: Iterable[str],
        domains: Iterable[str],
        slot_keys: Iterable[str],
        items: Iterable[str],
    ):
        self.tokens = tuple(tokens)
        self.domains = tuple(domains)
        self.slot_keys = tuple(slot_keys)
        self.items = tuple(items)
        self._token_ids = {t: i + _RESERVED for i, t in enumerate(self.tokens)}
        self._domain_ids = {d: i + 1 for i, d in enumerate(self.domains)}
        self._slot_key_ids = {k: i + 1 for i, k in enumerate(self.slot_keys)}
        self._item_ids = {m: i + 1 for i, m in enumerate(self.items)}

    @classmethod
    def build(cls, sessions: list[Session], vocab_size: int) -> "Vocabulary":
        """Keep the ``vocab_size - 3`` most frequent tokens (ties by spelling).

        Each distinct token tuple and slot tuple is counted once, weighted by
        the number of turns that hold it: corpora repeat them many times."""
        turns = [turn for session in sessions for turn in session.turns]
        texts = Counter(map(attrgetter("query"), turns))
        texts.update(map(attrgetter("voice_response"), turns))
        slots = Counter(map(attrgetter("slots"), turns))
        tok_counts: Counter = Counter()
        key_counts: Counter = Counter()
        for tokens, n in texts.items():
            for token in tokens:
                tok_counts[token] += n
        for pairs, n in slots.items():
            for key, value in pairs:
                key_counts[key] += n
                for token in value:
                    tok_counts[token] += n
        dom_counts = Counter(map(attrgetter("domain_intent"), turns))
        item_counts = Counter(map(attrgetter("result_item"), turns))
        return cls(
            tokens=_ranked(tok_counts, cap=max(vocab_size - _RESERVED, 0)),
            domains=_ranked(dom_counts),
            slot_keys=_ranked(key_counts),
            items=_ranked(item_counts),
        )

    # Table sizes including the reserved rows.
    @property
    def n_tokens(self) -> int:
        return _RESERVED + len(self.tokens)

    @property
    def n_domains(self) -> int:
        return 1 + len(self.domains)

    @property
    def n_slot_keys(self) -> int:
        return 1 + len(self.slot_keys)

    @property
    def n_items(self) -> int:
        return 1 + len(self.items)

    def token_id(self, token: str) -> int:
        return self._token_ids.get(token, OOV_ID)

    def domain_id(self, domain_intent: str) -> int:
        return self._domain_ids.get(domain_intent, 0)

    def slot_key_id(self, key: str) -> int:
        return self._slot_key_ids.get(key, 0)

    def item_id(self, item: str) -> int:
        return self._item_ids.get(item, 0)

    def to_dict(self) -> dict:
        return {
            "tokens": list(self.tokens),
            "domains": list(self.domains),
            "slot_keys": list(self.slot_keys),
            "items": list(self.items),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Vocabulary":
        """The vocabulary ``to_dict`` wrote; a field that is not a list of
        strings is a ValueError naming it."""
        fields = {name: d[name] for name in ("tokens", "domains", "slot_keys", "items")}
        for name, values in fields.items():
            try:
                if type(values) is not list:
                    raise TypeError
                "".join(values)  # the fastest check that every value is a string
            except TypeError:
                raise ValueError(f"{name} must be a list of strings") from None
        return cls(**fields)
