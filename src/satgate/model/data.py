"""Encoding of sessions into a pool of distinct turn contents and per-turn
prediction windows.

A turn's content is what the per-turn encoder reads: its text ids (after
vocabulary lookup and ``max_text_len`` truncation), its domain-intent and
result-item ids, and its slot-key and slot-value ids (after the
``MAX_SLOTS`` and ``MAX_SLOT_VALUE_TOKENS`` cuts). The pool holds each
distinct content once, and a window is a row of pool indices (the turn
itself plus up to ``num_turns - 1`` predecessors, front-padded and masked
when the history is shorter). Turns that repeat content, within a session or
across the corpus, share one pool row, so training, batch scoring and online
gating all run the per-turn encoder once per distinct content.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from ..dialog import DialogueTurn, Session
from .config import PredictorConfig
from .vocab import AGG_ID, PAD_ID, Vocabulary

__all__ = ["MAX_SLOTS", "MAX_SLOT_VALUE_TOKENS", "Batch", "WindowDataset", "encode_window"]

MAX_SLOTS = 2
MAX_SLOT_VALUE_TOKENS = 5


@dataclass
class Batch:
    """A set of prediction windows over a pool of encoded turns.

    Turn-level arrays have a leading pool axis of size M; ``window_rows``
    holds, per window and slot, the pool row of that slot's turn (padded
    slots point at row 0 and carry ``turn_mask`` 0).
    """

    text_ids: np.ndarray       # (M, L) int64
    text_mask: np.ndarray      # (M, L) float64, 1 = real position
    dom_ids: np.ndarray        # (M,) int64
    item_ids: np.ndarray       # (M,) int64
    slot_key_ids: np.ndarray   # (M, S) int64
    slot_key_mask: np.ndarray  # (M, S) float64
    slot_val_ids: np.ndarray   # (M, S, V) int64
    slot_val_mask: np.ndarray  # (M, S, V) float64
    window_rows: np.ndarray    # (B, T) int64
    turn_mask: np.ndarray      # (B, T) float64, 1 = real turn
    labels: np.ndarray         # (B,) float64

    def __len__(self) -> int:
        return self.window_rows.shape[0]

    @property
    def pool_size(self) -> int:
        return self.text_ids.shape[0]

    def pool_rows(self, rows) -> "Batch":
        """Pool rows ``rows`` (an index array or a slice) as a batch of their
        own, holding no windows."""
        T = self.window_rows.shape[1]
        return Batch(
            **{name: getattr(self, name)[rows] for name in _POOL_FIELDS},
            window_rows=np.zeros((0, T), dtype=np.int64),
            turn_mask=np.zeros((0, T)),
            labels=np.zeros(0),
        )

    def subset(self, index: np.ndarray) -> "Batch":
        """Windows ``index`` with the turn pool shrunk to the rows they use;
        a pool of distinct contents stays one."""
        rows = self.window_rows[index]
        used, inverse = np.unique(rows, return_inverse=True)
        return replace(
            self.pool_rows(used),
            window_rows=inverse.reshape(rows.shape),
            turn_mask=self.turn_mask[index],
            labels=self.labels[index],
        )


# Every per-turn (pool) array of a Batch; the rest are per window.
_POOL_FIELDS = tuple(
    f.name for f in fields(Batch) if f.name not in ("window_rows", "turn_mask", "labels")
)


def _content_key(turn: DialogueTurn, vocab: Vocabulary, config: PredictorConfig) -> tuple:
    """The ids of ``turn`` that the encoder reads: (text ids, domain id, item
    id, per kept slot (key id, value ids)). Masks follow from the lengths."""
    text = (turn.query + turn.voice_response)[: config.max_text_len]
    text = tuple(vocab.token_id(t) for t in text)
    slots = tuple(
        (vocab.slot_key_id(key), tuple(vocab.token_id(t) for t in value[:MAX_SLOT_VALUE_TOKENS]))
        for key, value in turn.slots[:MAX_SLOTS]
    )
    return text, vocab.domain_id(turn.domain_intent), vocab.item_id(turn.result_item), slots


def _pool_batch(keys: Sequence[tuple], config: PredictorConfig) -> Batch:
    """Pool arrays holding content keys ``keys`` (``_content_key``), one row
    each and in order, as a batch of no windows."""
    # Masks follow from the lengths; boolean-mask assignment then fills the
    # ids in row-major order, the order of the keys.
    m, L = len(keys), config.max_text_len + 1  # one aggregate slot ahead of the text
    n_slots = np.fromiter((len(k[3]) for k in keys), np.int64, m)
    key_mask = (np.arange(MAX_SLOTS) < n_slots[:, None]).astype(np.float64)
    val_len = np.zeros((m, MAX_SLOTS), dtype=np.int64)
    val_len[key_mask > 0] = [len(v) for k in keys for _, v in k[3]]
    val_mask = (np.arange(MAX_SLOT_VALUE_TOKENS) < val_len[..., None]).astype(np.float64)
    text_len = np.fromiter((len(k[0]) for k in keys), np.int64, m)
    text_mask = (np.arange(L) <= text_len[:, None]).astype(np.float64)
    text_ids = np.full((m, L), PAD_ID, dtype=np.int64)
    text_ids[:, 0] = AGG_ID
    text_ids[:, 1:][text_mask[:, 1:] > 0] = [t for k in keys for t in k[0]]
    key_ids = np.zeros(key_mask.shape, dtype=np.int64)
    key_ids[key_mask > 0] = [key for k in keys for key, _ in k[3]]
    val_ids = np.zeros(val_mask.shape, dtype=np.int64)
    val_ids[val_mask > 0] = [t for k in keys for _, v in k[3] for t in v]
    dom_ids = np.fromiter((k[1] for k in keys), np.int64, m)
    item_ids = np.fromiter((k[2] for k in keys), np.int64, m)
    T = config.num_turns
    return Batch(text_ids, text_mask, dom_ids, item_ids, key_ids, key_mask, val_ids, val_mask,
                 window_rows=np.zeros((0, T), dtype=np.int64), turn_mask=np.zeros((0, T)),
                 labels=np.zeros(0))


def _build(
    sessions: Sequence[Sequence[DialogueTurn]], vocab: Vocabulary, config: PredictorConfig
) -> tuple[Batch, np.ndarray]:
    """One window per turn of every session, over a pool holding each distinct
    content key once (in order of first appearance). Returns the batch, with
    zero labels, and each window's turn index within its session."""
    rows: dict[tuple, int] = {}
    # Pool row by the turn fields ``_content_key`` reads, so a turn that
    # repeats them skips its vocabulary lookups; a built corpus shares equal
    # values (``dialog``), which then compare by identity.
    seen: dict[tuple, int] = {}
    turn_rows: list[int] = []
    turn_index: list[int] = []
    for turns in sessions:
        for turn in turns:
            content = (turn.query, turn.voice_response, turn.slots, turn.domain_intent,
                       turn.result_item)
            row = seen.get(content)
            if row is None:
                row = seen[content] = rows.setdefault(_content_key(turn, vocab, config), len(rows))
            turn_rows.append(row)
        turn_index.extend(range(len(turns)))

    # Window slot j holds the turn ``back[j]`` turns before the window's own,
    # when its session has one; padded slots point at row 0.
    turn_rows, turn_index = np.asarray(turn_rows, np.int64), np.asarray(turn_index, np.int64)
    back = np.arange(config.num_turns - 1, -1, -1)
    turn_mask = (turn_index[:, None] >= back).astype(np.float64)
    source = np.maximum(np.arange(len(turn_rows))[:, None] - back, 0)
    window_rows = np.where(turn_mask > 0, turn_rows[source], 0)
    batch = replace(_pool_batch(list(rows), config), window_rows=window_rows,
                    turn_mask=turn_mask, labels=np.zeros(len(turn_rows)))
    return batch, turn_index


def encode_window(
    window: list[DialogueTurn],
    vocab: Vocabulary,
    config: PredictorConfig,
    label: float = 0.0,
) -> Batch:
    """Encode one window (most recent turn last) as a batch of size 1."""
    T = config.num_turns
    if not (1 <= len(window) <= T):
        raise ValueError(f"window must hold between 1 and {T} turns, got {len(window)}")
    batch, _ = _build([window], vocab, config)
    return replace(
        batch,
        window_rows=batch.window_rows[-1:],
        turn_mask=batch.turn_mask[-1:],
        labels=np.asarray([float(label)]),
    )


class WindowDataset:
    """All per-turn windows of a corpus, one window per turn."""

    def __init__(self, batch: Batch, session_index: np.ndarray, turn_index: np.ndarray):
        self.batch = batch
        self.session_index = session_index
        self.turn_index = turn_index

    def __len__(self) -> int:
        return len(self.batch)

    @property
    def labels(self) -> np.ndarray:
        return self.batch.labels

    @classmethod
    def from_sessions(
        cls,
        sessions: list[Session],
        vocab: Vocabulary,
        config: PredictorConfig,
        label_source: str = "weak",
    ) -> "WindowDataset":
        """Build one window per turn. ``label_source`` is "weak", "oracle", or
        "none" (labels zero, for scoring-only datasets)."""
        if label_source not in ("weak", "oracle", "none"):
            raise ValueError(f"unknown label_source {label_source!r}")
        if label_source == "none":
            labels = np.zeros(sum(len(s.turns) for s in sessions))
        else:
            labels = np.asarray([v for s in sessions for v in s.labels(label_source)], np.float64)
        batch, turn_index = _build([s.turns for s in sessions], vocab, config)
        session_index = np.repeat(
            np.arange(len(sessions), dtype=np.int64), [len(s.turns) for s in sessions]
        )
        return cls(replace(batch, labels=labels), session_index, turn_index)
