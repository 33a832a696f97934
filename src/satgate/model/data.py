"""Encoding of sessions into padded id arrays and per-turn prediction windows.

Turns are stored once in flat arrays; a window is a row of indices into them
(the turn itself plus up to ``num_turns - 1`` predecessors, front-padded and
masked when the history is shorter). Consecutive windows of a session share
turn rows, so the per-turn encoder runs once per turn, not once per window
slot.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

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

    def pool_rows(self, rows: np.ndarray) -> "Batch":
        """Pool rows ``rows`` as a batch of their own, holding no windows."""
        T = self.window_rows.shape[1]
        return Batch(
            **{name: getattr(self, name)[rows] for name in _POOL_FIELDS},
            window_rows=np.zeros((0, T), dtype=np.int64),
            turn_mask=np.zeros((0, T)),
            labels=np.zeros(0),
        )

    def subset(self, index: np.ndarray) -> "Batch":
        """Windows ``index`` with the turn pool shrunk to the rows they use."""
        rows = self.window_rows[index]
        used, inverse = np.unique(rows, return_inverse=True)
        return replace(
            self.pool_rows(used),
            window_rows=inverse.reshape(rows.shape),
            turn_mask=self.turn_mask[index],
            labels=self.labels[index],
        )

    def content_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """Pool rows grouped by content: ``(first, inverse)``, where ``first``
        holds one pool row per distinct content and ``inverse[r]`` is the
        position in ``first`` of row ``r``'s content.

        A row's content is every per-turn array the turn encoder reads, so rows
        of one content encode to the same embedding. The key is built from
        each array in the narrowest exact integer type, which keeps it a small
        fraction of the pool's own size.
        """
        key = np.concatenate(
            [
                np.ascontiguousarray(_narrowest(getattr(self, name)))
                .reshape(self.pool_size, -1)
                .view(np.uint8)
                for name in _POOL_FIELDS
            ],
            axis=1,
        )
        rows = key.view(np.dtype((np.void, key.shape[1]))).ravel()
        _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
        return first, inverse


# Every per-turn (pool) array of a Batch; the rest are per window.
_POOL_FIELDS = tuple(
    f.name for f in fields(Batch) if f.name not in ("window_rows", "turn_mask", "labels")
)


def _narrowest(a: np.ndarray) -> np.ndarray:
    """``a`` in the narrowest of uint8, uint16 and int32 that holds each of
    its values exactly (masks are 0/1, ids are small), else unchanged."""
    with np.errstate(invalid="ignore"):  # out-of-range float casts; caught below
        for dtype in (np.uint8, np.uint16, np.int32):
            narrow = a.astype(dtype)
            if np.array_equal(narrow, a):
                return narrow
    return a


def _encode_turn_into(arrays, row, turn: DialogueTurn, vocab: Vocabulary, config: PredictorConfig):
    if len(turn.query) == 0:
        raise ValueError("cannot encode a turn with an empty query")
    text_ids, text_mask, dom_ids, item_ids, key_ids, key_mask, val_ids, val_mask = arrays
    text_ids[row, 0] = AGG_ID
    text_mask[row, 0] = 1.0
    text = [vocab.token_id(t) for t in turn.query + turn.voice_response]
    text = text[: config.max_text_len]
    text_ids[row, 1 : 1 + len(text)] = text
    text_mask[row, 1 : 1 + len(text)] = 1.0
    dom_ids[row] = vocab.domain_id(turn.domain_intent)
    item_ids[row] = vocab.item_id(turn.result_item)
    for s, (key, value) in enumerate(turn.slots[:MAX_SLOTS]):
        key_ids[row, s] = vocab.slot_key_id(key)
        key_mask[row, s] = 1.0
        vtoks = [vocab.token_id(t) for t in value[:MAX_SLOT_VALUE_TOKENS]]
        val_ids[row, s, : len(vtoks)] = vtoks
        val_mask[row, s, : len(vtoks)] = 1.0


def _alloc_turn_arrays(m: int, config: PredictorConfig):
    L = config.max_text_len + 1  # one aggregate slot ahead of the text budget
    return (
        np.full((m, L), PAD_ID, dtype=np.int64),
        np.zeros((m, L)),
        np.zeros(m, dtype=np.int64),
        np.zeros(m, dtype=np.int64),
        np.zeros((m, MAX_SLOTS), dtype=np.int64),
        np.zeros((m, MAX_SLOTS)),
        np.zeros((m, MAX_SLOTS, MAX_SLOT_VALUE_TOKENS), dtype=np.int64),
        np.zeros((m, MAX_SLOTS, MAX_SLOT_VALUE_TOKENS)),
    )


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
    arrays = _alloc_turn_arrays(len(window), config)
    for row, turn in enumerate(window):
        _encode_turn_into(arrays, row, turn, vocab, config)
    offset = T - len(window)
    window_rows = np.zeros((1, T), dtype=np.int64)
    turn_mask = np.zeros((1, T))
    window_rows[0, offset:] = np.arange(len(window))
    turn_mask[0, offset:] = 1.0
    return Batch(
        *arrays,
        window_rows=window_rows,
        turn_mask=turn_mask,
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
        T = config.num_turns
        n = sum(len(s.turns) for s in sessions)
        arrays = _alloc_turn_arrays(n, config)
        window_rows = np.zeros((n, T), dtype=np.int64)
        turn_mask = np.zeros((n, T))
        labels = np.zeros(n)
        session_index = np.zeros(n, dtype=np.int64)
        turn_index = np.zeros(n, dtype=np.int64)

        row = 0
        for si, session in enumerate(sessions):
            if label_source == "weak" and session.weak_labels is None:
                raise ValueError(f"session {session.session_id} has no weak labels")
            if label_source == "oracle" and session.oracle_satisfaction is None:
                raise ValueError(f"session {session.session_id} has no oracle labels")
            first = row
            for ti in range(len(session.turns)):
                _encode_turn_into(arrays, row, session.turns[ti], vocab, config)
                start = max(0, ti - T + 1)
                width = ti - start + 1
                window_rows[row, T - width :] = np.arange(first + start, first + ti + 1)
                turn_mask[row, T - width :] = 1.0
                if label_source == "weak":
                    labels[row] = session.weak_labels[ti]
                elif label_source == "oracle":
                    labels[row] = float(session.oracle_satisfaction[ti])
                session_index[row] = si
                turn_index[row] = ti
                row += 1
        batch = Batch(
            *arrays, window_rows=window_rows, turn_mask=turn_mask, labels=labels
        )
        return cls(batch, session_index, turn_index)
