"""Adam training loop with large-batch / small-batch presets and label-noise
injection for robustness experiments."""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from ._allocator import keep_working_memory_mapped
from .metrics import auc
from .model import (
    PredictorConfig,
    WindowDataset,
    flat_views,
    loss_and_grad_batch,
    predict_scores,
)

__all__ = [
    "TrainConfig",
    "TrainResult",
    "TraceRow",
    "BATCH_PRESETS",
    "adam_update",
    "inject_label_noise",
    "train",
]

# (batch size, learning rate): the deployed model's settings and desk-scale
# counterparts. Both deployed pairs sit on lr = 1e-6 * batch; the desk pairs
# keep that per-sample step size so the regimes differ only in how much
# gradient noise each step averages away.
BATCH_PRESETS: dict[str, tuple[int, float]] = {
    "deployed-lb": (12000, 0.012),
    "deployed-sb": (1024, 0.001),
    "desk-lb": (4096, 0.0041),
    "desk-sb": (64, 6.4e-5),
}

# Adam's moment decay rates and denominator floor.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 4096
    learning_rate: float = 0.0041
    epochs: int = 5
    seed: int = 0
    eval_every: int = 1
    label_noise_rate: float = 0.0

    def __post_init__(self):
        for name in ("batch_size", "epochs", "eval_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and non-negative, got {self.learning_rate!r}")
        if not (0.0 <= self.label_noise_rate <= 1.0):
            raise ValueError("label_noise_rate must lie in [0, 1]")

    @classmethod
    def from_preset(cls, name: str, **overrides) -> "TrainConfig":
        """The preset's batch size and learning rate, unless ``overrides`` set them."""
        if name not in BATCH_PRESETS:
            raise ValueError(f"unknown batch_preset {name!r}; known presets: {', '.join(BATCH_PRESETS)}")
        batch_size, lr = BATCH_PRESETS[name]
        return cls(**{"batch_size": batch_size, "learning_rate": lr, **overrides})

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TraceRow:
    epoch: int
    step: int
    train_loss: Optional[float]
    val_auc: Optional[float]


@dataclass
class TrainResult:
    params: dict                 # best validation AUC (final params if no validation)
    final_params: dict
    trace: list[TraceRow]
    best_val_auc: Optional[float]
    best_epoch: Optional[int]


def inject_label_noise(labels, rate: float, seed: int) -> np.ndarray:
    """Replace exactly round(rate * N) labels by 1 - label, positions chosen by
    a seeded permutation. Flips hard labels; mirrors soft ones."""
    if not (0.0 <= rate <= 1.0):
        raise ValueError("rate must lie in [0, 1]")
    y = np.asarray(labels, dtype=np.float64).copy()
    n_mod = int(round(rate * len(y)))
    if n_mod:
        positions = np.random.default_rng([seed, 0x5EED]).permutation(len(y))[:n_mod]
        y[positions] = 1.0 - y[positions]
    return y


def _binary_labels(labels: np.ndarray) -> np.ndarray:
    return (np.asarray(labels) >= 0.5).astype(np.int64)


def adam_update(params: np.ndarray, grads: np.ndarray, m: np.ndarray, v: np.ndarray,
                t: int, tconfig: TrainConfig) -> None:
    """One bias-corrected Adam step over flat float64 vectors, in place. ``t``
    counts from 1."""
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grads
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (grads * grads)
    params -= tconfig.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def _session_shuffled_order(session_of_window: np.ndarray, rng) -> np.ndarray:
    """Windows in seeded-permuted session order, each session's windows kept
    contiguous so overlapping windows keep sharing turn encodings."""
    counts = np.bincount(session_of_window)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    perm = rng.permutation(len(counts))
    return np.concatenate(
        [np.arange(starts[s], starts[s] + counts[s]) for s in perm if counts[s]]
    )


def train(
    params: dict,
    config: PredictorConfig,
    train_ds: WindowDataset,
    val_ds: Optional[WindowDataset],
    tconfig: TrainConfig,
) -> TrainResult:
    """Train on (possibly soft) labels; track validation AUC per epoch.

    Deterministic given (initial params, data, tconfig.seed): each epoch
    draws a corpus-level session permutation from the seeded stream, and
    per-window gradients are summed in fixed index order regardless of the
    micro-batch size. Raises on a non-finite loss, naming the offending
    batch.

    Parameters, the gradient and Adam's two moments each live in one flat
    float64 vector; the returned parameter dicts are views into such vectors.
    On glibc, the first thing a call does is raise the allocator's mmap and
    trim thresholds (``keep_working_memory_mapped``), so that steps reuse
    their working memory instead of faulting it in again; the setting
    persists for the rest of the process.
    """
    keep_working_memory_mapped()
    n = len(train_ds)
    val_batch = val_ds.batch if val_ds is not None else None
    if n == 0 or (val_batch is not None and len(val_batch) == 0):
        raise ValueError("training and validation corpora must be non-empty")

    shapes = {k: np.shape(p) for k, p in params.items()}
    flat, views = flat_views(shapes)
    for k, p in params.items():
        views[k][...] = p
    params = views
    labels = train_ds.batch.labels
    if tconfig.label_noise_rate > 0:
        labels = inject_label_noise(labels, tconfig.label_noise_rate, tconfig.seed)
    batch = replace(train_ds.batch, labels=labels)

    rng = np.random.default_rng([tconfig.seed, 0xA11])
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    grad_buffer = np.empty_like(flat)
    t = 0
    trace: list[TraceRow] = []
    best_auc = None
    best_epoch = None
    best_flat = flat.copy()
    val_labels = _binary_labels(val_batch.labels) if val_batch is not None else None

    for epoch in range(1, tconfig.epochs + 1):
        order = _session_shuffled_order(train_ds.session_index, rng)
        for bi, start in enumerate(range(0, n, tconfig.batch_size)):
            idx = order[start : start + tconfig.batch_size]
            batch_loss, _, _ = loss_and_grad_batch(params, config, batch.subset(idx),
                                                   out=grad_buffer)
            if not math.isfinite(batch_loss):
                raise RuntimeError(
                    f"non-finite training loss at epoch {epoch}, batch {bi}"
                )
            t += 1
            adam_update(flat, grad_buffer, m, v, t, tconfig)
            trace.append(TraceRow(epoch=epoch, step=t, train_loss=batch_loss, val_auc=None))

        if val_batch is not None and (
            epoch % tconfig.eval_every == 0 or epoch == tconfig.epochs
        ):
            scores = predict_scores(params, config, val_batch)
            epoch_auc = auc(scores, val_labels)
            trace.append(TraceRow(epoch=epoch, step=t, train_loss=None, val_auc=epoch_auc))
            if best_auc is None or epoch_auc > best_auc:
                best_auc = epoch_auc
                best_epoch = epoch
                best_flat = flat.copy()

    if val_batch is None:
        best_flat = flat.copy()
    return TrainResult(
        params=flat_views(shapes, best_flat)[1],
        final_params=params,
        trace=trace,
        best_val_auc=best_auc,
        best_epoch=best_epoch,
    )

