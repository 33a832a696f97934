"""Transformer-based turn satisfaction predictor (float64 numpy)."""

from .config import PredictorConfig, DEPLOYED_CONFIG, DESK_CONFIG, TINY_CONFIG
from .vocab import Vocabulary, PAD_ID, OOV_ID, AGG_ID
from .data import Batch, WindowDataset, encode_window
from .net import (
    attend_turns,
    backward,
    flat_views,
    forward,
    forward_batch,
    init_params,
    loss,
    loss_and_grad_batch,
    predict_scores,
)
from .checkpoint import save_checkpoint, load_checkpoint, CheckpointError

__all__ = [
    "PredictorConfig",
    "DEPLOYED_CONFIG",
    "DESK_CONFIG",
    "TINY_CONFIG",
    "Vocabulary",
    "PAD_ID",
    "OOV_ID",
    "AGG_ID",
    "Batch",
    "WindowDataset",
    "encode_window",
    "attend_turns",
    "backward",
    "flat_views",
    "forward",
    "forward_batch",
    "init_params",
    "loss",
    "loss_and_grad_batch",
    "predict_scores",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
]
