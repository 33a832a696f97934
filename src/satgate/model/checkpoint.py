"""Self-describing predictor checkpoints with a deterministic byte layout.

Layout: 8-byte magic, u32 format version, u64 header length, JSON header
(config, vocabulary, tensor manifest with offsets), then the raw little-endian
float64 tensor bytes in manifest order. Identical contents serialize to
identical bytes.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .config import PredictorConfig
from .vocab import Vocabulary

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError"]

_MAGIC = b"SATGCKPT"
_VERSION = 1
_PREFIX = struct.Struct("<IQ")  # format version, header length


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, config: PredictorConfig, vocab: Vocabulary, params: dict) -> None:
    names = sorted(params)
    manifest = []
    offset = 0
    blobs = []
    for name in names:
        arr = np.asarray(params[name], dtype=np.float64)
        blob = arr.tobytes()  # C-order bytes; preserves 0-d shapes
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(blob)
        offset += len(blob)
    header = json.dumps(
        {
            "config": config.to_dict(),
            "vocab": vocab.to_dict(),
            "tensors": manifest,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(_PREFIX.pack(_VERSION, len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path) -> tuple[PredictorConfig, Vocabulary, dict]:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise CheckpointError(f"not a predictor checkpoint: bad magic {magic!r}")
        prefix = fh.read(_PREFIX.size)
        if len(prefix) < _PREFIX.size:
            raise CheckpointError("truncated checkpoint: file ends before the header length")
        version, header_len = _PREFIX.unpack(prefix)
        if version != _VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        raw_header = fh.read(header_len)
        if len(raw_header) < header_len:
            raise CheckpointError(
                f"truncated checkpoint: header holds {len(raw_header)} of {header_len} bytes"
            )
        payload = fh.read()
    try:
        header = json.loads(raw_header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
    config = PredictorConfig.from_dict(header["config"])
    vocab = Vocabulary.from_dict(header["vocab"])
    params = {}
    for entry in header["tensors"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset"]
        end = start + 8 * count
        if end > len(payload):
            raise CheckpointError(
                f"truncated checkpoint: tensor {entry['name']!r} needs payload bytes "
                f"{start}..{end}, but the payload holds {len(payload)}"
            )
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=start)
        params[entry["name"]] = arr.reshape(shape).copy()
    return config, vocab, params
