"""Self-describing predictor checkpoints with a deterministic byte layout.

Layout: 8-byte magic, u32 format version (3), u64 header length, JSON header
(config, vocabulary, tensor manifest with offsets), then the raw little-endian
float64 tensor bytes in manifest order, each tensor starting where the one
before it ends. Identical contents serialize to identical bytes. Version 3
dropped ``attention_scale`` from the header's config; files of any other
version are rejected with a ``CheckpointError`` that names it.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .config import PredictorConfig
from .net import LoadedParams, flat_views, param_shapes
from .vocab import Vocabulary

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError"]

_MAGIC = b"SATGCKPT"
_VERSION = 3
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


def load_checkpoint(path) -> tuple[PredictorConfig, Vocabulary, LoadedParams]:
    """Config, vocabulary and parameters. The payload is read straight into
    one flat vector, and the parameters are views into it in the file's
    tensor order (``flat_views``); a tensor that does not start where the
    one before it ends, or that the file ends inside, is a ``CheckpointError``.

    The parameters come as a read-only mapping (``net.LoadedParams``) over
    read-only views: an entry cannot be replaced, and an in-place write
    raises ``ValueError``. Loaded weights thus cannot change under
    ``net.forward``, which keeps the turn embeddings of the model's previous
    window on the mapping; ``train`` copies them into a vector of its own."""
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
        config, vocab, tensors = _parse_header(raw_header)
        end = 0
        for name, shape, start in tensors:
            if start != end:
                raise CheckpointError(
                    f"corrupt checkpoint header: tensor {name!r} starts at payload byte "
                    f"{start}, but the tensors before it end at byte {end}"
                )
            end = start + 8 * math.prod(shape)
        flat = np.empty(end // 8, dtype="<f8")
        got = fh.readinto(flat)
    for name, shape, start in tensors:
        stop = start + 8 * math.prod(shape)
        if stop > got:
            raise CheckpointError(
                f"truncated checkpoint: tensor {name!r} needs payload bytes "
                f"{start}..{stop}, but the payload holds {got}"
            )
    flat.flags.writeable = False
    _, params = flat_views({name: shape for name, shape, _ in tensors}, flat)
    return config, vocab, LoadedParams(params)


def _parse_header(raw_header: bytes):
    """(config, vocab, [(name, shape, offset)]) from the JSON header, with the
    tensors checked against the parameter set the config and vocab define."""
    try:
        header = json.loads(raw_header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError("corrupt checkpoint header: not a JSON object")
    config = _header_field(header, "config", PredictorConfig.from_dict)
    vocab = _header_field(header, "vocab", Vocabulary.from_dict)
    tensors = _header_field(
        header, "tensors",
        lambda entries: [(e["name"], tuple(e["shape"]), int(e["offset"])) for e in entries],
    )
    expected = param_shapes(config, vocab)
    found = {name: shape for name, shape, _ in tensors}
    for name in sorted(expected.keys() | found.keys()):
        if found.get(name) != expected.get(name):
            raise CheckpointError(
                f"tensor {name!r} does not match the parameter set: checkpoint shape "
                f"{found.get(name, 'absent')}, expected {expected.get(name, 'absent')}"
            )
    return config, vocab, tensors


def _header_field(header: dict, field: str, parse):
    """``parse(header[field])``, with a missing or malformed field raised as a
    CheckpointError that names it."""
    if field not in header:
        raise CheckpointError(f"corrupt checkpoint header: no {field!r}")
    try:
        return parse(header[field])
    except KeyError as exc:
        raise CheckpointError(f"corrupt checkpoint header: {field!r} lacks {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: bad {field!r}: {exc}") from exc
