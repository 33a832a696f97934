"""Self-describing predictor checkpoints with a deterministic byte layout,
served from a read-only mapping of the file.

Layout (format 5): 8-byte magic, u32 format version (5), u64 header length,
a JSON header holding exactly ``config`` and ``vocab``, padded with spaces
so that the payload starts at a multiple of 64 bytes, then the payload: the
tensors of ``net.param_shapes(config, vocab)`` in name order, each of the
shape ``param_shapes`` gives it, in C order as little-endian float64, end to
end, up to the end of the file. The config and vocabulary thus fix every
tensor's place, and the header lists none. Identical contents serialize to
identical bytes. Any other version is a ``CheckpointError`` that names it:
version 4 (this payload after a header that also listed every tensor's name,
shape and offset) and version 3 (version 4 without the padding) included.

``load_checkpoint`` maps a regular file read-only and views the payload in
place: the weights are never copied, and every process that loads the same
file shares one copy of them through the page cache. Anything else, such as
a pipe or a device, is a ``CheckpointError``. ``save_checkpoint`` writes a
new file and renames it over the old one, so that a rewrite never changes
the bytes under a live mapping.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import mmap
import os
import secrets
import stat
import struct

import numpy as np

from .config import PredictorConfig
from .net import LoadedParams, flat_views, param_shapes
from .vocab import Vocabulary

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError"]

_MAGIC = b"SATGCKPT"
_VERSION = 5
_PREFIX = struct.Struct("<IQ")  # format version, header length
_HEADER_START = len(_MAGIC) + _PREFIX.size
# The payload starts at a multiple of this many bytes, a cache line: an
# unaligned payload slows every product over the mapped weights.
_ALIGN = 64
_CONFIG_FIELDS = tuple(field.name for field in dataclasses.fields(PredictorConfig))


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, config: PredictorConfig, vocab: Vocabulary, params: dict) -> None:
    """Write ``params``, exactly the tensors of ``param_shapes(config,
    vocab)``: a missing, extra or reshaped tensor is a ``CheckpointError``
    that names it, raised before any file is created, since a load could not
    tell a transposed tensor of the right size from the right one."""
    shapes = _layout(config, vocab)
    found = {name: np.shape(value) for name, value in params.items()}
    if found != shapes:
        name = min(name for name in shapes.keys() | found.keys()
                   if found.get(name) != shapes.get(name))
        raise CheckpointError(
            f"tensor {name!r} does not match the parameter set: shape "
            f"{found.get(name, 'absent')}, expected {shapes.get(name, 'absent')}"
        )
    header = json.dumps(
        {"config": config.to_dict(), "vocab": vocab.to_dict()},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    header += b" " * (-(_HEADER_START + len(header)) % _ALIGN)
    # C-order bytes; tobytes preserves 0-d shapes.
    blobs = [np.asarray(params[name], dtype="<f8").tobytes() for name in shapes]
    _replace_file(path, [_MAGIC, _PREFIX.pack(_VERSION, len(header)), header, *blobs])


def _layout(config: PredictorConfig, vocab: Vocabulary) -> dict:
    """Name to shape of every tensor of the payload, in payload order."""
    return dict(sorted(param_shapes(config, vocab).items()))


def _replace_file(path, chunks) -> None:
    """Write ``chunks`` to a new file in ``path``'s directory and rename it
    over ``path``. A process that mapped the old file keeps its old bytes,
    where truncating that file in place would fault in the process (SIGBUS).
    The file gets the mode ``open(path, "wb")`` gives it: the mode of the
    file it replaces, else 0o666 less the umask."""
    path = os.fspath(path)
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    # O_BINARY: no newline translation on Windows.
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.writelines(chunks)
        if mode is not None:
            os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> tuple[PredictorConfig, Vocabulary, LoadedParams]:
    """Config, vocabulary and parameters: views into one flat vector in
    payload order (``flat_views``), laid out as the parsed config and
    vocabulary define. An unknown header field is a ``CheckpointError`` that
    names it, and so is a payload of another length: a short one names the
    first tensor that it ends in.

    ``path`` must name a regular file; anything else is a
    ``CheckpointError`` that names it. The file's size (one ``os.fstat``)
    bounds what its header may claim, so a file too short for its header or
    tensors fails before anything of the claimed size is read or mapped.
    Then the file is mapped read-only, and the flat vector is the mapped
    payload itself: loading copies no weights, and processes that serve one
    file share its pages. Rewrite a loaded file only with
    ``save_checkpoint``, which replaces it; truncating it in place would
    fault in every process that maps it.

    The parameters come as a read-only mapping (``net.LoadedParams``) over
    read-only views: an entry cannot be replaced, and an in-place write
    raises ``ValueError``. Loaded weights thus cannot change under
    ``net.forward``, which keeps the turn embeddings of the model's previous
    window on the mapping; ``train`` copies them into a vector of its own."""
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            raise CheckpointError(f"checkpoint {os.fsdecode(path)!r} is not a regular file")
        size = info.st_size
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise CheckpointError(f"not a predictor checkpoint: bad magic {magic!r}")
        prefix = fh.read(_PREFIX.size)
        if len(prefix) < _PREFIX.size:
            raise CheckpointError("truncated checkpoint: file ends before the header length")
        version, header_len = _PREFIX.unpack(prefix)
        if version != _VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        raw_header = fh.read(min(header_len, size - _HEADER_START))
        if len(raw_header) < header_len:
            raise CheckpointError(
                f"truncated checkpoint: header holds {len(raw_header)} of {header_len} bytes"
            )
        config, vocab = _parse_header(raw_header)
        shapes = _layout(config, vocab)
        end = 8 * sum(map(math.prod, shapes.values()))
        payload_start = _HEADER_START + header_len
        if size - payload_start != end:
            _raise_bad_length(shapes, end, size - payload_start)
        mapped = mmap.mmap(fh.fileno(), size, access=mmap.ACCESS_READ)
        flat = np.frombuffer(mapped, "<f8", end // 8, payload_start)
    _, params = flat_views(shapes, flat)
    return config, vocab, LoadedParams(params)


def _raise_bad_length(shapes: dict, end: int, got: int) -> None:
    """Raise the CheckpointError for a payload of ``got`` bytes, not ``end``;
    a short one names the first tensor of ``shapes`` that ends past it."""
    if got > end:
        raise CheckpointError(f"checkpoint payload runs past the {end} bytes of its tensors")
    start = 0
    for name, shape in shapes.items():
        stop = start + 8 * math.prod(shape)
        if stop > got:
            raise CheckpointError(
                f"truncated checkpoint: tensor {name!r} needs payload bytes "
                f"{start}..{stop}, but the payload holds {got}"
            )
        start = stop


def _parse_header(raw_header: bytes) -> tuple[PredictorConfig, Vocabulary]:
    """(config, vocab) from the JSON header. A missing, unknown or wrongly
    typed field is a CheckpointError that names it."""
    try:
        header = json.loads(raw_header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError("corrupt checkpoint header: not a JSON object")
    unknown = sorted(header.keys() - {"config", "vocab"})
    if unknown:
        raise CheckpointError(f"corrupt checkpoint header: unknown field {unknown[0]!r}")
    config = _header_field(header, "config", _parse_config)
    vocab = _header_field(header, "vocab", Vocabulary.from_dict)
    return config, vocab


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


def _parse_config(entry) -> PredictorConfig:
    """The config a checkpoint saved: every field must be present, because a
    missing one would take its default and could change the model unseen."""
    if type(entry) is not dict:
        raise TypeError("not a JSON object")
    for name in _CONFIG_FIELDS:
        if name not in entry:
            raise KeyError(name)
    return PredictorConfig.from_dict(entry)
