"""Self-describing predictor checkpoints with a deterministic byte layout,
served from a read-only mapping of the file.

Layout (format 4): 8-byte magic, u32 format version (4), u64 header length,
JSON header (config, vocabulary, tensor manifest with offsets), padded with
spaces so that the payload starts at a multiple of 64 bytes, then the raw
little-endian float64 tensor bytes in manifest order, each tensor starting
where the one before it ends. Identical contents serialize to identical
bytes. Files of any other version, version 3 (the same layout without the
padding) included, are rejected with a ``CheckpointError`` that names it.

``load_checkpoint`` maps a regular file read-only and views the payload in
place: the weights are never copied, and every process that loads the same
file shares one copy of them through the page cache. A stream (a pipe) is
read into one vector instead. ``save_checkpoint`` writes a new file and
renames it over the old one, so that a rewrite never changes the bytes under
a live mapping.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
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
_VERSION = 4
_PREFIX = struct.Struct("<IQ")  # format version, header length
_HEADER_START = len(_MAGIC) + _PREFIX.size
# The payload starts at a multiple of this many bytes, a cache line: an
# unaligned payload slows every product over the mapped weights.
_ALIGN = 64
# A stream's header is read at most this many bytes at a time, so a stream
# that claims a huge header and then ends costs one chunk, not the claim.
_READ_CHUNK = 1 << 20
_CONFIG_FIELDS = tuple(field.name for field in dataclasses.fields(PredictorConfig))


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
    header += b" " * (-(_HEADER_START + len(header)) % _ALIGN)
    _replace_file(path, [_MAGIC, _PREFIX.pack(_VERSION, len(header)), header, *blobs])


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
    """Config, vocabulary and parameters. The parameters are views into one
    flat vector in the file's tensor order (``flat_views``); a tensor that
    does not start where the one before it ends, or that the file ends
    inside, is a ``CheckpointError``.

    A regular file is checked first: its size (one ``os.fstat``) bounds what
    its header may claim, so a file too short for its header or tensors
    fails before anything of the claimed size is read or mapped. Then the
    file is mapped read-only, and the flat vector is the mapped payload
    itself: loading copies no weights, and processes that serve one file
    share its pages. Rewrite a loaded file only with ``save_checkpoint``,
    which replaces it; truncating it in place would fault in every process
    that maps it. A stream (a pipe) reports no size; its header is read in
    bounded chunks and its payload into one vector, checked by what arrived.

    The parameters come as a read-only mapping (``net.LoadedParams``) over
    read-only views: an entry cannot be replaced, and an in-place write
    raises ``ValueError``. Loaded weights thus cannot change under
    ``net.forward``, which keeps the turn embeddings of the model's previous
    window on the mapping; ``train`` copies them into a vector of its own."""
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        regular = stat.S_ISREG(info.st_mode)
        size = info.st_size if regular else math.inf
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise CheckpointError(f"not a predictor checkpoint: bad magic {magic!r}")
        prefix = fh.read(_PREFIX.size)
        if len(prefix) < _PREFIX.size:
            raise CheckpointError("truncated checkpoint: file ends before the header length")
        version, header_len = _PREFIX.unpack(prefix)
        if version != _VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        raw_header = _read_up_to(fh, min(header_len, size - _HEADER_START))
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
        payload_start = _HEADER_START + header_len
        room = size - payload_start  # the payload a regular file holds
        if room < end:
            _raise_truncated(tensors, room)
        if regular:
            mapped = mmap.mmap(fh.fileno(), payload_start + end, access=mmap.ACCESS_READ)
            flat = np.frombuffer(mapped, "<f8", end // 8, payload_start)
        else:
            flat = np.empty(end // 8, dtype="<f8")
            got = fh.readinto(flat)
            if got < end:
                _raise_truncated(tensors, got)
            flat.flags.writeable = False
    _, params = flat_views({name: shape for name, shape, _ in tensors}, flat)
    return config, vocab, LoadedParams(params)


def _read_up_to(fh, n: int) -> bytes:
    """The next ``n`` bytes of ``fh``, fewer only where it ends, read at most
    ``_READ_CHUNK`` bytes at a time."""
    chunks = []
    while n > 0:
        chunk = fh.read(min(n, _READ_CHUNK))
        if not chunk:
            break
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _raise_truncated(tensors, got) -> None:
    """Raise the CheckpointError that names the first tensor ending past
    payload byte ``got``."""
    for name, shape, start in tensors:
        stop = start + 8 * math.prod(shape)
        if stop > got:
            raise CheckpointError(
                f"truncated checkpoint: tensor {name!r} needs payload bytes "
                f"{start}..{stop}, but the payload holds {got}"
            )


def _parse_header(raw_header: bytes):
    """(config, vocab, [(name, shape, offset)]) from the JSON header, with the
    tensors checked against the parameter set the config and vocab define. A
    missing or wrongly typed field, or a tensor listed twice, is a
    CheckpointError that names it."""
    try:
        header = json.loads(raw_header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError("corrupt checkpoint header: not a JSON object")
    config = _header_field(header, "config", _parse_config)
    vocab = _header_field(header, "vocab", Vocabulary.from_dict)
    tensors = _header_field(header, "tensors", _parse_tensors)
    expected = param_shapes(config, vocab)
    found = {name: shape for name, shape, _ in tensors}
    if len(found) < len(tensors):
        names = [name for name, _, _ in tensors]
        twice = next(name for name in names if names.count(name) > 1)
        raise CheckpointError(f"corrupt checkpoint header: tensor {twice!r} is listed twice")
    if found != expected:
        name = min(name for name in expected.keys() | found.keys()
                   if found.get(name) != expected.get(name))
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


def _parse_config(entry) -> PredictorConfig:
    """The config a checkpoint saved: every field must be present, because a
    missing one would take its default and could change the model unseen."""
    if type(entry) is not dict:
        raise TypeError("not a JSON object")
    for name in _CONFIG_FIELDS:
        if name not in entry:
            raise KeyError(name)
    return PredictorConfig.from_dict(entry)


def _parse_tensors(entries) -> list[tuple[str, tuple[int, ...], int]]:
    """(name, shape, offset) of each manifest entry: a string name, and JSON
    integers (not booleans, floats or strings) for the shape and offset.

    Loading a desk checkpoint takes about 0.25 ms, most of it the header
    parse, so the types are checked over the whole manifest at once, at C
    speed; only a failed check walks the entries to name the first wrong
    one."""
    names = [entry["name"] for entry in entries]
    shapes = [entry["shape"] for entry in entries]
    offsets = [entry["offset"] for entry in entries]
    if not (_all_of(str, names) and _all_of(list, shapes)
            and _all_of(int, itertools.chain(offsets, *shapes))):
        for name, shape, offset in zip(names, shapes, offsets):
            if type(name) is not str:
                raise ValueError(f"tensor name {name!r} is not a string")
            if type(shape) is not list or not _all_of(int, shape):
                raise ValueError(f"tensor {name!r} has shape {shape!r}, not a list of integers")
            if type(offset) is not int:
                raise ValueError(f"tensor {name!r} has offset {offset!r}, not an integer")
    return list(zip(names, map(tuple, shapes), offsets))


def _all_of(kind: type, values) -> bool:
    """Whether every value is exactly of type ``kind`` (no subclass, so a
    boolean is not an int)."""
    return {kind}.issuperset(map(type, values))
