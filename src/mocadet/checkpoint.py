"""Checkpoint file format.

Single file: magic ``MDCKPT1\\n``, a little-endian uint64 header length, a
JSON header, then one raw little-endian float32 blob. The header carries
the run config echo, phase, step, seeds, the parameter ordering table
(name, shape, element offset) and ``blob_sha256``, the sha256 hex of the
blob, so identical bytes mean identical model. The loader checks the blob
against ``blob_sha256`` before it decodes a parameter; a header without
the key was written before it existed, and its blob is not checked.
Parameters are float64 in memory; storage rounds to float32. A save
replaces the file atomically.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import CheckpointError
from .fileio import atomic_write, blob_sha256, check_blob, make_dirs

_MAGIC = b"MDCKPT1\n"


def save_checkpoint(path, named_params, config_json: dict, phase: str,
                    step: int, seeds: dict | None = None) -> None:
    table = []
    blobs = []
    offset = 0
    for name, p in named_params:
        arr = np.asarray(p.data, dtype="<f4")
        table.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(arr.tobytes())
        offset += arr.size
    blob = b"".join(blobs)
    header = {
        "blob_sha256": blob_sha256(blob),
        "format": "mocadet-checkpoint-v1",
        "phase": phase,
        "step": int(step),
        "seeds": seeds or {},
        "config": config_json,
        "params": table,
    }
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    make_dirs(os.path.dirname(os.path.abspath(path)))
    with atomic_write(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(np.uint64(len(payload)).tobytes())
        fh.write(payload)
        fh.write(blob)


def _valid_entry(entry) -> bool:
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(s) is int and s >= 0 for s in entry["shape"])
            and type(entry.get("offset")) is int and entry["offset"] >= 0)


def load_checkpoint(path):
    """Returns (header dict, {param name: float64 array}).

    Any file that is not a well-formed checkpoint raises CheckpointError:
    a blob that differs from its ``blob_sha256``, and a NaN or Inf in a
    stored parameter, which is named.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    if not data.startswith(_MAGIC):
        raise CheckpointError(f"{path}: bad checkpoint magic")
    start = len(_MAGIC) + 8
    length = int.from_bytes(data[len(_MAGIC):start], "little")
    if len(data) < start or length > len(data) - start:
        raise CheckpointError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(data[start:start + length].decode("utf-8"))
    except ValueError as e:  # bad UTF-8 or bad JSON
        raise CheckpointError(f"{path}: unreadable checkpoint header: {e}") from e
    if not isinstance(header, dict) or header.get("format") != "mocadet-checkpoint-v1":
        raise CheckpointError(f"{path}: unknown checkpoint format")
    table = header.get("params")
    if not isinstance(table, list) or not all(_valid_entry(e) for e in table):
        raise CheckpointError(f"{path}: malformed parameter table")
    if "blob_sha256" in header:
        check_blob(memoryview(data)[start + length:], header["blob_sha256"],
                   CheckpointError, path)
    if (len(data) - start - length) % 4:
        raise CheckpointError(f"{path}: truncated parameter blob")
    blob = np.frombuffer(data, dtype="<f4", offset=start + length)
    finite = bool(np.isfinite(blob).all())
    params = {}
    for entry in table:
        size = math.prod(entry["shape"])
        chunk = blob[entry["offset"]:entry["offset"] + size]
        if chunk.size != size:
            raise CheckpointError(f"{path}: truncated parameter {entry['name']!r}")
        if not finite and not np.isfinite(chunk).all():
            raise CheckpointError(f"{path}: parameter {entry['name']!r} holds a NaN or Inf")
        params[entry["name"]] = chunk.astype(np.float64).reshape(entry["shape"])
    return header, params


def restore_params(named_params, stored: dict, *, allow_extra: bool = True) -> None:
    """Copy stored arrays into live parameters, matching by name.

    Every live parameter must be present with the right shape; extra stored
    entries (e.g. a pretraining-only head) are ignored when ``allow_extra``.
    """
    names = set()
    for name, p in named_params:
        if name not in stored:
            raise CheckpointError(f"checkpoint is missing parameter {name!r}")
        arr = stored[name]
        if tuple(arr.shape) != tuple(p.data.shape):
            raise CheckpointError(
                f"parameter {name!r} shape {arr.shape} != live {p.data.shape}")
        p.data[...] = arr
        names.add(name)
    if not allow_extra:
        extra = set(stored) - names
        if extra:
            raise CheckpointError(f"unexpected checkpoint parameters: {sorted(extra)}")
