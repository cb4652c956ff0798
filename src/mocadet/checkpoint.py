"""Checkpoint files: one ``fileio.CHECKPOINT`` container.

The header holds ``config`` (the run config echo), ``phase``, ``step``,
``seeds`` and ``params``, the parameter table: each parameter's name and
shape, in blob order. The blob holds the parameters' values, rounded from
the float64 they are in memory to float32, so identical bytes mean an
identical model. A save replaces the file atomically.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import CheckpointError
from .fileio import CHECKPOINT, make_dirs


def save_checkpoint(path, named_params, config_json: dict, phase: str,
                    step: int, seeds: dict | None = None) -> None:
    table, arrays = [], []
    for name, p in named_params:
        table.append({"name": name, "shape": list(np.shape(p.data))})
        arrays.append(p.data)
    header = {"config": config_json, "params": table, "phase": phase,
              "seeds": seeds or {}, "step": int(step)}
    make_dirs(os.path.dirname(os.path.abspath(path)))
    CHECKPOINT.write(path, header, arrays)


def _valid_entry(entry) -> bool:
    return (isinstance(entry, dict) and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(s) is int and s >= 0 for s in entry["shape"]))


def load_checkpoint(path):
    """Returns (header dict, {param name: float64 array}).

    Any file that is not a well-formed checkpoint raises CheckpointError:
    a parameter table whose sizes do not add up to the blob, and a NaN or
    Inf in a stored parameter, which is named.
    """
    header, blob = CHECKPOINT.read(path)
    table = header.get("params")
    if not isinstance(table, list) or not all(_valid_entry(e) for e in table):
        raise CheckpointError(f"{path}: malformed parameter table")
    sizes = [math.prod(entry["shape"]) for entry in table]
    if sum(sizes) != blob.size:
        raise CheckpointError(f"{path}: the parameter table holds {sum(sizes)} values, "
                              f"the blob {blob.size}")
    finite = bool(np.isfinite(blob).all())
    params, offset = {}, 0
    for entry, size in zip(table, sizes):
        chunk = blob[offset:offset + size]
        offset += size
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
