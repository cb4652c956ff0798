"""Checkpoint files: one ``fileio.CHECKPOINT`` container.

The header holds ``config`` (the run config echo), ``phase``, ``step``,
``seeds`` and ``params``, the parameter table: each parameter's name and
shape, in blob order. The blob holds the parameters' values, rounded from
the float64 they are in memory to float32, so identical bytes mean an
identical model. A save replaces the file atomically.

A stored model comes back one way: ``load_checkpoint`` reads the file into
``{name: float64 array}`` and checks every value finite, and the modules
are built from those arrays by ``StoredArrays``, each parameter holding its
array itself. No zero model is made first and nothing is copied or checked
a second time.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import autodiff as ad
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
    Inf in a stored parameter, which is named. A header that names one key
    twice is a DuplicateKeyError instead, as in every JSON the program reads.
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


class StoredArrays:
    """The parameter source (see ``autodiff.Drawn``) of a model built from a
    checkpoint: it hands out the arrays of ``load_checkpoint``'s
    ``{name: array}`` in table order, each as the parameter itself, with no
    copy and no second finiteness check. Modules take their parameters in
    ``parameters()`` order, so each array lands where it was saved from;
    ``check_names`` confirms that once the model is built. A parameter whose
    stored shape differs, or one the table runs out before, is a
    CheckpointError.
    """

    def __init__(self, stored: dict):
        self._items = list(stored.items())
        self._taken = 0

    def uniform(self, _how: float, shape: tuple) -> ad.Tensor:
        """The next stored array, as the parameter of ``shape``; how a drawn
        value would be spread, ``_how``, does not matter here."""
        if self._taken == len(self._items):
            raise CheckpointError(f"the checkpoint holds {len(self._items)} parameters, "
                                  "and the model has more")
        name, arr = self._items[self._taken]
        if arr.shape != shape:
            raise CheckpointError(f"stored parameter {name!r} has shape {arr.shape}, "
                                  f"the model's parameter in its place {shape}")
        self._taken += 1
        return ad.stored_param(arr)

    normal = constant = uniform

    def check_names(self, named) -> list:
        """The names of the arrays not handed out, once ``named``, the built
        model's ``(name, parameter)`` list, is found to hold the arrays
        handed out under their stored names, in order; else a CheckpointError
        that names the first difference."""
        taken = [name for name, _ in self._items[:self._taken]]
        built = [name for name, _ in named]
        if built != taken:
            stored, wanted = next((t, b) for t, b in zip(taken + [None], built + [None])
                                  if t != b)
            raise CheckpointError(f"the checkpoint stores {stored!r} where the model "
                                  f"has {wanted!r}")
        return [name for name, _ in self._items[self._taken:]]
