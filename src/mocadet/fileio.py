"""Atomic file writes and output directories, where a bad path is a
``ValidationError``, and the one rule that turns JSON into config objects:
``read_dataclass`` follows the field annotations and checks instead of
converting. An unknown key, a missing required field or a value of the wrong
JSON type is a ``ValidationError`` naming the dotted field, e.g.
``config.dataset.modalities[0].curve``. A bool is not an int, an int counts
as a float, a float must be finite (Python's ``json`` reads ``NaN`` and
``Infinity``), absent fields take their defaults and nested dataclasses are
read by the same rule. ``json_form`` is the inverse. Ranges are not types:
each numeric field declares its own once (``Range.field``), and the config
validators call ``check_ranges``, the one rule that checks them all.

``read_json`` (``parse_json`` of bytes) is the one JSON parse: an unreadable
file, bad UTF-8 or JSON and nesting too deep to parse are the error its caller
names, and an object that names one key twice is a ``DuplicateKeyError``.

Every file the program writes and later reads back (a checkpoint, a dataset
split) is one ``Container``, laid out as:

- 8 bytes of magic, one value per file kind (``CHECKPOINT``, ``DATASET_SPLIT``);
- the 32-byte sha256 of every byte after it;
- the header length, a little-endian uint64;
- the header, sorted-key JSON in UTF-8;
- the blob, raw little-endian float32 to the end of the file.

The reader checks the digest over the bytes it read before it parses
anything, so a flipped bit or a cut anywhere is the kind's typed error. Each
kind keeps only its header schema."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import secrets
import types
import typing
from collections.abc import Mapping
from contextlib import contextmanager

import numpy as np

from .errors import CheckpointError, DuplicateKeyError, IngestError, ValidationError


def check_output_path(path) -> None:
    """A ``path`` that names a directory, or lies in a directory that cannot
    hold a new file (missing, not a directory, not writable), is a
    ValidationError: a bad path argument. Nothing is written."""
    head = os.path.dirname(os.fspath(path)) or "."
    if os.path.isdir(path):
        raise ValidationError(f"cannot write {path}: it is a directory")
    if not os.path.isdir(head):
        raise ValidationError(f"cannot write {path}: {head} is not a directory")
    if not os.access(head, os.W_OK | os.X_OK):
        raise ValidationError(f"cannot write {path}: {head} is not writable")


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a new temporary file beside ``path`` for writing, named
    ``.<16 hex digits>.tmp`` whatever the length of ``path``'s own name.

    When the block ends normally the file replaces ``path`` in one
    ``os.replace``; when it raises, the file is removed and ``path`` is left
    as it was. ``mode`` is "w" (UTF-8 text) or "wb". A path that
    ``check_output_path`` rejects, or a temporary file that cannot be made,
    is a ValidationError: a bad path argument.
    """
    check_output_path(path)
    tmp = os.path.join(os.path.dirname(os.fspath(path)), f".{secrets.token_hex(8)}.tmp")
    try:
        fh = open(tmp, mode.replace("w", "x"), encoding=None if "b" in mode else "utf-8")
    except OSError as e:
        raise ValidationError(f"cannot write {path}: {e}") from e
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read_bytes(path, error: type, what: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise error(f"cannot read {what}: {e}") from e


def parse_json(data: bytes, where: str, error: type):
    """The JSON document in the UTF-8 bytes ``data``, which ``where`` names."""
    def unique_keys(pairs):
        doc = dict(pairs)
        if len(doc) < len(pairs):
            seen = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise DuplicateKeyError(f"{where}: the key {key!r} appears more than once")
        return doc

    try:
        return json.loads(data.decode("utf-8"), object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON; nesting too deep
        raise error(f"cannot read {where}: {e}") from e


def read_json(path, error: type):
    """``parse_json`` of the file at ``path``, where an unreadable file is ``error``."""
    return parse_json(_read_bytes(path, error, path), path, error)


@dataclasses.dataclass(frozen=True)
class Container:
    """One kind of file that the program writes and reads back, in the
    layout of the module docstring. A bad file raises ``error``."""

    kind: str  # what an error message calls the file
    magic: bytes
    error: type

    def write(self, path, header: dict, arrays) -> None:
        """Writes ``header`` and the float32 values of ``arrays``, in order,
        to ``path`` through ``atomic_write``."""
        head = json.dumps(header, sort_keys=True).encode("utf-8")
        body = [len(head).to_bytes(8, "little"), head,
                *(np.ascontiguousarray(a, dtype="<f4") for a in arrays)]
        digest = hashlib.sha256()
        for part in body:
            digest.update(part)
        with atomic_write(path, "wb") as fh:
            fh.write(self.magic + digest.digest())
            for part in body:
                fh.write(part)

    def read(self, path) -> tuple:
        """(header, blob) of the file at ``path``: the JSON object and a
        read-only float32 array."""
        data = _read_bytes(path, self.error, f"{self.kind} {path}")
        if data[:8] != self.magic:
            raise self.error(f"{path}: not a {self.kind} file of this format")
        if hashlib.sha256(memoryview(data)[40:]).digest() != data[8:40]:
            raise self.error(f"{path}: the file does not match its recorded sha256; "
                             "it is corrupt or truncated")
        start = 48 + int.from_bytes(data[40:48], "little")
        if start > len(data) or (len(data) - start) % 4:
            raise self.error(f"{path}: the header length does not leave whole float32 values")
        header = parse_json(data[48:start], f"the {self.kind} header of {path}", self.error)
        if not isinstance(header, dict):
            raise self.error(f"{path}: the {self.kind} header is not an object")
        return header, np.frombuffer(data, dtype="<f4", offset=start)


CHECKPOINT = Container("checkpoint", b"MDCKPT2\n", CheckpointError)
DATASET_SPLIT = Container("dataset split", b"MDSPLIT\n", IngestError)


def make_dirs(path) -> None:
    """``os.makedirs(path, exist_ok=True)``; a path that cannot be a directory
    (an existing file, or a path under one) is a ValidationError: a bad path
    argument."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise ValidationError(f"cannot make directory {path}: {e}") from e


_SCALARS = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}
_hints = functools.cache(typing.get_type_hints)  # resolving them costs more than a read


def read_dataclass(cls, doc, where: str):
    """``cls`` built from the JSON object ``doc``, which ``where`` names.

    It reads dataclasses, ``bool``, ``int``, ``float``, ``str``, ``X | None``,
    ``list[X]``, ``tuple[X, ...]`` and ``dict[str, X]`` or ``Mapping[str, X]``
    (both read as a dict)."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{where} must be an object, got {doc!r}")
    hints = _hints(cls)
    for name in doc:
        if name not in hints:
            raise ValidationError(f"{where}.{name} is not a known field")
    for f in dataclasses.fields(cls):
        if f.name not in doc and f.default is f.default_factory is dataclasses.MISSING:
            raise ValidationError(f"{where}.{f.name} is missing")
    return cls(**{name: _read(hints[name], value, f"{where}.{name}")
                  for name, value in doc.items()})


def _read(tp, value, where: str):
    if dataclasses.is_dataclass(tp):
        return read_dataclass(tp, value, where)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is types.UnionType:  # X | None
        return None if value is None else _read(args[0], value, where)
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise ValidationError(f"{where} must be a list, got {value!r}")
        out = [_read(args[0], v, f"{where}[{i}]") for i, v in enumerate(value)]
        return out if origin is list else tuple(out)
    if origin in (dict, Mapping):
        if not isinstance(value, dict):
            raise ValidationError(f"{where} must be an object, got {value!r}")
        return {k: _read(args[1], v, f"{where}.{k}") for k, v in value.items()}
    if tp is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ValidationError(f"{where} is out of range, got {value!r}") from None
    if type(value) is not tp:
        raise ValidationError(f"{where} must be {_SCALARS[tp]}, got {value!r}")
    if tp is float and not math.isfinite(value):
        raise ValidationError(f"{where} must be finite, got {value!r}")
    return value


@dataclasses.dataclass(frozen=True)
class Range:
    """[lo, hi], without ``lo`` if ``lo_open`` and ``hi`` if ``hi_open``: the
    values a numeric config field may take, declared by ``Range.field``."""

    lo: float
    hi: float
    lo_open: bool = False
    hi_open: bool = False

    def field(self, **kwargs) -> dataclasses.Field:
        """A dataclass field, its default in ``kwargs``, that holds this range."""
        return dataclasses.field(metadata={"range": self}, **kwargs)

    def check(self, value, where: str):
        """``value``, or a ValidationError naming ``where``, the range and ``value``."""
        if not ((self.lo < value if self.lo_open else self.lo <= value)
                and (value < self.hi if self.hi_open else value <= self.hi)):
            lo, hi = ("2^64" if b == 2**64 else b for b in (self.lo, self.hi))
            raise ValidationError(f"{where} must be in {'(' if self.lo_open else '['}{lo}, "
                                  f"{hi}{')' if self.hi_open else ']'}, got {value!r}")
        return value


SEED = Range(0, 2**64, hi_open=True)  # what every seeded generator here takes
D_TEXT = Range(2, 4096)  # a raw token's width; the projection's W is (d_model, d_text)


def check_ranges(obj, where: str) -> None:
    """Checks each range the fields of ``obj``, a config dataclass that
    ``where`` names, declare (on a mapping's values, a tuple's items), and so
    in each config it holds, unless that config's class sets
    ``RANGES_CHECKED_WHEN_MADE``: it checked its own when it was made.
    ``config.loss.alpha must be in [0, 1], got 2.0``."""
    for f in dataclasses.fields(obj):
        value, interval = getattr(obj, f.name), f.metadata.get("range")
        if interval is None and not isinstance(value, tuple) and \
                not dataclasses.is_dataclass(value):
            continue  # nothing to check, such as a name
        name = f"{where}.{f.name}"
        if isinstance(value, Mapping):
            entries = [(f"{name}.{k}", v) for k, v in value.items()]
        elif isinstance(value, tuple):
            entries = [(f"{name}[{i}]", v) for i, v in enumerate(value)]
        else:
            entries = [] if value is None else [(name, value)]
        for key, v in entries:
            if interval is not None:
                interval.check(v, key)
            elif dataclasses.is_dataclass(v) and not getattr(v, "RANGES_CHECKED_WHEN_MADE", False):
                check_ranges(v, key)


def read_only(container):
    """A read-only copy of a config's container: a mapping as a
    ``MappingProxyType``, a list or tuple as a tuple."""
    if isinstance(container, Mapping):
        return types.MappingProxyType(dict(container))
    return tuple(container)


def json_form(obj):
    """A config dataclass as JSON-ready data, the form ``read_dataclass``
    reads back: each config as an object of its fields, a mapping as an
    object, a tuple or list as a list."""
    if dataclasses.is_dataclass(obj):
        return {f.name: json_form(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Mapping):
        return {k: json_form(v) for k, v in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [json_form(v) for v in obj]
    return obj
