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

Every blob the program writes and later reads back (a dataset's images, a
checkpoint's parameters) is checked by one rule: the writer records
``blob_sha256`` of the bytes, and the reader passes them to ``check_blob``
before it decodes anything."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
import os
import secrets
import types
import typing
from contextlib import contextmanager

from .errors import ValidationError


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
    """Open a new temporary file beside ``path`` for writing.

    When the block ends normally the file replaces ``path`` in one
    ``os.replace``; when it raises, the file is removed and ``path`` is left
    as it was. ``mode`` is "w" (UTF-8 text) or "wb". A path that
    ``check_output_path`` rejects, or a temporary file that cannot be made,
    is a ValidationError: a bad path argument.
    """
    check_output_path(path)
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
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


def blob_sha256(payload) -> str:
    """The sha256 hex digest of ``payload`` (bytes, or a memoryview of them),
    as a blob's writer records it."""
    return hashlib.sha256(payload).hexdigest()


def check_blob(payload, digest, error: type, path) -> None:
    """Raises ``error`` naming ``path`` unless the sha256 hex of ``payload``
    starts with ``digest``: the recorded digest, or at least 16 of its
    leading hex digits."""
    if not (isinstance(digest, str) and len(digest) >= 16
            and blob_sha256(payload).startswith(digest)):
        raise error(f"{path}: the blob does not match its recorded sha256 {digest!r}; "
                    "the file is corrupt or truncated")


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
    ``list[X]``, ``tuple[X, ...]`` and ``dict[str, X]``."""
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
    if origin is dict:
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


def check_ranges(obj, where: str) -> None:
    """Checks each range the fields of ``obj``, a config dataclass that
    ``where`` names, declare (on a dict's values, a tuple's items), and so in
    each dataclass it holds: ``config.loss.alpha must be in [0, 1], got 2.0``."""
    for f in dataclasses.fields(obj):
        value, interval = getattr(obj, f.name), f.metadata.get("range")
        if interval is None and not isinstance(value, list) and \
                not dataclasses.is_dataclass(value):
            continue  # nothing to check, such as a name
        name = f"{where}.{f.name}"
        if isinstance(value, dict):
            entries = [(f"{name}.{k}", v) for k, v in value.items()]
        elif isinstance(value, (tuple, list)):
            entries = [(f"{name}[{i}]", v) for i, v in enumerate(value)]
        else:
            entries = [] if value is None else [(name, value)]
        for key, v in entries:
            if interval is not None:
                interval.check(v, key)
            elif dataclasses.is_dataclass(v):
                check_ranges(v, key)


def json_form(obj) -> dict:
    """A config dataclass as JSON-ready data: ``dataclasses.asdict`` with
    tuples as lists, the form ``read_dataclass`` reads back."""
    return dataclasses.asdict(obj, dict_factory=lambda items: {
        k: list(v) if isinstance(v, tuple) else v for k, v in items})
