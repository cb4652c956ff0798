"""Atomic file writes: a reader finds the old file or the new one, never a part."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a new temporary file beside ``path`` for writing.

    When the block ends normally the file replaces ``path`` in one
    ``os.replace``; when it raises, the file is removed and ``path`` is left
    as it was. ``mode`` is "w" (UTF-8 text) or "wb".
    """
    head, tail = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{tail}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, mode.replace("w", "x"), encoding=None if "b" in mode else "utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
