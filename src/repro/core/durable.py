"""Crash-safe writes and total reads for the durable files of stores and services."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

__all__ = ["write_atomic", "parse_json_object", "read_json_object"]


def write_atomic(path: str | os.PathLike, text: str) -> None:
    """Replace ``path`` with ``text``; readers see the old file or the new one.

    The text goes to ``<name>.tmp`` in the same directory (so the rename
    stays on one filesystem), is flushed and fsynced, and only then moved
    over ``path`` with :func:`os.replace`.  A reader racing the write, or a
    crash at any point, never sees a truncated or half-written file.
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    # truncating the temp file is safe: nothing reads it until the rename
    with open(tmp, "w", encoding="utf-8") as handle:  # conferr: allow[harness/non-atomic-write]
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)


def parse_json_object(data: bytes) -> dict[str, Any]:
    """Decode ``data`` as UTF-8 JSON that must be an object.

    Every way the bytes can fail -- not UTF-8, not JSON, JSON but not an
    object -- raises :class:`ValueError`, so a caller guards one exception
    type instead of a tuple that can miss one.
    """
    value = json.loads(data.decode("utf-8"))
    if not isinstance(value, dict):
        raise ValueError(f"expected a JSON object, got {type(value).__name__}")
    return value


def read_json_object(path: str | os.PathLike) -> dict[str, Any]:
    """:func:`parse_json_object` of a whole file; :class:`OSError` when unreadable."""
    return parse_json_object(Path(path).read_bytes())
