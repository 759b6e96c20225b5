"""Crash-safe whole-file rewrites for the durable files of stores and services."""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["write_atomic"]


def write_atomic(path: str | os.PathLike, text: str) -> None:
    """Replace ``path`` with ``text``; readers see the old file or the new one.

    The text goes to ``<name>.tmp`` in the same directory (so the rename
    stays on one filesystem), is flushed and fsynced, and only then moved
    over ``path`` with :func:`os.replace`.  A reader racing the write, or a
    crash at any point, never sees a truncated or half-written file.
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, target)
