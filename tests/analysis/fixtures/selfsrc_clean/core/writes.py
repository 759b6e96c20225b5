"""Fixture: the durable writes the store layer may make."""

import os


def append_record(path: str, line: bytes) -> None:
    with open(path, "ab") as handle:
        handle.write(line)


def read_manifest(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def write_lock(path: str) -> None:
    fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        handle.write(str(os.getpid()))


def write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    # nothing reads the temp file until the rename
    with open(tmp, "w", encoding="utf-8") as handle:  # conferr: allow[harness/non-atomic-write]
        handle.write(text)
    os.replace(tmp, path)
