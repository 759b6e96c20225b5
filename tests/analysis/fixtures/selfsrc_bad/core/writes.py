"""Fixture: truncating writes of durable files in the store layer."""

from pathlib import Path


def save_manifest(root: Path, text: str) -> None:
    (root / "manifest.json").write_text(text, encoding="utf-8")


def save_index(root: Path, data: bytes) -> None:
    (root / "index.bin").write_bytes(data)


def save_snapshot(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
