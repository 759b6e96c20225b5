"""Fixture: outside the store and service layers a plain write is fine."""

from pathlib import Path


def save_table(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")
