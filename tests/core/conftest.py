"""Fixtures shared by the core tests."""

from __future__ import annotations

import pytest

import repro.core.executor as executor_module


@pytest.fixture
def process_pools(monkeypatch):
    """Every ``ProcessPoolExecutor`` the executor builds, with its submits.

    Each entry is ``(pool, tokens)``: the pool and the stream token of each
    block task submitted to it, in order.
    """
    built: list[tuple[object, list[int]]] = []

    class CountingPool(executor_module.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.tokens: list[int] = []
            built.append((self, self.tokens))

        def submit(self, fn, *args, **kwargs):
            self.tokens.append(args[0])
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(executor_module, "ProcessPoolExecutor", CountingPool)
    return built
