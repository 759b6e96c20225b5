"""Counted benchmark: sampled typo generation builds only the typos it draws.

The paper's case studies draw a handful of random typos per directive
(``mutations_per_token`` 1 or 2).  Each built-in typo model answers
``variants(word)``, a sequence whose ``len()`` and ``[j]`` are computed
from the word's per-character keyboard candidates, and ``random.sample``
only takes the length of the plugin's lazy candidate sequence and indexes
it.  So on a wide configuration with long values, sampling one typo per
token must build exactly one typo string per token, and no model may
enumerate its typos.  The checks count; they time nothing.
"""

from __future__ import annotations

import random

import pytest

from repro.core.infoset import ConfigSet
from repro.parsers.base import get_dialect
from repro.plugins.spelling import (
    CaseAlterationModel,
    InsertionModel,
    OmissionModel,
    SpellingMistakesPlugin,
    SubstitutionModel,
    TranspositionModel,
    TypoVariants,
)

from benchmarks.conftest import BENCH_SEED, write_bench_json

#: Directives in the synthetic configuration.
WIDTH = 400
#: Sampled typos per token.
K = 1

BUILT_IN_MODELS = (
    OmissionModel,
    InsertionModel,
    SubstitutionModel,
    CaseAlterationModel,
    TranspositionModel,
)


@pytest.fixture(scope="module")
def wide_view_set():
    lines = ["[server]"]
    for index in range(WIDTH):
        value = f"/srv/Data/Volume{index:04d}/cache-segment-{index * 7919 % 10007}.db"
        lines.append(f"option_name_{index:04d} = {value}")
    config_set = ConfigSet([get_dialect("ini").parse("\n".join(lines) + "\n", "wide.cnf")])
    plugin = SpellingMistakesPlugin(mutations_per_token=K)
    return plugin, plugin.view.transform(config_set)


def test_sampling_never_enumerates_and_builds_one_typo_per_draw(wide_view_set, monkeypatch):
    plugin, view_set = wide_view_set
    tokens = plugin.target_tokens(view_set)
    assert len(tokens) == 2 * WIDTH  # every directive's name and value

    def refuse(self, word):
        raise AssertionError(f"{type(self).__name__}.mutations ran on the sampling path")

    for model_class in BUILT_IN_MODELS:
        monkeypatch.setattr(model_class, "mutations", refuse)
    built = []
    original_item = TypoVariants._item

    def counting_item(self, part, offset):
        built.append(self.word)
        return original_item(self, part, offset)

    monkeypatch.setattr(TypoVariants, "_item", counting_item)
    scenarios = plugin.generate(view_set, random.Random(BENCH_SEED))
    candidates = sum(len(plugin.mutations_for_token(token)) for token in tokens)
    assert len(scenarios) == len(tokens) * K
    assert len(built) == len(tokens) * K
    write_bench_json(
        "generation_cost",
        {
            "tokens": len(tokens),
            "mutations_per_token": K,
            "candidates": candidates,
            "typos_built": len(built),
        },
    )
