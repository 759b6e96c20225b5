"""Core ConfErr machinery: configuration trees, templates, views, engine.

The sub-packages mirror the stages of the ConfErr pipeline described in the
paper:

``infoset``
    The abstract tree representation of configuration files (the paper uses
    XML information sets; we provide an equivalent native model).
``path``
    An XPath-like query language used by templates to select target nodes.
``templates``
    Parameterised transformations of configuration trees (delete, duplicate,
    move, modify, ...) and combinators over sets of fault scenarios.
``views``
    Bidirectional mappings between the system-specific tree and the
    representations required by each error-generator plugin.
``engine`` / ``profile`` / ``report``
    One worker's injection experiments and the aggregation of their
    outcomes into resilience profiles.
``suite`` / ``executor`` / ``store``
    Campaigns -- one or more systems crossed with one or more plugins --
    as one durable run: the suite is the one campaign driver; it generates
    each (system, plugin) cell's scenarios, streams them through an
    executor strategy whose workers each own an injection engine, and the
    store appends every record to disk so an interrupted suite can be
    resumed.
"""

from repro.core.infoset import ConfigNode, ConfigTree
from repro.core.profile import InjectionOutcome, InjectionRecord, ResilienceProfile
from repro.core.engine import InjectionEngine
from repro.core.executor import (
    ProcessPoolCampaignExecutor,
    SerialExecutor,
    ThreadPoolCampaignExecutor,
    available_executors,
)
from repro.core.store import ResultStore
from repro.core.suite import CampaignSuite, SuiteResult, derive_seed

__all__ = [
    "ConfigNode",
    "ConfigTree",
    "InjectionOutcome",
    "InjectionRecord",
    "ResilienceProfile",
    "InjectionEngine",
    "SerialExecutor",
    "ThreadPoolCampaignExecutor",
    "ProcessPoolCampaignExecutor",
    "available_executors",
    "ResultStore",
    "CampaignSuite",
    "SuiteResult",
    "derive_seed",
]
