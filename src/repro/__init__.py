"""ConfErr reproduction: assessing resilience to human configuration errors.

This package reimplements the ConfErr tool (Keller, Upadhyaya, Candea --
DSN 2008): it generates realistic configuration errors from human-error
models, injects them into a system's configuration files, measures the
system's reaction and produces a *resilience profile*.

Typical usage::

    from repro import CampaignSuite, SpellingMistakesPlugin
    from repro.sut.mysql import SimulatedMySQL

    suite = CampaignSuite({"mysql": SimulatedMySQL}, [SpellingMistakesPlugin()], seed=42)
    result = suite.run()
    print(result.overall("mysql").summary())

The public surface is re-exported here; see the subpackages for details:

* :mod:`repro.core`     -- configuration trees, templates, views, engine, profiles
* :mod:`repro.parsers`  -- native configuration file formats
* :mod:`repro.keyboard` -- keyboard layouts used by the typo model
* :mod:`repro.plugins`  -- the error-generator plugins
* :mod:`repro.dns`      -- DNS record model and resolver substrate
* :mod:`repro.sut`      -- systems under test (simulated MySQL, Postgres, Apache, BIND, djbdns)
* :mod:`repro.bench`    -- the paper's tables and figures as spec builders plus renderers
"""

from repro.core.engine import InjectionEngine
from repro.core.infoset import ConfigNode, ConfigSet, ConfigTree
from repro.core.profile import InjectionOutcome, InjectionRecord, ResilienceProfile
from repro.core.suite import CampaignSuite, SuiteResult
from repro.core.templates import FaultScenario
from repro.errors import ConfErrError
from repro.plugins import (
    ConstraintViolationPlugin,
    DnsSemanticErrorsPlugin,
    SpellingMistakesPlugin,
    StructuralErrorsPlugin,
    StructuralVariationsPlugin,
)

__version__ = "1.0.0"

__all__ = [
    "CampaignSuite",
    "SuiteResult",
    "InjectionEngine",
    "ConfigNode",
    "ConfigSet",
    "ConfigTree",
    "InjectionOutcome",
    "InjectionRecord",
    "ResilienceProfile",
    "FaultScenario",
    "ConfErrError",
    "SpellingMistakesPlugin",
    "StructuralErrorsPlugin",
    "StructuralVariationsPlugin",
    "DnsSemanticErrorsPlugin",
    "ConstraintViolationPlugin",
    "__version__",
]
