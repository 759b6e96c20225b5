"""First-class registry of systems under test.

Mirrors the plugin registry of :mod:`repro.plugins.base`: a system is
registered under a short name together with a zero-argument, picklable
factory (the SUT class itself, or a module-level function), and everything
that needs a SUT -- the CLI, :class:`~repro.core.spec.ExperimentSpec`,
the paper-artefact specs -- looks it up here instead of keeping a private dict.

Beyond the five plain systems the paper studies, the registry also names
the benchmark workload variants (the server-group-only MySQL of Table 1 and
the full-directive configurations of Figure 3), so every experiment the
repository ships can be described by a spec file.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SpecError
from repro.sut.apache import SimulatedApache
from repro.sut.base import SystemUnderTest
from repro.sut.dns import SimulatedBIND, SimulatedDjbdns
from repro.sut.mysql import SimulatedMySQL
from repro.sut.nginx import SimulatedNginx
from repro.sut.postgres import SimulatedPostgres
from repro.sut.sshd import SimulatedSshd

__all__ = ["register_system", "get_system", "available_systems", "registered_systems"]

SUTFactory = Callable[[], SystemUnderTest]

_REGISTRY: dict[str, SUTFactory] = {}


def register_system(name: str, factory: SUTFactory) -> SUTFactory:
    """Register ``factory`` (zero-argument, picklable) under ``name``.

    Re-registering a name replaces the previous factory, matching the
    plugin registry's semantics.  Returns the factory so the call can be
    used as a decorator on module-level factory functions.
    """
    _REGISTRY[name] = factory
    return factory


def get_system(name: str) -> SUTFactory:
    """Return the factory registered under ``name``.

    Raises :class:`~repro.errors.SpecError` for unknown names, listing the
    available systems.
    """
    if name not in _REGISTRY:
        raise SpecError(
            f"unknown system {name!r}; available: {', '.join(available_systems())}",
            "spec/unknown-system",
        )
    return _REGISTRY[name]


def available_systems() -> list[str]:
    """Names of all registered systems, in registration order.

    Registration order is meaningful: it is the column order of the default
    suite's rendered tables, so it is preserved rather than sorted.
    """
    return list(_REGISTRY)


def registered_systems() -> dict[str, SUTFactory]:
    """Snapshot of the registry as ``{name: factory}``.

    The self-lint's ``harness/delta-contract`` rule iterates this to
    check every registered SUT's delta protocol; a copy is returned so
    callers cannot mutate the registry.
    """
    return dict(_REGISTRY)


# --------------------------------------------------------------- workload variants
def _mysql_server_only() -> SystemUnderTest:
    """MySQL reading only the ``[mysqld]`` group (the Table 1 workload)."""
    from repro.sut.mysql.options import DEFAULT_MY_CNF_SERVER_ONLY

    return SimulatedMySQL(default_config=DEFAULT_MY_CNF_SERVER_ONLY)


def _mysql_full_directives() -> SystemUnderTest:
    """MySQL with most available directives at defaults (Figure 3 workload)."""
    from repro.bench.workloads import full_directive_mysql_config

    return SimulatedMySQL(default_config=full_directive_mysql_config())


def _postgres_full_directives() -> SystemUnderTest:
    """Postgres with most available directives at defaults (Figure 3 workload)."""
    from repro.bench.workloads import full_directive_postgres_config

    return SimulatedPostgres(default_config=full_directive_postgres_config())


# The five systems the paper studies, in the canonical table-column order...
register_system("mysql", SimulatedMySQL)
register_system("postgres", SimulatedPostgres)
register_system("apache", SimulatedApache)
register_system("bind", SimulatedBIND)
register_system("djbdns", SimulatedDjbdns)
# ...the beyond-the-paper systems (block-structured nginx, keyword/value
# sshd with Match blocks; see docs/SYSTEMS.md for their error-detection
# semantics)...
register_system("nginx", SimulatedNginx)
register_system("sshd", SimulatedSshd)
# ...and the benchmark workload variants.
register_system("mysql-server-only", _mysql_server_only)
register_system("mysql-full-directives", _mysql_full_directives)
register_system("postgres-full-directives", _postgres_full_directives)
