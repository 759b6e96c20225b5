"""The resilience matrix -- M systems x N plugins, one table.

The ROADMAP's north star asks for "as many scenarios as you can imagine";
the matrix is where that ambition becomes visible: every registered system
crossed with every applicable error family, rendered as one table whose
cells are ``detected/injected (rate)``.  Adding a system or a plugin to the
registries grows the matrix automatically.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.report import resilience_matrix_table
from repro.core.spec import ExecutionSpec, ExperimentSpec, PluginSpec, SystemSpec

__all__ = ["MATRIX_SYSTEMS", "MATRIX_PLUGINS", "matrix_spec", "render"]

#: Default system line-up: the paper's five plus the beyond-the-paper SUTs.
MATRIX_SYSTEMS = ("mysql", "postgres", "apache", "bind", "djbdns", "nginx", "sshd")

#: Default plugin line-up: every error family that applies across systems.
MATRIX_PLUGINS = ("spelling", "structural", "omission", "semantic-constraints")


def matrix_spec(
    systems: Sequence[str] | None = None,
    plugins: Sequence[str] | None = None,
    seed: int = 2008,
    mutations_per_token: int | None = 1,
    max_scenarios_per_class: int | None = None,
) -> ExperimentSpec:
    """The matrix experiment as a declarative spec.

    ``mutations_per_token`` defaults to 1 (the CLI's default) rather than
    the spelling plugin's exhaustive enumeration: an M x N matrix multiplies
    whatever each cell costs.
    """
    return ExperimentSpec(
        systems=tuple(SystemSpec(name) for name in (systems or MATRIX_SYSTEMS)),
        plugins=tuple(PluginSpec(name) for name in (plugins or MATRIX_PLUGINS)),
        execution=ExecutionSpec(
            seed=seed,
            mutations_per_token=mutations_per_token,
            max_scenarios_per_class=max_scenarios_per_class,
        ),
    )


#: The matrix renders any suite's cells as they are.
render = resilience_matrix_table
