"""Error templates: parameterised transformations of configuration trees.

The paper (Section 3.3) expresses error models by instantiating and composing
*templates*: simple ones that mutate nodes or subtrees selected by an XPath
query (delete, duplicate, move, modify) and complex ones that combine the
fault-scenario sets produced by other templates (union, random subset).

Templates *generate* :class:`FaultScenario` objects; a scenario is a replayable
recipe of operations that, applied to a pristine clone of the configuration
set, produces one faulty configuration.
"""

from repro.core.templates.base import (
    FaultScenario,
    NodeAddress,
    Operation,
    DeleteOperation,
    InsertOperation,
    MoveOperation,
    SetFieldOperation,
    Template,
    resolve_address,
)
from repro.core.templates.primitives import (
    DeleteTemplate,
    DuplicateTemplate,
    InsertTemplate,
    ModifyTemplate,
    MoveTemplate,
    SetValueTemplate,
)
from repro.core.templates.compose import (
    FilterTemplate,
    LimitTemplate,
    RandomSubsetTemplate,
    UnionTemplate,
)

__all__ = [
    "FaultScenario",
    "NodeAddress",
    "Operation",
    "DeleteOperation",
    "InsertOperation",
    "MoveOperation",
    "SetFieldOperation",
    "Template",
    "resolve_address",
    "DeleteTemplate",
    "DuplicateTemplate",
    "InsertTemplate",
    "ModifyTemplate",
    "MoveTemplate",
    "SetValueTemplate",
    "FilterTemplate",
    "LimitTemplate",
    "RandomSubsetTemplate",
    "UnionTemplate",
]
