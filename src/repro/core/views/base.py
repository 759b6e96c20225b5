"""View interface: bidirectional mappings between tree representations."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable, Optional

from repro.core.infoset import ConfigNode, ConfigSet
from repro.sut.incremental import ChildrenChange, NodeChange, node_at

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.core.templates.base import FaultScenario

__all__ = ["View", "IdentityView"]


class View(ABC):
    """A bidirectional mapping between system-specific and plugin-specific trees.

    ``transform`` produces the plugin-specific representation the error
    templates operate on; ``untransform`` maps a (possibly mutated) view back
    onto the system-specific representation so it can be serialised.  The
    original configuration set is passed to ``untransform`` because the view
    usually needs the complementary information it carries (formatting,
    comments, source addresses) to rebuild a faithful native tree.
    """

    #: Identifier used in reports.
    name: str = "view"

    @abstractmethod
    def transform(self, config_set: ConfigSet) -> ConfigSet:
        """Map the system-specific ``config_set`` to the plugin representation."""

    @abstractmethod
    def untransform(self, view_set: ConfigSet, original: ConfigSet) -> ConfigSet:
        """Map a (mutated) view back to system-specific trees.

        Raises :class:`~repro.errors.SerializationError` when the mutated view
        cannot be expressed in the original configuration format.
        """

    def untransform_touched(
        self, view_set: ConfigSet, original: ConfigSet, touched: Iterable[str]
    ) -> Optional[ConfigSet]:
        """Reverse-map only the system trees affected by changes in ``touched``.

        ``touched`` names the view trees a scenario mutated.  Views whose
        mapping is per-tree (the view tree named X determines exactly the
        system tree named X) override this to rebuild just those trees; the
        engine then reuses cached baseline serialisations for the rest.

        Returning ``None`` (the default) means the view cannot localise the
        change -- e.g. one view tree aggregates many system files -- and the
        caller must fall back to the full :meth:`untransform`.

        Unlike :meth:`untransform`, the result is scratch: it may alias nodes
        of ``view_set``, so callers must serialise it before the mutated view
        is rolled back, and must not mutate or retain it.
        """
        return None

    def scenario_changes(
        self,
        scenario: "FaultScenario",
        view_set: ConfigSet,
        baseline_trees: ConfigSet,
    ) -> "Optional[list[NodeChange | ChildrenChange]]":
        """Reduce a scenario to the system-tree nodes it changes.

        Called with the *mutated* view (inside the scenario's apply/undo
        context) and the baseline system trees; returns detached
        :class:`~repro.sut.incremental.NodeChange` (field edit) and
        :class:`~repro.sut.incremental.ChildrenChange` (child-list edit)
        records addressing baseline nodes, or ``None`` when the view cannot
        localise the edit (cross-file grafts, multi-operation structural
        scenarios, aggregate views).  ``None`` routes the scenario through
        the full validation pass, so a conservative answer is always sound.
        """
        return None


class IdentityView(View):
    """View whose plugin representation *is* the system-specific tree.

    Useful when the native tree already has the shape a plugin needs (for
    example the structural plugin on section/directive based formats), and
    as the trivial case in tests.
    """

    name = "identity"

    def transform(self, config_set: ConfigSet) -> ConfigSet:
        return config_set.clone()

    def untransform(self, view_set: ConfigSet, original: ConfigSet) -> ConfigSet:
        return view_set.clone()

    def untransform_touched(
        self, view_set: ConfigSet, original: ConfigSet, touched: Iterable[str]
    ) -> Optional[ConfigSet]:
        # The identity mapping can hand the mutated view trees straight to the
        # serialiser; the caller discards them before the view is rolled back.
        result = ConfigSet()
        for name in touched:
            if name not in view_set:
                return None
            result.add(view_set.get(name))
        return result

    def scenario_changes(
        self,
        scenario: "FaultScenario",
        view_set: ConfigSet,
        baseline_trees: ConfigSet,
    ) -> Optional[list[NodeChange | ChildrenChange]]:
        # Identity mapping: a view path *is* the system-tree path, so a
        # field edit maps one-to-one onto a baseline node, and a lone
        # structural operation onto splices of the child lists it edits.
        from repro.core.templates.base import SetFieldOperation  # cycle guard

        operations = scenario.operations
        if len(operations) == 1 and not isinstance(operations[0], SetFieldOperation):
            return _children_changes(operations[0], baseline_trees)
        latest: dict[tuple[str, tuple[int, ...]], NodeChange] = {}
        for operation in operations:
            if not isinstance(operation, SetFieldOperation):
                return None
            address = operation.target
            path = tuple(address.path)
            if not path or address.tree not in view_set or address.tree not in baseline_trees:
                return None
            node = node_at(view_set.get(address.tree), path)
            base = node_at(baseline_trees.get(address.tree), path)
            if node is None or base is None or node.kind != base.kind:
                return None
            latest[(address.tree, path)] = NodeChange(
                tree=address.tree,
                path=path,
                kind=node.kind,
                name=node.name,
                value=node.value,
                attrs=node.attrs,
            )
        return list(latest.values())


def _children_changes(operation, baseline_trees: ConfigSet) -> Optional[list[ChildrenChange]]:
    """The splices one structural operation makes, in baseline terms.

    Every address of a lone operation is a baseline address (the pristine
    view mirrors the baseline trees), so each edited container gets the
    splices of its baseline child list the operation makes: a removal
    ``(p, p + 1, ())``, an insertion ``(q, q, (node,))`` or a reordered
    prefix ``(0, k, permutation)``.  Inserted nodes are the operation's own
    snapshot, which every application clones and nothing mutates; a moved
    node is named by its index in its own container or by its baseline
    path in another.  Cross-file moves and unknown operations give None.
    """
    from repro.core.templates.base import (  # cycle guard
        DeleteOperation,
        InsertOperation,
        MoveOperation,
        PermuteChildrenOperation,
    )

    def container(address) -> Optional[ConfigNode]:
        if address.tree not in baseline_trees:
            return None
        return node_at(baseline_trees.get(address.tree), address.path)

    if isinstance(operation, (DeleteOperation, MoveOperation)):
        target = operation.target
        if not target.path:
            return None
        source = container(target.parent())
        position = target.path[-1]
        if source is None or position >= len(source.children):
            return None
        removal = (position, position + 1, ())
        if isinstance(operation, DeleteOperation):
            return [ChildrenChange(target.tree, target.path[:-1], (removal,))]
        destination = operation.new_parent
        if destination.tree != target.tree:
            return None
        if destination.path == target.path[:-1]:
            # the index counts the list without the moved child
            point = _insertion_point(operation.index, len(source.children) - 1)
            if point < position:
                splices = ((point, point, (position,)), removal)
            elif point == position:
                splices = ((position, position + 1, (position,)),)
            else:
                splices = (removal, (point + 1, point + 1, (position,)))
            return [ChildrenChange(target.tree, destination.path, splices)]
        new_parent = container(destination)
        if new_parent is None:
            return None
        point = _insertion_point(operation.index, len(new_parent.children))
        return [
            ChildrenChange(target.tree, target.path[:-1], (removal,)),
            ChildrenChange(target.tree, destination.path, ((point, point, (target.path,)),)),
        ]
    if isinstance(operation, InsertOperation):
        parent = container(operation.parent)
        if parent is None:
            return None
        point = _insertion_point(operation.index, len(parent.children))
        splice = (point, point, (operation.node,))
        return [ChildrenChange(operation.parent.tree, operation.parent.path, (splice,))]
    if isinstance(operation, PermuteChildrenOperation):
        if container(operation.parent) is None:
            return None
        permutation = tuple(operation.permutation)
        splice = (0, len(permutation), permutation)
        return [ChildrenChange(operation.parent.tree, operation.parent.path, (splice,))]
    return None


def _insertion_point(index: Optional[int], length: int) -> int:
    """Where an insertion at ``index`` lands in a list of ``length`` children.

    The rule of ``InsertOperation`` and ``MoveOperation``: None or an index
    past the end appends, and a negative index counts from the end, as
    ``list.insert`` does.
    """
    if index is None or index >= length:
        return length
    if index < 0:
        return max(0, length + index)
    return index
