"""Apply/undo protocol: operations invert exactly, scenarios roll back.

The engine reuses one working view across a whole campaign; that is only
sound if every application can be undone to a byte-identical state.  These
tests exercise each built-in operation's inverse, the scenario-level context
manager, and the copy-on-write fallback for operations without an inverse.
"""

import pytest

from repro.core.infoset import ConfigNode, ConfigSet, ConfigTree
from repro.core.templates.base import (
    DeleteOperation,
    FaultScenario,
    InsertOperation,
    MoveOperation,
    NodeAddress,
    Operation,
    SetFieldOperation,
    resolve_address,
)
from repro.plugins.structural import PermuteChildrenOperation


def build_set() -> ConfigSet:
    root = ConfigNode(
        "file",
        name="app.conf",
        children=[
            ConfigNode("section", "server", children=[
                ConfigNode("directive", "port", "8080", attrs={"separator": " = "}),
                ConfigNode("directive", "host", "localhost"),
            ]),
            ConfigNode("directive", "log_level", "info"),
        ],
    )
    other = ConfigNode("file", name="extra.conf", children=[
        ConfigNode("directive", "alpha", "1"),
    ])
    return ConfigSet([
        ConfigTree("app.conf", root, dialect="ini"),
        ConfigTree("extra.conf", other, dialect="ini"),
    ])


def snapshot(config_set: ConfigSet) -> ConfigSet:
    return config_set.clone()


OPERATIONS = [
    DeleteOperation(NodeAddress("app.conf", (0, 1))),
    InsertOperation(NodeAddress("app.conf", (0,)), ConfigNode("directive", "extra", "x")),
    InsertOperation(NodeAddress("app.conf", (0,)), ConfigNode("directive", "first", "y"), index=0),
    MoveOperation(NodeAddress("app.conf", (0, 0)), NodeAddress("app.conf", ())),
    MoveOperation(NodeAddress("app.conf", (1,)), NodeAddress("app.conf", (0,)), index=0),
    MoveOperation(NodeAddress("app.conf", (0, 0)), NodeAddress("extra.conf", ())),
    SetFieldOperation(NodeAddress("app.conf", (0, 0)), "value", "9090"),
    SetFieldOperation(NodeAddress("app.conf", (0, 0)), "name", "listen_port"),
    SetFieldOperation(NodeAddress("app.conf", (0, 0)), "attr:separator", ": "),
    SetFieldOperation(NodeAddress("app.conf", (0, 0)), "attr:brand_new", "v"),
    PermuteChildrenOperation(NodeAddress("app.conf", (0,)), (1, 0)),
]


class TestOperationUndo:
    @pytest.mark.parametrize("operation", OPERATIONS, ids=lambda op: op.describe())
    def test_undo_restores_exact_state(self, operation):
        config_set = build_set()
        pristine = snapshot(config_set)
        undo = operation.apply_with_undo(config_set)
        assert not config_set.structurally_equal(pristine), "operation must change the set"
        undo()
        assert config_set.structurally_equal(pristine)

    @pytest.mark.parametrize("operation", OPERATIONS, ids=lambda op: op.describe())
    def test_apply_with_undo_matches_plain_apply(self, operation):
        via_undo = build_set()
        via_apply = build_set()
        operation.apply_with_undo(via_undo)
        operation.apply(via_apply)
        assert via_undo.structurally_equal(via_apply)

    @pytest.mark.parametrize("operation", OPERATIONS, ids=lambda op: op.describe())
    def test_touched_trees_cover_the_mutation(self, operation):
        config_set = build_set()
        pristine = snapshot(config_set)
        touched = operation.touched_trees()
        assert touched is not None and touched
        operation.apply(config_set)
        for name in pristine.names():
            if name not in touched:
                assert config_set.get(name).structurally_equal(pristine.get(name))

    def test_insert_undo_removes_only_the_copy(self):
        config_set = build_set()
        parent = resolve_address(config_set, NodeAddress("app.conf", (0,)))
        before = len(parent.children)
        op = InsertOperation(NodeAddress("app.conf", (0,)), ConfigNode("directive", "dup", "1"))
        undo = op.apply_with_undo(config_set)
        assert len(parent.children) == before + 1
        undo()
        assert len(parent.children) == before

    def test_set_field_undo_removes_attr_that_did_not_exist(self):
        config_set = build_set()
        node = resolve_address(config_set, NodeAddress("app.conf", (0, 0)))
        assert "fresh" not in node.attrs
        undo = SetFieldOperation(
            NodeAddress("app.conf", (0, 0)), "attr:fresh", "v"
        ).apply_with_undo(config_set)
        assert node.attrs["fresh"] == "v"
        undo()
        assert "fresh" not in node.attrs


class OpaqueOperation(Operation):
    """An operation without an inverse (exercises the CoW fallback)."""

    def __init__(self, target):
        self.target = target

    def apply(self, config_set):
        resolve_address(config_set, self.target).value = "mutated"

    def describe(self):
        return "opaque mutation"

    def touched_trees(self):
        return frozenset({self.target.tree})


class TestScenarioAppliedTo:
    def test_fast_path_mutates_in_place_and_rolls_back(self):
        config_set = build_set()
        pristine = snapshot(config_set)
        scenario = FaultScenario(
            "s1", "several ops", "test",
            operations=(
                SetFieldOperation(NodeAddress("app.conf", (0, 0)), "value", "1"),
                DeleteOperation(NodeAddress("app.conf", (1,))),
                InsertOperation(NodeAddress("extra.conf", ()), ConfigNode("directive", "n", "2")),
            ),
        )
        with scenario.applied_to(config_set) as mutated:
            assert mutated is config_set  # no clone: the working copy itself
            assert not config_set.structurally_equal(pristine)
        assert config_set.structurally_equal(pristine)

    def test_fast_path_does_not_clone(self, clone_counts):
        config_set = build_set()
        scenario = FaultScenario(
            "s2", "one op", "test",
            operations=(SetFieldOperation(NodeAddress("app.conf", (0, 0)), "value", "1"),),
        )
        with scenario.applied_to(config_set):
            pass
        assert clone_counts == {"set": 0, "tree": 0}
        scenario.apply(config_set)  # the reference path clones: the counter is live
        assert clone_counts == {"set": 1, "tree": len(config_set)}

    def test_matches_full_clone_apply(self):
        scenario = FaultScenario(
            "s3", "mixed", "test",
            operations=(
                DeleteOperation(NodeAddress("app.conf", (0, 1))),
                SetFieldOperation(NodeAddress("app.conf", (0, 0)), "value", "42"),
            ),
        )
        reference = scenario.apply(build_set())
        config_set = build_set()
        with scenario.applied_to(config_set) as mutated:
            assert mutated.structurally_equal(reference)

    def test_cow_fallback_for_opaque_operation(self):
        config_set = build_set()
        pristine = snapshot(config_set)
        scenario = FaultScenario(
            "s4", "no inverse", "test",
            operations=(OpaqueOperation(NodeAddress("app.conf", (0, 0))),),
        )
        with scenario.applied_to(config_set) as mutated:
            assert mutated is not config_set
            assert config_set.structurally_equal(pristine)  # input untouched
            assert resolve_address(mutated, NodeAddress("app.conf", (0, 0))).value == "mutated"
            # copy-on-write: the untouched tree is shared, not cloned
            assert mutated.get("extra.conf") is config_set.get("extra.conf")
        assert config_set.structurally_equal(pristine)

    def test_failed_application_rolls_back_applied_prefix(self):
        config_set = build_set()
        pristine = snapshot(config_set)
        scenario = FaultScenario(
            "s5", "second op fails", "test",
            operations=(
                SetFieldOperation(NodeAddress("app.conf", (0, 0)), "value", "1"),
                DeleteOperation(NodeAddress("app.conf", (9, 9))),  # bad address
            ),
        )
        from repro.errors import TemplateError

        with pytest.raises(TemplateError):
            with scenario.applied_to(config_set):
                pass  # pragma: no cover - never reached
        assert config_set.structurally_equal(pristine)

    def test_touched_trees_union_and_opaque(self):
        mixed = FaultScenario(
            "s6", "", "test",
            operations=(
                SetFieldOperation(NodeAddress("app.conf", ()), "value", "x"),
                InsertOperation(NodeAddress("extra.conf", ()), ConfigNode("directive", "d")),
            ),
        )
        assert mixed.touched_trees() == {"app.conf", "extra.conf"}
        opaque = FaultScenario(
            "s7", "", "test",
            operations=(OpaqueOperation(NodeAddress("app.conf", ())), DeleteOperation(NodeAddress("app.conf", (0,)))),
        )
        # OpaqueOperation reports its tree, so the union is still known
        assert opaque.touched_trees() == {"app.conf"}

    def test_scenario_is_replayable_after_undo(self):
        config_set = build_set()
        scenario = FaultScenario(
            "s8", "", "test",
            operations=(DeleteOperation(NodeAddress("app.conf", (0, 0))),),
        )
        with scenario.applied_to(config_set) as first:
            first_mutated = first.clone()
        with scenario.applied_to(config_set) as second:
            assert second.structurally_equal(first_mutated)
