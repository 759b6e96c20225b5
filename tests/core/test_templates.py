"""Unit tests for fault scenarios, node addresses and primitive templates."""

import random

import pytest

from repro.core.infoset import ConfigNode, ConfigSet, ConfigTree
from repro.core.templates import (
    DeleteOperation,
    DeleteTemplate,
    DuplicateTemplate,
    FaultScenario,
    InsertOperation,
    InsertTemplate,
    ModifyTemplate,
    MoveOperation,
    MoveTemplate,
    NodeAddress,
    SetFieldOperation,
    SetValueTemplate,
    resolve_address,
)
from repro.core.path import PathExpr
from repro.core.templates.base import AddressIndex
from repro.core.templates.primitives import _node_label
from repro.errors import TemplateError


def build_set() -> ConfigSet:
    tree = ConfigTree(
        "app.conf",
        ConfigNode(
            "file",
            name="app.conf",
            children=[
                ConfigNode("section", "main", children=[
                    ConfigNode("directive", "port", "8080"),
                    ConfigNode("directive", "workers", "4"),
                ]),
                ConfigNode("section", "logging", children=[
                    ConfigNode("directive", "level", "info"),
                ]),
            ],
        ),
        dialect="ini",
    )
    return ConfigSet([tree])


def _nested_move_scenarios(template: MoveTemplate, config_set: ConfigSet) -> list[FaultScenario]:
    """``MoveTemplate.generate`` as a nested loop that reselects destinations per target."""
    scenarios = []
    addresses = AddressIndex(config_set)
    for node, address in template.select_targets(config_set, addresses):
        for tree in config_set:
            for dest in template.destination.select(tree.root):
                dest_address = addresses.address_of(dest)
                if dest_address.tree == address.tree:
                    if dest_address.path[: len(address.path)] == address.path:
                        continue
                    if not template.include_current_parent and dest_address.path == address.path[:-1]:
                        continue
                scenarios.append(
                    FaultScenario(
                        scenario_id=f"move-{len(scenarios)}-{_node_label(node)}",
                        description=(
                            f"move {_node_label(node)} from {address} "
                            f"into {_node_label(dest)} ({dest_address})"
                        ),
                        category=template.category,
                        operations=(MoveOperation(address, dest_address),),
                        metadata={
                            "target": str(address),
                            "destination": str(dest_address),
                            "node": _node_label(node),
                        },
                    )
                )
    return scenarios


@pytest.fixture
def config_set() -> ConfigSet:
    return build_set()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)


class TestAddressing:
    def test_address_of_and_resolve(self, config_set):
        node = config_set.get("app.conf").root.children[0].children[1]
        address = AddressIndex(config_set).address_of(node)
        assert address == NodeAddress("app.conf", (0, 1))
        assert resolve_address(config_set, address) is node

    def test_address_of_root(self, config_set):
        root = config_set.get("app.conf").root
        assert AddressIndex(config_set).address_of(root).path == ()

    def test_address_of_foreign_node_raises(self, config_set):
        index = AddressIndex(config_set)
        assert ConfigNode("directive", "x") not in index
        with pytest.raises(TemplateError):
            index.address_of(ConfigNode("directive", "x"))

    def test_resolve_unknown_tree_raises(self, config_set):
        with pytest.raises(TemplateError):
            resolve_address(config_set, NodeAddress("nope.conf", ()))

    def test_resolve_stale_path_raises(self, config_set):
        with pytest.raises(TemplateError):
            resolve_address(config_set, NodeAddress("app.conf", (0, 9)))

    def test_parent_and_child_helpers(self):
        address = NodeAddress("a", (1, 2))
        assert address.parent() == NodeAddress("a", (1,))
        assert address.child(0) == NodeAddress("a", (1, 2, 0))
        with pytest.raises(TemplateError):
            NodeAddress("a", ()).parent()

    def test_str_representation(self):
        assert str(NodeAddress("a.conf", (1, 2))) == "a.conf:1/2"
        assert str(NodeAddress("a.conf", ())) == "a.conf:."


class TestOperations:
    def test_delete_operation(self, config_set):
        op = DeleteOperation(NodeAddress("app.conf", (0, 0)))
        op.apply(config_set)
        section = config_set.get("app.conf").root.children[0]
        assert [c.name for c in section.children] == ["workers"]
        assert "delete" in op.describe()

    @pytest.mark.parametrize("apply", ["apply", "apply_with_undo"])
    def test_delete_root_raises(self, config_set, apply):
        operation = DeleteOperation(NodeAddress("app.conf", ()))
        with pytest.raises(TemplateError, match="cannot delete the root"):
            getattr(operation, apply)(config_set)
        assert config_set.structurally_equal(build_set())

    def test_insert_operation_appends_clone(self, config_set):
        new_node = ConfigNode("directive", "timeout", "30")
        op = InsertOperation(NodeAddress("app.conf", (1,)), new_node)
        op.apply(config_set)
        op.apply(config_set)  # replayable: the snapshot is cloned every time
        logging_section = config_set.get("app.conf").root.children[1]
        inserted = [c for c in logging_section.children if c.name == "timeout"]
        assert len(inserted) == 2
        assert inserted[0] is not new_node

    def test_insert_operation_with_index(self, config_set):
        op = InsertOperation(NodeAddress("app.conf", (0,)), ConfigNode("directive", "first"), index=0)
        op.apply(config_set)
        assert config_set.get("app.conf").root.children[0].children[0].name == "first"

    def test_move_operation(self, config_set):
        op = MoveOperation(NodeAddress("app.conf", (0, 0)), NodeAddress("app.conf", (1,)))
        op.apply(config_set)
        root = config_set.get("app.conf").root
        assert [c.name for c in root.children[0].children] == ["workers"]
        assert [c.name for c in root.children[1].children] == ["level", "port"]

    @pytest.mark.parametrize("apply", ["apply", "apply_with_undo"])
    @pytest.mark.parametrize(
        "target, destination",
        [((0,), (0, 0)), ((0,), (0,)), ((), (1,))],
        ids=["into-child", "into-itself", "root-into-child"],
    )
    def test_move_into_own_subtree_raises(self, config_set, apply, target, destination):
        operation = MoveOperation(NodeAddress("app.conf", target), NodeAddress("app.conf", destination))
        with pytest.raises(TemplateError, match="own subtree"):
            getattr(operation, apply)(config_set)
        assert config_set.structurally_equal(build_set())

    def test_set_field_operation_variants(self, config_set):
        SetFieldOperation(NodeAddress("app.conf", (0, 0)), "value", "9090").apply(config_set)
        SetFieldOperation(NodeAddress("app.conf", (0, 0)), "name", "listen_port").apply(config_set)
        SetFieldOperation(NodeAddress("app.conf", (0, 0)), "attr:separator", " = ").apply(config_set)
        node = config_set.get("app.conf").root.children[0].children[0]
        assert (node.name, node.value, node.attrs["separator"]) == ("listen_port", "9090", " = ")

    def test_set_field_unknown_field_raises(self, config_set):
        with pytest.raises(TemplateError):
            SetFieldOperation(NodeAddress("app.conf", (0, 0)), "bogus", "x").apply(config_set)


class TestFaultScenario:
    def test_apply_returns_mutated_copy(self, config_set):
        scenario = FaultScenario(
            scenario_id="s1",
            description="delete port",
            category="omission",
            operations=(DeleteOperation(NodeAddress("app.conf", (0, 0))),),
        )
        mutated = scenario.apply(config_set)
        assert len(mutated.get("app.conf").root.children[0].children) == 1
        assert len(config_set.get("app.conf").root.children[0].children) == 2

    def test_apply_is_repeatable(self, config_set):
        scenario = FaultScenario(
            scenario_id="s2",
            description="set port",
            category="modification",
            operations=(SetFieldOperation(NodeAddress("app.conf", (0, 0)), "value", "1"),),
        )
        first = scenario.apply(config_set)
        second = scenario.apply(config_set)
        assert first.structurally_equal(second)

    def test_describe_operations(self, config_set):
        scenario = FaultScenario(
            scenario_id="s3",
            description="two ops",
            category="x",
            operations=(
                DeleteOperation(NodeAddress("app.conf", (0, 0))),
                SetFieldOperation(NodeAddress("app.conf", (1, 0)), "value", "debug"),
            ),
        )
        descriptions = scenario.describe_operations()
        assert len(descriptions) == 2 and all(isinstance(d, str) for d in descriptions)


class TestPrimitiveTemplates:
    def test_delete_template_one_scenario_per_target(self, config_set, rng):
        scenarios = DeleteTemplate("//directive").generate(config_set, rng)
        assert len(scenarios) == 3
        assert {s.category for s in scenarios} == {"omission"}
        ids = [s.scenario_id for s in scenarios]
        assert len(ids) == len(set(ids))

    def test_delete_template_applies_cleanly(self, config_set, rng):
        scenario = DeleteTemplate("//directive[@name='workers']").generate(config_set, rng)[0]
        mutated = scenario.apply(config_set)
        assert mutated.get("app.conf").root.find_first(lambda n: n.name == "workers") is None

    def test_duplicate_template_default_destination(self, config_set, rng):
        scenarios = DuplicateTemplate("//directive[@name='port']").generate(config_set, rng)
        mutated = scenarios[0].apply(config_set)
        ports = mutated.get("app.conf").root.find_all(lambda n: n.name == "port")
        assert len(ports) == 2

    def test_duplicate_template_skips_a_root(self, config_set, rng):
        assert DuplicateTemplate("/file").generate(config_set, rng) == []

    def test_duplicate_template_explicit_destination(self, config_set, rng):
        template = DuplicateTemplate("//directive[@name='port']", destination="//section[@name='logging']")
        mutated = template.generate(config_set, rng)[0].apply(config_set)
        logging_section = mutated.get("app.conf").root.children[1]
        assert any(c.name == "port" for c in logging_section.children)

    def test_move_template_excludes_current_parent(self, config_set, rng):
        scenarios = MoveTemplate("//directive[@name='port']", "//section").generate(config_set, rng)
        assert len(scenarios) == 1  # only the logging section is a valid destination
        mutated = scenarios[0].apply(config_set)
        assert any(c.name == "port" for c in mutated.get("app.conf").root.children[1].children)

    def test_move_template_excludes_own_subtree(self, config_set, rng):
        scenarios = MoveTemplate("//section", "//*").generate(config_set, rng)
        pairs = {(s.metadata["target"], s.metadata["destination"]) for s in scenarios}
        # neither section moves into itself, its directives or the file root
        assert pairs == {
            ("app.conf:0", "app.conf:1"),
            ("app.conf:0", "app.conf:1/0"),
            ("app.conf:1", "app.conf:0"),
            ("app.conf:1", "app.conf:0/0"),
            ("app.conf:1", "app.conf:0/1"),
        }

    def test_move_template_can_include_current_parent(self, config_set, rng):
        scenarios = MoveTemplate(
            "//directive[@name='port']", "//section", include_current_parent=True
        ).generate(config_set, rng)
        assert len(scenarios) == 2

    def test_move_template_selects_destinations_once_per_tree(self, config_set, rng, monkeypatch):
        second = build_set().get("app.conf")
        second.name = "other.conf"
        config_set.add(second)
        template = MoveTemplate("//directive", "//section")
        calls = []
        original_select = PathExpr.select

        def counting_select(self, root):
            if self is template.destination:
                calls.append(root)
            return original_select(self, root)

        monkeypatch.setattr(PathExpr, "select", counting_select)
        scenarios = template.generate(config_set, rng)
        assert calls == [tree.root for tree in config_set]
        monkeypatch.undo()
        assert scenarios == _nested_move_scenarios(template, config_set)
        assert len(scenarios) == 6 * 3  # 6 directives, each into 3 of the 4 sections

    def test_insert_template(self, config_set, rng):
        foreign = ConfigNode("directive", "borrowed", "1")
        scenarios = InsertTemplate("//section", foreign).generate(config_set, rng)
        assert len(scenarios) == 2
        mutated = scenarios[1].apply(config_set)
        assert any(c.name == "borrowed" for c in mutated.get("app.conf").root.children[1].children)

    def test_insert_template_requires_nodes(self):
        with pytest.raises(TemplateError):
            InsertTemplate("//section", [])

    def test_set_value_template(self, config_set, rng):
        template = SetValueTemplate(
            "//directive[@name='workers']",
            mutator=lambda node, _rng: [("double", str(int(node.value) * 2))],
        )
        scenarios = template.generate(config_set, rng)
        assert len(scenarios) == 1
        mutated = scenarios[0].apply(config_set)
        assert mutated.get("app.conf").root.children[0].children[1].value == "8"
        assert scenarios[0].metadata["original"] == "4"
        assert scenarios[0].metadata["mutated"] == "8"

    def test_modify_template_on_name_field(self, config_set, rng):
        template = SetValueTemplate(
            "//directive[@name='level']",
            mutator=lambda node, _rng: [("upper", (node.name or "").upper())],
            field_name="name",
        )
        mutated = template.generate(config_set, rng)[0].apply(config_set)
        assert mutated.get("app.conf").root.children[1].children[0].name == "LEVEL"

    def test_modify_template_unknown_field_raises(self, config_set):
        class Broken(ModifyTemplate):
            field_name = "wrong"

            def mutations_for(self, node, rng):
                return []

        with pytest.raises(TemplateError):
            Broken("//directive").current_value(ConfigNode("directive", "a", "b"))

    def test_templates_or_operator_builds_union(self, config_set, rng):
        union = DeleteTemplate("//directive") | DeleteTemplate("//section")
        scenarios = union.generate(config_set, rng)
        assert len(scenarios) == 5
