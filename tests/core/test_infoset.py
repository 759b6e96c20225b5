"""Unit tests for the configuration infoset model."""

from repro.core.infoset import ConfigNode, ConfigSet, ConfigTree


def sample_tree() -> ConfigTree:
    root = ConfigNode(
        "file",
        name="my.cnf",
        children=[
            ConfigNode("comment", value=" header"),
            ConfigNode(
                "section",
                "mysqld",
                children=[
                    ConfigNode("directive", "port", "3306"),
                    ConfigNode("directive", "datadir", "/var/lib/mysql"),
                ],
            ),
            ConfigNode("section", "client", children=[ConfigNode("directive", "port", "3306")]),
        ],
    )
    return ConfigTree("my.cnf", root, dialect="ini")


class TestConfigNode:
    def test_append_returns_the_child(self):
        parent = ConfigNode("file")
        child = parent.append(ConfigNode("directive", "port"))
        assert parent.children == [child]

    def test_insert_at_position(self):
        parent = ConfigNode("file", children=[ConfigNode("directive", "a"), ConfigNode("directive", "c")])
        parent.insert(1, ConfigNode("directive", "b"))
        assert [c.name for c in parent.children] == ["a", "b", "c"]

    def test_walk_document_order(self):
        tree = sample_tree()
        kinds = [node.kind for node in tree.root.walk()]
        assert kinds[0] == "file"
        assert kinds.count("directive") == 3
        assert kinds.count("section") == 2

    def test_walk_with_paths_yields_each_node_with_its_index_path(self):
        tree = sample_tree()
        pairs = list(tree.root.walk_with_paths())
        assert [node for node, _ in pairs] == list(tree.root.walk())
        assert pairs[0][1] == () and pairs[-1][1] == (2, 0)
        for node, path in pairs:
            reached = tree.root
            for index in path:
                reached = reached.children[index]
            assert reached is node

    def test_descendants_excludes_self(self):
        tree = sample_tree()
        assert all(node is not tree.root for node in tree.root.descendants())

    def test_find_all_and_first(self):
        tree = sample_tree()
        ports = tree.root.find_all(lambda n: n.name == "port")
        assert len(ports) == 2
        first = tree.root.find_first(lambda n: n.name == "port")
        assert first is ports[0]

    def test_find_first_returns_none_when_absent(self):
        assert ConfigNode("file").find_first(lambda n: n.name == "x") is None

    def test_children_of_kind(self):
        tree = sample_tree()
        assert len(tree.root.children_of_kind("section")) == 2

    def test_child_named_with_kind(self):
        tree = sample_tree()
        assert tree.root.child_named("mysqld", kind="section") is tree.root.children[1]
        assert tree.root.child_named("mysqld", kind="directive") is None

    def test_attrs_get_set(self):
        node = ConfigNode("directive", "port")
        assert node.get("separator", "=") == "="
        node.set("separator", " = ")
        assert node.get("separator") == " = "

    def test_clone_is_deep(self):
        tree = sample_tree()
        copy = tree.root.clone()
        assert copy.structurally_equal(tree.root)
        copy.children[1].children[0].value = "9999"
        assert tree.root.children[1].children[0].value == "3306"

    def test_clone_shares_no_node(self):
        tree = sample_tree()
        originals = {id(node) for node in tree.root.walk()}
        assert not originals & {id(node) for node in tree.root.clone().walk()}

    def test_structural_equality_detects_differences(self):
        a = sample_tree().root
        b = sample_tree().root
        assert a.structurally_equal(b)
        b.children[1].children[0].value = "1"
        assert not a.structurally_equal(b)

    def test_structural_equality_checks_attrs_and_children_count(self):
        a = ConfigNode("directive", "port", "1", attrs={"sep": "="})
        b = ConfigNode("directive", "port", "1", attrs={"sep": ":"})
        assert not a.structurally_equal(b)
        c = ConfigNode("directive", "port", "1", attrs={"sep": "="}, children=[ConfigNode("x")])
        assert not a.structurally_equal(c)

    def test_structural_equality_with_non_node(self):
        assert not ConfigNode("file").structurally_equal("not a node")

    def test_describe_and_pretty(self):
        node = ConfigNode("directive", "port", "3306")
        assert "port" in node.describe() and "3306" in node.describe()
        tree = sample_tree()
        dump = tree.root.pretty()
        assert "mysqld" in dump and "\n" in dump


class TestConfigTree:
    def test_clone_independent(self):
        tree = sample_tree()
        copy = tree.clone()
        copy.root.children[1].children[0].value = "1"
        assert tree.root.children[1].children[0].value == "3306"
        assert copy.name == tree.name and copy.dialect == tree.dialect

    def test_node_count(self):
        assert sample_tree().node_count() == 7

    def test_walk_and_find_all(self):
        tree = sample_tree()
        assert len(list(tree.walk())) == tree.node_count()
        assert len(tree.find_all(lambda n: n.kind == "directive")) == 3

    def test_structural_equality(self):
        assert sample_tree().structurally_equal(sample_tree())
        other = sample_tree()
        other.dialect = "apache"
        assert not sample_tree().structurally_equal(other)

    def test_pretty_contains_name(self):
        assert "my.cnf" in sample_tree().pretty()


class TestConfigSet:
    def test_add_get_contains(self):
        config_set = ConfigSet([sample_tree()])
        assert "my.cnf" in config_set
        assert config_set.get("my.cnf").dialect == "ini"
        assert "other.cnf" not in config_set

    def test_add_replaces_same_name(self):
        config_set = ConfigSet([sample_tree()])
        replacement = sample_tree()
        config_set.add(replacement)
        assert len(config_set) == 1
        assert config_set.get("my.cnf") is replacement

    def test_iteration_and_names(self):
        first = sample_tree()
        second = ConfigTree("extra.conf", ConfigNode("file"), dialect="lineconf")
        config_set = ConfigSet([first, second])
        assert config_set.names() == ["my.cnf", "extra.conf"]
        assert [tree.name for tree in config_set] == ["my.cnf", "extra.conf"]

    def test_clone_deep(self):
        config_set = ConfigSet([sample_tree()])
        copy = config_set.clone()
        copy.get("my.cnf").root.children[1].children[0].value = "1"
        assert config_set.get("my.cnf").root.children[1].children[0].value == "3306"

    def test_structural_equality(self):
        assert ConfigSet([sample_tree()]).structurally_equal(ConfigSet([sample_tree()]))
        modified = ConfigSet([sample_tree()])
        modified.get("my.cnf").root.children[1].children[0].value = "1"
        assert not ConfigSet([sample_tree()]).structurally_equal(modified)
        assert not ConfigSet([sample_tree()]).structurally_equal(ConfigSet())
