"""Unit tests for the XPath-like node selection language."""

import pytest

from repro.core.infoset import ConfigNode
from repro.core.path import parse_path, select, select_one
from repro.errors import PathSyntaxError


@pytest.fixture
def root() -> ConfigNode:
    return ConfigNode(
        "file",
        name="httpd.conf",
        children=[
            ConfigNode("directive", "Listen", "80"),
            ConfigNode("directive", "ServerName", "example.org"),
            ConfigNode(
                "section",
                "VirtualHost",
                "*:80",
                children=[
                    ConfigNode("directive", "ServerName", "vhost.example.org"),
                    ConfigNode(
                        "section",
                        "Directory",
                        "/srv/www",
                        children=[ConfigNode("directive", "Options", "Indexes", attrs={"level": "inner"})],
                    ),
                ],
            ),
        ],
    )


class TestParsing:
    def test_parse_absolute(self):
        expr = parse_path("/file/directive")
        assert expr.absolute and len(expr.steps) == 2

    def test_parse_descendant(self):
        expr = parse_path("//directive")
        assert expr.steps[0].axis == "descendant"

    def test_parse_predicates(self):
        expr = parse_path("//directive[@name='Listen'][1]")
        assert len(expr.steps[0].predicates) == 2

    def test_str_roundtrip(self):
        assert str(parse_path("//directive")) == "//directive"

    @pytest.mark.parametrize("bad", ["", "   ", "//", "/file//", "//dir[@]", "//dir[name=]", "foo/[1]"])
    def test_malformed_paths_raise(self, bad):
        with pytest.raises(PathSyntaxError):
            parse_path(bad)

    def test_non_string_raises(self):
        with pytest.raises(PathSyntaxError):
            parse_path(None)  # type: ignore[arg-type]


class TestSelection:
    def test_absolute_child_steps(self, root):
        results = select(root, "/file/directive")
        assert [node.name for node in results] == ["Listen", "ServerName"]

    def test_absolute_requires_matching_root_kind(self, root):
        assert select(root, "/section/directive") == []

    def test_descendant_axis_finds_nested(self, root):
        assert len(select(root, "//directive")) == 4

    def test_wildcard(self, root):
        assert len(select(root, "/file/*")) == 3

    def test_name_predicate(self, root):
        results = select(root, "//directive[@name='ServerName']")
        assert len(results) == 2

    def test_value_predicate(self, root):
        results = select(root, "//directive[@value='80']")
        assert [node.name for node in results] == ["Listen"]

    def test_attr_predicate(self, root):
        results = select(root, "//directive[@level='inner']")
        assert [node.name for node in results] == ["Options"]

    def test_attr_presence_predicate(self, root):
        assert len(select(root, "//directive[@level]")) == 1

    def test_kind_predicate(self, root):
        assert len(select(root, "//*[@kind='section']")) == 2

    def test_positional_predicate(self, root):
        results = select(root, "/file/directive[2]")
        assert [node.name for node in results] == ["ServerName"]

    def test_chained_steps_after_descendant(self, root):
        results = select(root, "//section/directive")
        assert {node.name for node in results} == {"ServerName", "Options"}

    def test_relative_path_from_context_node(self, root):
        vhost = root.children[2]
        results = select(vhost, "section/directive")
        assert [node.name for node in results] == ["Options"]

    def test_no_duplicates_from_overlapping_matches(self, root):
        results = select(root, "//section//directive")
        assert len(results) == len({id(node) for node in results})

    def test_select_one(self, root):
        assert select_one(root, "//directive[@name='Listen']").value == "80"
        assert select_one(root, "//directive[@name='Missing']") is None

    def test_descendant_first_step_matches_root_itself(self):
        lone = ConfigNode("directive", "port")
        assert select(lone, "//directive") == [lone]
