"""Dialect tests for the beyond-the-paper formats: nginxconf and sshdconf."""

import pytest

from repro.core.infoset import ConfigNode, ConfigTree
from repro.errors import ParseError, SerializationError
from repro.parsers.base import get_dialect


class TestNginxConfDialect:
    def setup_method(self):
        self.dialect = get_dialect("nginxconf")

    def test_nested_blocks_parse_into_sections(self):
        tree = self.dialect.parse(
            "http {\n    server {\n        listen 80;\n    }\n}\n", "nginx.conf"
        )
        http = tree.root.children[0]
        assert http.kind == "section" and http.name == "http"
        server = http.children[0]
        assert server.kind == "section" and server.name == "server"
        listen = server.children[0]
        assert (listen.kind, listen.name, listen.value) == ("directive", "listen", "80")

    def test_location_argument_is_preserved(self):
        tree = self.dialect.parse("location /api/v1 {\n    autoindex off;\n}\n", "n")
        location = tree.root.children[0]
        assert location.value == "/api/v1"
        assert self.dialect.serialize(tree) == "location /api/v1 {\n    autoindex off;\n}\n"

    def test_mime_type_directive_names_parse(self):
        tree = self.dialect.parse("types {\n    image/svg+xml  svg svgz;\n}\n", "mime.types")
        mapping = tree.root.children[0].children[0]
        assert mapping.name == "image/svg+xml"
        assert mapping.value == "svg svgz"

    def test_unbalanced_close_brace_is_a_parse_error(self):
        with pytest.raises(ParseError):
            self.dialect.parse("}\n", "n")

    def test_unclosed_block_is_a_parse_error(self):
        with pytest.raises(ParseError):
            self.dialect.parse("events {\n    worker_connections 1;\n", "n")

    def test_directive_without_semicolon_is_a_parse_error(self):
        with pytest.raises(ParseError):
            self.dialect.parse("user nginx\n", "n")

    def test_comments_and_blanks_roundtrip(self):
        text = "# top\nuser nginx;\n\nevents {\n    # inner\n}\n"
        assert self.dialect.roundtrip(text) == text

    def test_inline_comments_parse_and_roundtrip(self):
        # regression: real nginx accepts comments after ';', '{' and '}'
        text = "listen 80;  # the port\nhttp {  # begin\n    sendfile on; # fast\n}  # end\n"
        tree = self.dialect.parse(text, "n")
        listen = tree.root.children[0]
        assert (listen.name, listen.value) == ("listen", "80")
        assert self.dialect.serialize(tree) == text

    def test_valueless_directive_roundtrips(self):
        text = "internal;\n"
        tree = self.dialect.parse(text, "n")
        assert tree.root.children[0].value is None
        assert self.dialect.serialize(tree) == text

    def test_brace_spacing_and_close_indent_roundtrip(self):
        # regression: "events{" (no space) and oddly indented closing braces
        # used to be rewritten on the unmodified path
        for text in (
            "events{\n    worker_connections 10;\n}\n",
            "http {\n    server {\n        }\n}\n",
            "location / {\n    autoindex off;\n        }\n",
        ):
            assert self.dialect.roundtrip(text) == text

    def test_record_nodes_are_inexpressible(self):
        root = ConfigNode("file", name="n")
        root.append(ConfigNode("record", "www", "192.0.2.1"))
        with pytest.raises(SerializationError):
            self.dialect.serialize(ConfigTree("n", root, dialect="nginxconf"))


class TestSshdConfDialect:
    def setup_method(self):
        self.dialect = get_dialect("sshdconf")

    def test_match_blocks_collect_following_directives(self):
        tree = self.dialect.parse(
            "Port 22\nMatch User a\n    X11Forwarding no\nMatch Host b\n    Banner none\n",
            "sshd_config",
        )
        kinds = [(node.kind, node.name) for node in tree.root.children]
        assert kinds == [("directive", "Port"), ("section", "Match"), ("section", "Match")]
        first_match = tree.root.children[1]
        assert first_match.value == "User a"
        assert [child.name for child in first_match.children] == ["X11Forwarding"]

    def test_keyword_case_is_preserved_on_roundtrip(self):
        text = "pOrT 22\nmatch user a\n    x11forwarding no\n"
        assert self.dialect.roundtrip(text) == text

    def test_equals_separator_is_preserved(self):
        text = "PermitRootLogin=no\n"
        tree = self.dialect.parse(text, "s")
        assert tree.root.children[0].value == "no"
        assert self.dialect.serialize(tree) == text

    def test_valueless_keyword_has_no_value(self):
        tree = self.dialect.parse("UsePAM\n", "s")
        assert tree.root.children[0].value is None

    def test_trailing_whitespace_roundtrips(self):
        # regression: trailing blanks after a value were dropped on the
        # unmodified path (real hand-edited files have them)
        for text in ("Port 22   \n", "UsePAM  \n", "Match User a  \n    Banner none \n"):
            assert self.dialect.roundtrip(text) == text

    def test_nested_match_is_inexpressible(self):
        root = ConfigNode("file", name="s")
        outer = root.append(ConfigNode("section", "Match", "User a"))
        outer.append(ConfigNode("section", "Match", "User b"))
        with pytest.raises(SerializationError):
            self.dialect.serialize(ConfigTree("s", root, dialect="sshdconf"))

    def test_global_directive_after_match_is_inexpressible(self):
        root = ConfigNode("file", name="s")
        root.append(ConfigNode("section", "Match", "User a"))
        root.append(ConfigNode("directive", "Port", "2022", attrs={"separator": " "}))
        with pytest.raises(SerializationError):
            self.dialect.serialize(ConfigTree("s", root, dialect="sshdconf"))

    def test_moving_a_directive_into_a_match_block_is_expressible(self):
        text = "Port 22\nMatch User a\n    X11Forwarding no\n"
        tree = self.dialect.parse(text, "s")
        port = tree.root.children.pop(0)
        tree.root.children[0].append(port)
        out = self.dialect.serialize(tree)
        reparsed = self.dialect.parse(out, "s")
        match = reparsed.root.children[0]
        assert [child.name for child in match.children] == ["X11Forwarding", "Port"]
