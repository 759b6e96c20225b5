"""The incremental-revalidation protocol must be invisible in results.

The delta path (``SystemUnderTest.prepare`` once, ``start_delta`` per
scenario) exists to cut validation *cost*; these tests pin its one hard
contract -- profiles are identical with it on or off -- plus the guard and
fallback machinery that makes the contract hold:

* full parity across every SUT family x plugin family (the delta path must
  actually engage where supported, and fall back where not),
* a hypothesis property: every change the round-trip guard accepts produces
  a patched tree that reparses to itself, so the SUT revalidates exactly
  what a real parse of the mutated file would build -- for field edits and
  for structural edits (deleted, inserted, moved, reordered children),
* the sibling-independence contract of every container a dialect answers
  ``siblings_independent_in`` for, file ends included,
* fallback routing: newline smuggling, kind-changing typos, stale tinydns
  values and mutated include arguments all take the full path (or resolve
  identically through it),
* what the delta path skips stays skipped without changing answers:
  ``prepare`` parses each pristine file once, the databases' splice,
  Apache's scoped walk over its baseline summaries and directive table,
  and BIND's walk over its record table leave exactly the state of the
  walk that reuses nothing, and Apache and BIND compute only what their
  tables lack,
* baseline ownership (one per SUT instance), per-engine counters (the
  paper suite's delta decisions among them) and the spec/CLI knob.
"""

from __future__ import annotations

import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from repro.core.engine import InjectionEngine, _children_vetted
from repro.core.infoset import ConfigNode, ConfigSet
from repro.core.profile import InjectionOutcome, ResilienceProfile
from repro.core.spec import RESUME_IRRELEVANT_PATHS, ExecutionSpec, ExperimentSpec
from repro.core.suite import CampaignSuite
from repro.core.templates.base import (
    DeleteOperation,
    FaultScenario,
    InsertOperation,
    MoveOperation,
    NodeAddress,
    PermuteChildrenOperation,
)
from repro.errors import ConfErrError, SerializationError, TemplateError
from repro.parsers.base import ConfigDialect, available_dialects, get_dialect
from repro.plugins import (
    DnsSemanticErrorsPlugin,
    SpellingMistakesPlugin,
    StructuralErrorsPlugin,
    StructuralVariationsPlugin,
)
from repro.sut.apache import APACHE_DIRECTIVES, DEFAULT_HTTPD_CONF, SimulatedApache
from repro.registry import available_systems, get_system
from repro.sut.base import FunctionalTest, StartResult, SystemUnderTest, TestResult, split_sut
from repro.sut.dns import SimulatedBIND, SimulatedDjbdns
from repro.sut.incremental import (
    BaselineValidation,
    ChildrenChange,
    NodeChange,
    ScenarioDelta,
    node_at,
    patch_tree,
    patched_pieces,
    patched_trees,
)
from repro.sut.mysql import MYSQLD_OPTIONS, SimulatedMySQL
from repro.sut.nginx import SimulatedNginx
from repro.sut.postgres import POSTGRES_OPTIONS, SimulatedPostgres
from repro.sut.sshd import SimulatedSshd

ALL_SUTS = [
    SimulatedMySQL,
    SimulatedPostgres,
    SimulatedApache,
    SimulatedBIND,
    SimulatedDjbdns,
    SimulatedNginx,
    SimulatedSshd,
]


def _semantics(profile):
    """Everything of a profile except per-record wall clock."""
    return [
        (r.scenario_id, r.category, r.outcome, r.messages, r.failed_tests, r.metadata)
        for r in profile.records
    ]


def _run(engine, seed):
    """Every scenario of the engine's plugin at ``seed``, run in order."""
    scenarios = engine.plugin.generate(engine.view_set, random.Random(seed))
    return ResilienceProfile(engine.sut.name, [engine.run_scenario(s) for s in scenarios])


def _run_both(sut_class, plugin_factory, seed=11):
    """One campaign per mode; returns (semantics, stats) pairs."""
    runs = []
    for incremental in (True, False):
        engine = InjectionEngine(sut_class(), plugin_factory(), incremental=incremental)
        profile = _run(engine, seed)
        runs.append((_semantics(profile), engine.stats.snapshot()))
    return runs


def _directive_paths(tree):
    """(path, node) of every directive in the tree, in document order."""
    found = []

    def walk(node, path):
        for index, child in enumerate(node.children):
            child_path = path + (index,)
            if child.kind == "directive":
                found.append((child_path, child))
            walk(child, child_path)

    walk(tree.root, ())
    return found


# ----------------------------------------------------------------- full parity
class TestDeltaFullParity:
    """Same records, outcomes and messages with the fast path on or off."""

    @pytest.mark.parametrize("sut_class", ALL_SUTS, ids=lambda c: c.name)
    def test_spelling_parity_and_delta_engages(self, sut_class):
        # mutations_per_token caps the stream (the default is the paper's
        # exhaustive sweep -- tens of thousands of scenarios for Apache)
        (fast, fast_stats), (slow, slow_stats) = _run_both(
            sut_class, lambda: SpellingMistakesPlugin(mutations_per_token=2)
        )
        assert fast == slow
        assert fast_stats["delta_starts"] > 0, "the delta path never engaged"
        assert slow_stats["attempts"] == 0, "incremental=False must disable the path"

    @pytest.mark.parametrize("sut_class", ALL_SUTS, ids=lambda c: c.name)
    def test_structural_parity_and_delta_engages(self, sut_class):
        """Lone deletes, duplicates and moves take the delta path where the
        dialect is sibling-independent, with identical records."""
        (fast, fast_stats), (slow, _) = _run_both(sut_class, StructuralErrorsPlugin)
        assert fast == slow
        if sut_class is SimulatedApache:
            assert fast_stats["delta_starts"] > 0, "structural deltas never engaged"
            assert fast_stats["fallbacks"] == 0

    @pytest.mark.parametrize(
        "sut_class", [SimulatedMySQL, SimulatedApache, SimulatedNginx], ids=lambda c: c.name
    )
    def test_structural_variations_parity(self, sut_class):
        (fast, _), (slow, _) = _run_both(sut_class, StructuralVariationsPlugin)
        assert fast == slow

    @pytest.mark.parametrize(
        "sut_class", [SimulatedBIND, SimulatedDjbdns], ids=lambda c: c.name
    )
    def test_dns_semantic_parity_disables_delta(self, sut_class):
        """DnsRecordView normalises trees, so prepare refuses the delta path."""
        (fast, fast_stats), (slow, _) = _run_both(sut_class, DnsSemanticErrorsPlugin)
        assert fast == slow
        assert fast_stats["attempts"] == 0

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_parity_holds_for_arbitrary_seeds(self, seed):
        """Property: no seed's scenario stream can split the two modes."""
        (fast, _), (slow, _) = _run_both(
            SimulatedSshd, lambda: SpellingMistakesPlugin(mutations_per_token=1), seed=seed
        )
        assert fast == slow


# ------------------------------------------------------------- round-trip guard
class TestRoundTripGuard:
    """_vet_change only admits changes whose patched tree reparses to itself."""

    @pytest.fixture(scope="class")
    def prepared_mysql(self):
        engine = InjectionEngine(SimulatedMySQL(), SpellingMistakesPlugin())
        prepared = engine.prepare_incremental()
        assert prepared is not None
        return engine, prepared

    @given(
        pick=st.integers(0, 10**6),
        name=st.text("abcdefghijklmnopqrstuvwxyz_-#[= \t", min_size=1, max_size=12),
        value=st.one_of(
            st.none(),
            st.text("abcdefghijklmnopqrstuvwxyz0123456789#;[]=_ \t", max_size=16),
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_accepted_changes_reparse_to_themselves(self, prepared_mysql, pick, name, value):
        """Whatever a typo writes into a node, the guard admits it only if
        the patched tree means exactly what a real parse would read."""
        engine, prepared = prepared_mysql
        tree = prepared.trees.get("my.cnf")
        paths = _directive_paths(tree)
        path, node = paths[pick % len(paths)]
        change = NodeChange(
            tree="my.cnf",
            path=path,
            kind="directive",
            name=name,
            value=value,
            attrs=dict(node.attrs),
        )
        vetted = engine._vet_change(change, prepared.trees)
        if vetted is None:
            return  # guard fallback: the full pass handles it
        patched = patch_tree(tree, [vetted])
        assert patched is not None
        dialect = get_dialect(tree.dialect)
        reparsed = dialect.parse(dialect.serialize(patched), filename=tree.name)
        assert reparsed.structurally_equal(patched), (
            f"guard admitted {vetted!r} but the patched tree does not round-trip"
        )

    def test_newline_smuggling_is_refused(self, prepared_mysql):
        """A value splitting into two lines would add a node: fallback."""
        engine, prepared = prepared_mysql
        path, node = _directive_paths(prepared.trees.get("my.cnf"))[0]
        change = NodeChange(
            tree="my.cnf",
            path=path,
            kind="directive",
            name=node.name,
            value="1\nskip-networking",
            attrs=dict(node.attrs),
        )
        assert engine._vet_change(change, prepared.trees) is None

    def test_kind_changing_typo_is_refused(self):
        """An sshd keyword mutated to ``Match`` reparses as a section."""
        engine = InjectionEngine(SimulatedSshd(), SpellingMistakesPlugin())
        prepared = engine.prepare_incremental()
        assert prepared is not None
        tree = prepared.trees.get(SimulatedSshd.config_filename)
        path, node = next(
            (p, n) for p, n in _directive_paths(tree) if not n.children
        )
        change = NodeChange(
            tree=tree.name,
            path=path,
            kind="directive",
            name="Match",
            value="User root",
            attrs=dict(node.attrs),
        )
        assert engine._vet_change(change, prepared.trees) is None


    def test_a_stale_tinydns_value_is_refused(self):
        """A tinydns record holds its first field twice, as ``value`` and as
        ``attrs['fields'][0]``, and the serialiser writes the fields.  A
        change to ``value`` alone never reaches the file, so the guard must
        refuse it: admitting it would validate a typo the full pass never
        injects."""
        engine = InjectionEngine(SimulatedDjbdns(), SpellingMistakesPlugin())
        prepared = engine.prepare_incremental()
        assert prepared is not None
        tree = prepared.trees.get("data")
        index, node = next(
            (i, n) for i, n in enumerate(tree.root.children) if n.kind == "record" and n.value
        )
        assert node.get("fields")[0] == node.value
        typo = node.value + "9"
        stale = NodeChange("data", (index,), "record", node.name, typo, dict(node.attrs))
        assert engine._vet_change(stale, prepared.trees) is None
        # the same typo in both copies reads back as written
        fields = [typo, *node.get("fields")[1:]]
        both = NodeChange("data", (index,), "record", node.name, typo, dict(node.attrs, fields=fields))
        assert engine._vet_change(both, prepared.trees) == both


# ------------------------------------------------------------ structural guard
_ODD_TEXT = st.text("ab<>/#;{}= \t\n\\\"", max_size=8)


@st.composite
def _odd_nodes(draw, depth=0):
    """Inserted nodes with odd fields: missing indents, newlines in values..."""
    kind = draw(st.sampled_from(["directive", "comment", "blank", "section", "item"]))
    name = draw(
        st.one_of(st.sampled_from(["Listen", "ServerName", "Directory", "port"]), _ODD_TEXT)
    )
    value = draw(st.one_of(st.none(), st.sampled_from(["80", "/srv"]), _ODD_TEXT))
    attrs = {}
    if draw(st.booleans()):
        attrs["indent"] = draw(st.sampled_from(["", "    ", "\t", " x"]))
    if draw(st.booleans()):
        attrs["separator"] = draw(st.sampled_from([" ", "\t", "", " = "]))
    if kind == "blank" and draw(st.booleans()):
        attrs["raw"] = draw(st.sampled_from(["", "   ", "x"]))
    node = ConfigNode(kind, name=name, value=value, attrs=attrs)
    if kind == "section" and depth == 0:
        for child in draw(st.lists(_odd_nodes(depth=1), max_size=2)):
            node.append(child)
    return node


def _inserted_nodes(tree):
    """Snapshots a scenario may insert: copies of the tree's nodes, or odd ones."""
    copies = [node for node, path in tree.root.walk_with_paths() if path]
    return st.one_of(st.sampled_from(copies).map(lambda node: node.clone()), _odd_nodes())


def _containers(tree):
    """(node, path) of every node that holds children: the root and sections."""
    return [
        (node, path)
        for node, path in tree.root.walk_with_paths()
        if node.kind in ("file", "section")
    ]


def _draw_structural_scenario(data, tree):
    """A scenario of one random structural operation on ``tree``."""
    members = [path for _node, path in tree.root.walk_with_paths() if path]
    containers = _containers(tree)
    index = st.one_of(st.none(), st.integers(-3, 110))

    def address(path):
        return NodeAddress(tree.name, path)

    kind = data.draw(st.sampled_from(["delete", "insert", "move", "permute"]))
    if kind == "delete":
        operation = DeleteOperation(address(data.draw(st.sampled_from(members))))
    elif kind == "insert":
        _node, parent = data.draw(st.sampled_from(containers))
        operation = InsertOperation(
            address(parent), data.draw(_inserted_nodes(tree)), data.draw(index)
        )
    elif kind == "move":
        _node, parent = data.draw(st.sampled_from(containers))
        operation = MoveOperation(
            address(data.draw(st.sampled_from(members))), address(parent), data.draw(index)
        )
    else:
        node, parent = data.draw(st.sampled_from(containers))
        length = data.draw(st.integers(0, len(node.children)))
        permutation = data.draw(st.permutations(range(length)))
        operation = PermuteChildrenOperation(address(parent), tuple(permutation))
    return kind, FaultScenario("property", "property", "property", operations=(operation,))


def _structural_changes(engine, scenario, view_set, prepared):
    """The scenario's vetted changes; None when the guard refuses one."""
    with scenario.applied_to(view_set) as mutated:
        changes = engine.plugin.view.scenario_changes(scenario, mutated, prepared.trees)
    assert changes is not None, "a lone structural operation must be expressible"
    vetted = [engine._vet_change(change, prepared.trees) for change in changes]
    return None if any(change is None for change in vetted) else vetted


@pytest.fixture(scope="module")
def apache_structural():
    """An Apache structural engine with its trees and prepared baseline."""
    engine = InjectionEngine(SimulatedApache(), StructuralErrorsPlugin())
    prepared = engine.prepare_incremental()
    assert prepared is not None
    return engine, engine.config_set, engine.view_set, prepared


class TestStructuralGuard:
    """A lone structural operation is admitted only if the patched tree
    means exactly what a full parse of the materialised file would read."""

    @given(data=st.data())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_admitted_changes_match_a_full_start(self, apache_structural, data):
        engine, config_set, view_set, prepared = apache_structural
        kind, scenario = _draw_structural_scenario(data, prepared.trees.get("httpd.conf"))
        try:
            vetted = _structural_changes(engine, scenario, view_set, prepared)
        except TemplateError:
            return  # an impossible operation, e.g. a move into its own subtree
        if vetted is None:
            event("guard fallback")
            return  # the full pass handles it
        event(f"admitted {kind}")
        delta = ScenarioDelta((), tuple(vetted))
        patched = patched_trees(prepared.trees, delta).get("httpd.conf")
        dialect = get_dialect("apache")
        reparsed = dialect.parse(dialect.serialize(patched), filename="httpd.conf")
        assert reparsed.structurally_equal(patched)
        files = engine.materialize(scenario)
        assert dialect.parse(files["httpd.conf"], filename="httpd.conf").structurally_equal(patched)

        delta_result = SimulatedApache().start_delta(prepared, delta)
        full_result = SimulatedApache().start(files)
        assert (delta_result.started, delta_result.errors, delta_result.warnings) == (
            full_result.started,
            full_result.errors,
            full_result.warnings,
        )

    def test_file_end_must_survive(self):
        """Without a final newline a trailing empty line vanishes on reparse,
        so the guard keeps such a file's last child in place."""
        dialect = get_dialect("apache")
        tree = dialect.parse("Listen 80\n\nServerName x", filename="t.conf")
        drop_last = ChildrenChange("t.conf", (), ((2, 3, ()),))
        patched = patch_tree(tree, [drop_last])
        assert not dialect.parse(dialect.serialize(patched)).structurally_equal(patched)
        assert not _children_vetted(drop_last, tree, dialect)
        drop_first = ChildrenChange("t.conf", (), ((0, 1, ()),))
        assert _children_vetted(drop_first, tree, dialect)
        # the last child may move away and back, or be re-listed last
        for splices in (((2, 3, ()), (3, 3, (2,))), ((0, 3, (1, 0, 2)),)):
            assert _children_vetted(ChildrenChange("t.conf", (), splices), tree, dialect)
        for splices in (((0, 3, (2, 1, 0)),), ((3, 3, (0,)),), ((1, 3, ()),)):
            assert not _children_vetted(ChildrenChange("t.conf", (), splices), tree, dialect)


class TestPatchTree:
    """patch_tree copies the spine only and refuses entries it cannot place."""

    @pytest.fixture(scope="class")
    def tree(self):
        config = SimulatedApache().default_configuration()["httpd.conf"]
        return get_dialect("apache").parse(config, filename="httpd.conf")

    def test_only_the_spine_is_copied(self, tree):
        section = next(i for i, n in enumerate(tree.root.children) if n.children)
        inner = tree.root.children[section].children
        node = inner[0]
        change = NodeChange(
            "httpd.conf", (section, 0), node.kind, node.name, "changed", node.attrs
        )
        patched = patch_tree(tree, [change])
        assert patched.root is not tree.root
        for index, child in enumerate(patched.root.children):
            assert (child is tree.root.children[index]) == (index != section)
        patched_inner = patched.root.children[section].children
        assert patched_inner[0].value == "changed"
        assert all(a is b for a, b in zip(patched_inner[1:], inner[1:]))

    def test_a_move_spans_two_containers(self, tree):
        section = next(i for i, n in enumerate(tree.root.children) if n.children)
        moved = (section, 0)
        drop = ChildrenChange("httpd.conf", (section,), ((0, 1, ()),))
        end = len(tree.root.children)
        append = ChildrenChange("httpd.conf", (), ((end, end, (moved,)),))
        patched = patch_tree(tree, [drop, append])
        assert patched.root.children[-1] is tree.root.children[section].children[0]
        assert len(patched.root.children[section].children) == len(
            tree.root.children[section].children
        ) - 1

    @pytest.mark.parametrize("entry", [-1, 10**6, (), (0,) * 9, "0", True], ids=repr)
    def test_unresolvable_entries_refuse_the_patch(self, tree, entry):
        assert patch_tree(tree, [ChildrenChange("httpd.conf", (), ((1, 1, (entry,)),))]) is None

    @pytest.mark.parametrize(
        "splices",
        [
            ((2, 1, ()),),  # stop before start
            ((-1, 0, ()),),
            ((0, 10**6, ()),),  # past the end
            ((3, 4, ()), (1, 2, ())),  # out of order
            ((1, 3, ()), (2, 4, ())),  # overlapping
        ],
        ids=repr,
    )
    def test_malformed_splices_refuse_the_patch(self, tree, splices):
        assert patch_tree(tree, [ChildrenChange("httpd.conf", (), splices)]) is None
        assert patched_pieces(tree, [ChildrenChange("httpd.conf", (), splices)]) is None

    def test_two_changes_of_one_container_refuse_the_patch(self, tree):
        drop = ChildrenChange("httpd.conf", (), ((0, 1, ()),))
        assert patch_tree(tree, [drop, drop]) is None

    def test_a_node_cannot_be_moved_into_itself(self, tree):
        section = next(i for i, n in enumerate(tree.root.children) if n.children)
        into_itself = ChildrenChange("httpd.conf", (section,), ((1, 1, ((section,),)),))
        assert patch_tree(tree, [into_itself]) is None

    def test_pieces_are_runs_and_built_nodes(self, tree):
        """The root's pieces: maximal runs of untouched baseline children and
        the nodes the changes built, laid out as patch_tree lays them."""
        count = len(tree.root.children)
        section = next(i for i, n in enumerate(tree.root.children) if n.children)
        inner = tree.root.children[section].children[0]
        snapshot = ConfigNode("directive", name="Listen", value="81")
        changes = [
            ChildrenChange("httpd.conf", (), ((0, 1, ()), (5, 5, (snapshot, 3, 4)), (count, count, (1,)))),
            NodeChange("httpd.conf", (section, 0), inner.kind, inner.name, "changed", inner.attrs),
        ]
        pieces = patched_pieces(tree, changes)
        assert section > 5
        patched_section = pieces[3]
        assert pieces == [
            range(1, 5), snapshot, range(3, section), patched_section, range(section + 1, count), range(1, 2)
        ]
        assert patched_section.children[0].value == "changed"
        laid_out = [
            node
            for piece in pieces
            for node in (tree.root.children[piece.start : piece.stop] if type(piece) is range else [piece])
        ]
        patched = patch_tree(tree, changes).root.children
        assert len(patched) == len(laid_out)
        assert all(a is b or a.structurally_equal(b) for a, b in zip(patched, laid_out))


# ---------------------------------------------------- sibling independence
def _default_file(sut_class, filename):
    return sut_class().default_configuration()[filename]


#: Sample files of every dialect with containers answering
#: ``siblings_independent_in``: each shipped file, plus INI and sshd files
#: whose last section, with blank lines inside it, holds the file's last line.
SIBLING_INDEPENDENT_SAMPLES = {
    "apache": [("httpd.conf", _default_file(SimulatedApache, "httpd.conf"))],
    "namedconf": [("named.conf", _default_file(SimulatedBIND, "named.conf"))],
    "nginxconf": [("nginx.conf", _default_file(SimulatedNginx, "nginx.conf"))],
    "pgconf": [("postgresql.conf", _default_file(SimulatedPostgres, "postgresql.conf"))],
    "ini": [
        ("my.cnf", _default_file(SimulatedMySQL, "my.cnf")),
        ("my.cnf", "# top\n[client]\nport = 3306\n\n[mysqld]\n\nuser = mysql\n  \n; note\nskip-networking\n"),
    ],
    "sshdconf": [
        ("sshd_config", _default_file(SimulatedSshd, "sshd_config")),
        ("sshd_config", "Port 22\n\nMatch User a\n    X11Forwarding no\nMatch Group b\n\n    PermitTTY no\n  \n    # end\n"),
    ],
}


def _answering_containers(tree, dialect):
    """(node, path) of every node of ``tree`` that may hold children and
    for which ``dialect`` answers the per-container question yes."""
    return [
        (node, path)
        for node, path in tree.root.walk_with_paths()
        if (not path or node.children or node.kind == "section")
        and dialect.siblings_independent_in(node)
    ]


class TestSiblingIndependence:
    """Containers answering ``siblings_independent_in`` keep its promise."""

    def test_every_declaring_dialect_is_tested(self):
        declared = {
            name
            for name in available_dialects()
            if type(get_dialect(name)).siblings_independent_in
            is not ConfigDialect.siblings_independent_in
        }
        assert declared == set(SIBLING_INDEPENDENT_SAMPLES)
        for name, samples in SIBLING_INDEPENDENT_SAMPLES.items():
            dialect = get_dialect(name)
            for filename, text in samples:
                assert _answering_containers(dialect.parse(text, filename=filename), dialect)

    @pytest.mark.parametrize("dialect_name", sorted(SIBLING_INDEPENDENT_SAMPLES))
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_admitted_child_lists_read_back_as_patched(self, dialect_name, data):
        """Any mix of kept, moved-in and inserted children the guard admits,
        in any container answering yes, serialises to text that parses back
        to itself (kept children may repeat, drop out or change order)."""
        filename, text = data.draw(st.sampled_from(SIBLING_INDEPENDENT_SAMPLES[dialect_name]))
        ending = data.draw(st.sampled_from(["lf", "crlf", "no-final-newline"]))
        if ending == "crlf":
            text = text.replace("\n", "\r\n")
        elif ending == "no-final-newline":
            text = text[:-1]
        dialect = get_dialect(dialect_name)
        tree = dialect.parse(text, filename=filename)
        containers = _answering_containers(tree, dialect)
        # half the draws edit the container holding the file's last line
        container, path = data.draw(st.one_of(st.just(containers[-1]), st.sampled_from(containers)))
        event("root" if not path else "nested container")
        # any node but the container and its ancestors may be moved in
        movable = [
            p for _node, p in tree.root.walk_with_paths() if p and path[: len(p)] != p
        ]
        count = len(container.children)
        entry = st.one_of(_inserted_nodes(tree), st.sampled_from(movable))
        if count:
            entry = st.one_of(st.integers(0, count - 1), entry)
        cut = st.one_of(st.just(count), st.integers(0, count))  # often at the end
        cuts = sorted(data.draw(st.lists(cut, max_size=6)))
        splices = tuple(
            (start, stop, tuple(data.draw(st.lists(entry, max_size=3))))
            for start, stop in zip(cuts[::2], cuts[1::2])
        )
        change = ChildrenChange(filename, path, splices)
        if not _children_vetted(change, tree, dialect):
            event("refused")
            return
        event("admitted")
        patched = patch_tree(tree, [change])
        reparsed = dialect.parse(dialect.serialize(patched), filename=filename)
        assert reparsed.structurally_equal(patched)

    @pytest.mark.parametrize("dialect_name", ["ini", "sshdconf"])
    def test_the_last_section_keeps_the_file_end(self, dialect_name):
        """The section holding the last line of a file without a final
        newline keeps its last child last: a blank line moved there would
        vanish on reparse."""
        filename, text = SIBLING_INDEPENDENT_SAMPLES[dialect_name][1]
        dialect = get_dialect(dialect_name)
        tree = dialect.parse(text.rstrip("\n"), filename=filename)
        last = (len(tree.root.children) - 1,)
        section = node_at(tree, last)
        blank = next(i for i, node in enumerate(section.children) if node.kind == "blank")
        count = len(section.children)
        to_the_end = ChildrenChange(filename, last, ((blank, blank + 1, ()), (count, count, (blank,))))
        patched = patch_tree(tree, [to_the_end])
        assert not dialect.parse(dialect.serialize(patched), filename=filename).structurally_equal(patched)
        assert not _children_vetted(to_the_end, tree, dialect)
        # with a final newline the same move reads back as patched
        tree = dialect.parse(text.rstrip("\n") + "\n", filename=filename)
        patched = patch_tree(tree, [to_the_end])
        assert dialect.parse(dialect.serialize(patched), filename=filename).structurally_equal(patched)
        assert _children_vetted(to_the_end, tree, dialect)

    @pytest.mark.parametrize(
        "dialect_name, text",
        [
            ("ini", "port = 1\n[mysqld]\nuser = x\n"),
            ("sshdconf", "Port 22\nMatch User a\n    X11Forwarding no\n"),
        ],
    )
    def test_a_header_claims_a_directive_moved_after_it(self, dialect_name, text):
        """Why the root answers no: a root directive moved after a section
        header would read back inside that section (sshd refuses to write
        it at all, since a full pass would read it so)."""
        dialect = get_dialect(dialect_name)
        tree = dialect.parse(text, filename="f")
        moved = ChildrenChange("f", (), ((0, 1, ()), (2, 2, (0,))))
        patched = patch_tree(tree, [moved])
        try:
            reparsed = dialect.parse(dialect.serialize(patched), filename="f")
        except SerializationError:
            assert dialect_name == "sshdconf"
        else:
            assert not reparsed.structurally_equal(patched)
            assert reparsed.root.children[0].children[-1].structurally_equal(tree.root.children[0])
        assert not dialect.siblings_independent_in(tree.root)
        assert not _children_vetted(moved, tree, dialect)
        # inside the section the same directive reads back wherever it goes,
        # but a section snapshot or a node moved in from the root does not
        section = tree.root.children[1]
        assert dialect.siblings_independent_in(section)
        directive = section.children[0].clone()
        for entry, admitted in ((directive, True), (section.clone(), False), ((0,), False)):
            change = ChildrenChange("f", (1,), ((0, 0, (entry,)),))
            assert _children_vetted(change, tree, dialect) is admitted

    def test_zone_files_never_answer_yes(self):
        """Zone owners and $ORIGIN carry meaning across siblings, so zone
        files never take structural deltas."""
        dialect = get_dialect("bindzone")
        tree = dialect.parse(_default_file(SimulatedBIND, "example.com.zone"), filename="z")
        assert not any(dialect.siblings_independent_in(node) for node in tree.walk())


# ------------------------------------------------------------- fallback routing
class TestFallbackRouting:
    def test_mutated_include_argument_matches_full_start(self):
        """nginx: an include pointing at a missing file must fail through the
        delta path with the same diagnostic a full start produces."""
        engine = InjectionEngine(SimulatedNginx(), SpellingMistakesPlugin())
        prepared = engine.prepare_incremental()
        assert prepared is not None
        tree = prepared.trees.get("nginx.conf")
        path, node = next(
            (p, n) for p, n in _directive_paths(tree) if n.name == "include"
        )
        change = NodeChange(
            tree="nginx.conf",
            path=path,
            kind="directive",
            name="include",
            value="mime.typo",
            attrs=dict(node.attrs),
        )
        vetted = engine._vet_change(change, prepared.trees)
        assert vetted is not None
        sut = engine.sut
        delta_result = sut.start_delta(prepared, ScenarioDelta((vetted,)))
        assert delta_result is not None

        mutated_files = dict(prepared.files)
        mutated_files["nginx.conf"] = mutated_files["nginx.conf"].replace(
            "mime.types", "mime.typo"
        )
        full_result = SimulatedNginx().start(mutated_files)
        assert delta_result.started == full_result.started is False
        assert delta_result.errors == full_result.errors
        assert "open()" in delta_result.errors[0]

    def test_missing_tree_falls_back(self):
        """A change addressing an unknown tree returns None from start_delta."""
        engine = InjectionEngine(SimulatedMySQL(), SpellingMistakesPlugin())
        prepared = engine.prepare_incremental()
        assert prepared is not None
        change = NodeChange(
            tree="no-such.conf", path=(0,), kind="directive", name="x", value="1"
        )
        assert engine.sut.start_delta(prepared, ScenarioDelta((change,))) is None


# ------------------------------------------------------------ delta protocol
class _CountingCheck(FunctionalTest):
    name = "counting-check"

    def __init__(self, runs):
        self.runs = runs

    def run(self, sut):
        self.runs.append(sut.is_running())
        return TestResult(self.name, passed=True)


class _WalkOnlySut(SystemUnderTest):
    """A tree walk without ``_observable_state``: deltas are never no-ops."""

    name = "walk-only"

    def __init__(self):
        self.runs = []
        self._running = False

    def default_configuration(self):
        return {"toy.ini": "# toy\n[main]\nkey = 1\nother = two\n"}

    def dialect_for(self, filename):
        return "ini"

    def start(self, files):
        self.stop()
        try:
            tree = get_dialect("ini").parse(files["toy.ini"], filename="toy.ini")
        except ConfErrError as exc:
            return StartResult.failed(str(exc))
        return self._start_from_trees(ConfigSet([tree]), files)

    def _start_from_trees(self, trees, files):
        self._running = True
        return StartResult.ok()

    def stop(self):
        self._running = False

    def is_running(self):
        return self._running

    def functional_tests(self):
        return [_CountingCheck(self.runs)]


class TestDeltaProtocol:
    """``SystemUnderTest.start_delta``: one protocol, two hooks per family."""

    @pytest.mark.parametrize(
        "sut_class", [SimulatedMySQL, SimulatedPostgres], ids=lambda c: c.name
    )
    def test_unobservable_structural_delta_is_a_noop(self, sut_class):
        """Deleting the leading comment walks the patched tree and, since the
        admission limit is unchanged, returns the baseline result itself."""
        sut = sut_class()
        prepared = sut.prepare(sut.default_configuration())
        name = sut.config_filename
        tree = prepared.trees.get(name)
        assert tree.root.children[0].kind == "comment"
        delta = ScenarioDelta((), (ChildrenChange(name, (), ((0, 1, ()),)),))

        assert sut.start_delta(prepared, delta) is prepared.result
        assert sut.is_running()
        patched = patched_trees(prepared.trees, delta).get(name)
        mutated = get_dialect(tree.dialect).serialize(patched)
        full = sut_class()
        assert full.start({name: mutated}).started
        assert sut.effective_settings == full.effective_settings

    def test_walk_without_observable_state_never_reuses_outcomes(self):
        engine = InjectionEngine(_WalkOnlySut(), SpellingMistakesPlugin())
        profile = _run(engine, 5)
        stats = engine.stats.snapshot()
        assert stats["delta_starts"] > 0
        assert stats["noop_reuses"] == 0
        started = [
            r
            for r in profile.records
            if r.outcome in (InjectionOutcome.IGNORED, InjectionOutcome.DETECTED_BY_TESTS)
        ]
        # one pristine run in prepare, then one per started scenario
        assert len(engine.sut.runs) == len(started) + 1
        assert all(engine.sut.runs)

        # not even an empty delta counts as a no-op
        sut = _WalkOnlySut()
        prepared = sut.prepare(sut.default_configuration())
        result = sut.start_delta(prepared, ScenarioDelta(()))
        assert result.started and result is not prepared.result


# ------------------------------------------------------- field-delta splice
#: Names a typo can write: every option either database knows, or garbage.
_OPTION_NAMES = sorted({spec.name for spec in MYSQLD_OPTIONS} | {spec.name for spec in POSTGRES_OPTIONS})
_TYPO_NAMES = st.one_of(
    st.sampled_from(_OPTION_NAMES),
    st.builds(
        lambda name, cut, typo: name[:cut] + typo + name[cut:],
        st.sampled_from(_OPTION_NAMES),
        st.integers(0, 30),
        st.text("abcdefghijklmnopqrstuvwxyzABCZ_-", max_size=2),
    ),
    st.text("abcdefghijklmnopqrstuvwxyz_-", min_size=1, max_size=12),
)
_TYPO_VALUES = st.one_of(
    st.none(),
    st.sampled_from(["", "0", "1", "7", "on", "off", "100", "1M0", "M16", "33o6", "16MB", "-5", "99999999"]),
    st.text("abcdefghijklmnopqrstuvwxyzKMGB0123456789._- ", max_size=10),
)


class TestFieldSplice:
    """The databases' field-delta splice agrees with the shared walk over the
    patched trees and with a full start of the serialised patched file."""

    @pytest.fixture(
        scope="class",
        params=["mysql", "mysql-full-directives", "postgres", "postgres-full-directives"],
    )
    def database(self, request):
        factory = lambda: split_sut(get_system(request.param))[0]  # noqa: E731
        sut = factory()
        prepared = sut.prepare(sut.default_configuration())
        assert prepared is not None and prepared.result.started
        engine = InjectionEngine(sut, SpellingMistakesPlugin())
        return factory, engine, prepared

    @given(pick=st.integers(0, 10**6), name=_TYPO_NAMES, value=_TYPO_VALUES)
    @settings(max_examples=200, deadline=None)
    def test_splice_walk_and_full_start_agree(self, database, pick, name, value):
        factory, engine, prepared = database
        sut = engine.sut
        filename = sut.config_filename
        tree = prepared.trees.get(filename)
        # every node the server reads or ignores; sections always fall back
        members = [
            (path, node)
            for node, path in tree.root.walk_with_paths()
            if path and node.kind != "section"
        ]
        path, node = members[pick % len(members)]
        change = NodeChange(
            tree=filename, path=path, kind=node.kind, name=name, value=value, attrs=dict(node.attrs)
        )
        vetted = engine._vet_change(change, prepared.trees)
        if vetted is None:
            return  # guard fallback: the full pass handles it
        delta = ScenarioDelta((vetted,))

        spliced = sut.start_delta(prepared, delta)
        walker = factory()
        walked = SystemUnderTest.start_delta(walker, prepared, delta)
        dialect = get_dialect(tree.dialect)
        full = factory()
        started = full.start({filename: dialect.serialize(patched_trees(prepared.trees, delta).get(filename))})

        event(f"started={started.started} noop={walked is prepared.result}")
        outcomes = [(r.started, r.errors, r.warnings) for r in (spliced, walked, started)]
        assert outcomes[0] == outcomes[1] == outcomes[2], outcomes
        if started.started:
            assert sut.effective_settings == walker.effective_settings == full.effective_settings
        assert (spliced is prepared.result) == (walked is prepared.result)


# ------------------------------------------------------ prepare parses once
_DELTA_SYSTEMS = [
    name for name in available_systems() if split_sut(get_system(name))[0].supports_delta()
]


@pytest.mark.parametrize("system", _DELTA_SYSTEMS)
def test_prepare_parses_once_and_matches_a_full_start(system, monkeypatch):
    """``prepare`` walks the trees it parsed: one parse per pristine file,
    and the same result and observable state as a full ``start``."""
    parsed = []
    original_parse = ConfigDialect.parse

    def counting_parse(self, text, filename="<string>"):
        parsed.append(filename)
        return original_parse(self, text, filename)

    monkeypatch.setattr(ConfigDialect, "parse", counting_parse)
    sut = split_sut(get_system(system))[0]
    files = sut.default_configuration()
    prepared = sut.prepare(files)
    assert sorted(parsed) == sorted(files)
    assert not sut.is_running()

    full = split_sut(get_system(system))[0]
    result = full.start(files)
    assert (prepared.result.started, prepared.result.errors, prepared.result.warnings) == (
        result.started,
        result.errors,
        result.warnings,
    )
    assert result.started and prepared.observable == full._observable_state()


# ------------------------------------------------ Apache's directive table
_HTTPD_TREE = get_dialect("apache").parse(DEFAULT_HTTPD_CONF, filename="httpd.conf")
_HTTPD_NAMES = sorted(
    {spec.name for spec in APACHE_DIRECTIVES.values()}
    | {node.name for node in _HTTPD_TREE.walk() if node.name}
)
#: Values a typo can leave: the file's own, and module names that flip
#: ``<IfModule>`` guards either way (``worker.c`` is not loaded).
_HTTPD_VALUES = sorted(
    {node.value for node in _HTTPD_TREE.walk() if node.value}
    | {"worker.c", "!worker.c", "!prefork.c", "mod_mime.c", "!mod_mime.c", "mime_module"}
    | {"worker_module modules/worker.so", "mime_magic_module modules/mod_mime_magic.so"}
    | {"", "0", "8080", "On", "x"}
)


def _typo_of(words):
    """A word from ``words``, or one with characters dropped or inserted."""
    return st.one_of(
        st.sampled_from(words),
        st.builds(
            lambda word, cut, drop, typo: word[:cut] + typo + word[cut + drop:],
            st.sampled_from(words),
            st.integers(0, 40),
            st.integers(0, 2),
            st.text("abcdeklmnorstuvwxyz.!_/: 0189", max_size=2),
        ),
    )


def _exact_state(sut):
    """Everything the diagnosis suite can read of an Apache, in order:
    list order, dict item order and whether it runs."""
    return (
        list(sut.listen_ports),
        list(sut.document_roots),
        [list(vhost.items()) for vhost in sut.virtual_hosts],
        list(sut.effective_directives.items()),
        sut._running,
    )


def _draw_move(data, tree):
    """A scenario moving one node root -> section, section -> root, or within
    one container forward or backward: the moves that take two splices."""
    root = tree.root.children
    sections = [index for index, node in enumerate(root) if node.kind == "section"]
    direction = data.draw(
        st.sampled_from(["root-to-section", "section-to-root", "forward", "backward"])
    )
    if direction == "root-to-section":
        section = data.draw(st.sampled_from(sections))
        target = (data.draw(st.sampled_from([i for i in range(len(root)) if i != section])),)
        parent = (section,)
        index = data.draw(st.one_of(st.none(), st.integers(-2, len(root[section].children) + 1)))
    elif direction == "section-to-root":
        section = data.draw(st.sampled_from([i for i in sections if root[i].children]))
        target = (section, data.draw(st.integers(0, len(root[section].children) - 1)))
        parent = ()
        index = data.draw(st.one_of(st.none(), st.integers(-3, len(root) + 1)))
    else:
        containers = [()] + [(i,) for i in sections if len(root[i].children) >= 2]
        parent = data.draw(st.sampled_from(containers))
        count = len(node_at(tree, parent).children)
        position = data.draw(st.integers(0, count - 1))
        if direction == "forward":
            if position == count - 1:
                return None
            index = data.draw(st.integers(position + 1, count - 1))
        else:
            if position == 0:
                return None
            index = data.draw(st.integers(0, position - 1))
        target = parent + (position,)
    operation = MoveOperation(
        NodeAddress(tree.name, target), NodeAddress(tree.name, parent), index
    )
    return f"move {direction}", FaultScenario(
        "property", "property", "property", operations=(operation,)
    )


class TestApacheEffectTable:
    """Apache's scoped delta walk folds the baseline's summaries of untouched
    top-level runs and replays the directive effects and the module set its
    baseline recorded.  It must leave exactly the state the whole walk over
    the patched tree and a full start of the materialised file leave, and
    evaluate only directives the table lacks."""

    @given(data=st.data())
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_table_walk_empty_walk_and_full_start_agree(self, apache_structural, data):
        engine, _config_set, view_set, prepared = apache_structural
        tree = prepared.trees.get("httpd.conf")
        draw = data.draw(st.sampled_from(["field", "structural", "move"]))
        if draw == "field":
            members = [(path, node) for node, path in tree.root.walk_with_paths() if path]
            guards = [
                (path, node)
                for path, node in members
                if (node.name or "").lower() in ("loadmodule", "ifmodule")
            ]
            path, node = data.draw(st.one_of(st.sampled_from(members), st.sampled_from(guards)))
            name = data.draw(st.one_of(st.just(node.name), _typo_of(_HTTPD_NAMES)))
            value = data.draw(st.one_of(st.none(), _typo_of(_HTTPD_VALUES)))
            change = NodeChange("httpd.conf", path, node.kind, name, value, dict(node.attrs))
            vetted = [engine._vet_change(change, prepared.trees)]
            kind = f"field {(node.name or node.kind).lower()}"
        else:
            drawn = (_draw_structural_scenario if draw == "structural" else _draw_move)(data, tree)
            if drawn is None:
                return
            kind, scenario = drawn
            try:
                vetted = _structural_changes(engine, scenario, view_set, prepared)
            except TemplateError:
                return  # an impossible operation, e.g. a move into its own subtree
        if vetted is None or None in vetted:
            event("guard fallback")
            return  # the full pass handles it
        delta = ScenarioDelta(
            tuple(change for change in vetted if isinstance(change, NodeChange)),
            tuple(change for change in vetted if isinstance(change, ChildrenChange)),
        )

        table = SimulatedApache()
        by_table = table.start_delta(prepared, delta)
        empty = SimulatedApache()
        by_walk = SystemUnderTest.start_delta(empty, prepared, delta)
        full = SimulatedApache()
        patched = patched_trees(prepared.trees, delta).get("httpd.conf")
        by_start = full.start({"httpd.conf": get_dialect("apache").serialize(patched)})

        event(f"{kind}: started={by_start.started} noop={by_walk is prepared.result}")
        outcomes = [(r.started, r.errors, r.warnings) for r in (by_table, by_walk, by_start)]
        assert outcomes[0] == outcomes[1] == outcomes[2], outcomes
        # the live state matches in order too, after failed starts as well
        assert _exact_state(table) == _exact_state(empty) == _exact_state(full)
        assert (by_table is prepared.result) == (by_walk is prepared.result)

    @given(data=st.data())
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_arbitrary_root_splices_agree_with_the_whole_walk(self, apache_structural, data):
        """Splices no single operation makes -- children dropped, repeated
        and reordered at once, ``LoadModule`` lines and new guards among
        them -- still leave the state the whole walk over the patched tree
        leaves."""
        _engine, _config_set, _view_set, prepared = apache_structural
        tree = prepared.trees.get("httpd.conf")
        count = len(tree.root.children)
        loaders = [i for i, node in enumerate(tree.root.children) if (node.name or "") == "LoadModule"]
        module_line = st.sampled_from(_HTTPD_VALUES).map(
            lambda value: ConfigNode("directive", name="LoadModule", value=value)
        )
        # a guard on any module the baseline loads, or on one it does not
        arguments = sorted(prepared.state.modules | {"worker.c", "mod_mime_magic.c"})
        guarded = st.builds(
            lambda negated, argument: ConfigNode(
                "section",
                name="IfModule",
                value=negated + argument,
                children=[ConfigNode("directive", name="Listen", value="8081")],
            ),
            st.sampled_from(["", "!"]),
            st.sampled_from(arguments),
        )
        entry = st.one_of(
            st.integers(0, count - 1),
            st.sampled_from(loaders),
            _inserted_nodes(tree),
            module_line,
            guarded,
        )
        cuts = sorted(data.draw(st.lists(st.integers(0, count), max_size=8)))
        splices = tuple(
            (start, stop, tuple(data.draw(st.lists(entry, max_size=4))))
            for start, stop in zip(cuts[::2], cuts[1::2])
        )
        delta = ScenarioDelta((), (ChildrenChange("httpd.conf", (), splices),))
        scoped = SimulatedApache()
        by_scoped = scoped.start_delta(prepared, delta)
        whole = SimulatedApache()
        by_whole = SystemUnderTest.start_delta(whole, prepared, delta)
        event(f"started={by_whole.started} noop={by_whole is prepared.result}")
        assert (by_scoped.started, by_scoped.errors, by_scoped.warnings) == (
            by_whole.started,
            by_whole.errors,
            by_whole.warnings,
        )
        assert _exact_state(scoped) == _exact_state(whole)
        assert (by_scoped is prepared.result) == (by_whole is prepared.result)

    #: loads mod_mime_magic.c, which opens ``<IfModule mod_mime_magic.c>``
    _OPENS_A_GUARD = "mime_magic_module modules/mod_mime_magic.so"
    #: swaps status_module and mod_status.c for modules no guard tests
    _NO_GUARD = "statu_module modules/mod_statu.so"

    @pytest.mark.parametrize(
        "edit, value, flips",
        [
            ("field", _OPENS_A_GUARD, True),
            ("insert", _OPENS_A_GUARD, True),
            ("field", _NO_GUARD, False),
            ("insert", _NO_GUARD, False),
            ("delete", None, False),
        ],
    )
    def test_only_a_flipped_guard_takes_the_whole_walk(self, monkeypatch, edit, value, flips):
        """A ``LoadModule`` edit updates the baseline's module-word counts;
        the delta walks the whole patched tree only when the new module set
        changes a baseline ``<IfModule>`` verdict."""
        sut = SimulatedApache()
        prepared = sut.prepare(sut.default_configuration())
        tree = prepared.trees.get("httpd.conf")
        index, node = next(
            (i, n) for i, n in enumerate(tree.root.children) if (n.value or "").startswith("status_module")
        )
        if edit == "field":
            delta = self._field_delta(tree, (index,), value=value)
        elif edit == "insert":
            line = ConfigNode("directive", name="LoadModule", value=value, attrs=dict(node.attrs))
            delta = ScenarioDelta((), (ChildrenChange("httpd.conf", (), ((3, 3, (line,)),)),))
        else:  # unloads status_module
            delta = ScenarioDelta((), (ChildrenChange("httpd.conf", (), ((index, index + 1, ()),)),))
        whole_walks = []
        whole_walk = SystemUnderTest.start_delta

        def counted(self, baseline, delta):
            whole_walks.append(delta)
            return whole_walk(self, baseline, delta)

        monkeypatch.setattr(SystemUnderTest, "start_delta", counted)
        result = sut.start_delta(prepared, delta)
        assert len(whole_walks) == (1 if flips else 0)
        monkeypatch.setattr(SystemUnderTest, "start_delta", whole_walk)

        empty = SimulatedApache()
        by_walk = SystemUnderTest.start_delta(empty, prepared, delta)
        full = SimulatedApache()
        patched = patched_trees(prepared.trees, delta).get("httpd.conf")
        by_start = full.start({"httpd.conf": get_dialect("apache").serialize(patched)})
        outcomes = [(r.started, r.errors, r.warnings) for r in (result, by_walk, by_start)]
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert _exact_state(sut) == _exact_state(empty) == _exact_state(full)
        assert ("mimemagicfile" in sut.effective_directives) == flips

    def test_module_set_follows_every_kind_of_edit(self):
        """Guards that test a loaded module open and close with the edit,
        whichever kind it is; the default file has no such guard."""
        conf = (
            "LoadModule mime_module modules/mod_mime.so\n"
            "Listen 80\n"
            "<IfModule mod_mime.c>\n    Listen 81\n</IfModule>\n"
            "<IfModule worker.c>\n    Listen 82\n</IfModule>\n"
            "ServerAdmin root\n"
        )
        sut = SimulatedApache(conf)
        prepared = sut.prepare(sut.default_configuration())
        assert prepared.result.started and sut.listen_ports == [80, 81]
        tree = prepared.trees.get("httpd.conf")
        worker = get_dialect("apache").parse(
            "LoadModule worker_module modules/worker.so\n", filename="httpd.conf"
        ).root.children[0]
        deltas = {
            "delete": ScenarioDelta((), (ChildrenChange("httpd.conf", (), ((0, 1, ()),)),)),
            "insert": ScenarioDelta((), (ChildrenChange("httpd.conf", (), ((5, 5, (worker,)),)),)),
            "move": ScenarioDelta(
                (),
                (
                    ChildrenChange("httpd.conf", (), ((0, 1, ()),)),
                    ChildrenChange("httpd.conf", (3,), ((1, 1, ((0,),)),)),
                ),
            ),
            "typo": self._field_delta(tree, (0,), value="mime_module modules/mod_mim.so"),
            "guard": self._field_delta(tree, (2,), value="mod_mim.c"),
            "guard-on": self._field_delta(tree, (3,), value="!worker.c"),
            "rename": self._field_delta(
                tree, (4,), name="LoadModule", value="worker_module modules/worker.so"
            ),
        }
        expected = {
            "delete": [80],
            "insert": [80, 81, 82],
            "move": [80, 81],
            "typo": [80],
            "guard": [80],
            "guard-on": [80, 81, 82],
            "rename": [80, 81, 82],
        }
        for kind, delta in deltas.items():
            by_table = SimulatedApache(conf)
            by_table.start_delta(prepared, delta)
            by_walk = SimulatedApache(conf)
            SystemUnderTest.start_delta(by_walk, prepared, delta)
            patched = patched_trees(prepared.trees, delta).get("httpd.conf")
            full = SimulatedApache(conf)
            assert full.start({"httpd.conf": get_dialect("apache").serialize(patched)}).started
            assert by_table.listen_ports == by_walk.listen_ports == full.listen_ports, kind
            assert full.listen_ports == expected[kind], kind

    @pytest.fixture()
    def counted(self, monkeypatch):
        """Every directive evaluation and module-set scan, as they happen."""
        effects, scans = [], []
        original_effect = SimulatedApache._directive_effect
        original_scan = SimulatedApache._available_modules

        def counting_effect(cls, name, value):
            effects.append((name, value))
            return original_effect(name, value)

        def counting_scan(tree):
            scans.append(tree)
            return original_scan(tree)

        monkeypatch.setattr(SimulatedApache, "_directive_effect", classmethod(counting_effect))
        monkeypatch.setattr(SimulatedApache, "_available_modules", staticmethod(counting_scan))
        return effects, scans

    @staticmethod
    def _field_delta(tree, path, **fields):
        node = node_at(tree, path)
        change = dict(name=node.name, value=node.value) | fields
        return ScenarioDelta(
            (NodeChange(tree.name, path, node.kind, attrs=dict(node.attrs), **change),)
        )

    def test_only_unrecorded_directives_are_evaluated(self, counted):
        effects, scans = counted
        sut = SimulatedApache()
        prepared = sut.prepare(sut.default_configuration())
        tree = prepared.trees.get("httpd.conf")
        table = prepared.state.effects

        # the pristine walk evaluates each directive it reaches once; the
        # blocks of unloaded modules are never parsed, so never recorded
        skipped = [
            node
            for node in tree.root.children
            if node.kind == "section" and node.value in ("worker.c", "mod_mime_magic.c")
        ]
        assert len(skipped) == 2 and all(section.children for section in skipped)
        hidden = {id(child) for section in skipped for child in section.walk()}
        reached = {
            (node.name, node.value)
            for node in tree.walk()
            if node.kind == "directive" and id(node) not in hidden
        }
        assert sorted(effects) == sorted(reached) == sorted(table)
        recorded = len(table)

        deltas = []
        for index, node in enumerate(tree.root.children):
            if node.kind == "directive":
                deltas.append(self._field_delta(tree, (index,), value=(node.value or "") + "0"))
                deltas.append(self._field_delta(tree, (index,), name=(node.name or "") + "s"))
            deltas.append(ScenarioDelta((), (ChildrenChange("httpd.conf", (), ((index, index + 1, ()),)),)))
        for section in skipped:
            index = tree.root.children.index(section)
            deltas.append(self._field_delta(tree, (index,), value="!" + section.value))

        flipped = 0
        for delta in deltas:
            effects.clear()
            scans.clear()
            sut.start_delta(prepared, delta)
            patched = patched_trees(prepared.trees, delta).get("httpd.conf")
            unrecorded = {
                (node.name, node.value)
                for node in patched.walk()
                if node.kind == "directive" and (node.name, node.value) not in table
            }
            # at most once per changed or baseline-unrecorded directive
            assert len(effects) == len(set(effects)) and set(effects) <= unrecorded
            if delta.children_changes:
                assert not effects  # a deletion brings nothing new to evaluate
            touched = [node_at(tree, change.path) for change in delta.changes]
            if delta.children_changes or any(node.name == "LoadModule" for node in touched):
                assert len(scans) <= 1
            else:
                assert not scans  # the baseline module set stands
            flipped += any(node.kind == "section" for node in touched) and bool(effects)
        assert flipped == len(skipped), "a flipped guard evaluates the block it opens"
        assert len(prepared.state.effects) == recorded, "the table never grows per scenario"


# --------------------------------------------- counters and baseline ownership
# ------------------------------------------------------- BIND's record table
_ZONE_OWNERS = ["", "@", "www", "mail", "webmail", "ftp.example.com.", "ns1", "10", "shell"]
_ZONE_VALUES = [
    "www.example.com.",
    "mail.example.com.",
    "10 mail.example.com.",
    "x0 mail.example.com.",
    "192.0.2.10",
    '"text"',
    "ns1.example.com. hostmaster.example.com. 2008010101 3600 900 604800 86400",
]
_ZONE_TYPES = ["A", "MX", "NS", "SOA", "CNAME", "TXT", "PTR", "mx", "cname"]
_ZONE_TTLS = [None, "", "3600", "1h", "x", "\\u0663\\u0660"]
_NAMED_VALUES = ['"example.com"', '"2.0.192.in-addr.arpa"', '"example.com.zone"', '"192.0.2.rev"']


def _zone_record(draw):
    """A record line snapshot a delta may insert."""
    return ConfigNode(
        "record",
        name=draw(st.sampled_from(_ZONE_OWNERS)),
        value=draw(st.sampled_from(_ZONE_VALUES)),
        attrs={
            "type": draw(st.sampled_from(_ZONE_TYPES)),
            "ttl": draw(st.sampled_from(_ZONE_TTLS)),
            "class": "IN",
            "inline_comment": "",
        },
    )


def _draw_bind_change(data, trees):
    """One field edit of a zone record, ``$ORIGIN``/``$TTL`` line or
    ``named.conf`` node, or splices of a zone file's lines."""
    draw = data.draw
    kind = draw(st.sampled_from(["record", "control", "splice", "named.conf"]))
    if kind == "named.conf":
        tree = trees.get("named.conf")
        members = [(path, node) for node, path in tree.root.walk_with_paths() if path and node.value]
        path, node = draw(st.sampled_from(members))
        value = draw(st.one_of(st.sampled_from(_NAMED_VALUES), _typo_of(_NAMED_VALUES)))
        return kind, NodeChange(tree.name, path, node.kind, node.name, value, dict(node.attrs))
    tree = trees.get(draw(st.sampled_from(["example.com.zone", "192.0.2.rev"])))
    children = tree.root.children
    if kind == "splice":
        count = len(children)
        entry = st.one_of(st.integers(0, count - 1), st.builds(_zone_record, st.just(draw)))
        cuts = sorted(draw(st.lists(st.integers(0, count), max_size=4)))
        splices = tuple(
            (start, stop, tuple(draw(st.lists(entry, max_size=3))))
            for start, stop in zip(cuts[::2], cuts[1::2])
        )
        return kind, ChildrenChange(tree.name, (), splices)
    wanted = "record" if kind == "record" else "control"
    index = draw(st.sampled_from([i for i, node in enumerate(children) if node.kind == wanted]))
    node = children[index]
    attrs = dict(node.attrs)
    if kind == "control":
        words = ["example.org.", "example.com.", "2.0.192.in-addr.arpa.", "3600", "x", node.value]
        return kind, NodeChange(tree.name, (index,), node.kind, node.name, draw(_typo_of(words)), attrs)
    name = draw(st.one_of(st.just(node.name), st.sampled_from(_ZONE_OWNERS), _typo_of(_ZONE_OWNERS)))
    value = draw(st.one_of(st.just(node.value), st.sampled_from(_ZONE_VALUES), _typo_of(_ZONE_VALUES)))
    attrs["type"] = draw(st.one_of(st.just(attrs["type"]), st.sampled_from(_ZONE_TYPES)))
    attrs["ttl"] = draw(st.one_of(st.just(attrs["ttl"]), st.sampled_from(_ZONE_TTLS)))
    return kind, NodeChange(tree.name, (index,), node.kind, name, value, attrs)


def _bind_state(sut):
    """Everything the diagnosis suite can read of a BIND, in order."""
    return (
        dict(sut.zones),
        [(r.name, r.rtype, r.value, r.priority, r.ttl, r.metadata) for r in sut.records],
        sut.is_running(),
    )


@pytest.fixture(scope="module")
def bind_baseline():
    sut = SimulatedBIND()
    prepared = sut.prepare(sut.default_configuration())
    assert prepared.result.started
    return prepared


def _bind_three_ways(prepared, delta):
    """The outcomes and states of the table walk, the empty-table walk and
    (when the patched files read back as patched) a full start."""
    table = SimulatedBIND()
    by_table = table.start_delta(prepared, delta)
    empty = SimulatedBIND()
    by_walk = SystemUnderTest.start_delta(empty, prepared, delta)
    runs = [(table, by_table), (empty, by_walk)]
    patched = patched_trees(prepared.trees, delta)
    try:
        files = {tree.name: get_dialect(tree.dialect).serialize(tree) for tree in patched}
        reads_back = all(
            get_dialect(tree.dialect).parse(files[tree.name], filename=tree.name).structurally_equal(tree)
            for tree in patched
        )
    except ConfErrError:
        reads_back = False
    if reads_back:
        full = SimulatedBIND()
        runs.append((full, full.start(files)))
    return runs


class TestBindRecordTable:
    """BIND's delta walk takes each record line's conversion from the
    baseline's table and converts afresh only the lines it lacks.  It must
    leave exactly what the walk with an empty table and a full start of the
    serialised patched files leave, failed starts included."""

    @given(data=st.data())
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_table_walk_empty_walk_and_full_start_agree(self, bind_baseline, data):
        prepared = bind_baseline
        changes = {}
        for _ in range(data.draw(st.integers(1, 2))):
            kind, change = _draw_bind_change(data, prepared.trees)
            changes[(change.tree, change.path, type(change))] = change
        delta = ScenarioDelta(
            tuple(c for c in changes.values() if isinstance(c, NodeChange)),
            tuple(c for c in changes.values() if isinstance(c, ChildrenChange)),
        )
        runs = _bind_three_ways(prepared, delta)
        outcomes = [(r.started, r.errors, r.warnings) for _sut, r in runs]
        first = outcomes[0][1][0].split(":")[0] if outcomes[0][1] else "started"
        event(f"{kind}: {first}" + ("" if len(runs) == 3 else " (no full start)"))
        assert all(outcome == outcomes[0] for outcome in outcomes), outcomes
        states = [_bind_state(sut) for sut, _r in runs]
        assert all(state == states[0] for state in states)
        assert (runs[0][1] is prepared.result) == (runs[1][1] is prepared.result)

    @pytest.mark.parametrize(
        "path, fields, error",
        [
            ((0,), {"value": "1h"}, "TTL '1h'"),
            ((4,), {"value": "x0 mail.example.com."}, "priority 'x0'"),
            ((2,), {"attrs": {"type": "TXT"}}, "has no SOA record"),
            ((3,), {"attrs": {"type": "A"}}, "has no NS records"),
            ((7,), {"name": "webmail"}, "CNAME and other data (A)"),
            ((4,), {"value": "10 ftp.example.com."}, "is a CNAME (illegal)"),
            ((1,), {"value": "example.org."}, "has no SOA record"),
        ],
        ids=["ttl", "mx-priority", "no-soa", "no-ns", "cname-and-a", "mx-alias", "origin"],
    )
    def test_failed_starts_agree(self, bind_baseline, path, fields, error):
        prepared = bind_baseline
        node = node_at(prepared.trees.get("example.com.zone"), path)
        attrs = dict(node.attrs) | fields.pop("attrs", {})
        change = dict(name=node.name, value=node.value) | fields
        delta = ScenarioDelta((NodeChange("example.com.zone", path, node.kind, attrs=attrs, **change),))
        runs = _bind_three_ways(prepared, delta)
        assert len(runs) == 3
        outcomes = [(r.started, r.errors, r.warnings) for _sut, r in runs]
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert not outcomes[0][0] and error in " ".join(outcomes[0][1]), outcomes[0]
        assert _bind_state(runs[0][0]) == _bind_state(runs[1][0]) == _bind_state(runs[2][0])

    def test_only_lines_the_table_lacks_are_converted(self, monkeypatch):
        """A field edit converts its own line afresh, an ``$ORIGIN`` edit
        every line after it, a ``named.conf`` edit none; the table never
        grows."""
        import repro.sut.dns.zonedata as zonedata

        sut = SimulatedBIND()
        prepared = sut.prepare(sut.default_configuration())
        table = prepared.state
        size = len(table)
        assert size == sum(
            node.kind == "record" for tree in prepared.trees if tree.dialect == "bindzone"
            for node in tree.root.children
        )
        converted = []
        original = zonedata.bind_record

        def counting(*entry):
            converted.append(entry)
            return original(*entry)

        monkeypatch.setattr(zonedata, "bind_record", counting)
        zone = prepared.trees.get("example.com.zone")
        named = prepared.trees.get("named.conf")
        records_after_origin = sum(node.kind == "record" for node in zone.root.children[2:])
        www = node_at(zone, (6,))
        options = node_at(named, (0, 1))
        cases = [
            (NodeChange(zone.name, (6,), "record", www.name, "192.0.2.11", dict(www.attrs)), 1),
            (NodeChange(zone.name, (1,), "control", "ORIGIN", "example.org.", {}), records_after_origin),
            (NodeChange(named.name, (0, 1), options.kind, options.name, "yes", dict(options.attrs)), 0),
        ]
        for change, expected in cases:
            converted.clear()
            result = sut.start_delta(prepared, ScenarioDelta((change,)))
            assert result is not None
            assert len(converted) == expected, change
            assert prepared.state is table and len(table) == size
        with pytest.raises(TypeError):
            table[next(iter(table))] = None


class TestCountersAndBaselineOwnership:
    def test_noop_scenarios_reuse_baseline_outcomes(self):
        """Typos the parser swallows (case changes, ignored groups) prove the
        scenario a no-op; the baseline functional outcomes are reused."""
        engine = InjectionEngine(SimulatedMySQL(), SpellingMistakesPlugin(mutations_per_token=2))
        _run(engine, 11)
        stats = engine.stats.snapshot()
        assert stats["delta_starts"] > 0
        assert stats["noop_reuses"] > 0
        assert stats["errors"] == 0

    def test_engines_over_one_instance_share_its_baseline(self):
        """The suite's cells share a SUT instance: one pristine walk serves all."""
        sut = SimulatedMySQL()
        walks = []
        walk = sut._start_from_trees

        def counted(trees, files):
            walks.append(trees)
            return walk(trees, files)

        sut._start_from_trees = counted
        first = InjectionEngine(sut, SpellingMistakesPlugin()).prepare_incremental()
        second = InjectionEngine(sut, StructuralErrorsPlugin()).prepare_incremental()
        assert isinstance(first, BaselineValidation)
        assert second is first
        assert len(walks) == 1

    def test_each_instance_prepares_its_own_baseline(self):
        one, other = SimulatedMySQL(), SimulatedMySQL()
        files = one.default_configuration()
        assert files == other.default_configuration()
        baseline = one.prepare(files)
        assert other.prepare(files) is not baseline
        assert one.prepare(files) is baseline

    def test_changed_files_get_a_new_baseline(self):
        sut = SimulatedMySQL()
        pristine = sut.prepare(sut.default_configuration())
        changed = {sut.config_filename: "[mysqld]\nport = 3307\n"}
        baseline = sut.prepare(changed)
        assert baseline is not pristine
        assert baseline.files == changed
        assert sut.prepare(dict(changed)) is baseline

    def test_engines_keep_independent_stats(self):
        first = InjectionEngine(SimulatedMySQL(), SpellingMistakesPlugin(mutations_per_token=2))
        _run(first, 3)
        counted = first.stats.snapshot()
        assert counted["attempts"] > 0
        second = InjectionEngine(SimulatedMySQL(), SpellingMistakesPlugin(mutations_per_token=2))
        _run(second, 3)
        assert first.stats.snapshot() == counted
        assert second.stats.snapshot() == counted
        assert second.stats is not first.stats


# ------------------------------------------------------------- executor parity
PAPER_SUITE = Path(__file__).resolve().parents[2] / "examples" / "specs" / "paper_suite.toml"


def test_paper_suite_delta_decisions_are_counted(monkeypatch):
    """The delta path's decisions over the paper suite at seed 2008, summed
    over every engine's ``stats``: counts, no clock.  Of the 30 scenarios
    the round-trip guard still refuses, 6 are MySQL structural edits of the
    file root (omitted sections) and 15 djbdns typos that never
    reach the data file (see test_a_stale_tinydns_value_is_refused)."""
    engines = []
    original = InjectionEngine.__init__

    def recording(self, *args, **kwargs):
        original(self, *args, **kwargs)
        engines.append(self)

    monkeypatch.setattr(InjectionEngine, "__init__", recording)
    spec = ExperimentSpec.from_file(PAPER_SUITE)
    assert (spec.execution.seed, spec.execution.jobs) == (2008, 1)
    CampaignSuite.from_spec(spec).run()
    totals = Counter()
    refused = Counter()
    for engine in engines:
        stats = engine.stats.snapshot()
        totals.update(stats)
        if stats["guard_fallbacks"]:
            refused[(engine.sut.name, engine.plugin.name)] += stats["guard_fallbacks"]
    assert totals["attempts"] == 1706
    assert totals["guard_fallbacks"] == 30
    assert totals["delta_starts"] == 1676
    assert totals["noop_reuses"] == 920
    assert totals["fallbacks"] == totals["errors"] == 0
    assert refused[("MySQL", "structural")] == 6
    assert refused[("djbdns", "spelling")] == 15


class TestExecutorParity:
    """Profiles are identical across executors x incremental settings."""

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_parallel_incremental_matches_serial_full(self, executor):
        def overall(**execution):
            suite = CampaignSuite(
                {"mysql": SimulatedMySQL},
                [SpellingMistakesPlugin(mutations_per_token=2)],
                seed=5,
                **execution,
            )
            return suite.run().overall("mysql")

        serial_full = overall(incremental=False)
        parallel_fast = overall(jobs=2, executor=executor, incremental=True)
        assert _semantics(parallel_fast) == _semantics(serial_full)


# --------------------------------------------------------------- spec and knob
class TestIncrementalKnob:
    def test_default_on_and_omitted_from_dict(self):
        spec = ExecutionSpec()
        assert spec.incremental is True
        assert "incremental" not in spec.to_dict()

    def test_round_trips_when_disabled(self):
        spec = ExecutionSpec(incremental=False)
        data = spec.to_dict()
        assert data["incremental"] is False
        assert ExecutionSpec.from_dict(data).incremental is False

    def test_resume_may_flip_the_knob(self):
        assert "execution.incremental" in RESUME_IRRELEVANT_PATHS
