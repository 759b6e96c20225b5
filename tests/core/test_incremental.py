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
* the sibling-independence contract of every dialect that declares it,
* fallback routing: newline smuggling, kind-changing typos and mutated
  include arguments all take the full path (or resolve identically
  through it),
* the content-hash baseline cache, counters and the spec/CLI knob.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from repro.core.campaign import Campaign
from repro.core.engine import InjectionEngine, _children_vetted
from repro.core.infoset import ConfigNode
from repro.core.spec import RESUME_IRRELEVANT_PATHS, ExecutionSpec
from repro.core.templates.base import (
    DeleteOperation,
    FaultScenario,
    InsertOperation,
    MoveOperation,
    NodeAddress,
    PermuteChildrenOperation,
)
from repro.errors import TemplateError
from repro.parsers.base import available_dialects, get_dialect
from repro.plugins import (
    DnsSemanticErrorsPlugin,
    SpellingMistakesPlugin,
    StructuralErrorsPlugin,
    StructuralVariationsPlugin,
)
from repro.sut.apache import SimulatedApache
from repro.sut.dns import SimulatedBIND, SimulatedDjbdns
from repro.sut.incremental import (
    INCREMENTAL_STATS,
    ChildrenChange,
    NodeChange,
    ScenarioDelta,
    clear_baseline_cache,
    patch_tree,
    patched_trees,
)
from repro.sut.mysql import SimulatedMySQL
from repro.sut.nginx import SimulatedNginx
from repro.sut.postgres import SimulatedPostgres
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


@pytest.fixture(autouse=True)
def _isolate_incremental_state():
    clear_baseline_cache()
    INCREMENTAL_STATS.reset()
    yield
    clear_baseline_cache()
    INCREMENTAL_STATS.reset()


def _semantics(profile):
    """Everything of a profile except per-record wall clock."""
    return [
        (r.scenario_id, r.category, r.outcome, r.messages, r.failed_tests, r.metadata)
        for r in profile.records
    ]


def _run_both(sut_class, plugin_factory, seed=11):
    """One campaign per mode; returns (semantics, stats) pairs."""
    runs = []
    for incremental in (True, False):
        clear_baseline_cache()
        INCREMENTAL_STATS.reset()
        engine = InjectionEngine(
            sut_class(), plugin_factory(), seed=seed, incremental=incremental
        )
        profile = engine.run()
        runs.append((_semantics(profile), INCREMENTAL_STATS.snapshot()))
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
        clear_baseline_cache()
        engine = InjectionEngine(SimulatedMySQL(), SpellingMistakesPlugin(), seed=1)
        config_set, view_set, _ = engine.generate_scenarios()
        prepared = engine.prepare_incremental(config_set, view_set)
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
        INCREMENTAL_STATS.reset()
        assert engine._vet_change(change, prepared.trees) is None

    def test_kind_changing_typo_is_refused(self):
        """An sshd keyword mutated to ``Match`` reparses as a section."""
        clear_baseline_cache()
        engine = InjectionEngine(SimulatedSshd(), SpellingMistakesPlugin(), seed=1)
        config_set, view_set, _ = engine.generate_scenarios()
        prepared = engine.prepare_incremental(config_set, view_set)
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


class TestStructuralGuard:
    """A lone structural operation is admitted only if the patched tree
    means exactly what a full parse of the materialised file would read."""

    @pytest.fixture(scope="class")
    def apache(self):
        clear_baseline_cache()
        engine = InjectionEngine(SimulatedApache(), StructuralErrorsPlugin(), seed=1)
        config_set, view_set, _ = engine.generate_scenarios()
        prepared = engine.prepare_incremental(config_set, view_set)
        assert prepared is not None
        return engine, config_set, view_set, prepared

    @given(data=st.data())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_admitted_changes_match_a_full_start(self, apache, data):
        engine, config_set, view_set, prepared = apache
        tree = prepared.trees.get("httpd.conf")
        members = [path for _node, path in tree.root.walk_with_paths() if path]
        containers = _containers(tree)
        index = st.one_of(st.none(), st.integers(-3, 110))

        def address(path):
            return NodeAddress("httpd.conf", path)

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
        scenario = FaultScenario("property", "property", "property", operations=(operation,))

        try:
            with scenario.applied_to(view_set) as mutated:
                changes = engine.plugin.view.scenario_changes(scenario, mutated, prepared.trees)
        except TemplateError:
            return  # an impossible operation, e.g. a move into its own subtree
        assert changes is not None, "a lone structural operation must be expressible"
        vetted = [engine._vet_change(change, prepared.trees) for change in changes]
        if any(change is None for change in vetted):
            event("guard fallback")
            return  # the full pass handles it
        event(f"admitted {kind}")
        delta = ScenarioDelta((), tuple(vetted))
        patched = patched_trees(prepared.trees, delta).get("httpd.conf")
        dialect = get_dialect("apache")
        reparsed = dialect.parse(dialect.serialize(patched), filename="httpd.conf")
        assert reparsed.structurally_equal(patched)
        files = engine.materialize(scenario, config_set, view_set)
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
        drop_last = ChildrenChange("t.conf", (), (0, 1))
        patched = patch_tree(tree, [drop_last])
        assert not dialect.parse(dialect.serialize(patched)).structurally_equal(patched)
        assert not _children_vetted(drop_last, tree.root, "t.conf", dialect)
        assert _children_vetted(ChildrenChange("t.conf", (), (1, 2)), tree.root, "t.conf", dialect)


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
        drop = ChildrenChange(
            "httpd.conf", (section,), tuple(range(1, len(tree.root.children[section].children)))
        )
        append = ChildrenChange(
            "httpd.conf", (), (*range(len(tree.root.children)), moved)
        )
        patched = patch_tree(tree, [drop, append])
        assert patched.root.children[-1] is tree.root.children[section].children[0]
        assert len(patched.root.children[section].children) == len(
            tree.root.children[section].children
        ) - 1

    @pytest.mark.parametrize("entry", [-1, 10**6, (), (0,) * 9, "0"], ids=repr)
    def test_unresolvable_entries_refuse_the_patch(self, tree, entry):
        assert patch_tree(tree, [ChildrenChange("httpd.conf", (), (0, entry))]) is None

    def test_a_node_cannot_be_moved_into_itself(self, tree):
        section = next(i for i, n in enumerate(tree.root.children) if n.children)
        into_itself = ChildrenChange("httpd.conf", (section,), (0, (section,)))
        assert patch_tree(tree, [into_itself]) is None


# ---------------------------------------------------- sibling independence
#: One shipped file per dialect that declares sibling independence.
SIBLING_INDEPENDENT_SAMPLES = {
    "apache": (SimulatedApache, "httpd.conf"),
    "namedconf": (SimulatedBIND, "named.conf"),
    "nginxconf": (SimulatedNginx, "nginx.conf"),
    "pgconf": (SimulatedPostgres, "postgresql.conf"),
}


class TestSiblingIndependence:
    """Dialects declaring ``sibling_independent`` keep its promise."""

    def test_every_declaring_dialect_is_tested(self):
        declared = {name for name in available_dialects() if get_dialect(name).sibling_independent}
        assert declared == set(SIBLING_INDEPENDENT_SAMPLES)

    @pytest.mark.parametrize("dialect_name", sorted(SIBLING_INDEPENDENT_SAMPLES))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_admitted_child_lists_read_back_as_patched(self, dialect_name, data):
        """Any mix of kept, moved-in and inserted children the guard admits,
        in any container, serialises to text that parses back to itself
        (kept children may repeat, drop out or change order)."""
        sut_class, filename = SIBLING_INDEPENDENT_SAMPLES[dialect_name]
        text = sut_class().default_configuration()[filename]
        ending = data.draw(st.sampled_from(["lf", "crlf", "no-final-newline"]))
        if ending == "crlf":
            text = text.replace("\n", "\r\n")
        elif ending == "no-final-newline":
            text = text.rstrip("\n")
        dialect = get_dialect(dialect_name)
        tree = dialect.parse(text, filename=filename)
        container, path = data.draw(st.sampled_from(_containers(tree)))
        # any node but the container and its ancestors may be moved in
        movable = [
            p for _node, p in tree.root.walk_with_paths() if p and path[: len(p)] != p
        ]
        count = len(container.children)
        entries = []
        if count:
            entries = data.draw(st.lists(st.integers(0, count - 1), max_size=count))
        extras = st.one_of(_inserted_nodes(tree), st.sampled_from(movable))
        for extra in data.draw(st.lists(extras, max_size=3)):
            entries.insert(data.draw(st.integers(0, len(entries))), extra)
        change = ChildrenChange(filename, path, tuple(entries))
        if not _children_vetted(change, container, filename, dialect):
            event("refused")
            return
        event("admitted")
        patched = patch_tree(tree, [change])
        reparsed = dialect.parse(dialect.serialize(patched), filename=filename)
        assert reparsed.structurally_equal(patched)

    @pytest.mark.parametrize("dialect_name", ["bindzone", "ini", "sshdconf"])
    def test_flowing_dialects_do_not_declare(self, dialect_name):
        """Zone owners and $ORIGIN, INI headers and sshd Match lines carry
        meaning across siblings, so these dialects never take structural
        deltas."""
        assert not get_dialect(dialect_name).sibling_independent

    def test_ini_header_claims_a_moved_directive(self):
        """Why INI cannot declare it: a root directive moved after a
        section header reads back inside that section."""
        dialect = get_dialect("ini")
        tree = dialect.parse("port = 1\n[mysqld]\nuser = x\n", filename="my.cnf")
        moved = ChildrenChange("my.cnf", (), (1, 0))
        patched = patch_tree(tree, [moved])
        assert not dialect.parse(dialect.serialize(patched)).structurally_equal(patched)
        assert not _children_vetted(moved, tree.root, "my.cnf", dialect)


# ------------------------------------------------------------- fallback routing
class TestFallbackRouting:
    def test_mutated_include_argument_matches_full_start(self):
        """nginx: an include pointing at a missing file must fail through the
        delta path with the same diagnostic a full start produces."""
        engine = InjectionEngine(SimulatedNginx(), SpellingMistakesPlugin(), seed=1)
        config_set, view_set, _ = engine.generate_scenarios()
        prepared = engine.prepare_incremental(config_set, view_set)
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
        engine = InjectionEngine(SimulatedMySQL(), SpellingMistakesPlugin(), seed=1)
        config_set, view_set, _ = engine.generate_scenarios()
        prepared = engine.prepare_incremental(config_set, view_set)
        assert prepared is not None
        change = NodeChange(
            tree="no-such.conf", path=(0,), kind="directive", name="x", value="1"
        )
        assert engine.sut.start_delta(prepared, ScenarioDelta((change,))) is None


# ------------------------------------------------- counters and baseline cache
class TestCountersAndCache:
    def test_noop_scenarios_reuse_baseline_outcomes(self):
        """Typos the parser swallows (case changes, ignored groups) prove the
        scenario a no-op; the baseline functional outcomes are reused."""
        engine = InjectionEngine(
            SimulatedMySQL(), SpellingMistakesPlugin(mutations_per_token=2), seed=11
        )
        engine.run()
        stats = INCREMENTAL_STATS.snapshot()
        assert stats["prepares"] == 1
        assert stats["delta_starts"] > 0
        assert stats["noop_reuses"] > 0
        assert stats["errors"] == 0

    def test_second_run_hits_the_baseline_cache(self):
        """Same SUT class + file set => one prepare, then content-hash hits."""
        for _ in range(2):
            engine = InjectionEngine(
                SimulatedMySQL(), SpellingMistakesPlugin(mutations_per_token=2), seed=3
            )
            engine.run()
        stats = INCREMENTAL_STATS.snapshot()
        assert stats["prepares"] == 1
        assert stats["cache_hits"] >= 1

    def test_different_content_misses_the_cache(self):
        engine = InjectionEngine(
            SimulatedMySQL(), SpellingMistakesPlugin(mutations_per_token=2), seed=3
        )
        engine.run()
        other = InjectionEngine(
            SimulatedMySQL(default_config="[mysqld]\nport = 3307\n"),
            SpellingMistakesPlugin(mutations_per_token=2),
            seed=3,
        )
        other.run()
        assert INCREMENTAL_STATS.prepares == 2

    def test_fallback_rate_property(self):
        INCREMENTAL_STATS.reset()
        assert INCREMENTAL_STATS.fallback_rate == 0.0
        INCREMENTAL_STATS.attempts = 10
        INCREMENTAL_STATS.fallbacks = 2
        INCREMENTAL_STATS.guard_fallbacks = 1
        INCREMENTAL_STATS.errors = 1
        assert INCREMENTAL_STATS.fallback_total == 4
        assert INCREMENTAL_STATS.fallback_rate == pytest.approx(0.4)


# ------------------------------------------------------------- executor parity
class TestExecutorParity:
    """Profiles are identical across executors x incremental settings."""

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_parallel_incremental_matches_serial_full(self, executor):
        serial_full = Campaign(
            SimulatedMySQL, [SpellingMistakesPlugin(mutations_per_token=2)], seed=5, incremental=False
        ).run()
        parallel_fast = Campaign(
            SimulatedMySQL,
            [SpellingMistakesPlugin(mutations_per_token=2)],
            seed=5,
            jobs=2,
            executor=executor,
            incremental=True,
        ).run()
        assert _semantics(parallel_fast.overall) == _semantics(serial_full.overall)


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

    def test_campaign_threads_the_knob_to_engines(self):
        campaign = Campaign(SimulatedMySQL, [SpellingMistakesPlugin()], incremental=False)
        assert campaign.incremental is False
