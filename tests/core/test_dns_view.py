"""Unit tests for the system-independent DNS record view."""

import pytest

from repro.core.infoset import ConfigSet
from repro.core.views.dns_view import DnsRecordView, VIEW_TREE_NAME, make_record_node
from repro.errors import SerializationError
from repro.parsers.base import get_dialect, serialize_tree
from repro.sut.dns.bind_server import DEFAULT_FORWARD_ZONE, DEFAULT_REVERSE_ZONE
from repro.sut.dns.djbdns_server import DEFAULT_TINYDNS_DATA


def bind_config_set() -> ConfigSet:
    dialect = get_dialect("bindzone")
    return ConfigSet(
        [
            dialect.parse(DEFAULT_FORWARD_ZONE, "example.com.zone"),
            dialect.parse(DEFAULT_REVERSE_ZONE, "192.0.2.rev"),
        ]
    )


def tinydns_config_set() -> ConfigSet:
    return ConfigSet([get_dialect("tinydns").parse(DEFAULT_TINYDNS_DATA, "data")])


def records_of(view_set: ConfigSet) -> list:
    return view_set.get(VIEW_TREE_NAME).root.children_of_kind("dns-record")


class TestBindTransform:
    def test_owner_names_are_absolute(self):
        view_set = DnsRecordView().transform(bind_config_set())
        names = {record.name for record in records_of(view_set)}
        assert "www.example.com" in names
        assert "10.2.0.192.in-addr.arpa" in names
        assert all(not name.endswith(".") for name in names)

    def test_record_types_and_mx_priority(self):
        view_set = DnsRecordView().transform(bind_config_set())
        mx = [r for r in records_of(view_set) if r.get("rtype") == "MX"]
        assert len(mx) == 1
        assert mx[0].get("priority") == 10
        assert mx[0].value == "mail.example.com"

    def test_source_file_recorded(self):
        view_set = DnsRecordView().transform(bind_config_set())
        reverse = [r for r in records_of(view_set) if r.get("rtype") == "PTR"]
        assert all(r.get("source_file") == "192.0.2.rev" for r in reverse)

    def test_roundtrip_preserves_record_multiset(self):
        original = bind_config_set()
        view = DnsRecordView()
        back = view.untransform(view.transform(original), original)
        first = {(r.name, r.get("rtype"), r.value) for r in records_of(view.transform(original))}
        second = {(r.name, r.get("rtype"), r.value) for r in records_of(view.transform(back))}
        assert first == second

    def test_rebuilt_zone_files_still_parse(self):
        original = bind_config_set()
        view = DnsRecordView()
        back = view.untransform(view.transform(original), original)
        for tree in back:
            text = serialize_tree(tree)
            get_dialect("bindzone").parse(text, tree.name)

    def test_new_record_routed_by_origin(self):
        original = bind_config_set()
        view = DnsRecordView()
        view_set = view.transform(original)
        view_set.get(VIEW_TREE_NAME).root.append(
            make_record_node("extra.example.com", "A", "192.0.2.99")
        )
        back = view.untransform(view_set, original)
        forward_text = serialize_tree(back.get("example.com.zone"))
        assert "extra" in forward_text
        assert "extra" not in serialize_tree(back.get("192.0.2.rev"))

    def test_record_outside_all_zones_is_unserialisable(self):
        original = bind_config_set()
        view = DnsRecordView()
        view_set = view.transform(original)
        view_set.get(VIEW_TREE_NAME).root.append(
            make_record_node("orphan.elsewhere.org", "A", "198.51.100.1")
        )
        with pytest.raises(SerializationError):
            view.untransform(view_set, original)

    def test_named_conf_passes_through_untouched(self):
        dialect = get_dialect("namedconf")
        named = dialect.parse('zone "example.com" {\n    file "example.com.zone";\n};\n', "named.conf")
        original = bind_config_set()
        original.add(named)
        view = DnsRecordView()
        back = view.untransform(view.transform(original), original)
        assert back.get("named.conf").structurally_equal(named)


class TestTinydnsTransform:
    def test_combined_line_produces_a_and_ptr(self):
        view_set = DnsRecordView().transform(tinydns_config_set())
        www = [r for r in records_of(view_set) if r.name == "www.example.com" and r.get("rtype") == "A"]
        ptr = [r for r in records_of(view_set) if r.get("rtype") == "PTR" and r.value == "www.example.com"]
        assert len(www) == 1 and len(ptr) == 1
        assert www[0].get("combined_group") == ptr[0].get("combined_group")

    def test_ns_line_produces_soa_and_ns(self):
        view_set = DnsRecordView().transform(tinydns_config_set())
        soa = [r for r in records_of(view_set) if r.get("rtype") == "SOA"]
        ns = [r for r in records_of(view_set) if r.get("rtype") == "NS"]
        assert {r.name for r in soa} == {"example.com", "2.0.192.in-addr.arpa"}
        assert {r.name for r in ns} == {"example.com", "2.0.192.in-addr.arpa"}

    def test_generic_lines_map_to_rp_and_hinfo(self):
        view_set = DnsRecordView().transform(tinydns_config_set())
        types = {r.get("rtype") for r in records_of(view_set)}
        assert "RP" in types and "HINFO" in types

    def test_roundtrip_preserves_published_records(self):
        original = tinydns_config_set()
        view = DnsRecordView()
        back = view.untransform(view.transform(original), original)
        first = {(r.name, r.get("rtype"), r.value) for r in records_of(view.transform(original))}
        second = {(r.name, r.get("rtype"), r.value) for r in records_of(view.transform(back))}
        assert first == second

    def test_deleting_ptr_of_combined_line_is_unserialisable(self):
        original = tinydns_config_set()
        view = DnsRecordView()
        view_set = view.transform(original)
        target = next(
            r for r in records_of(view_set)
            if r.get("rtype") == "PTR" and r.value == "www.example.com"
        )
        view_set.get(VIEW_TREE_NAME).root.children.remove(target)
        with pytest.raises(SerializationError):
            view.untransform(view_set, original)

    def test_redirecting_ptr_of_combined_line_is_unserialisable(self):
        original = tinydns_config_set()
        view = DnsRecordView()
        view_set = view.transform(original)
        target = next(
            r for r in records_of(view_set)
            if r.get("rtype") == "PTR" and r.value == "www.example.com"
        )
        target.value = "ftp.example.com"
        with pytest.raises(SerializationError):
            view.untransform(view_set, original)

    def test_new_single_records_use_their_natural_selector(self):
        original = tinydns_config_set()
        view = DnsRecordView()
        view_set = view.transform(original)
        root = view_set.get(VIEW_TREE_NAME).root
        root.append(make_record_node("extra.example.com", "A", "192.0.2.77"))
        root.append(make_record_node("alias2.example.com", "CNAME", "www.example.com"))
        text = serialize_tree(view.untransform(view_set, original).get("data"))
        assert "+extra.example.com:192.0.2.77" in text
        assert "Calias2.example.com:www.example.com" in text

    def test_unsupported_record_type_raises(self):
        original = tinydns_config_set()
        view = DnsRecordView()
        view_set = view.transform(original)
        view_set.get(VIEW_TREE_NAME).root.append(
            make_record_node("x.example.com", "SRV", "0 0 443 www.example.com")
        )
        with pytest.raises(SerializationError):
            view.untransform(view_set, original)
