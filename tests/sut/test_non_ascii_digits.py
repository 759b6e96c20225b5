"""A typo that leaves a non-ASCII digit is an ordinary configuration error.

``'²'`` sits beside ``1`` on the azerty-fr keyboard.  ``str.isdigit()``
accepts it and ``int()`` then raises, so these typos used to escape every
server's checks as an unexpected ``ValueError`` (a harness error).  Each
case below is a scenario the azerty-fr spelling plugin generates at seed
2008, and each must now end like any other non-digit typo in its position.
"""

import pytest

from repro.core.infoset import ConfigSet
from repro.core.views.dns_view import VIEW_TREE_NAME, DnsRecordView
from repro.parsers.base import get_dialect
from repro.sut.apache import SimulatedApache
from repro.sut.dns import SimulatedBIND, SimulatedDjbdns, config_set_to_records
from repro.sut.dns.bind_server import DEFAULT_FORWARD_ZONE
from repro.sut.dns.zonedata import RecordDataError
from repro.sut.mysql import SimulatedMySQL
from repro.sut.nginx import SimulatedNginx
from repro.sut.sshd import SimulatedSshd


def _start(sut, filename, old, new):
    files = sut.default_configuration()
    assert old in files[filename]
    return sut.start({**files, filename: files[filename].replace(old, new, 1)})


@pytest.mark.parametrize(
    "old, new, error",
    [
        ("LoginGraceTime 120", "LoginGraceTime ²120", "LoginGraceTime: integer expected."),
        ("LoginGraceTime 120", "LoginGraceTime 1²20", "LoginGraceTime: integer expected."),
        ("MaxSessions 10", "MaxSessions ²0", "MaxSessions: integer expected."),
        ("Port 22", "Port 2²", "Badly formatted port number."),
    ],
)
def test_sshd_rejects_the_number(old, new, error):
    result = _start(SimulatedSshd(), "sshd_config", old, new)
    assert (result.started, result.errors) == (False, [f"sshd_config: {error}"])


def test_mysql_reads_a_leading_superscript_as_no_number():
    result = _start(SimulatedMySQL(), "my.cnf", "max_connections = 100", "max_connections = ²100")
    assert result.started
    assert result.warnings == [
        "option 'max_connections': value '²100' is not numeric; using default '100'"
    ]


def test_mysql_reads_an_inner_superscript_as_an_unknown_suffix():
    result = _start(SimulatedMySQL(), "my.cnf", "key_buffer_size = 16M", "key_buffer_size = 1²6M")
    assert (result.started, result.errors) == (
        False,
        ["Unknown suffix '²' used for variable 'key_buffer_size' (value '1²6M')"],
    )


def test_apache_rejects_the_port():
    result = _start(SimulatedApache(), "httpd.conf", "Listen 80", "Listen 8²")
    assert (result.started, result.errors) == (False, ["Listen: could not parse port '8²'"])


def test_apache_rejects_the_number():
    result = _start(SimulatedApache(), "httpd.conf", "Timeout 120", "Timeout ²120")
    assert (result.started, result.errors) == (False, ["Timeout: '²120' is not a valid number"])


def test_nginx_rejects_the_port():
    result = _start(SimulatedNginx(), "nginx.conf", "listen       80;", "listen       8²;")
    assert (result.started, result.errors) == (
        False,
        ['nginx: [emerg] invalid port in "8²" of the "listen" directive'],
    )


def test_dns_view_keeps_the_mx_priority_text():
    zone = DEFAULT_FORWARD_ZONE.replace("MX\t10 ", "MX\t²10 ")
    tree = get_dialect("bindzone").parse(zone, filename="example.com.zone")
    view = DnsRecordView().transform(ConfigSet([tree]))
    mx = [
        node
        for node in view.get(VIEW_TREE_NAME).root.children_of_kind("dns-record")
        if node.get("rtype") == "MX"
    ]
    assert [node.get("priority") for node in mx] == ["²10"]
    with pytest.raises(RecordDataError, match="priority '²10' of record 'example.com'"):
        config_set_to_records(ConfigSet([tree]))


@pytest.mark.parametrize("typo", ["x10", "²10"])
def test_bind_rejects_the_mx_priority(typo):
    result = _start(SimulatedBIND(), "example.com.zone", "MX\t10 ", f"MX\t{typo} ")
    assert (result.started, result.errors) == (
        False,
        [f"zone data rejected: priority '{typo}' of record 'example.com' is not a number"],
    )


@pytest.mark.parametrize("typo", ["x", "²"])
def test_bind_reads_a_ttl_typo_as_a_record_type(typo):
    result = _start(SimulatedBIND(), "example.com.zone", "ns1\tIN\tA", f"ns1\t{typo}\tIN\tA")
    assert (result.started, result.errors) == (
        False,
        [f"zone 'example.com': example.com.zone:7: unknown record type {typo.upper()!r}"],
    )


def test_djbdns_rejects_a_host_line_without_an_address():
    # a ':' typed into the name shifts the address into the next field
    line, typo = "=shell.example.com:192.0.2.40", "=shell.example.co::192.0.2.40"
    result = _start(SimulatedDjbdns(), "data", line, typo)
    assert (result.started, result.errors) == (
        False,
        ["tinydns-data: not an IPv4 address: ''"],
    )


def test_records_are_refused_when_the_view_cannot_build_them():
    tree = get_dialect("tinydns").parse("=shell.example.co::192.0.2.40:86400\n", filename="data")
    with pytest.raises(RecordDataError, match="not an IPv4 address"):
        config_set_to_records(ConfigSet([tree]))


@pytest.mark.parametrize(
    "line, error",
    [
        ("@example.com::mail.example.com:1²:86400", "MX distance '1²' is not a number"),
        (":www.example.com:1²:text:86400", "generic record type '1²' is not a number"),
        ("=www.example.com:192.0.2.1²:86400", "unable to parse IP address '192.0.2.1²'"),
    ],
)
def test_djbdns_rejects_the_number(line, error):
    result = SimulatedDjbdns().start({"data": line + "\n"})
    assert not result.started
    assert error in result.errors[0]
