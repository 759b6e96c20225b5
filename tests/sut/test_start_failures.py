"""The exact message a full start gives for a missing or unparseable entry file.

Every registered system is started once without its entry file (the file a
start reads first) and once with an entry file no dialect accepts; each
family keeps its own wording for both failures.
"""

import pytest

from repro.registry import available_systems, get_system
from repro.sut.base import split_sut

#: A line every dialect the registered systems read refuses to parse.
UNPARSEABLE = "[mysqld\n"

#: ``system -> (entry file, missing-file message, parse-failure message)``.
EXPECTED = {
    "mysql": (
        "my.cnf",
        "option file my.cnf is missing",
        "could not parse option file: my.cnf:1: unparseable line",
    ),
    "postgres": (
        "postgresql.conf",
        "configuration file postgresql.conf is missing",
        "syntax error in configuration file: postgresql.conf:1: unparseable line",
    ),
    "apache": (
        "httpd.conf",
        "configuration file httpd.conf is missing",
        "Syntax error: httpd.conf:1: unparseable line",
    ),
    "bind": (
        "named.conf",
        "named.conf is missing",
        "named.conf parse failure: named.conf:1: unparseable line",
    ),
    "djbdns": (
        "data",
        "data file is missing",
        "tinydns-data: data:1: unknown tinydns record selector '['",
    ),
    "nginx": (
        "nginx.conf",
        "configuration file nginx.conf is missing",
        "nginx: [emerg] nginx.conf:1: unparseable line",
    ),
    "sshd": (
        "sshd_config",
        "configuration file sshd_config is missing",
        "sshd_config: sshd_config:1: unparseable line",
    ),
    "mysql-server-only": (
        "my.cnf",
        "option file my.cnf is missing",
        "could not parse option file: my.cnf:1: unparseable line",
    ),
    "mysql-full-directives": (
        "my.cnf",
        "option file my.cnf is missing",
        "could not parse option file: my.cnf:1: unparseable line",
    ),
    "postgres-full-directives": (
        "postgresql.conf",
        "configuration file postgresql.conf is missing",
        "syntax error in configuration file: postgresql.conf:1: unparseable line",
    ),
}


def test_every_registered_system_is_pinned():
    assert sorted(EXPECTED) == sorted(available_systems())


@pytest.mark.parametrize("system", available_systems())
def test_missing_entry_file(system):
    sut = split_sut(get_system(system))[0]
    entry, missing, _ = EXPECTED[system]
    files = sut.default_configuration()
    del files[entry]
    result = sut.start(files)
    assert (result.started, result.errors) == (False, [missing])
    assert not sut.is_running()


@pytest.mark.parametrize("system", available_systems())
def test_unparseable_entry_file(system):
    sut = split_sut(get_system(system))[0]
    entry, _, unparseable = EXPECTED[system]
    files = sut.default_configuration()
    assert sut.start(files).started
    result = sut.start({**files, entry: UNPARSEABLE})
    assert (result.started, result.errors) == (False, [unparseable])
    assert not sut.is_running()
