"""Benchmark: Table 3 -- resilience to semantic DNS errors (Section 5.4).

Injects RFC-1912 style record-level faults into BIND and djbdns through the
system-independent record view and classifies each fault class as
found / not found / N/A, reproducing the paper's Table 3 cell by cell.
"""

from benchmarks.conftest import BENCH_SEED, run_suite
from repro.bench import table3
from repro.core.profile import InjectionOutcome

#: The behaviour matrix exactly as printed in the paper's Table 3.
PAPER_TABLE3 = {
    "Missing PTR": {"BIND": "not found", "djbdns": "N/A"},
    "PTR pointing to CNAME": {"BIND": "not found", "djbdns": "N/A"},
    "dupl name for NS and CNAME": {"BIND": "found", "djbdns": "not found"},
    "MX pointing to CNAME": {"BIND": "found", "djbdns": "not found"},
}


def test_table3_resilience_to_semantic_errors(run_once):
    cells = run_once(run_suite, table3.table3_spec(seed=BENCH_SEED, max_scenarios_per_class=3))

    print("\n\nTable 3 -- Resilience to semantic errors\n" + table3.render(cells) + "\n")

    assert table3.behaviour_matrix(cells) == PAPER_TABLE3
    # The "N/A" entries must come from impossible injections (djbdns' combined
    # '=' records), not from missing scenarios.
    impossible = cells["djbdns"][table3.TABLE3_CAMPAIGN].records_with(
        InjectionOutcome.INJECTION_IMPOSSIBLE
    )
    assert impossible
