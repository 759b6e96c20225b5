"""scripts/incremental_table.py renders the docs table from a BENCH file."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "incremental_table.py"


def _family(full, incremental, speedup):
    return {
        "full_scenarios_per_second": full,
        "incremental_scenarios_per_second": incremental,
        "speedup": speedup,
    }


def test_renders_the_top_row_then_families_by_gain(tmp_path):
    bench = {
        "system": "mysql-full-directives",
        **_family(4000.4, 30000.0, 7.5),
        "per_sut": {"djbdns": _family(2000, 2200, 1.1), "apache": _family(600, 5000, 8.33)},
    }
    path = tmp_path / "BENCH_incremental.json"
    path.write_text(json.dumps(bench))
    output = subprocess.run(
        [sys.executable, str(SCRIPT), str(path)], capture_output=True, text=True, check=True
    ).stdout
    assert output.splitlines()[2:] == [
        "| mysql-full-directives      |         4000 |               30000 |    7.5x |",
        "| Apache                     |          600 |                5000 |    8.3x |",
        "| djbdns                     |         2000 |                2200 |    1.1x |",
    ]
