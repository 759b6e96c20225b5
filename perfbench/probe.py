"""A fixed CPU probe that tells how fast the host runs this process right now.

The measuring host is a shared 2-vCPU VM.  Other tenants slow a campaign
process down by up to 1.9x, in phases that can outlast a whole run, so no
statistic over one run's raw times is steady from run to run (METRICS.md).
Each campaign therefore times this probe in its own process just before and
just after its timed window, and run.py divides the campaign's times by how
much slower the probe ran than ``NOMINAL_S``.  The probe must run in the
campaign's own process: the slowdown follows the process, and the same probe
run by the parent between campaigns does not track it.

The probe is the benchmark's own code, never the program's, so a change to
the program cannot move it.  The kernel does what the program mostly does --
split text into lines, parse ``key = value`` pairs into dicts, build
strings, sort, dump JSON -- on fixed input.
"""

from __future__ import annotations

import json
import time

#: Mean kernel time on the reference host at its quietest: about the tenth
#: percentile of the probe means of 494 campaigns (METRICS.md).  Scaled
#: times read as seconds on that host.
NOMINAL_S = 0.0035
#: Kernel calls per probe.
REPEATS = 40

_TEXT = "\n".join(
    f"section_{i % 13}.key_{i % 97} = value {i * 7919 % 10007} # note {i % 5}" for i in range(4000)
)


def _kernel() -> int:
    table: dict[str, list[str]] = {}
    for line in _TEXT.splitlines():
        body, _, _comment = line.partition("#")
        key, _, value = body.partition("=")
        table.setdefault(key.strip(), []).append(value.strip().upper())
    return len(json.dumps(sorted(table.items())))


def probe() -> list[float]:
    """Seconds each of ``REPEATS`` kernel calls takes now."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return times
