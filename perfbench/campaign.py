"""One campaign in a fresh interpreter: set up, run, render, then summarise.

    PYTHONPATH=src python3 perfbench/campaign.py --workload paper-suite \\
        --seed 2008 --store STORE_DIR --started MONOTONIC_TIME [--reference] [--trace SPANS]

``perfbench/run.py`` starts one of these per timed campaign, so every
campaign pays what a command-line user pays: interpreter start, imports and
a cold process-wide baseline cache.  ``--started`` is the parent's
``time.monotonic()`` just before the spawn (the clock is system-wide), so
``setup_s`` runs from the fresh interpreter to a runnable suite.

The last line of standard output is one JSON summary: timings, resource
use, the host probe's times just before and after the timed window
(probe.py), per-cell counts and the outcome digest of the store (see
checks.py).
With ``--trace SPANS`` the layer boundaries are wrapped (spans.py), the
per-layer metrics join the summary and the spans are written to SPANS.
``--reference`` runs the slow path instead: serial, incremental off.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import json
import resource
import time
from pathlib import Path

from probe import probe
from workloads import REFERENCE_EXECUTION, WORKLOADS

#: Allowed drift between the summed span self times plus uncovered time and
#: the traced wall time (float rounding over tens of thousands of spans).
ACCOUNTING_TOLERANCE_S = 1e-6


def outcome_summary(store) -> dict:
    """Digest and per-cell record counts of a store, by ``diff_stores``' rules.

    Every record minus ``duration_seconds`` enters the digest, sorted by
    (system, campaign, scenario id); quarantined scenarios are left out.
    """
    lines = []
    cells: dict[str, int] = {}
    failed = 0
    for system in sorted(store.systems()):
        exempt = store.quarantined_ids(system)
        failed += sum(1 for _ in store.iter_quarantined(system))
        for campaign, record in store.iter_records(system):
            if (campaign, record.scenario_id) in exempt:
                continue
            entry = record.to_dict()
            entry.pop("duration_seconds", None)
            if entry["outcome"] in ("harness-error", "timeout"):
                failed += 1
            lines.append(json.dumps([system, campaign, record.scenario_id, entry], sort_keys=True))
            cells[f"{system}/{campaign}"] = cells.get(f"{system}/{campaign}", 0) + 1
    digest = hashlib.sha256()
    for line in sorted(lines):
        digest.update(line.encode("utf-8") + b"\n")
    return {
        "digest": digest.hexdigest(),
        "records": len(lines),
        "stored_cells": cells,
        "failed": failed,
    }


def store_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.glob("*.jsonl"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--store", required=True)
    parser.add_argument("--started", required=True, type=float)
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--trace")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)

    def span(name: str):
        return tracer.span(name) if tracer is not None else contextlib.nullcontext()

    import repro.core.report as report
    from repro.core.spec import ExperimentSpec, StoreSpec
    from repro.core.suite import CampaignSuite

    execution = {"seed": args.seed, **workload.execution}
    if args.reference:
        execution.update(REFERENCE_EXECUTION)
    with span("spec.load"):
        spec = ExperimentSpec.from_file(workload.spec_file)
        spec = dataclasses.replace(
            spec,
            execution=dataclasses.replace(spec.execution, **execution),
            store=StoreSpec(root=args.store),
        )
        spec.validate()
    with span("suite.build"):
        suite = CampaignSuite.from_spec(spec)
        suite.system_names()
    setup_s = time.monotonic() - args.started

    setup_spans = {}
    if tracer is not None:
        setup_spans = {name: tracer.self_s[name] for name in ("spec.load", "suite.build")}
        tracer.reset_aggregates()

    # the probe's CPU is the benchmark's, not the campaign's: cpu_s leaves it out
    probe_cpu = time.process_time()
    probe_before = probe()
    probe_cpu = time.process_time() - probe_cpu
    wall_start = time.perf_counter()
    store = spec.build_store()
    result = suite.run(store=store)
    store.close()
    run_end = time.perf_counter()
    table1 = report.store_typo_table(store)
    matrix = report.store_matrix_table(store)
    report.render_store_report(store)
    wall_end = time.perf_counter()
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    probe_after = probe()

    wall_s = wall_end - wall_start
    layers = None
    if tracer is not None:
        layers = _traced_layers(tracer, setup_spans, wall_start, wall_end)

    cells = {
        f"{system}/{plugin}": [result.executed[system][plugin], result.skipped[system][plugin]]
        for system in result.executed
        for plugin in result.executed[system]
    }
    durations = [
        record.duration_seconds
        for per_plugin in result.profiles.values()
        for profile in per_plugin.values()
        for record in profile.records
    ]
    summary = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "run_s": run_end - wall_start,
        "render_s": wall_end - run_end,
        "cpu_s": own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime - probe_cpu,
        "peak_rss_mb": max(own.ru_maxrss, children.ru_maxrss) / 1024.0,
        "probe_s": probe_before + probe_after,
        "executed": result.total_executed(),
        "skipped": result.total_skipped(),
        "durations": durations,
        "bytes_written": store_bytes(Path(args.store)),
        "renders_match": table1 == result.table1() and matrix == result.matrix(),
        "verify_problems": _verify_problems(store),
        **outcome_summary(store),
        "cells": cells,
        "layers": layers,
    }
    if tracer is not None:
        tracer.dump(args.trace, workload=args.workload, seed=args.seed,
                    window=[wall_start, wall_end])
    print(json.dumps(summary))


def _traced_layers(tracer, setup_spans: dict, wall_start: float, wall_end: float) -> dict:
    """Per-layer metrics of the traced window, after the accounting check."""
    from spans import layer_metrics

    wall_s = wall_end - wall_start
    unaccounted = tracer.uncovered(wall_start, wall_end)
    span_self = sum(tracer.self_s.values())
    if abs(span_self + unaccounted - wall_s) > ACCOUNTING_TOLERANCE_S:
        raise SystemExit(
            f"trace accounting check failed: span self times {span_self:.6f} s + "
            f"unaccounted {unaccounted:.6f} s != traced wall {wall_s:.6f} s"
        )
    layers = layer_metrics(tracer, setup_spans)
    layers["trace.wall_s"] = wall_s
    layers["trace.span_self_s"] = span_self
    layers["trace.unaccounted_s"] = unaccounted
    return layers


def _verify_problems(store) -> list[str]:
    verdict = store.verify()
    if verdict.clean:
        return []
    return [verdict.summary()]


if __name__ == "__main__":
    main()
