"""Campaign benchmark: cost per injection experiment, end to end and per layer.

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --all               # every workload, every metric, by name
    python3 perfbench/run.py --write-reference   # regenerate perfbench/reference.json

Run from the repository root.  One run measures one workload for
``--seconds`` seconds as a series of campaigns, each in a fresh interpreter
(campaign.py).  ``--trace 0`` reports the end-to-end metrics: per metric
the median over campaigns of its value scaled to the quiet reference host
(probe.py) -- for the latency percentiles, the percentile of every scaled
latency of the run -- beside the quartiles and the raw medians.  ``--trace 1``
alternates untraced and traced campaigns and reports the per-layer metrics
of the fastest traced campaign (spans.py) and the tracing overhead.

Before timing starts, the run computes the workload's reference outcomes on
the slow path (serial, incremental off) at the same seed; at the seed of
reference.json those must equal the committed ones.  Every timed campaign
must then reproduce them (checks.py).  A mismatch fails the run loudly:
exit code 1 and no result line.

The last line of standard output is the JSON result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The lines before it give every metric with its quartiles and sample count.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import OutputMismatch, check_campaign, check_counts_repeat
from probe import NOMINAL_S
from spans import COUNT_METRICS, PER_LAYER_UNITS
from workloads import REFERENCE_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
#: Where traced runs leave their spans (one JSON file per workload and seed).
SPANS_DIR = HERE / "out"
REFERENCE_FILE = HERE / "reference.json"

#: Campaigns a run times at least, whatever ``--seconds`` says.
MIN_CAMPAIGNS = 3
#: A campaign that takes longer than this has hung.
CAMPAIGN_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "scenarios_per_s": "1/s",
    "experiment_p50_us": "us",
    "experiment_p99_us": "us",
    "render_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

#: Count metrics that both paper-suite and process-fanout see on the
#: coordinator, so they must agree between the two workloads.
SHARED_COUNTS = ["plugins.scenarios", "store.append_calls", "store.records_read"]


class CampaignFailed(Exception):
    """A campaign process exited with an error."""


# ------------------------------------------------------------------ campaigns
def run_campaign(
    workload: str, seed: int, store: Path, *, reference: bool = False, spans: Path | None = None
) -> dict:
    """Run one campaign in a fresh interpreter and return its summary."""
    command = [
        sys.executable,
        str(HERE / "campaign.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--store", str(store),
    ]
    if reference:
        command.append("--reference")
    if spans is not None:
        command += ["--trace", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # let the first (untimed reference) campaign write src/**/__pycache__, so
    # timed campaigns load bytecode as an installed package would, whatever
    # the caller's environment says about bytecode caching
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    started = time.monotonic()
    # a session of its own, so a hung campaign goes down with its pool workers
    proc = subprocess.Popen(
        [*command, "--started", repr(started)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CAMPAIGN_TIMEOUT_S)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise CampaignFailed(f"{workload} campaign hung for {CAMPAIGN_TIMEOUT_S} s") from None
        raise
    if proc.returncode != 0:
        raise CampaignFailed(
            f"{workload} campaign exited with {proc.returncode}:\n{stderr.strip()[-2000:]}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def reference_outcomes(name: str, seed: int, work: Path) -> dict:
    """Slow-path outcomes of workload ``name`` at ``seed``, checked against reference.json."""
    live = run_campaign(name, seed, work / f"reference-{name}", reference=True)
    outcomes = {"digest": live["digest"], "records": live["records"], "cells": live["stored_cells"]}
    if seed == REFERENCE_SEED:
        committed = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))["outcomes"][name]
        check_campaign(live, committed)
        if outcomes != committed:
            raise OutputMismatch(f"{name}: slow-path outcomes no longer match {REFERENCE_FILE.name}")
    return outcomes


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Time campaigns of one workload for ``seconds``; returns (untraced, traced)."""
    workload = WORKLOADS[name]
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        reference = reference_outcomes(workload.outcomes_of, seed, work)
        spans = None
        if trace:
            SPANS_DIR.mkdir(exist_ok=True)
            spans = SPANS_DIR / f"spans-{name}-seed{seed}.json"
        plain: list[dict] = []
        traced: list[dict] = []
        deadline = time.monotonic() + seconds
        index = 0
        while (
            time.monotonic() < deadline
            or len(plain) < (2 if trace else MIN_CAMPAIGNS)
            or (trace and len(traced) < 2)
        ):
            tracing = trace and index % 2 == 1
            store = work / f"store-{index}"
            result = run_campaign(name, seed, store, spans=spans if tracing else None)
            check_campaign(result, reference)
            (traced if tracing else plain).append(result)
            shutil.rmtree(store)
            index += 1
        if traced:
            check_counts_repeat([run["layers"] for run in traced], COUNT_METRICS)
        return plain, traced
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------- aggregation
def summarise(values: list[float]) -> tuple:
    """(median, first quartile, third quartile, count) of per-campaign values."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, len(values)


def host_slowdown(run: dict) -> float:
    """How much slower than on the quiet reference host this campaign's probes ran."""
    return statistics.fmean(run["probe_s"]) / NOMINAL_S


def end_to_end(runs: list[dict]) -> dict[str, tuple]:
    """Per metric (value, median, q1, q3, count) over campaigns.

    The value is the median over campaigns, except for the latency
    percentiles, whose value is taken over the run's pooled latencies.

    Every time is divided by its campaign's ``host_slowdown`` (a rate is
    multiplied by it), so it reads as seconds on the quiet reference host.
    The shared host's slow phases can outlast a whole run (METRICS.md), so
    no statistic over one run's raw times is steady from run to run; scaled
    ones are.  The raw medians are printed beside them.
    """
    slowdowns = [host_slowdown(run) for run in runs]
    samples = {
        name: [run[name] / slowdown for run, slowdown in zip(runs, slowdowns)]
        for name in ("setup_s", "wall_s", "render_s", "cpu_s")
    }
    samples["peak_rss_mb"] = [run["peak_rss_mb"] for run in runs]
    samples["scenarios_per_s"] = [
        (run["executed"] + run["skipped"]) / run["run_s"] * slowdown
        for run, slowdown in zip(runs, slowdowns)
    ]
    # each campaign's own percentiles, for the quartiles printed beside the value
    percentiles = [statistics.quantiles(run["durations"], n=100) for run in runs]
    samples["experiment_p50_us"] = [p[49] * 1e6 / s for p, s in zip(percentiles, slowdowns)]
    samples["experiment_p99_us"] = [p[98] * 1e6 / s for p, s in zip(percentiles, slowdowns)]
    # the value: percentiles of every scaled latency of the run pooled.  A
    # campaign's p50 lies between two latency clusters and jumps from one to
    # the other, so the median of per-campaign p50s is not steady; the pooled
    # p50 of tens of thousands of latencies is.
    pooled = statistics.quantiles(
        [d * 1e6 / s for run, s in zip(runs, slowdowns) for d in run["durations"]], n=100
    )
    values = {"experiment_p50_us": pooled[49], "experiment_p99_us": pooled[98]}
    metrics = {}
    for name in END_TO_END_UNITS:
        median, *rest = summarise(samples[name])
        metrics[name] = (values.get(name, median), median, *rest)
    return metrics


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, tuple]:
    """Per-layer values of the fastest traced campaign, so that they add up."""
    layers = []
    for run in traced:
        layer = dict(run["layers"])
        layer["executor.coordinator_busy_s"] = layer["trace.wall_s"] - layer["executor.stream_wait_s"]
        layer["store.bytes_written"] = run["bytes_written"]
        layers.append(layer)
    fastest = min(layers, key=lambda layer: layer["trace.wall_s"])
    metrics = {
        name: (fastest[name], *summarise([layer[name] for layer in layers])) for name in fastest
    }
    runs = plain + traced
    overhead = fastest["trace.wall_s"] - min(run["wall_s"] for run in plain)
    share = sum(run["failed"] for run in runs) / sum(run["executed"] + run["skipped"] for run in runs)
    metrics["trace.overhead_s"] = (overhead,) * 4 + (len(runs),)
    metrics["harness_error_share"] = (share,) * 4 + (len(runs),)
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def report(name: str, runs: list[dict], metrics: dict[str, tuple], units: dict[str, str], value: str) -> None:
    print(
        f"{name}: {len(runs)} campaigns, {len(runs[0]['durations'])} experiment latencies each; "
        f"{value}, then median, quartiles and count over campaigns"
    )
    for metric, (best, median, q1, q3, count) in metrics.items():
        print(
            f"{name:15} {metric:30} {best:14.6g} {units[metric]:6} "
            f"median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={count}"
        )


def report_raw(name: str, runs: list[dict]) -> None:
    """Unscaled medians and the host slowdown they were divided by."""
    raw = {
        "host_slowdown": [host_slowdown(run) for run in runs],
        "raw wall_s": [run["wall_s"] for run in runs],
        "raw cpu_s": [run["cpu_s"] for run in runs],
        "raw setup_s": [run["setup_s"] for run in runs],
    }
    for metric, values in raw.items():
        median, q1, q3, count = summarise(values)
        print(f"{name:15} {metric:30} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={count}")


def result_line(runs: list[dict], metrics: dict[str, tuple], units: dict) -> str:
    """The run's result; only ever printed once every output check has passed."""
    return json.dumps(
        {
            "correct": True,
            "attempted": max(1, sum(run["executed"] + run["skipped"] for run in runs)),
            "failed": sum(run["failed"] for run in runs),
            "metrics": {
                metric: {"value": value[0], "unit": units[metric]} for metric, value in metrics.items()
            },
        }
    )


# ---------------------------------------------------------------------- modes
def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict[str, tuple]:
    plain, traced = measure(name, seed, seconds, trace)
    if trace:
        metrics, units = per_layer(plain, traced), PER_LAYER_UNITS
        report(name, plain + traced, metrics, units, "value of the fastest traced campaign")
    else:
        metrics, units = end_to_end(plain), END_TO_END_UNITS
        report(name, plain, metrics, units, "value scaled to the reference host")
        report_raw(name, plain)
    print(result_line(plain + traced, metrics, units))
    return metrics


def run_all(seed: int, seconds: float) -> None:
    """Every workload, untraced then traced, plus the cross-workload count check."""
    layers: dict[str, dict[str, tuple]] = {}
    for name in WORKLOADS:
        run_one(name, seed, seconds, trace=False)
        layers[name] = run_one(name, seed, seconds, trace=True)
    for metric in SHARED_COUNTS:
        if layers["paper-suite"][metric][0] != layers["process-fanout"][metric][0]:
            raise OutputMismatch(
                f"{metric}: paper-suite {layers['paper-suite'][metric][0]} != "
                f"process-fanout {layers['process-fanout'][metric][0]}"
            )
    print(f"shared counts agree between paper-suite and process-fanout: {', '.join(SHARED_COUNTS)}")


def write_reference() -> None:
    work = WORK / f"reference-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        outcomes = {}
        for name in sorted({workload.outcomes_of for workload in WORKLOADS.values()}):
            live = run_campaign(name, REFERENCE_SEED, work / name, reference=True)
            outcomes[name] = {
                "digest": live["digest"],
                "records": live["records"],
                "cells": live["stored_cells"],
            }
        document = {"seed": REFERENCE_SEED, "execution": "serial, incremental off", "outcomes": outcomes}
        REFERENCE_FILE.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {REFERENCE_FILE.relative_to(ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, traced and not")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            write_reference()
        elif args.all:
            run_all(args.seed, args.seconds)
        elif args.workload:
            run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        else:
            parser.error("give --workload NAME, --all or --write-reference")
    except (OutputMismatch, CampaignFailed) as exc:
        print(f"perfbench: OUTPUT CHECK FAILED: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
