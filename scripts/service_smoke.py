"""CI smoke for the campaign service (``conferr serve``).

Two end-to-end gates, run against a real ``conferr serve`` subprocess:

1. **Byte-identity** -- submit ``examples/specs/paper_suite.toml`` over
   HTTP, poll the job to DONE, fetch ``GET /jobs/{id}/table1`` and diff it
   against a local ``conferr table1 --from-store <job store>`` render of
   the very same store.  The bytes must match exactly.

2. **Crash durability / exactly-once** -- submit a second suite, wait
   until it is mid-run (records flowing), ``kill -9`` the service, start a
   fresh ``conferr serve`` on the same data dir and poll the job to DONE.
   The job's store is then diffed against a local reference run of the
   same spec: zero differences means the restart resumed instead of
   re-running (no scenario produced two records), and a uniqueness scan
   over scenario ids proves exactly-once directly.

Usage: ``python scripts/service_smoke.py [data_dir]`` (default: a
``ci-service-data`` directory in the CWD).  Exits non-zero on any failure.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core.spec import ExperimentSpec  # noqa: E402
from repro.core.store import ResultStore, diff_stores  # noqa: E402
from repro.service import ServiceClient  # noqa: E402

PAPER_SPEC = REPO / "examples" / "specs" / "paper_suite.toml"


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def start_service(data_dir: Path, port: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--data-dir", str(data_dir), "--port", str(port), "--workers", "1",
        ],
        env=env,
        cwd=REPO,
    )
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=5.0)
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        try:
            client.health()
            return process
        except Exception:  # noqa: BLE001 - not up yet
            if process.poll() is not None:
                raise SystemExit(f"service exited early with {process.returncode}")
            time.sleep(0.1)
    process.kill()
    raise SystemExit("service did not come up within 30s")


def run_cli(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        env=env, cwd=REPO, capture_output=True, text=True,
    )
    if result.returncode != 0:
        raise SystemExit(f"conferr {' '.join(args)} failed:\n{result.stderr}")
    return result.stdout


def main() -> int:
    # the service and the reference run start with cwd=REPO, so a relative
    # data dir must be pinned to the caller's cwd before either sees it
    data_dir = (Path(sys.argv[1]) if len(sys.argv) > 1 else Path("ci-service-data")).resolve()
    port = free_port()
    client = ServiceClient(f"http://127.0.0.1:{port}", timeout=10.0)
    spec_toml = PAPER_SPEC.read_text()

    # ---- gate 1: served Table 1 is byte-identical to the local render ----
    service = start_service(data_dir, port)
    try:
        job = client.submit(spec_toml)
        print(f"submitted job {job['id']}")
        job = client.wait(job["id"], timeout=300.0)
        if job["state"] != "DONE":
            raise SystemExit(f"job ended {job['state']}: {job.get('error')}")
        served = client.artifact(job["id"], "table1")
        store_dir = data_dir / "tenants" / "default" / "jobs" / job["id"] / "store"
        local = run_cli("table1", "--from-store", str(store_dir))
        if served != local:
            raise SystemExit(
                "served table1 differs from the local --from-store render:\n"
                f"--- served ---\n{served}\n--- local ---\n{local}"
            )
        print("gate 1 OK: served table1 is byte-identical to the CLI render")
        print(served)

        # ---- gate 2: kill -9 mid-job, restart, resume exactly-once ----
        crash_job = client.submit(spec_toml)
        print(f"submitted crash-test job {crash_job['id']}")
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            snapshot = client.job(crash_job["id"])
            if snapshot["progress"]["records"] >= 20 or snapshot["state"] in (
                "DONE", "FAILED",
            ):
                break
            time.sleep(0.005)
        print(
            f"killing service at state={snapshot['state']} "
            f"records={snapshot['progress']['records']}"
        )
        service.send_signal(signal.SIGKILL)
        service.wait(timeout=30)
    finally:
        if service.poll() is None:
            service.kill()
            service.wait(timeout=30)

    service = start_service(data_dir, port)  # same data dir: must resume
    try:
        job = client.wait(crash_job["id"], timeout=300.0)
        if job["state"] != "DONE":
            raise SystemExit(
                f"crash-test job ended {job['state']} after restart: {job.get('error')}"
            )
        print(f"restarted service finished the job (restarts={job['restarts']})")
    finally:
        service.terminate()
        service.wait(timeout=30)

    # exactly-once, part 1: no (system, campaign, scenario) appears twice in
    # the job's store -- scenario ids are unique only within their cell
    crash_store = ResultStore(
        data_dir / "tenants" / "default" / "jobs" / crash_job["id"] / "store"
    )
    seen: set[tuple[str, str, str]] = set()
    for system in crash_store.systems():
        for campaign, record in crash_store.iter_records(system):
            key = (system, campaign, record.scenario_id)
            if key in seen:
                raise SystemExit(f"duplicate record for {key}")
            seen.add(key)
    # exactly-once, part 2: the resumed store equals a fresh local reference run
    reference_dir = data_dir / "reference-store"
    run_cli("run-spec", str(PAPER_SPEC), "--store", str(reference_dir))
    reference = ResultStore(reference_dir)
    reference_records = sum(
        1 for system in reference.systems() for _record in reference.iter_records(system)
    )
    if not reference_records:
        # two empty stores compare equal: an empty reference proves nothing
        raise SystemExit(f"reference run left no records in {reference_dir}")
    differences = diff_stores(crash_store, reference)
    if differences:
        for line in differences:
            print(line)
        raise SystemExit(f"{len(differences)} difference(s) vs the reference run")
    print(
        f"gate 2 OK: {len(seen)} records, zero duplicates, "
        "resumed store matches the reference run"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
