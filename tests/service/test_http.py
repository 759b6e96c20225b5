"""End-to-end tests of the HTTP API, through a real server and client."""

import http.client
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.errors import ServiceError
from repro.service import CampaignService, ServiceClient, make_server
from repro.service.client import ServiceClientError

REPO = Path(__file__).resolve().parents[2]

SMOKE_SPEC = {
    "systems": [{"name": "postgres"}],
    "plugins": [{"name": "semantic-constraints", "params": {"system": "postgres"}}],
    "execution": {"seed": 2008, "jobs": 1},
}

SMOKE_TOML = """\
[[systems]]
name = "postgres"

[[plugins]]
name = "semantic-constraints"
[plugins.params]
system = "postgres"

[execution]
seed = 2008
jobs = 1
"""


@pytest.fixture
def server(tmp_path):
    """A live service + HTTP server on an OS-assigned port."""
    service = CampaignService(tmp_path / "data", poll_interval=0.01).start()
    http_server = make_server(service)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    yield http_server
    http_server.shutdown()
    http_server.server_close()
    service.stop()
    thread.join(timeout=30)


@pytest.fixture
def client(server):
    port = server.server_address[1]
    return ServiceClient(f"http://127.0.0.1:{port}", tenant="alice", timeout=10.0)


class TestSubmitAndPoll:
    def test_json_submission_runs_to_done(self, client):
        job = client.submit(SMOKE_SPEC)
        assert job["state"] == "QUEUED"
        job = client.wait(job["id"], timeout=120.0)
        assert job["state"] == "DONE"
        assert job["result"]["executed"] > 0
        cells = job["progress"]["cells"]
        assert cells["postgres/semantic-constraints"]["executed"] > 0

    def test_toml_submission_accepted_via_content_type(self, client):
        job = client.submit(SMOKE_TOML)  # client sends application/toml
        job = client.wait(job["id"], timeout=120.0)
        assert job["state"] == "DONE"

    def test_listing_shows_own_jobs_only(self, client, server):
        mine = client.submit(SMOKE_SPEC)
        other = ServiceClient(client.base_url, tenant="bob", timeout=10.0)
        assert all(job["id"] != mine["id"] for job in other.jobs())
        assert any(job["id"] == mine["id"] for job in client.jobs())

    def test_health_endpoint(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert set(health["jobs"]) == {"QUEUED", "RUNNING", "DONE", "FAILED", "CANCELLED"}


class TestRejections:
    def test_invalid_spec_gets_the_validate_json_report(self, client, tmp_path):
        bad = dict(SMOKE_SPEC, plugins=[{"name": "no-such-plugin"}])
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(bad)
        assert excinfo.value.status == 400
        report = excinfo.value.payload
        # the 400 body must be the exact document `conferr validate --json`
        # prints for the same spec -- one validation path, reused verbatim
        spec_file = tmp_path / "bad.json"
        spec_file.write_text(json.dumps(bad))
        cli = subprocess.run(
            [sys.executable, "-m", "repro.cli", "validate", str(spec_file), "--json"],
            capture_output=True, text=True, cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src")},
        )
        assert cli.returncode == 1
        assert report == json.loads(cli.stdout)

    def test_unparseable_body_is_a_400_report(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit({"systems": "not-a-list"})
        assert excinfo.value.status == 400
        assert excinfo.value.payload["valid"] is False

    def test_spec_with_store_section_is_refused(self, client):
        bad = dict(SMOKE_SPEC, store={"root": "/tmp/evil"})
        with pytest.raises(ServiceClientError) as excinfo:
            client.submit(bad)
        assert excinfo.value.status == 400
        assert excinfo.value.payload["errors"][0]["path"] == "store"

    def test_invalid_tenant_is_a_400(self, client):
        hostile = ServiceClient(client.base_url, tenant="..", timeout=10.0)
        with pytest.raises(ServiceClientError) as excinfo:
            hostile.jobs()
        assert excinfo.value.status == 400

    def test_unknown_job_is_a_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.job("feedfacecafe")
        assert excinfo.value.status == 404

    def test_foreign_job_is_a_404(self, client):
        job = client.submit(SMOKE_SPEC)
        other = ServiceClient(client.base_url, tenant="bob", timeout=10.0)
        with pytest.raises(ServiceClientError) as excinfo:
            other.job(job["id"])
        assert excinfo.value.status == 404  # isolation: not even "it exists"

    def test_unknown_endpoint_is_a_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client._json("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_is_a_405(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client._json("DELETE", "/jobs")
        assert excinfo.value.status == 405

    @pytest.mark.parametrize("method, suffix", [("DELETE", ""), ("GET", "/table1")])
    def test_every_route_naming_an_unknown_job_is_a_404(self, client, method, suffix):
        with pytest.raises(ServiceClientError) as excinfo:
            client._request(method, "/jobs/feedfacecafe" + suffix)
        assert excinfo.value.status == 404
        assert excinfo.value.payload["error"] == "no job feedfacecafe for tenant alice"


def _post_with_content_length(server, value: str) -> tuple[int, dict]:
    """POST /jobs with a raw ``Content-Length`` header and no body."""
    connection = http.client.HTTPConnection("127.0.0.1", server.server_address[1], timeout=3)
    try:
        connection.putrequest("POST", "/jobs")
        connection.putheader("Content-Length", value)
        connection.endheaders()
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestContentLength:
    @pytest.mark.parametrize("value", ["abc", "-5", "-1"])
    def test_malformed_length_is_a_400(self, server, value):
        # "-1" used to block the handler until the client hung up
        status, payload = _post_with_content_length(server, value)
        assert status == 400
        assert "invalid Content-Length" in payload["error"]

    def test_oversized_length_is_a_400(self, server):
        status, payload = _post_with_content_length(server, str(2 << 20))
        assert status == 400
        assert "exceeds" in payload["error"]


class TestArtifacts:
    def test_served_table1_matches_cli_from_store_render(self, client, server):
        job = client.wait(client.submit(SMOKE_SPEC)["id"], timeout=120.0)
        served = client.artifact(job["id"], "table1")
        service = server.service
        store_dir = service.registry.get("alice", job["id"]).store_dir
        cli = subprocess.run(
            [sys.executable, "-m", "repro.cli", "table1", "--from-store", str(store_dir)],
            capture_output=True, text=True, cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src")},
        )
        assert cli.returncode == 0
        assert served == cli.stdout  # byte-identical, headers and all

    def test_report_artifact_matches_cli_report(self, client, server):
        job = client.wait(client.submit(SMOKE_SPEC)["id"], timeout=120.0)
        served = client.artifact(job["id"], "report")
        store_dir = server.service.registry.get("alice", job["id"]).store_dir
        cli = subprocess.run(
            [sys.executable, "-m", "repro.cli", "report", str(store_dir)],
            capture_output=True, text=True, cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src")},
        )
        assert cli.returncode == 0
        assert served == cli.stdout

    def test_artifact_before_any_records_is_a_400(self, client, server):
        # scheduler stopped: the job stays QUEUED with no store on disk
        server.service.scheduler.stop()
        job = client.submit(SMOKE_SPEC)
        with pytest.raises(ServiceClientError) as excinfo:
            client.artifact(job["id"], "table1")
        assert excinfo.value.status == 400
        assert "no results yet" in excinfo.value.payload["error"]

    def test_unservable_artifact_kind_is_a_409(self, client):
        job = client.wait(client.submit(SMOKE_SPEC)["id"], timeout=120.0)
        # table2 needs a variation-class campaign; this store cannot serve it
        with pytest.raises(ServiceClientError) as excinfo:
            client.artifact(job["id"], "table2")
        assert excinfo.value.status == 409
        assert "variation class" in excinfo.value.payload["error"]

    def test_unservable_artifact_carries_its_store_code(self, client):
        job = client.wait(client.submit(SMOKE_SPEC)["id"], timeout=120.0)
        with pytest.raises(ServiceClientError) as excinfo:
            client.artifact(job["id"], "table2")
        assert excinfo.value.payload["code"] == "store/incompatible"

    @pytest.mark.parametrize(
        "damage, code",
        [
            (lambda data: b"[1,2]\n" + data, "store/corrupt-line"),
            (lambda data: b"\xff\n" + data, "store/corrupt-line"),
        ],
        ids=["array-line", "non-utf8-line"],
    )
    def test_artifact_of_a_damaged_store_is_a_coded_409(self, client, server, damage, code):
        job = client.wait(client.submit(SMOKE_SPEC)["id"], timeout=120.0)
        store_dir = server.service.registry.get("alice", job["id"]).store_dir
        records = store_dir / "postgres.jsonl"
        records.write_bytes(damage(records.read_bytes()))
        for artifact in ("table1", "report"):
            with pytest.raises(ServiceClientError) as excinfo:
                client.artifact(job["id"], artifact)
            assert excinfo.value.status == 409
            assert excinfo.value.payload["code"] == code
            assert "corrupt record" in excinfo.value.payload["error"]

    def test_artifact_of_a_store_with_a_non_object_manifest_is_a_coded_409(self, client, server):
        job = client.wait(client.submit(SMOKE_SPEC)["id"], timeout=120.0)
        store_dir = server.service.registry.get("alice", job["id"]).store_dir
        (store_dir / "manifest.json").write_bytes(b"[]\n")
        with pytest.raises(ServiceClientError) as excinfo:
            client.artifact(job["id"], "table1")
        assert excinfo.value.status == 409
        assert excinfo.value.payload["code"] == "store/manifest-shape"

    def test_served_table2_of_the_table2_spec_matches_cli_from_store(self, client, server):
        # service stores are suite stores; Table 2 renders from their records
        from repro.bench.table2 import table2_spec

        spec = table2_spec(variants_per_class=1).to_dict()
        job = client.wait(client.submit(spec)["id"], timeout=120.0)
        served = client.artifact(job["id"], "table2")
        store_dir = server.service.registry.get("alice", job["id"]).store_dir
        cli = subprocess.run(
            [sys.executable, "-m", "repro.cli", "table2", "--from-store", str(store_dir)],
            capture_output=True, text=True, cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src")},
        )
        assert cli.returncode == 0
        assert served == cli.stdout
        assert "% of assumptions satisfied" in served


class TestCancelOverHttp:
    def test_delete_cancels_a_queued_job(self, client, server):
        server.service.scheduler.stop()  # keep it queued
        job = client.submit(SMOKE_SPEC)
        cancelled = client.cancel(job["id"])
        assert cancelled["state"] == "CANCELLED"

    def test_delete_on_a_done_job_is_a_409(self, client):
        job = client.wait(client.submit(SMOKE_SPEC)["id"], timeout=120.0)
        with pytest.raises(ServiceClientError) as excinfo:
            client.cancel(job["id"])
        assert excinfo.value.status == 409


class TestClientErrors:
    def test_unreachable_service_raises_service_error(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=0.5)  # discard port
        with pytest.raises(ServiceError, match="cannot reach service"):
            client.health()
