"""Stdlib HTTP front-end of the campaign service (no new dependencies).

A :class:`http.server.ThreadingHTTPServer` -- one thread per request, so
many clients can poll progress while jobs run -- mapping a small JSON API
onto :class:`~repro.service.app.CampaignService`:

====== ============================== ===========================================
Method Path                           Meaning
====== ============================== ===========================================
GET    ``/healthz``                   liveness + per-state job counts
POST   ``/jobs``                      submit a spec (JSON body; TOML with a
                                      ``Content-Type: application/toml`` header);
                                      400 carries the ``validate --json`` report
GET    ``/jobs``                      list the calling tenant's jobs
GET    ``/jobs/{id}``                 job state + live per-cell progress
DELETE ``/jobs/{id}``                 cancel (queued: immediate; running:
                                      cooperative between records)
GET    ``/jobs/{id}/{artifact}``      render ``table1|table2|table3|figure3|
                                      matrix|report`` from the job's store,
                                      byte-identical to the CLI ``--from-store``
====== ============================== ===========================================

Tenancy rides on the ``X-Tenant`` header (default ``default``); a tenant
can only ever see its own jobs.  Errors are JSON ``{"error": ...}`` except
spec rejections, which return the machine-readable validation report.
"""

from __future__ import annotations

import json
import re
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.errors import ServiceConflictError, ServiceError, ServiceNotFoundError, StoreError
from repro.service.app import ARTIFACT_NAMES, CampaignService, SpecRejected
from repro.service.jobs import DEFAULT_TENANT, validate_tenant

__all__ = ["make_server", "serve"]

_JOB_PATH = re.compile(r"^/jobs/([A-Za-z0-9._-]+)$")
_ARTIFACT_PATH = re.compile(
    r"^/jobs/([A-Za-z0-9._-]+)/(" + "|".join(ARTIFACT_NAMES) + r")$"
)
#: Submissions larger than this are refused outright (a spec is small; a
#: multi-megabyte body is a mistake or abuse, not an experiment).
_MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    server_version = "conferr-service"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> CampaignService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # quiet by default: tests
            super().log_message(format, *args)  # pragma: no cover

    # ---------------------------------------------------------------- plumbing
    def _send_json(self, status: int, payload: Any) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _tenant(self) -> str:
        return validate_tenant(self.headers.get("X-Tenant", DEFAULT_TENANT))

    def _read_body(self) -> str:
        header = (self.headers.get("Content-Length") or "0").strip()
        if not (header.isascii() and header.isdigit()):
            # a negative length would make rfile.read block until the client
            # hangs up; the unread body also makes the connection unusable
            self.close_connection = True
            raise ServiceError(f"invalid Content-Length {header!r}: expected a byte count")
        length = int(header)
        if length > _MAX_BODY_BYTES:
            self.close_connection = True
            raise ServiceError(
                f"request body of {length} bytes exceeds the "
                f"{_MAX_BODY_BYTES}-byte spec limit"
            )
        return self.rfile.read(length).decode("utf-8") if length else ""

    def _dispatch(self, method: str) -> None:
        try:
            self._route(method)
        except SpecRejected as exc:
            self._send_json(400, exc.report)
        except ServiceNotFoundError as exc:
            self._send_json(404, {"error": str(exc)})
        except ServiceConflictError as exc:
            # a finished job cannot be cancelled: the request was
            # well-formed, the state says no
            self._send_json(409, {"error": str(exc)})
        except StoreError as exc:
            # a store unable to serve an artifact (wrong run kind, damaged)
            # is a conflict too; its code says which
            self._send_json(409, {"error": str(exc), "code": exc.code})
        except ServiceError as exc:
            self._send_json(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 - a handler must never kill the server
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    # ------------------------------------------------------------------ routes
    def _route(self, method: str) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET" and path == "/healthz":
            self._send_json(200, self.service.health())
            return
        if path == "/jobs":
            tenant = self._tenant()
            if method == "POST":
                content_type = (self.headers.get("Content-Type") or "").lower()
                toml = "toml" in content_type
                job = self.service.submit_text(tenant, self._read_body(), toml=toml)
                self._send_json(201, job.to_dict())
            elif method == "GET":
                jobs = [job.to_dict() for job in self.service.registry.list(tenant)]
                self._send_json(200, {"jobs": jobs})
            else:
                self._send_json(405, {"error": f"method {method} not allowed on {path}"})
            return
        match = _JOB_PATH.match(path)
        if match:
            tenant = self._tenant()
            if method == "GET":
                self._send_json(200, self.service.job(tenant, match.group(1)).to_dict())
            elif method == "DELETE":
                self._send_json(200, self.service.cancel(tenant, match.group(1)).to_dict())
            else:
                self._send_json(405, {"error": f"method {method} not allowed on {path}"})
            return
        match = _ARTIFACT_PATH.match(path)
        if match:
            if method != "GET":
                self._send_json(405, {"error": f"method {method} not allowed on {path}"})
                return
            text = self.service.artifact(self._tenant(), match.group(1), match.group(2))
            self._send_text(200, text)
            return
        self._send_json(404, {"error": f"no such endpoint: {method} {path}"})

    # ----------------------------------------------------------- http verbs
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler contract
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


def make_server(
    service: CampaignService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind the API to ``host:port`` (port 0 picks a free one) -- not started.

    The caller owns the loop: ``server.serve_forever()`` to block, or run
    it on a thread (tests do) and ``server.shutdown()`` to stop.
    """
    server = ThreadingHTTPServer((host, port), _Handler)
    server.daemon_threads = True
    server.service = service  # type: ignore[attr-defined]
    return server


def serve(
    data_dir: str,
    *,
    host: str = "127.0.0.1",
    port: int = 8765,
    jobs_per_tenant: int = 1,
    workers: int = 2,
    verbose: bool = True,
) -> int:
    """Run the service until interrupted; returns a process exit status.

    SIGINT/SIGTERM (the CLI folds the latter into KeyboardInterrupt) stop
    the server, interrupt running jobs between records and requeue them --
    the next ``conferr serve`` on the same data dir resumes exactly where
    this one stopped.
    """
    service = CampaignService(
        data_dir, jobs_per_tenant=jobs_per_tenant, workers=workers
    ).start()
    server = make_server(service, host=host, port=port)
    server.verbose = verbose  # type: ignore[attr-defined]
    if verbose:
        print(
            f"conferr service on http://{host}:{server.server_address[1]} "
            f"(data dir: {data_dir}, {jobs_per_tenant} job(s)/tenant, "
            f"{workers} worker(s)); Ctrl-C to stop"
        )
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.stop()
    if verbose:
        print("conferr service stopped; queued/interrupted jobs resume on restart")
    return 0
