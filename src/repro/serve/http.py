"""HTTP front-end: a transport-agnostic router + the stdlib server.

:class:`ServeApp` maps ``(method, path, payload)`` to ``(status, body,
headers)`` with every error already shaped — the stdlib handler below
is a thin skin over it, so tier-1 tests exercise the full routing logic
with zero third-party dependencies.

The stdlib server is a ``ThreadingHTTPServer``: one thread per request,
which is exactly what the micro-batcher wants — concurrent request
threads are the raw material it coalesces.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.serve.jobs import JobManager, JobQueueFull, UnknownJob
from repro.serve.schema import ValidationError
from repro.serve.service import WhatIfService

Response = Tuple[int, dict, Dict[str, str]]


class ServeApp:
    """Routes requests to the service core and the job manager."""

    def __init__(self, service: WhatIfService,
                 jobs: Optional[JobManager] = None):
        self.service = service
        self.jobs = jobs

    # -- endpoint bodies -------------------------------------------------

    def health(self) -> dict:
        return {"status": "ok", "warm": self.service.warm,
                "jobs_enabled": self.jobs is not None}

    def metrics(self) -> dict:
        return self.service.metrics.snapshot()

    # -- routing ---------------------------------------------------------

    def handle(self, method: str, path: str,
               payload=None) -> Response:
        """One request in, one ``(status, body, headers)`` out."""
        try:
            return self._route(method, path, payload)
        except ValidationError as exc:
            return 400, {"error": exc.to_dict()}, {}
        except JobQueueFull as exc:
            return (429, {"error": {"message": str(exc)}},
                    {"Retry-After": f"{exc.retry_after:.0f}"})
        except UnknownJob as exc:
            return (404, {"error": {"message":
                                    f"unknown job {exc.job_id!r}"}}, {})
        except Exception as exc:  # last resort: never a raw traceback
            return (500, {"error": {"message":
                                    f"{type(exc).__name__}: {exc}"}}, {})

    def _route(self, method: str, path: str, payload) -> Response:
        path = path.rstrip("/") or "/"
        if path == "/health":
            return self._get_only(method, self.health)
        if path == "/metrics":
            return self._get_only(method, self.metrics)
        if path == "/predict":
            if method != "POST":
                return self._method_not_allowed("POST")
            return 200, self.service.predict_payload(payload), {}
        if path == "/sweep":
            if method != "POST":
                return self._method_not_allowed("POST")
            if self.jobs is None:
                return (503, {"error": {"message":
                                        "sweep jobs are disabled"}}, {})
            from repro.serve.schema import SweepRequest
            request = SweepRequest.from_payload(payload)
            return 202, self.jobs.submit(request), {}
        if path.startswith("/jobs/"):
            if method != "GET":
                return self._method_not_allowed("GET")
            if self.jobs is None:
                return (503, {"error": {"message":
                                        "sweep jobs are disabled"}}, {})
            job_id = path[len("/jobs/"):]
            return 200, self.jobs.status(job_id), {}
        return (404, {"error": {"message": f"no route for {path!r}"}},
                {})

    @staticmethod
    def _get_only(method: str, fn) -> Response:
        if method != "GET":
            return ServeApp._method_not_allowed("GET")
        return 200, fn(), {}

    @staticmethod
    def _method_not_allowed(allowed: str) -> Response:
        return (405, {"error": {"message": f"use {allowed}"}},
                {"Allow": allowed})

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Graceful drain: finish accepted predictions, release jobs."""
        self.service.close()
        if self.jobs is not None:
            self.jobs.shutdown()


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON skin over :meth:`ServeApp.handle`."""

    server_version = "repro-serve/1"
    app: ServeApp  # set by create_server on the subclass

    def _respond(self, status: int, body: dict,
                 headers: Dict[str, str]) -> None:
        data = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _payload(self):
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return None
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError("body", f"invalid JSON: {exc}")

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._respond(*self.app.handle("GET", self.path))

    def do_POST(self) -> None:  # noqa: N802
        try:
            payload = self._payload()
        except ValidationError as exc:
            self._respond(400, {"error": exc.to_dict()}, {})
            return
        self._respond(*self.app.handle("POST", self.path, payload))

    def log_message(self, format: str, *args) -> None:
        pass  # request logging belongs to /metrics, not stderr


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # The stdlib default listen backlog is 5.  Batched rounds complete
    # every rider at the same instant, so closed-loop clients reconnect
    # in synchronized bursts — with a 5-deep backlog those bursts drop
    # SYNs and the retransmit turns a 20 ms request into a 1 s one.
    request_queue_size = 128


def create_server(app: ServeApp, host: str = "127.0.0.1",
                  port: int = 0) -> ThreadingHTTPServer:
    """A ready-to-run threading server bound to ``host:port``.

    ``port=0`` binds an ephemeral port (tests); read the actual one
    from ``server.server_address[1]``.
    """
    handler = type("BoundHandler", (_Handler,), {"app": app})
    return _Server((host, port), handler)


class ServerThread:
    """Run a server in a background thread with a clean stop.

    ``repro serve`` and the in-process tests use this; the CLI's
    foreground mode calls :meth:`stop` from its signal handler.
    """

    def __init__(self, app: ServeApp, host: str = "127.0.0.1",
                 port: int = 0):
        self.app = app
        self.server = create_server(app, host, port)
        self._thread = threading.Thread(
            target=self.server.serve_forever, name="serve-http",
            daemon=True)

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self.server.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ServerThread":
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, drain the batcher, release the job pool."""
        self.server.shutdown()
        self.server.server_close()
        self.app.close()
        self._thread.join(timeout=5.0)
