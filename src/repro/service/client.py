"""ServiceClient: the stdlib HTTP/1.1 client behind ``chopin submit``.

One class, no dependencies beyond ``http.client``: enough to script the
service end to end (submit → poll → fetch → cancel) from the CLI verbs,
the tests, and the benchmark harness.  Transport and HTTP-status
failures both surface as :class:`ServiceError` carrying the status code
and the server's ``error`` message, so callers never parse tracebacks.

Connections persist.  Each thread that uses a client gets one
``http.client.HTTPConnection`` (``HTTPSConnection`` for ``https://``
URLs) and every later request from that thread reuses it, so a poll
costs one round trip instead of a TCP handshake, an accept and a
server-side handler thread.  When a request fails on a *reused*
connection before any status line arrives — the server closed it while
it idled, after a 413, or on a restart — it is retried once on a fresh
connection.  :meth:`ServiceClient.close` (or leaving a ``with`` block)
releases every thread's connection.

Submission is retried with bounded exponential backoff when the service
sheds load (503 — honoring its ``Retry-After`` hint) or is briefly
unreachable (status 0: connection refused mid-restart).  Every submit
carries an ``Idempotency-Key`` header, generated once per :meth:`submit`
call, so a retry after an ambiguous failure (the request landed but the
response was lost) dedupes server-side instead of double-enqueuing the
sweep.  The same key makes the reconnect-once retry safe for submits;
cancel is idempotent and every other verb is a read.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
import uuid
from typing import Callable, Optional, Set


class ServiceError(Exception):
    """An HTTP error from the sweep service (or a transport failure).

    ``status`` is the HTTP status code (0 for transport failures —
    connection refused, timeouts); the message is the server's ``error``
    field when it sent one.  ``retry_after_s`` carries the server's
    ``Retry-After`` hint when the response had one (backpressure 503s).
    """

    def __init__(
        self, status: int, message: str, retry_after_s: Optional[float] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after_s = retry_after_s


class ServiceClient:
    """A client for one :class:`~repro.service.server.SweepService`.

    ``base_url`` is the service root (e.g. ``http://127.0.0.1:8642``);
    ``timeout_s`` bounds each HTTP call.  ``retries`` bounds how many
    times :meth:`submit` re-attempts a shed (503) or unreachable
    (status 0) request; backoff doubles from ``backoff_base_s`` up to
    ``backoff_cap_s`` unless the server's ``Retry-After`` says when.
    ``sleep`` is injectable so tests assert the backoff schedule without
    waiting it out.  Methods return the decoded JSON payloads the
    endpoints document.

    A client may be shared by threads: each keeps its own persistent
    connection.  Use it as a context manager, or call :meth:`close`, to
    release them.
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 10.0,
        retries: int = 0,
        backoff_base_s: float = 0.25,
        backoff_cap_s: float = 5.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self.retries = max(0, retries)
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self._sleep = sleep
        url = urllib.parse.urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"service URL must be http(s)://host[:port], got {base_url!r}")
        self._connection_class = (
            http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        )
        self._address = (url.hostname, url.port)
        self._prefix = url.path
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: Set[http.client.HTTPConnection] = set()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Close every thread's kept connection.  The client stays
        usable: a later request opens a fresh one."""
        with self._lock:
            connections, self._connections = self._connections, set()
        for connection in connections:
            connection.close()

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection, opened on first use (and again
        after :meth:`close`)."""
        connection = getattr(self._local, "connection", None)
        with self._lock:
            if connection not in self._connections:
                host, port = self._address
                connection = self._connection_class(host, port, timeout=self.timeout_s)
                self._local.connection = connection
                self._connections.add(connection)
        return connection

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        raw: bool = False,
        headers: Optional[dict] = None,
    ):
        data = None
        request_headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            request_headers["Content-Type"] = "application/json"
        request_headers.update(headers or {})
        connection = self._connection()
        target = self._prefix + path
        reused = connection.sock is not None
        try:
            try:
                connection.request(method, target, body=data, headers=request_headers)
                response = connection.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                # The server closed the kept connection (idle timeout, a
                # 413, a restart) before any status line arrived: retry
                # once on a fresh one.  Submits keep their idempotency
                # key across this retry, and cancel is idempotent.
                connection.close()
                connection.request(method, target, body=data, headers=request_headers)
                response = connection.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            raise ServiceError(0, f"{method} {path}: {exc}") from None
        if not 200 <= response.status < 300:
            detail = payload.decode("utf-8", "replace")
            try:
                detail = json.loads(detail).get("error", detail)
            except (ValueError, AttributeError):
                pass
            retry_after = response.getheader("Retry-After")
            try:
                retry_after = float(retry_after) if retry_after is not None else None
            except ValueError:
                retry_after = None
            raise ServiceError(
                response.status, f"{method} {path}: {detail}", retry_after_s=retry_after
            )
        text = payload.decode("utf-8")
        return text if raw else json.loads(text)

    def _backoff_s(self, attempt: int, error: ServiceError) -> float:
        """How long to sleep before retry ``attempt`` (0-based): the
        server's ``Retry-After`` when it sent one, else capped doubling."""
        if error.retry_after_s is not None:
            return max(0.0, error.retry_after_s)
        return min(self.backoff_cap_s, self.backoff_base_s * (2.0 ** attempt))

    @staticmethod
    def _retryable(error: ServiceError) -> bool:
        # 503 = backpressure or a draining restart; 0 = transport (the
        # service is mid-restart).  Everything else is the caller's bug.
        return error.status in (503, 0)

    # ------------------------------------------------------------------
    # The five verbs

    def submit(self, spec: dict, idempotency_key: Optional[str] = None) -> dict:
        """``POST /jobs`` — returns ``{"id", "state", "deduplicated"}``.

        ``spec`` is a JSON job spec (or anything with ``to_payload()``,
        e.g. a :class:`~repro.service.jobqueue.JobSpec`).  One
        idempotency key covers the whole call including its internal
        retries, so a retried submit returns the original job id with
        ``deduplicated=True`` instead of enqueuing a duplicate."""
        payload = spec.to_payload() if hasattr(spec, "to_payload") else spec
        key = idempotency_key or uuid.uuid4().hex
        attempt = 0
        while True:
            try:
                return self._request(
                    "POST", "/jobs", body=payload, headers={"Idempotency-Key": key}
                )
            except ServiceError as exc:
                if attempt >= self.retries or not self._retryable(exc):
                    raise
                self._sleep(self._backoff_s(attempt, exc))
                attempt += 1

    def status(self, job_id: str) -> dict:
        """``GET /jobs/<id>`` — state, holes, stats."""
        return self._request("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> dict:
        """``GET /jobs/<id>/result`` — the terminal payload (raises
        :class:`ServiceError` 409 while the job is still in flight)."""
        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        """``POST /jobs/<id>/cancel``."""
        return self._request("POST", f"/jobs/{job_id}/cancel")

    def health(self) -> dict:
        """``GET /health`` — the health state machine + counters."""
        return self._request("GET", "/health")

    # ------------------------------------------------------------------
    # Conveniences

    def livez(self) -> dict:
        """``GET /livez`` — process liveness."""
        return self._request("GET", "/livez")

    def readyz(self) -> dict:
        """``GET /readyz`` — admission readiness (raises
        :class:`ServiceError` 503 when draining or saturated)."""
        return self._request("GET", "/readyz")

    def jobs(self) -> list:
        """``GET /jobs`` — every known job's status payload."""
        return self._request("GET", "/jobs")["jobs"]

    def metrics(self) -> str:
        """``GET /metrics`` — the rendered metrics dump."""
        return self._request("GET", "/metrics", raw=True)

    def wait(self, job_id: str, timeout_s: float = 60.0, poll_s: float = 0.05) -> dict:
        """Poll until the job reaches a terminal state; returns the final
        status payload, or raises :class:`ServiceError` on timeout.

        Transport failures mid-poll (the service restarting) are treated
        as "still waiting" until the deadline — a restarted service
        replays its journal and resumes the job, so giving up on the
        first refused connection would abandon work that still finishes.
        """
        from repro.service.jobqueue import TERMINAL_STATES

        deadline = time.monotonic() + timeout_s
        last_error: Optional[ServiceError] = None
        state = "unknown"
        while True:
            try:
                status = self.status(job_id)
                state, last_error = status["state"], None
                if state in TERMINAL_STATES:
                    return status
            except ServiceError as exc:
                if exc.status != 0:
                    raise
                last_error = exc
            if time.monotonic() >= deadline:
                if last_error is not None:
                    raise ServiceError(
                        0,
                        f"job {job_id} unreachable after {timeout_s:g}s "
                        f"({last_error})",
                    )
                raise ServiceError(
                    0, f"job {job_id} still {state} after {timeout_s:g}s"
                )
            self._sleep(poll_s)
