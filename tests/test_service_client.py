"""The service transport: persistent connections, reconnect-once,
teardown on stop, and request-body hygiene on kept connections.

The contracts under test (see ``repro.service.client`` and the HTTP
layer of ``repro.service.server``):

- a client keeps one connection per thread, so N sequential requests
  cost one accept, and a request is a round trip, not a handshake plus
  a Nagle stall;
- a kept connection the server closed while it idled is replaced
  transparently, and a submit that hits one enqueues exactly one job;
- a stopped (or crash-stopped) service answers nothing, even on a
  connection it accepted before stopping, while a draining one still
  serves reads;
- a request whose body the server did not consume, or consumed and
  refused, ends its connection, so leftover bytes never become the next
  request; no malformed body yields a 5xx, a dropped connection or a
  hang.
"""

import json
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.service import JobSpec, ServiceClient, ServiceError, SweepService


def _spec(**overrides) -> JobSpec:
    fields = dict(
        benchmark="lusearch",
        collectors=("G1",),
        multiples=(2.0,),
        invocations=1,
        scale=0.05,
    )
    fields.update(overrides)
    return JobSpec(**fields)


class _Idle:
    """A worker that never claims: submitted jobs stay QUEUED."""

    def run(self) -> None:
        pass


def _idle_service(tmp_path, handler_timeout_s=None) -> SweepService:
    svc = SweepService(tmp_path / "state", port=0)
    svc.make_worker = _Idle
    svc.start()
    if handler_timeout_s is not None:
        # Applies to connections accepted from now on.
        svc._httpd.RequestHandlerClass.timeout = handler_timeout_s
    return svc


def _count_accepts(svc) -> list:
    """Record every connection the service's listener accepts."""
    accepted = []
    get_request = svc._httpd.get_request

    def counting_get_request():
        request = get_request()
        accepted.append(request[1])
        return request

    svc._httpd.get_request = counting_get_request
    return accepted


def _wait_until(predicate, timeout_s=5.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


@pytest.fixture
def service(tmp_path):
    svc = _idle_service(tmp_path)
    yield svc
    svc.stop("test")


@pytest.fixture
def client(service):
    with ServiceClient(f"http://127.0.0.1:{service.port}") as client:
        yield client


class TestPersistentConnections:
    def test_thirty_requests_from_one_thread_use_one_connection(self, service, client):
        accepted = _count_accepts(service)
        job = client.submit(_spec())
        for _ in range(9):
            assert client.status(job["id"])["id"] == job["id"]
            assert client.livez()["live"] is True
            assert client.health()["status"] in ("healthy", "degraded")
        client.metrics()
        assert len(accepted) == 1

    def test_sequential_requests_do_not_stall(self, client):
        client.livez()  # connect outside the timed loop
        started = time.monotonic()
        for _ in range(40):
            client.livez()
        # ~40 ms a request if Nagle's algorithm met delayed ACK.
        assert time.monotonic() - started < 1.0

    def test_idle_close_by_the_server_reconnects_transparently(self, tmp_path):
        svc = _idle_service(tmp_path, handler_timeout_s=0.2)
        accepted = _count_accepts(svc)
        try:
            with ServiceClient(f"http://127.0.0.1:{svc.port}") as client:
                assert client.livez()["live"] is True
                _wait_until(lambda: not svc._connections)  # idle timeout hit
                assert client.livez()["live"] is True
            assert len(accepted) == 2
        finally:
            svc.stop("test")

    def test_submit_on_a_stale_connection_enqueues_exactly_one_job(self, tmp_path):
        svc = _idle_service(tmp_path, handler_timeout_s=0.2)
        try:
            with ServiceClient(f"http://127.0.0.1:{svc.port}") as client:
                client.livez()
                _wait_until(lambda: not svc._connections)
                reply = client.submit(_spec())
            assert not reply["deduplicated"]
            assert [job.id for job in svc.queue.jobs()] == [reply["id"]]
        finally:
            svc.stop("test")

    def test_a_shared_client_matches_each_thread_its_own_responses(self, service, client):
        accepted = _count_accepts(service)
        jobs = [client.submit(_spec(priority=i))["id"] for i in range(4)]
        mismatches = []

        def poll(job_id):
            for _ in range(50):
                reply = client.status(job_id)
                if reply["id"] != job_id:
                    mismatches.append((job_id, reply["id"]))

        threads = [threading.Thread(target=poll, args=(job_id,)) for job_id in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert len(accepted) == 5  # the submitting thread plus one per poller

    def test_close_releases_connections_and_the_client_stays_usable(self, service):
        accepted = _count_accepts(service)
        with ServiceClient(f"http://127.0.0.1:{service.port}") as client:
            client.livez()
            _wait_until(lambda: len(service._connections) == 1)
        _wait_until(lambda: not service._connections)  # the server saw EOF
        assert client.livez()["live"] is True
        client.close()
        assert len(accepted) == 2

    def test_unsupported_url_is_refused_up_front(self):
        with pytest.raises(ValueError, match="http"):
            ServiceClient("127.0.0.1:8642")


class TestStoppedServiceAnswersNothing:
    @pytest.mark.parametrize("how", ["stop", "crash_stop"])
    def test_a_kept_connection_gets_a_transport_error(self, tmp_path, how):
        svc = _idle_service(tmp_path)
        with ServiceClient(f"http://127.0.0.1:{svc.port}", timeout_s=2.0) as client:
            assert client.health()["status"] == "healthy"
            if how == "stop":
                svc.stop("test")
            else:
                svc.crash_stop()
            with pytest.raises(ServiceError) as err:
                client.health()
        assert err.value.status == 0
        _wait_until(lambda: not svc._connections)

    def test_a_draining_service_still_serves_reads(self, service, client):
        job = client.submit(_spec())
        client.cancel(job["id"])
        service.begin_drain("preStop")
        assert client.status(job["id"])["state"] == "CANCELLED"
        assert client.result(job["id"])["result"] is None
        assert client.health()["status"] == "draining"


def _raw_exchange(client, method, target, body=b"", content_length=None):
    """Send one hand-framed request on ``client``'s kept connection and
    return ``(status, decoded body, connection header)``."""
    connection = client._connection()
    connection.putrequest(method, target, skip_accept_encoding=True)
    if content_length is not None:
        connection.putheader("Content-Length", content_length)
    connection.endheaders(body or None)
    response = connection.getresponse()
    payload = response.read()
    return response.status, json.loads(payload), response.getheader("Connection")


class TestRequestBodyHygiene:
    @pytest.mark.parametrize("content_length", ["abc", "-5", "1_0", "+3", "\xb2"])
    def test_invalid_content_length_is_400_and_closes(self, client, content_length):
        client.livez()
        status, payload, connection = _raw_exchange(
            client, "POST", "/jobs", b'{"benchmark": "lusearch"}', content_length
        )
        assert status == 400
        assert "Content-Length" in payload["error"]
        assert connection == "close"
        assert client.livez()["live"] is True

    @pytest.mark.parametrize("target", ["/jobs/{id}/cancel", "/bogus"])
    def test_an_unread_body_closes_the_connection(self, client, target):
        job = client.submit(_spec())
        leftover = b"GET /bogus HTTP/1.1\r\n\r\n"
        status, _, connection = _raw_exchange(
            client, "POST", target.format(id=job["id"]), leftover, str(len(leftover))
        )
        assert status in (200, 404)
        assert connection == "close"
        # Had the leftover been parsed as a request, this would get its 404.
        assert client.status(job["id"])["id"] == job["id"]

    def test_a_refused_body_read_in_full_closes_but_a_bodyless_error_keeps(
        self, service, client
    ):
        accepted = _count_accepts(service)
        with pytest.raises(ServiceError):
            client.status("job-missing")  # a 404 with no body: keep it
        with pytest.raises(ServiceError) as err:
            client.submit({"benchmark": "no-such-workload"})
        assert err.value.status == 400
        client.livez()
        assert len(accepted) == 2

    def test_fuzzed_requests_never_break_the_next_one(self, tmp_path):
        # A short handler timeout bounds the over-long Content-Length
        # cases, where the server waits for bytes that never come.
        svc = _idle_service(tmp_path, handler_timeout_s=0.5)
        client = ServiceClient(f"http://127.0.0.1:{svc.port}")
        job_id = client.submit(_spec())["id"]
        others = [
            (method, target)
            for method in ("POST", "GET")
            for target in ("/jobs", f"/jobs/{job_id}", f"/jobs/{job_id}/cancel", "/bogus")
        ]

        leaves = (
            st.none() | st.booleans() | st.integers() | st.text(max_size=12)
            | st.floats(allow_nan=False, allow_infinity=False)
        )
        json_values = st.recursive(
            leaves,
            lambda children: st.lists(children, max_size=4)
            | st.dictionaries(st.text(max_size=10), children, max_size=4),
            max_leaves=16,
        )
        bodies = st.one_of(
            json_values.map(lambda value: json.dumps(value).encode("utf-8")),
            st.binary(min_size=1, max_size=64),  # non-JSON, invalid UTF-8
            st.integers(1, 4).map(lambda n: b'{"benchmark": "\xff\xfe"}' * n),
            st.integers(1, 50_000).map(lambda depth: b"[" * depth + b"]" * depth),
            st.integers(1, 20_000).map(lambda depth: b'{"a":' * depth + b"1" + b"}" * depth),
        )

        @st.composite
        def requests(draw):
            body = draw(bodies)
            framing = draw(
                st.just("exact") | st.sampled_from(["short", "long", "invalid", "absent"])
            )
            if framing == "short" and len(body) >= 2:
                length = str(draw(st.integers(1, len(body) - 1)))
            elif framing == "long":
                length = str(len(body) + draw(st.integers(1, 64)))
            elif framing == "invalid":
                length = draw(st.sampled_from(["-1", "abc", "1.5", "0x10", "1_0", " ", "+3"]))
            elif framing == "absent":
                # No framing at all: any bytes sent would simply be the
                # next request, so send none.
                length, body = None, b""
            else:
                length = str(len(body))
            method, target = draw(st.just(("POST", "/jobs")) | st.sampled_from(others))
            return method, target, body, length

        deep = b"[" * 5000 + b"]" * 5000
        not_utf8 = b'{"benchmark": "\xff"}'

        @settings(
            max_examples=60,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
        )
        @given(request=requests())
        @example(request=("POST", "/jobs", deep, str(len(deep))))
        @example(request=("POST", "/jobs", not_utf8, str(len(not_utf8))))
        @example(request=("POST", "/jobs", b"{}", "9"))
        @example(request=("POST", "/jobs", b"{}", "-1"))
        def check(request):
            method, target, body, length = request
            client.livez()  # replaces a connection the idle timeout closed
            status, payload, _ = _raw_exchange(client, method, target, body, length)
            assert 200 <= status < 300 or 400 <= status < 500, (status, payload)
            assert client.status(job_id)["id"] == job_id

        try:
            check()
        finally:
            client.close()
            svc.stop("test")
