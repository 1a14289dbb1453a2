"""Service hardening: leases, dead letters, crash containment,
backpressure, journal rotation, the doctor's jobs-journal pass, the
health state machine, client retry semantics, and the service-level
chaos drill.

The contracts under test (see ``repro.service`` and ISSUE PR 10):

- a RUNNING job holds a time-bound lease; an expired lease is requeued
  by the reaper and dead-letters at **exactly** ``max_requeues``;
- claim epochs fence stale workers: a hung worker that wakes up cannot
  finish or heartbeat the job it lost;
- an uncaught worker exception fails the held job with a structured
  payload and respawns the worker instead of shrinking the pool;
- ``POST /jobs`` sheds load with 503 + ``Retry-After`` past the queue
  high-water mark (with hysteresis), caps request bodies, and dedupes
  retried submits on ``Idempotency-Key``;
- the journal rotates at a size threshold and replays across segments;
- ``chopin doctor --jobs-journal`` scans and compacts the journal
  without double-counting requeues;
- the five-scenario service chaos drill passes deterministically.
"""

import json
import socket
import threading
import time
from http.server import ThreadingHTTPServer

import pytest

from repro.harness.config import harness_config
from repro.resilience import (
    ServiceFaultInjector,
    ServiceFaultSpec,
    compact_jobs_journal,
    scan_jobs_journal,
)
from repro.service import (
    JobQueue,
    JobSpec,
    JobStateError,
    ServiceClient,
    ServiceError,
    SweepService,
    service_chaos_drill,
)
from repro.service.server import MAX_BODY_BYTES, _make_handler


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


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _http_only(tmp_path, **config_fields):
    """A service with its HTTP front up but no workers and no reaper —
    submitted jobs stay QUEUED, which is exactly what the admission and
    client-error tests need."""
    config = harness_config(environ={}, **config_fields)
    svc = SweepService(tmp_path / "state", port=0, config=config)
    svc._httpd = ThreadingHTTPServer((svc.host, svc.port), _make_handler(svc))
    svc._httpd.daemon_threads = True
    svc.port = svc._httpd.server_address[1]
    thread = threading.Thread(target=svc._httpd.serve_forever, daemon=True)
    thread.start()
    svc._threads.append(thread)
    return svc


def _teardown_http_only(svc) -> None:
    svc._httpd.shutdown()
    svc._httpd.server_close()
    svc.queue.close()


def _wait_terminal(svc, job_id, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        job = svc.queue.get(job_id)
        if job.terminal:
            return job
        time.sleep(0.02)
    raise AssertionError(f"{job_id} still {svc.queue.get(job_id).state}")


class TestLeases:
    def test_claim_grants_lease_and_bumps_epoch(self):
        clock = FakeClock()
        queue = JobQueue(lease_s=10.0, clock=clock)
        queue.submit(_spec())
        job = queue.claim()
        assert job.claim_epoch == 1
        assert job.lease_expires == pytest.approx(10.0)

    def test_heartbeat_renews(self):
        clock = FakeClock()
        queue = JobQueue(lease_s=10.0, clock=clock)
        job = queue.submit(_spec())
        queue.claim()
        clock.advance(8.0)
        assert queue.heartbeat(job.id, epoch=1)
        assert queue.renewals == 1
        clock.advance(8.0)  # 16s total: only alive because of the renewal
        assert queue.reap() == []
        assert queue.get(job.id).state == "RUNNING"

    def test_expired_lease_is_requeued(self):
        clock = FakeClock()
        queue = JobQueue(lease_s=5.0, clock=clock)
        job = queue.submit(_spec())
        queue.claim()
        clock.advance(5.1)
        touched = queue.reap()
        assert [j.id for j in touched] == [job.id]
        assert queue.get(job.id).state == "QUEUED"
        assert queue.get(job.id).requeues == 1
        assert queue.reaped == 1
        # The requeued job is claimable again, under a fresh epoch.
        again = queue.claim(timeout=0.1)
        assert again.id == job.id and again.claim_epoch == 2

    def test_live_lease_is_left_alone(self):
        clock = FakeClock()
        queue = JobQueue(lease_s=5.0, clock=clock)
        queue.submit(_spec())
        queue.claim()
        clock.advance(4.9)
        assert queue.reap() == []

    def test_stale_epoch_heartbeat_is_fenced(self):
        clock = FakeClock()
        queue = JobQueue(lease_s=5.0, clock=clock)
        job = queue.submit(_spec())
        queue.claim()
        clock.advance(5.1)
        queue.reap()
        queue.claim(timeout=0.1)  # epoch 2 now owns the job
        assert not queue.heartbeat(job.id, epoch=1)
        assert queue.lease_losses == 1
        assert queue.heartbeat(job.id, epoch=2)

    def test_stale_epoch_finish_is_discarded(self):
        clock = FakeClock()
        queue = JobQueue(lease_s=5.0, clock=clock)
        job = queue.submit(_spec())
        queue.claim()
        clock.advance(5.1)
        queue.reap()
        queue.claim(timeout=0.1)
        assert queue.finish(job.id, "DONE", epoch=1) is None
        assert queue.lease_losses == 1
        assert queue.get(job.id).state == "RUNNING"  # new owner unaffected
        finished = queue.finish(job.id, "DONE", epoch=2)
        assert finished is not None and finished.state == "DONE"

    def test_unfenced_finish_keeps_legacy_behavior(self):
        queue = JobQueue(lease_s=5.0)
        job = queue.submit(_spec())
        queue.claim()
        assert queue.finish(job.id, "DONE").state == "DONE"


class TestDeadLetter:
    def test_dead_letter_at_exactly_max_requeues(self):
        clock = FakeClock()
        queue = JobQueue(lease_s=5.0, max_requeues=3, clock=clock)
        job = queue.submit(_spec())
        for expiry in range(1, 4):  # three expiries requeue
            queue.claim(timeout=0.1)
            clock.advance(5.1)
            queue.reap()
            assert queue.get(job.id).state == "QUEUED"
            assert queue.get(job.id).requeues == expiry
        queue.claim(timeout=0.1)
        clock.advance(5.1)
        queue.reap()  # the fourth expiry dead-letters
        final = queue.get(job.id)
        assert final.state == "DEAD_LETTER"
        assert final.requeues == 3  # exactly max_requeues, never more
        assert queue.dead_lettered == 1
        assert queue.dead_letters == 1
        assert "dead-lettered after 3 requeue(s)" in final.error
        assert "max_requeues=3" in final.error
        # Terminal: not claimable, not transitionable.
        assert queue.claim(timeout=0.05) is None
        with pytest.raises(JobStateError):
            queue.finish(job.id, "DONE")

    def test_max_requeues_zero_dead_letters_on_first_expiry(self):
        clock = FakeClock()
        queue = JobQueue(lease_s=5.0, max_requeues=0, clock=clock)
        job = queue.submit(_spec())
        queue.claim()
        clock.advance(5.1)
        queue.reap()
        assert queue.get(job.id).state == "DEAD_LETTER"
        assert queue.get(job.id).requeues == 0

    def test_status_payload_explains_dead_letter(self):
        clock = FakeClock()
        queue = JobQueue(lease_s=5.0, max_requeues=0, clock=clock)
        job = queue.submit(_spec())
        queue.claim()
        clock.advance(5.1)
        queue.reap()
        payload = queue.get(job.id).status_payload()
        assert payload["state"] == "DEAD_LETTER"
        assert "dead-lettered" in payload["error"]

    def test_replay_dead_letters_exhausted_running_job(self, tmp_path):
        clock = FakeClock()
        path = tmp_path / "jobs.jsonl"
        queue = JobQueue(path, lease_s=5.0, max_requeues=1, clock=clock)
        job = queue.submit(_spec())
        queue.claim()
        clock.advance(5.1)
        queue.reap()  # requeues -> 1 (the budget)
        queue.claim(timeout=0.1)  # crashes while RUNNING at the budget
        replayed = JobQueue(path, lease_s=5.0, max_requeues=1)
        assert replayed.get(job.id).state == "DEAD_LETTER"
        assert replayed.get(job.id).requeues == 1
        assert replayed.dead_lettered == 1


class TestJournalRotation:
    def test_rotation_produces_segments_and_replays(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        queue = JobQueue(path, rotate_bytes=256)
        jobs = [queue.submit(_spec()) for _ in range(6)]
        finished = [queue.claim(timeout=0.1) for _ in range(3)]
        for job in finished:
            queue.finish(job.id, "DONE", cells=4, stats={"executed": 4})
        assert queue._segments(), "256-byte threshold must have rotated"
        replayed = JobQueue(path, rotate_bytes=256)
        for job in jobs:
            original = queue.get(job.id)
            copy = replayed.get(job.id)
            assert (copy.state, copy.requeues, copy.cells) == (
                original.state,
                original.requeues,
                original.cells,
            )
        assert replayed.get(finished[0].id).stats == {"executed": 4}
        assert {j.state for j in replayed.jobs()} == {"DONE", "QUEUED"}

    def test_torn_line_inside_a_segment_is_tolerated(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        queue = JobQueue(path, rotate_bytes=200)
        jobs = [queue.submit(_spec()) for _ in range(4)]
        segments = queue._segments()
        assert segments
        # Tear a line in the middle of a sealed segment (disk rot).
        lines = segments[0].read_text().splitlines()
        lines[0] = lines[0][: len(lines[0]) // 2]
        segments[0].write_text("\n".join(lines) + "\n")
        replayed = JobQueue(path, rotate_bytes=200)
        # The torn submit line loses that job; every other job survives.
        survivors = {j.id for j in replayed.jobs()}
        assert len(survivors) >= len(jobs) - 1

    def test_active_torn_tail_then_rotation(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        queue = JobQueue(path)
        queue.submit(_spec())
        with path.open("a") as fh:
            fh.write('{"id": "job-9999')  # a crash mid-append
        replayed = JobQueue(path, rotate_bytes=64)
        assert len(replayed.jobs()) == 1
        replayed.submit(_spec())  # must not splice into the torn tail
        final = JobQueue(path, rotate_bytes=64)
        assert len(final.jobs()) == 2


class TestIdempotency:
    def test_submit_idempotent_dedupes(self):
        queue = JobQueue()
        first, created = queue.submit_idempotent(_spec(), "key-1")
        again, created_again = queue.submit_idempotent(_spec(), "key-1")
        assert created and not created_again
        assert first.id == again.id
        other, _ = queue.submit_idempotent(_spec(), "key-2")
        assert other.id != first.id

    def test_idempotency_key_survives_restart(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        queue = JobQueue(path)
        job, _ = queue.submit_idempotent(_spec(), "key-1")
        replayed = JobQueue(path)
        again, created = replayed.submit_idempotent(_spec(), "key-1")
        assert not created and again.id == job.id

    def test_http_resubmit_returns_original_job(self, tmp_path):
        svc = _http_only(tmp_path)
        try:
            client = ServiceClient(f"http://127.0.0.1:{svc.port}")
            first = client.submit(_spec(), idempotency_key="abc")
            second = client.submit(_spec(), idempotency_key="abc")
            assert not first["deduplicated"]
            assert second["deduplicated"]
            assert second["id"] == first["id"]
            assert svc.metrics.counter("service.jobs.deduplicated").value == 1
        finally:
            _teardown_http_only(svc)


class TestCrashContainment:
    def test_worker_crash_fails_job_and_respawns(self, tmp_path):
        svc = SweepService(tmp_path / "state", port=0)
        crashed = threading.Event()
        original = svc.make_worker

        def flaky_worker():
            worker = original()
            true_execute = worker.execute

            def execute(job, epoch=None):
                if not crashed.is_set():
                    crashed.set()
                    raise RuntimeError("synthetic worker crash")
                return true_execute(job, epoch=epoch)

            worker.execute = execute
            return worker

        svc.make_worker = flaky_worker
        svc.start()
        try:
            doomed, _ = svc.submit(_spec())
            failed = _wait_terminal(svc, doomed.id)
            assert failed.state == "FAILED"
            assert failed.failure["type"] == "RuntimeError"
            assert "synthetic worker crash" in failed.failure["message"]
            assert failed.failure["worker"]
            assert svc.metrics.counter("service.worker_crashes").value == 1
            # The pool respawned: the next job completes normally.
            healthy, _ = svc.submit(_spec())
            assert _wait_terminal(svc, healthy.id).state == "DONE"
            assert svc.metrics.counter("service.workers.respawned").value >= 1
        finally:
            svc.stop("test")

    def test_job_exception_is_contained_with_failure_payload(self, tmp_path):
        """An exception from the campaign itself (not the worker loop)
        also lands as FAILED with the structured payload."""
        svc = SweepService(tmp_path / "state", port=0)
        worker = svc.make_worker()
        job, _ = svc.submit(_spec())
        claimed = svc.queue.claim()

        def boom(*args, **kwargs):
            raise ValueError("engine detonated")

        import repro.service.server as server_mod

        original = server_mod.run_campaign
        server_mod.run_campaign = boom
        try:
            worker.execute(claimed, epoch=claimed.claim_epoch)
        finally:
            server_mod.run_campaign = original
            svc.queue.close()
        final = svc.queue.get(job.id)
        assert final.state == "FAILED"
        assert final.failure["type"] == "ValueError"
        assert "engine detonated" in final.failure["message"]


class TestBackpressure:
    def test_503_with_retry_after_and_hysteresis(self, tmp_path):
        svc = _http_only(tmp_path, queue_high_water=4)
        try:
            client = ServiceClient(f"http://127.0.0.1:{svc.port}")
            admitted = [client.submit(_spec()) for _ in range(4)]
            assert svc.saturated  # depth 4 == high water: latch
            with pytest.raises(ServiceError) as err:
                client.submit(_spec())
            assert err.value.status == 503
            assert err.value.retry_after_s is not None
            assert 1 <= err.value.retry_after_s <= 60
            # Hysteresis: the latch clears at high_water // 2 == 2, so
            # draining one job (depth 3) is NOT enough...
            client.cancel(admitted[0]["id"])
            assert svc.saturated
            with pytest.raises(ServiceError):
                client.submit(_spec())
            # ...but draining to the low-water mark reopens admission.
            client.cancel(admitted[1]["id"])
            assert not svc.saturated
            accepted = client.submit(_spec())
            assert accepted["state"] == "QUEUED"
        finally:
            _teardown_http_only(svc)

    def test_client_retry_honors_retry_after_then_succeeds(self, tmp_path):
        svc = _http_only(tmp_path, queue_high_water=1)
        try:
            blocker = ServiceClient(f"http://127.0.0.1:{svc.port}").submit(_spec())
            sleeps = []

            def sleep(seconds):
                sleeps.append(seconds)
                # The queue drains while we back off: the retry lands.
                svc.cancel(blocker["id"])

            client = ServiceClient(
                f"http://127.0.0.1:{svc.port}", retries=3, sleep=sleep
            )
            reply = client.submit(_spec())
            assert reply["state"] == "QUEUED"
            assert len(sleeps) == 1
            assert sleeps[0] >= 1  # the server's Retry-After, not the base backoff
        finally:
            _teardown_http_only(svc)

    def test_client_retries_exhaust_when_still_saturated(self, tmp_path):
        svc = _http_only(tmp_path, queue_high_water=1)
        try:
            ServiceClient(f"http://127.0.0.1:{svc.port}").submit(_spec())
            sleeps = []
            client = ServiceClient(
                f"http://127.0.0.1:{svc.port}", retries=2, sleep=sleeps.append
            )
            with pytest.raises(ServiceError) as err:
                client.submit(_spec())
            assert err.value.status == 503
            assert len(sleeps) == 2  # one per retry, then give up
        finally:
            _teardown_http_only(svc)

    def test_retry_after_estimate_is_clamped(self, tmp_path):
        svc = _http_only(tmp_path, queue_high_water=1)
        try:
            assert 1 <= svc.retry_after_s() <= 60
            svc._job_seconds_total, svc.jobs_served = 1e6, 1
            assert svc.retry_after_s() == 60
        finally:
            _teardown_http_only(svc)


class TestBodyLimit:
    def test_oversized_body_is_413(self, tmp_path):
        svc = _http_only(tmp_path)
        try:
            # Raw socket: the server must answer 413 from the headers
            # alone, without reading the advertised megabyte of body.
            with socket.create_connection(("127.0.0.1", svc.port), timeout=5) as sock:
                sock.sendall(
                    (
                        "POST /jobs HTTP/1.1\r\n"
                        "Host: test\r\n"
                        "Content-Type: application/json\r\n"
                        f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n"
                    ).encode()
                )
                # 413 sets close_connection, so read-to-EOF terminates.
                chunks = []
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
                response = b"".join(chunks).decode()
            status_line = response.split("\r\n", 1)[0]
            assert " 413 " in status_line
            assert str(MAX_BODY_BYTES) in response
            # The refused request did not poison the service for others.
            client = ServiceClient(f"http://127.0.0.1:{svc.port}")
            assert client.health()["status"] in ("healthy", "degraded")
        finally:
            _teardown_http_only(svc)


class TestHealthStates:
    def test_healthy_livez_readyz(self, tmp_path):
        svc = _http_only(tmp_path)
        try:
            client = ServiceClient(f"http://127.0.0.1:{svc.port}")
            health = client.health()
            assert health["status"] == "healthy"
            assert health["reasons"] == []
            assert health["leases"]["lease_s"] == svc.queue.lease_s
            assert client.livez()["live"] is True
            assert client.readyz()["ready"] is True
        finally:
            _teardown_http_only(svc)

    def test_saturation_degrades_and_unreadies(self, tmp_path):
        svc = _http_only(tmp_path, queue_high_water=1)
        try:
            client = ServiceClient(f"http://127.0.0.1:{svc.port}")
            client.submit(_spec())
            health = client.health()
            assert health["status"] == "degraded"
            assert any("saturated" in r for r in health["reasons"])
            with pytest.raises(ServiceError) as err:
                client.readyz()
            assert err.value.status == 503
            assert client.livez()["live"] is True  # liveness is unaffected
        finally:
            _teardown_http_only(svc)

    def test_drain_flips_readyz_but_not_livez(self, tmp_path):
        svc = _http_only(tmp_path)
        try:
            client = ServiceClient(f"http://127.0.0.1:{svc.port}")
            svc.begin_drain("preStop")
            assert client.health()["status"] == "draining"
            with pytest.raises(ServiceError) as readyz_err:
                client.readyz()
            assert readyz_err.value.status == 503
            assert client.livez()["live"] is True
            with pytest.raises(ServiceError) as submit_err:
                client.submit(_spec())
            assert submit_err.value.status == 503
            assert "draining" in str(submit_err.value)
        finally:
            _teardown_http_only(svc)

    def test_metrics_expose_hardening_counters(self, tmp_path):
        svc = _http_only(tmp_path)
        try:
            client = ServiceClient(f"http://127.0.0.1:{svc.port}")
            text = client.metrics()
            for name in (
                "service.queue.depth",
                "service.uptime_s",
                "service.jobs.reaped",
                "service.jobs.dead_lettered",
                "service.worker_crashes",
                "service.leases.renewed",
                "service.leases.lost",
            ):
                assert name in text, f"{name} missing from /metrics"
        finally:
            _teardown_http_only(svc)


class TestClientErrorPaths:
    def test_wait_times_out_on_a_stuck_job(self, tmp_path):
        svc = _http_only(tmp_path)  # no workers: the job never leaves QUEUED
        try:
            client = ServiceClient(f"http://127.0.0.1:{svc.port}")
            job = client.submit(_spec())
            with pytest.raises(ServiceError) as err:
                client.wait(job["id"], timeout_s=0.3, poll_s=0.02)
            assert "still QUEUED" in str(err.value)
        finally:
            _teardown_http_only(svc)

    def test_connection_refused_is_a_typed_transport_error(self):
        client = ServiceClient("http://127.0.0.1:9", timeout_s=0.5)
        with pytest.raises(ServiceError) as err:
            client.health()
        assert err.value.status == 0

    def test_wait_tolerates_transport_errors_until_deadline(self):
        client = ServiceClient("http://127.0.0.1:9", sleep=lambda s: None)
        calls = []

        def flaky_status(job_id):
            calls.append(job_id)
            if len(calls) < 3:
                raise ServiceError(0, "connection refused (restarting)")
            return {"state": "DONE"}

        client.status = flaky_status
        assert client.wait("job-1", timeout_s=5.0)["state"] == "DONE"
        assert len(calls) == 3

    def test_wait_reports_unreachable_at_deadline(self):
        client = ServiceClient("http://127.0.0.1:9", timeout_s=0.2)
        with pytest.raises(ServiceError) as err:
            client.wait("job-1", timeout_s=0.4, poll_s=0.05)
        assert err.value.status == 0
        assert "unreachable" in str(err.value)

    def test_non_transient_errors_are_not_retried(self, tmp_path):
        svc = _http_only(tmp_path)
        try:
            sleeps = []
            client = ServiceClient(
                f"http://127.0.0.1:{svc.port}", retries=5, sleep=sleeps.append
            )
            with pytest.raises(ServiceError) as err:
                client.submit({"benchmark": ""})  # a 400, the caller's bug
            assert err.value.status == 400
            assert sleeps == []
        finally:
            _teardown_http_only(svc)


class TestDoctorJobsJournal:
    def _build_history(self, tmp_path):
        clock = FakeClock()
        path = tmp_path / "jobs.jsonl"
        queue = JobQueue(
            path, lease_s=5.0, max_requeues=0, clock=clock, rotate_bytes=256
        )
        done = queue.submit(_spec())
        queue.claim(timeout=0.1)
        queue.finish(done.id, "DONE", cells=4, stats={"executed": 4})
        dead = queue.submit(_spec())
        queue.claim(timeout=0.1)
        clock.advance(5.1)
        queue.reap()  # max_requeues=0: straight to DEAD_LETTER
        orphan = queue.submit(_spec())
        queue.claim(timeout=0.1)  # left RUNNING: the process "crashes" here
        queued = queue.submit(_spec())
        return path, done, dead, orphan, queued

    def test_scan_covers_all_segments(self, tmp_path):
        path, done, dead, orphan, queued = self._build_history(tmp_path)
        scan = scan_jobs_journal(path)
        assert scan.jobs == 4
        assert scan.segments >= 1  # rotation must have sealed segments
        assert scan.by_state == {
            "DONE": 1, "DEAD_LETTER": 1, "RUNNING": 1, "QUEUED": 1,
        }
        assert scan.orphaned == [orphan.id]
        assert scan.dead_letters and scan.dead_letters[0][0] == dead.id
        assert "dead-lettered" in scan.dead_letters[0][1]

    def test_compact_folds_segments_without_double_counting(self, tmp_path):
        path, done, dead, orphan, queued = self._build_history(tmp_path)
        before = scan_jobs_journal(path)
        result = compact_jobs_journal(path)
        assert result.compacted
        assert result.segments_before >= 1
        assert result.lines_after == 4  # one snapshot per job
        assert not list(path.parent.glob(path.name + ".*"))
        after = scan_jobs_journal(path)
        assert after.by_state == before.by_state
        assert after.requeues == before.requeues  # no double-counting
        # A replayed queue agrees: the compacted journal is equivalent.
        queue = JobQueue(path, lease_s=5.0, max_requeues=0)
        assert queue.get(done.id).state == "DONE"
        assert queue.get(done.id).stats == {"executed": 4}
        assert queue.get(dead.id).state == "DEAD_LETTER"
        # The orphaned RUNNING job dead-letters on replay (max_requeues=0).
        assert queue.get(orphan.id).state == "DEAD_LETTER"
        assert queue.get(queued.id).state == "QUEUED"

    def test_compact_is_idempotent(self, tmp_path):
        path, *_ = self._build_history(tmp_path)
        assert compact_jobs_journal(path).compacted
        again = compact_jobs_journal(path)
        assert not again.compacted  # already one clean line per job
        assert again.lines_before == again.lines_after == 4

    def test_cli_doctor_jobs_journal(self, tmp_path, capsys):
        from repro.harness.cli import main as cli_main

        path, *_ = self._build_history(tmp_path)
        (tmp_path / "cache").mkdir()
        code = cli_main(
            [
                "doctor",
                "--cache-dir", str(tmp_path / "cache"),
                "--jobs-journal", str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr()
        assert "jobs journal: 4 jobs" in out.out
        assert "compacted" in out.out
        assert "orphaned RUNNING job" in out.err
        assert "dead-lettered" in out.err

    def _foreign_lines_history(self, tmp_path):
        """One real job, plus a transition whose submit was lost, a
        submit whose spec is invalid, and a foreign state on the real
        job."""
        path = tmp_path / "jobs.jsonl"
        job = JobQueue(path).submit(_spec())
        with path.open("a") as fh:
            for record in (
                {"id": "lost", "state": "DONE"},
                {"id": "job-999999", "seq": 999999, "state": "QUEUED",
                 "spec": {"benchmark": ""}},
                {"id": job.id, "state": "BOGUS"},
            ):
                fh.write(json.dumps(record) + "\n")
        return path, job

    def test_scan_agrees_with_queue_replay(self, tmp_path):
        path, job = self._foreign_lines_history(tmp_path)
        scan = scan_jobs_journal(path)
        replayed = JobQueue(path).jobs()
        by_state = {}
        for replayed_job in replayed:
            by_state[replayed_job.state] = by_state.get(replayed_job.state, 0) + 1
        assert scan.jobs == len(replayed) == 1
        assert scan.by_state == by_state == {"QUEUED": 1}
        assert [j.id for j in replayed] == [job.id]

    def test_compact_drops_lines_without_a_valid_submit(self, tmp_path):
        path, job = self._foreign_lines_history(tmp_path)
        result = compact_jobs_journal(path)
        assert result.compacted
        assert (result.lines_before, result.lines_after) == (4, 1)
        assert result.dropped == 2 and result.torn == 0
        replayed = JobQueue(path).jobs()
        assert [(j.id, j.state) for j in replayed] == [(job.id, "QUEUED")]

    def test_scan_missing_journal_is_empty(self, tmp_path):
        scan = scan_jobs_journal(tmp_path / "absent.jsonl")
        assert scan.jobs == 0 and scan.by_state == {}
        assert not compact_jobs_journal(tmp_path / "absent.jsonl").compacted


class TestConfigKnobs:
    def test_env_knobs_flow_through(self):
        config = harness_config(
            environ={
                "CHOPIN_LEASE_S": "2.5",
                "CHOPIN_MAX_REQUEUES": "5",
                "CHOPIN_QUEUE_HIGH_WATER": "64",
            }
        )
        assert config.lease_s == 2.5
        assert config.max_requeues == 5
        assert config.queue_high_water == 64

    @pytest.mark.parametrize(
        "variable, value",
        [
            ("CHOPIN_LEASE_S", "soon"),
            ("CHOPIN_LEASE_S", "0"),
            ("CHOPIN_LEASE_S", "-1"),
            ("CHOPIN_MAX_REQUEUES", "many"),
            ("CHOPIN_MAX_REQUEUES", "-1"),
            ("CHOPIN_QUEUE_HIGH_WATER", "deep"),
            ("CHOPIN_QUEUE_HIGH_WATER", "-3"),
        ],
    )
    def test_bad_values_name_the_variable_and_format(self, variable, value):
        with pytest.raises(ValueError) as err:
            harness_config(environ={variable: value})
        message = str(err.value)
        assert variable in message
        assert f"{variable}=" in message  # an example of the accepted format

    def test_flag_overrides_win(self):
        config = harness_config(
            environ={"CHOPIN_LEASE_S": "2.5"}, lease_s=9.0, queue_high_water=8
        )
        assert config.lease_s == 9.0
        assert config.queue_high_water == 8

    def test_service_uses_config_lease(self, tmp_path):
        config = harness_config(environ={}, lease_s=7.0, max_requeues=1)
        svc = SweepService(tmp_path / "state", port=0, config=config)
        assert svc.queue.lease_s == 7.0
        assert svc.queue.max_requeues == 1
        svc.queue.close()


class TestServiceChaosDrill:
    def test_drill_passes_deterministically(self, tmp_path):
        drill = service_chaos_drill(tmp_path, "fop", seed=7)
        names = [s.name for s in drill.scenarios]
        assert names == [
            "worker-death",
            "heartbeat-stall",
            "torn-journal",
            "shard-corrupt",
            "dead-letter",
        ]
        for scenario in drill.scenarios:
            assert scenario.ok, f"{scenario.name}: {scenario.failures}"
        assert drill.ok

    def test_fault_spec_validates_budgets(self):
        with pytest.raises(ValueError):
            ServiceFaultSpec(worker_death=-1)
        assert not ServiceFaultSpec().active
        assert ServiceFaultSpec(torn_append=1).active

    def test_injector_budgets_are_per_label(self):
        injector = ServiceFaultInjector(ServiceFaultSpec(seed=3, worker_death=2))
        first = injector.death_cell("job-a", 8)
        assert first is not None and 1 <= first <= 8
        assert injector.death_cell("job-a", 8) is not None
        assert injector.death_cell("job-a", 8) is None  # budget spent
        assert injector.death_cell("job-b", 8) is not None  # fresh label
        # Deterministic: the same seed and label draw the same cell.
        again = ServiceFaultInjector(ServiceFaultSpec(seed=3, worker_death=2))
        assert again.death_cell("job-a", 8) == first
