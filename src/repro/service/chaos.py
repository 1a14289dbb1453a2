"""The service-level chaos drill behind ``chopin chaos --service``.

Where :func:`~repro.harness.experiments.chaos_drill` proves the *engine*
absorbs cell-level faults, this drill proves the *service* absorbs
process-level ones.  Five scenarios run in sequence against real
:class:`~repro.service.server.SweepService` instances sharing one state
directory (so later scenarios also exercise journal replay over the
earlier ones' records), each armed with a seeded
:class:`~repro.resilience.faults.ServiceFaultInjector`:

1. **worker death** — the worker dies mid-job after a seeded number of
   cells; the lease reaper requeues the job and the re-run must
   cache-hit exactly the cells the dead worker completed.
2. **heartbeat stall** — the worker hangs past its lease; the reaper
   requeues, the stale run's completion is fenced out by its claim
   epoch, and the re-claimed run finishes with zero simulations.
3. **torn journal append** — the job's terminal journal record is torn
   mid-write and the service killed; a restart on the same state dir
   replays the journal (across rotation segments), requeues the job,
   and completes it warm.
4. **shard corruption** — seeded cache entries are torn on disk; the
   resubmitted sweeps detect every torn entry and re-simulate exactly
   those cells, nothing else.
5. **dead letter** — a job that kills its worker on every execution is
   requeued exactly ``max_requeues`` times and then parked in
   ``DEAD_LETTER`` with an error that explains the history.

Every recovered job's rendered result must be byte-identical to a
one-shot baseline computed against a private cache — the same
bit-identity contract ``chopin result`` promises, held under faults.
All randomness flows from one seed, so the drill either always passes
or always fails for a given build: it is a regression gate, not a
flake generator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Sequence, TextIO, Tuple, Union

from repro.harness.config import HarnessConfig, engine_from_config
from repro.harness.experiments import run_campaign
from repro.harness.runner import RunConfig
from repro.jvm.collectors import COLLECTOR_NAMES
from repro.resilience.faults import (
    ServiceFaultInjector,
    ServiceFaultSpec,
    corrupt_entry,
)
from repro.service.jobqueue import Job, JobSpec
from repro.service.server import SweepService
from repro.service.shards import ShardedResultCache
from repro.workloads import registry

#: Journal rotation threshold during the drill: small enough that the
#: scenario-3 restart genuinely replays across multiple segments.
DRILL_ROTATE_BYTES = 1 << 11


@dataclass
class ServiceScenario:
    """One drill scenario's verdict: what was checked, what failed."""

    name: str
    checks: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def expect(self, condition: bool, label: str) -> None:
        (self.checks if condition else self.failures).append(label)


@dataclass
class ServiceChaosDrill:
    """The drill's outcome: per-scenario verdicts plus the headline."""

    seed: int
    scenarios: List[ServiceScenario]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.scenarios)

    @property
    def checks(self) -> int:
        return sum(len(s.checks) + len(s.failures) for s in self.scenarios)


def _wait_terminal(service: SweepService, job_id: str, timeout_s: float = 120.0) -> Job:
    """Poll the in-process queue until the job is terminal."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        job = service.queue.get(job_id)
        if job.terminal:
            return job
        time.sleep(0.02)
    raise TimeoutError(
        f"job {job_id} still {service.queue.get(job_id).state} "
        f"after {timeout_s:g}s — the drill service is wedged"
    )


def service_chaos_drill(
    state_dir: Union[str, Path],
    benchmark: str,
    collectors: Sequence[str] = ("Serial", "G1"),
    config: Optional[HarnessConfig] = None,
    seed: int = 0,
    invocations: int = 2,
    scale: float = 0.1,
    lease_s: float = 0.75,
    stream: Optional[TextIO] = None,
) -> ServiceChaosDrill:
    """Run the five-scenario service drill; see the module docstring.

    ``state_dir`` must be a fresh directory (the drill owns it: journal,
    cache, and cost model all land there).  ``lease_s`` is deliberately
    short — every scenario that needs the reaper waits one lease out.
    """
    state_dir = Path(state_dir)
    base = config if config is not None else HarnessConfig()
    # The drill pins its own lease machinery and keeps the engine
    # fault-free: the only chaos here is the service injector's.
    base = replace(
        base,
        lease_s=lease_s,
        max_requeues=3,
        queue_high_water=0,
        chaos_rate=0.0,
        budget_s=None,
        breaker_threshold=None,
        cache_dir=None,
        no_cache=False,
    )
    collectors = tuple(collectors) or tuple(COLLECTOR_NAMES)
    spec_a = JobSpec(
        benchmark=benchmark,
        collectors=collectors,
        multiples=(2.0,),
        invocations=invocations,
        scale=scale,
    )
    spec_b = replace(spec_a, multiples=(3.0,))

    def say(message: str) -> None:
        if stream is not None:
            print(f"chaos --service: {message}", file=stream)

    def baseline(spec: JobSpec, tag: str) -> Tuple[str, int]:
        """The one-shot answer: same campaign call the worker makes,
        against a private cache the service never touches."""
        engine = engine_from_config(
            base, cache=ShardedResultCache(state_dir / f"baseline-{tag}")
        )
        campaign = run_campaign(
            spec.kind,
            registry.workload(spec.benchmark),
            collectors=spec.collectors,
            multiples=spec.multiples or None,
            config=RunConfig(
                invocations=spec.invocations,
                duration_scale=spec.scale,
                fidelity=spec.fidelity,
            ),
            engine=engine,
        )
        return campaign.rendered(), campaign.cells

    def start(
        injector: Optional[ServiceFaultInjector] = None,
        config: Optional[HarnessConfig] = None,
    ) -> SweepService:
        return SweepService(
            state_dir / "svc",
            port=0,
            workers=1,
            config=config if config is not None else base,
            injector=injector,
            rotate_bytes=DRILL_ROTATE_BYTES,
        ).start()

    rendered_a, cells_a = baseline(spec_a, "a")
    rendered_b, cells_b = baseline(spec_b, "b")
    scenarios: List[ServiceScenario] = []

    # -- 1. worker death mid-job ---------------------------------------
    say("scenario 1/5: worker death mid-job")
    scenario = ServiceScenario("worker-death")
    injector = ServiceFaultInjector(ServiceFaultSpec(seed=seed, worker_death=1))
    service = start(injector)
    try:
        job, _ = service.submit(spec_a)
        done = _wait_terminal(service, job.id)
        death_at = injector.death_points.get(job.id)
        scenario.expect(done.state == "DONE", f"job recovered to {done.state}")
        scenario.expect(done.requeues >= 1, f"reaper requeued ({done.requeues}x)")
        scenario.expect(
            death_at is not None and done.stats.get("cached") == death_at,
            f"re-run cache-hit exactly the {death_at} cells the dead worker finished",
        )
        scenario.expect(
            death_at is not None
            and done.stats.get("executed") == cells_a - death_at,
            "re-run simulated only the unfinished cells",
        )
        scenario.expect(
            (done.result or {}).get("rendered") == rendered_a,
            "rendered result byte-identical to the one-shot baseline",
        )
    finally:
        service.stop("drill")
    scenarios.append(scenario)

    # -- 2. heartbeat stall + epoch fencing ----------------------------
    say("scenario 2/5: heartbeat stall (stale run fenced out)")
    scenario = ServiceScenario("heartbeat-stall")
    injector = ServiceFaultInjector(ServiceFaultSpec(seed=seed, heartbeat_stall=1))
    service = start(injector)
    try:
        job, _ = service.submit(spec_b)
        done = _wait_terminal(service, job.id)
        scenario.expect(done.state == "DONE", f"job recovered to {done.state}")
        scenario.expect(done.requeues >= 1, f"reaper requeued ({done.requeues}x)")
        # The stalled (stale) run simulated and cached every cell; its
        # completion was fenced by the claim epoch, so the re-claimed
        # run must finish entirely from cache.
        scenario.expect(
            done.stats.get("executed") == 0 and done.stats.get("cached") == cells_b,
            "fenced run's cells all served from cache (0 re-simulated)",
        )
        scenario.expect(
            service.queue.lease_losses >= 1,
            f"stale completion fenced out ({service.queue.lease_losses} lease losses)",
        )
        scenario.expect(
            (done.result or {}).get("rendered") == rendered_b,
            "rendered result byte-identical to the one-shot baseline",
        )
    finally:
        service.stop("drill")
    scenarios.append(scenario)

    # -- 3. torn terminal append + crash + replay ----------------------
    say("scenario 3/5: torn journal append, crash, restart")
    scenario = ServiceScenario("torn-journal")
    injector = ServiceFaultInjector(ServiceFaultSpec(seed=seed, torn_append=1))
    service = start(injector)
    job, _ = service.submit(spec_a)
    known_before = {j.id for j in service.queue.jobs()}
    _wait_terminal(service, job.id)  # DONE in memory; its record is torn
    service.crash_stop()  # no drain, no flush — a kill -9
    service = start()  # fault-free restart on the same state dir
    try:
        known_after = {j.id for j in service.queue.jobs()}
        scenario.expect(
            known_before <= known_after,
            f"no job lost across the crash ({len(known_after)} replayed)",
        )
        done = _wait_terminal(service, job.id)
        scenario.expect(
            done.state == "DONE",
            f"torn-record job replayed as RUNNING and re-ran to {done.state}",
        )
        scenario.expect(
            done.stats.get("executed") == 0,
            "post-crash re-run was fully warm (0 re-simulated)",
        )
        scenario.expect(
            (done.result or {}).get("rendered") == rendered_a,
            "rendered result byte-identical to the one-shot baseline",
        )
        segments = len(service.queue._segments())
        scenario.expect(
            segments >= 1, f"replay folded {segments} rotated journal segment(s)"
        )
    finally:
        service.stop("drill")
    scenarios.append(scenario)

    # -- 4. shard corruption -------------------------------------------
    say("scenario 4/5: torn cache shards")
    scenario = ServiceScenario("shard-corrupt")
    injector = ServiceFaultInjector(ServiceFaultSpec(seed=seed, shard_corrupt=2))
    paths = sorted((state_dir / "svc" / "cache").rglob("*.pkl"))
    targets = injector.pick_corrupt(paths)
    for path in targets:
        corrupt_entry(path)
    # A fresh service instance: its hot set is cold, so the corrupted
    # entries are actually read from disk instead of masked in memory.
    service = start()
    try:
        re_simulated = 0
        for spec in (spec_a, spec_b):
            job, _ = service.submit(spec)
            done = _wait_terminal(service, job.id)
            scenario.expect(done.state == "DONE", f"{done.id} recovered to DONE")
            re_simulated += done.stats.get("executed", 0)
            expected = rendered_a if spec is spec_a else rendered_b
            scenario.expect(
                (done.result or {}).get("rendered") == expected,
                "rendered result byte-identical to the one-shot baseline",
            )
        scenario.expect(
            re_simulated == len(targets),
            f"re-simulated exactly the {len(targets)} torn entries "
            f"(got {re_simulated})",
        )
        scenario.expect(
            service.cache.corrupt >= len(targets),
            f"cache detected the torn entries ({service.cache.corrupt} counted)",
        )
    finally:
        service.stop("drill")
    scenarios.append(scenario)

    # -- 5. dead letter at exactly max_requeues ------------------------
    say("scenario 5/5: repeat offender walks to DEAD_LETTER")
    scenario = ServiceScenario("dead-letter")
    max_requeues = 2
    injector = ServiceFaultInjector(
        ServiceFaultSpec(seed=seed, worker_death=max_requeues + 1)
    )
    service = start(injector, config=replace(base, max_requeues=max_requeues))
    try:
        job, _ = service.submit(replace(spec_a, collectors=collectors[:1]))
        done = _wait_terminal(service, job.id)
        scenario.expect(
            done.state == "DEAD_LETTER", f"terminal state is {done.state}"
        )
        scenario.expect(
            done.requeues == max_requeues,
            f"dead-lettered at exactly max_requeues ({done.requeues})",
        )
        scenario.expect(
            "dead-letter" in (done.error or ""),
            "status payload explains the dead-lettering",
        )
        scenario.expect(
            service.queue.dead_letters == 1, "queue counts one dead-lettered job"
        )
    finally:
        service.stop("drill")
    scenarios.append(scenario)

    for scenario in scenarios:
        say(
            f"{scenario.name}: "
            + ("ok" if scenario.ok else f"FAILED ({'; '.join(scenario.failures)})")
        )
    return ServiceChaosDrill(seed=seed, scenarios=scenarios)
