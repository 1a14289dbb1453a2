"""The correctness gate: every run checks the program's outputs.

Each function returns a list of failure messages (empty when the check
passes); the orchestrator counts every message as one failed operation
and exits non-zero if there is any.  The checks that cost real work run
after the timed run process has exited, so they are never measured.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The headline scalars every fidelity tier carries
#: (``repro.jvm.simulator.IterationResult``).
HEADLINE = (
    "wall_s", "mutator_cpu_s", "gc_pause_cpu_s", "gc_concurrent_cpu_s",
    "stw_wall_s", "stall_wall_s", "gc_count", "allocated_mb", "live_end_mb",
    "avg_footprint_mb",
)

#: LBO is a ratio to a distilled lower bound, so every point is >= 1
#: (Cai et al.); the slack matches the repository's own property test.
LBO_SLACK = 1e-9


def digest(text: str) -> str:
    """The identity of a rendered text (compared byte for byte)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _close(a: float, b: float, tolerance: float) -> bool:
    if tolerance == 0.0:
        return a == b
    return abs(a - b) <= tolerance * max(1.0, abs(a), abs(b))


def compare_cell(label: str, expected, got, tolerance: float) -> Optional[str]:
    """Compare one cached cell result with the oracle's ``(timed, oom)``
    pair; ``None`` when they agree."""
    expected_timed, expected_oom = expected
    if got is None:
        return f"{label}: no cached result for an executed cell"
    if (expected_oom is None) != (got.oom is None):
        return f"{label}: oracle oom={expected_oom!r}, run oom={got.oom!r}"
    if expected_timed is None:
        return None
    for name in HEADLINE:
        a, b = getattr(expected_timed, name), getattr(got.timed, name)
        if not _close(float(a), float(b), tolerance):
            return f"{label}: {name} oracle={a!r} run={b!r} (tolerance {tolerance:g})"
    return None


def oracle(cell) -> Tuple[object, Optional[str]]:
    """Scalar ``simulate_run`` on one cell: ``(timed iteration, None)``
    or ``(None, OutOfMemoryError message)``."""
    from repro.jvm.heap import OutOfMemoryError
    from repro.jvm.simulator import simulate_run

    config = cell.config
    try:
        run = simulate_run(
            cell.spec,
            cell.collector,
            cell.heap_mb,
            iterations=config.iterations,
            invocation=cell.invocation,
            machine=config.machine,
            tuning=config.tuning,
            duration_scale=config.duration_scale,
            environment=config.environment,
            fidelity=config.fidelity,
        )
    except OutOfMemoryError as exc:
        return None, str(exc)
    return run.timed, None


def load_results(cells: Sequence, cache_root: str) -> List[object]:
    """The cached results of ``cells``, read through a cache built the
    way the program builds one for ``cache_root``."""
    from repro.harness.config import engine_from_config, harness_config
    from repro.harness.engine import cell_key

    cache = engine_from_config(harness_config({}, cache_dir=str(cache_root))).cache
    return [cache.get(cell_key(cell)) for cell in cells]


def oracle_failures(cells: Sequence, results: Sequence, batch: bool) -> List[str]:
    """Re-run ``cells`` through the scalar oracle and compare: exact on
    the scalar path, ``BATCH_TOLERANCE`` when the batch kernel ran."""
    tolerance = 0.0
    if batch:
        from repro.jvm.batch import BATCH_TOLERANCE

        tolerance = BATCH_TOLERANCE
    failures = []
    for cell, got in zip(cells, results):
        label = f"{cell.spec.name}/{cell.collector}/{cell.heap_mb:g}MB/inv{cell.invocation}"
        message = compare_cell(label, oracle(cell), got, tolerance)
        if message is not None:
            failures.append(message)
    return failures


def lbo_failures(label: str, minimum: Optional[float]) -> List[str]:
    if minimum is None:
        return [f"{label}: no LBO points"]
    if minimum < 1.0 - LBO_SLACK:
        return [f"{label}: LBO point {minimum!r} < 1"]
    return []


def digest_failures(label: str, expected: str, digests: Iterable[str]) -> List[str]:
    """Every rendered output must be byte-identical to ``expected``."""
    return [
        f"{label} #{i}: rendered text differs from the reference"
        for i, got in enumerate(digests)
        if got != expected
    ]


def repeat_failures(specs: Sequence[dict], records: Sequence[dict]) -> List[str]:
    """A repeated job spec must render byte-identical to its first
    occurrence."""
    import json

    first: Dict[str, Tuple[int, str]] = {}
    failures = []
    for record in records:
        if record.get("state") != "DONE":
            continue
        identity = json.dumps(specs[record["index"]], sort_keys=True)
        seen = first.setdefault(identity, (record["index"], record["digest"]))
        if seen[1] != record["digest"]:
            failures.append(
                f"job #{record['index']} renders differently from its first "
                f"occurrence #{seen[0]}"
            )
    return failures


def one_shot_rendered(spec_payload: dict) -> str:
    """The text a one-shot ``run_campaign`` renders for a service job
    spec, with a fresh uncached in-process engine."""
    from repro.harness.engine import ExecutionEngine
    from repro.harness.experiments import run_campaign
    from repro.harness.runner import RunConfig
    from repro.jvm.collectors import COLLECTOR_NAMES
    from repro.service import JobSpec
    from repro.workloads import registry

    spec = JobSpec.from_payload(spec_payload)
    campaign = run_campaign(
        spec.kind,
        registry.workload(spec.benchmark),
        collectors=spec.collectors or tuple(COLLECTOR_NAMES),
        multiples=spec.multiples or None,
        config=RunConfig(
            invocations=spec.invocations, duration_scale=spec.scale, fidelity=spec.fidelity
        ),
        engine=ExecutionEngine(),
    )
    return campaign.rendered()


def one_shot_failures(samples: Sequence[Tuple[int, dict, str]]) -> List[str]:
    """``samples`` are ``(stream index, spec, text the service served)``."""
    failures = []
    for index, spec, served in samples:
        if one_shot_rendered(spec) != served:
            failures.append(
                f"job #{index} ({spec['kind']} {spec['benchmark']}): service result "
                f"differs from the one-shot campaign"
            )
    return failures


def service_cells(spec_payload: dict) -> list:
    """The plan cells of an lbo or latency job spec (min-heap probe
    schedules are dynamic and have none)."""
    from repro.harness.plans import DEFAULT_MULTIPLES, plan_latency, plan_lbo
    from repro.harness.runner import RunConfig
    from repro.jvm.collectors import COLLECTOR_NAMES
    from repro.service import JobSpec
    from repro.workloads import registry

    spec = JobSpec.from_payload(spec_payload)
    config = RunConfig(
        invocations=spec.invocations, duration_scale=spec.scale, fidelity=spec.fidelity
    )
    workload = registry.workload(spec.benchmark)
    collectors = spec.collectors or tuple(COLLECTOR_NAMES)
    if spec.kind == "lbo":
        return plan_lbo(workload, collectors, spec.multiples or DEFAULT_MULTIPLES, config).cells()
    if spec.kind == "latency":
        return plan_latency(workload, collectors, spec.multiples or (2.0,), config).cells()
    return []
