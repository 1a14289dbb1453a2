"""One run process: set up, do the timed work, write raw results, exit.

Usage (the orchestrator in ``run.py`` starts it; not meant by hand)::

    python3 perfbench/rep.py TASK.json

``TASK.json`` names the workload, the mode and the generated inputs.
Modes:

- ``setup``: set up exactly as a run would, report when ready, exit;
- ``fill``: a cold suite sweep that fills the cache ``suite-warm``
  reads (input preparation: never timed);
- ``run``: set up, then the timed work.

The process records ``time.monotonic()`` (system-wide on Linux, so
comparable with the orchestrator's clock) when set-up ends and the
timed work starts, and its own CPU time at that moment.  Task clock and
peak RSS are *not* read here: the orchestrator reads them with
``wait4`` once this process and every process it started have exited.
Correctness checks that cost real work (the scalar oracle, one-shot
campaigns) also run in the orchestrator, after this process is gone.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from gate import digest  # noqa: E402
from hostspeed import REF_NOMINAL_S, reference_loop  # noqa: E402
from tracing import Tracer, layer_of  # noqa: E402

#: Layers whose self time the traced run reports ("bench" is the
#: benchmark's own code plus program code it calls that no wrapper
#: covers).
LAYERS = (
    "jvm", "engine", "plans", "experiments", "core", "workloads",
    "report", "resilience", "service", "bench",
)

#: Closed-loop poll interval.  ServiceClient.wait defaults to 50 ms,
#: which would quantise every job latency to 50 ms steps; 10 ms keeps
#: the latency resolution finer than the effects it should show.
POLL_S = 0.01


def cpu_now() -> dict:
    t = os.times()
    return {"self": t.user + t.system, "children": t.children_user + t.children_system}


def render_suite(report, suite) -> str:
    """The figure as text: the Figure 1 geomean tables, then every
    benchmark's wall and task LBO tables (``chopin lbo``'s layout)."""
    blocks = [
        report.format_lbo_series(suite.geomean_wall, "geomean wall LBO"),
        report.format_lbo_series(suite.geomean_task, "geomean task LBO"),
    ]
    for curves in suite.per_benchmark:
        blocks.append(
            report.format_lbo_curves(curves, "wall")
            + "\n\n"
            + report.format_lbo_curves(curves, "task")
        )
    return "\n\n".join(blocks) + "\n"


def min_lbo(suite) -> float:
    """The smallest LBO point of a suite: per-benchmark and geomean."""
    values = [
        point.overhead.mean
        for curves in suite.per_benchmark
        for side in (curves.wall, curves.task)
        for points in side.values()
        for point in points
    ]
    for series in (suite.geomean_wall, suite.geomean_task):
        values.extend(v for points in series.values() for _, v in points)
    return min(values)


# ----------------------------------------------------------------------
# Layer instrumentation (traced runs only)


def instrument(tracer: Tracer, state: dict) -> None:
    """Wrap each layer's public entry points.  ``state`` collects what
    the hooks observe (cache hit/miss, keys touched, job timestamps)."""
    from repro.harness import config as config_mod
    from repro.harness import engine as engine_mod
    from repro.harness import experiments, plans, report
    from repro.jvm import batch as batch_mod
    from repro.resilience import Supervisor
    from repro.service import client as client_mod
    from repro.service import jobqueue as jobqueue_mod
    from repro.service import server as server_mod

    t = tracer
    t.wrap(engine_mod, "simulate_run", "jvm.simulate_run")
    t.wrap(
        batch_mod, "simulate_batch", "jvm.simulate_batch",
        after=lambda a, kw, r, e: t.count(
            "jvm.simulate_batch.lanes", len(getattr(a[0] if a else kw.get("spec"), "cells", ()))
        ),
    )
    t.wrap(engine_mod, "cell_key", "engine.cell_key")
    t.wrap(config_mod, "engine_from_config", "engine.construct")
    t.wrap(engine_mod.ExecutionEngine, "run_cells", "engine.run_cells")

    keys = state["keys"]

    def after_get(a, kw, result, end):
        t.count("engine.cache.hit" if result is not None else "engine.cache.miss")
        if result is not None and len(a) > 1:
            keys.add(a[1])

    def after_put(a, kw, result, end):
        key = getattr(a[1] if len(a) > 1 else None, "key", None)
        if key is not None:
            keys.add(key)

    cache_classes = [engine_mod.ResultCache]
    cache_classes.extend(_subclasses(engine_mod.ResultCache))
    for cls in cache_classes:
        if "get" in vars(cls):
            t.wrap(cls, "get", "engine.cache.get", after=after_get)
        if "put" in vars(cls):
            t.wrap(cls, "put", "engine.cache.put", after=after_put)

    t.wrap(experiments, "suite_lbo", "plans.suite_lbo")
    t.wrap(experiments, "supervised_sweep", "plans.supervised_sweep")
    for module in (plans, experiments):
        t.wrap(module, "run_plan", "plans.run_plan")
    for module in (experiments, server_mod):
        t.wrap(module, "run_campaign", "experiments.run_campaign")
    t.wrap(plans, "lbo_curves", "core.lbo_curves")
    t.wrap(plans, "geomean_curves", "core.geomean_curves")
    t.wrap(plans, "latency_report", "core.latency_report")
    t.wrap_generator(plans, "_min_heap_search", "core.minheap.probes")
    t.wrap(plans, "replay", "workloads.replay")
    for module in (report, experiments):
        for name in ("format_lbo_curves", "format_lbo_series",
                     "format_latency_comparison", "format_minheap"):
            if hasattr(module, name):
                t.wrap(module, name, f"report.{name}")
    t.wrap(experiments.Campaign, "rendered", "report.rendered")
    t.wrap(Supervisor, "admit", "resilience.admit")

    t.wrap(client_mod.ServiceClient, "submit", "service.submit")
    t.wrap(client_mod.ServiceClient, "status", "service.poll")
    t.wrap(
        client_mod.ServiceClient, "result", "service.result",
        after=lambda a, kw, r, e: t.count(
            "service.result.bytes", len(json.dumps(r, sort_keys=True))
        ),
    )
    enqueued, claimed = state["enqueued"], state["claimed"]

    def after_submit(a, kw, result, end):
        job, created = result
        if created:
            enqueued[job.id] = end

    def after_claim(a, kw, job, end):
        if job is not None:
            claimed[job.id] = end

    t.wrap(jobqueue_mod.JobQueue, "submit_idempotent", "service.journal.submit",
           after=after_submit)
    t.wrap(jobqueue_mod.JobQueue, "finish", "service.journal.finish")
    t.wrap(jobqueue_mod.JobQueue, "claim", "service.queue.claim", after=after_claim,
           record=False)
    t.wrap(server_mod.ServiceWorker, "execute", "service.job")


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def percentile(values, q):
    """Percentile ``q`` (1..99) of ``values`` by ``statistics.quantiles``
    (inclusive method); the lone value for one sample, 0.0 for none."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_summary(tracer: Tracer, state: dict, jobs: int, cells: int) -> dict:
    """Per-layer metrics of one traced run (see README.md for each)."""
    totals = tracer.totals()
    selfs = tracer.self_times()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def secs(name):
        return totals.get(name, (0, 0.0))[1]

    def per_call(name, scale):
        n = calls(name)
        return secs(name) / n * scale if n else 0.0

    hits, misses = counts.get("engine.cache.hit", 0), counts.get("engine.cache.miss", 0)
    render_s = sum(
        s for name, (_, s) in totals.items()
        if name.startswith("report.") and name != "report.rendered"
    ) + selfs.get("report.rendered", 0.0)
    out = {
        "jvm.simulate_batch.calls": calls("jvm.simulate_batch"),
        "jvm.simulate_batch.lanes": counts.get("jvm.simulate_batch.lanes", 0),
        "engine.cell_key.calls": calls("engine.cell_key"),
        "engine.cell_key.us": per_call("engine.cell_key", 1e6),
        "engine.cache.get.calls": calls("engine.cache.get"),
        "engine.cache.get.us": per_call("engine.cache.get", 1e6),
        "engine.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "engine.cache.put.calls": calls("engine.cache.put"),
        "engine.cache.put.us": per_call("engine.cache.put", 1e6),
        "engine.run_cells.self_s": selfs.get("engine.run_cells", 0.0),
        "plans.assemble_s": secs("core.lbo_curves") + secs("core.geomean_curves"),
        "report.render_ms": render_s * 1e3 / max(1, jobs),
        "experiments.run_campaign.self_ms":
            selfs.get("experiments.run_campaign", 0.0) * 1e3 / max(1, jobs),
        "resilience.admit.calls": calls("resilience.admit"),
        "resilience.admit.us": per_call("resilience.admit", 1e6),
        "core.latency_report.ms": per_call("core.latency_report", 1e3),
        "workloads.replay.ms": per_call("workloads.replay", 1e3),
        "core.minheap.probes": counts.get("core.minheap.probes", 0),
        "service.submit.ms": per_call("service.submit", 1e3),
        "service.poll.per_job": calls("service.poll") / max(1, jobs),
        "service.poll.ms": per_call("service.poll", 1e3),
        "service.result.ms": per_call("service.result", 1e3),
        "service.result.bytes":
            counts.get("service.result.bytes", 0) / max(1, calls("service.result")),
        "service.journal.ms": (
            (secs("service.journal.submit") + secs("service.journal.finish")) * 1e3
            / max(1, calls("service.journal.submit") + calls("service.journal.finish"))
        ),
        "trace.jobs": jobs,
        "trace.cells": cells,
    }
    # Miss phase of run_cells: its wall minus key hashing and cache
    # probes; pool efficiency compares simulation time against it.
    miss_phase = secs("engine.run_cells") - secs("engine.cell_key") - secs("engine.cache.get")
    out["_miss_phase_s"] = max(0.0, miss_phase)
    waits = [
        (state["claimed"][j] - state["enqueued"][j]) * 1e3
        for j in state["claimed"] if j in state["enqueued"]
    ]
    runs = [d * 1e3 for d in tracer.durations("service.job")]
    out["service.queue.wait_ms.p50"] = percentile(waits, 50)
    out["service.queue.wait_ms.p95"] = percentile(waits, 95)
    out["service.job.run_ms.p50"] = percentile(runs, 50)
    out["service.job.run_ms.p95"] = percentile(runs, 95)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in selfs.items():
        layer = layer_of(name)
        layer_self[layer if layer in layer_self else "bench"] += seconds
    for layer, seconds in layer_self.items():
        out[f"layer.{layer}.self_s"] = seconds
    out["_missing"] = list(tracer.missing)
    return out


def cache_bytes(root: Path) -> int:
    """Bytes of finished cache entries under ``root`` (temp files of
    in-flight writes excluded)."""
    total = 0
    for path in root.rglob("*"):
        if path.is_file() and not path.name.endswith(".tmp"):
            total += path.stat().st_size
    return total


# ----------------------------------------------------------------------
# Workloads


def run_suite(task: dict, out: dict) -> None:
    """suite-cold (``run``/``fill``) and suite-warm (``run``)."""
    from repro.harness import config as config_mod
    from repro.harness import experiments, report
    from repro.harness.runner import RunConfig
    from repro.workloads import registry

    cache_dir = task["cache_dir"]

    def make_engine():
        harness = config_mod.harness_config({}, jobs=task["jobs"], cache_dir=cache_dir)
        return config_mod.engine_from_config(harness)

    specs = [registry.workload(name) for name in task["names"]]
    config = RunConfig(invocations=task["invocations"], duration_scale=task["scale"])
    engine = make_engine()
    out["engine_batch"] = bool(getattr(engine, "batch", False))
    if task["mode"] == "setup":
        mark_ready(out)
        return
    tracer, state = start_trace(task)
    mark_ready(out)
    warm = task["workload"] == "suite-warm"
    budget = task.get("budget_s")
    passes = task.get("passes")
    ops, texts = [], []
    stats_total = {"executed": 0, "execute_s": 0.0, "corrupt": 0}
    minimum = None
    reference = {"cpu": 0.0, "wall": 0.0}

    def slowness() -> float:
        started = time.monotonic()
        samples = [reference_loop() for _ in range(3)]
        reference["cpu"] += sum(samples)
        reference["wall"] += time.monotonic() - started
        return statistics.median(samples) / REF_NOMINAL_S

    before = slowness() if warm else None
    while True:
        if ops and warm:
            engine = None
        started = time.monotonic()
        with tracer.span("bench.pass") if tracer else contextlib.nullcontext():
            if engine is None:
                engine = make_engine()
            suite = experiments.suite_lbo(specs, config=config, engine=engine)
            text = render_suite(report, suite)
        ended = time.monotonic()
        stats = engine.stats
        ops.append({"start": started, "end": ended, "executed": stats.executed,
                    "cells": stats.executed + stats.cached + stats.skipped,
                    "digest": digest(text)})
        if warm:
            # Warm passes run on one thread, so the host's speed is read
            # on that thread, right before and after each pass.
            after = slowness()
            ops[-1]["slowness"] = (before + after) / 2
            before = after
        for key in stats_total:
            stats_total[key] += getattr(stats, key, 0)
        if not warm or minimum is None:
            minimum = min_lbo(suite)
        if not warm or not texts:
            texts.append(text)
        if not warm:
            break  # one cold sweep per fresh process and cache
        if passes is not None and len(ops) >= passes:
            break
        if passes is None and ended - out["t_ready"] >= budget:
            break
    out["t_end"] = ops[-1]["end"]
    out["ops"] = ops
    out["reference_cpu_s"] = reference["cpu"]
    out["reference_wall_s"] = reference["wall"]
    out["stats"] = stats_total
    out["min_lbo"] = minimum
    Path(task["text_out"]).write_text(texts[0])
    if tracer is not None:
        finish_trace(task, tracer, state, out, jobs=len(ops),
                     cells=sum(op["cells"] for op in ops), engine_jobs=task["jobs"],
                     cache_root=Path(cache_dir))


def run_service(task: dict, out: dict) -> None:
    """service-mix: an in-process SweepService at its defaults, driven
    over HTTP by closed-loop client threads."""
    from repro.harness.config import harness_config
    from repro.service import ServiceClient, SweepService

    state_dir = Path(task["state_dir"])
    service = SweepService(state_dir, port=0, config=harness_config({}, serve_port=0)).start()
    base = f"http://127.0.0.1:{service.port}"
    if task["mode"] == "setup":
        mark_ready(out)
        service.stop("setup probe")
        return
    tracer, state = start_trace(task)
    stream = task["stream"]
    limit = task.get("job_limit") or len(stream)
    budget = task.get("budget_s")
    lock = threading.Lock()
    cursor = [0]
    records = []
    first_text = {}
    mark_ready(out)
    deadline = out["t_ready"] + budget if budget is not None else None

    def client_loop() -> None:
        client = ServiceClient(base, timeout_s=60.0)
        while True:
            with lock:
                index = cursor[0]
                if index >= limit or (deadline is not None and time.monotonic() >= deadline):
                    return
                cursor[0] += 1
            spec = stream[index]
            started = time.monotonic()
            record = {"index": index, "kind": spec["kind"], "start": started}
            try:
                with tracer.span("bench.job") if tracer else contextlib.nullcontext():
                    job = client.submit(spec)
                    status = client.wait(job["id"], timeout_s=60.0, poll_s=POLL_S)
                    result = client.result(job["id"])
            except Exception as exc:  # a failed operation, counted, never fatal
                record.update(end=time.monotonic(), state="ERROR",
                              error=f"{type(exc).__name__}: {exc}",
                              shed=getattr(exc, "status", None) == 503)
                records.append(record)
                continue
            record["end"] = time.monotonic()
            rendered = (result.get("result") or {}).get("rendered", "")
            record.update(state=status["state"], cells=status.get("cells", 0),
                          stats=status.get("stats") or {}, digest=digest(rendered),
                          error=status.get("error"))
            identity = json.dumps(spec, sort_keys=True)
            with lock:
                if identity not in first_text:
                    first_text[identity] = (index, rendered, (result.get("result") or {}).get("curves"))
            records.append(record)

    threads = [
        threading.Thread(target=client_loop, name=f"bench-client-{i}")
        for i in range(task["clients"])
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    out["t_end"] = max((r["end"] for r in records), default=time.monotonic())
    try:
        metrics_text = ServiceClient(base).metrics()
    finally:
        service.stop("benchmark finished")
    records.sort(key=lambda r: r["index"])
    out["ops"] = records
    out["first"] = {
        str(index): {"rendered": text, "min_lbo": _curves_min(curves)}
        for index, text, curves in first_text.values()
    }
    out["service_metrics"] = _parse_metrics(metrics_text)
    if tracer is not None:
        finish_trace(task, tracer, state, out, jobs=len(records),
                     cells=sum(r.get("cells", 0) for r in records), engine_jobs=1,
                     cache_root=state_dir / "cache")


def _curves_min(curves):
    if not curves:
        return None
    values = [p["mean"] for side in ("wall", "task") for pts in curves[side].values() for p in pts]
    return min(values) if values else None


def _parse_metrics(text: str) -> dict:
    """Counters and gauges of the service's ``/metrics`` dump."""
    out = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2:
            try:
                out[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return out


def mark_ready(out: dict) -> None:
    """End of set-up.  The host's speed is read on this thread just
    before, and that reading's own wall time is left out of set-up."""
    started = time.monotonic()
    samples = [reference_loop() for _ in range(3)]
    out["setup_slowness"] = statistics.median(samples) / REF_NOMINAL_S
    out["setup_reference_wall_s"] = time.monotonic() - started
    out["cpu_ready"] = cpu_now()
    out["t_ready"] = time.monotonic()


def start_trace(task: dict):
    if not task.get("trace"):
        return None, None
    tracer = Tracer(task["run_id"])
    state = {"keys": set(), "enqueued": {}, "claimed": {}}
    instrument(tracer, state)
    return tracer, state


def finish_trace(task, tracer, state, out, jobs, cells, engine_jobs, cache_root) -> None:
    tracer.uninstall()
    summary = layer_summary(tracer, state, jobs, cells)
    summary["engine.cache.entry_bytes"] = (
        cache_bytes(cache_root) / len(state["keys"]) if state["keys"] else 0.0
    )
    summary["_engine_jobs"] = engine_jobs
    out["layers"] = summary
    tracer.dump(Path(task["trace_out"]))


def main(argv) -> int:
    task = json.loads(Path(argv[1]).read_text())
    out: dict = {"mode": task["mode"]}
    if task["workload"] == "service-mix":
        run_service(task, out)
    else:
        run_suite(task, out)
    Path(task["out"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
