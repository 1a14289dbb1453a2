"""The repository benchmark: one command, three workloads, every metric.

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is used straight from
``src/`` (nothing is installed or built).  Each measured run happens in
a fresh process (``rep.py``); this orchestrator generates the inputs
from ``--seed``, starts the run processes one at a time, reads each
one's task clock and peak RSS with ``wait4`` after it and everything it
started have exited, checks the outputs, and prints a report.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones from a traced run, and
``trace.overhead`` compares it with an untraced run of the same work.
Any failed check makes the command exit with status 1.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate
from hostspeed import SpeedMonitor
from inputs import SUITE_INVOCATIONS, SUITE_SCALE, job_stream, sample
from rep import percentile

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
REP = HERE / "rep.py"

WORKLOADS = ("suite-cold", "suite-warm", "service-mix")

#: (name, unit, better) -- the end-to-end metrics, on every workload.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("cells_per_s", "cells/s", "higher"),
    ("cpu_ms_per_cell", "ms", "lower"),
    ("jobs_per_s", "jobs/s", "higher"),
    ("job_p50_ms", "ms", "lower"),
    ("job_p95_ms", "ms", "lower"),
    ("cpu_ms_per_job", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

LAYER_SELF = tuple(
    (f"layer.{layer}.self_s", "s", "lower")
    for layer in ("jvm", "engine", "plans", "experiments", "core", "workloads",
                  "report", "resilience", "service", "bench")
)

#: (name, unit, better) -- the per-layer metrics of the traced run.
PER_LAYER = (
    ("jvm.cells_simulated", "count", "lower"),
    ("jvm.simulate_s", "s", "lower"),
    ("jvm.simulate_batch.calls", "count", "lower"),
    ("jvm.simulate_batch.lanes", "count", "higher"),
    ("engine.cell_key.calls", "count", "lower"),
    ("engine.cell_key.us", "us", "lower"),
    ("engine.cache.get.calls", "count", "lower"),
    ("engine.cache.get.us", "us", "lower"),
    ("engine.cache.hit_ratio", "ratio", "higher"),
    ("engine.cache.corrupt", "count", "lower"),
    ("engine.cache.put.calls", "count", "lower"),
    ("engine.cache.put.us", "us", "lower"),
    ("engine.cache.entry_bytes", "bytes", "lower"),
    ("engine.run_cells.self_s", "s", "lower"),
    ("engine.pool.efficiency", "ratio", "higher"),
    ("plans.assemble_s", "s", "lower"),
    ("report.render_ms", "ms", "lower"),
    ("experiments.run_campaign.self_ms", "ms", "lower"),
    ("resilience.admit.calls", "count", "lower"),
    ("resilience.admit.us", "us", "lower"),
    ("core.latency_report.ms", "ms", "lower"),
    ("workloads.replay.ms", "ms", "lower"),
    ("core.minheap.probes", "count", "lower"),
    ("service.submit.ms", "ms", "lower"),
    ("service.poll.per_job", "count", "lower"),
    ("service.poll.ms", "ms", "lower"),
    ("service.result.ms", "ms", "lower"),
    ("service.result.bytes", "bytes", "lower"),
    ("service.journal.ms", "ms", "lower"),
    ("service.queue.wait_ms.p50", "ms", "lower"),
    ("service.queue.wait_ms.p95", "ms", "lower"),
    ("service.job.run_ms.p50", "ms", "lower"),
    ("service.job.run_ms.p95", "ms", "lower"),
    ("service.cache.hit_ratio", "ratio", "higher"),
    ("service.shed", "count", "lower"),
    ("service.deduplicated", "count", "lower"),
    ("failed_share", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.jobs", "count", "higher"),
    ("trace.cells", "count", "higher"),
) + LAYER_SELF

#: Set-up is measured in this many fresh processes per run (the run
#: processes themselves, topped up with set-up-only processes).
SETUP_SAMPLES = 7
#: Executed cells re-run through the scalar oracle per run.
ORACLE_SAMPLE = 16
#: Distinct service job specs re-run one-shot per run.
ONE_SHOT_SAMPLE = 6
#: Passes per side when the traced suite-warm run measures overhead.
TRACE_PASSES = 10
#: A run process that takes longer than this is killed (and fails).
REP_TIMEOUT_S = 150.0

class RunFailed(Exception):
    """A run process exited non-zero or was killed."""


def host_record(jobs: int) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "jobs": jobs,
    }


def clean_env() -> dict:
    """The run processes' environment: this one without ``CHOPIN_*``, so
    a developer's CHOPIN_BATCH / CHOPIN_CACHE_DIR / CHOPIN_JOBS cannot
    change what is measured."""
    return {k: v for k, v in os.environ.items() if not k.startswith("CHOPIN_")}


def median(values):
    return statistics.median(values)


class Bench:
    """One invocation: workdir, counters, and the run processes."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.jobs = len(os.sched_getaffinity(0))
        self.clients = min(2, self.jobs)
        base = REPO / ".perfbench"
        self.workdir = base / f"run-{args.workload}-{args.seed}-{os.getpid()}"
        self.results_dir = base / "results"
        self.count = 0
        self.failures: list = []
        self.attempted = 0
        self.setups: list = []
        self.raw_setups: list = []
        self.notes: dict = {}

    # -- run processes ---------------------------------------------------

    def spawn(self, task: dict) -> dict:
        """Start one run process, wait for it and all it started, and
        return its output plus set-up time, task clock and peak RSS."""
        self.count += 1
        n = self.count
        task = dict(task)
        task.update(
            out=str(self.workdir / f"out{n}.json"),
            text_out=str(self.workdir / f"text{n}.txt"),
            trace_out=str(self.workdir / f"trace{n}.json"),
            run_id=f"{self.args.workload}-seed{self.seed}-{n}",
        )
        task_path = self.workdir / f"task{n}.json"
        task_path.write_text(json.dumps(task))
        log_path = self.workdir / f"rep{n}.log"
        with open(log_path, "wb") as log, SpeedMonitor() as monitor:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(REP), str(task_path)],
                cwd=str(REPO), env=clean_env(), stdout=log, stderr=subprocess.STDOUT,
            )
            timer = threading.Timer(REP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: never leave the run behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            tail = log_path.read_text(errors="replace")[-2000:]
            raise RunFailed(f"run process {n} ({task['mode']}) exited "
                            f"{proc.returncode}:\n{tail}")
        out = json.loads(Path(task["out"]).read_text())
        out["text_path"] = task["text_out"]
        out["trace_path"] = task["trace_out"]
        out["setup_s"] = out["t_ready"] - spawned - out["setup_reference_wall_s"]
        ready = out["cpu_ready"]
        out["cpu_timed_s"] = (
            (usage.ru_utime + usage.ru_stime) - ready["self"] - ready["children"]
            - out.get("reference_cpu_s", 0.0)
        )
        out["maxrss_mb"] = usage.ru_maxrss / 1024.0
        out["slowness"] = monitor.slowness
        if task["mode"] != "fill" and not task.get("trace"):
            self.setups.append(out["setup_s"] / out["setup_slowness"])
            self.raw_setups.append(out["setup_s"])
        return out

    def top_up_setup(self, base: dict) -> None:
        while len(self.setups) < SETUP_SAMPLES:
            self.spawn(dict(base, mode="setup", cache_dir=self.fresh("cache"),
                            state_dir=self.fresh("state")))

    def fresh(self, name: str) -> str:
        path = self.workdir / f"{name}{self.count + 1}"
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return str(path)

    def fail(self, messages) -> None:
        self.failures.extend(messages)


# ----------------------------------------------------------------------
# Suites


def suite_base(bench: Bench, workload: str) -> dict:
    from repro.workloads import registry

    names = [spec.name for spec in registry.all_workloads()]
    return {
        "workload": workload, "names": names, "invocations": SUITE_INVOCATIONS,
        "scale": SUITE_SCALE, "jobs": bench.jobs,
    }


def suite_cells(task: dict) -> list:
    from repro.harness.plans import plan_lbo
    from repro.harness.runner import RunConfig
    from repro.workloads import registry

    specs = [registry.workload(n) for n in task["names"]]
    config = RunConfig(invocations=task["invocations"], duration_scale=task["scale"])
    return plan_lbo(specs, config=config).cells()


def check_suite_rep(bench: Bench, base: dict, rep: dict, cache_dir: str, label: str) -> None:
    """Oracle sample of the cells a sweep executed, and LBO >= 1."""
    cells = sample(suite_cells(base), ORACLE_SAMPLE, bench.seed, f"oracle-{label}")
    bench.attempted += len(cells)
    results = gate.load_results(cells, cache_dir)
    bench.fail(gate.oracle_failures(cells, results, rep.get("engine_batch", False)))
    bench.fail(gate.lbo_failures(label, rep["min_lbo"]))


def rep_figures(rep: dict, normalise: bool = True) -> dict:
    """A run process's timed figures, with times divided by the host's
    slowness unless ``normalise`` is off.  Operations timed next to
    their own reference loop (warm passes) use that; the others use the
    orchestrator's monitor."""
    ops = rep["ops"]
    durations = [op["end"] - op["start"] for op in ops]
    scale = rep["slowness"] if normalise else 1.0
    if normalise and ops and all("slowness" in op for op in ops):
        scaled = [d / op["slowness"] for d, op in zip(durations, ops)]
        scale = sum(durations) / sum(scaled)
        durations = scaled
    else:
        durations = [d / scale for d in durations]
    wall = (rep["t_end"] - rep["t_ready"] - rep.get("reference_wall_s", 0.0)) / scale
    cells = sum(op.get("cells", 0) for op in ops)
    return {"wall": wall, "cells": cells, "ops": len(ops), "cpu": rep["cpu_timed_s"] / scale,
            "durations": durations, "rss": rep["maxrss_mb"]}


def workload_metrics(figures: list, setups: list) -> dict:
    """The end-to-end metrics from the run processes' figures, and the
    number of job latency samples."""
    durations = [d for f in figures for d in f["durations"]]
    return {
        "setup_s": median(setups),
        "cells_per_s": median([f["cells"] / f["wall"] for f in figures]),
        "cpu_ms_per_cell": median([f["cpu"] * 1e3 / f["cells"] for f in figures]),
        "jobs_per_s": median([f["ops"] / f["wall"] for f in figures]),
        "job_p50_ms": percentile(durations, 50) * 1e3,
        "job_p95_ms": percentile(durations, 95) * 1e3,
        "cpu_ms_per_job": median([f["cpu"] * 1e3 / f["ops"] for f in figures]),
        "peak_rss_mb": median([f["rss"] for f in figures]),
    }, len(durations)


def summarise(bench: Bench, base: dict, reps: list) -> dict:
    """Top set-up samples up, then the end-to-end metrics of an
    untraced run; the raw figures and sample counts go to the notes."""
    bench.top_up_setup(base)
    out, samples = workload_metrics([rep_figures(r) for r in reps], bench.setups)
    bench.notes["raw"] = workload_metrics(
        [rep_figures(r, normalise=False) for r in reps], bench.raw_setups)[0]
    bench.notes["reps"] = [
        {"wall_s": r["t_end"] - r["t_ready"], "jobs": len(r["ops"]),
         "cpu_s": r["cpu_timed_s"], "slowness": r["slowness"]}
        for r in reps
    ]
    durations = [d for r in reps for d in rep_figures(r)["durations"]]
    bench.notes["latency_samples"] = samples
    bench.notes["beyond_p95"] = sum(1 for d in durations if d * 1e3 > out["job_p95_ms"])
    return out


def run_suite_cold(bench: Bench) -> dict:
    base = suite_base(bench, "suite-cold")
    texts = []

    def one(trace: bool) -> dict:
        cache_dir = bench.fresh("cache")
        rep = bench.spawn(dict(base, mode="run", cache_dir=cache_dir, trace=trace))
        bench.attempted += sum(op["cells"] for op in rep["ops"])
        check_suite_rep(bench, base, rep, cache_dir, f"sweep{bench.count}")
        texts.append(Path(rep["text_path"]).read_text())
        shutil.rmtree(cache_dir)
        return rep

    if bench.trace:
        pairs = [(one(False), one(True)) for _ in range(2)]
        out = trace_metrics(
            bench, [t for _, t in pairs],
            untraced=median([rep_figures(u)["wall"] for u, _ in pairs]),
            traced=median([rep_figures(t)["wall"] for _, t in pairs]),
        )
    else:
        reps = [one(False)]
        while sum(rep_figures(r)["wall"] for r in reps) < bench.seconds:
            reps.append(one(False))
        out = summarise(bench, base, reps)
    bench.fail(gate_texts("cold sweep", texts))
    return out


def gate_texts(label: str, texts: list) -> list:
    """Every fresh sweep of the same inputs renders the same figure."""
    digests = [gate.digest(t) for t in texts]
    return gate.digest_failures(label, digests[0], digests[1:])


def run_suite_warm(bench: Bench) -> dict:
    base = suite_base(bench, "suite-warm")
    cache_dir = bench.fresh("cache")
    fill = bench.spawn(dict(base, workload="suite-cold", mode="fill", cache_dir=cache_dir))
    check_suite_rep(bench, base, fill, cache_dir, "warm fill")
    reference = gate.digest(Path(fill["text_path"]).read_text())
    task = dict(base, mode="run", cache_dir=cache_dir)

    def check(rep: dict) -> None:
        bench.attempted += len(rep["ops"]) + sum(op["cells"] for op in rep["ops"])
        bench.fail(gate.digest_failures("warm pass", reference, [op["digest"] for op in rep["ops"]]))
        bench.fail(
            f"warm pass #{i}: {op['executed']} cells simulated (expected 0)"
            for i, op in enumerate(rep["ops"]) if op["executed"] != 0
        )

    if bench.trace:
        untraced = bench.spawn(dict(task, passes=TRACE_PASSES))
        traced = bench.spawn(dict(task, passes=TRACE_PASSES, trace=True))
        for rep in (untraced, traced):
            check(rep)
        return trace_metrics(
            bench, [traced],
            untraced=median(rep_figures(untraced)["durations"]),
            traced=median(rep_figures(traced)["durations"]),
        )
    reps = []
    for _ in range(3):
        reps.append(bench.spawn(dict(task, budget_s=bench.seconds / 3)))
        check(reps[-1])
    return summarise(bench, base, reps)


# ----------------------------------------------------------------------
# Service


def run_service_mix(bench: Bench) -> dict:
    stream = job_stream(bench.seed)
    base = {"workload": "service-mix", "stream": stream, "clients": bench.clients}

    def one(**extra) -> dict:
        state_dir = bench.fresh("state")
        rep = bench.spawn(dict(base, mode="run", state_dir=state_dir, **extra))
        check_service_rep(bench, stream, rep, state_dir)
        return rep

    if bench.trace:
        untraced = one(budget_s=bench.seconds / 2)
        traced = one(job_limit=len(untraced["ops"]), trace=True)
        return trace_metrics(
            bench, [traced],
            untraced=rep_figures(untraced)["wall"],
            traced=rep_figures(traced)["wall"],
        )
    reps = [one(budget_s=bench.seconds / 3) for _ in range(3)]
    return summarise(bench, base, reps)


def check_service_rep(bench: Bench, stream: list, rep: dict, state_dir: str) -> None:
    """Every job DONE, repeats identical, LBO >= 1, a one-shot sample
    and an oracle sample of the cells the service executed."""
    ops = rep["ops"]
    bench.attempted += len(ops)
    bench.fail(
        f"job #{r['index']} ({r['kind']}) ended {r['state']}: {r.get('error')}"
        for r in ops if r["state"] != "DONE"
    )
    bench.fail(gate.repeat_failures(stream, ops))
    firsts = sorted((int(i), v) for i, v in rep["first"].items())
    for index, first in firsts:
        if stream[index]["kind"] == "lbo":
            bench.fail(gate.lbo_failures(f"job #{index}", first["min_lbo"]))
    picked = sample(firsts, ONE_SHOT_SAMPLE, bench.seed, f"one-shot-{bench.count}")
    bench.attempted += len(picked)
    bench.fail(gate.one_shot_failures(
        [(index, stream[index], first["rendered"]) for index, first in picked]
    ))
    from repro.harness.engine import cell_key

    cells = {}
    for index, _ in firsts:
        for cell in gate.service_cells(stream[index]):
            cells.setdefault(cell_key(cell), cell)
    cells = list(cells.values())
    cells = sample(cells, ORACLE_SAMPLE, bench.seed, f"oracle-{bench.count}")
    bench.attempted += len(cells)
    results = gate.load_results(cells, str(Path(state_dir) / "cache"))
    bench.fail(gate.oracle_failures(cells, results, batch=False))


# ----------------------------------------------------------------------
# Traced runs


def trace_metrics(bench: Bench, traced_reps: list, untraced: float, traced: float) -> dict:
    """Per-layer metrics, averaged over the traced run processes, plus
    the figures only the orchestrator can compute."""
    summaries = [r["layers"] for r in traced_reps]
    out = {}
    for name, _, _ in PER_LAYER:
        values = [s[name] for s in summaries if name in s]
        if values:
            out[name] = sum(values) / len(values)
    rep = traced_reps[-1]
    ops = rep["ops"]
    if "stats" in rep:  # suites: the sweep engines' own counters
        stats = [r["stats"] for r in traced_reps]
        executed = [s["executed"] for s in stats]
        simulate = [s["execute_s"] for s in stats]
        corrupt = [s["corrupt"] for s in stats]
    else:  # service: the per-job stats the service reports
        executed = [sum((o.get("stats") or {}).get("executed", 0) for o in ops)]
        simulate = [sum((o.get("stats") or {}).get("execute_s", 0.0) for o in ops)]
        corrupt = [sum((o.get("stats") or {}).get("corrupt", 0) for o in ops)]
        cached = sum((o.get("stats") or {}).get("cached", 0) for o in ops)
        out["service.cache.hit_ratio"] = cached / max(1, cached + executed[0])
        out["service.shed"] = sum(1 for o in ops if o.get("shed"))
        out["service.deduplicated"] = rep["service_metrics"].get("service.jobs.deduplicated", 0)
    out["jvm.cells_simulated"] = sum(executed) / len(executed)
    out["jvm.simulate_s"] = sum(simulate) / len(simulate)
    out["engine.cache.corrupt"] = sum(corrupt) / len(corrupt)
    miss_phase = median([s["_miss_phase_s"] for s in summaries])
    jobs = summaries[-1]["_engine_jobs"]
    out["engine.pool.efficiency"] = (
        out["jvm.simulate_s"] / (jobs * miss_phase) if miss_phase > 0 else 0.0
    )
    for name in ("service.cache.hit_ratio", "service.shed", "service.deduplicated"):
        out.setdefault(name, 0)
    out["trace.overhead"] = traced / untraced - 1.0
    out["trace.unattributed_share"] = median([
        unattributed(Path(r["trace_path"])) for r in traced_reps
    ])
    bench.notes["missing_trace_targets"] = sorted(
        {m for s in summaries for m in s.get("_missing", [])}
    )
    bench.notes["traces"] = [r["trace_path"] for r in traced_reps]
    return out


def unattributed(trace_path: Path) -> float:
    """Share of the benchmark's root spans (a sweep, a pass, a service
    job) that no wrapped layer span covers."""
    payload = json.loads(trace_path.read_text())
    spans = payload["spans"]
    roots = {s[0]: s for s in spans if s[1].startswith("bench.")}
    covered = sum(s[3] - s[2] for s in spans if s[4] in roots)
    total = sum(s[3] - s[2] for s in roots.values())
    return (total - covered) / total if total else 0.0


# ----------------------------------------------------------------------
# Entry point


RUNNERS = {
    "suite-cold": run_suite_cold,
    "suite-warm": run_suite_warm,
    "service-mix": run_service_mix,
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if threading.current_thread() is threading.main_thread():
        # SIGTERM unwinds like Ctrl-C, so the running process is stopped.
        signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    bench = Bench(args)
    bench.workdir.mkdir(parents=True, exist_ok=True)
    bench.results_dir.mkdir(parents=True, exist_ok=True)
    try:
        metrics = RUNNERS[args.workload](bench)
        keep = keep_traces(bench)
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
    bench.notes["traces"] = keep
    failed = min(len(bench.failures), max(1, bench.attempted))
    attempted = max(1, bench.attempted)
    metrics["failed_share"] = failed / attempted
    spec = PER_LAYER if bench.trace else END_TO_END
    units = {name: unit for name, unit, _ in spec}
    shown = {name: {"value": metrics[name], "unit": units[name]} for name, _, _ in spec}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_record(bench.jobs), "notes": bench.notes,
        "failures": bench.failures, "attempted": attempted, "failed": failed,
        "failed_share": metrics["failed_share"], "metrics": shown,
        "setup_samples": bench.setups,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (bench.results_dir / name).write_text(json.dumps(record, indent=2))
    report(record)
    print(json.dumps({
        "correct": not bench.failures, "attempted": attempted, "failed": failed,
        "metrics": shown,
    }))
    return 0 if not bench.failures else 1


def keep_traces(bench: Bench) -> list:
    """Move the traced runs' span files out of the workdir."""
    kept = []
    for path in bench.notes.get("traces", []):
        source = Path(path)
        if source.exists():
            target = bench.results_dir / (
                f"trace-{bench.args.workload}-seed{bench.seed}-{source.stem}.json"
            )
            shutil.move(str(source), target)
            kept.append(str(target.relative_to(REPO)))
    return kept


def report(record: dict) -> None:
    """The human-readable report: host, every metric with its unit,
    sample counts, failures."""
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']:g} trace={record['trace']}")
    for key, value in record["host"].items():
        print(f"  host.{key:<18} {value}")
    for key, value in record["notes"].items():
        if isinstance(value, dict):
            for name, item in value.items():
                print(f"  note.{key}.{name:<24} {item:.6g}")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for i, item in enumerate(value):
                print(f"  note.{key}[{i}] " + " ".join(f"{k}={v:.4g}" for k, v in item.items()))
        else:
            print(f"  note.{key:<18} {value}")
    for name, metric in record["metrics"].items():
        if name != "failed_share":
            print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_share':<34} {record['failed_share']:>14.6g} ratio "
          f"({record['failed']}/{record['attempted']})")
    for failure in record["failures"][:20]:
        print(f"  FAILED: {failure}")


if __name__ == "__main__":
    sys.exit(main())
