"""Time (or digest) the scalar simulator over the Figure 1 grid.

The grid is the cold suite sweep's: 22 workloads x 5 collectors x the 8
``DEFAULT_MULTIPLES`` x 2 invocations at ``duration_scale=0.02`` and
aggregate fidelity, 1760 ``simulate_run`` calls with no engine, cache or
pool around them.

    PYTHONPATH=src python tools/time_scalar_grid.py [--repeat N]
    PYTHONPATH=src python tools/time_scalar_grid.py --digest

The first form prints the best of N passes of process CPU seconds spent
simulating.  To compare two checkouts, alternate runs with ``PYTHONPATH``
pointing at each one's ``src``.  ``--digest`` prints a sha256 over
``float.hex`` of every headline scalar of the grid, plus every pause,
span, stall and GC-log entry of 384 full-fidelity cells (16 workloads x
all 6 collectors x 4 heaps): equal digests mean bit-identical output.
"""

import argparse
import hashlib
import time

from repro import OutOfMemoryError, registry, simulate_run
from repro.harness.plans import DEFAULT_MULTIPLES
from repro.jvm.collectors import COLLECTOR_NAMES, COLLECTORS


def grid():
    for spec in registry.all_workloads():
        for name in COLLECTOR_NAMES:
            for multiple in DEFAULT_MULTIPLES:
                for invocation in (0, 1):
                    yield spec, name, spec.heap_mb_for(multiple), invocation, "aggregate"


def full_grid():
    for spec in registry.all_workloads()[:16]:
        for name in COLLECTORS:
            for multiple in (1.5, 2.0, 4.0, 6.0):
                yield spec, name, spec.heap_mb_for(multiple), 0, "full"


def outputs(run):
    values = []
    for r in run.iterations:
        values += [
            r.wall_s, r.mutator_cpu_s, r.gc_pause_cpu_s, r.gc_concurrent_cpu_s,
            r.stw_wall_s, r.stall_wall_s, float(r.gc_count), r.allocated_mb,
            r.live_end_mb, r.avg_footprint_mb,
        ]
        t = r.telemetry
        if t is not None:
            for p in t.pauses:
                values += [p.start, p.duration]
            for s in t.spans:
                values += [s.start, s.end, s.gc_threads, s.dilation]
            for s in t.stalls:
                values += [s.start, s.duration]
            for e in t.gc_log:
                values += [e.time, e.pause_s, e.reclaimed_mb, e.heap_before_mb, e.heap_after_mb]
    return " ".join(v.hex() for v in values)


def simulate(cells, digest=None):
    for spec, name, heap_mb, invocation, fidelity in cells:
        try:
            run = simulate_run(
                spec, name, heap_mb, invocation=invocation,
                duration_scale=0.02, fidelity=fidelity,
            )
            line = outputs(run) if digest is not None else ""
        except OutOfMemoryError as exc:
            line = f"OOM {exc}"
        if digest is not None:
            digest.update(line.encode() + b"\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="passes; the best counts")
    parser.add_argument("--digest", action="store_true", help="print an output digest")
    args = parser.parse_args()
    cells = list(grid())
    if args.digest:
        digest = hashlib.sha256()
        simulate(cells, digest)
        simulate(list(full_grid()), digest)
        print(digest.hexdigest())
        return
    simulate(cells[:20])  # first-call costs stay out of the timing
    best = float("inf")
    for _ in range(args.repeat):
        start = time.process_time()
        simulate(cells)
        best = min(best, time.process_time() - start)
    print(f"{best:.3f}")


if __name__ == "__main__":
    main()
