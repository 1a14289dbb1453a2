"""Seeded inputs for the three workloads.

Everything the program receives is generated here and handed to the
run processes as plain data: the same seed gives the same inputs.  The
suite workloads run the paper's fixed Figure 1 grid, so for them the
seed only picks which executed cells the oracle re-checks.  For
service-mix the seed generates the job stream.  The seed never changes
how much work a run holds, so runs with different seeds stay
comparable.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

#: The paper's Figure 1 sweep (22 workloads x 5 collectors x the 8
#: ``DEFAULT_MULTIPLES``) at a reduced length: 2 invocations per cell
#: and 5 % of the nominal iteration length -- 1760 cells.
SUITE_INVOCATIONS = 2
SUITE_SCALE = 0.02

#: Service jobs use the same reduced iteration length.
SERVICE_SCALE = 0.05

#: Small fixed benchmark pools, so later jobs reuse earlier jobs' cells.
#: Fixed rather than seeded: the seed orders and combines jobs but does
#: not swap a cheap benchmark for an expensive one between runs.
LBO_POOL = ("avrora", "fop", "h2", "luindex")
LATENCY_POOL = ("cassandra", "h2")
MINHEAP_POOL = ("biojava", "pmd", "xalan")
COLLECTORS = ("Serial", "Parallel", "G1", "Shenandoah", "ZGC")
#: Narrow LBO rows: 2 collectors x 3 multiples.
COLLECTOR_PAIRS = (("G1", "Parallel"), ("Serial", "ZGC"), ("G1", "Shenandoah"))
MULTIPLE_TRIPLES = ((1.5, 2.0, 3.0), (2.0, 4.0, 6.0), (1.25, 2.0, 5.0))

#: One block of the job stream: 12 lbo + 5 latency + 3 minheap jobs
#: (60 / 25 / 15 %), shuffled per block so every prefix keeps the mix.
BLOCK = ("lbo",) * 12 + ("latency",) * 5 + ("minheap",) * 3

#: Longer than any closed-loop run can consume.
STREAM_LENGTH = 6000


def job_stream(seed: int, length: int = STREAM_LENGTH) -> List[Dict[str, object]]:
    """The service-mix job stream: JSON job specs in submission order."""
    rng = random.Random(f"job-stream:{seed}")
    stream: List[Dict[str, object]] = []
    while len(stream) < length:
        block = list(BLOCK)
        rng.shuffle(block)
        for kind in block:
            if kind == "lbo":
                job = {
                    "kind": "lbo",
                    "benchmark": rng.choice(LBO_POOL),
                    "collectors": list(rng.choice(COLLECTOR_PAIRS)),
                    "multiples": list(rng.choice(MULTIPLE_TRIPLES)),
                    "invocations": 2,
                }
            elif kind == "latency":
                job = {
                    "kind": "latency",
                    "benchmark": rng.choice(LATENCY_POOL),
                    "collectors": [rng.choice(COLLECTORS)],
                    "multiples": [2.0],
                    "invocations": 1,
                }
            else:
                job = {
                    "kind": "minheap",
                    "benchmark": rng.choice(MINHEAP_POOL),
                    "collectors": [rng.choice(COLLECTORS)],
                    "invocations": 1,
                }
            job["scale"] = SERVICE_SCALE
            stream.append(job)
    return stream[:length]


def sample(population: Sequence, k: int, seed: int, salt: str) -> list:
    """A seeded sample of at most ``k`` items, in population order."""
    rng = random.Random(f"{salt}:{seed}")
    picked = sorted(rng.sample(range(len(population)), min(k, len(population))))
    return [population[i] for i in picked]
