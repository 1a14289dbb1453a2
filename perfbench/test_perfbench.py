"""Tests of the benchmark itself: the gate must fail, with a non-zero
exit, when a result is perturbed.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402


def _cell():
    from repro.harness.engine import Cell
    from repro.harness.runner import RunConfig
    from repro.workloads import registry

    spec = registry.workload("fop")
    config = RunConfig(invocations=1, duration_scale=0.05, fidelity="aggregate")
    return Cell(spec=spec, collector="G1", heap_mb=spec.heap_mb_for(2.0), invocation=0,
                config=config)


def _result(cell, timed):
    from repro.harness.engine import CellResult, cell_key

    return CellResult(key=cell_key(cell), timed=timed)


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_oracle_comparison_flags_a_one_ulp_perturbation():
    import math

    cell = _cell()
    timed, oom = gate.oracle(cell)
    assert oom is None
    assert gate.oracle_failures([cell], [_result(cell, timed)], batch=False) == []
    nudged = dataclasses.replace(timed, wall_s=math.nextafter(timed.wall_s, math.inf))
    assert gate.oracle_failures([cell], [_result(cell, nudged)], batch=False)
    # The batch path is held to BATCH_TOLERANCE: one ulp passes, 1e-6 does not.
    assert gate.oracle_failures([cell], [_result(cell, nudged)], batch=True) == []
    far = dataclasses.replace(timed, wall_s=timed.wall_s * (1 + 1e-6))
    assert gate.oracle_failures([cell], [_result(cell, far)], batch=True)
    assert gate.oracle_failures([cell], [None], batch=False)


def test_render_repeat_and_lbo_checks():
    assert gate.digest_failures("pass", "a", ["a", "b"]) == [
        "pass #1: rendered text differs from the reference"
    ]
    specs = [{"kind": "lbo", "benchmark": "fop"}] * 3
    records = [
        {"index": 0, "state": "DONE", "digest": "x"},
        {"index": 1, "state": "DONE", "digest": "x"},
        {"index": 2, "state": "DONE", "digest": "y"},
    ]
    assert len(gate.repeat_failures(specs, records)) == 1
    assert gate.lbo_failures("s", 1.0) == []
    assert gate.lbo_failures("s", 0.99)
    assert gate.lbo_failures("s", None)


def test_tracer_self_time_subtracts_direct_children():
    tracer = Tracer("t")

    class Box:
        @staticmethod
        def inner():
            return 1

    def outer():
        return Box.inner() + Box.inner()

    holder = type("Holder", (), {"outer": staticmethod(outer)})
    tracer.wrap(Box, "inner", "core.inner")
    tracer.wrap(holder, "outer", "plans.outer")
    with tracer.span("bench.root"):
        holder.outer()
    tracer.uninstall()
    totals = tracer.totals()
    assert totals["core.inner"][0] == 2 and totals["plans.outer"][0] == 1
    selfs = tracer.self_times()
    whole = totals["bench.root"][1]
    assert abs(sum(selfs.values()) - whole) < 1e-9
    assert Box.inner() == 1 and not hasattr(Box.inner, "__wrapped__")


def test_suite_cold_fails_when_a_cached_result_is_perturbed(monkeypatch, capsys):
    real = gate.load_results

    def perturbed(cells, cache_root):
        results = real(cells, cache_root)
        first = next(i for i, r in enumerate(results) if r is not None and r.timed is not None)
        timed = results[first].timed
        results[first] = dataclasses.replace(
            results[first], timed=dataclasses.replace(timed, gc_count=timed.gc_count + 1)
        )
        return results

    monkeypatch.setattr(gate, "load_results", perturbed)
    code = run.main(["--workload", "suite-cold", "--seed", "7", "--seconds", "1"])
    result = _last_json(capsys.readouterr().out)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_service_mix_fails_when_the_one_shot_rendering_differs(monkeypatch, capsys):
    real = gate.one_shot_rendered
    monkeypatch.setattr(gate, "one_shot_rendered", lambda spec: real(spec) + " ")
    code = run.main(["--workload", "service-mix", "--seed", "7", "--seconds", "1"])
    result = _last_json(capsys.readouterr().out)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_exits_nonzero_without_program_sources(tmp_path, workload):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
