"""Vectorized batch simulation: a whole heap-factor row in one pass.

Cells in a sweep share everything except heap size (and, across rows,
the workload spec): same collector model, same tuning, same machine.  A
real harness must pay one JVM process per cell; the simulator does not —
it can lay the cells out struct-of-arrays (numpy arrays over cells for
free space, trigger thresholds, pause schedules, and footprint
accumulators) and advance them all in lockstep.  That is this module:
:func:`simulate_batch` takes a :class:`BatchSpec` (one collector, many
cells) and returns a :class:`BatchResult` with one :class:`CellOutcome`
per cell, each carrying exactly what :func:`~repro.jvm.simulator.simulate_run`
would have produced for that cell (including its
:class:`~repro.jvm.heap.OutOfMemoryError` message, verbatim).

Two mechanisms provide the speedup:

1. **Lockstep SoA execution** — each simulator loop step (mutate to the
   trigger, run one GC cycle) executes for every live cell at once, so
   the per-step interpreter cost is paid once per *row* instead of once
   per cell.
2. **Periodic-orbit jumping** — within one iteration the dynamics are
   deterministic (run noise is drawn once, up front), and every
   collector model converges to an exactly repeating cycle pattern: the
   concurrent collectors reach a floating-garbage fixed point, and the
   stop-the-world collectors repeat bit-exact epochs between full GCs
   (a full GC resets ``live`` to exactly the live footprint).  The
   kernel records recent states in a ring; when a state recurs with
   period ``p`` it advances all accumulators by whole periods
   analytically instead of stepping through them.

Equivalence contract
--------------------
The scalar path (:func:`simulate_run`) remains the oracle.  Every
floating-point expression in this module mirrors the scalar code
op-for-op, and all state variables are bit-identical after an orbit
jump (the orbit recurrence is exact).  Two sources of inexactness
remain, both documented and bounded:

- ``needed_speedup ** (1/e)`` in the adaptive concurrent-worker sizing
  (the scalar side is ``ConcurrentCollector._size_cycle``) uses numpy's
  vectorized ``power``, which can differ from Python's scalar ``**`` by
  1 ulp (SIMD pow); and
- accumulators advanced by an orbit jump gain ``m * delta`` in one step
  instead of ``m`` successive additions, changing rounding at the
  ~1e-12 relative level.

Hence headline scalars agree with the scalar path within
:data:`BATCH_TOLERANCE`: ``|a - b| <= BATCH_TOLERANCE * max(1, |a|, |b|)``,
with ``gc_count`` exactly equal.  ``bench_sim_kernel.py`` gates the
batch kernel on this check across all five collectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.rng import generator_for
from repro.jvm.collectors import COLLECTORS, resolve_collector
from repro.jvm.collectors.g1 import G1Collector
from repro.jvm.collectors.genzgc import GenZgcCollector
from repro.jvm.collectors.parallel import ParallelCollector
from repro.jvm.collectors.serial import SerialCollector
from repro.jvm.collectors.shenandoah import ShenandoahCollector
from repro.jvm.collectors.zgc import ZgcCollector
from repro.jvm.cpu import DEFAULT_MACHINE, Machine
from repro.jvm.environment import BASELINE_ENVIRONMENT, EnvironmentProfile
from repro.jvm.heap import Heap, OutOfMemoryError
from repro.jvm.simulator import (
    MAX_CYCLES_PER_ITERATION,
    IterationResult,
    RunResult,
    simulate_run,
    warmup_factor,
)
from repro.jvm.telemetry import FIDELITY_AGGREGATE

#: Documented batch/scalar tolerance: headline scalars satisfy
#: ``|batch - scalar| <= BATCH_TOLERANCE * max(1, |batch|, |scalar|)``
#: (``gc_count`` is exactly equal).  See the module docstring for the two
#: rounding sources this bounds.
BATCH_TOLERANCE = 1e-9

#: Ring capacity for periodic-orbit detection (max detectable period).
_RING = 2048
#: Steps between orbit-detection sweeps.
_CHECK_EVERY = 16


def batch_scalars_close(a: float, b: float, tolerance: float = BATCH_TOLERANCE) -> bool:
    """The documented batch/scalar comparison, in one place."""
    return abs(a - b) <= tolerance * max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class BatchCell:
    """One sweep point inside a batch: a workload at a heap size.

    ``invocation`` seeds the run-to-run noise stream exactly as
    :func:`simulate_run` does, so batch cell ``(spec, heap, k)`` replays
    scalar invocation ``k`` bit-for-bit (within :data:`BATCH_TOLERANCE`).
    """

    spec: object  # WorkloadSpec; duck-typed to avoid an import cycle
    heap_mb: float
    invocation: int = 0

    def __post_init__(self) -> None:
        if self.heap_mb <= 0:
            raise ValueError("batch cell heap size must be positive")
        if self.invocation < 0:
            raise ValueError("batch cell invocation must be non-negative")


@dataclass(frozen=True)
class BatchSpec:
    """A row of cells sharing one collector and one run configuration.

    The fields mirror :func:`simulate_run`'s keyword arguments; a batch
    is semantically ``[simulate_run(cell.spec, collector, cell.heap_mb,
    ...) for cell in cells]`` evaluated in one vectorized pass at the
    aggregate fidelity tier.
    """

    collector: str
    cells: Tuple[BatchCell, ...]
    iterations: Optional[int] = None
    machine: Machine = DEFAULT_MACHINE
    tuning: Optional[object] = None  # GcTuning
    duration_scale: float = 1.0
    environment: EnvironmentProfile = BASELINE_ENVIRONMENT

    def __post_init__(self) -> None:
        resolve_collector(self.collector)
        if self.iterations is not None and self.iterations < 1:
            raise ValueError("need at least one iteration")


@dataclass(frozen=True)
class CellOutcome:
    """What one cell produced: a run, or the out-of-memory message.

    ``oom`` carries the exact :class:`OutOfMemoryError` message the
    scalar path would have raised for this cell.
    """

    run: Optional[RunResult]
    oom: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.oom is None


@dataclass(frozen=True)
class BatchResult:
    """Per-cell outcomes, in the order the cells were submitted."""

    outcomes: Tuple[CellOutcome, ...]

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    def __getitem__(self, index: int) -> CellOutcome:
        return self.outcomes[index]


def _scalar_outcome(batch: BatchSpec, cell: BatchCell) -> CellOutcome:
    """Fallback: run one cell through the scalar oracle."""
    try:
        run = simulate_run(
            cell.spec,
            batch.collector,
            cell.heap_mb,
            iterations=batch.iterations,
            invocation=cell.invocation,
            machine=batch.machine,
            tuning=batch.tuning,
            duration_scale=batch.duration_scale,
            environment=batch.environment,
            fidelity=FIDELITY_AGGREGATE,
        )
    except OutOfMemoryError as exc:
        return CellOutcome(run=None, oom=str(exc))
    return CellOutcome(run=run)


def simulate_batch(spec: BatchSpec) -> BatchResult:
    """Simulate every cell of ``spec`` in one vectorized pass.

    The public batch entry point.  Cells the kernel cannot vectorize —
    an unregistered collector subclass, or a non-allocating workload
    (``alloc_rate_mb_s <= 0``, whose scalar loop takes a different
    branch) — fall back to the scalar path individually, so the result
    is always complete and always ordered like ``spec.cells``.
    """
    if not spec.cells:
        return BatchResult(outcomes=())
    cls = COLLECTORS[resolve_collector(spec.collector)]
    kernel_cls = _KERNELS.get(cls)
    outcomes: List[Optional[CellOutcome]] = [None] * len(spec.cells)
    vector_indices: List[int] = []
    for i, cell in enumerate(spec.cells):
        if kernel_cls is None or cell.spec.alloc_rate_mb_s <= 0:
            outcomes[i] = _scalar_outcome(spec, cell)
        else:
            vector_indices.append(i)
    if vector_indices:
        sim = _BatchSim(spec, [spec.cells[i] for i in vector_indices], cls, kernel_cls)
        for i, outcome in zip(vector_indices, sim.run()):
            outcomes[i] = outcome
    return BatchResult(outcomes=tuple(outcomes))


def _acc(dst: np.ndarray, amount: np.ndarray, mask: np.ndarray) -> None:
    """``dst[mask] += amount[mask]`` without fancy-indexing copies."""
    np.add(dst, amount, out=dst, where=mask)


def _set(dst: np.ndarray, value, mask: np.ndarray) -> None:
    """``dst[mask] = value[mask]`` (broadcasting scalars)."""
    np.copyto(dst, value, where=mask)


class _BatchSim:
    """Struct-of-arrays lockstep simulation of one batch.

    All per-cell state lives in one ``(K, n)`` float64 matrix ``B``:
    rows ``[0, s0)`` are the orbit *signature* (heap state plus kernel
    state), rows ``[s0, K)`` are monotone *accumulators*.  The named
    attributes (``live``, ``wall``, ...) are row views into ``B``, so
    the ring write is a single array copy and an orbit jump advances
    every accumulator of a lane with one vectorized expression.

    Lanes deactivate as their run completes or OOMs; the loop ends when
    no lane is active.  All float expressions mirror ``_IterationSim``
    op-for-op — see the module docstring for the equivalence contract.
    """

    def __init__(self, batch: BatchSpec, cells: List[BatchCell], cls, kernel_cls):
        self.batch = batch
        self.cells = cells
        self.n = n = len(cells)
        self.machine = batch.machine
        self.collector_label = batch.collector

        # Real scalar collaborators, one per cell: the collector instance
        # supplies the exact per-workload constants (mutator tax, live
        # footprint base, cached STW speedup) and the Heap supplies the
        # exact setup-OOM message, so neither is re-derived here.
        self.rngs = [
            generator_for(c.spec.name, batch.collector, f"{c.heap_mb:.3f}", c.invocation)
            for c in cells
        ]
        tuning = batch.tuning
        if tuning is None:
            from repro.jvm.collectors.base import GcTuning

            tuning = GcTuning()
        self.tuning = tuning
        self.collectors = [
            cls(c.spec, batch.machine, tuning, rng) for c, rng in zip(cells, self.rngs)
        ]
        self.heaps = [
            Heap(capacity_mb=c.heap_mb, reserve_fraction=cls.RESERVE_FRACTION)
            for c in cells
        ]

        f64 = np.float64
        self.capacity = np.array([c.heap_mb for c in cells], dtype=f64)
        self.usable = np.array([h.usable_mb for h in self.heaps], dtype=f64)
        self.tax = np.array([co.mutator_tax for co in self.collectors], dtype=f64)
        self.live_base = np.array([co._live_base_mb for co in self.collectors], dtype=f64)
        self.sr = np.array([c.spec.survival_rate for c in cells], dtype=f64)
        self.pf = np.array([c.spec.promotion_fraction for c in cells], dtype=f64)
        self.cores = np.array([c.spec.cpu_cores for c in cells], dtype=f64)
        self.alloc_spec = np.array([c.spec.alloc_rate_mb_s for c in cells], dtype=f64)
        # Allocation accrues against untaxed progress (same float op as
        # _IterationSim.__init__: spec rate / collector tax).
        self.alloc_rate = np.array(
            [c.spec.alloc_rate_mb_s / co.mutator_tax for c, co in zip(cells, self.collectors)],
            dtype=f64,
        )
        self.env_factor = [
            batch.environment.execution_time_factor(c.spec.sensitivities) for c in cells
        ]
        self.n_iters = [
            batch.iterations if batch.iterations is not None else c.spec.default_iterations
            for c in cells
        ]
        self.max_iters = max(self.n_iters)

        # Batch-shared scalars (identical for every cell: one collector
        # class, one machine, one tuning).
        proto = self.collectors[0]
        self.stw_workers_f = proto._stw_workers_f
        self.stw_speedup = proto._stw_speedup
        self.pause_floor = tuning.pause_floor_s
        self.mark_rate = tuning.mark_rate_mb_s
        self.copy_rate = tuning.copy_rate_mb_s
        self.conc_rate = tuning.concurrent_rate_mb_s
        self.hw = batch.machine.hardware_threads
        self.interference_per_thread = batch.machine.concurrent_interference
        # The collector's concurrent rate per integer team size, built
        # with Python's pow (np.power on arrays is the one op that can
        # differ by 1 ulp).
        self.rate_lut = np.array(proto._team_rates, dtype=f64)

        # --- the state matrix ------------------------------------------
        # Signature rows [0, s0): everything the next step's dynamics
        # depend on, minus monotone accumulators.  ``progress`` never
        # belongs: any step where the remaining-work bound binds finishes
        # the iteration, so surviving lanes took progress-independent
        # steps.  ``prev_occ`` (plus the wall/prev_time *lag*, checked
        # from the accumulator rows at match time) is carried so
        # footprint-fold increments are provably periodic at a match.
        # Accumulator rows [s0, K): advanced by orbit jumps.  Kernel
        # state (G1's mixed countdown, GenZGC's young-cycle counter)
        # occupies the ``*_EXTRAS`` rows as float64 — the counts are
        # small integers, exact in a double.
        kse = kernel_cls.N_SIG_EXTRAS
        kae = kernel_cls.N_ACC_EXTRAS
        self.s0 = s0 = 4 + kse
        self.K = K = s0 + 9 + kae
        B = self.B = np.zeros((K, n), dtype=f64)
        self.live = B[0]
        self.young = B[1]
        self.unproductive = B[2]
        self.prev_occ = B[3]
        self.sig_extra_rows = [B[4 + j] for j in range(kse)]
        self.progress = B[s0]
        self.wall = B[s0 + 1]
        self.stw_wall = B[s0 + 2]
        self.pause_cpu = B[s0 + 3]
        self.conc_cpu = B[s0 + 4]
        self.stall_wall = B[s0 + 5]
        self.area = B[s0 + 6]
        self.prev_time = B[s0 + 7]
        self.alloc_total = B[s0 + 8]
        self.acc_extra_rows = [B[s0 + 9 + j] for j in range(kae)]
        # Fused row pairs: the mutator advances progress and wall by the
        # same amount, and every pause advances wall and stw_wall by the
        # same amount — adjacency turns two adds into one.
        self.prog_wall = B[s0 : s0 + 2]
        self.wall_stw = B[s0 + 1 : s0 + 3]
        self._row_progress = s0
        self._row_wall = s0 + 1
        self._row_prev_time = s0 + 7
        self._iter_reset = [
            self.progress,
            self.wall,
            self.pause_cpu,
            self.stw_wall,
            self.conc_cpu,
            self.stall_wall,
            self.area,
            self.prev_time,
            self.prev_occ,
            self.unproductive,
        ]

        # Non-ring per-cell state (constant within an iteration, or
        # integer-exact counters handled specially by orbit jumps).
        zeros = lambda: np.zeros(n, dtype=f64)  # noqa: E731
        self.extra_live = zeros()
        self.live_fp = zeros()
        self.target = zeros()
        self.done_at = zeros()
        # cycles and gc_count increment together every surviving step;
        # one (2, n) matrix makes that a single add.
        self._counts = np.zeros((2, n), dtype=np.int64)
        self.cycles = self._counts[0]
        self.gc_count = self._counts[1]

        # Lane status.
        self.alive = np.ones(n, dtype=bool)
        self.oom: List[Optional[str]] = [None] * n
        self.results: List[List[IterationResult]] = [[] for _ in range(n)]

        # Setup: exactly simulate_run's preamble, per cell.
        self.setup_live = [0.0] * n
        for i, (co, heap) in enumerate(zip(self.collectors, self.heaps)):
            live = co.live_footprint_mb()
            self.setup_live[i] = live
            try:
                heap.require_fits(live + max(0.5, 0.04 * live))
            except OutOfMemoryError as exc:
                self.alive[i] = False
                self.oom[i] = str(exc)
                continue
            self.live[i] = live

        self.kernel = kernel_cls(self)

    # ------------------------------------------------------------------
    def run(self) -> List[CellOutcome]:
        with np.errstate(all="ignore"):
            for iteration in range(1, self.max_iters + 1):
                it_mask = self.alive & np.array(
                    [ni >= iteration for ni in self.n_iters], dtype=bool
                )
                if not it_mask.any():
                    continue
                self._begin_iteration(iteration, it_mask)
                self._lockstep(it_mask)
                self._end_iteration(iteration, it_mask)
        return self._outcomes()

    def _begin_iteration(self, iteration: int, it_mask: np.ndarray) -> None:
        batch = self.batch
        for i in np.flatnonzero(it_mask):
            cell = self.cells[i]
            spec = cell.spec
            # Same op order as _IterationSim.__init__, in Python floats.
            speed = warmup_factor(iteration, spec) * self.env_factor[i]
            intrinsic = spec.execution_time_s * batch.duration_scale * speed
            noise = float(np.exp(self.rngs[i].normal(0.0, spec.run_noise)))
            self.target[i] = intrinsic * self.collectors[i].mutator_tax * noise
        self.done_at[:] = self.target - 1e-12
        for arr in self._iter_reset:
            arr[it_mask] = 0.0
        self._counts[:, it_mask] = 0
        self._cycles_hi = 0
        self._unpr_any = False
        self.alloc_at_start = self.alloc_total.copy()
        # Live footprint is constant within an iteration (extra_live only
        # changes at iteration boundaries via leakage).
        self.live_fp[:] = self.live_base + self.extra_live
        self.kernel.begin_iteration(it_mask)
        self._ring_reset()

    # -- lockstep loop -------------------------------------------------
    def _lockstep(self, it_mask: np.ndarray) -> None:
        """One iteration for every lane in ``it_mask``, in lockstep.

        Mirrors ``_IterationSim.run``: advance the mutator to the
        trigger, run one GC cycle, check the thrash and no-progress
        exits.  Updates that would be masked no-ops are applied as plain
        ``+= 0.0`` adds instead (bit-identical for the non-negative
        accumulators involved, and much cheaper than ``where=`` loops).
        """
        act = it_mask.copy()
        if not act.any():
            return
        usable = self.usable
        alloc_rate = self.alloc_rate
        kernel = self.kernel
        needs_yas = kernel.NEEDS_YOUNG_AT_START
        advances = kernel.ADVANCES_PROGRESS
        # Occupancy only changes inside the loop body, so the raw free
        # space carries across the loop boundary (the cycle's post-GC
        # reading doubles as the next step's pre-mutator reading).
        free_raw = usable - (self.live + self.young)
        step = 0
        while True:
            free = np.maximum(free_raw, 0.0)

            if step % _CHECK_EVERY == 0:
                self._orbit_check(act, step)
            self._ring_write(act, step)
            step += 1

            trigger = kernel.trigger_free(free)
            budget = free - trigger
            can = act & (budget > 0.0)
            ptt = budget / alloc_rate
            rem = np.maximum(self.target - self.progress, 0.0)
            adv = np.where(can, np.minimum(ptt, rem), 0.0)
            mb = adv * alloc_rate
            self.young += mb
            self.alloc_total += mb
            self.prog_wall += adv

            done = act & (self.progress >= self.done_at)
            act_c = act ^ done  # done is a subset of act
            if not act_c.any():
                return

            self._counts += act_c
            self._cycles_hi += 1
            if self._cycles_hi > MAX_CYCLES_PER_ITERATION:
                thrash = act_c & (self.cycles > MAX_CYCLES_PER_ITERATION)
                if thrash.any():
                    for i in np.flatnonzero(thrash):
                        self._fail(
                            int(i),
                            f"{self.cells[i].spec.name}: thrashing — more than "
                            f"{MAX_CYCLES_PER_ITERATION} GC cycles in one iteration",
                        )
                    act_c &= ~thrash

            started = self.wall.copy()
            heap_before = self.live + self.young
            young_at_start = self.young.copy() if needs_yas else None
            kernel.run_cycle(act_c, started, heap_before, young_at_start)

            # Footprint fold (AggregateTelemetry.record_collection inline).
            occ_after = self.live + self.young
            reclaimed = heap_before - occ_after
            dt = np.maximum(started - self.prev_time, 0.0)
            self.area += np.where(act_c, dt * (self.prev_occ + heap_before) / 2.0, 0.0)
            _set(self.prev_time, started, act_c)
            _set(self.prev_occ, occ_after, act_c)
            free_raw = usable - occ_after

            # The unproductive-cycle counter only moves when some lane is
            # nearly out of free space; skip the bookkeeping entirely
            # while every counter is provably zero.
            tight = free_raw < 0.5
            if self._unpr_any or tight.any():
                stuck = act_c & (reclaimed < 0.25) & tight
                _set(self.unproductive, np.where(stuck, self.unproductive + 1.0, 0.0), act_c)
                self._unpr_any = bool(stuck.any())
                if self._unpr_any:
                    failed = act_c & (self.unproductive >= 3.0)
                    if failed.any():
                        for i in np.flatnonzero(failed):
                            self._fail(
                                int(i),
                                f"{self.cells[i].spec.name}: heap of "
                                f"{self.capacity[i]:.0f} MB cannot make progress with "
                                f"{type(self.collectors[i]).NAME}",
                            )
                        act_c &= ~failed

            if advances:
                # A cycle's concurrent phase can finish the workload too.
                done_after = act_c & (self.progress >= self.done_at)
                act = act_c ^ done_after
                if not act.any():
                    return
            else:
                act = act_c

    def _fail(self, i: int, message: str) -> None:
        """Mark lane ``i`` out-of-memory: the whole run is discarded,
        exactly as the scalar path's raised exception discards it."""
        self.alive[i] = False
        self.oom[i] = message
        self.results[i] = []

    # -- periodic-orbit machinery ---------------------------------------
    def _ring_reset(self) -> None:
        if not hasattr(self, "_ring"):
            self._ring = np.zeros((_RING, self.K, self.n), dtype=np.float64)
            self._ring_step = np.zeros(_RING, dtype=np.int64)
            self._ring_valid = np.zeros((_RING, self.n), dtype=bool)
        else:
            self._ring_valid[:] = False

    def _ring_write(self, act: np.ndarray, step: int) -> None:
        pos = step % _RING
        self._ring[pos] = self.B  # one (K, n) copy: the whole state
        self._ring_step[pos] = step
        self._ring_valid[pos] = act

    def _orbit_check(self, act: np.ndarray, step: int) -> None:
        """Find lanes whose state recurred; jump them whole periods ahead.

        State variables are untouched (the match *is* the current state);
        each accumulator advances by ``m * (current - value one period
        ago)``.  ``m`` is the largest jump that keeps ``progress``
        strictly below the iteration target (checked with the exact jump
        arithmetic) and never crosses the thrash ceiling silently.
        """
        if step == 0 or not act.any():
            return
        # Vectorized prefilter on the live row, over only the slots ever
        # written; full signature equality (plus the wall/prev_time lag)
        # is checked per candidate lane.
        u = step if step < _RING else _RING
        cand = self._ring_valid[:u] & (self._ring[:u, 0, :] == self.B[0])
        lanes = np.flatnonzero(cand.any(axis=0) & act)
        if lanes.size == 0:
            return
        s0 = self.s0
        rw, rp, rg = self._row_wall, self._row_prev_time, self._row_progress
        for i in lanes:
            slots = np.flatnonzero(cand[:, i])
            ring_i = self._ring[slots, :, i]  # (k, K) gather, k small
            eq = (ring_i[:, :s0] == self.B[:s0, i]).all(axis=1)
            lag = float(self.B[rw, i]) - float(self.B[rp, i])
            eq &= (ring_i[:, rw] - ring_i[:, rp]) == lag
            good = np.flatnonzero(eq)
            if good.size == 0:
                continue
            # Oldest match gives the largest provable period.
            sel = slots[good]
            slot = int(sel[np.argmin(self._ring_step[sel])])
            p = step - int(self._ring_step[slot])
            if p <= 0:
                continue
            prog = float(self.B[rg, i])
            d_prog = prog - float(self._ring[slot, rg, i])
            if d_prog <= 0.0:
                # No progress per period: the scalar path thrash-OOMs.
                # Fast-forward the cycle counter so the same OOM fires on
                # the next cycle attempt, with the exact message.
                self.cycles[i] = MAX_CYCLES_PER_ITERATION
                self._ring_valid[:, i] = False
                continue
            done_at = float(self.done_at[i])
            m = int((done_at - prog) / d_prog)
            # Never jump past the thrash ceiling: if the orbit would hit
            # MAX_CYCLES first, stop short and let the loop find it.
            m = min(m, (MAX_CYCLES_PER_ITERATION - int(self.cycles[i])) // p)
            # Overshoot guard, in the exact float ops of the jump below:
            # land strictly below the target so the remaining (< 1
            # period) steps replay the scalar path unchanged.
            while m > 0 and prog + m * d_prog >= done_at:
                m -= 1
            self._ring_valid[:, i] = False
            if m <= 0:
                continue
            col = self.B[s0:, i]
            col += m * (col - self._ring[slot, s0:, i])
            # Every surviving lockstep step runs exactly one GC cycle.
            self.gc_count[i] += m * p
            self.cycles[i] += m * p
            self._cycles_hi = max(self._cycles_hi, int(self.cycles[i]))

    # -- iteration end ---------------------------------------------------
    def _end_iteration(self, iteration: int, it_mask: np.ndarray) -> None:
        finished = it_mask & self.alive
        # record_background_cpu: always-on collector service threads.
        background = self.kernel.background_cpu()
        if background is not None:
            _acc(self.conc_cpu, background, finished)
        for i in np.flatnonzero(finished):
            spec = self.cells[i].spec
            wall = float(self.wall[i])
            if wall > 0 and self.gc_count[i]:
                tail = wall - float(self.prev_time[i])
                if tail < 0.0:
                    tail = 0.0
                avg_fp = (float(self.area[i]) + tail * float(self.prev_occ[i])) / wall
            else:
                avg_fp = 0.0
            self.results[i].append(
                IterationResult(
                    wall_s=wall,
                    mutator_cpu_s=float(self.progress[i]) * spec.cpu_cores,
                    gc_pause_cpu_s=float(self.pause_cpu[i]),
                    gc_concurrent_cpu_s=float(self.conc_cpu[i]),
                    stw_wall_s=float(self.stw_wall[i]),
                    stall_wall_s=float(self.stall_wall[i]),
                    gc_count=int(self.gc_count[i]),
                    allocated_mb=float(self.alloc_total[i]) - float(self.alloc_at_start[i]),
                    live_end_mb=float(self.live[i]),
                    avg_footprint_mb=avg_fp,
                    fidelity=FIDELITY_AGGREGATE,
                    timeline=None,
                    telemetry=None,
                )
            )
            # Leakage joins the live footprint between iterations, exactly
            # as simulate_run applies it (leak is a fraction of the live
            # set measured at setup, constant per iteration).
            if spec.leak_rate > 0:
                leak = self.setup_live[i] * spec.leak_rate
                self.extra_live[i] += leak
                self.live[i] = min(float(self.live[i]) + leak, float(self.usable[i]))

    def _outcomes(self) -> List[CellOutcome]:
        out: List[CellOutcome] = []
        for i in range(self.n):
            if self.oom[i] is not None:
                out.append(CellOutcome(run=None, oom=self.oom[i]))
            else:
                out.append(CellOutcome(run=RunResult(iterations=self.results[i])))
        return out


class _Kernel:
    """Per-collector-family vectorized cycle model.

    A kernel answers the same two questions a :class:`Collector` does —
    where is the trigger, what does a cycle look like — but over arrays.
    Every expression mirrors the scalar collector op-for-op.  Kernel
    state lives in ``B`` rows declared via ``N_SIG_EXTRAS`` /
    ``N_ACC_EXTRAS`` so the ring and orbit jumps see it for free.
    """

    #: Rows of kernel state that belong in the orbit signature.
    N_SIG_EXTRAS = 0
    #: Rows of kernel accumulators advanced by orbit jumps.
    N_ACC_EXTRAS = 0
    #: False for pause-only kernels: the lockstep loop can then skip the
    #: pre-cycle young snapshot and the post-cycle completion check.
    NEEDS_YOUNG_AT_START = True
    ADVANCES_PROGRESS = True

    def __init__(self, sim: _BatchSim):
        self.s = sim

    def begin_iteration(self, it_mask: np.ndarray) -> None:
        """Hook at iteration start: collector state persists across
        iterations, but iteration-constant pause terms are hoisted here."""

    def background_cpu(self) -> Optional[np.ndarray]:
        """Per-cell always-on service-thread CPU for the ending iteration
        (``Collector.background_concurrent_cpu_s``); None when zero."""
        return None

    def trigger_free(self, free: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def run_cycle(
        self,
        m: np.ndarray,
        started: np.ndarray,
        heap_before: np.ndarray,
        young_at_start: Optional[np.ndarray],
    ) -> None:
        raise NotImplementedError

    # -- shared pieces --------------------------------------------------
    def _pause(self, duration: np.ndarray, mask: np.ndarray) -> None:
        """One STW segment: same per-segment accumulation order as the
        scalar aggregate tier (pause CPU, STW wall, wall)."""
        s = self.s
        d = np.where(mask, duration, 0.0)
        s.pause_cpu += d * s.stw_workers_f
        s.wall_stw += d  # wall and stw_wall, fused

    def _young_effect(self, mask: np.ndarray, survivors: Optional[np.ndarray] = None) -> None:
        """Young-style heap accounting (no old reclaim)."""
        s = self.s
        if survivors is None:
            survivors = s.young * s.sr
        promoted = survivors * s.pf
        _set(s.young, survivors - promoted, mask)
        _set(s.live, s.live + promoted, mask)

    def _full_effect(self, mask: np.ndarray, young_at_start: np.ndarray) -> None:
        """Full-style heap accounting; allocation during a concurrent
        cycle survives as floating garbage."""
        s = self.s
        before = s.live + s.young
        floating = np.maximum(s.young - young_at_start, 0.0)
        new_live = np.minimum(s.live_fp, before)
        new_live = np.minimum(new_live, s.usable - floating)
        _set(s.live, new_live, mask)
        _set(s.young, floating, mask)

    def _full_effect_stw(self, mask: np.ndarray, heap_before: np.ndarray) -> None:
        """Full-style accounting for pause-only cycles: no concurrent
        phase means floating garbage is exactly 0.0 and ``heap_before``
        is still the masked lanes' current occupancy."""
        s = self.s
        new_live = np.minimum(np.minimum(s.live_fp, heap_before), s.usable)
        _set(s.live, new_live, mask)
        _set(s.young, 0.0, mask)

    def _eden_trigger(self, young_fraction: float) -> np.ndarray:
        """Serial/G1 trigger: free space outside the sized eden.

        ``maximum(yf * headroom, 0.5)`` folds the scalar path's two
        branches (zero when headroom <= 0, floor at 0.5 MB) into one op
        with the same result for every input.
        """
        s = self.s
        headroom = s.usable - s.live
        eden = np.maximum(young_fraction * headroom, 0.5)
        return np.maximum(headroom - eden, 0.0)


class _StwKernel(_Kernel):
    """Serial and Parallel: young scavenges, full mark-compact fallback.

    The two differ only in worker count and reserve — both already baked
    into the batch-shared scalars harvested at setup.
    """

    NEEDS_YOUNG_AT_START = False
    ADVANCES_PROGRESS = False

    def __init__(self, sim: _BatchSim):
        super().__init__(sim)
        cls = type(sim.collectors[0])
        self.young_fraction = cls.YOUNG_FRACTION
        self.full_line = cls.FULL_GC_THRESHOLD * sim.usable
        self.copy_denom = sim.copy_rate * sim.stw_speedup
        self.mark_denom = sim.mark_rate * sim.stw_speedup

    def begin_iteration(self, it_mask):
        # live_fp is constant within an iteration, so the compaction
        # pause is too.
        self.d_compact = self.s.pause_floor + self.s.live_fp / self.copy_denom

    def trigger_free(self, free):
        return self._eden_trigger(self.young_fraction)

    def run_cycle(self, m, started, heap_before, young_at_start):
        s = self.s
        full = m & (s.live >= self.full_line)
        survivors = s.young * s.sr
        d_young = s.pause_floor + (survivors + 0.02 * s.live) / self.copy_denom
        if full.any():
            d_mark = s.pause_floor + heap_before / self.mark_denom
            self._pause(np.where(full, d_mark, d_young), m)
            self._pause(self.d_compact, full)
            self._full_effect_stw(full, heap_before)
            self._young_effect(m ^ full, survivors)
        else:
            self._pause(d_young, m)
            self._young_effect(m, survivors)


class _G1Kernel(_Kernel):
    """G1: young / concurrent-mark / mixed / full, with the mark→mixed
    state machine vectorized as a countdown per lane.

    ``_marking`` has no vector analogue: the scalar flag is set when a
    concurrent-mark plan is built and cleared by ``notify_cycle_complete``
    for that same cycle, so it is always False when ``plan_cycle`` reads
    it — only ``_mixed_remaining`` and ``_mark_cpu_s`` are real state.
    """

    N_SIG_EXTRAS = 1  # the mixed-pause countdown
    N_ACC_EXTRAS = 1  # cumulative concurrent-mark CPU
    NEEDS_YOUNG_AT_START = False
    ADVANCES_PROGRESS = False

    def __init__(self, sim: _BatchSim):
        super().__init__(sim)
        self.young_fraction = G1Collector.YOUNG_FRACTION
        self.full_line = G1Collector.FULL_GC_THRESHOLD * sim.usable
        self.ihop_line = G1Collector.IHOP * sim.usable
        self.rset = G1Collector.RSET_PAUSE_S
        self.mixed_count = G1Collector.MIXED_PAUSE_COUNT
        self.copy_denom = sim.copy_rate * sim.stw_speedup
        self.mark_denom = sim.mark_rate * sim.stw_speedup
        self.mixed_rem = sim.sig_extra_rows[0]
        self.mark_cpu = sim.acc_extra_rows[0]

    def begin_iteration(self, it_mask):
        self.d_compact = self.s.pause_floor + self.s.live_fp / self.copy_denom

    def background_cpu(self) -> Optional[np.ndarray]:
        # Concurrent refinement proportional to cumulative allocation,
        # plus all marking performed so far this run.
        s = self.s
        return 0.05 * s.alloc_total / s.conc_rate + self.mark_cpu

    def trigger_free(self, free):
        return self._eden_trigger(self.young_fraction)

    def run_cycle(self, m, started, heap_before, young_at_start):
        s = self.s
        full = m & (s.live >= self.full_line)
        nonfull = m ^ full
        mixed = nonfull & (self.mixed_rem > 0.0)
        mark = (nonfull ^ mixed) & (s.live >= self.ihop_line)
        full_any = bool(full.any())
        mixed_any = bool(mixed.any())
        mark_any = bool(mark.any())

        if mark_any:
            self.mark_cpu += np.where(mark, 1.2 * s.live / s.conc_rate, 0.0)

        survivors = s.young * s.sr
        work = survivors + 0.02 * s.live
        if mixed_any or mark_any:
            work = work * np.where(mixed, 1.3, np.where(mark, 1.1, 1.0))
        d_young = s.pause_floor + work / self.copy_denom + self.rset

        if full_any:
            d_mark_full = s.pause_floor + heap_before / self.mark_denom
            self._pause(np.where(full, d_mark_full, d_young), m)
        else:
            self._pause(d_young, m)
        if mark_any:
            d_remark = s.pause_floor + (0.08 * s.live) / self.mark_denom
            if full_any:
                self._pause(np.where(full, self.d_compact, d_remark), full | mark)
            else:
                self._pause(d_remark, mark)
        elif full_any:
            self._pause(self.d_compact, full)

        # Mixed reclaim is planned against pre-cycle occupancy.
        if mixed_any:
            reclaim = np.maximum(s.live - s.live_fp, 0.0) / self.mixed_count
        self._young_effect(nonfull, survivors)
        if mixed_any:
            apply_reclaim = mixed & (reclaim > 0.0)
            reduced = s.live - reclaim
            _set(s.live, np.where(s.live_fp > reduced, s.live_fp, reduced), apply_reclaim)
        if full_any:
            self._full_effect_stw(full, heap_before)

        # notify_cycle_complete: the mark→mixed countdown.
        if mark_any:
            _set(self.mixed_rem, float(self.mixed_count), mark)
        if mixed_any:
            np.subtract(self.mixed_rem, 1.0, out=self.mixed_rem, where=mixed)
        if full_any:
            _set(self.mixed_rem, 0.0, full)


class _ConcurrentKernel(_Kernel):
    """Shared machinery for the fully concurrent collectors: adaptive
    team sizing, trigger projection, and the concurrent phase with
    dilation, pacing, and allocation stalls.

    ``_workers`` and ``_duration`` mirror the scalar sizing helper,
    ``ConcurrentCollector._size_cycle``, op-for-op; the team bounds are
    read from the collector's per-run constants.
    """

    def __init__(self, sim: _BatchSim):
        super().__init__(sim)
        cls = type(sim.collectors[0])
        proto = sim.collectors[0]
        self.ysf = cls.YOUNG_SCAN_FACTOR
        self.cwf = cls.CYCLE_WORK_FACTOR
        self.ts = cls.TRIGGER_SAFETY
        self.pacing_target = cls.PACING_TARGET
        self.base_workers = proto._base_workers
        self.max_workers = proto._max_workers
        self.inv_e = proto._inv_efficiency
        self.cores_over_quarter = sim.cores / 0.25
        # When the clamp pins the team (Shenandoah on the default
        # machine) the whole sizing pipeline is constant: precompute it
        # and skip the power entirely — bit-exact by construction.
        self.pinned = self.base_workers >= self.max_workers
        if self.pinned:
            self.pinned_workers = np.full(sim.n, self.base_workers, dtype=np.float64)
            self.pinned_denom = float(sim.rate_lut[min(int(self.base_workers), sim.hw)])

    # -- per-collector hooks ---------------------------------------------
    def _cycle_work(self) -> np.ndarray:
        s = self.s
        return self.cwf * (s.live + self.ysf * s.young)

    def _pace(self, free: np.ndarray, duration: np.ndarray) -> Optional[np.ndarray]:
        return None  # ZGC: no pacer, mutators stall outright

    def _pre_pauses(self, m: np.ndarray) -> None:
        raise NotImplementedError

    def _post_pauses(self, m: np.ndarray) -> None:
        raise NotImplementedError

    # -- shared sizing ----------------------------------------------------
    def _workers(self, free: np.ndarray, work: np.ndarray) -> np.ndarray:
        s = self.s
        if self.pinned:
            return self.pinned_workers
        budget = self.pacing_target * free / s.alloc_spec
        ns = work / (s.conc_rate * budget)
        # The one vectorized op that can differ from the scalar path by
        # 1 ulp (SIMD pow) — see BATCH_TOLERANCE.
        needed = np.where(ns <= 1.0, 1.0, np.power(ns, self.inv_e))
        sized = np.minimum(np.maximum(self.base_workers, needed), self.max_workers)
        return np.where(free > 0.0, sized, self.base_workers)

    def _duration(self, work: np.ndarray, workers: np.ndarray) -> np.ndarray:
        s = self.s
        if self.pinned:
            return work / self.pinned_denom
        iw = workers.astype(np.int64)
        np.clip(iw, 0, s.hw, out=iw)
        return work / s.rate_lut[iw]

    def begin_iteration(self, it_mask):
        # The trigger's headroom window only moves with live_fp.
        s = self.s
        headroom = np.maximum(s.usable - s.live_fp, 0.0)
        self.h_lo = 0.10 * headroom
        self.h_hi = 0.90 * headroom

    def trigger_free(self, free):
        s = self.s
        work = self._cycle_work()
        duration = self._duration(work, self._workers(free, work))
        expected = s.alloc_spec * duration
        return np.minimum(np.maximum(self.ts * expected, self.h_lo), self.h_hi)

    def _concurrent(self, m, free, work, workers, duration) -> None:
        s = self.s
        mc = m & (duration > 0.0)
        interference = 1.0 + s.interference_per_thread * workers / s.hw
        available = s.hw - workers
        contention = np.where(
            available <= 0.0,
            np.maximum(self.cores_over_quarter, interference),
            np.where(
                s.cores <= available,
                interference,
                np.maximum(s.cores / available, interference),
            ),
        )
        pr = 1.0 / contention
        pace = self._pace(free, duration)
        if pace is not None:
            pr = np.minimum(pr, pace / s.alloc_rate)
        start = s.wall.copy()
        max_space = free / s.alloc_rate
        rem = np.maximum(s.target - s.progress, 0.0)
        prog = np.minimum(np.minimum(pr * duration, max_space), rem)
        run_wall = np.where(pr > 0.0, prog / pr, 0.0)
        finished = prog >= rem - 1e-12
        span_end = start + np.where(finished, run_wall, duration)
        s.conc_cpu += np.where(mc, (span_end - start) * workers, 0.0)
        pm = np.where(mc, prog, 0.0)
        mb = pm * s.alloc_rate
        s.young += mb
        s.alloc_total += mb
        s.progress += pm
        stall = np.where(
            mc & ~finished & (run_wall < duration), duration - run_wall, 0.0
        )
        s.stall_wall += stall
        _set(s.wall, span_end, mc)

    def run_cycle(self, m, started, heap_before, young_at_start):
        s = self.s
        free = np.maximum(s.usable - (s.live + s.young), 0.0)
        work = self._cycle_work()
        workers = self._workers(free, work)
        duration = self._duration(work, workers)
        self._pre_pauses(m)
        self._concurrent(m, free, work, workers, duration)
        self._post_pauses(m)
        self._full_effect(m, young_at_start)


class _ShenandoahKernel(_ConcurrentKernel):
    """Shenandoah: brief root-scan pauses and the allocation pacer."""

    def _pace(self, free, duration):
        return ShenandoahCollector.PACE_HEADROOM * free / duration

    def begin_iteration(self, it_mask):
        super().begin_iteration(it_mask)
        # Root-scan pauses track live_fp: constant within an iteration.
        s = self.s
        denom = s.mark_rate * s.stw_speedup
        self.d_pre = s.pause_floor + (0.010 * s.live_fp) / denom
        self.d_post = s.pause_floor + (0.015 * s.live_fp) / denom

    def _pre_pauses(self, m):
        self._pause(self.d_pre, m)

    def _post_pauses(self, m):
        self._pause(self.d_post, m)


class _ZgcKernel(_ConcurrentKernel):
    """ZGC: O(1) pauses (exactly the pause floor), allocation stalls."""

    def __init__(self, sim: _BatchSim):
        super().__init__(sim)
        # stw_pause_for(0.0, ...): pause_floor + 0.0 == pause_floor.
        self.tiny = np.full(
            sim.n, sim.pause_floor + 0.0 / (sim.mark_rate * sim.stw_speedup)
        )

    def _pre_pauses(self, m):
        self._pause(self.tiny, m)

    def _post_pauses(self, m):
        self._pause(self.tiny, m)  # mark-end
        self._pause(self.tiny, m)  # relocate-start


class _GenZgcKernel(_ZgcKernel):
    """Generational ZGC: mostly young cycles, a full cycle every
    ``YOUNG_CYCLES_PER_OLD``, tracked as a per-lane counter."""

    N_SIG_EXTRAS = 1  # young-cycles-since-old counter

    def __init__(self, sim: _BatchSim):
        super().__init__(sim)
        self.per_old = float(GenZgcCollector.YOUNG_CYCLES_PER_OLD)
        self.ycwf = GenZgcCollector.YOUNG_CYCLE_WORK_FACTOR
        self.yso = sim.sig_extra_rows[0]

    def _cycle_work(self) -> np.ndarray:
        s = self.s
        old_due = self.yso >= self.per_old
        survivors = s.young * s.sr
        young_work = self.ycwf * (survivors + 0.1 * s.young)
        return np.where(old_due, super()._cycle_work(), young_work)

    def run_cycle(self, m, started, heap_before, young_at_start):
        s = self.s
        old_due = self.yso >= self.per_old
        old = m & old_due
        youngm = m ^ old
        free = np.maximum(s.usable - (s.live + s.young), 0.0)
        work = self._cycle_work()
        workers = self._workers(free, work)
        duration = self._duration(work, workers)
        self._pause(self.tiny, m)  # mark-start / young-mark-start
        self._concurrent(m, free, work, workers, duration)
        self._pause(self.tiny, m)  # mark-end / young-relocate-start
        if old.any():
            self._pause(self.tiny, old)  # relocate-start (old cycles only)
            self._full_effect(old, young_at_start)
        self._young_effect(youngm)
        # notify_cycle_complete: advance or reset the young counter.
        self.yso += youngm
        _set(self.yso, 0.0, old)


#: Kernel dispatch is by exact collector class: an unregistered subclass
#: may override any hook, so it silently falls back to the scalar path.
_KERNELS: Dict[type, type] = {
    SerialCollector: _StwKernel,
    ParallelCollector: _StwKernel,
    G1Collector: _G1Kernel,
    ShenandoahCollector: _ShenandoahKernel,
    ZgcCollector: _ZgcKernel,
    GenZgcCollector: _GenZgcKernel,
}
