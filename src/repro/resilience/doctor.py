"""Cache and journal self-healing: the ``chopin doctor`` machinery.

A long-lived result cache accumulates rot: torn writes from power loss,
entries pickled under an older schema, files a disk error garbled.  The
engine already *tolerates* all of these (a bad entry reads as a miss and
is counted), but tolerance is not hygiene — a cache full of corpses
re-counts the same corruption on every sweep and hides real rot in the
noise.  This module repairs instead of tolerating:

- :func:`scan_cache` walks every entry, loads and validates it exactly
  the way :class:`~repro.harness.engine.ResultCache` would, and
  *quarantines* the failures (moved to ``<root>/_quarantine/``, never
  deleted — rot is evidence) with a per-kind breakdown: ``corrupt``
  (unreadable or not a result), ``stale`` (a result object missing
  fields the current schema requires), ``misplaced`` (a valid result
  filed under the wrong key — a torn rename or a copied cache);
- :func:`scan_jobs_journal` / :func:`compact_jobs_journal` triage and
  compact a stopped service's job journal from the same fold the queue
  replays on restart, the rewrite crash-safe (temp file + fsync + atomic
  rename) so the doctor itself cannot tear the journal it is healing;
- :func:`verify_cells` re-simulates a deterministic sample of cached
  cells and compares payloads bit-for-bit — the last line of defence
  against *plausible* corruption (an entry that unpickles fine but
  carries wrong numbers), quarantining any mismatch.

Engine and service imports are deferred inside functions: both import
:mod:`repro.resilience`, so a module-level import here would be a cycle.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

#: Where quarantined entries go, inside the cache root.  The directory
#: name starts with an underscore so the two-hex-digit shard globs of
#: the cache layout can never collide with it.
QUARANTINE_DIR = "_quarantine"


@dataclass
class CacheScan:
    """What :func:`scan_cache` found (and moved)."""

    scanned: int = 0
    healthy: int = 0
    corrupt: int = 0  # unreadable, unpicklable, or not a CellResult
    stale: int = 0  # a CellResult missing current-schema fields
    misplaced: int = 0  # valid result filed under the wrong key
    quarantined: int = 0
    quarantine_dir: Optional[Path] = None
    #: ``(path, kind)`` for every unhealthy entry, in scan order.
    problems: List[Tuple[Path, str]] = field(default_factory=list)

    @property
    def unhealthy(self) -> int:
        return self.corrupt + self.stale + self.misplaced


@dataclass
class VerifyReport:
    """Outcome of :func:`verify_cells`: sampled recomputation."""

    sampled: int = 0
    matched: int = 0
    mismatched: int = 0
    quarantined: int = 0
    #: Keys whose cached payload diverged from recomputation.
    divergent_keys: List[str] = field(default_factory=list)


def _missing_fields(obj: object) -> List[str]:
    """Dataclass fields the unpickled object lacks — the signature of an
    entry written under an older schema."""
    return [
        f.name
        for f in dataclasses.fields(type(obj))
        if not hasattr(obj, f.name)
    ]


def _diagnose(path: Path, key: str) -> Optional[str]:
    """Classify one cache entry: None when healthy, else the problem kind."""
    import pickle

    from repro.harness.engine import CellResult

    try:
        with path.open("rb") as fh:
            result = pickle.load(fh)
    except Exception:
        return "corrupt"
    if not isinstance(result, CellResult):
        return "corrupt"
    if _missing_fields(result):
        return "stale"
    timed = getattr(result, "timed", None)
    if timed is not None and dataclasses.is_dataclass(timed) and _missing_fields(timed):
        return "stale"  # the nested IterationResult predates the schema
    if result.key != key:
        return "misplaced"
    return None


def _quarantine(path: Path, quarantine_dir: Path) -> bool:
    """Move one entry into quarantine (never delete — rot is evidence)."""
    try:
        quarantine_dir.mkdir(parents=True, exist_ok=True)
        target = quarantine_dir / path.name
        suffix = 0
        while target.exists():
            suffix += 1
            target = quarantine_dir / f"{path.name}.{suffix}"
        os.replace(str(path), str(target))
    except OSError:
        return False
    return True


#: Every on-disk layout a cache root may carry: flat (``shards=1``) plus
#: the one/two/three-hex-digit fan-outs.  The glob set is disjoint by
#: construction — an entry sits at exactly one depth, and the quarantine
#: directory's leading underscore can never match a hex-prefix pattern —
#: so a union over these never counts a file twice.
_LAYOUT_GLOBS = ("*.pkl", "?/*.pkl", "??/*.pkl", "???/*.pkl")


def scan_cache(root: Union[str, Path], quarantine: bool = True) -> CacheScan:
    """Scan a result-cache directory and quarantine unhealthy entries.

    Both cache generations are scanned in one pass: the legacy flat and
    two-hex-digit :class:`~repro.harness.engine.ResultCache` layout and
    every :class:`~repro.service.shards.ShardedResultCache` fan-out
    (``<root>/<key[:width]>/<key>.pkl`` for widths 0–3).  Anything that
    fails to load, predates the current schema, or is filed under the
    wrong key — including a valid result sitting in a shard directory
    whose hex prefix disagrees with its key — is moved to
    ``<root>/_quarantine/`` when ``quarantine`` is set (pass ``False``
    for a dry run).
    """
    root = Path(root)
    scan = CacheScan(quarantine_dir=root / QUARANTINE_DIR)
    if not root.is_dir():
        return scan
    paths = sorted({path for glob in _LAYOUT_GLOBS for path in root.glob(glob)})
    for path in paths:
        scan.scanned += 1
        kind = _diagnose(path, path.stem)
        if kind is None and path.parent != root and not path.stem.startswith(
            path.parent.name
        ):
            kind = "misplaced"  # healthy payload, wrong shard directory
        if kind is None:
            scan.healthy += 1
            continue
        setattr(scan, kind, getattr(scan, kind) + 1)
        scan.problems.append((path, kind))
        if quarantine and _quarantine(path, scan.quarantine_dir):
            scan.quarantined += 1
    return scan


def verify_cells(
    cells: Sequence[object],
    cache_root: Union[str, Path],
    sample: int = 8,
    quarantine: bool = True,
) -> VerifyReport:
    """Re-simulate a deterministic sample of cached cells and compare.

    ``cells`` enumerates candidate :class:`~repro.harness.engine.Cell`
    jobs (e.g. from a plan); of those with a cache entry, the ``sample``
    lowest keys are recomputed and compared payload-for-payload.  A
    divergent entry is quarantined — it would silently poison every
    future warm sweep — and reported by key.
    """
    import pickle

    from repro.harness.engine import ResultCache, _execute_cell, cell_key

    if sample < 1:
        raise ValueError(f"verification sample must be at least 1, got {sample}")
    cache = ResultCache(cache_root)
    report = VerifyReport()
    keyed = sorted(
        ((cell_key(cell), cell) for cell in cells), key=lambda pair: pair[0]
    )
    for key, cell in keyed:
        if report.sampled >= sample:
            break
        cached = cache.get(key)
        if cached is None:
            continue
        report.sampled += 1
        fresh = _execute_cell((cell, key))
        if pickle.dumps((cached.timed, cached.oom)) == pickle.dumps(
            (fresh.timed, fresh.oom)
        ):
            report.matched += 1
            continue
        report.mismatched += 1
        report.divergent_keys.append(key)
        if quarantine and _quarantine(
            cache.path_for(key), Path(cache_root) / QUARANTINE_DIR
        ):
            report.quarantined += 1
    return report


# ----------------------------------------------------------------------
# The service job journal (jobs.jsonl + rotated segments)


@dataclass
class JobsJournalScan:
    """What :func:`scan_jobs_journal` found across every rotation segment."""

    path: Optional[Path] = None
    segments: int = 0  # rotated segment files folded before the active one
    lines: int = 0
    torn: int = 0  # unparseable lines (interrupted writers)
    jobs: int = 0
    by_state: Dict[str, int] = field(default_factory=dict)
    #: RUNNING jobs with no process holding their lease — a scan runs
    #: against a stopped service, so every RUNNING job is an orphan that
    #: will be requeued (or dead-lettered) on the next replay.
    orphaned: List[str] = field(default_factory=list)
    #: ``(job id, error)`` for jobs parked in ``DEAD_LETTER``.
    dead_letters: List[Tuple[str, str]] = field(default_factory=list)
    requeues: int = 0  # total requeues across all jobs


@dataclass
class JobsJournalCompaction:
    """Before/after accounting for :func:`compact_jobs_journal`."""

    segments_before: int = 0
    lines_before: int = 0
    lines_after: int = 0
    torn: int = 0
    dropped: int = 0  # lines for a job whose submit was lost or invalid
    compacted: bool = False  # False: journal missing or already one-line-per-job


def scan_jobs_journal(path: Union[str, Path]) -> JobsJournalScan:
    """Read-only triage of a (stopped) service's job journal: every
    rotation segment is folded, so the report covers the full history —
    exactly the jobs and states :class:`~repro.service.jobqueue.JobQueue`
    would replay, before it requeues the orphans."""
    from repro.service.jobqueue import fold_journal

    path = Path(path)
    fold = fold_journal(path)
    scan = JobsJournalScan(
        path=path,
        segments=len(fold.segments),
        lines=fold.lines,
        torn=fold.torn,
        jobs=len(fold.jobs),
    )
    for job in fold.jobs.values():
        scan.by_state[job.state] = scan.by_state.get(job.state, 0) + 1
        scan.requeues += job.requeues
        if job.state == "RUNNING":
            scan.orphaned.append(job.id)
        elif job.state == "DEAD_LETTER":
            scan.dead_letters.append((job.id, job.error or ""))
    return scan


def compact_jobs_journal(path: Union[str, Path]) -> JobsJournalCompaction:
    """Rewrite the job journal as one snapshot record per job and fold
    every rotation segment away.

    Each snapshot carries the job's folded final state, including a
    *numeric* ``requeues`` count (never the incremental ``requeued``
    flag), so replaying a compacted journal — or compacting twice —
    yields exactly the same requeue counts: no double-counting.  The
    rewrite is crash-safe: temp file + fsync + atomic rename onto the
    active journal *before* the segments are removed, so a crash
    mid-compaction leaves a journal whose replay still converges to the
    same state (the snapshot lines win over older segment lines).
    """
    from repro.service.jobqueue import fold_journal

    path = Path(path)
    if not path.exists():
        return JobsJournalCompaction()
    fold = fold_journal(path)
    result = JobsJournalCompaction(
        segments_before=len(fold.segments),
        lines_before=fold.lines,
        torn=fold.torn,
        dropped=fold.dropped,
    )
    keys = {job_id: key for key, job_id in fold.idempotency.items()}
    snapshots = []
    for job in fold.jobs.values():
        snapshot = {
            "id": job.id,
            "seq": job.seq,
            "spec": job.spec.to_payload(),
            "state": job.state,
            "requeues": job.requeues,
            "error": job.error,
            "cells": job.cells,
            "holes": job.holes,
            "stats": job.stats,
            "result": job.result,
            "failure": job.failure,
        }
        if job.id in keys:
            snapshot["idempotency_key"] = keys[job.id]
        snapshots.append(json.dumps(snapshot, sort_keys=True))
    result.lines_after = len(snapshots)
    if not fold.segments and fold.torn == 0 and fold.lines == len(snapshots):
        return result  # already one clean line per job
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            for line in snapshots:
                fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return result
    for segment in fold.segments:
        try:
            segment.unlink()
        except OSError:
            pass
    result.compacted = True
    return result
