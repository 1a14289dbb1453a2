"""Checkpoint journal: resumable sweeps over the content-addressed cache.

A production-scale sweep is hours of cells; losing it to a SIGINT at 95%
is not acceptable.  The result cache already persists every completed
cell, so resumption is *almost* free — what is missing is a cheap,
crash-safe record of which keys a sweep has actually finished, so a
resumed run can report how much of the batch it inherited.  The resumed
run still probes the cache for every cell — the cache, not the journal,
supplies results — and a hit the journal lacks is journalled then.

:class:`CheckpointJournal` is that record: an append-only JSONL manifest
of completed cell keys.  Appends are line-atomic on POSIX (single small
``write`` in append mode) and *durable* — each record is flushed and
``fsync``'d before ``record`` returns, so a ``kill -9`` landing right
after a cell completes cannot lose the line the resume path depends on.
The reader tolerates a torn final line — the worst an interruption can
cost is re-executing the one cell whose record was being written.  The
journal is *advisory*: results always come from the cache or fresh
execution, so a journal that is stale, deleted, or lists keys the cache
no longer holds degrades to a cold start, never to a wrong answer.

Journals accumulate cruft over many interrupted runs (torn lines,
duplicate keys from cache-hit reconciliation); ``chopin doctor``
compacts them via :func:`repro.resilience.doctor.compact_journal`.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Set, Union


class CheckpointJournal:
    """Append-only manifest of completed cell keys for one sweep.

    ``record`` appends one JSON line per completed cell (positive *and*
    negative results — a cached OOM is progress too); ``completed``
    re-reads the manifest.  Opening the same path across processes is
    the resume story: pass the journal of the interrupted run to the new
    engine and it picks up where the old one stopped.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._torn_tail = False
        self._completed: Set[str] = self._load()

    def _load(self) -> Set[str]:
        """Parse the manifest, ignoring torn or foreign lines."""
        done: Set[str] = set()
        try:
            text = self.path.read_text()
        except OSError:
            return done
        # A file not ending in a newline was torn mid-append; the next
        # record must start on a fresh line or it would glue onto the
        # tear and both lines would be lost.
        self._torn_tail = bool(text) and not text.endswith("\n")
        for line in text.splitlines():
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # torn final line from an interrupted writer
            if isinstance(entry, dict) and isinstance(entry.get("key"), str):
                done.add(entry["key"])
        return done

    def completed(self) -> Set[str]:
        """Keys this journal knows are done (snapshot, not a live view)."""
        return set(self._completed)

    def __contains__(self, key: str) -> bool:
        return key in self._completed

    def __len__(self) -> int:
        return len(self._completed)

    def record(self, key: str, oom: bool = False) -> None:
        """Journal one completed cell, durably.  Idempotent per key; IO
        failures are swallowed (the journal accelerates resumption, it
        is not a correctness dependency).

        The write is flushed and ``os.fsync``'d before returning: a
        journal line exists on disk for every cell whose completion this
        process has acknowledged, so even ``kill -9`` immediately after
        a cell finishes costs a resume nothing.
        """
        if key in self._completed:
            return
        self._completed.add(key)
        line = json.dumps({"key": key, "oom": oom}, sort_keys=True)
        if self._torn_tail:
            line = "\n" + line
            self._torn_tail = False
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a") as fh:
                fh.write(line + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        except OSError:
            pass
