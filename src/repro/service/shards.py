"""Sharded multi-tenant result cache: fan-out dirs, hot set, write-behind.

The engine's :class:`~repro.harness.engine.ResultCache` already stores
entries content-addressed under a fixed two-hex-character fan-out
(``<root>/<key[:2]>/<key>.pkl``) with atomic rename writes.  That layout
is fine for one engine; a *service* multiplies the tenants — N worker
threads executing jobs and N clients warming the same sweep — and three
gaps show up:

- **fan-out is fixed**: 256 directories is right for one user's cache
  and wrong for a lab-wide artifact store (millions of cells want 4096
  dirs; a scratch cache wants a flat layout).
  :class:`ShardedResultCache` makes the hex-prefix width a parameter
  (``shards`` ∈ :data:`SHARD_CHOICES`, i.e. 16ⁿ directories for
  n = 0..3), with the default 256 matching the legacy layout exactly so
  existing caches keep working unchanged;
- **every hit is a disk read**: concurrent jobs sweeping overlapping
  grids re-deserialize the same entries over and over.  A bounded
  in-memory **hot set** (LRU over deserialized
  :class:`~repro.harness.engine.CellResult` objects) makes the service
  path read-through: probe memory, then disk, then the legacy layouts;
- **every put is a synchronous write**: an optional **write-behind**
  buffer batches puts and flushes them with the same atomic
  temp-file + ``os.replace`` protocol, so a burst of tiny results does
  not serialize on fsync-ish IO.  ``flush()`` drains the buffer; the
  service flushes at job boundaries, and because a missing entry is
  just a miss, a crash between put and flush degrades to re-executing
  those cells — never to a wrong answer.

Migration is read-through: a key absent from this cache's shard layout
is looked up under the *other* layouts (the flat ``<root>/<key>.pkl``
of the earliest caches, and every other hex-prefix width) and, when
found, rewritten into the current layout — the legacy entry is left in
place as evidence, and ``chopin doctor`` scans both layouts without
double-counting.

Everything is thread-safe behind one lock held only for memory
operations and path computation — pickling and file IO happen outside
it, so N tenants do not contend on the lock for the expensive part.
Partially-written entries are never observable: like the base class,
every write lands in a ``*.tmp`` sibling first and is published with
``os.replace``, and a reader that loses the race simply sees a miss.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.harness.engine import CellResult, ResultCache

#: Accepted shard counts: powers of 16 so a shard is a hex-prefix
#: directory (1 = flat, 16 = one hex char, 256 = two — the legacy
#: layout — and 4096 = three for lab-scale stores).
SHARD_CHOICES: Tuple[int, ...] = (1, 16, 256, 4096)

#: Hex-prefix width per shard count.
_WIDTHS: Dict[int, int] = {1: 0, 16: 1, 256: 2, 4096: 3}


class ShardedResultCache(ResultCache):
    """Multi-tenant :class:`~repro.harness.engine.ResultCache`.

    ``shards`` selects the fan-out (one of :data:`SHARD_CHOICES`;
    default 256, the legacy two-hex-char layout).  ``hot_set`` bounds
    the in-memory LRU of deserialized results (0 disables it);
    ``write_behind`` > 0 buffers that many puts before flushing them to
    disk in one pass (0 = write-through, the legacy behaviour).

    Statistics beyond the inherited ``corrupt`` counter: ``hot_hits``
    (gets served from memory), ``legacy_hits`` (gets served from
    another layout and migrated into this one), ``flushes`` (write-
    behind drains).
    """

    def __init__(
        self,
        root: Union[str, Path],
        shards: int = 256,
        hot_set: int = 256,
        write_behind: int = 0,
    ) -> None:
        if shards not in SHARD_CHOICES:
            raise ValueError(
                f"cache shards must be one of {SHARD_CHOICES}, got {shards!r}"
            )
        if hot_set < 0:
            raise ValueError(f"hot-set size must be non-negative, got {hot_set!r}")
        if write_behind < 0:
            raise ValueError(
                f"write-behind buffer size must be non-negative, got {write_behind!r}"
            )
        super().__init__(root)
        self.shards = shards
        self.width = _WIDTHS[shards]
        self.hot_set = hot_set
        self.write_behind = write_behind
        self.hot_hits = 0
        self.legacy_hits = 0
        self.flushes = 0
        self._lock = threading.Lock()
        self._hot: "OrderedDict[str, CellResult]" = OrderedDict()
        self._pending: "OrderedDict[str, CellResult]" = OrderedDict()

    # ------------------------------------------------------------------
    # Layout

    def _legacy_paths(self, key: str) -> List[str]:
        """Where the same key would live under every *other* layout —
        the flat files of the earliest caches and the other hex-prefix
        widths — probed in widest-first order (256 is the most likely
        predecessor)."""
        return [
            self._entry_path(key, width) for width in (2, 1, 3, 0) if width != self.width
        ]

    # ------------------------------------------------------------------
    # Read-through

    def get(self, key: str) -> Optional[CellResult]:
        """Hot set, then this layout, then legacy layouts (migrating)."""
        with self._lock:
            hit = self._hot.get(key)
            if hit is None:
                hit = self._pending.get(key)
            if hit is not None:
                self._hot.pop(key, None)
                if self.hot_set:
                    self._hot[key] = hit  # refresh LRU recency
                self.hot_hits += 1
                return hit
        result = super().get(key)
        if result is None:
            result = self._read_legacy(key)
        if result is not None:
            self._remember(key, result)
        return result

    def _read_legacy(self, key: str) -> Optional[CellResult]:
        """Probe the other layouts; migrate a hit into this one.

        The legacy file is left in place — it is still a valid entry
        for tenants configured with the old fan-out, and the doctor
        treats both copies as healthy.
        """
        for path in self._legacy_paths(key):
            result = self._load(path, key)
            if result is not None:
                self.legacy_hits += 1
                self._write(result)  # adopt into the current layout
                return result
        return None

    def _remember(self, key: str, result: CellResult) -> None:
        if not self.hot_set:
            return
        with self._lock:
            self._hot.pop(key, None)
            self._hot[key] = result
            while len(self._hot) > self.hot_set:
                self._hot.popitem(last=False)

    # ------------------------------------------------------------------
    # Write-behind

    def put(self, result: CellResult) -> None:
        """Store a result: hot set immediately, disk now or at flush."""
        self._remember(result.key, result)
        if self.write_behind:
            flush_now: List[CellResult] = []
            with self._lock:
                self._pending[result.key] = result
                if len(self._pending) >= self.write_behind:
                    flush_now = list(self._pending.values())
                    self._pending.clear()
            if flush_now:
                self._flush_batch(flush_now)
            return
        self._write(result)

    def flush(self) -> int:
        """Drain the write-behind buffer to disk; returns entries written."""
        with self._lock:
            batch = list(self._pending.values())
            self._pending.clear()
        if batch:
            self._flush_batch(batch)
        return len(batch)

    @property
    def pending(self) -> int:
        """Entries buffered in the write-behind layer, not yet on disk."""
        with self._lock:
            return len(self._pending)

    def _flush_batch(self, batch: List[CellResult]) -> None:
        self.flushes += 1
        for result in batch:
            self._write(result)
