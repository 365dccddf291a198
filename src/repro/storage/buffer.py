"""LRU buffer pool in front of a :class:`~repro.storage.disk.DiskManager`.

The pool caches decoded page bytes; a hit is charged to
``IOStats.cache_hits`` instead of a disk read.  Experiments that want cold
queries call :meth:`BufferPool.clear` between queries.

Besides the per-file ``IOStats`` accounting, every pool keeps its own
cumulative hit/miss/eviction counters (:meth:`BufferPool.counters`), and
its capacity can be changed in place with :meth:`BufferPool.resize` — the
batch query engine uses this to lend an index a large shared cache for the
duration of a batch and hand it back unchanged afterwards.

When several tenants share one pool (the serve layer multiplexes every
client of a field onto the field's pool), reads can additionally be
attributed to a *tenant*: per-tenant hits, misses and payload bytes
accumulate in :meth:`BufferPool.tenant_counters`, and
:meth:`BufferPool.tenant_residency` reports who is occupying the resident
frames.  Residency is computed over *distinct* pages: a page touched by
several tenants is shared, counted once in every total — summing the
per-tenant exclusive figures plus the shared pool never double-counts a
frame, so the report's totals always equal the pool's true footprint.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..obs.metrics import REGISTRY
from .disk import DiskManager

_POOL_READS = REGISTRY.counter(
    "repro_pool_reads_total",
    "Buffer-pool read outcomes per backing file (event: hit|miss).")
_POOL_EVICTIONS = REGISTRY.counter(
    "repro_pool_evictions_total",
    "LRU evictions per backing file (capacity pressure only).")
_POOL_FRAMES = REGISTRY.gauge(
    "repro_pool_frames",
    "Resident frames per backing file at last update.")


@dataclass(frozen=True)
class PoolCounters:
    """Cumulative hit/miss/eviction counts of one :class:`BufferPool`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        """Total reads served (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of reads served from the pool (0.0 when unused)."""
        return self.hits / self.accesses if self.accesses else 0.0

    def diff(self, earlier: "PoolCounters") -> "PoolCounters":
        """Counter deltas accumulated since ``earlier``."""
        return PoolCounters(hits=self.hits - earlier.hits,
                            misses=self.misses - earlier.misses,
                            evictions=self.evictions - earlier.evictions)

    def __add__(self, other: "PoolCounters") -> "PoolCounters":
        return PoolCounters(hits=self.hits + other.hits,
                            misses=self.misses + other.misses,
                            evictions=self.evictions + other.evictions)


@dataclass(frozen=True)
class TenantCounters:
    """Cumulative per-tenant read traffic through one shared pool."""

    hits: int = 0
    misses: int = 0
    #: Payload bytes served to this tenant (hits and misses alike).
    bytes_read: int = 0

    @property
    def accesses(self) -> int:
        """Total reads served to this tenant."""
        return self.hits + self.misses

    def to_dict(self) -> dict:
        """JSON-safe form, for the serve layer's ``stats`` verb."""
        return {"hits": self.hits, "misses": self.misses,
                "bytes_read": self.bytes_read}


class BufferPool:
    """Write-through LRU cache of pages.

    Parameters
    ----------
    disk:
        Backing file.
    capacity:
        Maximum number of cached pages; ``0`` disables caching entirely,
        turning every access into a disk read.
    """

    def __init__(self, disk: DiskManager, capacity: int = 128) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.disk = disk
        self.capacity = capacity
        self._frames: OrderedDict[int, bytes] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Tenant attribution: per-tenant [hits, misses, bytes] rows and,
        # for every *resident* frame, the set of tenants that read it
        # while resident (dropped with the frame).
        self._tenant_rows: dict[str, list[int]] = {}
        self._page_tenants: dict[int, set[str]] = {}
        self._current_tenant: str | None = None
        # One coarse lock covers the frame map, the pool counters, and
        # the backing disk's IOStats accounting on the miss path, so
        # concurrent readers (the parallel query engine's workers, or
        # any future caller) can never lose counter increments or
        # corrupt the LRU order.  Uncontended cost is one C-level
        # acquire/release per access.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._frames)

    def read(self, page_id: int, tenant: str | None = None) -> bytes:
        """Return page bytes, from cache when resident.

        ``tenant`` (or, when omitted, the pool's current tenant — see
        :meth:`set_tenant`) attributes the access to a tenant's
        counters; ``None`` leaves the read unattributed.
        """
        with self._lock:
            if tenant is None:
                tenant = self._current_tenant
            return self._read_locked(page_id, tenant)

    def _read_locked(self, page_id: int, tenant: str | None,
                     faults: list | None = None) -> bytes | None:
        """One hit-or-miss access; the caller holds the lock.

        Returns ``None`` for a page the disk skipped (skip mode, see
        :meth:`read_many`).
        """
        if page_id in self._frames:
            self._frames.move_to_end(page_id)
            self.hits += 1
            self.disk.stats.cache_hits += 1
            if REGISTRY.enabled:
                _POOL_READS.inc(1, disk=self.disk.name, event="hit")
            data = self._frames[page_id]
            if tenant is not None:
                self._attribute(tenant, page_id, len(data), hit=True)
            return data
        self.misses += 1
        if REGISTRY.enabled:
            _POOL_READS.inc(1, disk=self.disk.name, event="miss")
        fetched = self.disk.read_many((page_id,), faults)
        if not fetched:
            return None
        data = fetched[0]
        self._admit(page_id, data)
        if tenant is not None:
            self._attribute(tenant, page_id, len(data), hit=False)
        return data

    def read_many(self, page_ids, tenant: str | None = None,
                  faults: list | None = None) -> list:
        """Read a batch of pages with serial-identical accounting.

        Hits, misses, evictions, tenant attribution, and the backing
        disk's ``IOStats`` come out exactly as a loop of :meth:`read`
        calls would.  Which accesses miss depends only on the id
        sequence and the resident frames, so the misses are worked out
        up front (:meth:`_miss_sequence`) and streamed through one
        batched disk read (:meth:`DiskManager.reads`), consumed in
        access order so an aborted batch stops exactly where the
        serial loop would.

        ``faults`` selects skip mode as in
        :meth:`DiskManager.read_many`: an unreadable page is logged
        there, counted as a miss, never admitted, and left out of the
        result, which holds only the pages that survived.
        """
        page_ids = list(page_ids)
        with self._lock:
            if tenant is None:
                tenant = self._current_tenant
            frames = self._frames
            hits = misses = 0
            out: list = []
            reads = self.disk.reads(self._miss_sequence(page_ids), faults)
            try:
                for i, pid in enumerate(page_ids):
                    data = frames.get(pid)
                    hit = data is not None
                    if hit:
                        frames.move_to_end(pid)
                        hits += 1
                    else:
                        misses += 1
                        data = next(reads)
                        if data is None:
                            # A skipped page is not admitted, so the
                            # worked-out misses no longer hold: finish
                            # one exact access at a time.
                            reads.close()
                            rest = [self._read_locked(p, tenant, faults)
                                    for p in page_ids[i + 1:]]
                            out += [d for d in rest if d is not None]
                            break
                        self._admit(pid, data)
                    if tenant is not None:
                        self._attribute(tenant, pid, len(data), hit=hit)
                    out.append(data)
            finally:
                reads.close()
                self.hits += hits
                self.misses += misses
                self.disk.stats.cache_hits += hits
                if REGISTRY.enabled:
                    if hits:
                        _POOL_READS.inc(hits, disk=self.disk.name,
                                        event="hit")
                    if misses:
                        _POOL_READS.inc(misses, disk=self.disk.name,
                                        event="miss")
            return out

    def _miss_sequence(self, page_ids: list) -> list:
        """Disk reads a serial :meth:`read` loop over ``page_ids`` makes.

        Assumes every read succeeds (each miss is admitted).  The
        caller holds the lock.  Without evictions or repeats the misses
        are just the non-resident ids; otherwise the LRU is replayed on
        the page ids alone.
        """
        frames = self._frames
        missing = [pid for pid in page_ids if pid not in frames]
        if not self.capacity or (
                len(frames) + len(missing) <= self.capacity
                and len(set(missing)) == len(missing)):
            return missing
        lru = OrderedDict.fromkeys(frames)
        sequence = []
        for pid in page_ids:
            if pid in lru:
                lru.move_to_end(pid)
                continue
            sequence.append(pid)
            lru[pid] = None
            if len(lru) > self.capacity:
                lru.popitem(last=False)
        return sequence

    def write(self, page_id: int, data: bytes) -> None:
        """Write through to disk and refresh the cached copy."""
        with self._lock:
            self.disk.write(page_id, data)
            if page_id in self._frames or self.capacity:
                # Re-read nothing: the disk normalizes padding, so
                # mirror its stored payload.
                self._admit(page_id, self.disk.page_payload(page_id))

    def resize(self, capacity: int) -> None:
        """Change the pool capacity in place.

        Growing keeps every resident frame; shrinking evicts LRU frames
        (counted in :attr:`evictions`) until the new bound holds.
        """
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        with self._lock:
            self.capacity = capacity
            self._shrink()

    def counters(self) -> PoolCounters:
        """Snapshot of the cumulative hit/miss/eviction counters."""
        with self._lock:
            return PoolCounters(hits=self.hits, misses=self.misses,
                                evictions=self.evictions)

    # -- tenant accounting --------------------------------------------------

    def set_tenant(self, tenant: str | None) -> str | None:
        """Set the tenant that unattributed reads are charged to.

        Returns the previous tenant so callers can restore it.  The
        serve layer's facade brackets every engine call with this (its
        per-field lock serializes the calls, so the attribute cannot be
        clobbered mid-request); code that already knows its tenant can
        pass ``tenant=`` to :meth:`read` directly instead.
        """
        with self._lock:
            previous = self._current_tenant
            self._current_tenant = tenant
            return previous

    def tenant_counters(self) -> dict[str, TenantCounters]:
        """Per-tenant cumulative read traffic (tenant → counters)."""
        with self._lock:
            return {tenant: TenantCounters(hits=row[0], misses=row[1],
                                           bytes_read=row[2])
                    for tenant, row in sorted(self._tenant_rows.items())}

    def reset_tenant_counters(self) -> None:
        """Zero the per-tenant traffic counters (residency is kept)."""
        with self._lock:
            self._tenant_rows.clear()

    def tenant_residency(self) -> dict:
        """Who occupies the resident frames, without double counting.

        A frame read by exactly one tenant while resident is
        *exclusive* to it; a frame read by several tenants is *shared*
        and counted once in the shared figures (never once per tenant);
        frames nobody read through a tenant (e.g. admitted by writes)
        are *unattributed*.  The invariant this report maintains —
        pinned by ``tests/test_concurrency.py`` — is::

            sum(exclusive_pages) + shared_pages + unattributed_pages
                == resident_pages == len(pool)

        and likewise for bytes, so summing the per-tenant column can
        never exceed the pool's true footprint.  Each tenant's entry
        also reports ``shared_pages``/``shared_bytes`` — the shared
        frames *it* touched — for visibility; those overlap between
        tenants by construction and are excluded from the totals.
        """
        with self._lock:
            tenants: dict[str, dict] = {
                tenant: {"exclusive_pages": 0, "exclusive_bytes": 0,
                         "shared_pages": 0, "shared_bytes": 0}
                for tenant in self._tenant_rows
            }
            shared_pages = shared_bytes = 0
            unattributed_pages = unattributed_bytes = 0
            resident_bytes = 0
            for page_id, data in self._frames.items():
                size = len(data)
                resident_bytes += size
                readers = self._page_tenants.get(page_id)
                if not readers:
                    unattributed_pages += 1
                    unattributed_bytes += size
                elif len(readers) == 1:
                    entry = tenants.setdefault(
                        next(iter(readers)),
                        {"exclusive_pages": 0, "exclusive_bytes": 0,
                         "shared_pages": 0, "shared_bytes": 0})
                    entry["exclusive_pages"] += 1
                    entry["exclusive_bytes"] += size
                else:
                    shared_pages += 1
                    shared_bytes += size
                    for tenant in readers:
                        entry = tenants.setdefault(
                            tenant,
                            {"exclusive_pages": 0, "exclusive_bytes": 0,
                             "shared_pages": 0, "shared_bytes": 0})
                        entry["shared_pages"] += 1
                        entry["shared_bytes"] += size
            return {
                "tenants": dict(sorted(tenants.items())),
                "shared_pages": shared_pages,
                "shared_bytes": shared_bytes,
                "unattributed_pages": unattributed_pages,
                "unattributed_bytes": unattributed_bytes,
                "resident_pages": len(self._frames),
                "resident_bytes": resident_bytes,
            }

    def _attribute(self, tenant: str, page_id: int, size: int,
                   hit: bool) -> None:
        """Charge one read to ``tenant`` (caller holds the lock)."""
        row = self._tenant_rows.get(tenant)
        if row is None:
            row = self._tenant_rows[tenant] = [0, 0, 0]
        row[0 if hit else 1] += 1
        row[2] += size
        if page_id in self._frames:
            readers = self._page_tenants.get(page_id)
            if readers is None:
                readers = self._page_tenants[page_id] = set()
            readers.add(tenant)

    def reset_counters(self) -> None:
        """Zero the hit/miss/eviction counters (frames stay resident)."""
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def invalidate(self, page_id: int) -> None:
        """Drop one cached frame, if resident.

        Used after out-of-band page mutations (fault injection, snapshot
        restore) so the pool cannot serve bytes the disk no longer
        holds.  Not an eviction — invalidation is correctness, not
        capacity pressure.
        """
        with self._lock:
            self._frames.pop(page_id, None)
            self._page_tenants.pop(page_id, None)

    def clear(self) -> None:
        """Drop every cached frame (simulates a cold cache).

        A deliberate cold reset is not cache pressure, so it does not
        count toward :attr:`evictions`.
        """
        with self._lock:
            self._frames.clear()
            self._page_tenants.clear()

    def _admit(self, page_id: int, data: bytes) -> None:
        if not self.capacity:
            return
        self._frames[page_id] = data
        self._frames.move_to_end(page_id)
        self._shrink()

    def _shrink(self) -> None:
        evicted = 0
        while len(self._frames) > self.capacity:
            page_id, _ = self._frames.popitem(last=False)
            self._page_tenants.pop(page_id, None)
            self.evictions += 1
            evicted += 1
        if REGISTRY.enabled:
            if evicted:
                _POOL_EVICTIONS.inc(evicted, disk=self.disk.name)
            _POOL_FRAMES.set(len(self._frames), disk=self.disk.name)
