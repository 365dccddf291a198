"""Common machinery of the three access methods.

Every method stores the field's cell records in a paged
:class:`~repro.storage.records.RecordStore` and answers a value query in
the paper's two steps: *filter* (produce candidate cell records whose
interval intersects the query) and *estimate* (compute answer regions from
the candidates).  Subclasses only implement the filtering step; storage,
I/O accounting and estimation are shared, which guarantees the comparison
between methods is apples-to-apples.
"""

from __future__ import annotations

import abc
from contextlib import contextmanager
from pathlib import Path
from typing import Literal

import numpy as np

from ..field.base import Field
from ..field.extraction import extract_regions, total_area
from ..obs.metrics import REGISTRY
from ..obs.trace import NULL_TRACER
from ..storage import (DiskManager, FaultInjector, IOStats, MmapDiskManager,
                       PAGE_SIZE, PageFault, RecordStore, RetryPolicy,
                       SimulatedCrash, WAL_CRASH_POINTS, WriteAheadLog)
from .query import QueryResult, ValueQuery

EstimateMode = Literal["none", "area", "regions"]
FaultMode = Literal["raise", "skip"]
#: Either a named built-in backend or a :class:`DiskManager` subclass —
#: the hook custom tiers (e.g. :func:`repro.storage.remote.remote_backend`)
#: plug into.
DiskBackend = Literal["list", "mmap"] | type[DiskManager]
#: What a filtering step returns: the candidate records and the data-page
#: faults it skipped (always empty in raise mode).
Candidates = tuple[np.ndarray, list[PageFault]]

_DISK_BACKENDS = {"list": DiskManager, "mmap": MmapDiskManager}

_QUERIES = REGISTRY.counter(
    "repro_queries_total",
    "Value queries executed, per access method.")
_QUERY_PAGES = REGISTRY.histogram(
    "repro_query_page_reads",
    "Accounted page reads per value query, per access method.")
_QUERY_CANDIDATES = REGISTRY.histogram(
    "repro_query_candidates",
    "Candidate cells produced by the filtering step, per access method.")
_QUERY_DEGRADED = REGISTRY.counter(
    "repro_queries_degraded_total",
    "Queries that skipped unreadable data pages (on_fault='skip'), "
    "per access method.")
_UPDATES = REGISTRY.counter(
    "repro_cell_updates_total",
    "Cell records rewritten by live updates, per access method.")
_MAINT_READS = REGISTRY.counter(
    "repro_maintenance_page_reads_total",
    "Page reads charged to index maintenance (never to queries), "
    "per access method.")
_MAINT_WRITES = REGISTRY.counter(
    "repro_maintenance_page_writes_total",
    "Page writes charged to index maintenance, per access method.")

#: Crash points honoured by :meth:`ValueIndex.update_cells`: the
#: index-level ``pre-wal`` (before anything is durable) and
#: ``wal-appended`` (the batch is acknowledged, no page written yet —
#: the window the WAL exists for), plus the WAL's own internal points.
UPDATE_CRASH_POINTS = ("pre-wal", "wal-appended") + WAL_CRASH_POINTS


def fault_log(on_fault: FaultMode) -> list[PageFault] | None:
    """The list a skip-mode fetch logs its page faults into.

    ``None`` in raise mode: the storage layer then propagates the first
    typed error instead of skipping the page.
    """
    return [] if on_fault == "skip" else None


class ValueIndex(abc.ABC):
    """Base class for field-value access methods.

    Parameters
    ----------
    field:
        The continuous field to index.  Its cell records are copied into
        paged storage at construction; queries run purely from pages.
    cache_pages:
        Buffer-pool capacity for the data file (0 = every access hits the
        simulated disk, the paper's cold setting).
    stats:
        Optional shared I/O counter (a private one is created otherwise).
    page_size:
        Page size of the simulated store (default 4 KiB, the paper's).
    retry_policy:
        When given, every disk this index creates retries transient
        read faults under this policy
        (:class:`~repro.storage.disk.RetryPolicy`).  ``None`` (default)
        lets the first transient fault propagate.
    disk_backend:
        Page-file implementation: ``"list"`` (default) keeps one bytes
        object per page; ``"mmap"`` backs every disk with an anonymous
        memory map and serves zero-copy :class:`memoryview` payloads
        with lazily batch-verified checksums (see
        :class:`~repro.storage.mmapdisk.MmapDiskManager`); or any
        :class:`~repro.storage.disk.DiskManager` subclass.  All honour
        ``retry_policy`` and behave identically under fault injection.
    """

    #: Human-readable method name, as used in the paper's plots.
    name: str = "method"

    def __init__(self, field: Field, cache_pages: int = 0,
                 stats: IOStats | None = None,
                 page_size: int = PAGE_SIZE,
                 retry_policy: RetryPolicy | None = None,
                 disk_backend: DiskBackend = "list") -> None:
        self.field = field
        self.field_type = type(field)
        self.stats = stats if stats is not None else IOStats()
        #: I/O spent maintaining the index under updates — kept apart
        #: from :attr:`stats` so the paper's per-query page counts stay
        #: honest while the field is being written to.
        self.maint_stats = IOStats()
        #: Write-ahead log making update batches durable before any
        #: in-place page write; ``None`` until :meth:`attach_wal`.
        self.wal: WriteAheadLog | None = None
        self._updated = False
        self._stat_cache: dict[int, object] = {}
        #: Span recorder for the query lifecycle; the default no-op
        #: tracer is free — install a real one with ``Tracer.attach``.
        self.tracer = NULL_TRACER
        self.page_size = page_size
        self.retry_policy = retry_policy
        known = (isinstance(disk_backend, str)
                 and disk_backend in _DISK_BACKENDS)
        custom = (isinstance(disk_backend, type)
                  and issubclass(disk_backend, DiskManager))
        if not (known or custom):
            raise ValueError(
                f"disk_backend must be one of {sorted(_DISK_BACKENDS)} "
                f"or a DiskManager subclass, got {disk_backend!r}")
        self.disk_backend = disk_backend
        self.data_disk = self._make_disk("data")
        self.store = RecordStore(self.data_disk, field.record_dtype,
                                 cache_pages=cache_pages)

    def _make_disk(self, name: str) -> DiskManager:
        """Create a page file honouring this index's backend and retry
        policy."""
        cls = _DISK_BACKENDS.get(self.disk_backend, self.disk_backend)
        return cls(stats=self.stats, name=name, page_size=self.page_size,
                   retry_policy=self.retry_policy)

    def inject_faults(self, injector: FaultInjector) -> FaultInjector:
        """Attach a fault injector to every disk this index owns.

        Covers the data file and, for indexed methods, the index file;
        returns the injector for chaining.  Pass ``None`` to detach.
        """
        self.data_disk.fault_injector = injector
        index_disk = getattr(self, "index_disk", None)
        if index_disk is not None:
            index_disk.fault_injector = injector
        return injector

    # -- query pipeline ----------------------------------------------------

    def query(self, query: ValueQuery,
              estimate: EstimateMode = "area",
              on_fault: FaultMode = "raise") -> QueryResult:
        """Run one field value query and return its result.

        ``estimate`` selects the estimation step output: ``"none"`` stops
        after filtering (candidates only), ``"area"`` computes the total
        answer area with the vectorized closed form, ``"regions"``
        additionally materializes exact answer polygons.

        ``on_fault`` selects how storage faults surface.  ``"raise"``
        (default) propagates the typed error
        (:class:`~repro.storage.faults.CorruptPageError` or
        :class:`~repro.storage.faults.TransientIOError`) — the query
        never returns a silently wrong answer.  ``"skip"`` degrades
        gracefully: a *data* page that cannot be read is skipped, the
        fault is reported in ``result.faults``, and the answer is an
        explicit lower bound (``result.degraded`` is True).  Index/tree
        page faults always raise — a damaged index cannot bound what it
        missed.

        With a real tracer installed (see
        :meth:`repro.obs.trace.Tracer.attach`), the run records a
        ``query`` span whose children cover the lifecycle phases
        (``plan``/``filter``/``fetch`` from the method's filtering step,
        ``estimate`` from the estimation step).
        """
        if on_fault not in ("raise", "skip"):
            raise ValueError(
                f"on_fault must be 'raise' or 'skip', got {on_fault!r}")
        tracer = self.tracer
        before = self.stats.snapshot()
        if tracer.enabled:
            with tracer.span("query", {"method": self.name,
                                       "lo": query.lo,
                                       "hi": query.hi}) as span:
                candidates, faults = self._candidates(query.lo, query.hi,
                                                      on_fault)
                with tracer.span("estimate", {"mode": estimate}):
                    result = self._finish(query, candidates, estimate)
                span.attrs["candidates"] = result.candidate_count
                if faults:
                    span.attrs["faults"] = len(faults)
        else:
            candidates, faults = self._candidates(query.lo, query.hi,
                                                  on_fault)
            result = self._finish(query, candidates, estimate)
        result.faults = faults
        result.io = self.stats.diff(before)
        if REGISTRY.enabled:
            _QUERIES.inc(1, method=self.name)
            _QUERY_PAGES.observe(result.io.page_reads, method=self.name)
            _QUERY_CANDIDATES.observe(result.candidate_count,
                                      method=self.name)
            if result.faults:
                _QUERY_DEGRADED.inc(1, method=self.name)
        return result

    def _scan(self, lo: float, hi: float,
              faults: list[PageFault] | None) -> np.ndarray:
        """Whole-store fetch + one interval filter over every frame.

        Reads the store front to back as a single batch (one seek,
        then sequential reads) and evaluates the interval mask over
        every cell at once, on the fetched frames — LinearScan's whole
        access path, and the scan plan of the cost-based planner.
        """
        return self.store.read_pages(0, self.store.num_pages - 1, faults,
                                     within=(lo, hi))

    def _gather_rids(self, rids, faults: list[PageFault] | None
                     ) -> np.ndarray:
        """Fetch the records of scattered record ids, in rid order.

        A realistic executor sorts the rid list so page fetches are
        deduplicated and as sequential as the clustering permits: the
        distinct pages are fetched as one ascending batch, then the
        slots are gathered in one pass.  Records on pages skipped in
        skip mode are left out.
        """
        rids = np.sort(np.asarray(rids, dtype=np.int64))
        per_page = self.store.records_per_page
        pages = rids // per_page
        slots = rids - pages * per_page
        records, upages, offsets = self.store.read_page_set(pages, faults)
        if faults:
            kept = np.isin(pages, upages)
            pages, slots = pages[kept], slots[kept]
        return records[offsets[np.searchsorted(upages, pages)] + slots]

    def _finish(self, query: ValueQuery, candidates: np.ndarray,
                estimate: EstimateMode) -> QueryResult:
        """Estimation step: turn filtered candidates into a result.

        Shared by :meth:`query` and the batch engine, which produces the
        candidate set differently (one fetch per group of overlapping
        queries) but must estimate identically.
        """
        result = QueryResult(query=query,
                             candidate_count=int(len(candidates)))
        if estimate == "area":
            result.area = self.field_type.estimate_area(
                candidates, query.lo, query.hi)
        elif estimate == "regions":
            regions = extract_regions(self.field_type, candidates,
                                      query.lo, query.hi)
            result.regions = regions
            result.area = total_area(regions)
        elif estimate != "none":
            raise ValueError(f"unknown estimate mode: {estimate!r}")
        return result

    def clear_caches(self) -> None:
        """Drop caches and forget disk positions (cold-query setting)."""
        self.store.pool.clear()
        self.data_disk.reset_head()

    def pools(self) -> list:
        """Every buffer pool a query reads through: the data file's and,
        for tree-backed methods, the R*-tree file's."""
        tree = getattr(self, "tree", None)
        return [self.store.pool] + ([tree.pool] if tree is not None else [])

    # -- live updates -------------------------------------------------------

    @contextmanager
    def _maintenance(self):
        """Charge the enclosed I/O to :attr:`maint_stats`, not queries.

        The shared :attr:`stats` counter is snapshotted, the work runs,
        and the delta is moved wholesale to the maintenance counter —
        the same rollback idiom the EXPLAIN metadata scan uses, so
        nested maintenance sections compose (an inner section's delta
        is already gone when the outer one diffs).
        """
        before = self.stats.snapshot()
        try:
            yield
        finally:
            delta = self.stats.diff(before)
            self.stats.restore(before)
            self.maint_stats += delta
            if REGISTRY.enabled:
                if delta.page_reads:
                    _MAINT_READS.inc(delta.page_reads, method=self.name)
                if delta.page_writes:
                    _MAINT_WRITES.inc(delta.page_writes, method=self.name)

    def attach_wal(self, path, replay: bool = False) -> WriteAheadLog:
        """Open (creating if needed) a write-ahead log for this index.

        From here on every :meth:`update_cells` batch is logged and
        fsynced *before* any page is written — the acknowledgment
        point.  An existing log with pending batches is refused unless
        ``replay=True``, in which case they are re-applied first
        (idempotent, so replaying onto an index that already saw them
        is harmless).
        """
        wal = WriteAheadLog(path)
        if wal.pending and not replay:
            wal.close()
            raise ValueError(
                f"{path}: write-ahead log holds {len(wal.pending)} pending "
                f"batches; open with replay=True or checkpoint it first")
        for batch in wal.pending:
            self._apply_update_batch(batch.cell_ids,
                                     batch.decode(self.store.dtype))
        self.wal = wal
        return wal

    def apply_updates(self, vertex_ids, values,
                      crash_point: str | None = None) -> np.ndarray:
        """Ingest new vertex measurements; returns the dirty cell ids.

        The field maps vertices to the cells they touch
        (:meth:`~repro.field.base.Field.apply_updates`), then the dirty
        records flow through :meth:`update_cells`.  Values are absolute
        replacement samples, so applying the same batch to several
        indexes sharing one field object is safe and keeps them equal.
        """
        if self.field is None:
            raise ValueError(
                "index carries no in-memory field (reloaded from disk); "
                "feed it records directly with update_cells()")
        dirty = self.field.apply_updates(vertex_ids, values)
        if len(dirty):
            self.update_cells(dirty, self.field.cell_records()[dirty],
                              crash_point=crash_point)
        return dirty

    def update_cells(self, cell_ids, records,
                     crash_point: str | None = None) -> None:
        """Replace cell records in place, WAL-first when a log is attached.

        Protocol: (1) append the batch to the WAL and fsync — the
        update is now acknowledged; (2) rewrite the data pages and
        migrate index structures, with the I/O charged to
        :attr:`maint_stats`; (3) drop derived statistics so planners
        see the new intervals.  A crash anywhere after (1) is
        recovered by replay on the next load.  ``crash_point`` (tests
        only) aborts at a named step of :data:`UPDATE_CRASH_POINTS`.
        """
        if crash_point is not None and crash_point not in \
                UPDATE_CRASH_POINTS:
            raise ValueError(
                f"unknown crash point {crash_point!r}; expected one of "
                f"{UPDATE_CRASH_POINTS}")
        cell_ids = np.asarray(cell_ids, dtype=np.int64).ravel()
        records = np.asarray(records, dtype=self.store.dtype).ravel()
        if len(cell_ids) != len(records):
            raise ValueError(
                f"{len(cell_ids)} cell ids vs {len(records)} records")
        if len(cell_ids) == 0:
            return
        # Validate before logging: a bad id must fail fast, not poison
        # the WAL and fail again on every replay.
        if cell_ids.min() < 0 or cell_ids.max() >= len(self.store):
            raise IndexError(
                f"cell ids must lie in [0, {len(self.store)}); got "
                f"[{cell_ids.min()}, {cell_ids.max()}]")
        if crash_point == "pre-wal":
            raise SimulatedCrash("pre-wal")
        if self.wal is not None:
            self.wal.append(
                cell_ids, records,
                crash_point=(crash_point
                             if crash_point in WAL_CRASH_POINTS else None))
        if crash_point == "wal-appended":
            raise SimulatedCrash("wal-appended")
        self._apply_update_batch(cell_ids, records)

    def _apply_update_batch(self, cell_ids: np.ndarray,
                            records: np.ndarray) -> None:
        """Apply an already-durable batch (also the WAL replay path)."""
        with self._maintenance():
            self._apply_cell_updates(cell_ids, records)
        self._updated = True
        self._stat_cache.clear()
        if REGISTRY.enabled:
            _UPDATES.inc(len(cell_ids), method=self.name)

    def _apply_cell_updates(self, cell_ids: np.ndarray,
                            records: np.ndarray) -> None:
        """Method-specific page rewrite + index maintenance."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support live updates")

    def checkpoint(self, directory: str | Path) -> None:
        """Persist the index and truncate the WAL (see ``save_index``)."""
        from .persist import save_index
        save_index(self, directory)

    def statistics(self, bins: int = 64):
        """Interval statistics that stay fresh under updates.

        Built from the live field while the index is pristine; after
        the first update the ground truth is the record store, so the
        histogram is recomputed from a metadata scan whose counters
        are rolled back (statistics are planner metadata, not query
        work).  Cached per bin count; invalidated by every update.
        """
        cached = self._stat_cache.get(bins)
        if cached is not None:
            return cached
        from .statistics import FieldStatistics
        if self.field is not None and not self._updated:
            result = FieldStatistics.from_field(self.field, bins=bins)
        else:
            before = self.stats.snapshot()
            block = self.store.read_pages(0, self.store.num_pages - 1)
            self.stats.restore(before)
            self.clear_caches()
            result = FieldStatistics.from_intervals(
                block["vmin"].astype(np.float64),
                block["vmax"].astype(np.float64), bins=bins)
        self._stat_cache[bins] = result
        return result

    def aggregate(self, kind: str, lo: float, hi: float, *,
                  tolerance: float | None = None, mode: str = "exact"):
        """Exact COUNT/SUM/AVG/area over a value interval.

        The generic path filters candidates like a Q2 query and reduces
        them in one vectorized pass.  Model-accelerated modes need the
        per-subfield boundaries of the grouped index
        (:meth:`repro.core.grouped.GroupedIntervalIndex.aggregate`).
        """
        if mode != "exact":
            raise ValueError(
                f"{type(self).__name__} has no aggregate models; only "
                f"mode='exact' is supported (got {mode!r}). Use the "
                f"grouped access method for model/hybrid aggregates.")
        from .aggregate import exact_aggregate
        return exact_aggregate(self, kind, lo, hi)

    # -- introspection ------------------------------------------------------

    @property
    def data_pages(self) -> int:
        """Pages occupied by the cell records."""
        return self.store.num_pages

    @property
    def index_pages(self) -> int:
        """Pages occupied by index structures (0 for a plain scan)."""
        return 0

    def describe(self) -> dict:
        """Build-time summary used by reports and tests."""
        return {
            "method": self.name,
            "cells": len(self.store),
            "data_pages": self.data_pages,
            "index_pages": self.index_pages,
        }

    # -- to implement ---------------------------------------------------------

    @abc.abstractmethod
    def _candidates(self, lo: float, hi: float,
                    on_fault: FaultMode = "raise") -> Candidates:
        """Records of every cell whose value interval intersects [lo, hi].

        Returns ``(records, faults)``: with ``on_fault="skip"`` the
        records of unreadable data pages are left out and their faults
        listed; in raise mode the first typed error propagates and the
        fault list is empty.
        """
