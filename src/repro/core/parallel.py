"""Parallel execution of value-query batches across a worker pool.

:class:`ParallelQueryEngine` runs the batch engine's merged query groups
(:func:`~repro.core.batch.merge_queries`) on ``workers`` threads instead
of one loop.  The point is *latency hiding*, not CPU parallelism: on the
simulated device a cold query spends almost all of its wall time waiting
for page reads (8.5 ms per random read, see
:data:`~repro.storage.stats.RANDOM_READ_MS`), and those waits overlap
perfectly across threads.  The optional :class:`DeviceModel` turns the
accounted I/O of each group fetch into a real ``time.sleep`` *outside*
the serialized section, which is exactly the regime a thread pool
over blocking disk reads exploits — the throughput benchmark
(``python -m repro.bench throughput``) measures the effect.

Determinism is non-negotiable: the engine must return byte-identical
answers and identical I/O accounting to the serial
:class:`~repro.core.batch.BatchQueryEngine`.  Three mechanisms deliver
that:

* **Ticketed fetches.**  All page reads happen inside group fetches, and
  :class:`_FetchTickets` serializes the fetches in global group order —
  group ``g`` cannot start reading before group ``g-1`` finished.  The
  shared buffer pools and the shared :class:`~repro.storage.stats.IOStats`
  therefore evolve in exactly the serial order, so page counts,
  sequential/random classification and cache hits are reproduced bit for
  bit.  Only the device waits and the pure-CPU estimation step run
  concurrently.
* **Static group ownership.**  Worker ``w`` owns groups ``g ≡ w (mod
  workers)``, so per-worker I/O totals are a pure function of the
  workload, not of scheduling.
* **Shared-state discipline.**  The index's ``tracer`` attribute is
  only touched while a ticket is held; estimation works on
  candidate-array copies owned by the worker;
  :meth:`~repro.core.base.ValueIndex._finish` is pure CPU.

With a tracer installed, each worker records its own span tree
(``worker[w] → group[g] → filter/fetch/estimate``) and the trees are
grafted under one ``parallel`` span on the caller's tracer, so EXPLAIN
ANALYZE shows per-worker timing.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field

import numpy as np

from ..obs.metrics import REGISTRY
from ..obs.trace import NULL_TRACER, Tracer
from ..storage import IOStats, PoolCounters
from ..storage.stats import RANDOM_READ_MS, SEQUENTIAL_READ_MS
from .base import EstimateMode, FaultMode, ValueIndex
from .batch import (BatchResult, DEFAULT_BATCH_CACHE_PAGES, QueryGroup,
                    merge_queries)
from .query import QueryResult, ValueQuery

_PARALLEL_BATCHES = REGISTRY.counter(
    "repro_parallel_batches_total",
    "Query batches executed by the parallel engine, per access method.")
_PARALLEL_WORKERS = REGISTRY.histogram(
    "repro_parallel_workers",
    "Worker count of each parallel batch, per access method.")


@dataclass(frozen=True)
class DeviceModel:
    """Turns accounted page reads into real wall-time waits.

    The millisecond costs default to the benchmark harness's disk model
    (:data:`~repro.storage.stats.RANDOM_READ_MS` /
    :data:`~repro.storage.stats.SEQUENTIAL_READ_MS`); ``scale`` shrinks
    or stretches the waits uniformly (useful for fast smoke runs).
    Skipped pages were still transferred before their checksum failed,
    so they cost a sequential read — the same convention the harness
    uses.
    """

    random_read_ms: float = RANDOM_READ_MS
    sequential_read_ms: float = SEQUENTIAL_READ_MS
    scale: float = 1.0

    def delay_s(self, io: IOStats) -> float:
        """Simulated device time of ``io``, in seconds."""
        ms = (io.random_reads * self.random_read_ms
              + (io.sequential_reads + io.skipped_pages)
              * self.sequential_read_ms)
        return ms * self.scale / 1000.0


class _Aborted(Exception):
    """Internal: a sibling worker failed; unwind quietly."""


class _FetchTickets:
    """Serializes group fetches in global group order.

    ``acquire(g)`` blocks until every fetch with a smaller ticket has
    released; ``release(g)`` admits ticket ``g + 1``.  A fetch that
    fails calls :meth:`abort` instead of releasing, which wakes every
    waiter with :class:`_Aborted` — since fetches run strictly in ticket
    order, the first recorded error is the error the serial engine
    would have raised.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._next = 0
        self.error: BaseException | None = None

    def acquire(self, ticket: int) -> None:
        with self._cond:
            while self._next != ticket and self.error is None:
                self._cond.wait()
            if self.error is not None:
                raise _Aborted()

    def release(self, ticket: int) -> None:
        with self._cond:
            self._next = ticket + 1
            self._cond.notify_all()

    def abort(self, exc: BaseException) -> None:
        with self._cond:
            if self.error is None:
                self.error = exc
            self._cond.notify_all()


@dataclass
class ParallelResult(BatchResult):
    """A :class:`~repro.core.batch.BatchResult` plus per-worker detail."""

    #: Number of worker threads the batch actually used.
    workers: int = 0
    #: Fetch I/O performed by each worker (index = worker id).  The sum
    #: over workers equals :attr:`io` exactly.
    worker_io: list[IOStats] = dc_field(default_factory=list)
    #: Wall time each worker thread was alive, in seconds.
    worker_wall_s: list[float] = dc_field(default_factory=list)


class ParallelQueryEngine:
    """Executes query batches across a thread pool.

    Parameters
    ----------
    index:
        Any built :class:`~repro.core.base.ValueIndex`.
    workers:
        Worker thread count (>= 1).  The engine never spawns more
        threads than there are groups.
    cache_pages:
        Shared buffer-pool capacity lent to the index for the batch,
        exactly as in :class:`~repro.core.batch.BatchQueryEngine`.
    merge:
        Whether to merge overlapping query intervals before dispatch.
    device:
        Optional :class:`DeviceModel`.  When given, every group fetch is
        followed by a real sleep for its simulated device time, *after*
        the serialized section — the waits overlap across workers.
        ``None`` (default) skips the sleeps, so correctness tests run at
        full speed.
    """

    def __init__(self, index: ValueIndex, workers: int = 4,
                 cache_pages: int = DEFAULT_BATCH_CACHE_PAGES,
                 merge: bool = True,
                 device: DeviceModel | None = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if cache_pages < 0:
            raise ValueError(
                f"cache_pages must be >= 0, got {cache_pages}")
        self.index = index
        self.workers = workers
        self.cache_pages = cache_pages
        self.merge = merge
        self.device = device

    def run(self, queries: Sequence[ValueQuery],
            estimate: EstimateMode = "area",
            on_fault: FaultMode = "raise") -> ParallelResult:
        """Execute a batch across the worker pool.

        Results, per-query I/O attribution and fault semantics are
        identical to :meth:`~repro.core.batch.BatchQueryEngine.run`; the
        extra :class:`ParallelResult` fields report how the work was
        spread over workers.
        """
        if on_fault not in ("raise", "skip"):
            raise ValueError(
                f"on_fault must be 'raise' or 'skip', got {on_fault!r}")
        queries = list(queries)
        if not queries:
            return ParallelResult()
        index = self.index
        tracer = index.tracer
        tree = getattr(index, "tree", None)
        if tree is not None and tree._dirty:
            # Flush once up front so no worker triggers the lazy flush
            # inside a search.
            tree.flush()
        with tracer.span("parallel") as pspan:
            with tracer.span("merge"):
                groups = merge_queries(queries, merge=self.merge)
            n_workers = min(self.workers, len(groups))
            if pspan.enabled:
                pspan.attrs.update(
                    method=index.name, queries=len(queries),
                    groups=len(groups), workers=n_workers,
                    merge=self.merge)
            pools = self._pools()
            saved_caps = [p.capacity for p in pools]
            before_pool = [p.counters() for p in pools]
            before_batch = index.stats.snapshot()
            for pool in pools:
                pool.resize(max(pool.capacity, self.cache_pages))
            results: list[QueryResult | None] = [None] * len(queries)
            tickets = _FetchTickets()
            worker_io = [IOStats() for _ in range(n_workers)]
            worker_wall = [0.0] * n_workers
            worker_tracers = [Tracer() if tracer.enabled else None
                              for _ in range(n_workers)]
            # Workers install their own tracer while holding a ticket;
            # park the index on the null tracer meanwhile.
            index.tracer = NULL_TRACER

            def runner(w: int) -> None:
                t0 = time.perf_counter()
                try:
                    self._worker_loop(w, n_workers, groups, queries,
                                      results, estimate, on_fault,
                                      tickets, worker_tracers[w],
                                      worker_io)
                except _Aborted:
                    pass
                except BaseException as exc:
                    tickets.abort(exc)
                finally:
                    worker_wall[w] = time.perf_counter() - t0

            try:
                threads = [threading.Thread(target=runner, args=(w,),
                                            name=f"repro-worker-{w}")
                           for w in range(n_workers)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                pool_traffic = sum(
                    (p.counters().diff(b)
                     for p, b in zip(pools, before_pool)),
                    PoolCounters())
            finally:
                index.tracer = tracer
                for pool, cap in zip(pools, saved_caps):
                    pool.resize(cap)
            if tickets.error is not None:
                raise tickets.error
            if tracer.enabled:
                for w, wt in enumerate(worker_tracers):
                    for root in wt.roots:
                        root.io = worker_io[w]
                        pspan.children.append(root)
        if REGISTRY.enabled:
            _PARALLEL_BATCHES.inc(1, method=index.name)
            _PARALLEL_WORKERS.observe(n_workers, method=index.name)
        return ParallelResult(results=results,
                              io=index.stats.diff(before_batch),
                              pool=pool_traffic, groups=len(groups),
                              workers=n_workers, worker_io=worker_io,
                              worker_wall_s=worker_wall)

    # -- internals ----------------------------------------------------------

    def _worker_loop(self, w: int, n_workers: int,
                     groups: list[QueryGroup], queries: list[ValueQuery],
                     results: list[QueryResult | None],
                     estimate: EstimateMode, on_fault: FaultMode,
                     tickets: _FetchTickets, wt: Tracer | None,
                     worker_io: list[IOStats]) -> None:
        """Drain the groups worker ``w`` statically owns, in order."""
        if wt is not None:
            # The OS thread id rides along as ``tid`` so the Chrome
            # trace exporter puts each worker on its own Perfetto lane.
            with wt.span(f"worker[{w}]",
                         {"worker": w,
                          "tid": threading.get_native_id()}):
                self._drain(w, n_workers, groups, queries, results,
                            estimate, on_fault, tickets, wt, worker_io)
        else:
            self._drain(w, n_workers, groups, queries, results,
                        estimate, on_fault, tickets, wt, worker_io)

    def _drain(self, w: int, n_workers: int, groups: list[QueryGroup],
               queries: list[ValueQuery],
               results: list[QueryResult | None],
               estimate: EstimateMode, on_fault: FaultMode,
               tickets: _FetchTickets, wt: Tracer | None,
               worker_io: list[IOStats]) -> None:
        for gi in range(w, len(groups), n_workers):
            group = groups[gi]
            if wt is not None:
                with wt.span(f"group[{gi}]",
                             {"lo": group.lo, "hi": group.hi,
                              "size": group.size}) as gspan:
                    fetch_io = self._run_group(gi, group, queries,
                                               results, estimate,
                                               on_fault, tickets, wt)
                    gspan.io = fetch_io
            else:
                fetch_io = self._run_group(gi, group, queries, results,
                                           estimate, on_fault, tickets,
                                           wt)
            worker_io[w] += fetch_io

    def _run_group(self, gi: int, group: QueryGroup,
                   queries: list[ValueQuery],
                   results: list[QueryResult | None],
                   estimate: EstimateMode, on_fault: FaultMode,
                   tickets: _FetchTickets,
                   wt: Tracer | None) -> IOStats:
        """Fetch one group under its ticket, then estimate concurrently.

        Returns the group's fetch I/O (also attributed to the group's
        first member, mirroring the serial engine).
        """
        index = self.index
        tickets.acquire(gi)
        # A failure inside the serialized section must never admit the
        # next ticket: the exception propagates to the worker runner,
        # which aborts every waiter (keeping the first, lowest-ticket
        # error — the one the serial engine would have raised).
        before = index.stats.snapshot()
        if wt is not None:
            index.tracer = wt
        try:
            candidates, group_faults = index._candidates(
                group.lo, group.hi, on_fault)
        finally:
            index.tracer = NULL_TRACER
        fetch_io = index.stats.diff(before)
        tickets.release(gi)
        # Everything below runs concurrently across workers: the
        # simulated device wait and the pure-CPU estimation step.
        if self.device is not None:
            delay = self.device.delay_s(fetch_io)
            if delay > 0.0:
                time.sleep(delay)
        vmin = candidates["vmin"].astype(np.float64)
        vmax = candidates["vmax"].astype(np.float64)
        for ordinal, i in enumerate(group.members):
            q = queries[i]
            mine = candidates[(vmin <= q.hi) & (vmax >= q.lo)]
            if wt is not None:
                with wt.span("estimate", {"mode": estimate, "query": i}):
                    result = index._finish(q, mine, estimate)
            else:
                result = index._finish(q, mine, estimate)
            result.io = fetch_io if ordinal == 0 else IOStats()
            if ordinal == 0:
                result.faults = group_faults
            results[i] = result
        return fetch_io

    def _pools(self):
        """Every buffer pool the index reads through."""
        pools = [self.index.store.pool]
        tree = getattr(self.index, "tree", None)
        if tree is not None:
            pools.append(tree.pool)
        return pools
