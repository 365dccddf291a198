"""Batch execution of value queries with cross-query page caching.

The paper's protocol (§4) issues queries one at a time against a cold
store, so two queries over overlapping value intervals pay the full
random-read penalty twice.  A system serving query traffic can do much
better: collect queries into a batch, sort them on the value axis, merge
overlapping intervals into a single filtering pass each, and run the
whole batch through a shared LRU buffer pool so a page touched by several
queries is read from disk once.

:class:`BatchQueryEngine` implements that executor on top of *any* access
method (:class:`~repro.core.linearscan.LinearScanIndex`,
:class:`~repro.core.iall.IAllIndex`,
:class:`~repro.core.ihilbert.IHilbertIndex`, or the cost-based
:class:`~repro.core.planner.PlannedIndex`): the method keeps doing the
filtering it is built for, the engine decides *what* to filter and keeps
the buffer pool warm across queries.  Per-query answers are exactly the
answers of one-at-a-time execution — a group's candidate superset is
post-filtered per member with the same intersection predicate every
method uses — and per-query :class:`~repro.storage.stats.IOStats` charge
each page to the query that actually read it, so a batch's total I/O
counts shared pages once, not once per query.

:func:`run_sequential` executes the same workload one query at a time
(optionally cold, the paper's setting) and reports the same
:class:`BatchResult` shape, so batched and sequential execution can be
compared directly; ``benchmarks/test_bench_batch.py`` and the
``python -m repro.bench batch`` experiment do exactly that.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field

import numpy as np

from ..obs.metrics import REGISTRY
from ..storage import IOStats, PoolCounters
from .base import EstimateMode, FaultMode, ValueIndex
from .query import QueryResult, ValueQuery

#: Default shared-cache capacity for a batch: 1024 pages = 4 MiB of the
#: paper's 4 KiB pages, a small slice of even a 2002-era server's RAM.
DEFAULT_BATCH_CACHE_PAGES = 1024

_BATCHES = REGISTRY.counter(
    "repro_batches_total",
    "Query batches executed, per access method.")
_BATCH_QUERIES = REGISTRY.counter(
    "repro_batch_queries_total",
    "Queries answered through the batch engine, per access method.")
_GROUP_SIZE = REGISTRY.histogram(
    "repro_batch_group_size",
    "Queries sharing one merged fetch group, per access method.")


@dataclass(frozen=True)
class QueryGroup:
    """A run of value-sorted queries merged into one fetch interval.

    ``members`` are positions into the caller's query list, in ascending
    ``(lo, hi)`` order; the group interval ``[lo, hi]`` is the union of
    the member intervals, so the group's candidate set is a superset of
    every member's.
    """

    lo: float
    hi: float
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of queries sharing this fetch."""
        return len(self.members)


def merge_queries(queries: Sequence[ValueQuery],
                  merge: bool = True) -> list[QueryGroup]:
    """Sort queries on the value axis and merge overlapping intervals.

    With ``merge=False`` every query stays its own group (the engine then
    relies on the shared buffer pool alone); otherwise queries whose
    intervals overlap or touch collapse into one group per connected run,
    the classic interval-union sweep.
    """
    order = sorted(range(len(queries)),
                   key=lambda i: (queries[i].lo, queries[i].hi))
    groups: list[QueryGroup] = []
    for i in order:
        q = queries[i]
        if merge and groups and q.lo <= groups[-1].hi:
            last = groups[-1]
            groups[-1] = QueryGroup(last.lo, max(last.hi, q.hi),
                                    last.members + (i,))
        else:
            groups.append(QueryGroup(q.lo, q.hi, (i,)))
    return groups


@dataclass
class BatchResult:
    """Outcome of one batch of value queries against one access method."""

    #: Per-query results, in the caller's original query order.
    results: list[QueryResult] = dc_field(default_factory=list)
    #: Aggregate I/O of the whole batch (shared pages counted once).
    io: IOStats = dc_field(default_factory=IOStats)
    #: Buffer-pool traffic during the batch, summed over the data-file
    #: and index-file pools.
    pool: PoolCounters = dc_field(default_factory=PoolCounters)
    #: Number of merged fetch groups the batch executed.
    groups: int = 0

    def __len__(self) -> int:
        return len(self.results)

    @property
    def page_reads(self) -> int:
        """Total accounted page reads of the batch."""
        return self.io.page_reads

    @property
    def total_candidates(self) -> int:
        """Sum of per-query candidate counts."""
        return sum(r.candidate_count for r in self.results)


class BatchQueryEngine:
    """Executes batches of value queries against one access method.

    Parameters
    ----------
    index:
        Any built :class:`~repro.core.base.ValueIndex`.  The engine never
        copies its data; it only drives the index's own filtering step
        and (temporarily) enlarges its buffer pools.
    cache_pages:
        Shared buffer-pool capacity lent to the index for the duration of
        a batch.  The index's own configured capacity is never reduced;
        the effective capacity is the maximum of both.  After the batch
        the original capacity is restored (evicting what no longer fits),
        so single-query behaviour is unchanged.
    merge:
        Whether to merge overlapping query intervals into one filtering
        pass per connected run (default).  Disable to measure the effect
        of the shared cache alone.
    """

    def __init__(self, index: ValueIndex,
                 cache_pages: int = DEFAULT_BATCH_CACHE_PAGES,
                 merge: bool = True) -> None:
        if cache_pages < 0:
            raise ValueError(
                f"cache_pages must be >= 0, got {cache_pages}")
        self.index = index
        self.cache_pages = cache_pages
        self.merge = merge

    def run(self, queries: Sequence[ValueQuery],
            estimate: EstimateMode = "area",
            on_fault: FaultMode = "raise") -> BatchResult:
        """Execute a batch and return per-query + aggregate results.

        Results come back in the caller's query order regardless of the
        execution order.  Each group's fetch I/O is attributed to the
        group's first member; later members of the group are answered
        from the in-memory candidate superset and report zero I/O —
        which is precisely the amortization the batch buys.

        ``on_fault`` follows :meth:`~repro.core.base.ValueIndex.query`:
        with ``"skip"``, data pages that cannot be read are dropped from
        the group's fetch and the surviving faults are attached to the
        group's first member (the query that performed the I/O).
        """
        if on_fault not in ("raise", "skip"):
            raise ValueError(
                f"on_fault must be 'raise' or 'skip', got {on_fault!r}")
        queries = list(queries)
        if not queries:
            return BatchResult()
        tracer = self.index.tracer
        with tracer.span("batch") as batch_span:
            with tracer.span("merge"):
                groups = merge_queries(queries, merge=self.merge)
            if batch_span.enabled:
                batch_span.attrs["method"] = self.index.name
                batch_span.attrs["queries"] = len(queries)
                batch_span.attrs["groups"] = len(groups)
                batch_span.attrs["merge"] = self.merge
            pools = self._pools()
            saved_caps = [p.capacity for p in pools]
            before_pool = [p.counters() for p in pools]
            before_batch = self.index.stats.snapshot()
            for pool in pools:
                pool.resize(max(pool.capacity, self.cache_pages))
            results: list[QueryResult | None] = [None] * len(queries)
            try:
                if tracer.enabled:
                    for gi, group in enumerate(groups):
                        with tracer.span(f"group[{gi}]",
                                         {"lo": group.lo, "hi": group.hi,
                                          "size": group.size}):
                            self._run_group(group, queries, results,
                                            estimate, on_fault)
                else:
                    for group in groups:
                        self._run_group(group, queries, results, estimate,
                                        on_fault)
                pool_traffic = sum(
                    (p.counters().diff(b)
                     for p, b in zip(pools, before_pool)),
                    PoolCounters())
            finally:
                for pool, cap in zip(pools, saved_caps):
                    pool.resize(cap)
        if REGISTRY.enabled:
            method = self.index.name
            _BATCHES.inc(1, method=method)
            _BATCH_QUERIES.inc(len(queries), method=method)
            for group in groups:
                _GROUP_SIZE.observe(group.size, method=method)
        return BatchResult(results=results,
                           io=self.index.stats.diff(before_batch),
                           pool=pool_traffic, groups=len(groups))

    # -- internals ----------------------------------------------------------

    def _run_group(self, group: QueryGroup, queries: list[ValueQuery],
                   results: list[QueryResult | None],
                   estimate: EstimateMode,
                   on_fault: FaultMode = "raise") -> None:
        """One filtering pass over the group's union interval."""
        tracer = self.index.tracer
        before = self.index.stats.snapshot()
        candidates, group_faults = self.index._candidates(
            group.lo, group.hi, on_fault)
        fetch_io = self.index.stats.diff(before)
        # Candidate records of a member query are exactly the union
        # candidates intersecting its own interval: the same predicate
        # every access method's filtering step applies, evaluated in
        # float64 to match their arithmetic.
        vmin = candidates["vmin"].astype(np.float64)
        vmax = candidates["vmax"].astype(np.float64)
        for ordinal, i in enumerate(group.members):
            q = queries[i]
            mine = candidates[(vmin <= q.hi) & (vmax >= q.lo)]
            if tracer.enabled:
                with tracer.span("estimate", {"mode": estimate,
                                              "query": i}):
                    result = self.index._finish(q, mine, estimate)
            else:
                result = self.index._finish(q, mine, estimate)
            result.io = fetch_io if ordinal == 0 else IOStats()
            if ordinal == 0:
                # Faults belong to the member that performed the fetch,
                # mirroring the I/O attribution above.
                result.faults = group_faults
            results[i] = result

    def _pools(self):
        """Every buffer pool the index reads through (data + index file)."""
        pools = [self.index.store.pool]
        tree = getattr(self.index, "tree", None)
        if tree is not None:
            pools.append(tree.pool)
        return pools


def run_sequential(index: ValueIndex, queries: Sequence[ValueQuery],
                   estimate: EstimateMode = "area",
                   cold: bool = True) -> BatchResult:
    """Run the same workload one query at a time (the baseline).

    ``cold=True`` drops caches before every query — the paper's §4
    protocol and the natural contrast to :meth:`BatchQueryEngine.run`.
    """
    queries = list(queries)
    pools = [index.store.pool]
    tree = getattr(index, "tree", None)
    if tree is not None:
        pools.append(tree.pool)
    before_pool = [p.counters() for p in pools]
    before = index.stats.snapshot()
    results = []
    for query in queries:
        if cold:
            index.clear_caches()
        results.append(index.query(query, estimate=estimate))
    pool_traffic = sum(
        (p.counters().diff(b) for p, b in zip(pools, before_pool)),
        PoolCounters())
    return BatchResult(results=results, io=index.stats.diff(before),
                       pool=pool_traffic, groups=len(queries))
