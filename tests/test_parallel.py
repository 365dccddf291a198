"""Batch engine worker pool: oracle answers, determinism, tracing, faults.

The contract of :class:`~repro.core.batch.BatchQueryEngine` is that the
worker count is *invisible* in every output: answers, per-query I/O
attribution, total page counts and fault semantics must be identical to
the engine's own one-worker run at every worker count, on both storage
backends, and the answers must equal the brute-force
:func:`~tests.conftest.reference_query`.  Only wall time may differ.
"""

import sys

import pytest

from repro.core import (
    BatchQueryEngine,
    BatchResult,
    DeviceModel,
    IAllIndex,
    IHilbertIndex,
    LinearScanIndex,
    ValueQuery,
)
from repro.obs.trace import NULL_TRACER, Tracer
from repro.storage import CorruptPageError, FaultInjector, IOStats
from repro.synth.queries import value_query_workload

from .conftest import reference_query

METHODS = {
    "LinearScan": LinearScanIndex,
    "I-All": IAllIndex,
    "I-Hilbert": IHilbertIndex,
}


def _workload(field, count=12, seed=9):
    """A mixed workload: random bands plus overlapping wide queries."""
    vr = field.value_range
    queries = value_query_workload(vr, 0.1, count=count, seed=seed)
    # Two overlapping wide bands exercise merging without collapsing the
    # whole workload into a single group.
    queries += [ValueQuery(vr.lo, vr.lo + 0.3 * vr.length),
                ValueQuery(vr.lo + 0.25 * vr.length,
                           vr.lo + 0.45 * vr.length)]
    return queries


def _one_worker_reference(index, queries, estimate="area"):
    index.clear_caches()
    index.stats.reset()
    return BatchQueryEngine(index, workers=1, cache_pages=0,
                            merge=True).run(queries, estimate=estimate)


def _record_candidates(index):
    """Capture the candidate records each query is estimated from,
    keyed by the query object's identity."""
    seen = {}
    finish = index._finish

    def spy(query, candidates, estimate):
        seen[id(query)] = candidates
        return finish(query, candidates, estimate)

    index._finish = spy
    return seen


# -- construction ------------------------------------------------------------


def test_rejects_bad_worker_count(smooth_dem):
    index = LinearScanIndex(smooth_dem)
    for workers in (0, -1):
        with pytest.raises(ValueError):
            BatchQueryEngine(index, workers=workers)


def test_rejects_negative_cache_pages(smooth_dem):
    index = LinearScanIndex(smooth_dem)
    with pytest.raises(ValueError):
        BatchQueryEngine(index, workers=4, cache_pages=-1)


def test_rejects_unknown_fault_mode(smooth_dem):
    engine = BatchQueryEngine(LinearScanIndex(smooth_dem), workers=4)
    with pytest.raises(ValueError):
        engine.run(_workload(smooth_dem), on_fault="ignore")


def test_empty_batch(smooth_dem):
    result = BatchQueryEngine(LinearScanIndex(smooth_dem), workers=4).run([])
    assert isinstance(result, BatchResult)
    assert result.results == []
    assert result.workers == 0
    assert result.io == IOStats()


# -- the brute-force oracle --------------------------------------------------


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("merge", [True, False], ids=["merged", "unmerged"])
@pytest.mark.parametrize("workers", [1, 3])
def test_answers_match_reference_query(workers, merge, method, smooth_dem):
    queries = _workload(smooth_dem)
    index = METHODS[method](smooth_dem)
    seen = _record_candidates(index)
    batch = BatchQueryEngine(index, workers=workers, cache_pages=0,
                             merge=merge).run(queries)

    for query, result in zip(queries, batch.results):
        want, area = reference_query(smooth_dem, query.lo, query.hi)
        got = seen[id(query)]
        cells = set(int(c) for c in got["cell_id"])
        assert len(cells) == len(got), "duplicate candidates returned"
        assert cells == set(int(c) for c in want["cell_id"]), query
        assert result.candidate_count == len(want)
        assert result.area == pytest.approx(area, rel=1e-9, abs=1e-9)
    assert sum((r.io for r in batch.results), IOStats()) == batch.io
    assert sum(batch.worker_io, IOStats()) == batch.io
    assert batch.workers == min(workers, batch.groups)


# -- one-worker equivalence --------------------------------------------------


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("method", sorted(METHODS))
def test_matches_serial_engine_exactly(method, workers, smooth_dem):
    queries = _workload(smooth_dem)
    index = METHODS[method](smooth_dem)
    serial = _one_worker_reference(index, queries)

    index.clear_caches()
    index.stats.reset()
    par = BatchQueryEngine(index, workers=workers,
                           cache_pages=0).run(queries)

    assert par.groups == serial.groups
    for s, p in zip(serial.results, par.results):
        assert p.candidate_count == s.candidate_count
        assert p.area == s.area
        assert p.io == s.io
    # Total accounting is byte-identical, not merely close.
    assert par.io == serial.io
    assert sum(par.worker_io, IOStats()) == par.io


@pytest.mark.parametrize("workers", [1, 4])
def test_mmap_backend_matches_serial(workers, smooth_dem):
    queries = _workload(smooth_dem)
    index = IHilbertIndex(smooth_dem, disk_backend="mmap")
    serial = _one_worker_reference(index, queries)

    index.clear_caches()
    index.stats.reset()
    par = BatchQueryEngine(index, workers=workers,
                           cache_pages=0).run(queries)
    assert [r.candidate_count for r in par.results] \
        == [r.candidate_count for r in serial.results]
    assert [r.area for r in par.results] == [r.area for r in serial.results]
    assert par.io == serial.io


def test_unmerged_batches_match_too(smooth_dem):
    queries = _workload(smooth_dem)
    index = IAllIndex(smooth_dem)
    index.clear_caches()
    index.stats.reset()
    serial = BatchQueryEngine(index, workers=1, cache_pages=0,
                              merge=False).run(queries)
    index.clear_caches()
    index.stats.reset()
    par = BatchQueryEngine(index, workers=4, cache_pages=0,
                           merge=False).run(queries)
    assert par.groups == len(queries)
    assert [r.io for r in par.results] == [r.io for r in serial.results]
    assert par.io == serial.io


def test_shared_cache_equivalence(smooth_dem):
    # With a shared buffer pool the ticketed fetch order must reproduce
    # the one-worker cache-hit pattern exactly.
    queries = _workload(smooth_dem)
    index = IHilbertIndex(smooth_dem)
    index.clear_caches()
    index.stats.reset()
    serial = BatchQueryEngine(index, workers=1, cache_pages=64).run(queries)
    assert serial.io.cache_hits > 0

    index.clear_caches()
    index.stats.reset()
    par = BatchQueryEngine(index, workers=4, cache_pages=64).run(queries)
    assert par.io == serial.io
    assert par.pool == serial.pool


def test_worker_count_is_clamped_to_groups(smooth_dem):
    vr = smooth_dem.value_range
    index = LinearScanIndex(smooth_dem)
    par = BatchQueryEngine(index, workers=8).run(
        [ValueQuery(vr.lo, vr.hi)])
    assert par.groups == 1
    assert par.workers == 1
    assert len(par.worker_io) == 1


def test_device_model_converts_io_to_seconds():
    device = DeviceModel(random_read_ms=10.0, sequential_read_ms=1.0,
                         scale=0.5)
    io = IOStats(page_reads=7, random_reads=2, sequential_reads=4,
                 skipped_pages=1)
    assert device.delay_s(io) == pytest.approx((20.0 + 5.0) * 0.5 / 1000)


def test_device_waits_do_not_change_results(smooth_dem):
    queries = _workload(smooth_dem, count=4)
    index = IHilbertIndex(smooth_dem)
    serial = _one_worker_reference(index, queries)
    index.clear_caches()
    index.stats.reset()
    par = BatchQueryEngine(
        index, workers=4, cache_pages=0,
        device=DeviceModel(scale=0.01)).run(queries)
    assert par.io == serial.io
    assert [r.candidate_count for r in par.results] \
        == [r.candidate_count for r in serial.results]
    assert all(w >= 0.0 for w in par.worker_wall_s)


# -- determinism -------------------------------------------------------------


def test_two_runs_are_bit_identical(smooth_dem):
    queries = _workload(smooth_dem)

    def run():
        index = IHilbertIndex(smooth_dem)
        par = BatchQueryEngine(index, workers=4,
                               cache_pages=0).run(queries)
        return ([r.candidate_count for r in par.results],
                [r.area for r in par.results],
                par.io, par.worker_io)

    assert run() == run()


def test_worker_io_is_a_static_partition(smooth_dem):
    # Worker w owns groups g ≡ w (mod workers); its I/O total is a pure
    # function of the workload, never of thread scheduling.
    queries = _workload(smooth_dem)
    index = IAllIndex(smooth_dem)
    first = BatchQueryEngine(index, workers=3,
                             cache_pages=0).run(queries)
    index.clear_caches()
    index.stats.reset()
    second = BatchQueryEngine(index, workers=3,
                              cache_pages=0).run(queries)
    assert first.worker_io == second.worker_io
    assert len(first.worker_io) == first.workers


# -- tracing -----------------------------------------------------------------


def test_span_tree_nests_workers_under_batch(smooth_dem):
    queries = _workload(smooth_dem, count=6)
    index = IHilbertIndex(smooth_dem)
    tracer = Tracer().attach(index)
    try:
        par = BatchQueryEngine(index, workers=2,
                               cache_pages=0).run(queries)
    finally:
        Tracer.detach(index)

    assert [r.name for r in tracer.roots] == ["batch"]
    pspan = tracer.roots[0]
    assert pspan.attrs["workers"] == 2
    names = [c.name for c in pspan.children]
    assert names[0] == "merge"
    assert names[1:] == ["worker[0]", "worker[1]"]
    for w, wspan in enumerate(pspan.children[1:]):
        # Worker spans carry exactly that worker's fetch I/O.
        assert wspan.io == par.worker_io[w]
        owned = [c.name for c in wspan.children]
        assert owned == [f"group[{g}]"
                         for g in range(w, par.groups, par.workers)]
        for gspan in wspan.children:
            assert gspan.io is not None
            assert {"lo", "hi", "size"} <= set(gspan.attrs)
    # Per-group fetch I/O over all workers adds up to the batch total.
    group_io = sum((g.io for w in pspan.children[1:]
                    for g in w.children), IOStats())
    assert group_io == par.io
    # Self I/O telescopes over the whole tree, even with workers
    # reading concurrently.
    self_sum = sum(s.self_io.page_reads for s, _ in pspan.walk())
    assert self_sum == par.io.page_reads == pspan.io.page_reads


def test_traced_attribution_survives_contention(smooth_dem):
    # More workers than cores, switching threads every few microseconds:
    # a span opened between fetches must still never see a sibling's I/O.
    queries = _workload(smooth_dem, count=40, seed=3)
    index = IHilbertIndex(smooth_dem)
    serial = BatchQueryEngine(index, workers=1, cache_pages=0,
                              merge=False).run(queries)
    index.clear_caches()
    index.stats.reset()
    tracer = Tracer().attach(index)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        par = BatchQueryEngine(index, workers=16, cache_pages=0,
                               merge=False).run(queries)
    finally:
        sys.setswitchinterval(interval)
        Tracer.detach(index)

    assert [r.io for r in par.results] == [r.io for r in serial.results]
    root = tracer.roots[0]
    for w, wspan in enumerate(root.children[1:]):
        assert wspan.io == par.worker_io[w]
        for gspan in wspan.children:
            estimates = [c for c in gspan.children if c.name == "estimate"]
            assert all(c.io == IOStats() for c in estimates)
    assert (sum(s.self_io.page_reads for s, _ in root.walk())
            == par.io.page_reads)
    assert (sum(s.self_pool.misses for s, _ in root.walk())
            == par.pool.misses)


def test_index_tracer_is_restored_after_the_batch(smooth_dem):
    index = IHilbertIndex(smooth_dem)
    assert index.tracer is NULL_TRACER
    BatchQueryEngine(index, workers=2).run(_workload(smooth_dem, count=4))
    assert index.tracer is NULL_TRACER

    tracer = Tracer().attach(index)
    try:
        BatchQueryEngine(index, workers=2).run(
            _workload(smooth_dem, count=4))
        assert index.tracer is tracer
    finally:
        Tracer.detach(index)


# -- faults ------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["list", "mmap"])
def test_raise_mode_propagates_the_serial_error(backend, smooth_dem):
    queries = _workload(smooth_dem)
    index = IHilbertIndex(smooth_dem, disk_backend=backend)
    pid = index.store.page_ids[1]
    index.data_disk._flip_bit(pid, byte_index=3, bit=2)

    index.clear_caches()
    with pytest.raises(CorruptPageError) as serial_exc:
        BatchQueryEngine(index, workers=1, cache_pages=0).run(queries)

    index.clear_caches()
    with pytest.raises(CorruptPageError) as par_exc:
        BatchQueryEngine(index, workers=4, cache_pages=0).run(queries)
    # Ticketed fetches fail in group order, so four workers surface
    # exactly the error one worker raised.
    assert par_exc.value.page_id == serial_exc.value.page_id
    assert par_exc.value.disk == serial_exc.value.disk
    # A failed batch leaves the index usable (tracer/fault mode reset).
    assert index.tracer is NULL_TRACER
    index.clear_caches()
    vr = smooth_dem.value_range
    band = ValueQuery(vr.lo, vr.lo + 0.1 * vr.length)
    assert index.query(band).candidate_count >= 0


@pytest.mark.parametrize("workers", [1, 4])
def test_failed_batch_span_tree_still_telescopes(workers, smooth_dem):
    index = IHilbertIndex(smooth_dem)
    index.data_disk._flip_bit(index.store.page_ids[1], byte_index=3, bit=2)
    # Move the shared counters off zero first, so no span can telescope
    # by accident.
    BatchQueryEngine(index).run(_workload(smooth_dem), on_fault="skip")
    index.clear_caches()
    tracer = Tracer().attach(index)
    try:
        with pytest.raises(CorruptPageError):
            BatchQueryEngine(index, workers=workers,
                             cache_pages=0).run(_workload(smooth_dem))
    finally:
        Tracer.detach(index)
    root = tracer.roots[0]
    assert [c.name for c in root.children][1:] \
        == [f"worker[{w}]" for w in range(root.attrs["workers"])]
    self_reads = [s.self_io.page_reads for s, _ in root.walk()]
    assert min(self_reads) >= 0
    assert sum(self_reads) == root.io.page_reads > 0


@pytest.mark.parametrize("backend", ["list", "mmap"])
def test_skip_mode_matches_serial_degradation(backend, smooth_dem):
    queries = _workload(smooth_dem)
    index = IHilbertIndex(smooth_dem, disk_backend=backend)
    pid = index.store.page_ids[1]
    index.data_disk._flip_bit(pid, byte_index=3, bit=2)

    index.clear_caches()
    index.stats.reset()
    serial = BatchQueryEngine(index, workers=1, cache_pages=0).run(
        queries, on_fault="skip")
    index.clear_caches()
    index.stats.reset()
    par = BatchQueryEngine(index, workers=4, cache_pages=0).run(
        queries, on_fault="skip")

    assert [r.degraded for r in par.results] \
        == [r.degraded for r in serial.results]
    assert [[f.page_id for f in r.faults] for r in par.results] \
        == [[f.page_id for f in r.faults] for r in serial.results]
    assert [r.candidate_count for r in par.results] \
        == [r.candidate_count for r in serial.results]
    assert par.io == serial.io
    assert any(r.degraded for r in par.results)


def test_transient_faults_retry_identically(smooth_dem):
    from repro.storage import RetryPolicy
    queries = _workload(smooth_dem)

    def run(workers):
        index = IHilbertIndex(
            smooth_dem, retry_policy=RetryPolicy(max_attempts=5),
            disk_backend="mmap")
        injector = index.inject_faults(FaultInjector(seed=17))
        injector.add("read_error", max_faults=4)
        batch = BatchQueryEngine(index, workers=workers,
                                 cache_pages=0).run(queries)
        return ([r.candidate_count for r in batch.results], batch.io,
                [(e.kind, e.page_id, e.op_index) for e in injector.events])

    serial_out = run(1)
    par_out = run(4)
    # Ticketed fetches keep the injector's op counter on the one-worker
    # schedule, so the same faults hit the same operations.
    assert par_out == serial_out
    assert serial_out[1].read_retries == 4
