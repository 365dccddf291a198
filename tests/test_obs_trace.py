"""Tests for the span tracer: nesting, counter attribution, exporters,
and the zero-overhead guarantee of the disabled (null) tracer."""

import json
import tracemalloc

import pytest

from repro.core import (
    BatchQueryEngine,
    IAllIndex,
    IHilbertIndex,
    LinearScanIndex,
    ValueQuery,
)
from repro.obs.export import (
    render_span_tree,
    spans_to_chrome_trace,
    spans_to_jsonl,
    write_trace,
)
from repro.obs.trace import NULL_TRACER, Tracer


@pytest.fixture
def traced_index(smooth_dem):
    index = IHilbertIndex(smooth_dem)
    tracer = Tracer().attach(index)
    return index, tracer


def _query_interval(field, fraction=0.3):
    vr = field.value_range
    span = vr.hi - vr.lo
    lo = vr.lo + 0.3 * span
    return lo, lo + fraction * span


# -- structure ---------------------------------------------------------------

def test_span_tree_nesting(traced_index):
    index, tracer = traced_index
    lo, hi = _query_interval(index.field)
    index.query(ValueQuery(lo, hi))

    assert len(tracer.roots) == 1
    root = tracer.roots[0]
    assert root.name == "query"
    assert root.attrs["method"] == "I-Hilbert"
    names = [child.name for child in root.children]
    assert names == ["filter", "fetch", "estimate"]
    assert all(not c.children for c in root.children)


def test_two_queries_two_roots(traced_index):
    index, tracer = traced_index
    lo, hi = _query_interval(index.field)
    index.query(ValueQuery(lo, hi))
    index.query(ValueQuery(lo, hi))
    assert len(tracer.roots) == 2
    tracer.clear()
    assert tracer.roots == []


def test_linearscan_span_names(smooth_dem):
    index = LinearScanIndex(smooth_dem)
    tracer = Tracer().attach(index)
    lo, hi = _query_interval(smooth_dem)
    index.query(ValueQuery(lo, hi))
    root = tracer.roots[0]
    assert [c.name for c in root.children] == ["fetch", "estimate"]
    assert root.children[0].attrs["path"] == "scan"


def test_iall_span_names(smooth_dem):
    index = IAllIndex(smooth_dem)
    tracer = Tracer().attach(index)
    lo, hi = _query_interval(smooth_dem, fraction=0.1)
    index.query(ValueQuery(lo, hi))
    root = tracer.roots[0]
    assert [c.name for c in root.children] == ["filter", "fetch",
                                               "estimate"]


# -- counter attribution -----------------------------------------------------

def test_self_deltas_partition_query_total(traced_index):
    """Exclusive (self) page-read deltas over the span tree telescope
    to exactly the query's accounted total."""
    index, tracer = traced_index
    lo, hi = _query_interval(index.field)
    index.clear_caches()
    result = index.query(ValueQuery(lo, hi))
    assert result.io.page_reads > 0

    root = tracer.roots[0]
    assert root.io.page_reads == result.io.page_reads
    self_sum = sum(span.self_io.page_reads for span, _ in root.walk())
    assert self_sum == result.io.page_reads
    # Same telescoping for the random/sequential split.
    assert (sum(s.self_io.random_reads for s, _ in root.walk())
            == result.io.random_reads)
    assert (sum(s.self_io.sequential_reads for s, _ in root.walk())
            == result.io.sequential_reads)


def test_batch_span_tree_and_attribution(smooth_dem):
    index = IHilbertIndex(smooth_dem)
    tracer = Tracer().attach(index)
    vr = smooth_dem.value_range
    step = (vr.hi - vr.lo) / 4
    queries = [ValueQuery(vr.lo + step, vr.lo + 2 * step),
               ValueQuery(vr.lo + 1.5 * step, vr.lo + 2.5 * step),
               ValueQuery(vr.hi - step, vr.hi)]
    batch = BatchQueryEngine(index).run(queries)

    root = tracer.roots[0]
    assert root.name == "batch"
    assert root.attrs["queries"] == 3
    assert root.attrs["groups"] == batch.groups
    names = [c.name for c in root.children]
    assert names == ["merge", "worker[0]"]
    worker = root.children[1]
    assert ([c.name for c in worker.children]
            == [f"group[{i}]" for i in range(batch.groups)])
    # Two overlapping queries collapse into the first group.
    assert worker.children[0].attrs["size"] == 2

    self_sum = sum(span.self_io.page_reads for span, _ in root.walk())
    assert self_sum == batch.io.page_reads == root.io.page_reads


def test_pool_counters_recorded(smooth_dem):
    index = IHilbertIndex(smooth_dem, cache_pages=64)
    tracer = Tracer().attach(index)
    lo, hi = _query_interval(smooth_dem)
    index.query(ValueQuery(lo, hi))
    index.query(ValueQuery(lo, hi))  # warm: pure pool hits
    warm = tracer.roots[1]
    assert warm.pool is not None
    assert warm.pool.hits > 0
    assert warm.io.page_reads == 0
    assert warm.io.cache_hits == warm.pool.hits


# -- exporters ---------------------------------------------------------------

def test_render_span_tree_shape(traced_index):
    index, tracer = traced_index
    lo, hi = _query_interval(index.field)
    index.query(ValueQuery(lo, hi))
    text = render_span_tree(tracer)
    lines = text.splitlines()
    assert lines[0].startswith("query")
    assert any(line.startswith("|-- filter") for line in lines)
    assert any(line.startswith("`-- estimate") for line in lines)


def test_chrome_trace_round_trip(traced_index, tmp_path):
    index, tracer = traced_index
    lo, hi = _query_interval(index.field)
    index.clear_caches()
    result = index.query(ValueQuery(lo, hi))

    path = tmp_path / "trace.json"
    count = write_trace(tracer, path)
    doc = json.loads(path.read_text())
    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(events) == count == 4
    for event in events:
        assert event["dur"] >= 0
        assert event["ts"] >= 0
    # Exclusive deltas in args reconstruct the query total exactly.
    assert (sum(e["args"]["page_reads_self"] for e in events)
            == result.io.page_reads)
    root_events = [e for e in events if e["name"] == "query"]
    assert root_events[0]["args"]["page_reads"] == result.io.page_reads


def test_jsonl_export(traced_index, tmp_path):
    index, tracer = traced_index
    lo, hi = _query_interval(index.field)
    index.query(ValueQuery(lo, hi))
    path = tmp_path / "trace.jsonl"
    count = write_trace(tracer, path)
    records = [json.loads(line)
               for line in path.read_text().splitlines()]
    assert len(records) == count
    assert records[0]["name"] == "query" and records[0]["depth"] == 0
    assert {r["name"] for r in records if r["depth"] == 1} == {
        "filter", "fetch", "estimate"}
    assert spans_to_jsonl([]) == ""
    assert spans_to_chrome_trace([])["traceEvents"][0]["ph"] == "M"


def test_cli_trace_flag(tmp_path, capsys):
    """--trace writes Chrome trace JSON whose self deltas sum to the
    query's reported page reads (the acceptance criterion)."""
    import numpy as np

    from repro.cli import main
    from repro.synth import roseburg_like_heights

    heights = tmp_path / "terrain.npy"
    np.save(heights, roseburg_like_heights(cells_per_side=32))
    index_dir = tmp_path / "idx"
    trace_path = tmp_path / "trace.json"
    assert main(["build", str(heights), str(index_dir)]) == 0
    capsys.readouterr()
    assert main(["query", str(index_dir), "250", "300",
                 "--trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    reported = int(out.split("I/O: ")[1].split(" pages")[0])

    doc = json.loads(trace_path.read_text())
    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert sum(e["args"]["page_reads_self"] for e in events) == reported


# -- the disabled path -------------------------------------------------------

def test_default_tracer_is_shared_null(smooth_dem):
    index = IHilbertIndex(smooth_dem)
    other = LinearScanIndex(smooth_dem)
    assert index.tracer is NULL_TRACER
    assert other.tracer is NULL_TRACER
    assert not NULL_TRACER.enabled
    assert NULL_TRACER.span("a") is NULL_TRACER.span("b")


def test_detach_restores_null(traced_index):
    index, tracer = traced_index
    assert index.tracer is tracer
    Tracer.detach(index)
    assert index.tracer is NULL_TRACER


def test_disabled_tracer_identical_io(smooth_dem):
    """Tracing must never perturb the accounted I/O it observes."""
    lo, hi = _query_interval(smooth_dem)

    plain = IHilbertIndex(smooth_dem)
    plain.clear_caches()
    untraced = plain.query(ValueQuery(lo, hi))

    traced_idx = IHilbertIndex(smooth_dem)
    Tracer().attach(traced_idx)
    traced_idx.clear_caches()
    traced = traced_idx.query(ValueQuery(lo, hi))

    assert untraced.io == traced.io
    assert untraced.candidate_count == traced.candidate_count


def test_null_span_allocates_nothing():
    """The disabled hot path reuses one shared span object: entering
    and exiting it must not allocate."""
    for _ in range(8):  # warm up caches/specialization
        with NULL_TRACER.span("warmup"):
            pass
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(256):
            with NULL_TRACER.span("fetch"):
                pass
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after == before
