"""One read path: every access method against the oracle and the pins.

Queries fetch their pages through one batched, fault-aware read path.
On the full matrix of {DEM, TIN} fields × {LinearScan, I-All,
I-Hilbert} methods × {list, mmap} disk backends, every answer must equal
the brute-force :func:`~tests.conftest.reference_query` (same candidate
records, same area) and every query must charge exactly the
:class:`~repro.storage.stats.IOStats` pinned below — page counts,
sequential/random classification, skipped pages, cache hits — cold and
warm.  The pins were recorded from the retired page-at-a-time executor
on this matrix, so they prove the batched path reads exactly what a
per-page loop reads.  Plus hypothesis round-trips of the shared
frame→records codec the batched fetch decodes through.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    IAllIndex,
    IHilbertIndex,
    LinearScanIndex,
    ValueQuery,
)
from repro.field import DEMField
from repro.storage import IOStats, PoolCounters
from repro.storage.codec import decode_pages, decode_records
from repro.synth import fractal_dem_heights, lyon_like

from .conftest import reference_query

METHODS = {
    "LinearScan": LinearScanIndex,
    "I-All": IAllIndex,
    "I-Hilbert": IHilbertIndex,
}

FIELDS = {
    "dem": lambda: DEMField(fractal_dem_heights(24, 0.6, seed=11)),
    "tin": lambda: lyon_like(num_sites=220, seed=7),
}

#: Per-query (page_reads, sequential_reads, random_reads, skipped_pages)
#: of a cold query (caches cleared, counters reset), for each query of
#: :func:`queries_for` in order.  Every other IOStats field is zero.
COLD_IO = {
    ("dem", "I-All"): [
        (10, 4, 6, 0), (9, 4, 5, 0), (10, 4, 6, 0), (6, 2, 4, 0),
        (5, 1, 4, 0), (7, 3, 4, 0), (6, 2, 4, 0), (6, 3, 3, 0), (9, 4, 5, 0),
        (8, 3, 5, 0), (9, 4, 5, 0), (8, 4, 4, 0), (5, 1, 4, 0), (6, 2, 4, 0),
        (4, 1, 3, 0),
    ],
    ("dem", "I-Hilbert"): [
        (6, 4, 2, 0), (5, 3, 2, 0), (6, 4, 2, 0), (5, 3, 2, 1), (3, 1, 2, 0),
        (5, 3, 2, 0), (5, 3, 2, 1), (5, 3, 2, 0), (6, 4, 2, 0), (6, 4, 2, 0),
        (6, 4, 2, 0), (6, 4, 2, 0), (3, 1, 2, 0), (5, 3, 2, 1), (3, 1, 2, 0),
    ],
    ("dem", "LinearScan"): [
        (5, 4, 1, 0), (5, 4, 1, 0), (5, 4, 1, 0), (5, 4, 1, 0), (5, 4, 1, 0),
        (5, 4, 1, 0), (5, 4, 1, 0), (5, 4, 1, 0), (5, 4, 1, 0), (5, 4, 1, 0),
        (5, 4, 1, 0), (5, 4, 1, 0), (5, 4, 1, 0), (5, 4, 1, 0), (5, 4, 1, 0),
    ],
    ("tin", "I-All"): [
        (10, 5, 5, 0), (4, 0, 4, 0), (6, 3, 3, 1), (5, 2, 3, 2), (5, 2, 3, 2),
        (10, 5, 5, 0), (5, 2, 3, 2), (10, 5, 5, 0), (8, 4, 4, 0),
        (6, 3, 3, 1), (8, 4, 4, 0), (6, 3, 3, 1), (5, 2, 3, 2), (5, 2, 3, 2),
        (4, 1, 3, 0),
    ],
    ("tin", "I-Hilbert"): [
        (7, 5, 2, 0), (7, 5, 2, 0), (7, 5, 2, 0), (7, 5, 2, 0), (7, 5, 2, 0),
        (7, 5, 2, 0), (7, 5, 2, 0), (7, 5, 2, 0), (7, 5, 2, 0), (7, 5, 2, 0),
        (7, 5, 2, 0), (7, 5, 2, 0), (7, 5, 2, 0), (7, 5, 2, 0), (7, 5, 2, 0),
    ],
    ("tin", "LinearScan"): [
        (6, 5, 1, 0), (6, 5, 1, 0), (6, 5, 1, 0), (6, 5, 1, 0), (6, 5, 1, 0),
        (6, 5, 1, 0), (6, 5, 1, 0), (6, 5, 1, 0), (6, 5, 1, 0), (6, 5, 1, 0),
        (6, 5, 1, 0), (6, 5, 1, 0), (6, 5, 1, 0), (6, 5, 1, 0), (6, 5, 1, 0),
    ],
}

#: Warm run (``cache_pages=64``, caches never cleared) over the first
#: eight queries: per-query (page_reads, sequential_reads, random_reads,
#: skipped_pages, cache_hits), then the data pool's (hits, misses,
#: evictions) after the run.
WARM_IO = {
    ("dem", "I-All"): (
        [
            (10, 4, 6, 0, 0), (0, 0, 0, 0, 9), (0, 0, 0, 0, 10),
            (0, 0, 0, 0, 6), (0, 0, 0, 0, 5), (0, 0, 0, 0, 7),
            (0, 0, 0, 0, 6), (0, 0, 0, 0, 6),
        ], (26, 5, 0)),
    ("dem", "I-Hilbert"): (
        [
            (6, 4, 2, 0, 0), (0, 0, 0, 0, 5), (0, 0, 0, 0, 6),
            (0, 0, 0, 0, 5), (0, 0, 0, 0, 3), (0, 0, 0, 0, 5),
            (0, 0, 0, 0, 5), (0, 0, 0, 0, 5),
        ], (27, 5, 0)),
    ("dem", "LinearScan"): (
        [
            (5, 4, 1, 0, 0), (0, 0, 0, 0, 5), (0, 0, 0, 0, 5),
            (0, 0, 0, 0, 5), (0, 0, 0, 0, 5), (0, 0, 0, 0, 5),
            (0, 0, 0, 0, 5), (0, 0, 0, 0, 5),
        ], (35, 5, 0)),
    ("tin", "I-All"): (
        [
            (10, 5, 5, 0, 0), (0, 0, 0, 0, 4), (0, 0, 0, 0, 6),
            (0, 0, 0, 0, 5), (0, 0, 0, 0, 5), (0, 0, 0, 0, 10),
            (0, 0, 0, 0, 5), (0, 0, 0, 0, 10),
        ], (26, 6, 0)),
    ("tin", "I-Hilbert"): (
        [
            (7, 5, 2, 0, 0), (0, 0, 0, 0, 7), (0, 0, 0, 0, 7),
            (0, 0, 0, 0, 7), (0, 0, 0, 0, 7), (0, 0, 0, 0, 7),
            (0, 0, 0, 0, 7), (0, 0, 0, 0, 7),
        ], (42, 6, 0)),
    ("tin", "LinearScan"): (
        [
            (6, 5, 1, 0, 0), (0, 0, 0, 0, 6), (0, 0, 0, 0, 6),
            (0, 0, 0, 0, 6), (0, 0, 0, 0, 6), (0, 0, 0, 0, 6),
            (0, 0, 0, 0, 6), (0, 0, 0, 0, 6),
        ], (42, 6, 0)),
}


def queries_for(field) -> list[ValueQuery]:
    """Interval, exact and one-sided queries over the value range."""
    rng = np.random.default_rng(42)
    vr = field.value_range
    span = vr.hi - vr.lo
    queries = [
        ValueQuery(vr.lo, vr.hi),                    # everything
        ValueQuery.exact(float(field.cell_records()["vmin"][0])),
        ValueQuery.at_least(vr.lo + 0.5 * span, vr.hi),
    ]
    for _ in range(12):
        lo = vr.lo + rng.random() * span
        queries.append(ValueQuery(lo, min(vr.hi, lo + rng.random()
                                          * 0.2 * span)))
    return queries


@pytest.fixture(scope="module", params=sorted(FIELDS))
def field(request):
    return FIELDS[request.param]()


def field_name(field) -> str:
    return "dem" if isinstance(field, DEMField) else "tin"


def assert_matches_oracle(index, field, query, result) -> None:
    """Same candidate records and area as the brute-force oracle."""
    want, area = reference_query(field, query.lo, query.hi)
    got = index._candidates(query.lo, query.hi)[0]
    assert result.candidate_count == len(want), query
    assert (np.sort(got, order="cell_id").tobytes()
            == np.sort(want, order="cell_id").tobytes()), query
    assert result.area == pytest.approx(area, rel=1e-9, abs=1e-9), query


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("backend", ["list", "mmap"])
def test_vectorized_equals_scalar(field, method, backend):
    """Cold answers match the oracle; I/O matches the pinned counts."""
    index = METHODS[method](field, disk_backend=backend)
    pinned = COLD_IO[field_name(field), method]
    queries = queries_for(field)
    assert len(pinned) == len(queries)
    for query, (reads, seq, rand, skipped) in zip(queries, pinned):
        index.clear_caches()
        index.stats.reset()
        result = index.query(query)
        assert result.io == IOStats(page_reads=reads,
                                    sequential_reads=seq,
                                    random_reads=rand,
                                    skipped_pages=skipped), query
        assert index.stats == result.io, query
        assert_matches_oracle(index, field, query, result)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_vectorized_equals_scalar_warm_cache(field, method):
    """The batched pool fetch keeps hit/miss accounting at the pins."""
    pinned, pool = WARM_IO[field_name(field), method]
    for backend in ("list", "mmap"):
        index = METHODS[method](field, cache_pages=64,
                                disk_backend=backend)
        for query, (reads, seq, rand, skipped, hits) in zip(
                queries_for(field), pinned):
            result = index.query(query)     # caches deliberately kept
            assert result.io == IOStats(page_reads=reads,
                                        sequential_reads=seq,
                                        random_reads=rand,
                                        skipped_pages=skipped,
                                        cache_hits=hits), query
            want, area = reference_query(field, query.lo, query.hi)
            assert result.candidate_count == len(want), query
            assert result.area == pytest.approx(area, rel=1e-9,
                                                abs=1e-9), query
        assert index.store.pool.counters() == PoolCounters(*pool)


# -- codec round-trips -------------------------------------------------------

RECORD_DTYPE = np.dtype([("vmin", "<f4"), ("vmax", "<f4"),
                         ("cell", "<i8")])


@st.composite
def record_arrays(draw, max_len=64):
    n = draw(st.integers(min_value=0, max_value=max_len))
    arr = np.zeros(n, dtype=RECORD_DTYPE)
    floats = st.floats(allow_nan=False, width=32)
    arr["vmin"] = draw(st.lists(floats, min_size=n, max_size=n))
    arr["vmax"] = draw(st.lists(floats, min_size=n, max_size=n))
    arr["cell"] = draw(st.lists(
        st.integers(min_value=-2**62, max_value=2**62),
        min_size=n, max_size=n))
    return arr


@given(arr=record_arrays())
@settings(max_examples=100, deadline=None)
def test_codec_roundtrip_single_frame(arr):
    """decode_records(tobytes) is the identity (bit-for-bit)."""
    out = decode_records(arr.tobytes(), RECORD_DTYPE, len(arr))
    assert out.dtype == RECORD_DTYPE
    assert out.tobytes() == arr.tobytes()


@given(arrs=st.lists(record_arrays(max_len=16), min_size=0, max_size=8))
@settings(max_examples=100, deadline=None)
def test_codec_roundtrip_multi_frame(arrs):
    """decode_pages over per-page frames equals the concatenation."""
    payloads = [a.tobytes() for a in arrs]
    counts = [len(a) for a in arrs]
    out = decode_pages(payloads, RECORD_DTYPE, counts)
    want = (np.concatenate(arrs) if arrs
            else np.empty(0, dtype=RECORD_DTYPE))
    assert out.tobytes() == want.tobytes()
    assert len(out) == sum(counts)


def test_codec_offset_and_inferred_count():
    arr = np.arange(6, dtype=np.int64)
    raw = b"\x00" * 8 + arr.tobytes()
    out = decode_records(raw, np.int64, offset=8)
    assert out.tolist() == arr.tolist()


def test_codec_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        decode_pages([b""], np.int64, [0, 0])
