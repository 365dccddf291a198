"""Reference test for the fused fetch + interval filter.

``RecordStore.read_pages``/``read_page_set`` and ``decode_pages`` take a
``within=(lo, hi)`` window that evaluates the filtering step's interval
mask on the fetched page frames and copies only the survivors.  The
reference is the unfused path: decode every record, then keep those
whose float64 ``[vmin, vmax]`` meets ``[lo, hi]``.  Both must agree
byte for byte, in records and in order — and a fused store read must
leave exactly the same I/O accounting and fault log as an unfused one.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.storage import (
    CorruptPageError,
    DiskManager,
    FaultInjector,
    MmapDiskManager,
    RecordStore,
    RemoteDiskManager,
    SimulatedObjectStore,
    TransientIOError,
)
from repro.storage.codec import decode_pages

DTYPE = np.dtype([("cell_id", "<u4"), ("vmin", "<f4"), ("vmax", "<f4")])
PER_PAGE = 5
PAGE_SIZE = 16 + PER_PAGE * DTYPE.itemsize + 4   # a few padding bytes


def reference_filter(block: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Records of ``block`` whose ``[vmin, vmax]`` intersects ``[lo, hi]``,
    compared in float64 (the unfused filtering step)."""
    return block[(block["vmin"].astype(np.float64) <= hi)
                 & (block["vmax"].astype(np.float64) >= lo)]


# Values on a coarse grid that includes 0 (the tail page's padding
# reads as vmin = vmax = 0), so windows hit padding, ties and edges.
grid_value = st.integers(-4, 8).map(lambda k: k * 0.5)


@st.composite
def records(draw, min_size=0, max_size=4 * PER_PAGE + 3):
    n = draw(st.integers(min_size, max_size))
    lo = np.array(draw(st.lists(grid_value, min_size=n, max_size=n)),
                  dtype=np.float32)
    width = np.array(draw(st.lists(grid_value.map(abs), min_size=n,
                                   max_size=n)), dtype=np.float32)
    recs = np.zeros(n, dtype=DTYPE)
    recs["cell_id"] = np.arange(1, n + 1)
    recs["vmin"] = lo
    recs["vmax"] = lo + width
    return recs


@st.composite
def windows(draw):
    """Windows on the grid, between adjacent float32 values, or points."""
    kind = draw(st.sampled_from(("grid", "between", "point")))
    if kind == "grid":
        a, b = draw(grid_value), draw(grid_value)
        return min(a, b), max(a, b)
    if kind == "point":
        v = draw(grid_value)
        return v, v
    # A float64 bound strictly between two adjacent float32 values: a
    # float32 comparison would round it onto one of them.
    v = np.float32(draw(grid_value))
    up = float(np.nextafter(v, np.float32(np.inf)))
    mid = (float(v) + up) / 2.0
    side = draw(st.sampled_from(("lo", "hi")))
    return (mid, mid + 1.0) if side == "lo" else (mid - 1.0, mid)


def _frames(recs: np.ndarray, size: int) -> tuple[list[bytes], list[int]]:
    """Zero-padded equal-length page payloads, as every disk serves them."""
    payloads, counts = [], []
    for start in range(0, len(recs), PER_PAGE):
        chunk = recs[start:start + PER_PAGE]
        payloads.append(chunk.tobytes().ljust(size, b"\0"))
        counts.append(len(chunk))
    return payloads, counts


@given(recs=records(), window=windows())
@example(recs=np.zeros(3, dtype=DTYPE), window=(0.0, 0.0))
@example(recs=np.zeros(0, dtype=DTYPE), window=(-1.0, 1.0))
@settings(max_examples=300, deadline=None)
def test_fused_decode_matches_decode_then_mask(recs, window):
    lo, hi = window
    size = PAGE_SIZE - 16
    payloads, counts = _frames(recs, size)
    got = decode_pages(payloads, DTYPE, counts, within=(lo, hi))
    want = reference_filter(decode_pages(payloads, DTYPE, counts), lo, hi)
    assert got.dtype == DTYPE
    assert got.tobytes() == want.tobytes()


def test_partial_tail_padding_never_matches_a_window_holding_zero():
    recs = np.zeros(PER_PAGE + 2, dtype=DTYPE)
    recs["cell_id"] = np.arange(1, len(recs) + 1)
    recs["vmin"], recs["vmax"] = 5.0, 6.0
    payloads, counts = _frames(recs, PAGE_SIZE - 16)
    assert counts == [PER_PAGE, 2]
    assert len(decode_pages(payloads, DTYPE, counts,
                            within=(-1.0, 1.0))) == 0
    hits = decode_pages(payloads, DTYPE, counts, within=(-1.0, 5.0))
    assert hits["cell_id"].tolist() == recs["cell_id"].tolist()


def test_fused_decode_rejects_unequal_payloads():
    recs = np.zeros(2, dtype=DTYPE)
    with pytest.raises(ValueError):
        decode_pages([recs.tobytes(), recs[:1].tobytes()], DTYPE, [2, 1],
                     within=(0.0, 1.0))


def _store(backend: str, recs: np.ndarray, fault: bool,
           seed: int) -> RecordStore:
    if backend == "remote":
        disk = RemoteDiskManager(store=SimulatedObjectStore(),
                                 cache_pages=2, page_size=PAGE_SIZE)
    else:
        cls = MmapDiskManager if backend == "mmap" else DiskManager
        disk = cls(page_size=PAGE_SIZE)
    store = RecordStore(disk, DTYPE, cache_pages=3)
    store.extend(recs)
    if fault:
        injector = FaultInjector(seed=seed)
        injector.add("bit_flip", probability=0.3)
        disk.fault_injector = injector
    return store


def _state(store: RecordStore) -> tuple:
    disk = store.disk
    remote = (disk.remote_counters()
              if isinstance(disk, RemoteDiskManager) else None)
    return (astuple(disk.stats), store.pool.counters(),
            list(store.pool._frames), disk._last_read, remote,
            list(disk.fault_injector.events)
            if disk.fault_injector is not None else [])


def _read(store, level, pages, faults, within):
    """One store read; the unfused reference filters afterwards."""
    try:
        if level == "pages":
            out = store.read_pages(*pages, faults, within=within)
        else:
            out, _, _ = store.read_page_set(pages, faults, within=within)
    except (CorruptPageError, TransientIOError) as exc:
        return (type(exc), exc.page_id)
    return out


@given(recs=records(min_size=1), window=windows(),
       backend=st.sampled_from(("list", "mmap", "remote")),
       level=st.sampled_from(("pages", "set")),
       fault=st.booleans(), skip=st.booleans(),
       seed=st.integers(0, 2**16), data=st.data())
@settings(max_examples=300, deadline=None)
def test_fused_store_reads_match_the_unfused_reference(
        recs, window, backend, level, fault, skip, seed, data):
    n_pages = -(-len(recs) // PER_PAGE)
    page = st.integers(0, n_pages - 1)
    if level == "pages":
        a, b = data.draw(page), data.draw(page)
        pages = (min(a, b), max(a, b))
    else:
        pages = data.draw(st.lists(page, max_size=2 * n_pages))
    twins = []
    for within in (window, None):
        store = _store(backend, recs, fault, seed)
        faults = [] if skip else None
        out = _read(store, level, pages, faults, within)
        if within is None and isinstance(out, np.ndarray):
            out = reference_filter(out, *window)
        if isinstance(out, np.ndarray):
            out = out.tobytes()
        twins.append((out, faults, _state(store)))
    assert twins[0] == twins[1]


def test_fused_page_set_reports_pages_not_offsets():
    recs = np.zeros(2 * PER_PAGE, dtype=DTYPE)
    recs["cell_id"] = np.arange(len(recs))
    store = _store("list", recs, False, 0)
    out, kept, offsets = store.read_page_set([1, 0, 1], within=(0.0, 0.0))
    assert kept.tolist() == [0, 1]
    assert offsets is None
    assert out["cell_id"].tolist() == list(range(len(recs)))
    empty, kept, _ = store.read_page_set([], within=(0.0, 0.0))
    assert len(empty) == 0 and empty.dtype == DTYPE and len(kept) == 0
