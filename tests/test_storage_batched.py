"""Accounting reference for the batched storage reads.

The batched calls — :meth:`DiskManager.read_many`,
:meth:`BufferPool.read_many`, :meth:`RecordStore.read_pages` and
:meth:`RecordStore.read_page_set` (also with its fused ``within``
filter) — are the only way query code fetches
data pages, so they must be observationally identical to a loop of
per-page :meth:`DiskManager.read` / :meth:`BufferPool.read` /
:meth:`RecordStore.read_page` calls over the same page ids: same
returned bytes, same ``IOStats`` field by field (retries and checksum
failures included), same pool hit/miss/eviction and tenant counters,
same fault-injector event log, and — in skip mode — the same
``PageFault`` list, or the same typed error in raise mode.

Two identical stores (twins) are built per example; one is read through
the batched call, the other through the per-page loop, and their full
observable state is compared afterwards.  The matrix covers the list,
mmap and remote backends × a capacity-0, a fitting and an evicting pool
× no retry and a :class:`RetryPolicy` × no faults, a transient
``read_error`` schedule and a permanent ``bit_flip`` schedule × raise
and skip mode.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.storage import (
    CorruptPageError,
    DiskManager,
    FaultInjector,
    MmapDiskManager,
    PageFault,
    RecordStore,
    RemoteDiskManager,
    RetryPolicy,
    SimulatedObjectStore,
    TransientIOError,
)

DTYPE = np.dtype([("vmin", "<f4"), ("vmax", "<f4"), ("cell_id", "<i4")])
PAGE_SIZE = 16 + 6 * DTYPE.itemsize          # six records per page
NUM_RECORDS = 6 * 11 + 3                     # eleven full pages + a tail
NUM_PAGES = 12
CAPACITIES = {"none": 0, "fits": NUM_PAGES, "evicting": 3}
FAULTS = ("none", "read_error", "bit_flip")
LEVELS = ("disk", "pool", "pages", "set", "within")
#: Query window of the ``within`` level (the fused candidate filter).
WINDOW = (0.25, 0.75)


def _records() -> np.ndarray:
    rng = np.random.default_rng(5)
    recs = np.zeros(NUM_RECORDS, dtype=DTYPE)
    recs["vmin"] = rng.random(NUM_RECORDS)
    recs["vmax"] = recs["vmin"] + rng.random(NUM_RECORDS)
    recs["cell_id"] = np.arange(NUM_RECORDS)
    return recs


def _build(backend, capacity, retry, fault, seed) -> RecordStore:
    kwargs = dict(page_size=PAGE_SIZE,
                  retry_policy=RetryPolicy(max_attempts=3) if retry
                  else None)
    if backend == "remote":
        disk = RemoteDiskManager(store=SimulatedObjectStore(),
                                 cache_pages=3, **kwargs)
    else:
        cls = MmapDiskManager if backend == "mmap" else DiskManager
        disk = cls(**kwargs)
    store = RecordStore(disk, DTYPE, cache_pages=CAPACITIES[capacity])
    store.extend(_records())
    assert store.num_pages == NUM_PAGES
    if fault != "none":
        injector = FaultInjector(seed=seed)
        injector.add(fault, probability=0.3)
        disk.fault_injector = injector
        if backend == "remote" and fault == "read_error":
            disk.store.fail_next_gets([1, 4])
    return store


def _state(store: RecordStore) -> dict:
    """Everything a read can change, in comparable form."""
    disk, pool = store.disk, store.pool
    state = {
        "io": astuple(disk.stats),
        "pool": pool.counters(),
        "tenants": pool.tenant_counters(),
        "residency": pool.tenant_residency(),
        "frames": list(pool._frames),
        "events": (list(disk.fault_injector.events)
                   if disk.fault_injector is not None else []),
        "backoff": disk.simulated_backoff_ms,
        "head": disk._last_read,
    }
    if isinstance(disk, RemoteDiskManager):
        state["remote"] = disk.remote_counters()
        state["store"] = disk.store.counters()
    return state


def _batched(store, level, ids, faults):
    if level == "disk":
        return [bytes(p) for p in store.disk.read_many(ids, faults)]
    if level == "pool":
        return [bytes(p) for p in
                store.pool.read_many(ids, tenant="t", faults=faults)]
    if level == "pages":
        return store.read_pages(ids[0], ids[1], faults).tobytes()
    if level == "within":
        records, upages, _ = store.read_page_set(ids, faults, within=WINDOW)
        return records.tobytes(), upages.tolist()
    records, upages, offsets = store.read_page_set(ids, faults)
    return records.tobytes(), upages.tolist(), offsets.tolist()


def _serial(store, level, ids, faults):
    """The per-page reference loop over the same page ids."""
    if level in ("disk", "pool"):
        read = (store.disk.read if level == "disk"
                else lambda pid: store.pool.read(pid, tenant="t"))
    else:
        read = store.read_page
    if level == "pages":
        ids = range(ids[0], ids[1] + 1)
    elif level in ("set", "within"):
        ids = sorted(set(ids))
    out, kept = [], []
    for pid in ids:
        try:
            data = read(pid)
        except (CorruptPageError, TransientIOError) as exc:
            if faults is None:
                raise
            faults.append(PageFault.from_error(exc))
            continue
        out.append(data)
        kept.append(pid)
    if level in ("disk", "pool"):
        return [bytes(p) for p in out]
    records = (np.concatenate(out) if out
               else np.empty(0, dtype=DTYPE))
    if level == "within":
        lo, hi = WINDOW
        keep = ((records["vmin"].astype(np.float64) <= hi)
                & (records["vmax"].astype(np.float64) >= lo))
        return records[keep].tobytes(), kept
    records = records.tobytes()
    if level == "pages":
        return records
    counts = [len(page) for page in out]
    offsets = np.concatenate([[0], np.cumsum(counts[:-1])]) if counts \
        else np.empty(0)
    return records, kept, [int(o) for o in offsets]


def _run(call, store, level, ids, skip):
    faults = [] if skip else None
    try:
        result = call(store, level, ids, faults)
    except (CorruptPageError, TransientIOError) as exc:
        result = (type(exc), exc.disk, exc.page_id)
    return result, faults


@st.composite
def _ids(draw, level):
    page = st.integers(min_value=0, max_value=NUM_PAGES - 1)
    if level == "pages":
        a, b = draw(page), draw(page)
        return [min(a, b), max(a, b)]
    if level in ("disk", "pool"):
        # Any order, repeats allowed: the disk and pool take raw page ids.
        return draw(st.lists(page, min_size=0, max_size=2 * NUM_PAGES))
    return draw(st.lists(page, min_size=0, max_size=NUM_PAGES))


@st.composite
def _cases(draw):
    level = draw(st.sampled_from(LEVELS))
    return dict(
        backend=draw(st.sampled_from(("list", "mmap", "remote"))),
        capacity=draw(st.sampled_from(sorted(CAPACITIES))),
        retry=draw(st.booleans()),
        fault=draw(st.sampled_from(FAULTS)),
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        skip=draw(st.booleans()),
        level=level,
        warm=draw(st.lists(st.integers(min_value=0,
                                       max_value=NUM_PAGES - 1),
                           max_size=6)),
        ids=draw(_ids(level)),
    )


def _warm(store, pages) -> None:
    """Identical serial pre-traffic on both twins (fills the pools)."""
    for p in pages:
        try:
            store.read_page(p)
        except (CorruptPageError, TransientIOError):
            pass


def _case(**kwargs) -> dict:
    case = dict(backend="list", capacity="fits", retry=False, fault="none",
                seed=0, skip=False, level="pool", warm=[], ids=[])
    case.update(kwargs)
    return case


@given(case=_cases())
@example(case=_case(ids=[1, 1, 2]))              # repeat before a miss
@example(case=_case(capacity="evicting", ids=[0, 1, 2, 3, 0, 4, 1]))
@example(case=_case(capacity="evicting", fault="bit_flip", skip=True,
                    seed=3, ids=[0, 1, 2, 3, 0, 1, 2, 3]))
@settings(max_examples=1000, deadline=None)
def test_batched_reads_match_the_per_page_loop(case):
    twins = []
    for call in (_batched, _serial):
        store = _build(case["backend"], case["capacity"], case["retry"],
                       case["fault"], case["seed"])
        _warm(store, case["warm"])
        if case["level"] in ("disk", "pool"):
            ids = [store.page_ids[p] for p in case["ids"]]
        else:
            ids = case["ids"]
        result, faults = _run(call, store, case["level"], ids,
                              case["skip"])
        twins.append((result, faults, _state(store)))
    (got, got_faults, got_state), (want, want_faults, want_state) = twins
    assert got == want
    assert got_faults == want_faults
    assert got_state == want_state


def test_skip_mode_drops_only_the_unreadable_page():
    store = _build("list", "fits", False, "none", 0)
    bad = store.page_ids[4]
    store.disk._flip_bit(bad, byte_index=0, bit=3)
    faults: list = []
    records = store.read_pages(0, NUM_PAGES - 1, faults)
    assert [f.page_id for f in faults] == [bad]
    assert faults[0].kind == "CorruptPageError"
    assert len(records) == NUM_RECORDS - 6
    assert 4 * 6 not in records["cell_id"]
    # The failed page was never admitted; every survivor was.
    assert bad not in store.pool._frames
    assert len(store.pool) == NUM_PAGES - 1


def test_retry_lives_in_the_batched_read():
    store = _build("mmap", "none", True, "none", 0)
    injector = FaultInjector(seed=0)
    injector.add("read_error", schedule={2, 3})
    store.disk.fault_injector = injector
    records = store.read_pages(0, NUM_PAGES - 1)
    assert len(records) == NUM_RECORDS
    assert store.disk.stats.read_retries == 2
    assert store.disk.stats.page_reads == NUM_PAGES + 2
    assert store.disk.simulated_backoff_ms == 1.0 + 2.0
