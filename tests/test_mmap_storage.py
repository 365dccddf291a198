"""Unit tests for the zero-copy mmap storage backend.

Covers the properties the list backend cannot express: read-only
``memoryview`` payloads, lazy batched checksum verification (good
neighbours verified in one sweep, a damaged page never silently
accepted), and map growth keeping previously exported views alive.
Behavioural parity under faults is covered by the backend-parametrized
``test_storage_faults.py`` matrix.
"""

import numpy as np
import pytest

from repro.storage import (
    CorruptPageError,
    DiskManager,
    FaultInjector,
    MmapDiskManager,
    RetryPolicy,
    TransientIOError,
)


def _disk(page_size=80, **kw):
    return MmapDiskManager(page_size=page_size, **kw)


# -- zero-copy reads ---------------------------------------------------------


def test_read_returns_readonly_memoryview():
    disk = _disk()
    pid = disk.allocate()
    disk.write(pid, b"payload bytes")
    view = disk.read(pid)
    assert isinstance(view, memoryview)
    assert view.readonly
    assert bytes(view[:13]) == b"payload bytes"
    with pytest.raises(TypeError):
        view[0] = 0


def test_payload_matches_list_backend_bit_for_bit():
    mm, ls = _disk(), DiskManager(page_size=80)
    rng = np.random.default_rng(0)
    for _ in range(5):
        data = rng.integers(0, 256, size=40, dtype=np.uint8).tobytes()
        a, b = mm.allocate(), ls.allocate()
        assert a == b
        mm.write(a, data)
        ls.write(b, data)
    for pid in range(5):
        assert bytes(mm.read(pid)) == ls.read(pid)
        assert bytes(mm.page_payload(pid)) == ls.page_payload(pid)
        assert mm.frame_bytes(pid) == ls.frame_bytes(pid)


def test_views_feed_numpy_without_copy():
    disk = _disk(page_size=4096)
    pid = disk.allocate()
    values = np.arange(64, dtype="<f8")
    disk.write(pid, values.tobytes())
    view = disk.read(pid)
    decoded = np.frombuffer(view, dtype="<f8", count=64)
    assert np.array_equal(decoded, values)
    # The array aliases the map — zero copies happened.
    assert decoded.base is not None


def test_fresh_pages_read_as_zeros():
    disk = _disk()
    pid = disk.allocate()
    assert bytes(disk.read(pid)) == b"\x00" * disk.usable_page_size


def test_growth_keeps_existing_data_and_old_views_alive():
    disk = _disk()
    pid = disk.allocate()
    disk.write(pid, b"before growth")
    old_view = disk.read(pid)
    # Force a remap: exceed the current capacity.
    disk.allocate_many(disk._capacity)
    assert bytes(disk.read(pid)[:13]) == b"before growth"
    # The superseded map stays alive behind the exported view.
    assert bytes(old_view[:13]) == b"before growth"
    disk.write(pid, b"after growth!")
    assert bytes(disk.read(pid)[:13]) == b"after growth!"
    assert bytes(old_view[:13]) == b"before growth"


# -- lazy batched verification -----------------------------------------------


def test_corruption_in_a_burst_is_attributed_to_its_page():
    disk = _disk()
    disk.allocate_many(8)
    for pid in range(8):
        disk.write(pid, bytes([pid]) * 16)
    disk._flip_bit(3, byte_index=2, bit=6)
    # Reading page 0 sweeps the whole unverified run 0..7: the good
    # pages verify, the bad one does not, and no error is raised because
    # the *requested* page is fine.
    assert bytes(disk.read(0)[:16]) == bytes([0]) * 16
    assert bytes(disk._verified) == b"\x01\x01\x01\x00\x01\x01\x01\x01"
    # The damaged page itself always raises — lazy batching never
    # silently accepts it, no matter which reads surround it.
    for _ in range(2):
        with pytest.raises(CorruptPageError) as exc:
            disk.read(3)
        assert exc.value.page_id == 3
    assert disk.stats.checksum_failures == 2
    assert bytes(disk.read(4)[:16]) == bytes([4]) * 16


def test_write_clears_the_verified_flag():
    disk = _disk()
    pid = disk.allocate()
    disk.write(pid, b"first")
    disk.read(pid)
    assert disk._verified[pid] == 1
    disk.write(pid, b"second")
    assert disk._verified[pid] == 0
    assert bytes(disk.read(pid)[:6]) == b"second"


def test_burst_is_bounded():
    disk = _disk()
    n = MmapDiskManager.VERIFY_BURST + 10
    disk.allocate_many(n)
    disk.read(0)
    # One sweep verifies at most VERIFY_BURST pages; the tail stays lazy.
    assert sum(disk._verified) == MmapDiskManager.VERIFY_BURST
    disk.read(MmapDiskManager.VERIFY_BURST)
    assert sum(disk._verified) == n


def test_bad_header_is_detected():
    disk = _disk()
    pid = disk.allocate()
    disk.write(pid, b"payload")
    # Smash the frame magic, not the payload.
    disk._view[pid * disk.page_size] = 0xFF
    disk._verified[pid] = 0
    with pytest.raises(CorruptPageError) as exc:
        disk.read(pid)
    assert "header" in str(exc.value)


def test_verify_page_is_an_unaccounted_scrub():
    disk = _disk()
    pid = disk.allocate()
    disk.write(pid, b"scrub me")
    assert disk.verify_page(pid)
    disk._flip_bit(pid, byte_index=0, bit=0)
    assert not disk.verify_page(pid)
    assert disk.stats.page_reads == 0
    assert disk.stats.checksum_failures == 0


def test_store_frame_roundtrip_and_rejection():
    src = _disk()
    pid = src.allocate()
    src.write(pid, b"framed payload")
    frame = src.frame_bytes(pid)

    dst = _disk()
    dst.allocate()
    dst.store_frame(0, frame)
    assert bytes(dst.read(0)[:14]) == b"framed payload"

    bad = bytearray(frame)
    bad[-1] ^= 0x01          # corrupt the payload, keep the header
    with pytest.raises(CorruptPageError):
        dst.store_frame(0, bytes(bad))
    # Unverified install defers detection to the next read.
    dst.store_frame(0, bytes(bad), verify=False)
    with pytest.raises(CorruptPageError):
        dst.read(0)


# -- accounting parity -------------------------------------------------------


def test_stats_match_list_backend_exactly():
    def drive(disk):
        disk.allocate_many(12)
        for pid in range(12):
            disk.write(pid, bytes([pid]) * 8)
        for pid in [0, 1, 2, 7, 8, 11, 3, 4]:   # mixed seq/random
            disk.read(pid)
        return disk.stats

    mm, ls = drive(_disk()), drive(DiskManager(page_size=80))
    assert mm == ls or mm.__dict__ == ls.__dict__
    assert mm.page_reads == ls.page_reads
    assert mm.sequential_reads == ls.sequential_reads
    assert mm.random_reads == ls.random_reads
    assert mm.skipped_pages == ls.skipped_pages
    assert mm.page_writes == ls.page_writes
    assert mm.pages_allocated == ls.pages_allocated


def test_retrying_mmap_disk_cures_transients():
    disk = MmapDiskManager(
        page_size=80, retry_policy=RetryPolicy(max_attempts=3))
    pid = disk.allocate()
    disk.write(pid, b"still here")
    disk.fault_injector = FaultInjector(seed=0)
    disk.fault_injector.add("read_error", max_faults=1)
    assert bytes(disk.read(pid)[:10]) == b"still here"
    assert disk.stats.read_retries == 1
    disk.fault_injector = FaultInjector(seed=0)
    disk.fault_injector.add("read_error")
    with pytest.raises(TransientIOError):
        disk.read(pid)
