"""Zero-copy mmap-backed page storage.

:class:`MmapDiskManager` is a drop-in :class:`~repro.storage.disk
.DiskManager` backend that keeps every frame (16-byte header + payload)
contiguous in one anonymous memory map and hands out **read-only
``memoryview`` slices** of the payload instead of copying page bytes on
every read.  ``np.frombuffer`` accepts those views directly, so record
decoding and R*-tree node deserialization run zero-copy end to end.

Checksums are verified **lazily and in batches**: a page is verified the
first time it is read after being written (or damaged), and the
verification pass covers the whole contiguous run of not-yet-verified
pages around the request in one sweep — vectorized header parsing over a
strided NumPy view plus one CRC traversal of the burst's payload region.
That matches the access pattern the paper's clustered subfields produce
(long sequential bursts) and amortizes the per-read verification cost
the eager list backend pays, without weakening the fault model:

* a page's *verified* flag is set **only** by an actual checksum pass
  over the stored bytes, and every mutation path (``write``, torn
  writes, ``store_frame``, injected bit flips) clears it;
* a batch pass marks the good pages of the burst verified, leaves the
  bad ones unverified, and raises :class:`~repro.storage.faults
  .CorruptPageError` only when the *requested* page is bad — so error
  attribution stays per-read and a damaged page can never be silently
  accepted, no matter which reads surround it.

The backend composes with the whole existing stack: the
:class:`~repro.storage.faults.FaultInjector` hooks, the buffer pool,
snapshots/scrub (``frame_bytes``/``store_frame``), and the
transient-fault retry policy of the shared batched read.

Growth notes: ``mmap.resize`` raises ``BufferError`` while zero-copy
views are exported, so the map grows by allocating a larger anonymous
map and copying; superseded maps are simply dropped — views handed out
earlier keep their (stale but immutable-to-the-reader) snapshot alive
until they are garbage collected, mirroring the immutable ``bytes``
semantics of the list backend.
"""

from __future__ import annotations

import mmap

import numpy as np

from .disk import (_FRAME, _FRAME_MAGIC, CHECKSUM_ALGO, DiskManager,
                   FRAME_VERSION, PAGE_HEADER_SIZE, page_checksum,
                   parse_frame)
from .faults import CorruptPageError

#: NumPy mirror of the frame header struct ``<4sBBHI4x`` — used to parse
#: a whole burst of headers in one strided, zero-copy view.
_HEADER_DTYPE = np.dtype([("magic", "S4"), ("version", "u1"),
                          ("algo", "u1"), ("length", "<u2"),
                          ("crc", "<u4"), ("pad", "V4")])

assert _HEADER_DTYPE.itemsize == PAGE_HEADER_SIZE


class MmapDiskManager(DiskManager):
    """Mmap-backed page file with zero-copy reads and lazy verification.

    Accepts the same constructor arguments as
    :class:`~repro.storage.disk.DiskManager`; only the storage primitives
    differ.  :meth:`read` returns a read-only ``memoryview`` of the
    payload (the list backend returns ``bytes``); both satisfy the
    buffer protocol every consumer uses.
    """

    #: Upper bound on pages checked by one batched verification sweep.
    VERIFY_BURST = 128

    #: Minimum capacity (in pages) of the first mapping.
    _MIN_GROW_PAGES = 256

    def _init_storage(self) -> None:
        self._count = 0
        self._capacity = 0
        self._map: mmap.mmap | None = None
        self._view: memoryview | None = None
        self._ro: memoryview | None = None
        self._verified = bytearray()
        self._zero_frame = _FRAME.pack(
            _FRAME_MAGIC, FRAME_VERSION, CHECKSUM_ALGO, 0,
            self._zero_crc) + self._zero_payload

    @property
    def num_pages(self) -> int:
        """Number of allocated pages."""
        return self._count

    # -- storage primitives --------------------------------------------------

    def _append_pages(self, count: int) -> None:
        if not count:
            return
        new_count = self._count + count
        if new_count > self._capacity:
            self._grow(new_count)
        start = self._count * self.page_size
        self._view[start:start + count * self.page_size] = \
            self._zero_frame * count
        # Fresh pages still verify on first read: flags are only ever
        # set by an actual checksum pass.
        self._verified.extend(b"\x00" * count)
        self._count = new_count

    def _grow(self, needed_pages: int) -> None:
        new_cap = max(needed_pages, self._capacity * 2,
                      self._MIN_GROW_PAGES)
        new_map = mmap.mmap(-1, new_cap * self.page_size)
        if self._count:
            used = self._count * self.page_size
            new_map[:used] = self._map[:used]
        # The superseded map is dropped, not closed: exported zero-copy
        # views may still reference it (see module docstring).
        self._map = new_map
        self._view = memoryview(new_map)
        self._ro = self._view.toreadonly()
        self._capacity = new_cap

    def _store_payload(self, page_id: int, data: bytes, crc: int,
                       length: int) -> None:
        off = page_id * self.page_size
        self._view[off:off + PAGE_HEADER_SIZE] = _FRAME.pack(
            _FRAME_MAGIC, FRAME_VERSION, CHECKSUM_ALGO, length, crc)
        self._view[off + PAGE_HEADER_SIZE:off + self.page_size] = data
        # Never trust the write path's own checksum: a fault injector
        # may have torn the payload after the CRC was computed.
        self._verified[page_id] = 0

    def _payload_view(self, page_id: int) -> memoryview:
        off = page_id * self.page_size + PAGE_HEADER_SIZE
        return self._ro[off:off + self.usable_page_size]

    def page_payload(self, page_id: int) -> memoryview:
        """Stored payload of one page (read-only view), unaccounted."""
        self._check(page_id)
        return self._payload_view(page_id)

    # -- lazy batched verification -------------------------------------------

    def _verified_payload(self, page_id: int) -> memoryview:
        if not self._verified[page_id]:
            self._verify_burst(page_id)
        return self._payload_view(page_id)

    def _verify_burst(self, page_id: int) -> None:
        """Verify the contiguous unverified run starting at ``page_id``.

        Good pages of the run are marked verified; bad ones stay
        unverified (their own reads will raise).  Raises
        :class:`CorruptPageError` only when ``page_id`` itself is bad.
        """
        last = min(self._count - 1, page_id + self.VERIFY_BURST - 1)
        end = page_id
        while end < last and not self._verified[end + 1]:
            end += 1
        n = end - page_id + 1
        ps = self.page_size
        headers = np.ndarray((n,), dtype=_HEADER_DTYPE, buffer=self._ro,
                             offset=page_id * ps, strides=(ps,))
        header_ok = ((headers["magic"] == _FRAME_MAGIC)
                     & (headers["version"] == FRAME_VERSION)
                     & (headers["algo"] == CHECKSUM_ALGO))
        stored_crc = headers["crc"].astype(np.int64)
        ok = header_ok.copy()
        view = self._ro
        ups = self.usable_page_size
        base = page_id * ps + PAGE_HEADER_SIZE
        for k in range(n):
            if ok[k] and page_checksum(
                    view[base + k * ps:base + k * ps + ups]) \
                    != stored_crc[k]:
                ok[k] = False
        for k in range(n):
            if ok[k]:
                self._verified[page_id + k] = 1
        if not ok[0]:
            if not header_ok[0]:
                self._checksum_failed(page_id, "bad frame header")
            self._checksum_failed(page_id)

    # -- framing (snapshots, scrub) ------------------------------------------

    def frame_bytes(self, page_id: int) -> bytes:
        """Full on-disk frame of one page (header + payload)."""
        self._check(page_id)
        off = page_id * self.page_size
        return bytes(self._ro[off:off + self.page_size])

    def store_frame(self, page_id: int, frame: bytes,
                    verify: bool = True) -> None:
        """Install a serialized frame (snapshot load path)."""
        self._check(page_id)
        _length, crc, payload = parse_frame(self.name, page_id, frame,
                                            self.page_size)
        if verify and page_checksum(payload) != crc:
            raise CorruptPageError(self.name, page_id)
        off = page_id * self.page_size
        self._view[off:off + self.page_size] = frame
        # ``verify=True`` was an actual checksum pass over these bytes.
        self._verified[page_id] = 1 if verify else 0

    def verify_page(self, page_id: int) -> bool:
        """Unaccounted checksum check of one page (scrub path)."""
        self._check(page_id)
        off = page_id * self.page_size
        magic, version, algo, _length, crc = _FRAME.unpack_from(
            self._ro, off)
        ok = (magic == _FRAME_MAGIC and version == FRAME_VERSION
              and algo == CHECKSUM_ALGO
              and page_checksum(self._payload_view(page_id)) == crc)
        self._verified[page_id] = 1 if ok else 0
        return ok

    # -- fault-injection internals -------------------------------------------

    def _flip_bit(self, page_id: int, byte_index: int, bit: int) -> None:
        """Flip one stored payload bit in place (bit-rot injection)."""
        off = page_id * self.page_size + PAGE_HEADER_SIZE + byte_index
        self._view[off] = self._view[off] ^ (1 << bit)
        self._verified[page_id] = 0

