"""Shared frame-payload → structured-record codec.

Both disk backends hand back page payloads as buffer-protocol objects —
``bytes`` from the list-backed :class:`~repro.storage.disk.DiskManager`,
read-only ``memoryview`` slices from
:class:`~repro.storage.mmapdisk.MmapDiskManager` — and every reader used
to carry its own ``np.frombuffer`` call, which had already started to
drift between the list and mmap paths.  This module is now the single
entry point: :func:`decode_records` decodes one payload,
:func:`decode_pages` decodes a run of payloads into one structured array
for the vectorized query path — optionally keeping only the records
whose value interval meets a query window (the fused candidate filter).

Decoding is zero-copy where the buffer allows it: ``np.frombuffer``
wraps the payload without copying (the resulting array is read-only for
read-only buffers, which is exactly what query code wants).  Multi-page
runs are materialized into one freshly allocated array — a single copy,
instead of one Python-level loop iteration per record.  A filtered
decode joins the payloads once, views the frames as one
``(pages, records_per_page)`` array, masks there and gathers only the
surviving records — no per-page copy of the whole run first.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def decode_records(payload, dtype: np.dtype, count: int = -1,
                   offset: int = 0) -> np.ndarray:
    """Decode one page payload into a structured array of ``count`` records.

    ``payload`` is any buffer-protocol object (``bytes``, ``memoryview``,
    ``bytearray``); ``count=-1`` decodes every whole record the buffer
    holds past ``offset``.  The returned array aliases the payload
    buffer — zero-copy — and is read-only when the buffer is.
    """
    if count == -1:
        count = (len(payload) - offset) // np.dtype(dtype).itemsize
    return np.frombuffer(payload, dtype=dtype, count=count, offset=offset)


def decode_pages(payloads: Sequence, dtype: np.dtype,
                 counts: Sequence[int],
                 within: tuple[float, float] | None = None) -> np.ndarray:
    """Decode a run of page payloads into one contiguous structured array.

    ``payloads[i]`` holds ``counts[i]`` leading records of ``dtype``.
    A single-page run stays zero-copy (it returns the
    :func:`decode_records` view directly); longer runs allocate one
    output array and copy each page's records into place — no
    per-record Python loop, no intermediate list of arrays.

    ``within=(lo, hi)`` returns only the records whose ``[vmin, vmax]``
    meets ``[lo, hi]``, in page-then-slot order — byte-identical to
    decoding everything and masking afterwards, but with no per-page
    decode copy: the joined payloads are masked in place and only the
    survivors are gathered.  The payloads must then share one length
    (every disk backend serves whole usable pages).  The bounds are
    compared in float64: float32 records vs. a float64 bound would
    otherwise round the bound to float32 (NEP 50), disagreeing with the
    R*-tree's float64 arithmetic.
    """
    if len(payloads) != len(counts):
        raise ValueError(
            f"{len(payloads)} payloads but {len(counts)} record counts")
    if within is not None:
        return _filter_frames(payloads, np.dtype(dtype), counts, *within)
    if not payloads:
        return np.empty(0, dtype=dtype)
    if len(payloads) == 1:
        return decode_records(payloads[0], dtype, counts[0])
    out = np.empty(sum(counts), dtype=dtype)
    pos = 0
    for payload, n in zip(payloads, counts):
        out[pos:pos + n] = decode_records(payload, dtype, n)
        pos += n
    return out


def _filter_frames(payloads: Sequence, dtype: np.dtype,
                   counts: Sequence[int], lo: float,
                   hi: float) -> np.ndarray:
    """The fused decode + interval filter of :func:`decode_pages`."""
    if not payloads:
        return np.empty(0, dtype=dtype)
    size = len(payloads[0])
    if any(len(p) != size for p in payloads):
        raise ValueError("a filtered decode needs equal-length payloads")
    per_frame = size // dtype.itemsize
    counts = np.asarray(counts, dtype=np.int64)
    if counts.max() > per_frame:
        raise ValueError(
            f"a {size}-byte payload holds at most {per_frame} records")
    buf = payloads[0] if len(payloads) == 1 else b"".join(payloads)
    frames = np.ndarray((len(payloads), per_frame), dtype=dtype,
                        buffer=buf, strides=(size, dtype.itemsize))
    mask = ((frames["vmin"].astype(np.float64) <= hi)
            & (frames["vmax"].astype(np.float64) >= lo))
    # Slots past a page's record count are padding (zeros on the tail
    # page), not records: they must never match a window holding 0.
    for page in np.flatnonzero(counts < per_frame):
        mask[page, counts[page]:] = False
    return frames[mask]
