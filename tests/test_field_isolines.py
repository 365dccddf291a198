"""Unit tests for isoline extraction."""

import numpy as np
import pytest

from repro.core import IHilbertIndex
from repro.field import (
    DEMField,
    TINField,
    extract_isolines,
    total_length,
    triangle_level_segment,
)
from repro.synth import monotonic_heights

TRI = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]


def test_triangle_level_segment_crossing():
    # value = x over the triangle; level 0.5 crosses two edges.
    piece = triangle_level_segment(TRI, [0.0, 1.0, 0.0], 0.5)
    assert piece is not None
    (x0, _y0), (x1, _y1) = piece
    assert x0 == pytest.approx(0.5)
    assert x1 == pytest.approx(0.5)


def test_triangle_level_segment_outside():
    assert triangle_level_segment(TRI, [0.0, 1.0, 2.0], 3.0) is None
    assert triangle_level_segment(TRI, [0.0, 1.0, 2.0], -1.0) is None


def test_triangle_level_segment_flat_triangle():
    # Flat triangle at the level: an area feature, not a line.
    assert triangle_level_segment(TRI, [1.0, 1.0, 1.0], 1.0) is None


def test_triangle_level_segment_through_vertex():
    # Level passes exactly through one vertex and the opposite edge.
    piece = triangle_level_segment(TRI, [0.0, 2.0, -2.0], 0.0)
    assert piece is not None
    length = np.hypot(piece[0][0] - piece[1][0],
                      piece[0][1] - piece[1][1])
    assert length > 0.0


def test_triangle_level_segment_along_edge():
    # Level equals a constant edge: the edge itself is reported.
    piece = triangle_level_segment(TRI, [1.0, 1.0, 0.0], 1.0)
    assert piece is not None
    assert set(piece) == {(0.0, 0.0), (1.0, 0.0)}


def test_monotonic_isoline_is_antidiagonal():
    field = DEMField(monotonic_heights(16))
    records = field.cell_records()
    level = 16.0
    mask = (records["vmin"] <= level) & (records["vmax"] >= level)
    segments = extract_isolines(DEMField, records[mask], level)
    # x + y = 16 across a 16x16 grid: total length 16·sqrt(2).
    assert total_length(segments) == pytest.approx(16.0 * np.sqrt(2.0))
    for segment in segments:
        for x, y in (segment.start, segment.end):
            assert x + y == pytest.approx(level)


def test_isolines_via_value_index(smooth_dem):
    index = IHilbertIndex(smooth_dem)
    vr = smooth_dem.value_range
    level = (vr.lo + vr.hi) / 2.0
    candidates = index._candidates(level, level)[0]
    segments = extract_isolines(DEMField, candidates, level)
    assert segments
    # Every segment endpoint sits on the level set of the interpolant.
    for segment in segments[:25]:
        for x, y in (segment.start, segment.end):
            value = smooth_dem.value_at(
                min(max(x, 0.0), smooth_dem.cols),
                min(max(y, 0.0), smooth_dem.rows))
            assert value == pytest.approx(level, abs=1e-2)


def test_isolines_on_tin(small_tin):
    records = small_tin.cell_records()
    vr = small_tin.value_range
    level = (vr.lo + vr.hi) / 2.0
    mask = (records["vmin"] <= level) & (records["vmax"] >= level)
    segments = extract_isolines(TINField, records[mask], level)
    assert segments
    assert total_length(segments) > 0.0


def test_segment_length():
    from repro.field import IsolineSegment
    segment = IsolineSegment(0, (0.0, 0.0), (3.0, 4.0))
    assert segment.length == pytest.approx(5.0)
