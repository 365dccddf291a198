"""Cross-method equivalence: the heart of the reproduction.

All four access methods must return identical candidate sets and answer
areas for every query — they differ only in I/O pattern.  LinearScan is
the trivially correct reference.
"""

import numpy as np
import pytest

from repro.core import (
    CostBasedGrouping,
    IAllIndex,
    IHilbertIndex,
    IntervalQuadtreeIndex,
    LinearScanIndex,
    ThresholdGrouping,
    ValueQuery,
)
from repro.core.grouped import GroupedIntervalIndex


def brute_candidates(field, lo, hi):
    records = field.cell_records()
    mask = ((records["vmin"].astype(np.float64) <= hi)
            & (records["vmax"].astype(np.float64) >= lo))
    return set(records["cell_id"][mask].tolist())


def random_queries(field, rng, count=25):
    vr = field.value_range
    span = vr.hi - vr.lo
    out = []
    for _ in range(count):
        lo = vr.lo + rng.random() * span
        hi = min(vr.hi, lo + rng.random() * span * 0.2)
        out.append(ValueQuery(lo, hi))
    # Edge queries.
    out.append(ValueQuery(vr.lo, vr.hi))
    out.append(ValueQuery.exact(vr.lo))
    out.append(ValueQuery.exact(vr.hi))
    out.append(ValueQuery((vr.lo + vr.hi) / 2, (vr.lo + vr.hi) / 2))
    return out


def all_methods(field):
    return [
        LinearScanIndex(field),
        IAllIndex(field),
        IHilbertIndex(field),
        IntervalQuadtreeIndex(field),
    ]


@pytest.mark.parametrize("fixture_name",
                         ["smooth_dem", "rough_dem", "mono_dem",
                          "small_tin"])
def test_methods_agree_on_candidates_and_area(fixture_name, request, rng):
    field = request.getfixturevalue(fixture_name)
    methods = all_methods(field)
    for query in random_queries(field, rng):
        expected = brute_candidates(field, query.lo, query.hi)
        areas = set()
        for method in methods:
            result = method.query(query)
            got = set(int(c) for c in
                      method._candidates(query.lo, query.hi)[0]["cell_id"])
            assert got == expected, (method.name, query)
            assert result.candidate_count == len(expected)
            areas.add(round(result.area, 6))
        assert len(areas) == 1, f"area mismatch at {query}: {areas}"


def test_estimate_modes_are_consistent(smooth_dem):
    index = IHilbertIndex(smooth_dem)
    vr = smooth_dem.value_range
    query = ValueQuery(vr.lo + 0.2 * vr.length, vr.lo + 0.4 * vr.length)
    none = index.query(query, estimate="none")
    area = index.query(query, estimate="area")
    regions = index.query(query, estimate="regions")
    assert none.area is None and none.regions is None
    assert area.regions is None
    assert regions.area == pytest.approx(area.area, rel=1e-4, abs=1e-6)
    assert none.candidate_count == area.candidate_count \
        == regions.candidate_count
    assert regions.regions


def test_unknown_estimate_mode_rejected(mono_dem):
    index = LinearScanIndex(mono_dem)
    with pytest.raises(ValueError):
        index.query(ValueQuery(0.0, 1.0), estimate="bogus")


def test_empty_query_result(smooth_dem):
    index = IHilbertIndex(smooth_dem)
    vr = smooth_dem.value_range
    result = index.query(ValueQuery(vr.hi + 10.0, vr.hi + 20.0))
    assert result.candidate_count == 0
    assert result.area == 0.0


def test_full_range_query_selects_everything(mono_dem):
    for method in all_methods(mono_dem):
        vr = mono_dem.value_range
        result = method.query(ValueQuery(vr.lo, vr.hi))
        assert result.candidate_count == mono_dem.num_cells


def test_linearscan_reads_whole_file_every_time(mono_dem):
    index = LinearScanIndex(mono_dem)
    vr = mono_dem.value_range
    for query in (ValueQuery.exact(vr.lo), ValueQuery(vr.lo, vr.hi)):
        index.clear_caches()
        result = index.query(query)
        assert result.io.page_reads == index.data_pages
        assert result.io.random_reads == 1   # one seek, then streaming


def test_ihilbert_reads_fewer_pages_than_scan():
    # Needs enough pages for filtering to pay off; 64x64 smooth terrain.
    from repro.synth import fractal_dem_heights
    from repro.field import DEMField
    field = DEMField(fractal_dem_heights(64, 0.9, seed=3))
    scan = LinearScanIndex(field)
    ih = IHilbertIndex(field)
    vr = field.value_range
    query = ValueQuery.exact((vr.lo + vr.hi) / 2.0)
    scan.clear_caches()
    ih.clear_caches()
    assert ih.query(query).io.page_reads < scan.query(query).io.page_reads


def test_iall_dynamic_insert_matches_bulk(mono_dem, rng):
    bulk = IAllIndex(mono_dem, bulk=True)
    dyn = IAllIndex(mono_dem, bulk=False)
    for query in random_queries(mono_dem, rng, count=8):
        a = set(int(c) for c in
                bulk._candidates(query.lo, query.hi)[0]["cell_id"])
        b = set(int(c) for c in
                dyn._candidates(query.lo, query.hi)[0]["cell_id"])
        assert a == b


def test_ihilbert_curve_variants_agree(smooth_dem, rng):
    reference = LinearScanIndex(smooth_dem)
    variants = [IHilbertIndex(smooth_dem, curve=c)
                for c in ("hilbert", "zorder", "gray")]
    for query in random_queries(smooth_dem, rng, count=6):
        expected = set(int(c) for c in
                       reference._candidates(query.lo, query.hi)[0]["cell_id"])
        for v in variants:
            got = set(int(c) for c in
                      v._candidates(query.lo, query.hi)[0]["cell_id"])
            assert got == expected, v.curve.name


def test_ihilbert_unknown_curve_rejected(mono_dem):
    with pytest.raises(ValueError):
        IHilbertIndex(mono_dem, curve="peano")


def test_ihilbert_custom_grouping(mono_dem):
    tight = IHilbertIndex(
        mono_dem, grouping=CostBasedGrouping(unit=1.0, avg_query=0.0))
    loose = IHilbertIndex(
        mono_dem, grouping=ThresholdGrouping(threshold=1e9))
    assert tight.num_subfields > loose.num_subfields
    assert loose.num_subfields == 1


def test_subfields_tile_the_store(smooth_dem):
    index = IHilbertIndex(smooth_dem)
    expected = 0
    for sf in index.subfields:
        assert sf.ptr_start == expected
        expected = sf.ptr_end + 1
    assert expected == smooth_dem.num_cells


def test_subfield_intervals_cover_member_cells(smooth_dem):
    index = IHilbertIndex(smooth_dem)
    records = smooth_dem.cell_records()
    stored = records[index.order]
    for sf in index.subfields[:50]:
        block = stored[sf.ptr_start:sf.ptr_end + 1]
        assert float(block["vmin"].min()) == pytest.approx(sf.lo)
        assert float(block["vmax"].max()) == pytest.approx(sf.hi)


def test_describe_reports_structure(smooth_dem):
    info = IHilbertIndex(smooth_dem).describe()
    assert info["method"] == "I-Hilbert"
    assert info["cells"] == smooth_dem.num_cells
    assert info["subfields"] >= 1
    assert info["curve"] == "hilbert"
    assert info["grouping"] == "CostBasedGrouping"
    scan_info = LinearScanIndex(smooth_dem).describe()
    assert scan_info["index_pages"] == 0


def test_iquadtree_threshold_validation(mono_dem):
    with pytest.raises(ValueError):
        IntervalQuadtreeIndex(mono_dem, threshold=-1.0)


def test_iquadtree_tighter_threshold_more_subfields(smooth_dem):
    span = smooth_dem.value_range.length
    loose = IntervalQuadtreeIndex(smooth_dem, threshold=0.5 * span)
    tight = IntervalQuadtreeIndex(smooth_dem, threshold=0.05 * span)
    assert tight.num_subfields > loose.num_subfields


def test_grouped_index_validates_groups(mono_dem):
    n = mono_dem.num_cells
    order = np.arange(n)
    with pytest.raises(ValueError):
        GroupedIntervalIndex(mono_dem, order[:-1], [(0, n - 2)])
    with pytest.raises(ValueError):
        GroupedIntervalIndex(mono_dem, order, [(0, n - 2)])
    with pytest.raises(ValueError):
        GroupedIntervalIndex(mono_dem, order, [(1, n - 1)])
    with pytest.raises(ValueError):
        GroupedIntervalIndex(mono_dem, order, [(0, n - 1), (n, n)])


def test_io_accounting_is_per_query(smooth_dem):
    index = IHilbertIndex(smooth_dem)
    vr = smooth_dem.value_range
    r1 = index.query(ValueQuery.exact((vr.lo + vr.hi) / 2))
    r2 = index.query(ValueQuery.exact((vr.lo + vr.hi) / 2))
    # Same query, cold both times: identical I/O deltas.
    index.clear_caches()
    r3 = index.query(ValueQuery.exact((vr.lo + vr.hi) / 2))
    assert r1.io.page_reads == r3.io.page_reads
    assert r2.io.page_reads == r1.io.page_reads
