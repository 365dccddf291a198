"""End-to-end integration tests across subsystems."""

import numpy as np
import pytest

from repro import (
    DEMField,
    IAllIndex,
    IHilbertIndex,
    LinearScanIndex,
    PointIndex,
    TINField,
    ValueQuery,
    conjunctive_query,
    load_index,
    save_index,
)
from repro.bench import run_experiment, standard_methods
from repro.field import extract_isolines, total_area
from repro.synth import (
    fractal_dem_heights,
    lyon_like,
    value_query_workload,
)


def test_dem_and_equivalent_tin_agree_exactly():
    """A DEM and the TIN of its own triangulation are the same field.

    Splitting every DEM square along its main diagonal and feeding the
    triangles to TINField must reproduce identical candidates and
    answer areas — a strong cross-check of both models and both
    estimation kernels.
    """
    heights = fractal_dem_heights(16, 0.6, seed=21)
    dem = DEMField(heights)
    rows, cols = dem.rows, dem.cols
    points = np.array([(i, j) for j in range(rows + 1)
                       for i in range(cols + 1)], dtype=float)
    values = np.array([heights[j, i] for j in range(rows + 1)
                       for i in range(cols + 1)])

    def vid(i, j):
        return j * (cols + 1) + i

    triangles = []
    for j in range(rows):
        for i in range(cols):
            triangles.append([vid(i, j), vid(i + 1, j), vid(i + 1, j + 1)])
            triangles.append([vid(i, j), vid(i + 1, j + 1), vid(i, j + 1)])
    tin = TINField(points, values, np.array(triangles))

    dem_index = LinearScanIndex(dem)
    tin_index = LinearScanIndex(tin)
    vr = dem.value_range
    rng = np.random.default_rng(2)
    for _ in range(20):
        lo = vr.lo + rng.random() * vr.length
        hi = min(vr.hi, lo + rng.random() * vr.length * 0.2)
        q = ValueQuery(lo, hi)
        a = dem_index.query(q)
        b = tin_index.query(q)
        assert a.area == pytest.approx(b.area, rel=1e-5, abs=1e-6)


def test_full_pipeline_on_tin():
    """Build → index → query → regions → isolines → persist → reload."""
    tin = lyon_like(num_sites=400, seed=5)
    index = IHilbertIndex(tin)
    vr = tin.value_range
    level = vr.lo + 0.6 * vr.length

    result = index.query(ValueQuery(level, level + 2.0),
                         estimate="regions")
    assert result.regions
    assert result.area == pytest.approx(total_area(result.regions))

    candidates = index._candidates(level, level)[0]
    segments = extract_isolines(TINField, candidates, level)
    assert segments

    for segment in segments[:10]:
        mx = (segment.start[0] + segment.end[0]) / 2.0
        my = (segment.start[1] + segment.end[1]) / 2.0
        cell = tin.locate_cell(mx, my)
        if cell >= 0:
            assert tin.value_at(mx, my) == pytest.approx(level, abs=1e-2)


def test_persisted_index_serves_isolines(tmp_path, smooth_dem):
    index = IHilbertIndex(smooth_dem)
    save_index(index, tmp_path / "i")
    back = load_index(tmp_path / "i")
    vr = smooth_dem.value_range
    level = (vr.lo + vr.hi) / 2.0
    a = extract_isolines(DEMField, index._candidates(level, level)[0],
                         level)
    b = extract_isolines(DEMField, back._candidates(level, level)[0],
                         level)
    assert len(a) == len(b)


def test_q1_and_q2_compose(smooth_dem):
    """Find a band, then verify its region centroids through Q1."""
    value_index = IHilbertIndex(smooth_dem)
    point_index = PointIndex(smooth_dem)
    vr = smooth_dem.value_range
    lo = vr.lo + 0.4 * vr.length
    hi = vr.lo + 0.5 * vr.length
    regions = value_index.query(ValueQuery(lo, hi),
                                estimate="regions").regions
    assert regions
    checked = 0
    for region in regions:
        xs = [p[0] for p in region.polygon]
        ys = [p[1] for p in region.polygon]
        cx, cy = sum(xs) / len(xs), sum(ys) / len(ys)
        value = point_index.value_at(cx, cy)
        if value is None:
            continue
        # Region polygons are convex pieces of the band: the centroid
        # must satisfy the predicate (up to float32 record rounding).
        assert lo - 1e-2 <= value <= hi + 1e-2
        checked += 1
        if checked >= 20:
            break
    assert checked > 0


def test_harness_runs_tin_experiment():
    tin = lyon_like(num_sites=300, seed=8)
    result = run_experiment("tin-exp", tin, standard_methods(),
                            qintervals=[0.0, 0.05], queries=4)
    assert len(result.series) == 3
    counts = {s.method: [p.mean_candidates for p in s.points]
              for s in result.series}
    assert counts["LinearScan"] == pytest.approx(counts["I-Hilbert"])


def test_workload_replay_is_exactly_reproducible(smooth_dem):
    index = IAllIndex(smooth_dem)
    queries = value_query_workload(smooth_dem.value_range, 0.02,
                                   count=10, seed=3)
    first = [index.query(q).candidate_count for q in queries]
    second = [index.query(q).candidate_count for q in queries]
    assert first == second


def test_multifield_over_three_methods(smooth_dem, rough_dem):
    """Conjunctions accept heterogeneous index types per field."""
    a = IHilbertIndex(smooth_dem)
    b = LinearScanIndex(rough_dem)
    t_mid = sum(smooth_dem.value_range.as_tuple()) / 2.0
    r_mid = sum(rough_dem.value_range.as_tuple()) / 2.0
    result = conjunctive_query(
        [a, b],
        [(smooth_dem.value_range.lo, t_mid),
         (rough_dem.value_range.lo, r_mid)])
    assert result.common_cells >= 0
    assert result.area >= 0.0


def test_region_areas_never_exceed_candidate_cells(small_tin, rng):
    index = IHilbertIndex(small_tin)
    records = small_tin.cell_records()
    vr = small_tin.value_range
    for _ in range(10):
        lo = vr.lo + rng.random() * vr.length
        hi = min(vr.hi, lo + rng.random() * 3.0)
        result = index.query(ValueQuery(lo, hi), estimate="regions")
        regions = result.regions
        cand_ids = {int(c) for c in
                    index._candidates(lo, hi)[0]["cell_id"]}
        assert {r.cell_id for r in regions} <= cand_ids
        # Total answer area cannot exceed the candidates' total area.
        if cand_ids:
            mask = np.isin(records["cell_id"], list(cand_ids))
            xs = records["xs"][mask].astype(float)
            ys = records["ys"][mask].astype(float)
            cell_area = 0.5 * np.abs(
                (xs[:, 1] - xs[:, 0]) * (ys[:, 2] - ys[:, 0])
                - (xs[:, 2] - xs[:, 0]) * (ys[:, 1] - ys[:, 0])).sum()
            assert result.area <= cell_area + 1e-6
