"""Cross-method equivalence: every access path returns the oracle's answer.

The paper compares LinearScan, I-All and I-Hilbert on *performance*; this
suite pins down that they (plus the cost-based planner, the interval
quadtree and the main-memory interval tree) are functionally
interchangeable — each returns exactly the candidate cells and the answer
area of the brute-force :func:`~tests.conftest.reference_query` — on
randomized fractal fields and on the adversarial monotonic field, across
exact, one-sided and interval query variants.  The batch engine is
checked against single-query execution in ``test_core_batch.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    IAllIndex,
    IHilbertIndex,
    IntervalQuadtreeIndex,
    ITreeIndex,
    LinearScanIndex,
    PlannedIndex,
    ValueQuery,
)
from repro.field import DEMField
from repro.synth import fractal_dem_heights, monotonic_field

from .conftest import reference_query

METHODS = [LinearScanIndex, IAllIndex, IHilbertIndex, PlannedIndex,
           IntervalQuadtreeIndex, ITreeIndex]

FIELDS = {
    "fractal-rough": lambda: DEMField(fractal_dem_heights(32, 0.2, seed=3)),
    "fractal-smooth": lambda: DEMField(fractal_dem_heights(32, 0.9, seed=5)),
    "fractal-cropped": lambda: DEMField(fractal_dem_heights(24, 0.5, seed=9)),
    "monotonic": lambda: monotonic_field(16),
}


@pytest.fixture(scope="module", params=sorted(FIELDS), name="indexes")
def _indexes(request):
    """One field, indexed by every access method."""
    field = FIELDS[request.param]()
    return [cls(field) for cls in METHODS]


def queries_for(field) -> list[ValueQuery]:
    """Exact, one-sided and interval queries spread over the value range."""
    rng = np.random.default_rng(hash(field.num_cells) % 2**32)
    vr = field.value_range
    span = vr.hi - vr.lo
    queries = []
    # Exact-match queries, including ones guaranteed to hit a stored value.
    records = field.cell_records()
    queries.append(ValueQuery.exact(float(records["vmin"][0])))
    queries.append(ValueQuery.exact(float(records["vmax"][-1])))
    for _ in range(4):
        queries.append(ValueQuery.exact(vr.lo + rng.random() * span))
    # One-sided queries clamped to the field range.
    for frac in (0.25, 0.5, 0.75):
        queries.append(ValueQuery.at_least(vr.lo + frac * span, vr.hi))
        queries.append(ValueQuery.at_most(vr.lo + frac * span, vr.lo))
    # Random interval queries of varying extent.
    for _ in range(6):
        lo = vr.lo + rng.random() * span
        queries.append(ValueQuery(lo, lo + rng.random() * (vr.hi - lo)))
    # Whole range and an empty (out-of-range) interval.
    queries.append(ValueQuery(vr.lo, vr.hi))
    queries.append(ValueQuery(vr.hi + 1.0, vr.hi + 2.0))
    return queries


def candidate_cells(index, query) -> set[int]:
    records = index._candidates(query.lo, query.hi)[0]
    cells = set(int(c) for c in records["cell_id"])
    assert len(cells) == len(records), "duplicate candidates returned"
    return cells


def test_candidate_sets_identical(indexes):
    field = indexes[0].field
    for query in queries_for(field):
        want, _ = reference_query(field, query.lo, query.hi)
        expected = set(int(c) for c in want["cell_id"])
        for index in indexes:
            assert candidate_cells(index, query) == expected, \
                f"{index.name} disagrees with the oracle on {query}"


def test_areas_identical(indexes):
    field = indexes[0].field
    for query in queries_for(field):
        _, expected = reference_query(field, query.lo, query.hi)
        for index in indexes:
            area = index.query(query, estimate="area").area
            # Same candidate records, possibly summed in a different
            # order: allow only float round-off.
            assert area == pytest.approx(expected, rel=1e-9, abs=1e-9), \
                f"{index.name} area differs from the oracle on {query}"


def test_region_extraction_identical(indexes):
    baseline = indexes[0]
    vr = baseline.field.value_range
    span = vr.hi - vr.lo
    query = ValueQuery(vr.lo + 0.3 * span, vr.lo + 0.45 * span)
    expected = baseline.query(query, estimate="regions")
    expected_cells = sorted(r.cell_id for r in expected.regions)
    for index in indexes[1:]:
        result = index.query(query, estimate="regions")
        assert sorted(r.cell_id for r in result.regions) == expected_cells
        assert result.area == pytest.approx(expected.area, rel=1e-9)
