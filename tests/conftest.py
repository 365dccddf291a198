"""Shared fixtures (small deterministic fields of every kind) and the
brute-force answer oracle every equivalence test compares against."""

from __future__ import annotations

import numpy as np
import pytest

from repro.field import DEMField, TINField
from repro.synth import fractal_dem_heights, monotonic_heights


#: The DEM of paper Fig. 1 / Fig. 5 (3×3 cells, values 40..120).
PAPER_FIG1_HEIGHTS = np.array([
    [40.0, 48.0, 56.0, 80.0],
    [50.0, 60.0, 90.0, 84.0],
    [80.0, 80.0, 110.0, 120.0],
    [64.0, 74.0, 110.0, 88.0],
])


def reference_query(field, lo: float, hi: float) -> tuple[np.ndarray, float]:
    """Brute-force answer to the value query ``[lo, hi]``.

    A float64 interval mask over every cell record of ``field`` — no
    index, no paged storage — followed by the field's §3.2 area
    estimate.  Returns ``(candidate records in cell order, area)``.
    """
    records = field.cell_records()
    mask = ((records["vmin"].astype(np.float64) <= hi)
            & (records["vmax"].astype(np.float64) >= lo))
    candidates = records[mask]
    return candidates, type(field).estimate_area(candidates, lo, hi)


@pytest.fixture
def paper_dem() -> DEMField:
    """The 3×3-cell continuous DEM from paper Fig. 1."""
    return DEMField(PAPER_FIG1_HEIGHTS.copy())


@pytest.fixture
def smooth_dem() -> DEMField:
    """A 32×32 smooth fractal DEM (H=0.9)."""
    return DEMField(fractal_dem_heights(32, 0.9, seed=7))


@pytest.fixture
def rough_dem() -> DEMField:
    """A 32×32 rough fractal DEM (H=0.2)."""
    return DEMField(fractal_dem_heights(32, 0.2, seed=7))


@pytest.fixture
def mono_dem() -> DEMField:
    """A 16×16 monotonic DEM (w = x + y)."""
    return DEMField(monotonic_heights(16))


@pytest.fixture
def small_tin() -> TINField:
    """A ~200-triangle TIN over random sites with a smooth value field."""
    rng = np.random.default_rng(11)
    points = rng.uniform(0.0, 100.0, size=(120, 2))
    values = (np.sin(points[:, 0] / 20.0) * 10.0
              + points[:, 1] * 0.3 + 50.0)
    return TINField(points, values)


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for per-test randomness."""
    return np.random.default_rng(12345)
