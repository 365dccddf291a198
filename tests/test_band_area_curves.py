"""Reference tests for the band-area curve overrides.

``DEMField.band_area_curves`` and ``TINField.band_area_curves`` are the
fast paths the aggregate models are fitted on.  The generic
``Field.band_area_curves`` — one ``estimate_area`` call per threshold —
is the oracle: both overrides must reproduce its ``area_le`` and
``area_lt`` curves and its total to float rounding, on flat cells,
thresholds sitting exactly on corner values, thresholds outside the
value domain, and one-cell and empty blocks.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.field import (DEM_RECORD_DTYPE, TIN_RECORD_DTYPE, DEMField,
                         TINField, interpolation)
from repro.synth import fractal_dem_heights

#: A small value alphabet so that flat cells, shared corners and
#: thresholds equal to corner values all occur often.
VALUES = st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.25, 7.0])
FREE_VALUE = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
CORNER = st.one_of(VALUES, FREE_VALUE)
COORD = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)


def dem_records(corners: np.ndarray) -> np.ndarray:
    corners = np.asarray(corners, dtype=np.float32).reshape(-1, 4)
    records = np.zeros(len(corners), dtype=DEM_RECORD_DTYPE)
    records["cell_id"] = np.arange(len(corners))
    records["corners"] = corners
    records["vmin"] = corners.min(axis=1)
    records["vmax"] = corners.max(axis=1)
    return records


def tin_records(xs, ys, vs) -> np.ndarray:
    vs = np.asarray(vs, dtype=np.float32).reshape(-1, 3)
    records = np.zeros(len(vs), dtype=TIN_RECORD_DTYPE)
    records["cell_id"] = np.arange(len(vs))
    records["xs"] = np.asarray(xs, dtype=np.float32).reshape(-1, 3)
    records["ys"] = np.asarray(ys, dtype=np.float32).reshape(-1, 3)
    records["vs"] = vs
    records["vmin"] = vs.min(axis=1)
    records["vmax"] = vs.max(axis=1)
    return records


def triangles_and_weights(field_type, records):
    """``(n_tri, 3)`` vertex values and per-triangle area weights."""
    if field_type is DEMField:
        c = records["corners"].astype(np.float64)
        tris = np.concatenate([c[:, [0, 1, 2]], c[:, [0, 2, 3]]])
        return tris, np.full(len(tris), 0.5)
    xs = records["xs"].astype(np.float64)
    ys = records["ys"].astype(np.float64)
    area = 0.5 * np.abs((xs[:, 1] - xs[:, 0]) * (ys[:, 2] - ys[:, 0])
                        - (xs[:, 2] - xs[:, 0]) * (ys[:, 1] - ys[:, 0]))
    return records["vs"].astype(np.float64), area


def flat_atom_weight(field_type, records, thresholds):
    """Weight of flat triangles whose value equals each threshold."""
    tris, weights = triangles_and_weights(field_type, records)
    flat = tris.max(axis=1) == tris.min(axis=1)
    at = tris[flat, 0][None, :] == np.asarray(thresholds)[:, None]
    return (at * weights[flat][None, :]).sum(axis=1)


def assert_matches_oracle(field_type, records, thresholds):
    thresholds = np.asarray(thresholds, dtype=np.float64)
    got_le, got_lt, got_total = field_type.band_area_curves(
        records, thresholds)
    ref_le, ref_lt, ref_total = super(
        field_type, field_type).band_area_curves(records, thresholds)
    assert got_le.shape == got_lt.shape == thresholds.shape
    for got, ref in ((got_le, ref_le), (got_lt, ref_lt)):
        err = np.abs(np.asarray(got) - ref)
        assert np.all(err <= 1e-12 * np.maximum(np.abs(ref), 1.0)), (
            got, ref)
    assert abs(got_total - ref_total) <= 1e-12 * max(abs(ref_total), 1.0)
    atoms = flat_atom_weight(field_type, records, thresholds)
    gap = np.asarray(got_le) - np.asarray(got_lt)
    assert np.all(np.abs(gap - atoms)
                  <= 1e-12 * np.maximum(np.abs(ref_le), 1.0))


def threshold_list(corner_values):
    """Thresholds mixing exact corner values, free values, and values
    outside the domain (in any order, with repeats)."""
    pool = sorted(set(float(v) for v in corner_values)) or [0.0]
    return st.lists(
        st.one_of(st.sampled_from(pool), FREE_VALUE,
                  st.sampled_from([-1e3, -20.0, 20.0, 1e3])),
        min_size=0, max_size=25)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_dem_curves_match_generic_oracle(data):
    n = data.draw(st.integers(0, 12))
    corners = data.draw(st.lists(CORNER, min_size=4 * n, max_size=4 * n))
    records = dem_records(np.asarray(corners, dtype=np.float64))
    thresholds = data.draw(
        threshold_list(records["corners"].astype(np.float64).ravel()))
    assert_matches_oracle(DEMField, records, thresholds)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_tin_curves_match_generic_oracle(data):
    n = data.draw(st.integers(0, 12))
    xs = data.draw(st.lists(COORD, min_size=3 * n, max_size=3 * n))
    ys = data.draw(st.lists(COORD, min_size=3 * n, max_size=3 * n))
    vs = data.draw(st.lists(CORNER, min_size=3 * n, max_size=3 * n))
    records = tin_records(xs, ys, vs)
    thresholds = data.draw(
        threshold_list(records["vs"].astype(np.float64).ravel()))
    assert_matches_oracle(TINField, records, thresholds)


@pytest.mark.parametrize("field_type", [DEMField, TINField])
def test_empty_block_is_all_zero(field_type):
    records = np.zeros(0, dtype=field_type.record_dtype)
    area_le, area_lt, total = field_type.band_area_curves(
        records, np.array([0.0, 1.0]))
    assert np.all(area_le == 0.0) and np.all(area_lt == 0.0)
    assert total == 0.0


def test_one_flat_cell_is_an_atom():
    records = dem_records([[2.0, 2.0, 2.0, 2.0]])
    area_le, area_lt, total = DEMField.band_area_curves(
        records, np.array([1.0, 2.0, 3.0]))
    assert total == 1.0
    assert list(area_le) == [0.0, 1.0, 1.0]
    assert list(area_lt) == [0.0, 0.0, 1.0]
    assert_matches_oracle(DEMField, records, [1.0, 2.0, 3.0])


def test_dem_terrain_on_its_endpoint_grid():
    """The grid the aggregate fit uses: every distinct endpoint."""
    records = DEMField(fractal_dem_heights(16, 0.9, seed=11)).cell_records()
    grid = np.unique(np.concatenate([records["vmin"], records["vmax"]])
                     ).astype(np.float64)
    assert_matches_oracle(DEMField, records, grid)
    assert_matches_oracle(DEMField, records[:37], grid)


def test_pair_slices_do_not_change_the_curves(monkeypatch):
    """Slicing the in-span pairs into many small chunks (the kernel's
    cache blocking) must give the same curves as one chunk."""
    records = DEMField(fractal_dem_heights(16, 0.9, seed=3)).cell_records()
    grid = np.unique(np.concatenate([records["vmin"], records["vmax"]])
                     ).astype(np.float64)
    whole = DEMField.band_area_curves(records, grid)
    monkeypatch.setattr(interpolation, "_PAIR_CHUNK", 7)
    sliced = DEMField.band_area_curves(records, grid)
    np.testing.assert_array_equal(sliced[0], whole[0])
    np.testing.assert_array_equal(sliced[1], whole[1])
    assert_matches_oracle(DEMField, records, grid)


def test_tin_field_on_its_endpoint_grid():
    # A 10×10 domain keeps the oracle's own cancellation error
    # (``area_lt = total - …``) well under the 1e-12 tolerance.
    rng = np.random.default_rng(11)
    points = rng.uniform(0.0, 10.0, size=(120, 2))
    values = np.sin(points[:, 0] / 2.0) * 10.0 + points[:, 1] * 3.0
    records = TINField(points, values).cell_records()
    grid = np.unique(np.concatenate([records["vmin"], records["vmax"]])
                     ).astype(np.float64)
    assert_matches_oracle(TINField, records, grid)
