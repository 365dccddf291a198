"""Bit-identity of the selective §3.2 band kernel.

``triangle_band_fraction`` runs the quadratic of
``triangle_fraction_below`` only on triangles whose open value span a
query bound cuts, and sets the others to exactly 0 or 1.  The oracle
below evaluates the full kernel on every triangle at both bounds; the
two must agree bit for bit, element by element — and so must every
DEM and TIN area sum built on them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.field import DEMField, TINField, triangle_band_fraction
from repro.field.interpolation import triangle_fraction_below
from repro.field.tin import _triangle_areas
from repro.synth import fractal_dem_heights


def full_band_fraction(v0, v1, v2, lo, hi):
    """The band fraction with the quadratic evaluated everywhere."""
    frac = (triangle_fraction_below(v0, v1, v2, hi)
            - triangle_fraction_below(v0, v1, v2, lo))
    a, b, c = (np.asarray(v, dtype=float) for v in (v0, v1, v2))
    flat = (np.maximum(np.maximum(a, b), c)
            - np.minimum(np.minimum(a, b), c)) <= 0.0
    inside_flat = flat & (a >= lo) & (a <= hi)
    return np.where(inside_flat, 1.0, np.clip(frac, 0.0, 1.0))


def assert_bit_identical(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# Integer-valued corners make ties, flat triangles and thresholds equal
# to vertex values common.
corner = st.integers(0, 6).map(float)
bound = st.integers(-1, 7).map(float)


@st.composite
def triangles(draw):
    n = draw(st.integers(0, 40))
    cols = [np.array(draw(st.lists(corner, min_size=n, max_size=n)))
            for _ in range(3)]
    lo = draw(bound)
    hi = draw(st.one_of(st.just(lo), bound.filter(lambda v: v >= lo)))
    return cols, lo, hi


@given(case=triangles())
@example(case=([np.array([2.0, 3.0]), np.array([2.0, 3.0]),
                np.array([2.0, 3.0])], 2.0, 3.0))          # flat on lo, hi
@example(case=([np.array([1.0]), np.array([4.0]), np.array([4.0])],
               4.0, 4.0))                                  # lo == hi == max
@settings(max_examples=500, deadline=None)
def test_selective_kernel_matches_the_full_kernel_on_ties(case):
    (v0, v1, v2), lo, hi = case
    assert_bit_identical(triangle_band_fraction(v0, v1, v2, lo, hi),
                         full_band_fraction(v0, v1, v2, lo, hi))


finite = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


@given(vals=st.lists(st.tuples(finite, finite, finite), max_size=60),
       lo=finite, width=st.floats(0.0, 30.0))
@settings(max_examples=300, deadline=None)
def test_selective_kernel_matches_the_full_kernel_on_floats(vals, lo,
                                                            width):
    cols = [np.array([t[k] for t in vals], dtype=float) for k in range(3)]
    hi = lo + width
    assert_bit_identical(triangle_band_fraction(*cols, lo, hi),
                         full_band_fraction(*cols, lo, hi))


@given(case=triangles(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_per_triangle_bounds_match_the_full_kernel(case, data):
    (v0, v1, v2), _, _ = case
    n = len(v0)
    lo = np.array(data.draw(st.lists(bound, min_size=n, max_size=n)))
    hi = lo + np.array(data.draw(st.lists(st.integers(0, 2).map(float),
                                          min_size=n, max_size=n)))
    assert_bit_identical(triangle_band_fraction(v0, v1, v2, lo, hi),
                         full_band_fraction(v0, v1, v2, lo, hi))


def test_mostly_cut_and_mostly_uncut_batches_agree_with_the_oracle():
    rng = np.random.default_rng(3)
    wide = [rng.random(500) * 100.0 for _ in range(3)]
    base = rng.random(500) * 100.0
    narrow = [base + rng.random(500) for _ in range(3)]
    for cols in (wide, narrow):
        assert_bit_identical(triangle_band_fraction(*cols, 30.0, 32.0),
                             full_band_fraction(*cols, 30.0, 32.0))


@pytest.mark.parametrize("v, lo, hi", [
    ((1.0, 2.0, 3.0), 1.0, 2.0),
    ((1.0, 2.0, 3.0), 0.0, 5.0),
    ((1.0, 2.0, 3.0), 4.0, 5.0),
    ((2.0, 2.0, 2.0), 2.0, 2.0),
    ((2.0, 2.0, 2.0), 1.0, 2.0),
    ((0.0, 5.0, 2.0), 2.0, 2.0),
    ((3.0, 1.0, 1.0), 1.0, 3.0),
])
def test_scalar_inputs(v, lo, hi):
    assert_bit_identical(triangle_band_fraction(*v, lo, hi),
                         full_band_fraction(*v, lo, hi))


def _windows(lo, hi):
    span = hi - lo
    return [(lo + f * span, lo + g * span)
            for f, g in ((0.0, 0.0), (0.1, 0.12), (0.3, 0.5), (0.45, 0.45),
                         (0.0, 1.0), (0.7, 0.95), (-0.1, 0.05))]


def test_dem_area_sums_are_bit_identical():
    field = DEMField(fractal_dem_heights(32, 0.5, seed=11).round(1))
    records = field.cell_records()
    vr = field.value_range
    for lo, hi in _windows(float(vr.lo), float(vr.hi)):
        c = records["corners"].astype(np.float64)
        want = float((full_band_fraction(c[:, 0], c[:, 1], c[:, 2], lo, hi)
                      + full_band_fraction(c[:, 0], c[:, 2], c[:, 3], lo,
                                           hi)).sum() * 0.5)
        got = DEMField.estimate_area(records, lo, hi)
        assert got.hex() == want.hex()


def test_tin_area_sums_are_bit_identical(small_tin):
    records = small_tin.cell_records()
    vr = small_tin.value_range
    for lo, hi in _windows(float(vr.lo), float(vr.hi)):
        vs = records["vs"].astype(np.float64)
        frac = full_band_fraction(vs[:, 0], vs[:, 1], vs[:, 2], lo, hi)
        want = float((frac * _triangle_areas(records)).sum())
        got = TINField.estimate_area(records, lo, hi)
        assert got.hex() == want.hex()
