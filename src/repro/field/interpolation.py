"""Interpolation functions over cells.

The paper assumes a *linear* interpolation in its examples and experiments
(§2.2, §4); we implement it exactly (barycentric over triangles), plus the
common alternatives (bilinear, nearest neighbor, inverse-distance) so the
model layer matches the paper's "arbitrary interpolation methods" framing.

Also provided is the closed-form *area fraction* of a linearly interpolated
triangle below a threshold — the vectorized kernel of the estimation step.
"""

from __future__ import annotations

import numpy as np

Point2 = tuple[float, float]


def plane_coefficients(points, values) -> tuple[float, float, float]:
    """Coefficients ``(a, b, c)`` with ``v(x, y) = a·x + b·y + c``.

    ``points`` is a 3×2 triangle; raises for degenerate triangles.
    """
    (x0, y0), (x1, y1), (x2, y2) = points
    v0, v1, v2 = values
    det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    if det == 0.0:
        raise ValueError("degenerate triangle has no interpolation plane")
    a = ((v1 - v0) * (y2 - y0) - (v2 - v0) * (y1 - y0)) / det
    b = ((v2 - v0) * (x1 - x0) - (v1 - v0) * (x2 - x0)) / det
    c = v0 - a * x0 - b * y0
    return (a, b, c)


def linear_triangle(point: Point2, points, values) -> float:
    """Barycentric (linear) interpolation inside a triangle."""
    a, b, c = plane_coefficients(points, values)
    return a * point[0] + b * point[1] + c


def barycentric_coordinates(point: Point2, points) -> tuple[float, float,
                                                            float]:
    """Barycentric coordinates of ``point`` w.r.t. a triangle."""
    (x0, y0), (x1, y1), (x2, y2) = points
    det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    if det == 0.0:
        raise ValueError("degenerate triangle")
    l1 = ((point[0] - x0) * (y2 - y0) - (x2 - x0) * (point[1] - y0)) / det
    l2 = ((x1 - x0) * (point[1] - y0) - (point[0] - x0) * (y1 - y0)) / det
    return (1.0 - l1 - l2, l1, l2)


def bilinear(point: Point2, origin: Point2, size: float,
             corner_values) -> float:
    """Bilinear interpolation on a square cell.

    ``corner_values`` are ``(v00, v10, v11, v01)`` at the corners
    (x0,y0), (x0+s,y0), (x0+s,y0+s), (x0,y0+s).
    """
    u = (point[0] - origin[0]) / size
    v = (point[1] - origin[1]) / size
    v00, v10, v11, v01 = corner_values
    return ((1 - u) * (1 - v) * v00 + u * (1 - v) * v10
            + u * v * v11 + (1 - u) * v * v01)


def nearest(point: Point2, points, values) -> float:
    """Value of the nearest sample point."""
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(values, dtype=float)
    d2 = ((pts - np.asarray(point)) ** 2).sum(axis=1)
    return float(vals[np.argmin(d2)])


def inverse_distance(point: Point2, points, values,
                     power: float = 2.0) -> float:
    """Shepard inverse-distance-weighted interpolation."""
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(values, dtype=float)
    d2 = ((pts - np.asarray(point)) ** 2).sum(axis=1)
    hit = d2 < 1e-24
    if hit.any():
        return float(vals[np.argmax(hit)])
    weights = d2 ** (-power / 2.0)
    return float((weights * vals).sum() / weights.sum())


def triangle_fraction_below(v0, v1, v2, threshold):
    """Area fraction of a linear triangle where ``value <= threshold``.

    All arguments may be numpy arrays (vectorized over triangles).  For a
    linear function with vertex values ``v0 <= v1 <= v2`` the sub-level
    area fraction is the classic piecewise quadratic:

    * 0 below ``v0``;
    * ``(t−v0)² / ((v1−v0)(v2−v0))`` between ``v0`` and ``v1``;
    * ``1 − (v2−t)² / ((v2−v1)(v2−v0))`` between ``v1`` and ``v2``;
    * 1 above ``v2``.
    """
    lo, mid, hi = _select3(np.asarray(v0, dtype=float),
                           np.asarray(v1, dtype=float),
                           np.asarray(v2, dtype=float))
    return _fraction_below_sorted(lo, mid, hi,
                                  np.asarray(threshold, dtype=float))


def _select3(a, b, c):
    """``(min, median, max)`` of three arrays, elementwise.

    Exact 3-way selection in five elementwise passes: selection only
    moves values, so the result is bit-identical to the np.sort it
    replaces at roughly half the kernel cost.
    """
    return (np.minimum(np.minimum(a, b), c),
            np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c)),
            np.maximum(np.maximum(a, b), c))


def _fraction_below_sorted(lo, mid, hi, t):
    """:func:`triangle_fraction_below` on already-selected vertex values."""
    span = hi - lo
    flat = span <= 0.0
    # Avoid divide-by-zero on flat triangles; they are handled separately.
    span = np.where(flat, 1.0, span)
    low_seg = mid - lo
    high_seg = hi - mid
    # Branches with empty segments are masked out below; silence the
    # overflow/invalid noise their dummy denominators can produce.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        frac_low = np.where(
            low_seg > 0.0,
            (t - lo) ** 2 / np.where(low_seg > 0, low_seg, 1.0) / span,
            np.inf)
        frac_high = 1.0 - np.where(
            high_seg > 0.0,
            (hi - t) ** 2 / np.where(high_seg > 0, high_seg, 1.0) / span,
            np.inf)
    result = np.where(t <= mid, frac_low, frac_high)
    # Degenerate segments: when t is in an empty segment the other branch
    # applies; clamp handles the boundaries exactly.
    result = np.where(t <= mid,
                      np.where(low_seg > 0.0, result, 0.0),
                      np.where(high_seg > 0.0, result, 1.0))
    result = np.clip(result, 0.0, 1.0)
    result = np.where(t < lo, 0.0, result)
    result = np.where(t >= hi, 1.0, result)
    # A completely flat triangle is fully below iff its value <= t.
    result = np.where(flat, (t >= lo).astype(float), result)
    return result


def triangle_band_fraction(v0, v1, v2, lo, hi):
    """Area fraction of a linear triangle where ``lo <= value <= hi``.

    Outside its open value span ``(tmin, tmax)`` a triangle's fraction
    below ``t`` is exactly 0 (``t <= tmin``) or 1 (``t >= tmax``), so
    the quadratic of :func:`triangle_fraction_below` runs only on the
    triangles a bound cuts; every other triangle is fully inside the
    band (1) or untouched by it (0).  Each element is bit-identical to
    evaluating the quadratic everywhere.
    """
    a, b, c, lo, hi = (np.asarray(v, dtype=float)
                       for v in (v0, v1, v2, lo, hi))
    shape = np.broadcast_shapes(a.shape, b.shape, c.shape, lo.shape,
                                hi.shape)
    a, b, c = (np.broadcast_to(v, shape) for v in (a, b, c))
    tmin, tmid, tmax = _select3(a, b, c)
    # NaN vertices fail every comparison and so stay on the quadratic.
    cut = ~(((lo <= tmin) | (lo >= tmax)) & ((hi <= tmin) | (hi >= tmax)))
    # asarray: a 0-d difference comes back as a scalar, not assignable.
    frac = np.asarray((hi >= tmax).astype(float) - (lo >= tmax))
    # Scalar bounds (the query case) stay scalars: numpy compares an
    # array with a scalar faster than with a zero-stride broadcast view.
    t_lo, t_hi = (np.broadcast_to(t, shape)[cut] if t.ndim else t
                  for t in (lo, hi))
    sel = (tmin[cut], tmid[cut], tmax[cut])
    frac[cut] = (_fraction_below_sorted(*sel, t_hi)
                 - _fraction_below_sorted(*sel, t_lo))
    # Flat triangles sitting exactly on the band boundary: fraction_below
    # uses a half-open convention (value <= t), so a flat triangle at
    # exactly ``lo`` would be counted in both terms and cancel; include it.
    inside_flat = (tmax - tmin <= 0.0) & (a >= lo) & (a <= hi)
    return np.where(inside_flat, 1.0, np.clip(frac, 0.0, 1.0))


#: (triangle, threshold) pairs evaluated per slice in
#: :func:`triangle_band_area_curves`.
_PAIR_CHUNK = 16384


def triangle_band_area_curves(v0, v1, v2, weights, thresholds):
    """Weighted sub-level area curves of many linear triangles.

    Returns ``(area_le, area_lt, total)`` where ``area_le[k]`` is
    ``Σ w · triangle_fraction_below(v0, v1, v2, thresholds[k])``,
    ``area_lt[k]`` the same for ``value < thresholds[k]`` (it drops the
    completely flat triangles sitting exactly at the threshold), and
    ``total`` is ``Σ w``.  ``weights`` is a scalar or one weight per
    triangle; ``thresholds`` may come in any order.

    A triangle's fraction is 0 below its minimum and 1 from its maximum
    up, so only the thresholds strictly inside its own ``(lo, hi)`` need
    the quadratic.  Fully-below triangles are counted with one
    ``searchsorted`` over the sorted maxima (flat triangles included),
    the in-span (triangle, threshold) pairs are enumerated with
    ``searchsorted`` + ``repeat`` and evaluated with
    :func:`triangle_fraction_below`, and ``bincount`` sums them per
    threshold — O((n + m) log(n + m) + pairs) instead of a dense
    ``n × m`` broadcast.
    """
    a = np.asarray(v0, dtype=float)
    b = np.asarray(v1, dtype=float)
    c = np.asarray(v2, dtype=float)
    w = np.broadcast_to(np.asarray(weights, dtype=float), a.shape)
    t = np.asarray(thresholds, dtype=float)
    order = np.argsort(t, kind="stable")
    ts = t[order]
    lo = np.minimum(np.minimum(a, b), c)
    hi = np.maximum(np.maximum(a, b), c)

    # Fully below (hi <= t): prefix sums of weights in maximum order.
    by_hi = np.argsort(hi, kind="stable")
    prefix = np.concatenate([[0.0], np.cumsum(w[by_hi])])
    le = prefix[np.searchsorted(hi[by_hi], ts, side="right")]

    # In span (lo < t < hi): each triangle owns a contiguous run of the
    # sorted thresholds; flat triangles own none.
    start = np.searchsorted(ts, lo, side="right")
    counts = np.maximum(np.searchsorted(ts, hi, side="left") - start, 0)
    tri = np.repeat(np.arange(len(a)), counts)
    offsets = np.cumsum(counts) - counts
    k = np.arange(len(tri)) + np.repeat(start - offsets, counts)
    # Evaluate in cache-sized slices: the kernel makes a few dozen
    # elementwise passes, which run about twice as fast in cache.
    frac = np.empty(len(tri))
    for s in range(0, len(tri), _PAIR_CHUNK):
        part = tri[s:s + _PAIR_CHUNK]
        frac[s:s + _PAIR_CHUNK] = triangle_fraction_below(
            a[part], b[part], c[part], ts[k[s:s + _PAIR_CHUNK]])
    le = le + np.bincount(k, weights=frac * w[tri], minlength=len(ts))

    # Flat atoms exactly at the threshold count for `<=` but not `<`.
    flat = hi <= lo
    flat_v = lo[flat]
    by_v = np.argsort(flat_v, kind="stable")
    flat_v = flat_v[by_v]
    flat_pre = np.concatenate([[0.0], np.cumsum(w[flat][by_v])])
    atoms = (flat_pre[np.searchsorted(flat_v, ts, side="right")]
             - flat_pre[np.searchsorted(flat_v, ts, side="left")])

    area_le = np.empty_like(ts)
    area_lt = np.empty_like(ts)
    area_le[order] = le
    area_lt[order] = le - atoms
    return area_le, area_lt, float(w.sum())
