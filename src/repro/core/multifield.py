"""Conjunctive multi-field value queries (paper §1's ocean scenario).

"Find regions where the temperature is between 20° and 25° *and* the
salinity is between 12% and 13%": each condition runs against its own
value index; candidate cells are intersected by cell id (the fields must
share one mesh); inside each surviving cell the answer region is obtained
by clipping the cell's linear sub-triangles against *both* value bands —
exact, because both fields are affine over the same sub-triangle.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from ..field.extraction import AnswerRegion
from ..field.interpolation import plane_coefficients
from ..geometry import clip_to_value_band, polygon_area
from ..storage import IOStats
from .base import ValueIndex
from .query import ValueQuery


@dataclass
class MultiFieldResult:
    """Outcome of a conjunctive query across co-registered fields."""

    queries: list[ValueQuery]
    per_field_candidates: list[int]
    common_cells: int
    area: float
    regions: list[AnswerRegion] = dc_field(default_factory=list)
    io: IOStats = dc_field(default_factory=IOStats)


def conjunctive_query(indexes: list[ValueIndex],
                      bands: list[tuple[float, float]],
                      with_regions: bool = False) -> MultiFieldResult:
    """Run a conjunction of value conditions over co-registered fields.

    All ``indexes`` must be built over fields sharing the same mesh (equal
    cell ids and geometry).  Returns exact conjunction area and optionally
    the polygonal regions.
    """
    if len(indexes) != len(bands):
        raise ValueError(
            f"{len(indexes)} indexes vs {len(bands)} bands")
    if len(indexes) < 2:
        raise ValueError("a conjunctive query needs at least two fields")
    meshes = {idx.field.num_cells for idx in indexes}
    if len(meshes) != 1:
        raise ValueError("fields must share one mesh (same cell count)")

    io_before = [idx.stats.snapshot() for idx in indexes]
    queries = [ValueQuery(lo, hi) for lo, hi in bands]
    candidate_sets: list[dict[int, np.void]] = []
    for idx, q in zip(indexes, queries):
        records, _ = idx._candidates(q.lo, q.hi)
        candidate_sets.append(
            {int(r["cell_id"]): r for r in records})

    common = set(candidate_sets[0])
    for cand in candidate_sets[1:]:
        common &= set(cand)

    total_io = IOStats()
    for idx, before in zip(indexes, io_before):
        delta = idx.stats.diff(before)
        total_io.page_reads += delta.page_reads
        total_io.sequential_reads += delta.sequential_reads
        total_io.random_reads += delta.random_reads
        total_io.cache_hits += delta.cache_hits

    regions: list[AnswerRegion] = []
    area = 0.0
    field_types = [idx.field_type for idx in indexes]
    for cell_id in sorted(common):
        cell_records = [cand[cell_id] for cand in candidate_sets]
        tri_lists = [ft.record_triangles(rec)
                     for ft, rec in zip(field_types, cell_records)]
        # All fields share the mesh, so sub-triangle k has identical
        # geometry across fields; only the vertex values differ.
        for k, (points, _values) in enumerate(tri_lists[0]):
            poly = list(points)
            for (tri_points, tri_values), (lo, hi) in zip(
                    (tl[k] for tl in tri_lists), bands):
                a, b, c = plane_coefficients(tri_points, tri_values)
                poly = clip_to_value_band(
                    poly, lambda p, a=a, b=b, c=c: a * p[0] + b * p[1] + c,
                    lo, hi)
                if len(poly) < 3:
                    break
            piece = polygon_area(poly)
            if len(poly) >= 3 and piece > 0.0:
                area += piece
                if with_regions:
                    regions.append(
                        AnswerRegion(cell_id, tuple(poly), piece))

    return MultiFieldResult(
        queries=queries,
        per_field_candidates=[len(c) for c in candidate_sets],
        common_cells=len(common),
        area=area,
        regions=regions,
        io=total_io,
    )
