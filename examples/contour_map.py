"""Contour maps through the value index, with index persistence.

Extracts a family of elevation isolines from a terrain DEM.  Each
contour level is an exact-match field value query (paper §2.2.2); the
candidate cells feed the marching extraction, so only contributing cells
are ever read.  The built index is then saved to disk and reloaded — the
reload answers the same queries from pages alone, without the field.

Run:  python examples/contour_map.py
"""

import tempfile
from pathlib import Path

from repro import IHilbertIndex, ValueQuery, load_index, save_index
from repro.field import DEMField, extract_isolines, total_length
from repro.synth import roseburg_like


def main() -> None:
    field = roseburg_like(cells_per_side=128)
    vr = field.value_range
    index = IHilbertIndex(field)
    print(f"terrain: {field.num_cells} cells, elevations "
          f"{vr.lo:.0f}..{vr.hi:.0f} m "
          f"({index.num_subfields} subfields)")

    print(f"\n{'contour':>9} {'cells':>7} {'segments':>9} "
          f"{'length':>9} {'pages':>6}")
    levels = [vr.lo + frac * vr.length
              for frac in (0.2, 0.35, 0.5, 0.65, 0.8)]
    for level in levels:
        index.clear_caches()
        before = index.stats.snapshot()
        candidates = index._candidates(level, level)[0]
        pages = index.stats.diff(before).page_reads
        segments = extract_isolines(DEMField, candidates, level)
        print(f"{level:>8.0f}m {len(candidates):>7} {len(segments):>9} "
              f"{total_length(segments):>9.0f} {pages:>6}")

    # Persist the index and query the reloaded copy.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "terrain-index"
        save_index(index, path)
        size = sum(f.stat().st_size for f in path.iterdir())
        print(f"\nsaved index to {path.name}/ ({size / 1024:.0f} KiB)")

        reloaded = load_index(path)
        query = ValueQuery(levels[2], levels[2])
        original = index.query(query)
        again = reloaded.query(query)
        print(f"reloaded index answers the {levels[2]:.0f} m contour "
              f"query identically: {again.candidate_count} candidates "
              f"(original {original.candidate_count}), "
              f"{again.io.page_reads} pages read")


if __name__ == "__main__":
    main()
