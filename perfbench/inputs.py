"""Seeded inputs of every workload: field, request pools, schedules.

Everything the program receives is generated here from ``--seed``, so
the load generator (parent process), the engine host (child process)
and the oracle all derive identical inputs without passing files.  The
terrain is the repository's canonical ``roseburg_like`` dataset (its
fixed generator seed, like the paper's single Roseburg DEM); the
benchmark seed draws the queries, the arrival times and the updates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPEC_PATH = Path(__file__).resolve().parent / "spec.json"


def load_spec() -> dict:
    """The benchmark's recorded parameters (``spec.json``)."""
    return json.loads(SPEC_PATH.read_text())


def workload_rng(seed: int, workload: str, stream: str) -> np.random.Generator:
    """Independent, reproducible random stream per (seed, workload, use)."""
    key = [int(seed)] + [ord(c) for c in f"{workload}/{stream}"]
    return np.random.default_rng(key)


def make_field(spec: dict, workload: str):
    """The workload's terrain as a fresh ``DEMField``."""
    from repro.synth import roseburg_like
    wl = spec["workloads"][workload]
    return roseburg_like(cells_per_side=wl["cells_per_side"],
                         seed=spec["terrain_seed"])


@dataclass(frozen=True)
class Op:
    """One request of a workload, as sent to the program."""

    kind: str          # "query" | "aggregate" | "update"
    pool_index: int    # index into the query / aggregate pool (-1: update)
    params: dict       # wire parameters (without id/op)


def query_pool(spec: dict, workload: str, seed: int, field) -> list[Op]:
    """Fig. 8a value queries: ``per_qinterval`` draws per Qinterval."""
    wl = spec["workloads"][workload]
    rng = workload_rng(seed, workload, "queries")
    vr = field.value_range
    span = float(vr.hi - vr.lo)
    pool = []
    n = wl["queries_per_qinterval"]
    for qi in spec["qintervals"]:
        length = qi * span
        for u in stratified(rng, n):
            lo = float(vr.lo) + u * (span - length)
            pool.append(Op("query", len(pool),
                           {"lo": lo, "hi": lo + length}))
    return pool


def stratified(rng: np.random.Generator, n: int) -> list[float]:
    """``n`` uniform draws on [0, 1), one per equal stratum, shuffled.

    Each draw is still uniform over the whole range, but the pool covers
    the range evenly, so pool means (pages, cost) vary little by seed.
    """
    u = (np.arange(n) + rng.random(n)) / n
    return [float(x) for x in rng.permutation(u)]


def aggregate_pool(spec: dict, workload: str, seed: int, field) -> list[Op]:
    """COUNT/SUM/area aggregates: ``per_combo`` evenly spaced intervals
    for each (kind, Fig. 8a Qinterval) pair.

    The pool is the same for every seed (the seed orders it in the read
    sequence): hybrid-aggregate cost depends on where an interval's
    edges cut subfields, and a seeded pool of about a hundred moved the
    aggregate median by seed more than the program does run to run.
    The tolerance is a fraction of each kind's whole-field total, the
    convention of the repository's aggregate frontier experiment.
    """
    wl = spec["workloads"][workload]
    per_combo = wl["aggregates_per_combo"]
    grid = (np.arange(per_combo) + 0.5) / per_combo
    recs = field.cell_records()
    mids = (recs["vmin"].astype(np.float64)
            + recs["vmax"].astype(np.float64)) * 0.5
    totals = {"count": float(len(recs)), "sum": float(mids.sum()),
              "area": float(len(recs)) * float(field.cell_size) ** 2}
    vr = field.value_range
    span = float(vr.hi - vr.lo)
    pool = []
    for kind in spec["aggregate_kinds"]:
        for qi in spec["qintervals"]:
            length = qi * span
            for u in grid:
                lo = float(vr.lo) + float(u) * (span - length)
                params = {"kind": kind, "lo": lo, "hi": lo + length,
                          "mode": wl["aggregate_mode"]}
                if wl["aggregate_mode"] == "hybrid":
                    params["tolerance"] = (wl["aggregate_tolerance"]
                                           * totals[kind])
                pool.append(Op("aggregate", len(pool), params))
    return pool


def read_sequence(queries: list[Op], aggregates: list[Op], seed: int,
                  workload: str, count: int,
                  queries_per_aggregate: int) -> list[Op]:
    """``count`` reads, exactly ``queries_per_aggregate`` queries to one
    aggregate in every (shuffled) block, each pool cycled in seeded
    permutations so every entry is used before any repeats."""
    rng = workload_rng(seed, workload, "sequence")
    block = ["q"] * queries_per_aggregate + ["a"]

    def cycle(pool):
        while True:
            for i in rng.permutation(len(pool)):
                yield pool[i]

    q, a = cycle(queries), cycle(aggregates)
    out: list[Op] = []
    while len(out) < count:
        for kind in rng.permutation(block):
            out.append(next(q) if kind == "q" else next(a))
    return out[:count]


def update_batches(spec: dict, workload: str, seed: int, field,
                   count: int) -> list[Op]:
    """8-vertex batches from a fixed network of sensor stations.

    The stations (``update_stations`` vertices, one per equal band of
    vertex ids) are fixed by the terrain seed, like a real sensor grid;
    batch ``b`` reports the next ``update_vertices`` stations in turn.
    The seed draws the measurements: each is the station's current
    height plus small noise relative to the field's value span, keeping
    subfield drift realistic over a run.
    """
    wl = spec["workloads"][workload]
    k, n_stations = wl["update_vertices"], wl["update_stations"]
    heights = np.array(field.heights, dtype=np.float32).ravel()
    edges = np.linspace(0, len(heights), n_stations + 1).astype(np.int64)
    sites = np.random.default_rng(spec["terrain_seed"]).integers(
        edges[:-1], edges[1:])
    order = np.random.default_rng(spec["terrain_seed"]).permutation(
        n_stations)
    rng = workload_rng(seed, workload, "updates")
    vr = field.value_range
    scale = wl["update_noise"] * float(vr.hi - vr.lo)
    ops = []
    for b in range(count):
        vids = sites[order[(b * k + np.arange(k)) % n_stations]]
        vals = (heights[vids]
                + rng.normal(0.0, scale, k)).astype(np.float32)
        heights[vids] = vals
        ops.append(Op("update", -1,
                      {"vertex_ids": [int(v) for v in vids],
                       "values": [float(v) for v in vals]}))
    return ops


def station_cycle(spec: dict, workload: str) -> int:
    """Update batches in one pass over the stations: batch ``b`` and
    batch ``b + station_cycle`` report the same stations."""
    wl = spec["workloads"][workload]
    if wl["update_stations"] % wl["update_vertices"]:
        raise ValueError("update_stations must be a multiple of "
                         "update_vertices")
    return wl["update_stations"] // wl["update_vertices"]


def poisson_offsets(rate: float, seconds: float, seed: int,
                    workload: str) -> np.ndarray:
    """Arrival offsets (s) of a Poisson process at ``rate`` over
    ``seconds``, conditioned on its expected count.

    Given the count, Poisson arrival times are independent uniform
    draws; fixing the count at ``rate * seconds`` keeps the offered
    load, and so every per-second figure, the same for every seed.
    """
    rng = workload_rng(seed, workload, "arrivals")
    return np.sort(rng.random(int(round(rate * seconds)))) * seconds
