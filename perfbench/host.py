"""Engine host: the child process that runs the program under test.

Started by ``run.py`` with the workload, seed and a work directory; it
builds the engine from the seeded inputs and prints one ``ready`` JSON
line.  Served workloads then run a :class:`repro.serve.FieldServer`
(executor of ``executor_workers`` threads) that the parent loads over
TCP; the in-process workload runs its closed loop here, through
:class:`repro.core.facade.EngineFacade`, on command.  Commands arrive
as JSON lines on stdin and each is answered with one JSON line on
stdout.  With ``--trace 1`` the layer wrappers of ``hooks.py`` are
installed before set-up, so this process is where spans are recorded.
The reference kernel of ``speed.py`` is timed on the engine's thread
throughout (between closed-loop operations, or submitted to the serve
executor by a ticker), and its timings are returned with ``report``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
from hooks import Hooks, Recorder  # noqa: E402
from speed import SpeedLog, Ticker  # noqa: E402
from stats import layer_self_times, median  # noqa: E402

FIELD = "terrain"
now_ns = time.perf_counter_ns


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def space_amp(index, models_nbytes: int) -> float:
    """(data + index pages x page size + model bytes) / raw record bytes."""
    info = index.describe()
    raw = info["cells"] * index.field_type.record_dtype.itemsize
    stored = ((info["data_pages"] + info["index_pages"]) * index.page_size
              + models_nbytes)
    return stored / raw


def build(spec: dict, workload: str, workdir: Path):
    """Build the workload's engine; returns (facade, index, info)."""
    from repro.core.facade import EngineFacade
    wl = spec["workloads"][workload]
    field = inputs.make_field(spec, workload)
    if wl["shards"]:
        from repro.shard.engine import ShardedEngine
        from repro.storage import SimulatedObjectStore
        index = ShardedEngine(field, n_shards=wl["shards"],
                              cache_pages=wl["cache_pages"],
                              remote_store=SimulatedObjectStore(),
                              remote_cache_pages=wl["remote_cache_pages"])
    else:
        from repro.core.ihilbert import IHilbertIndex
        index = IHilbertIndex(field, cache_pages=wl["cache_pages"])
    models = 0
    if wl["fit_models"]:
        models = index.fit_aggregate_models().nbytes
    if wl["wal"]:
        from repro.core.persist import save_index
        snap = workdir / "snapshot"
        save_index(index, snap)
        index.attach_wal(snap / "wal.log")
    facade = EngineFacade(default_workers=1)
    facade.open_field(FIELD, index)
    info = index.describe()
    return facade, index, {
        "cells": info["cells"], "data_pages": info["data_pages"],
        "index_pages": info["index_pages"],
        "space_amp": space_amp(index, models)}


def data_accesses(index) -> int:
    """Data-page accesses so far (buffer-pool hits + misses)."""
    shards = getattr(index, "shards", None)
    stores = ([rt.index.store for rt in shards] if shards is not None
              else [index.store])
    return sum(s.pool.hits + s.pool.misses for s in stores)


def run_op(facade, op) -> dict:
    """One in-process request; returns what the oracle checks."""
    p = op.params
    if op.kind == "query":
        r = facade.query(FIELD, p["lo"], p["hi"])
        return {"candidates": r.candidate_count, "area": r.area,
                "pages": r.io.page_reads + r.io.cache_hits}
    if op.kind == "aggregate":
        r = facade.aggregate(FIELD, p["kind"], p["lo"], p["hi"],
                             tolerance=p.get("tolerance"), mode=p["mode"])
        return {"value": r.value, "bound": r.bound}
    facade.update(FIELD, p["vertex_ids"], p["values"])
    return {}


def closed_loop(facade, ops, seconds, recorder, prefix, speed) -> list:
    """Issue ``ops`` back to back for ``seconds``; one record per op.
    The reference kernel runs between operations when it is due."""
    out = []
    deadline = now_ns() + int(seconds * 1e9)
    for k, op in enumerate(ops):
        if now_ns() >= deadline:
            break
        rid = f"{prefix}{k}"
        if recorder is not None:
            recorder.set_request(rid)
        t0 = now_ns()
        try:
            res = run_op(facade, op)
            ok = True
        except Exception as exc:    # counted as a failed operation
            res = {"error": f"{type(exc).__name__}: {exc}"}
            ok = False
        t1 = now_ns()
        out.append({"id": rid, "kind": op.kind, "pool": op.pool_index,
                    "t0": t0, "ns": t1 - t0, "ok": ok, **res})
        speed.due()
    if recorder is not None:
        recorder.set_request(None)
    return out


def summarize_spans(spans) -> dict:
    """Per-request layer self times, span counts and summed attributes."""
    by_rid = defaultdict(list)
    unowned = defaultdict(int)
    for sid, parent, rid, name, t0, t1, attrs in spans:
        if rid is None:
            unowned[name] += t1 - t0
            continue
        by_rid[rid].append((sid, parent, name, t0, t1, attrs))
    requests = {}
    for rid, group in by_rid.items():
        selfs = layer_self_times([g[:5] for g in group])
        counts = defaultdict(int)
        attrs = defaultdict(int)
        roots = [g for g in group if g[1] is None]
        for _sid, _parent, name, _t0, _t1, extra in group:
            counts[name] += 1
            for key, value in (extra or {}).items():
                attrs[f"{name}.{key}"] += value
        requests[str(rid)] = {
            "root": roots[0][2] if roots else None,
            "root_ns": sum(g[4] - g[3] for g in roots),
            "self_ns": selfs, "count": dict(counts), "attrs": dict(attrs)}
    return {"requests": requests, "unowned_ns": dict(unowned)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    spec = inputs.load_spec()
    wl = spec["workloads"][args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    speed = SpeedLog(spec["speed"]["interval_ms"])
    recorder = hooks = None
    if args.trace:
        recorder = Recorder()
        hooks = Hooks(recorder)
        hooks.install()
    facade, index, info = build(spec, args.workload, workdir)

    # The speed at the end of set-up, for rescaling set-up time.
    speed.burst(spec["speed"]["setup_burst"])
    info["kernel_ms"] = median(d for _, d in speed.samples) / 1e6
    harness = ticker = None
    if wl["served"]:
        from repro.serve.server import FieldServer, ServerThread
        server = FieldServer(facade=facade,
                             executor_workers=wl["executor_workers"])
        harness = ServerThread(server)
        info["address"] = list(harness.start())
        ticker = Ticker(speed, server._executor)
        ticker.start()
    emit({"ready": True, **info})

    pools = [inputs.query_pool(spec, args.workload, args.seed, index.field),
             inputs.aggregate_pool(spec, args.workload, args.seed,
                                   index.field)]
    seq = inputs.read_sequence(*pools, args.seed, args.workload,
                               wl["sequence_length"],
                               wl["queries_per_aggregate"])
    try:
        for line in sys.stdin:
            cmd = json.loads(line)
            name = cmd["cmd"]
            if name == "trace":
                (hooks.install if cmd["on"] else hooks.uninstall)()
                emit({"ok": True})
            elif name == "loop":
                emit({"records": closed_loop(facade, seq, cmd["seconds"],
                                             recorder, cmd["prefix"],
                                             speed)})
            elif name == "pin":
                out = []
                for op in pools[0]:
                    before = data_accesses(index)
                    if recorder is not None:
                        recorder.set_request(f"p{op.pool_index}")
                    t0 = now_ns()
                    res = run_op(facade, op)
                    res["ns"] = now_ns() - t0
                    res["data_pages"] = data_accesses(index) - before
                    out.append(res)
                if recorder is not None:
                    recorder.set_request(None)
                emit({"pins": out})
            elif name == "updates":
                ops = inputs.update_batches(spec, args.workload, args.seed,
                                            inputs.make_field(
                                                spec, args.workload),
                                            cmd["count"])
                emit({"records": closed_loop(facade, ops, cmd["seconds"],
                                             recorder, "u", speed)})
            elif name == "report":
                rep = {"rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "speed": speed.samples}
                if recorder is not None:
                    rep["trace"] = summarize_spans(recorder.spans)
                emit(rep)
            elif name == "exit":
                break
            else:
                raise ValueError(f"unknown command {name!r}")
    finally:
        if ticker is not None:
            ticker.stop()
        if harness is not None:
            harness.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
