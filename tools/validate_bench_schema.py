#!/usr/bin/env python3
"""Validate committed benchmark artifacts against their schemas.

Understands the repo-root artifacts and dispatches on the document's
``experiment`` field: ``BENCH_throughput.json`` (parallel-engine
sweep), ``BENCH_update.json`` (live-update degradation/compaction/WAL
run), ``BENCH_serve.json`` (multi-tenant query-service load run),
``BENCH_shard.json`` (Hilbert-range scale-out sweep over tiered
remote storage) and ``BENCH_micro.json`` (hot-path kernel + ingestion
microbenchmarks with the pinned ns/op regression gate).

Standard library only — this runs in the CI lint job, which installs no
scientific stack.  The checks are deliberately structural *and*
semantic: a file that parses but reports a parallel slowdown, an update
run that diverged from a rebuild, or a compaction that failed to
recover is as much a regression as malformed JSON.

Usage: python tools/validate_bench_schema.py [BENCH_*.json]
Exit status: 0 valid, 1 invalid, 2 usage/IO error.
"""

from __future__ import annotations

import json
import sys

SCHEMA_VERSION = 1
REQUIRED_METHODS = {"LinearScan", "I-All", "I-Hilbert"}
#: Acceptance bar for post-compaction query cost vs. a fresh build.
COMPACT_RECOVERY_LIMIT = 1.10

_errors: list[str] = []


def err(msg: str) -> None:
    _errors.append(msg)


def expect(obj: dict, field: str, types, ctx: str):
    if field not in obj:
        err(f"{ctx}: missing field {field!r}")
        return None
    value = obj[field]
    if not isinstance(value, types):
        names = (types.__name__ if isinstance(types, type)
                 else "/".join(t.__name__ for t in types))
        err(f"{ctx}: field {field!r} must be {names}, "
            f"got {type(value).__name__}")
        return None
    return value


def check_point(point: dict, ctx: str) -> None:
    workers = expect(point, "workers", int, ctx)
    if workers is not None and workers < 1:
        err(f"{ctx}: workers must be >= 1, got {workers}")
    for field in ("wall_s", "qps", "speedup_vs_1"):
        value = expect(point, field, (int, float), ctx)
        if value is not None and value <= 0:
            err(f"{ctx}: {field} must be positive, got {value}")
    for field in ("page_reads", "random_reads", "sequential_reads"):
        value = expect(point, field, int, ctx)
        if value is not None and value < 0:
            err(f"{ctx}: {field} must be >= 0, got {value}")


def check_method(entry: dict, workers: list) -> None:
    name = entry.get("method", "<unnamed>")
    ctx = f"methods[{name}]"
    expect(entry, "method", str, ctx)
    expect(entry, "build_seconds", (int, float), ctx)
    expect(entry, "data_pages", int, ctx)
    expect(entry, "index_pages", int, ctx)
    expect(entry, "serial_page_reads", int, ctx)
    points = expect(entry, "points", list, ctx)
    if points is None:
        return
    before = len(_errors)
    for i, point in enumerate(points):
        if not isinstance(point, dict):
            err(f"{ctx}.points[{i}]: must be an object")
            return
        check_point(point, f"{ctx}.points[{i}]")
    if len(_errors) > before or "serial_page_reads" not in entry:
        return    # structure is broken; skip the semantic checks
    if [p["workers"] for p in points] != workers:
        err(f"{ctx}: points sweep {[p['workers'] for p in points]} "
            f"!= declared workers {workers}")
    # Parallelism must be invisible in the I/O accounting: every sweep
    # point of a method reads exactly the serial page count.
    serial = entry["serial_page_reads"]
    for point in points:
        if point["page_reads"] != serial:
            err(f"{ctx}: workers={point['workers']} read "
                f"{point['page_reads']} pages, serial read {serial}")
        if point["random_reads"] + point["sequential_reads"] \
                != point["page_reads"]:
            err(f"{ctx}: workers={point['workers']}: random + sequential "
                f"!= page_reads")
    # The point of the engine: more workers must not lose throughput.
    first, last = points[0], points[-1]
    if last["qps"] < first["qps"]:
        err(f"{ctx}: qps regressed from {first['qps']} "
            f"(workers={first['workers']}) to {last['qps']} "
            f"(workers={last['workers']})")
    pipeline = entry.get("pipeline")
    if pipeline is not None:
        check_pipeline(pipeline, points, workers, ctx)


def check_pipeline(pipeline: dict, legacy_points: list, workers: list,
                   ctx: str) -> None:
    """The merged+cached pipeline sweep attached to a method entry."""
    pctx = f"{ctx}.pipeline"
    if not isinstance(pipeline, dict):
        err(f"{pctx}: must be an object")
        return
    cache = expect(pipeline, "cache_pages", int, pctx)
    if cache is not None and cache < 1:
        err(f"{pctx}: cache_pages must be >= 1, got {cache}")
    expect(pipeline, "merge", bool, pctx)
    oracle = expect(pipeline, "oracle_page_reads", int, pctx)
    points = expect(pipeline, "points", list, pctx)
    if points is None:
        return
    before = len(_errors)
    for i, point in enumerate(points):
        if not isinstance(point, dict):
            err(f"{pctx}.points[{i}]: must be an object")
            return
        sub = f"{pctx}.points[{i}]"
        w = expect(point, "workers", int, sub)
        if w is not None and w < 1:
            err(f"{sub}: workers must be >= 1, got {w}")
        for field in ("wall_s", "qps", "speedup_vs_legacy"):
            value = expect(point, field, (int, float), sub)
            if value is not None and value <= 0:
                err(f"{sub}: {field} must be positive, got {value}")
        for field in ("page_reads", "random_reads", "sequential_reads"):
            value = expect(point, field, int, sub)
            if value is not None and value < 0:
                err(f"{sub}: {field} must be >= 0, got {value}")
    if len(_errors) > before:
        return
    if [p["workers"] for p in points] != workers:
        err(f"{pctx}: points sweep {[p['workers'] for p in points]} "
            f"!= declared workers {workers}")
    # Byte-identity to the serial batch oracle shows up as exactly the
    # oracle's page count at every sweep point.
    if oracle is not None:
        for point in points:
            if point["page_reads"] != oracle:
                err(f"{pctx}: workers={point['workers']} read "
                    f"{point['page_reads']} pages, the oracle read "
                    f"{oracle}")
    # The serving configuration must not lose to the legacy sweep at
    # the largest worker count.
    legacy_by_workers = {p["workers"]: p["qps"] for p in legacy_points
                         if isinstance(p, dict) and "workers" in p
                         and "qps" in p}
    last = points[-1]
    legacy_qps = legacy_by_workers.get(last["workers"])
    if legacy_qps is not None and last["qps"] < legacy_qps:
        err(f"{pctx}: qps {last['qps']} at workers={last['workers']} "
            f"below the legacy sweep's {legacy_qps}")


def check_common(doc: dict) -> None:
    """Envelope checks shared by every experiment artifact."""
    version = expect(doc, "schema_version", int, "top level")
    if version is not None and version != SCHEMA_VERSION:
        err(f"top level: schema_version {version} != {SCHEMA_VERSION}")
    expect(doc, "smoke", bool, "top level")

    field = expect(doc, "field", dict, "top level")
    if field is not None:
        expect(field, "type", str, "field")
        side = expect(field, "cells_per_side", int, "field")
        cells = expect(field, "cells", int, "field")
        if side is not None and cells is not None and side * side != cells:
            err(f"field: cells_per_side² = {side * side} != cells {cells}")

    workload = expect(doc, "workload", dict, "top level")
    if workload is not None:
        queries = expect(workload, "queries", int, "workload")
        per_q = expect(workload, "per_qinterval", int, "workload")
        qintervals = expect(workload, "qintervals", list, "workload")
        expect(workload, "seed", int, "workload")
        expect(workload, "estimate", str, "workload")
        if None not in (queries, per_q, qintervals) \
                and queries != per_q * len(qintervals):
            err(f"workload: queries {queries} != per_qinterval {per_q} "
                f"x {len(qintervals)} qintervals")


def validate_throughput(doc: dict) -> str:
    check_common(doc)

    device = expect(doc, "device_model", dict, "top level")
    if device is not None:
        for key in ("random_read_ms", "sequential_read_ms", "scale"):
            expect(device, key, (int, float), "device_model")

    workers = expect(doc, "workers", list, "top level")
    if workers is not None:
        if not workers or not all(isinstance(w, int) and w >= 1
                                  for w in workers):
            err(f"top level: workers must be a non-empty list of "
                f"ints >= 1, got {workers}")
        elif workers != sorted(workers):
            err(f"top level: workers must be ascending, got {workers}")

    methods = expect(doc, "methods", list, "top level")
    if methods is None or workers is None:
        return ""
    names = set()
    for entry in methods:
        if not isinstance(entry, dict):
            err("methods: every entry must be an object")
            return ""
        names.add(entry.get("method"))
        check_method(entry, workers)
    missing = REQUIRED_METHODS - names
    if missing:
        err(f"methods: missing {sorted(missing)}")
    return f"{len(methods)} methods, workers {workers}"


def check_update_step(step: dict, baseline: dict | None, ctx: str) -> None:
    applied = expect(step, "updates_applied", int, ctx)
    if applied is not None and applied < 0:
        err(f"{ctx}: updates_applied must be >= 0, got {applied}")
    fraction = expect(step, "fraction", (int, float), ctx)
    if fraction is not None and not 0 < fraction <= 1:
        err(f"{ctx}: fraction must be in (0, 1], got {fraction}")
    pages = expect(step, "page_reads", dict, ctx)
    if pages is not None:
        for method in REQUIRED_METHODS:
            reads = expect(pages, method, int, f"{ctx}.page_reads")
            if reads is not None and reads <= 0:
                err(f"{ctx}: page_reads[{method}] must be positive, "
                    f"got {reads}")
    ratios = expect(step, "ratio_vs_baseline", dict, ctx)
    if ratios is not None and baseline is not None and pages is not None:
        for method in REQUIRED_METHODS & set(ratios) & set(pages):
            base = baseline.get(method)
            if isinstance(base, int) and base > 0 \
                    and isinstance(pages.get(method), int):
                want = pages[method] / base
                got = ratios[method]
                if not isinstance(got, (int, float)) \
                        or abs(got - want) > 1e-3:
                    err(f"{ctx}: ratio_vs_baseline[{method}] {got} "
                        f"inconsistent with page_reads/baseline "
                        f"{want:.4f}")
    staleness = expect(step, "ih_staleness", dict, ctx)
    if staleness is not None:
        for key in ("subfields", "stale_subfields"):
            expect(staleness, key, int, f"{ctx}.ih_staleness")
        for key in ("max_drift", "mean_drift"):
            expect(staleness, key, (int, float), f"{ctx}.ih_staleness")
    for key in ("ih_maint_page_reads", "ih_maint_page_writes"):
        value = expect(step, key, int, ctx)
        if value is not None and value < 0:
            err(f"{ctx}: {key} must be >= 0, got {value}")


def validate_update(doc: dict) -> str:
    check_common(doc)

    updates = expect(doc, "updates", dict, "top level")
    if updates is not None:
        count = expect(updates, "count", int, "updates")
        if count is not None and count < 1:
            err(f"updates: count must be >= 1, got {count}")
        expect(updates, "seed", int, "updates")
        expect(updates, "distribution", str, "updates")

    baseline = expect(doc, "baseline_page_reads", dict, "top level")
    if baseline is not None:
        missing = REQUIRED_METHODS - set(baseline)
        if missing:
            err(f"baseline_page_reads: missing {sorted(missing)}")
        for method, reads in baseline.items():
            if not isinstance(reads, int) or reads <= 0:
                err(f"baseline_page_reads[{method}]: must be a positive "
                    f"int, got {reads!r}")

    steps = expect(doc, "steps", list, "top level")
    if steps is not None:
        if not steps:
            err("steps: must not be empty")
        last_applied = 0
        last_maint = -1
        for i, step in enumerate(steps):
            if not isinstance(step, dict):
                err(f"steps[{i}]: must be an object")
                continue
            check_update_step(step, baseline, f"steps[{i}]")
            applied = step.get("updates_applied")
            if isinstance(applied, int):
                if applied < last_applied:
                    err(f"steps[{i}]: updates_applied {applied} not "
                        f"ascending (previous {last_applied})")
                last_applied = applied
            maint = step.get("ih_maint_page_reads")
            if isinstance(maint, int):
                if maint < last_maint:
                    err(f"steps[{i}]: ih_maint_page_reads {maint} "
                        f"decreased (cumulative counter)")
                last_maint = maint

    final = expect(doc, "final", dict, "top level")
    if final is None:
        return ""
    equivalent = expect(final, "equivalent_to_rebuild", bool, "final")
    if equivalent is False:
        err("final: equivalent_to_rebuild is false — updated indexes "
            "diverged from a from-scratch rebuild")
    compaction = expect(final, "compaction", dict, "final")
    ratio = None
    if compaction is not None:
        for key in ("degraded_page_reads", "compacted_page_reads",
                    "fresh_page_reads", "reclustered_cells",
                    "subfields_before", "subfields_after"):
            value = expect(compaction, key, int, "final.compaction")
            if value is not None and value < 0:
                err(f"final.compaction: {key} must be >= 0, got {value}")
        ratio = expect(compaction, "recovery_ratio", (int, float),
                       "final.compaction")
        if ratio is not None and ratio > COMPACT_RECOVERY_LIMIT:
            err(f"final.compaction: recovery_ratio {ratio} > "
                f"{COMPACT_RECOVERY_LIMIT} — compaction failed to "
                f"restore fresh-build query cost")
    recovered = expect(final, "wal_recovery", bool, "final")
    if recovered is False:
        err("final: wal_recovery is false — WAL replay lost an "
            "acknowledged update")
    parts = [f"{len(doc.get('steps') or [])} update steps"]
    if ratio is not None:
        parts.append(f"compaction recovery {ratio:g}")
    return ", ".join(parts)


def check_tenant(entry: dict, workload_queries: int | None) -> None:
    name = entry.get("tenant", "<unnamed>")
    ctx = f"tenants[{name}]"
    expect(entry, "tenant", str, ctx)
    clients = expect(entry, "clients", int, ctx)
    if clients is not None and clients < 1:
        err(f"{ctx}: clients must be >= 1, got {clients}")
    queries = expect(entry, "queries", int, ctx)
    errors = expect(entry, "errors", int, ctx)
    if errors is not None and errors != 0:
        err(f"{ctx}: {errors} requests got error responses")
    if None not in (queries, clients, workload_queries) \
            and queries != clients * workload_queries:
        err(f"{ctx}: queries {queries} != clients {clients} x "
            f"{workload_queries} queries/client")
    for field in ("wall_s", "qps"):
        value = expect(entry, field, (int, float), ctx)
        if value is not None and value <= 0:
            err(f"{ctx}: {field} must be positive, got {value}")
    latency = expect(entry, "latency_ms", dict, ctx)
    if latency is not None:
        previous = 0.0
        for key in ("p50", "p95", "p99", "max"):
            value = expect(latency, key, (int, float),
                           f"{ctx}.latency_ms")
            if value is None:
                continue
            if value < previous:
                err(f"{ctx}.latency_ms: {key} {value} below a lower "
                    f"percentile ({previous}) — not a distribution")
            previous = value
        expect(latency, "mean", (int, float), f"{ctx}.latency_ms")
    pool = expect(entry, "pool", dict, ctx)
    if pool is not None:
        for key in ("hits", "misses", "bytes_read"):
            value = expect(pool, key, int, f"{ctx}.pool")
            if value is not None and value < 0:
                err(f"{ctx}.pool: {key} must be >= 0, got {value}")


def validate_serve(doc: dict) -> str:
    check_common(doc)

    workload = doc.get("workload")
    workload_queries = (workload.get("queries")
                        if isinstance(workload, dict) else None)

    server = expect(doc, "server", dict, "top level")
    n_tenants = clients_per_tenant = None
    if server is not None:
        for key in ("engine_workers", "executor_workers", "tenants",
                    "clients_per_tenant", "total_requests"):
            value = expect(server, key, int, "server")
            if value is not None and value < 1:
                err(f"server: {key} must be >= 1, got {value}")
        n_tenants = server.get("tenants")
        clients_per_tenant = server.get("clients_per_tenant")
        if isinstance(n_tenants, int) and n_tenants < 2:
            err(f"server: a multi-tenant run needs >= 2 tenants, "
                f"got {n_tenants}")
        if isinstance(n_tenants, int) \
                and isinstance(clients_per_tenant, int) \
                and n_tenants * clients_per_tenant < 8:
            err(f"server: {n_tenants} x {clients_per_tenant} clients "
                f"< the 8 concurrent connections the run must drive")

    tenants = expect(doc, "tenants", list, "top level")
    if tenants is not None:
        if isinstance(n_tenants, int) and len(tenants) != n_tenants:
            err(f"tenants: {len(tenants)} entries != server.tenants "
                f"{n_tenants}")
        for entry in tenants:
            if not isinstance(entry, dict):
                err("tenants: every entry must be an object")
                return ""
            check_tenant(entry, workload_queries)

    totals = expect(doc, "totals", dict, "top level")
    if totals is not None:
        queries = expect(totals, "queries", int, "totals")
        for key in ("wall_s", "qps"):
            value = expect(totals, key, (int, float), "totals")
            if value is not None and value <= 0:
                err(f"totals: {key} must be positive, got {value}")
        if isinstance(tenants, list) and queries is not None:
            per_tenant = [t.get("queries") for t in tenants
                          if isinstance(t, dict)]
            if all(isinstance(q, int) for q in per_tenant) \
                    and sum(per_tenant) != queries:
                err(f"totals: queries {queries} != sum of per-tenant "
                    f"queries {sum(per_tenant)}")

    equivalence = expect(doc, "equivalence", dict, "top level")
    if equivalence is not None:
        checked = expect(equivalence, "checked", int, "equivalence")
        mismatches = expect(equivalence, "mismatches", int,
                            "equivalence")
        if checked is not None and checked < 1:
            err(f"equivalence: checked must be >= 1, got {checked}")
        if mismatches is not None and mismatches != 0:
            err(f"equivalence: {mismatches} responses diverged from "
                f"direct engine answers")

    obs = expect(doc, "observability", dict, "top level")
    if obs is not None:
        rate = expect(obs, "trace_sample_rate", (int, float),
                      "observability")
        if rate is not None and not 0 <= rate <= 1:
            err(f"observability: trace_sample_rate must be in [0, 1], "
                f"got {rate}")
        for key in ("sampled_spans", "trace_span_events",
                    "qlog_entries"):
            value = expect(obs, key, int, "observability")
            if value is not None and value < 1:
                err(f"observability: {key} must be >= 1 (the artifact "
                    f"pass must record something), got {value}")
        wait = expect(obs, "admission_wait_ms", dict, "observability")
        if wait is not None:
            previous = 0.0
            for key in ("p50", "p95", "p99"):
                value = expect(wait, key, (int, float),
                               "observability.admission_wait_ms")
                if value is None:
                    continue
                if value < 0:
                    err(f"observability.admission_wait_ms: {key} must "
                        f"be >= 0, got {value}")
                elif value < previous:
                    err(f"observability.admission_wait_ms: {key} "
                        f"{value} below a lower percentile "
                        f"({previous}) — not a distribution")
                if value is not None and value >= 0:
                    previous = max(previous, value)
    n = len(tenants) if isinstance(tenants, list) else 0
    qps = (totals or {}).get("qps")
    return (f"{n} tenants"
            + (f", {qps} q/s total" if isinstance(qps, (int, float))
               else ""))


def validate_shard(doc: dict) -> str:
    check_common(doc)

    workload = doc.get("workload")
    workload_queries = (workload.get("queries")
                        if isinstance(workload, dict) else None)

    device = expect(doc, "device_model", dict, "top level")
    if device is not None:
        for key in ("random_read_ms", "sequential_read_ms"):
            value = expect(device, key, (int, float), "device_model")
            if value is not None and value <= 0:
                err(f"device_model: {key} must be positive, got {value}")

    base_ms = expect(doc, "baseline_device_ms", (int, float), "top level")
    if base_ms is not None and base_ms <= 0:
        err(f"baseline_device_ms must be positive, got {base_ms}")

    cache = expect(doc, "remote_cache_pages", int, "top level")
    if cache is not None and cache < 1:
        err(f"remote_cache_pages must be >= 1, got {cache}")

    sweep = expect(doc, "sweep", list, "top level")
    max_speedup = None
    if sweep is not None:
        if not sweep:
            err("sweep: must contain at least one shard-count entry")
        previous_shards = 0
        for i, entry in enumerate(sweep):
            ctx = f"sweep[{i}]"
            if not isinstance(entry, dict):
                err(f"{ctx}: every entry must be an object")
                continue
            requested = expect(entry, "shards_requested", int, ctx)
            built = expect(entry, "shards_built", int, ctx)
            if requested is not None:
                if requested <= previous_shards:
                    err(f"{ctx}: shard counts must be strictly "
                        f"ascending, got {requested} after "
                        f"{previous_shards}")
                previous_shards = requested
                if built is not None and not 1 <= built <= requested:
                    err(f"{ctx}: shards_built {built} outside "
                        f"[1, {requested}]")
            verified = expect(entry, "verified", int, ctx)
            mismatches = expect(entry, "mismatches", int, ctx)
            if mismatches is not None and mismatches != 0:
                err(f"{ctx}: {mismatches} sharded answers diverged "
                    f"from the unsharded engine")
            if verified is not None and workload_queries is not None \
                    and verified != workload_queries:
                err(f"{ctx}: verified {verified} != workload queries "
                    f"{workload_queries}")
            reads = expect(entry, "page_reads", int, ctx)
            if reads is not None and reads < 1:
                err(f"{ctx}: page_reads must be >= 1, got {reads}")
            for key in ("device_ms", "speedup"):
                value = expect(entry, key, (int, float), ctx)
                if value is not None and value <= 0:
                    err(f"{ctx}: {key} must be positive, got {value}")
            speedup = entry.get("speedup")
            if isinstance(speedup, (int, float)):
                max_speedup = max(max_speedup or 0.0, speedup)
            remote = expect(entry, "remote", dict, ctx)
            if remote is not None:
                for key in ("fetches", "evictions", "local_hits",
                            "puts"):
                    value = expect(remote, key, int, f"{ctx}.remote")
                    if value is not None and value < 0:
                        err(f"{ctx}.remote: {key} must be >= 0, "
                            f"got {value}")
                puts = remote.get("puts")
                if isinstance(puts, int) and puts < 1:
                    err(f"{ctx}.remote: a tiered run must upload "
                        f"pages (puts >= 1), got {puts}")
        if len(sweep) > 1 and max_speedup is not None \
                and max_speedup <= 1.0:
            err(f"sweep: best scale-out speedup {max_speedup} <= 1.0 "
                f"— sharding regressed the device-model cost")

    equivalence = expect(doc, "equivalence", dict, "top level")
    if equivalence is not None:
        checked = expect(equivalence, "checked", int, "equivalence")
        mismatches = expect(equivalence, "mismatches", int,
                            "equivalence")
        if checked is not None and checked < 1:
            err(f"equivalence: checked must be >= 1, got {checked}")
        if mismatches is not None and mismatches != 0:
            err(f"equivalence: {mismatches} sharded answers diverged "
                f"from the unsharded engine")
        if checked is not None and isinstance(sweep, list) \
                and workload_queries is not None \
                and checked != workload_queries * len(sweep):
            err(f"equivalence: checked {checked} != "
                f"{workload_queries} queries x {len(sweep)} "
                f"shard counts")

    n = len(sweep) if isinstance(sweep, list) else 0
    return (f"{n} shard counts"
            + (f", best speedup {max_speedup}x"
               if isinstance(max_speedup, (int, float)) else ""))


#: Kernels every micro artifact must time (the vectorized hot path, the
#: aggregate-model refit and the fused fetch + candidate filter).
REQUIRED_KERNELS = {"estimate_kernel", "filter_pack", "page_decode",
                    "hilbert_keys", "group_cells", "rtree_search",
                    "curve_fit", "page_filter"}
#: Acceptance bars for the ingest section of the micro artifact.
MICRO_MIN_BULK_CELLS = 1_000_000
MICRO_MIN_BULK_SPEEDUP = 10.0


def validate_micro(doc: dict) -> str:
    version = expect(doc, "schema_version", int, "top level")
    if version is not None and version != SCHEMA_VERSION:
        err(f"top level: schema_version {version} != {SCHEMA_VERSION}")
    smoke = expect(doc, "smoke", bool, "top level")
    if smoke:
        err("top level: the committed micro artifact must come from a "
            "full run (smoke runs write no JSON)")
    expect(doc, "seed", int, "top level")

    gate = expect(doc, "gate", dict, "top level")
    if gate is not None:
        ratio = expect(gate, "max_ratio", (int, float), "gate")
        if ratio is not None and ratio <= 1.0:
            err(f"gate: max_ratio must be > 1.0, got {ratio}")

    kernels = expect(doc, "kernels", dict, "top level")
    if kernels is not None:
        missing = REQUIRED_KERNELS - set(kernels)
        if missing:
            err(f"kernels: missing {sorted(missing)}")
        for name, stats in kernels.items():
            ctx = f"kernels[{name}]"
            if not isinstance(stats, dict):
                err(f"{ctx}: must be an object")
                continue
            ops = expect(stats, "ops_per_round", int, ctx)
            if ops is not None and ops < 1:
                err(f"{ctx}: ops_per_round must be >= 1, got {ops}")
            rounds = expect(stats, "rounds", int, ctx)
            if rounds is not None and rounds < 3:
                err(f"{ctx}: rounds must be >= 3, got {rounds}")
            best = expect(stats, "best_ns_per_op", (int, float), ctx)
            median = expect(stats, "median_ns_per_op", (int, float), ctx)
            if best is not None and best <= 0:
                err(f"{ctx}: best_ns_per_op must be positive, got {best}")
            if None not in (best, median) and median < best:
                err(f"{ctx}: median_ns_per_op {median} below best "
                    f"{best} — not a distribution")

    ingest = expect(doc, "ingest", dict, "top level")
    speedup = None
    if ingest is not None:
        bulk = expect(ingest, "bulk", dict, "ingest")
        if bulk is not None:
            cells = expect(bulk, "cells", int, "ingest.bulk")
            if cells is not None and cells < MICRO_MIN_BULK_CELLS:
                err(f"ingest.bulk: cells {cells} below the "
                    f"{MICRO_MIN_BULK_CELLS}-cell acceptance bar")
            cps = expect(bulk, "cells_per_second", (int, float),
                         "ingest.bulk")
            if cps is not None and cps <= 0:
                err(f"ingest.bulk: cells_per_second must be positive, "
                    f"got {cps}")
        incremental = expect(ingest, "incremental", dict, "ingest")
        if incremental is not None:
            cps = expect(incremental, "cells_per_second", (int, float),
                         "ingest.incremental")
            if cps is not None and cps <= 0:
                err(f"ingest.incremental: cells_per_second must be "
                    f"positive, got {cps}")
        speedup = expect(ingest, "speedup_bulk_vs_incremental",
                         (int, float), "ingest")
        if speedup is not None and speedup < MICRO_MIN_BULK_SPEEDUP:
            err(f"ingest: speedup_bulk_vs_incremental {speedup} below "
                f"the {MICRO_MIN_BULK_SPEEDUP}x acceptance bar")
    n = len(kernels) if isinstance(kernels, dict) else 0
    return (f"{n} kernels"
            + (f", bulk ingest {speedup}x vs per-insert"
               if isinstance(speedup, (int, float)) else ""))


#: Configurations every committed aggregate frontier must report.
AGGREGATE_CONFIGS = {"exact", "hybrid-1pct", "hybrid-0.1pct", "model"}
AGGREGATE_KINDS = {"count", "sum", "area"}


def validate_aggregate(doc: dict) -> str:
    version = expect(doc, "schema_version", int, "top level")
    if version is not None and version != SCHEMA_VERSION:
        err(f"top level: schema_version {version} != {SCHEMA_VERSION}")
    smoke = expect(doc, "smoke", bool, "top level")
    if smoke:
        err("top level: the committed aggregate artifact must come from "
            "a full run (smoke runs write no JSON)")

    field = expect(doc, "field", dict, "top level")
    if field is not None:
        cells = expect(field, "cells", int, "field")
        if cells is not None and cells < 4096:
            err(f"field: cells {cells} below the 4096-cell "
                f"acceptance bar")

    workload = expect(doc, "workload", dict, "top level")
    if workload is not None:
        queries = expect(workload, "queries", int, "workload")
        if queries is not None and queries < 24:
            err(f"workload: queries {queries} below 24")
        kinds = expect(workload, "kinds", list, "workload")
        if kinds is not None and AGGREGATE_KINDS - set(kinds):
            err(f"workload: kinds missing "
                f"{sorted(AGGREGATE_KINDS - set(kinds))}")

    model = expect(doc, "model", dict, "top level")
    if model is not None:
        degree = expect(model, "degree", int, "model")
        if degree is not None and not 1 <= degree <= 8:
            err(f"model: degree {degree} outside [1, 8]")
        subfields = expect(model, "subfields", int, "model")
        if subfields is not None and subfields < 1:
            err(f"model: subfields must be >= 1, got {subfields}")
        expect(model, "nbytes", int, "model")
        fit = expect(model, "fit_seconds", (int, float), "model")
        if fit is not None and fit < 0:
            err(f"model: fit_seconds must be >= 0, got {fit}")

    gate = expect(doc, "gate", dict, "top level")
    max_slowdown = None
    if gate is not None:
        max_slowdown = expect(gate, "max_slowdown", (int, float), "gate")
        if max_slowdown is not None and max_slowdown <= 1.0:
            err(f"gate: max_slowdown must be > 1.0, got {max_slowdown}")

    configs = expect(doc, "configs", list, "top level")
    by_name = {}
    if configs is not None:
        for i, entry in enumerate(configs):
            ctx = f"configs[{i}]"
            if not isinstance(entry, dict):
                err(f"{ctx}: must be an object")
                continue
            name = expect(entry, "name", str, ctx)
            if name is not None:
                by_name[name] = entry
            wall = expect(entry, "wall_seconds", (int, float), ctx)
            if wall is not None and wall <= 0:
                err(f"{ctx}: wall_seconds must be positive, got {wall}")
            ops = expect(entry, "ops", int, ctx)
            if ops is not None and ops < 1:
                err(f"{ctx}: ops must be >= 1, got {ops}")
            pages = expect(entry, "pages", int, ctx)
            if pages is not None and pages < 0:
                err(f"{ctx}: pages must be >= 0, got {pages}")
            expect(entry, "max_rel_error_pct", (int, float), ctx)
        missing = AGGREGATE_CONFIGS - set(by_name)
        if missing:
            err(f"configs: missing {sorted(missing)}")

    # Semantic checks on the frontier itself.
    if AGGREGATE_CONFIGS <= set(by_name):
        exact = by_name["exact"]
        model_cfg = by_name["model"]
        hybrid = by_name["hybrid-1pct"]
        if model_cfg.get("pages", 0) != 0:
            err(f"configs[model]: a pure-model run must read 0 pages, "
                f"got {model_cfg.get('pages')}")
        if exact.get("max_rel_error_pct", 0) != 0:
            err("configs[exact]: exact error must be 0")
        if isinstance(exact.get("wall_seconds"), (int, float)) and \
                isinstance(hybrid.get("wall_seconds"), (int, float)) \
                and max_slowdown is not None:
            ratio = hybrid["wall_seconds"] / exact["wall_seconds"]
            if ratio > max_slowdown:
                err(f"configs: hybrid-1pct wall {ratio:.2f}x exact "
                    f"exceeds the {max_slowdown}x gate")
        if isinstance(model_cfg.get("ops_per_second"), (int, float)) \
                and isinstance(exact.get("ops_per_second"),
                               (int, float)) \
                and model_cfg["ops_per_second"] \
                <= exact["ops_per_second"]:
            err("configs: model ops/s not above exact ops/s — the "
                "frontier collapsed")

    equivalence = expect(doc, "equivalence", dict, "top level")
    if equivalence is not None:
        checked = expect(equivalence, "checked", int, "equivalence")
        if checked is not None and checked < 1:
            err("equivalence: no tolerance=0 answers checked")
        mismatches = expect(equivalence, "mismatches", int,
                            "equivalence")
        if mismatches:
            err(f"equivalence: {mismatches} hybrid tolerance=0 answers "
                f"diverged from exact")
    n = len(by_name)
    return f"{n} configs on the accuracy-vs-speed frontier"


VALIDATORS = {
    "throughput": validate_throughput,
    "update": validate_update,
    "serve": validate_serve,
    "shard": validate_shard,
    "micro": validate_micro,
    "aggregate": validate_aggregate,
}


def validate(doc) -> str:
    if not isinstance(doc, dict):
        err("top level: must be a JSON object")
        return ""
    experiment = expect(doc, "experiment", str, "top level")
    if experiment is None:
        return ""
    validator = VALIDATORS.get(experiment)
    if validator is None:
        err(f"top level: unknown experiment {experiment!r} "
            f"(known: {sorted(VALIDATORS)})")
        return ""
    return validator(doc)


def main(argv: list[str]) -> int:
    path = argv[1] if len(argv) > 1 else "BENCH_throughput.json"
    if len(argv) > 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not valid JSON: {exc}", file=sys.stderr)
        return 1
    detail = validate(doc)
    if _errors:
        for message in _errors:
            print(f"error: {path}: {message}", file=sys.stderr)
        return 1
    print(f"{path}: valid (schema v{SCHEMA_VERSION}, "
          f"{doc['experiment']}{': ' + detail if detail else ''})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
