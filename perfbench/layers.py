"""Per-layer metrics of the traced run, from per-request span summaries.

Layer times are per-request self times (a span's duration minus what
its child spans cover), summed over the request's spans of that layer;
``*_ms`` metrics are the median over the requests of the kinds that can
reach the layer (a request that did not reach it contributes 0).
Counts are sums divided by the number of operations named in the metric.
The pinned counts (candidates and subfields per query) come from the
pin pass, which runs every pooled query once at rest.
"""

from __future__ import annotations

from stats import median, tail

#: Every per-layer metric and its unit, in report order.
UNITS = {
    "serve.decode_ms": "ms",
    "serve.admission_wait_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.encode_ms": "ms",
    "serve.wire_ms": "ms",
    "core.facade_lock_wait_ms": "ms",
    "core.query_self_ms": "ms",
    "core.candidates_per_query": "count",
    "core.filter_precision": "ratio",
    "rstar.search_ms": "ms",
    "rstar.subfields_per_query": "count",
    "rstar.node_accesses_per_search": "count",
    "rstar.moves_per_update": "count",
    "storage.read_pages_ms": "ms",
    "storage.decode_ms": "ms",
    "storage.pages_per_call": "count",
    "storage.pool_hit_ratio": "ratio",
    "storage.evictions_per_query": "count",
    "storage.wal_append_ms": "ms",
    "storage.wal_bytes_per_update": "bytes",
    "storage.page_writes_per_update": "count",
    "field.estimate_ms": "ms",
    "field.estimate_cells_per_ms": "1/ms",
    "field.apply_updates_ms": "ms",
    "aggregate.evaluate_ms": "ms",
    "aggregate.exact_subfields_per_op": "count",
    "aggregate.model_subfields_per_op": "count",
    "aggregate.refit_ms": "ms",
    "aggregate.refits_per_update": "count",
    "aggregate.fit_s": "s",
    "shard.gather_self_ms": "ms",
    "shard.remote_fetches_per_query": "count",
    "shard.remote_hit_ratio": "ratio",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.trace_overhead_pct": "%",
    "trace.unattributed_pct": "%",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(joined, trace: dict, trace_spec: dict, lags,
                  overhead_pct: float) -> dict:
    """``{name: (value, unit, note)}`` plus ``trace.residual_ok``.

    ``joined`` lists ``(kind, end_to_end_ms or None, request id)`` for
    every traced request ("pin" marks pin-pass queries).
    """
    requests = trace["requests"]
    rows = {"query": [], "aggregate": [], "update": [], "pin": []}
    e2e = []
    for kind, ms, rid in joined:
        summary = requests.get(rid)
        if summary is None:
            raise RuntimeError(f"no spans recorded for request {rid!r}")
        rows[kind].append(summary)
        if ms is not None:
            e2e.append((ms, summary))
    reads = rows["query"] + rows["aggregate"]
    every = reads + rows["update"]

    def self_ms(summary, name):
        return summary["self_ns"].get(name, 0) / 1e6

    def med(name, group):
        vals = [self_ms(s, name) for s in group]
        return (median(vals), f"n={len(vals)}") if vals else (0.0, "n=0")

    def total(key, group):
        return sum(s["attrs"].get(key, 0) for s in group)

    def calls(name, group):
        return sum(s["count"].get(name, 0) for s in group)

    q, agg, upd, pins = (rows["query"], rows["aggregate"], rows["update"],
                         rows["pin"])
    out = {}

    def put(name, value, note=""):
        out[name] = (float(value), UNITS[name], note)

    for metric, span, group in (
            ("serve.decode_ms", "serve.decode", every),
            ("serve.admission_wait_ms", "serve.admission", every),
            ("serve.queue_wait_ms", "serve.queue_wait", every),
            ("serve.encode_ms", "serve.encode", every),
            ("core.query_self_ms", "core.query", q),
            ("rstar.search_ms", "rstar.search", q),
            ("storage.read_pages_ms", "storage.read_pages", q),
            ("storage.decode_ms", "storage.decode", q),
            ("storage.wal_append_ms", "storage.wal_append", upd),
            ("field.estimate_ms", "field.estimate", q),
            ("field.apply_updates_ms", "field.apply_updates", upd),
            ("aggregate.evaluate_ms", "aggregate.evaluate", agg),
            ("aggregate.refit_ms", "aggregate.refit", upd),
            ("shard.gather_self_ms", "shard.gather", q)):
        put(metric, *med(span, group))

    served = [(ms, s) for ms, s in e2e if s["root"] == "serve.request"]
    wire = [ms - s["root_ns"] / 1e6 for ms, s in served]
    put("serve.wire_ms", median(wire) if wire else 0.0, f"n={len(wire)}")
    lock = [self_ms(s, "core.facade") for s in every]
    put("core.facade_lock_wait_ms", sum(lock) / len(lock) if lock else 0.0,
        "mean (the tail is the point)")
    put("core.candidates_per_query",
        _ratio(total("core.query.candidates", pins), len(pins)),
        "pin pass (pinned)")
    put("core.filter_precision",
        _ratio(total("core.query.candidates", q),
               total("storage.read_pages.records", q)),
        "candidates / records decoded")
    put("rstar.subfields_per_query",
        _ratio(total("rstar.search.subfields", pins), len(pins)),
        "pin pass (pinned)")
    put("rstar.node_accesses_per_search",
        _ratio(total("rstar.search.nodes", every),
               calls("rstar.search", every)))
    put("rstar.moves_per_update",
        _ratio(calls("rstar.delete", upd), len(upd)))
    put("storage.pages_per_call",
        _ratio(total("storage.read_pages.pages", q),
               calls("storage.read_pages", q)))
    put("storage.pool_hit_ratio",
        _ratio(total("storage.read_pages.hits", q),
               total("storage.read_pages.pages", q)))
    put("storage.evictions_per_query",
        _ratio(total("storage.read_pages.evictions", q), len(q)),
        "buffer pool + remote-tier local cache")
    put("storage.wal_bytes_per_update",
        _ratio(total("storage.wal_append.bytes", upd), len(upd)))
    put("storage.page_writes_per_update",
        _ratio(total("core.update.page_writes", upd), len(upd)))
    est_ms = sum(self_ms(s, "field.estimate") for s in every)
    put("field.estimate_cells_per_ms",
        _ratio(total("field.estimate.cells", every), est_ms))
    put("aggregate.exact_subfields_per_op",
        _ratio(total("aggregate.evaluate.exact_subfields", agg), len(agg)))
    put("aggregate.model_subfields_per_op",
        _ratio(total("aggregate.evaluate.model_subfields", agg), len(agg)))
    put("aggregate.refits_per_update",
        _ratio(calls("aggregate.refit", upd), len(upd)))
    put("aggregate.fit_s",
        trace["unowned_ns"].get("aggregate.fit", 0) / 1e9, "set-up")
    fetches = total("storage.read_pages.remote_fetches", q)
    put("shard.remote_fetches_per_query", _ratio(fetches, len(q)))
    put("shard.remote_hit_ratio",
        _ratio(total("storage.read_pages.remote_hits", q),
               total("storage.read_pages.remote_hits", q) + fetches))
    if lags:
        value, pct, n = tail(lags, 0.99)
        put("loadgen.lag_p99_ms", value, f"n={n} percentile={pct * 100:.2f}")
    else:
        put("loadgen.lag_p99_ms", 0.0, "closed loop: no schedule")
    put("loadgen.trace_overhead_pct", overhead_pct,
        "pin pass traced vs untraced, median per query")

    # Residual: per request, the end-to-end time is the time outside the
    # root span (wire, or the in-process caller) + the self times of
    # every span in it.  Unattributed is what no named layer owns: the
    # serve-side request span's own self time (serve glue), or the
    # in-process caller's time outside the facade verb.
    shares, consistent = [], 0
    for ms, s in e2e:
        spans_ms = sum(s["self_ns"].values()) / 1e6
        root_ms = s["root_ns"] / 1e6
        # Child spans must lie inside their request's root span.
        consistent += abs(spans_ms - root_ms) <= 0.02 * root_ms + 0.01
        if s["root"] == "serve.request":
            unattributed = s["self_ns"]["serve.request"] / 1e6
        else:
            unattributed = ms - root_ms
        shares.append(unattributed / ms if ms > 0 else 0.0)
    within = sum(x <= trace_spec["max_unattributed_share"] for x in shares)
    ok = (bool(shares) and consistent == len(e2e)
          and within >= trace_spec["min_share_of_requests_within"]
          * len(shares))
    put("trace.unattributed_pct",
        median(shares) * 100.0 if shares else 0.0,
        f"n={len(shares)}, {within} within "
        f"{trace_spec['max_unattributed_share']:.0%}, "
        f"{consistent} consistent span trees")
    out["trace.residual_ok"] = (1.0 if ok else 0.0, "bool", "")
    return out
