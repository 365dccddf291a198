#!/usr/bin/env python3
"""The repository benchmark: two seeded workloads, checked answers.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 25 --trace 0

``serve-read`` serves Fig. 8a queries and hybrid aggregates over NDJSON
from a child process (open loop, Poisson arrivals), then runs a
closed-loop probe of WAL-logged update batches and a crash-reload
check; ``cold-sharded`` runs a closed loop through ``EngineFacade``
over a 4-shard ``ShardedEngine`` whose caches hold a small share of the
data, then an update probe.

``--trace 0`` is a timing run: no wrappers are installed, and the
end-to-end metrics are reported, every time rescaled to the reference
speed of ``speed.py`` (a fixed kernel timed on the engine's thread next
to the operations, so a slow stretch of a shared host cancels out; the
wall times are printed beside them).  ``--trace 1`` is the separate traced
run: the same schedule with the layer wrappers installed in the engine
host, reporting the per-layer metrics from its spans; its closed-loop
pin pass runs once untraced and once traced, and the difference is the
tracing overhead.  Every run checks every answer
against an in-process unsharded I-Hilbert oracle built from the same
seed, outside the timed loop, and the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The process exits 1 when any check failed, 2 on a usage or set-up
error (e.g. no ``src/`` next to the benchmark).

The workloads, sizes, rates, limits and the layer map are recorded in
``perfbench/spec.json``; ``python3 perfbench/steady.py`` repeats runs
over seeds and prints each metric's quartile spread.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

FIELD = "terrain"
now_ns = time.perf_counter_ns


# -- the engine host child ----------------------------------------------------

class Host:
    """The engine-hosting child process and its JSON-line control pipe."""

    def __init__(self, workload: str, seed: int, workdir: Path,
                 trace: bool) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "host.py"), "--workload", workload,
             "--seed", str(seed), "--workdir", str(workdir),
             "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
            cwd=ROOT)
        self._buf = b""

    def read(self, timeout_s: float = 120.0) -> dict:
        deadline = time.monotonic() + timeout_s
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("engine host did not answer in time")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    raise RuntimeError(
                        f"engine host exited (code {self.proc.wait()})")
                self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return json.loads(line)

    def call(self, cmd: dict, timeout_s: float = 120.0) -> dict:
        self.proc.stdin.write((json.dumps(cmd) + "\n").encode())
        return self.read(timeout_s)

    def close(self) -> None:
        """Ask the host to stop its server and exit; kill if it hangs."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(b'{"cmd":"exit"}\n')
                self.proc.wait(30)
            except (OSError, subprocess.TimeoutExpired):
                pass
        self.kill()

    def kill(self) -> None:
        """SIGKILL (no checkpoint, no drain) and reap."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()


def frame(rid, op) -> dict:
    return {"id": rid, "op": op.kind, "field": FIELD, **op.params}


# -- the oracle -----------------------------------------------------------------

class Oracle:
    """Unsharded in-process I-Hilbert index over the same seeded field.

    Answers are cached per (pool entry, generation); ``advance`` applies
    the next acknowledged update batch.
    """

    def __init__(self, spec: dict, workload: str) -> None:
        import inputs
        from repro.core.ihilbert import IHilbertIndex
        self.field = inputs.make_field(spec, workload)
        self.index = IHilbertIndex(self.field, cache_pages=0)
        self.generation = 0
        self._queries: dict = {}
        self._aggregates: dict = {}

    def query(self, op) -> dict:
        key = (op.pool_index, self.generation)
        hit = self._queries.get(key)
        if hit is None:
            from repro.core.query import ValueQuery
            pool = self.index.store.pool
            before = pool.hits + pool.misses
            r = self.index.query(ValueQuery(op.params["lo"], op.params["hi"]))
            hit = {"candidates": r.candidate_count, "area": r.area,
                   "pages": r.io.page_reads + r.io.cache_hits,
                   "data_pages": pool.hits + pool.misses - before}
            self._queries[key] = hit
        return hit

    def aggregate(self, op) -> float:
        key = (op.pool_index, self.generation)
        hit = self._aggregates.get(key)
        if hit is None:
            from repro.core.aggregate import exact_aggregate
            p = op.params
            hit = exact_aggregate(self.index, p["kind"], p["lo"],
                                  p["hi"]).value
            self._aggregates[key] = hit
        return hit

    def advance(self, update_op) -> None:
        p = update_op.params
        self.index.apply_updates(p["vertex_ids"], p["values"])
        self.generation += 1


def answer_ok(op, reply: dict, oracle: Oracle) -> bool:
    """A query equals the oracle (candidates, area bit for bit); an
    aggregate lies within its reported bound of the exact answer."""
    if op.kind == "query":
        want = oracle.query(op)
        return (reply.get("candidates") == want["candidates"]
                and reply.get("area") == want["area"])
    bound = reply.get("bound")
    return (bound is not None
            and abs(reply["value"] - oracle.aggregate(op)) <= bound)


# -- metrics helpers ------------------------------------------------------------

class Report:
    """Collects metrics (value, unit, note) and failures of one run."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def put(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (float(value), unit, note)

    def latency(self, name: str, samples, nominal: float | None,
                min_beyond: int, what: str) -> None:
        """Median (``nominal`` None) or tail of ``(rescaled, wall)`` ms
        pairs; the metric is the rescaled one, the note shows wall time."""
        from stats import median, tail
        if not samples:
            raise RuntimeError(f"{name}: no samples")
        rescaled = [r for r, _ in samples]
        wall = [w for _, w in samples]
        if nominal is None:
            self.put(name, median(rescaled), "ms",
                     f"n={len(samples)} {what} wall={median(wall):.4g}")
        else:
            value, pct, n = tail(rescaled, nominal, min_beyond)
            self.put(name, value, "ms",
                     f"n={n} {what} percentile={pct * 100:.2f} "
                     f"wall={tail(wall, nominal, min_beyond)[0]:.4g}")

    def fail(self, count: int, what: str) -> None:
        if count:
            self.failed += count
            self.problems.append(f"{count} x {what}")

    def emit(self) -> int:
        for name, (value, unit, note) in self.metrics.items():
            print(f"{name:34s} {value:14.6g} {unit:6s} {note}")
        error_rate = self.failed / self.attempted if self.attempted else 1.0
        print(f"{'error_rate':34s} {error_rate:14.6g} {'ratio':6s} "
              f"n={self.attempted} (failed/attempted)")
        for problem in self.problems:
            print(f"FAILED: {problem}")
        correct = not self.problems
        print(json.dumps({
            "correct": correct, "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: {"value": v, "unit": u}
                        for n, (v, u, _) in self.metrics.items()}}))
        return 0 if correct else 1


# -- workloads ------------------------------------------------------------------

class Run:
    """One invocation: a workload, a seed, a measured duration."""

    def __init__(self, spec: dict, workload: str, seed: int,
                 seconds: float, workdir: Path) -> None:
        import inputs
        self.spec = spec
        self.name = workload
        self.wl = spec["workloads"][workload]
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.report = Report()
        self.field = inputs.make_field(spec, workload)
        self.queries = inputs.query_pool(spec, workload, seed, self.field)
        self.aggregates = inputs.aggregate_pool(spec, workload, seed,
                                                self.field)
        self.limits = spec["latency_limits_ms"]

    # -- set-up ---------------------------------------------------------------

    def start_host(self, trace: bool):
        """Start and warm an engine host; returns (host, ready info,
        seconds from start to ready)."""
        t0 = time.perf_counter()
        host = Host(self.name, self.seed, self.workdir, trace)
        try:
            info = host.read(300.0)
            self.warm_up(host, info)
        except BaseException:
            host.kill()
            raise
        return host, info, time.perf_counter() - t0

    def warm_up(self, host: Host, info: dict) -> None:
        """Load caches and code paths before anything is timed."""
        vr = self.field.value_range
        full = {"id": "w-full", "op": "query", "field": FIELD,
                "lo": float(vr.lo), "hi": float(vr.hi)}
        if self.wl["served"]:
            from loadgen import closed_loop_requests
            frames = [full] + [frame(f"w{k}", op) for k, op in
                               enumerate(self.queries[::30]
                                         + self.aggregates[:3])]
            replies = closed_loop_requests(tuple(info["address"]), frames)
            bad = [r for r, _, _ in replies.values() if not r.get("ok")]
            if bad:
                raise RuntimeError(f"warm-up request failed: {bad[0]}")
        else:
            host.call({"cmd": "loop", "seconds": 0.3, "prefix": "w"})

    def setup(self, trace: bool):
        """Set up ``setup_repeats`` times (fresh process each); keep the
        last host.  Returns (host, info, median set-up seconds rescaled
        to the reference speed at the end of each set-up)."""
        from stats import median
        times = []
        repeats = 1 if trace else self.spec["setup_repeats"]
        for k in range(repeats):
            if self.workdir.exists():
                shutil.rmtree(self.workdir)
            host, info, secs = self.start_host(trace)
            times.append(secs * self.spec["speed"]["reference_ms"]
                         / info["kernel_ms"])
            if k < repeats - 1:
                host.close()
        return host, info, median(times)

    # -- served open loop -----------------------------------------------------

    def schedule(self, seconds: float):
        """(frames, offsets, connections, ops by id) of the open loop."""
        import inputs
        reads_at = inputs.poisson_offsets(self.wl["offered_rate_per_s"],
                                          seconds, self.seed, self.name)
        reads = inputs.read_sequence(self.queries, self.aggregates,
                                     self.seed, self.name, len(reads_at),
                                     self.wl["queries_per_aggregate"])
        frames = [frame(rid, op) for rid, op in enumerate(reads)]
        conns = [rid % self.spec["client"]["connections"]
                 for rid in range(len(reads))]
        return frames, [float(t) for t in reads_at], conns, dict(
            enumerate(reads))

    def open_loop(self, info: dict, seconds: float):
        from loadgen import OpenLoop
        frames, offsets, conns, ops = self.schedule(seconds)
        loop = OpenLoop(tuple(info["address"]), frames, offsets, conns,
                        n_connections=self.spec["client"]["connections"])
        return loop.run(), ops

    def pin_pass_served(self, info: dict) -> list:
        """Each pooled query once, closed loop, at rest."""
        from loadgen import closed_loop_requests
        replies = closed_loop_requests(
            tuple(info["address"]),
            [frame(f"p{op.pool_index}", op) for op in self.queries])
        out = []
        for op in self.queries:
            r, ms, _ = replies[f"p{op.pool_index}"]
            io = r.get("io") or {}
            out.append({"candidates": r.get("candidates"), "ms": ms,
                        "area": r.get("area"), "ok": bool(r.get("ok")),
                        "pages": io.get("page_reads", 0)
                        + io.get("cache_hits", 0)})
        return out

    def write_probe_served(self, info: dict) -> tuple[list, list]:
        """Closed loop of update batches after the reads; returns their
        ``(station-cycle slot, sent_ns, latency ms)`` and the
        acknowledged batches, in order."""
        import inputs
        from loadgen import closed_loop_requests
        ops = inputs.update_batches(self.spec, self.name, self.seed,
                                    self.field,
                                    self.wl["write_probe_updates"])
        replies = closed_loop_requests(
            tuple(info["address"]),
            [frame(f"u{k}", op) for k, op in enumerate(ops)])
        self.report.attempted += len(replies)
        acked = [(op, replies[f"u{k}"]) for k, op in enumerate(ops)
                 if replies[f"u{k}"][0].get("ok")]
        self.report.fail(len(ops) - len(acked), "write-probe update refused")
        cycle = inputs.station_cycle(self.spec, self.name)
        return ([(k % cycle, t0, ms)
                 for k, (_, (_, ms, t0)) in enumerate(acked)],
                [op for op, _ in acked])

    # -- checks -----------------------------------------------------------------

    def check_reads(self, outcomes: dict, ops: dict, oracle: Oracle) -> None:
        """Oracle-check every answered read of the open loop."""
        wrong = sum(not answer_ok(ops[rid], out.reply, oracle)
                    for rid, out in outcomes.items()
                    if out.reply and out.reply.get("ok"))
        self.report.fail(wrong, "read answer differs from the oracle")

    def check_recorded(self, names) -> None:
        """Pinned counts equal the values recorded in ``spec.json`` for
        this seed and run length (recorded for the benchmark seed and the
        held-out one), so a change that moves a paper-fidelity count
        fails the run."""
        pins = self.spec["pins"]
        if self.seconds != pins.get("seconds"):
            return
        recorded = pins["values"].get(str(self.seed), {}).get(self.name)
        if not recorded:
            return
        moved = [n for n in names if n in recorded
                 and self.report.metrics[n][0] != recorded[n]]
        self.report.fail(len(moved), f"pinned count moved from its recorded "
                         f"value: {', '.join(moved)}")

    def check_pins(self, pins: list, oracle: Oracle, key: str) -> None:
        """Pinned counts and answers of the pin pass equal the oracle."""
        bad = 0
        for op, got in zip(self.queries, pins):
            want = oracle.query(op)
            bad += (got["candidates"] != want["candidates"]
                    or got["area"] != want["area"]
                    or got[key] != want[key])
        self.report.attempted += len(pins)
        self.report.fail(bad, f"pin-pass query differs from the oracle "
                         f"(candidates, area or {key})")

    # -- timing run -------------------------------------------------------------

    def timing(self) -> None:
        host, info, setup_s = self.setup(trace=False)
        rep = self.report
        rep.put("setup_s", setup_s, "s",
                f"median of {self.spec['setup_repeats']} fresh starts")
        try:
            if self.wl["served"]:
                self.timing_served(host, info)
            else:
                self.timing_inproc(host)
        finally:
            host.kill()
        rep.put("space_amp", info["space_amp"], "ratio",
                f"{info['data_pages']}+{info['index_pages']} pages")
        self.check_recorded(("pages_per_query", "space_amp"))

    def latency_metrics(self, samples: dict, rescale) -> None:
        """``samples[kind]`` are ``(slot, t_ns, wall ms)`` of the
        successful operations; ``rescale`` maps them to the reference
        speed.  Per the workload's ``latency_statistic``, the metrics are
        over every operation or over each slot's fastest repeat."""
        from stats import (SLOT_TAIL_MIN_BEYOND, TAIL_MIN_BEYOND,
                           fastest_by_slot)
        per_slot = self.wl["latency_statistic"] == "fastest repeat per slot"
        for kind, tail_name, nominal in (
                ("query", "query_p99_ms", 0.99),
                ("aggregate", "aggregate_p99_ms", 0.99),
                ("update", "update_p90_ms", 0.90)):
            scaled = [(slot, rescale(t, ms), ms)
                      for slot, t, ms in samples[kind]]
            if per_slot:
                pairs = list(fastest_by_slot(scaled).values())
                beyond, what = SLOT_TAIL_MIN_BEYOND, "slots"
            else:
                pairs = [(r, w) for _, r, w in scaled]
                beyond, what = TAIL_MIN_BEYOND, "ops"
            self.report.latency(f"{kind}_p50_ms", pairs, None, beyond, what)
            self.report.latency(tail_name, pairs, nominal, beyond, what)

    def rescaler(self, host_report: dict):
        """Rescaler of this run's timings to the reference speed, from
        the kernel timings the engine host recorded."""
        from stats import Rescaler, median
        speed = host_report["speed"]
        rescale = Rescaler(speed, self.spec["speed"]["reference_ms"])
        print(f"reference kernel: median "
              f"{median(d / 1e6 for _, d in speed):.4g} ms over "
              f"{len(speed)} timings (reference {rescale.reference_ms} ms)")
        return rescale

    def timing_served(self, host: Host, info: dict) -> None:
        rep = self.report
        oracle = Oracle(self.spec, self.name)
        outcomes, ops = self.open_loop(info, self.seconds)
        pins = self.pin_pass_served(info)
        updates, acked = self.write_probe_served(info)
        host_report = host.call({"cmd": "report"})
        host.kill()          # no checkpoint, no graceful stop
        rescale = self.rescaler(host_report)
        samples = defaultdict(list)
        good = failed = 0
        for rid, out in outcomes.items():
            if not (out.reply and out.reply.get("ok")):
                failed += 1
                continue
            kind = ops[rid].kind
            samples[kind].append((ops[rid].pool_index, out.scheduled_ns,
                                  out.latency_ms))
            good += (rescale(out.scheduled_ns, out.latency_ms)
                     <= self.limits[kind])
        rep.attempted += len(outcomes)
        rep.fail(failed, "timed request failed or got no reply")
        # The measured window: first scheduled send to last reply.
        window_s = (max(o.received_ns or 0 for o in outcomes.values())
                    - min(o.scheduled_ns for o in outcomes.values())) / 1e9
        n_queries = len(samples["query"])
        rep.put("query_qps", n_queries / window_s, "1/s",
                f"n={n_queries} over {window_s:.3f} s")
        rep.put("goodput_ops", good / window_s, "1/s",
                f"n={good} of {len(outcomes)} within {self.limits}")
        self.check_reads(outcomes, ops, oracle)
        # The reads change nothing, so each pooled query's page count
        # must repeat exactly.
        seen = {}
        for rid, out in outcomes.items():
            if ops[rid].kind == "query" and out.reply and out.reply.get("ok"):
                io = out.reply["io"]
                seen.setdefault(ops[rid].pool_index, set()).add(
                    io["page_reads"] + io["cache_hits"])
        rep.fail(sum(v != {pins[k]["pages"]} for k, v in seen.items()),
                 "page count of a pooled query drifted")
        self.check_pins(pins, oracle, "pages")
        rep.put("pages_per_query",
                sum(p["pages"] for p in pins) / len(pins), "pages",
                f"mean over {len(pins)} pooled queries (pinned)")
        samples["update"] = updates
        self.durability(oracle, acked)
        self.latency_metrics(samples, rescale)
        rep.put("rss_mb", host_report["rss_mb"], "MB",
                "peak RSS of the engine host")

    def durability(self, oracle: Oracle, acked: list) -> None:
        """Reload snapshot + WAL after the kill; every acknowledged
        update must be visible, and nothing else."""
        from repro.core.persist import load_index
        from repro.core.query import ValueQuery
        rep = self.report
        snap = self.workdir / "snapshot"
        index = load_index(snap, replay_wal=False)
        wal = index.attach_wal(snap / "wal.log", replay=True)
        try:
            lost = len(acked) - len(wal.pending)
            rep.fail(abs(lost), "acknowledged update missing from the WAL "
                     "(or unacknowledged one present)")
            while oracle.generation < len(acked):
                oracle.advance(acked[oracle.generation])
            bad = 0
            for op in self.queries:
                r = index.query(ValueQuery(op.params["lo"],
                                           op.params["hi"]))
                want = oracle.query(op)
                bad += (r.candidate_count != want["candidates"]
                        or r.area != want["area"]
                        or r.io.page_reads + r.io.cache_hits
                        != want["pages"])
            rep.attempted += len(self.queries)
            rep.fail(bad, "recovered index answers differ from the oracle "
                     "with exactly the acknowledged updates")
        finally:
            wal.close()

    def timing_inproc(self, host: Host) -> None:
        import inputs
        rep = self.report
        records = host.call({"cmd": "loop", "seconds": self.seconds,
                             "prefix": "t"}, 300.0)["records"]
        pins = host.call({"cmd": "pin"}, 300.0)["pins"]
        probe = host.call({"cmd": "updates",
                           "seconds": self.wl["write_probe_seconds"],
                           "count": self.wl["write_probe_updates"]},
                          300.0)["records"]
        host_report = host.call({"cmd": "report"})
        rescale = self.rescaler(host_report)
        samples = defaultdict(list)
        busy_s = 0.0
        good = failed = 0
        for r in records:
            if not r["ok"]:
                failed += 1
                continue
            ms = r["ns"] / 1e6
            samples[r["kind"]].append((r["pool"], r["t0"], ms))
            scaled = rescale(r["t0"], ms)
            busy_s += scaled / 1e3
            good += scaled <= self.limits[r["kind"]]
        rep.attempted += len(records)
        rep.fail(failed, "timed operation raised")
        rep.put("query_qps", len(samples["query"]) / busy_s, "1/s",
                f"n={len(samples['query'])} closed loop")
        rep.put("goodput_ops", good / busy_s, "1/s",
                f"n={good} of {len(records)} within {self.limits}")
        cycle = inputs.station_cycle(self.spec, self.name)
        samples["update"] = [(k % cycle, r["t0"], r["ns"] / 1e6)
                             for k, r in enumerate(probe) if r["ok"]]
        rep.attempted += len(probe)
        rep.fail(sum(not r["ok"] for r in probe), "write-probe update raised")
        self.check_inproc(records, pins)
        rep.put("pages_per_query",
                sum(p["pages"] for p in pins) / len(pins), "pages",
                f"mean over {len(pins)} pooled queries (pinned)")
        self.latency_metrics(samples, rescale)
        rep.put("rss_mb", host_report["rss_mb"], "MB",
                "peak RSS of the engine host")

    def check_inproc(self, records: list, pins: list) -> None:
        """Sharded answers equal the unsharded oracle; sharded data-page
        counts equal the unsharded ones; page counts never drift."""
        oracle = Oracle(self.spec, self.name)
        pools = {"query": self.queries, "aggregate": self.aggregates}
        wrong = drift = 0
        for r in records:
            if not r["ok"]:
                continue
            op = pools[r["kind"]][r["pool"]]
            wrong += not answer_ok(op, r, oracle)
            if r["kind"] == "query":
                drift += r["pages"] != pins[r["pool"]]["pages"]
        self.report.fail(wrong, "sharded answer differs from the oracle")
        self.report.fail(drift, "page count of a pooled query drifted")
        self.check_pins(pins, oracle, "data_pages")

    # -- traced run -------------------------------------------------------------

    def traced(self) -> None:
        host, info, _ = self.setup(trace=True)
        try:
            if self.wl["served"]:
                joined, overhead, lags, trace = self.traced_served(host, info)
            else:
                joined, overhead, lags, trace = self.traced_inproc(host)
        finally:
            host.kill()
        from layers import layer_metrics
        for name, (value, unit, note) in layer_metrics(
                joined, trace, self.spec["trace"], lags,
                overhead).items():
            self.report.put(name, value, unit, note)
        self.check_recorded(("core.candidates_per_query",
                             "rstar.subfields_per_query"))
        residual = self.report.metrics.pop("trace.residual_ok")[0]
        if not residual:
            self.report.fail(1, "per-request layer self times do not sum "
                             "to the end-to-end time within the stated "
                             "residual")

    def traced_served(self, host: Host, info: dict):
        outcomes, ops = self.open_loop(info, self.seconds)
        overhead, pins = self.pin_overhead(
            host, lambda: self.pin_pass_served(info))
        self.write_probe_served(info)
        trace = host.call({"cmd": "report"}, 300.0)["trace"]
        rep = self.report
        rep.attempted += len(outcomes)
        rep.fail(sum(not (o.reply and o.reply.get("ok"))
                     for o in outcomes.values()),
                 "traced-run request failed or got no reply")
        oracle = Oracle(self.spec, self.name)
        self.check_reads(outcomes, ops, oracle)
        self.check_pins(pins, oracle, "pages")
        joined = [(ops[rid].kind, o.service_ms, str(rid))
                  for rid, o in outcomes.items()]
        joined += [("pin", None, f"p{k}") for k in range(len(pins))]
        joined += [("update", None, f"u{k}")
                   for k in range(self.wl["write_probe_updates"])]
        lags = [o.lag_ms for o in outcomes.values()]
        return joined, overhead, lags, trace

    def pin_overhead(self, host: Host, pin_pass):
        """Tracing overhead: the pin pass untraced, then traced (same
        queries, same state, closed loop); returns (percent, pins)."""
        from stats import median
        host.call({"cmd": "trace", "on": False})
        plain = pin_pass()
        host.call({"cmd": "trace", "on": True})
        traced = pin_pass()
        overhead = (median([p["ms"] for p in traced])
                    / median([p["ms"] for p in plain]) - 1.0) * 100.0
        return overhead, traced

    def traced_inproc(self, host: Host):
        records = host.call({"cmd": "loop", "seconds": self.seconds,
                             "prefix": "b"}, 300.0)["records"]

        def pin_pass():
            pins = host.call({"cmd": "pin"}, 300.0)["pins"]
            for p in pins:
                p["ms"] = p["ns"] / 1e6
            return pins

        overhead, pins = self.pin_overhead(host, pin_pass)
        probe = host.call({"cmd": "updates",
                           "seconds": self.wl["write_probe_seconds"],
                           "count": self.wl["write_probe_updates"]},
                          300.0)["records"]
        trace = host.call({"cmd": "report"}, 300.0)["trace"]
        self.report.attempted += len(records) + len(probe)
        self.report.fail(sum(not r["ok"] for r in records + probe),
                         "traced-run operation raised")
        self.check_inproc(records, pins)
        joined = [(r["kind"], r["ns"] / 1e6, r["id"]) for r in records]
        joined += [("pin", None, f"p{k}") for k in range(len(pins))]
        joined += [("update", r["ns"] / 1e6, r["id"]) for r in probe]
        return joined, overhead, [], trace


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs
    spec = inputs.load_spec()
    if args.workload not in spec["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r} (known: "
              f"{', '.join(spec['workloads'])})", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    run = Run(spec, args.workload, args.seed, args.seconds, workdir)
    try:
        if args.trace:
            run.traced()
        else:
            run.timing()
    except Exception as exc:    # reported as a failed run, not a crash
        import traceback
        traceback.print_exc()
        run.report.fail(1, f"benchmark aborted: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    return run.report.emit()


if __name__ == "__main__":
    sys.exit(main())
