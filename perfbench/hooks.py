"""Span wrappers around each layer's public entry points.

Installed only for the traced run, in whichever process hosts the
engine, and removed again by :meth:`Hooks.uninstall`; the timing runs
never install them.  No file of the program changes: each wrapper
replaces a module or class attribute and calls the original.

A span is ``(sid, parent_sid, request_id, name, t0_ns, t1_ns, attrs)``.
The current span and request id travel in context variables; the serve
executor is swapped for one that submits work inside a copy of the
caller's context, so engine spans on executor threads keep their
request's identity and parent (the serve-side request span).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import time
from concurrent.futures import ThreadPoolExecutor

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)
_REQUEST = contextvars.ContextVar("perfbench_request", default=None)
#: perf_counter_ns at which the request's admission finished.
_ADMITTED = contextvars.ContextVar("perfbench_admitted", default=None)

now_ns = time.perf_counter_ns


class Recorder:
    """In-memory span store; written out once, at the end of the run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: Serve-side request spans still open: sid -> start (ns).
        self.open_roots: dict[int, int] = {}
        self._ids = itertools.count(1)

    def new_id(self) -> int:
        return next(self._ids)

    def add(self, sid, parent, rid, name, t0, t1, attrs=None) -> None:
        self.spans.append((sid, parent, rid, name, t0, t1, attrs))

    def set_request(self, rid) -> None:
        """Bracket in-process calls (closed loop) as request ``rid``."""
        _REQUEST.set(rid)
        _CURRENT.set(None)


def _pool_state(pool, disk) -> tuple:
    return (pool.hits, pool.misses, pool.evictions,
            getattr(disk, "remote_evictions", 0),
            getattr(disk, "remote_fetches", 0),
            getattr(disk, "local_hits", 0))


def _store_probe(args, kwargs):
    store = args[0]
    return _pool_state(store.pool, store.disk)


def _store_attrs(before, result, args, kwargs):
    store = args[0]
    after = _pool_state(store.pool, store.disk)
    d = [a - b for a, b in zip(after, before)]
    records = result[0] if isinstance(result, tuple) else result
    return {"pages": d[0] + d[1], "hits": d[0], "evictions": d[2] + d[3],
            "remote_fetches": d[4], "remote_hits": d[5],
            "records": int(len(records))}


def _search_probe(args, kwargs):
    pool = args[0].pool
    return pool.hits + pool.misses


def _search_attrs(before, result, args, kwargs):
    pool = args[0].pool
    return {"subfields": int(len(result)),
            "nodes": pool.hits + pool.misses - before}


def _estimate_attrs(before, result, args, kwargs):
    return {"cells": int(len(args[1]))}     # args[0] is the class


def _agg_attrs(before, result, args, kwargs):
    return {"exact_subfields": result.exact_subfields,
            "model_subfields": result.model_subfields}


def _query_attrs(before, result, args, kwargs):
    return {"candidates": result.candidate_count}


def _wal_probe(args, kwargs):
    return args[0].path.stat().st_size


def _wal_attrs(before, result, args, kwargs):
    return {"bytes": args[0].path.stat().st_size - before}


def _maint_writes(index) -> int:
    shards = getattr(index, "shards", None)
    if shards is not None:
        return sum(rt.index.maint_stats.page_writes for rt in shards)
    return index.maint_stats.page_writes


def _update_probe(args, kwargs):
    return _maint_writes(args[0])


def _update_attrs(before, result, args, kwargs):
    return {"page_writes": _maint_writes(args[0]) - before}


class Hooks:
    """Installs/uninstalls every layer wrapper on one :class:`Recorder`."""

    def __init__(self, recorder: Recorder) -> None:
        self.rec = recorder
        self._saved: list[tuple] = []

    # -- generic wrappers -------------------------------------------------

    def _wrap(self, name, fn, probe=None, attrs=None):
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = _CURRENT.get()
            sid = rec.new_id()
            token = _CURRENT.set(sid)
            before = probe(args, kwargs) if probe is not None else None
            t0 = now_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now_ns()
                _CURRENT.reset(token)
            extra = (attrs(before, result, args, kwargs)
                     if attrs is not None else None)
            rec.add(sid, parent, _REQUEST.get(), name, t0, t1, extra)
            return result

        return wrapper

    def _patch(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _method(self, cls, attr, name, probe=None, attrs=None) -> None:
        self._patch(cls, attr,
                    self._wrap(name, cls.__dict__[attr], probe, attrs))

    def _classmethod(self, cls, attr, name, probe=None, attrs=None) -> None:
        fn = cls.__dict__[attr].__func__
        self._patch(cls, attr,
                    classmethod(self._wrap(name, fn, probe, attrs)))

    # -- install ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer entry point the benchmark measures."""
        if self._saved:
            return
        from repro.core import aggregate as agg_mod
        from repro.core.base import ValueIndex
        from repro.core.facade import EngineFacade
        from repro.field.dem import DEMField
        from repro.rstar.tree import RStarTree
        from repro.shard.engine import ShardedEngine
        from repro.storage import records as records_mod
        from repro.storage.records import RecordStore
        from repro.storage.wal import WriteAheadLog
        from repro.serve import server as server_mod
        from repro.serve.admission import AdmissionController

        # core: facade verbs and the index pipeline.
        for verb in ("query", "aggregate", "update"):
            self._facade(EngineFacade, verb)
        self._method(ValueIndex, "query", "core.query",
                     attrs=_query_attrs)
        self._method(ValueIndex, "apply_updates", "core.update",
                     probe=_update_probe, attrs=_update_attrs)
        # rstar
        self._method(RStarTree, "search", "rstar.search",
                     probe=_search_probe, attrs=_search_attrs)
        self._method(RStarTree, "delete", "rstar.delete")
        self._method(RStarTree, "insert", "rstar.insert")
        # storage: batched fetch + decode, and the WAL.
        for attr in ("read_pages", "read_range", "read_page_set"):
            self._method(RecordStore, attr, "storage.read_pages",
                         probe=_store_probe, attrs=_store_attrs)
        for attr in ("decode_pages", "decode_records"):
            self._patch(records_mod, attr, self._wrap(
                "storage.decode", records_mod.__dict__[attr]))
        self._method(WriteAheadLog, "append", "storage.wal_append",
                     probe=_wal_probe, attrs=_wal_attrs)
        # field
        self._classmethod(DEMField, "estimate_area", "field.estimate",
                          attrs=_estimate_attrs)
        self._method(DEMField, "apply_updates", "field.apply_updates")
        # aggregate (looked up on the module at call time)
        for attr in ("evaluate_aggregate", "exact_aggregate"):
            self._patch(agg_mod, attr, self._wrap(
                "aggregate.evaluate", agg_mod.__dict__[attr],
                attrs=_agg_attrs))
        self._patch(agg_mod, "fit_aggregate_models", self._wrap(
            "aggregate.fit", agg_mod.fit_aggregate_models))
        self._method(agg_mod.AggregateModelSet, "refit", "aggregate.refit")
        # shard: the scatter-gather filtering step.
        self._method(ShardedEngine, "_candidates", "shard.gather")
        # serve: codec, admission, executor.
        self._serve(server_mod, AdmissionController)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _facade(self, cls, verb) -> None:
        rec = self.rec
        inner = self._wrap("core.facade", cls.__dict__[verb])

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            admitted = _ADMITTED.get()
            if admitted is not None:
                # Admission done -> facade verb start: executor queueing.
                rec.add(rec.new_id(), _CURRENT.get(), _REQUEST.get(),
                        "serve.queue_wait", admitted, now_ns())
                _ADMITTED.set(None)
            return inner(*args, **kwargs)

        self._patch(cls, verb, wrapper)

    def _serve(self, server_mod, admission_cls) -> None:
        rec = self.rec
        decode = server_mod.decode_request
        encode_ok = server_mod.encode_response
        encode_err = server_mod.encode_error
        acquire = admission_cls.__dict__["acquire"]

        def decode_wrapper(line):
            root = rec.new_id()
            t0 = now_ns()
            request = decode(line)
            t1 = now_ns()
            # Runs in the connection task: these stay set for the rest
            # of the request (and are copied into executor threads).
            _REQUEST.set(request.id)
            _CURRENT.set(root)
            _ADMITTED.set(None)
            rec.open_roots[root] = t0
            rec.add(rec.new_id(), root, request.id, "serve.decode", t0, t1)
            return request

        def encoder(fn):
            def encode_wrapper(request_id, *args):
                t0 = now_ns()
                frame = fn(request_id, *args)
                t1 = now_ns()
                root = _CURRENT.get()
                if root is not None and request_id == _REQUEST.get():
                    rec.add(rec.new_id(), root, request_id, "serve.encode",
                            t0, t1)
                    rec.add(root, None, request_id, "serve.request",
                            rec.open_roots.pop(root), t1)
                    _CURRENT.set(None)
                return frame
            return encode_wrapper

        async def acquire_wrapper(self_, tenant):
            t0 = now_ns()
            try:
                return await acquire(self_, tenant)
            finally:
                t1 = now_ns()
                _ADMITTED.set(t1)
                rec.add(rec.new_id(), _CURRENT.get(), _REQUEST.get(),
                        "serve.admission", t0, t1)

        class ContextExecutor(ThreadPoolExecutor):
            """Runs submitted work inside a copy of the submitter's
            context, so spans keep their request across threads."""

            def submit(self, fn, /, *args, **kwargs):
                ctx = contextvars.copy_context()
                return super().submit(ctx.run, fn, *args, **kwargs)

        self._patch(server_mod, "decode_request", decode_wrapper)
        self._patch(server_mod, "encode_response", encoder(encode_ok))
        self._patch(server_mod, "encode_error", encoder(encode_err))
        self._patch(admission_cls, "acquire", acquire_wrapper)
        self._patch(server_mod, "ThreadPoolExecutor", ContextExecutor)
