"""Layer wrappers: spans keep their request across the serve executor."""

import numpy as np

from hooks import Hooks, Recorder
from loadgen import closed_loop_requests
from stats import layer_self_times


def test_served_request_span_tree_crosses_the_executor_thread():
    from repro.core.facade import EngineFacade
    from repro.core.ihilbert import IHilbertIndex
    from repro.field.dem import DEMField
    from repro.rstar.tree import RStarTree
    from repro.serve.server import FieldServer, ServerThread

    search = RStarTree.search
    rec = Recorder()
    hooks = Hooks(rec)
    hooks.install()
    try:
        heights = np.random.default_rng(3).random((17, 17)) * 100.0
        facade = EngineFacade()
        facade.open_field("terrain", IHilbertIndex(DEMField(heights),
                                                  cache_pages=64))
        harness = ServerThread(FieldServer(facade=facade,
                                           executor_workers=2))
        address = harness.start()
        try:
            replies = closed_loop_requests(
                address, [{"id": "r1", "op": "query", "field": "terrain",
                           "lo": 20.0, "hi": 40.0}])
        finally:
            harness.stop()
    finally:
        hooks.uninstall()
    assert RStarTree.search is search
    assert replies["r1"][0]["ok"]

    spans = [s for s in rec.spans if s[2] == "r1"]
    by_name = {s[3]: s for s in spans}
    root = by_name["serve.request"]
    assert root[1] is None
    for name in ("serve.decode", "serve.admission", "serve.queue_wait",
                 "core.facade", "serve.encode"):
        assert by_name[name][1] == root[0], name
    # The facade verb ran on an executor thread, yet its engine children
    # are recorded under it, on the same request.
    facade_sid = by_name["core.facade"][0]
    assert by_name["core.query"][1] == facade_sid
    assert {"rstar.search", "storage.read_pages",
            "field.estimate"} <= by_name.keys()
    selfs = layer_self_times([(s[0], s[1], s[3], s[4], s[5])
                              for s in spans])
    assert sum(selfs.values()) == root[5] - root[4]
    assert all(v >= 0 for v in selfs.values())
