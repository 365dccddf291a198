"""Seeded inputs: reproducible, with the recorded mix and sizes."""

import numpy as np

import inputs

SPEC = inputs.load_spec()
FIELD = inputs.make_field(SPEC, "serve-read")


def params(ops):
    return [(op.kind, op.pool_index, op.params) for op in ops]


def test_the_same_seed_gives_the_same_inputs():
    pool = inputs.query_pool
    assert (params(pool(SPEC, "serve-read", 3, FIELD))
            == params(pool(SPEC, "serve-read", 3, FIELD)))
    assert (params(pool(SPEC, "serve-read", 3, FIELD))
            != params(pool(SPEC, "serve-read", 4, FIELD)))
    # The aggregate pool is a fixed grid; the seed only orders it.
    assert (params(inputs.aggregate_pool(SPEC, "serve-read", 3, FIELD))
            == params(inputs.aggregate_pool(SPEC, "serve-read", 4, FIELD)))
    np.testing.assert_array_equal(
        inputs.poisson_offsets(40.0, 15.0, 3, "serve-read"),
        inputs.poisson_offsets(40.0, 15.0, 3, "serve-read"))


def test_read_sequence_keeps_the_mix_in_every_block():
    q = inputs.query_pool(SPEC, "serve-read", 1, FIELD)
    a = inputs.aggregate_pool(SPEC, "serve-read", 1, FIELD)
    seq = inputs.read_sequence(q, a, 1, "serve-read", 1000, 4)
    kinds = [op.kind for op in seq]
    for k in range(0, 1000, 5):
        assert kinds[k:k + 5].count("aggregate") == 1
    # Every pool entry is used before any repeats.
    first = [op.pool_index for op in seq if op.kind == "query"][:len(q)]
    assert sorted(first) == list(range(len(q)))


def test_arrivals_have_a_fixed_count_inside_the_window():
    t = inputs.poisson_offsets(40.0, 15.0, 5, "serve-read")
    assert len(t) == 600 and np.all(np.diff(t) >= 0)
    assert 0.0 <= t[0] and t[-1] < 15.0


def test_updates_visit_fixed_stations_with_seeded_values():
    a = inputs.update_batches(SPEC, "serve-read", 1, FIELD, 30)
    b = inputs.update_batches(SPEC, "serve-read", 2, FIELD, 30)
    assert ([op.params["vertex_ids"] for op in a]
            == [op.params["vertex_ids"] for op in b])
    assert a[0].params["values"] != b[0].params["values"]
    wl = SPEC["workloads"]["serve-read"]
    sites = {v for op in a[:wl["update_stations"] // 8]
             for v in op.params["vertex_ids"]}
    assert len(sites) == wl["update_stations"]
