"""Open-loop timing, lag accounting and reply matching."""

import json
import socket
import threading
import time

import pytest

from loadgen import OpenLoop, Outcome, match_replies, split_frames


def test_latency_counts_from_the_scheduled_send_time():
    o = Outcome(scheduled_ns=1_000_000, sent_ns=4_000_000,
                received_ns=9_000_000)
    assert o.latency_ms == 8.0       # includes the 3 ms the send ran late
    assert o.service_ms == 5.0
    assert o.lag_ms == 3.0


def test_split_frames_keeps_the_partial_tail():
    frames, rest = split_frames(b'{"id":1}\n{"id":2}\n{"id"')
    assert frames == [b'{"id":1}', b'{"id":2}'] and rest == b'{"id"'


def test_match_replies_by_id_in_any_order():
    outcomes = {1: Outcome(0), 2: Outcome(0), "p3": Outcome(0)}
    frames = [b'{"id":"p3","ok":true}', b'{"id":2,"ok":true}']
    assert match_replies(frames, outcomes, 77) == 2
    assert outcomes["p3"].reply == {"id": "p3", "ok": True}
    assert outcomes[2].received_ns == 77 and outcomes[1].reply is None
    with pytest.raises(RuntimeError, match="second reply"):
        match_replies([b'{"id":2,"ok":true}'], outcomes, 78)
    with pytest.raises(RuntimeError, match="unknown"):
        match_replies([b'{"id":9,"ok":true}'], outcomes, 79)


def _serial_server(delays_s):
    """One-connection server answering each line in turn after a delay
    keyed by request id (like the field server, one request at a time
    per connection)."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as lines:
            for line in lines:
                rid = json.loads(line)["id"]
                time.sleep(delays_s.get(rid, 0.0))
                conn.sendall(json.dumps({"id": rid, "ok": True}).encode()
                             + b"\n")

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener, thread


def test_a_stall_is_charged_to_the_requests_queued_behind_it():
    listener, thread = _serial_server({0: 0.2})
    try:
        loop = OpenLoop(listener.getsockname(), [{"id": 0}, {"id": 1}],
                        [0.0, 0.05], [0, 0], n_connections=1)
        out = loop.run()
    finally:
        listener.close()
    thread.join(5)
    assert not thread.is_alive()
    # Request 1 was sent on time (pipelined) but waited behind the
    # 200 ms stall: its latency from schedule is ~150 ms, not ~0.
    assert out[1].lag_ms < 20
    assert out[1].latency_ms > 120
    assert out[0].latency_ms > 190
    assert all(o.reply["ok"] for o in out.values())
