"""Open-loop NDJSON load generator: one process, two threads.

The sending thread (the caller's) writes each request at its scheduled
time on one of at most two pipelined connections; a receiving thread
reads every reply and stamps its arrival.  Latency is counted from the
*scheduled* send time, so a stall in the server (or in the generator)
is charged to every request it delays; how late the sends themselves
ran is reported separately as lag.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field

now_ns = time.perf_counter_ns


@dataclass
class Outcome:
    """What happened to one scheduled request."""

    scheduled_ns: int
    sent_ns: int | None = None
    received_ns: int | None = None
    reply: dict | None = None

    @property
    def latency_ms(self) -> float:
        """Reply time minus *scheduled* send time."""
        return (self.received_ns - self.scheduled_ns) / 1e6

    @property
    def service_ms(self) -> float:
        """Reply time minus *actual* send time."""
        return (self.received_ns - self.sent_ns) / 1e6

    @property
    def lag_ms(self) -> float:
        """How late the generator sent, against the schedule."""
        return (self.sent_ns - self.scheduled_ns) / 1e6


def split_frames(buffer: bytes) -> tuple[list[bytes], bytes]:
    """Complete newline-terminated frames and the unfinished remainder."""
    *frames, rest = buffer.split(b"\n")
    return [f for f in frames if f], rest


def match_replies(frames, outcomes: dict, stamp_ns: int) -> int:
    """Attach each decoded reply to its request by ``id``.

    Replies on a pipelined connection may belong to any outstanding
    request; an ``id`` that is unknown or already answered raises, since
    it means the stream is out of step.  Returns the number matched.
    """
    matched = 0
    for frame in frames:
        reply = json.loads(frame)
        rid = reply.get("id")
        outcome = outcomes.get(rid)
        if outcome is None:
            raise RuntimeError(f"reply for unknown request id {rid!r}")
        if outcome.reply is not None:
            raise RuntimeError(f"second reply for request id {rid!r}")
        outcome.reply = reply
        outcome.received_ns = stamp_ns
        matched += 1
    return matched


@dataclass
class OpenLoop:
    """Send ``frames[i]`` on ``conns[i]`` at ``t0 + offsets_s[i]``."""

    address: tuple[str, int]
    frames: list[dict]          # request objects, each with a unique "id"
    offsets_s: list[float]
    conns: list[int]            # connection index per request
    n_connections: int = 2
    drain_timeout_s: float = 60.0
    outcomes: dict = field(default_factory=dict)

    def run(self) -> dict:
        """Run the schedule; returns ``{id: Outcome}`` once all replied."""
        if not 1 <= self.n_connections <= 2:
            raise ValueError("the load generator uses one or two connections")
        socks = [socket.create_connection(self.address)
                 for _ in range(self.n_connections)]
        for s in socks:
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        lines = [(json.dumps(f, separators=(",", ":")) + "\n").encode()
                 for f in self.frames]
        start = now_ns() + 20_000_000
        self.outcomes = {
            f["id"]: Outcome(start + int(off * 1e9))
            for f, off in zip(self.frames, self.offsets_s)}
        done = threading.Event()
        errors: list[BaseException] = []
        receiver = threading.Thread(
            target=self._receive, args=(socks, done, errors),
            name="perfbench-recv", daemon=True)
        receiver.start()
        try:
            for frame, line, conn in zip(self.frames, lines, self.conns):
                outcome = self.outcomes[frame["id"]]
                wait = (outcome.scheduled_ns - now_ns()) / 1e9
                if wait > 0:
                    time.sleep(wait)
                outcome.sent_ns = now_ns()
                socks[conn].sendall(line)
            receiver.join(self.drain_timeout_s)
        finally:
            done.set()
            for s in socks:
                s.close()
            receiver.join(5.0)
        if errors:
            raise errors[0]
        return self.outcomes

    def _receive(self, socks, done, errors) -> None:
        sel = selectors.DefaultSelector()
        buffers = {}
        for s in socks:
            sel.register(s, selectors.EVENT_READ)
            buffers[s] = b""
        pending = len(self.frames)
        try:
            while pending and not done.is_set():
                for key, _ in sel.select(timeout=0.2):
                    data = key.fileobj.recv(1 << 16)
                    stamp = now_ns()
                    if not data:
                        raise RuntimeError("server closed a connection")
                    frames, buffers[key.fileobj] = split_frames(
                        buffers[key.fileobj] + data)
                    pending -= match_replies(frames, self.outcomes, stamp)
        except BaseException as exc:   # reported by run()
            errors.append(exc)
        finally:
            sel.close()


def closed_loop_requests(address, frames, timeout_s: float = 60.0) -> dict:
    """Send frames one at a time on one connection.

    Returns ``{id: (reply, round_trip_ms, sent_ns)}``.
    """
    out = {}
    with socket.create_connection(address, timeout=timeout_s) as s:
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        buf = b""
        for frame in frames:
            t0 = now_ns()
            s.sendall((json.dumps(frame, separators=(",", ":"))
                       + "\n").encode())
            while b"\n" not in buf:
                data = s.recv(1 << 16)
                if not data:
                    raise RuntimeError("server closed the connection")
                buf += data
            line, buf = buf.split(b"\n", 1)
            reply = json.loads(line)
            out[reply["id"]] = (reply, (now_ns() - t0) / 1e6, t0)
    return out
