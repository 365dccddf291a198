"""The reference speed that every end-to-end timing is rescaled to.

On a shared host the speed of a core drifts with what other tenants run.
On the 2-vCPU VM the benchmark was tuned on, a fixed pure-Python loop
ran up to 40% slower for minutes at a time with no steal time reported,
so runs of the same code a few minutes apart differed by more than any
bound could absorb, whatever the run measured.  So a fixed reference
kernel — benchmark code, never the program's — is timed on the thread
that runs the engine, between operations, about every ``interval_ms``.
Each operation's wall time is then multiplied by ``reference_ms`` over
the median time of the kernel runs nearest to it (see
:func:`stats.rescale`): the time the operation would have taken on a
machine where the kernel takes ``reference_ms``.  A change to the
program moves rescaled times exactly as it moves wall time; a slow
stretch of the host slows the operation and the kernel alike, and
cancels.
"""

from __future__ import annotations

import threading
import time

import numpy as np

now_ns = time.perf_counter_ns

_rng = np.random.default_rng(20020314)
_VALUES = _rng.random(20000).astype(np.float32)
_KEYS = [int(x) for x in _rng.integers(0, 1000, 2000)]


def kernel() -> None:
    """Fixed work of the three kinds a query does: an interpreted loop,
    a numpy interval filter and sort, and dict inserts."""
    total = 0
    for x in _KEYS:
        total += x * x
    picked = _VALUES[(_VALUES > 0.2) & (_VALUES < 0.7)]
    picked.sort()
    slots = {}
    for i, x in enumerate(_KEYS[:500]):
        slots[x] = i


class SpeedLog:
    """Kernel timings ``(start_ns, duration_ns)`` on the engine's thread."""

    def __init__(self, interval_ms: float, warm_up: int = 20) -> None:
        self.interval_ns = int(interval_ms * 1e6)
        self.samples: list[tuple[int, int]] = []
        self._last = 0
        for _ in range(warm_up):
            kernel()

    def measure(self) -> None:
        t0 = now_ns()
        kernel()
        t1 = now_ns()
        self.samples.append((t0, t1 - t0))
        self._last = t1

    def due(self) -> None:
        """Measure if ``interval_ms`` has passed since the last sample."""
        if now_ns() - self._last >= self.interval_ns:
            self.measure()

    def burst(self, count: int) -> None:
        for _ in range(count):
            self.measure()


class Ticker:
    """Submits :meth:`SpeedLog.measure` to an executor every interval,
    so the kernel runs on the executor thread that runs the engine,
    between the requests it serves."""

    def __init__(self, log: SpeedLog, executor) -> None:
        self._log = log
        self._executor = executor
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name="perfbench-speed", daemon=True)

    def start(self) -> None:
        self._thread.start()

    def _run(self) -> None:
        period_s = self._log.interval_ns / 1e9
        while not self._stop.wait(period_s):
            self._executor.submit(self._log.measure)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
