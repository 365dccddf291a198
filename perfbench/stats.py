"""The benchmark's arithmetic: percentiles, tails, rescaling to the
reference speed, and span self times.

Kept free of I/O and of the program under test so the unit tests in
``perfbench/tests`` can pin every rule the reported numbers rest on.
"""

from __future__ import annotations

import bisect
import math
from collections import defaultdict

#: A tail percentile must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 50
#: The same, for a tail over request slots (one value per slot).
SLOT_TAIL_MIN_BEYOND = 10


def rank_value(sorted_values, rank: int) -> float:
    """Value at 1-based ``rank`` of an ascending sequence."""
    return float(sorted_values[rank - 1])


def median(values) -> float:
    """Nearest-rank median (the lower middle for even counts)."""
    vals = sorted(values)
    if not vals:
        raise ValueError("median of no samples")
    return rank_value(vals, math.ceil(len(vals) / 2))


def tail(values, nominal: float,
         min_beyond: int = TAIL_MIN_BEYOND) -> tuple[float, float, int]:
    """The highest percentile at most ``nominal`` that leaves at least
    ``min_beyond`` samples beyond it.

    Returns ``(value, percentile, n)``.  Nearest-rank: the sample at
    rank ``r`` has ``n - r`` samples beyond it, so ``r`` is capped at
    ``n - min_beyond``.  The tail never drops below the median — with
    fewer than ``2 * min_beyond`` samples the reported "tail" is the
    median, and the printed percentile says so.
    """
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        raise ValueError("tail of no samples")
    r = min(math.ceil(nominal * n), n - min_beyond)
    r = max(r, math.ceil(n / 2))
    return rank_value(vals, r), r / n, n


def fastest_by_slot(samples) -> dict:
    """``{slot: (rescaled, wall)}`` of each slot's fastest repeat.

    ``samples`` are ``(slot, rescaled ms, wall ms)``; a slot is one
    pooled request that the run repeats.  Stalls of a shared host and
    queueing behind them only ever add time, so the fastest repeat is
    the request's own cost.
    """
    best: dict = {}
    for slot, rescaled, wall in samples:
        if slot not in best or rescaled < best[slot][0]:
            best[slot] = (rescaled, wall)
    return best


#: Kernel timings that set the speed at one instant.
SPEED_NEAREST = 7


class Rescaler:
    """Rescales wall times to the reference speed (see ``speed.py``).

    ``samples`` are the reference kernel's ``(start_ns, duration_ns)``
    on the engine's thread.  A time measured at ``t_ns`` is multiplied by
    ``reference_ms`` over the median duration of the ``SPEED_NEAREST``
    kernel runs around ``t_ns``.
    """

    def __init__(self, samples, reference_ms: float) -> None:
        if len(samples) < SPEED_NEAREST:
            raise ValueError(f"{len(samples)} reference timings; "
                             f"need at least {SPEED_NEAREST}")
        ordered = sorted(samples)
        self._starts = [t for t, _ in ordered]
        self._ms = [d / 1e6 for _, d in ordered]
        self.reference_ms = reference_ms

    def kernel_ms(self, t_ns: int) -> float:
        """Median kernel time of the runs around ``t_ns``."""
        i = bisect.bisect_left(self._starts, t_ns)
        lo = min(max(i - SPEED_NEAREST // 2, 0),
                 len(self._starts) - SPEED_NEAREST)
        return median(self._ms[lo:lo + SPEED_NEAREST])

    def __call__(self, t_ns: int, value: float) -> float:
        return value * self.reference_ms / self.kernel_ms(t_ns)


def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if min(b, hi) > max(a, lo))
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Self time (ns) of every span: its duration minus the part of its
    interval that its children cover.

    ``spans`` are ``(sid, parent_sid, t0_ns, t1_ns)``.  Children may run
    on other threads (the serve executor) and may overlap each other;
    overlap is counted once, and child time outside the parent's
    interval is not subtracted.
    """
    children = defaultdict(list)
    for sid, parent, t0, t1 in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    return {sid: (t1 - t0) - covered_ns(children.get(sid, ()), t0, t1)
            for sid, _parent, t0, t1 in spans}


def layer_self_times(spans) -> dict:
    """Sum self time (ns) per layer name over one request's spans.

    ``spans`` are ``(sid, parent_sid, name, t0_ns, t1_ns)``.
    """
    selfs = self_times([(s, p, a, b) for s, p, _n, a, b in spans])
    out: dict[str, int] = defaultdict(int)
    for sid, _parent, name, _a, _b in spans:
        out[name] += selfs[sid]
    return dict(out)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, as ``statistics.quantiles(n=4)`` gives them."""
    import statistics
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
