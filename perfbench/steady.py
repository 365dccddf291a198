#!/usr/bin/env python3
"""Check that the benchmark is steady: run it over several seeds and
print each end-to-end metric's median and quartile spread.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload serve-read --seeds 1-10

The spread is (Q3 - Q1) / median of the per-seed values, as
``statistics.quantiles(n=4)`` gives them; it is printed next to the
metric's bound from ``BENCHMARK.json`` and flagged when it exceeds a
third of the bound (``setup_s`` is exempt from the spread rule).
Runs are sequential; each is a full ``run.py`` invocation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import quartile_spread  # noqa: E402


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--verbose", action="store_true",
                    help="also print every seed's value")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            bench["command"] + ["--workload", args.workload,
                                "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]),
                                "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode} correct "
              f"{last['correct']} failed {last['failed']}/"
              f"{last['attempted']}", flush=True)
        for name, m in last["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        spread = quartile_spread(vals) if len(vals) >= 2 else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above bound/3"
        print(f"{name:34s} median {statistics.median(vals):12.6g} "
              f"spread {spread:7.4f}"
              + (f" bound {bound}" if bound is not None else "") + flag)
        if args.verbose:
            print("    " + " ".join(f"{v:.4g}" for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
