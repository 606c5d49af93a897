"""Per-layer performance ladder: times bitgather's kernels in process and
writes one JSON run. Each row calls one kernel on a layout of
tools/test_pinned.py's LAYOUTS; it records the best and the median wall
time of k runs, then the tracemalloc peak of one more, separate run. The
run records the machine too: core count, Python version, machine type, and
the git commit of the imported bitgather (with whether its sources differ
from that commit). Run from the repository root:

    PYTHONPATH=src python tools/ladder.py --out BENCH_34.json --label change

--out appends the run to the file's "runs", so one file can hold a parent
run and a change run. --layout puts every row on one layout, as a quick
check that each row runs; its times compare with nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import deque
from pathlib import Path
from typing import Callable

import bitgather
from bitgather import ConditioningRule, GaussianDecayModel, PowerLawModel, Topology
from bitgather.schedule import _exhaustive, optimize, pair_tails, schedule_stats
from test_pinned import LAYOUTS  # the script's own directory is first on sys.path

MIN, MAX, ADDITIVE = ConditioningRule.MIN, ConditioningRule.MAX, ConditioningRule.ADDITIVE
ENUMERATE = GaussianDecayModel(8, 1.0, 0.05)  # the benchmark's enumerate model
SEARCH = PowerLawModel(8, 1.0, 1.0)  # its search model
FIELD = GaussianDecayModel(12, 1.0, 0.5)  # its field model


def _polled_sets(rule: ConditioningRule) -> Callable[[Topology], Callable[[], object]]:
    return lambda topo: lambda: _exhaustive(ENUMERATE, rule, topo, "")


def _brute_force(rule: ConditioningRule) -> Callable[[Topology], Callable[[], object]]:
    """brute_force minimizing, outside the spanning pairs: the pass's argmin alone."""
    return lambda topo: lambda: optimize(ENUMERATE, rule, topo, "minimize", "brute_force")


def _shuffled(topo: Topology) -> list[int]:
    """The layout's ids shuffled by random.Random(0), as test_pinned's {order}."""
    order = [*range(topo.size)]
    random.Random(0).shuffle(order)
    return order


# (row name, layout, make): make(topology) returns the call to time
ROWS: list[tuple[str, str, Callable[[Topology], Callable[[], object]]]] = [
    *((f"_exhaustive {rule.value}", f"n{size}.csv", _polled_sets(rule))
      for size in (8, 12, 14, 16) for rule in ConditioningRule),
    *((f"optimize brute_force {rule.value} minimize", f"n{size}.csv", _brute_force(rule))
      for size in (14, 16) for rule in (ADDITIVE, MAX)),
    ("stats sampled 5000 max", "n50.csv",
     lambda topo: lambda: schedule_stats(SEARCH, MAX, topo, "sampled", count=5000, seed=1)),
    ("optimize greedy_prim min", "n200_seed3.csv",
     lambda topo: lambda: optimize(SEARCH, MIN, topo, "minimize", "greedy_prim")),
    ("pair_tails field min", "n500.csv",
     lambda topo: lambda: deque(pair_tails(FIELD, MIN, topo, functools.cache(str)), 0)),
    ("nearest_links shuffled", "n500.csv",
     lambda topo: functools.partial(topo.nearest_links, _shuffled(topo))),
]


def machine() -> dict:
    """Cores, Python, machine type, and the commit of the imported bitgather."""
    where = Path(bitgather.__file__).resolve().parent

    def git(*args: str) -> str | None:
        try:
            got = subprocess.run(["git", *args], cwd=where, capture_output=True, text=True, timeout=30)
        except OSError:
            return None
        return got.stdout.strip() if got.returncode == 0 else None

    status = git("status", "--porcelain", "--", ".")
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(), "machine": platform.machine(),
            "commit": git("rev-parse", "HEAD"), "dirty": None if status is None else status != ""}


def measure(call: Callable[[], object], k: int) -> dict:
    """Best and median wall seconds of k calls, then one traced call's peak."""
    times = []
    for _ in range(k):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"best_s": min(times), "median_s": statistics.median(times), "peak_mb": peak / 2**20}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--k", type=int, default=5, help="timed runs per row (default 5)")
    ap.add_argument("--out", type=Path, help="JSON file whose runs the run is appended to; stdout if absent")
    ap.add_argument("--label", help="the run's label, such as parent or change")
    ap.add_argument("--layout", choices=sorted(LAYOUTS), help="run every row on this layout")
    args = ap.parse_args(argv)
    if args.k < 1:
        ap.error("--k must be >= 1")
    topologies: dict[str, Topology] = {}
    rows = []
    for name, layout, make in ROWS:
        layout = args.layout or layout
        if layout not in topologies:
            topologies[layout] = Topology.from_positions(LAYOUTS[layout]())
        topo = topologies[layout]
        rows.append({"row": name, "layout": layout, "n_nodes": topo.size, **measure(make(topo), args.k)})
        print(f"{name:28s} {layout:15s} best {rows[-1]['best_s']:.4g} s", file=sys.stderr)
    run = {"label": args.label, "k": args.k, "machine": machine(), "rows": rows}
    if args.out is None:
        json.dump(run, sys.stdout, indent=1)
        print()
        return 0
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    doc["runs"].append(run)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
