"""Per-layer performance ladder: times bitgather's kernels in process and
writes one JSON run. Each row calls one kernel on a layout of
tools/test_pinned.py's LAYOUTS, read from its file, which the run writes
once under a temporary directory. It records the best, the quartiles and the median of
k timed runs, in seconds a call: a run repeats a call that takes less than
RUN_S, as many times as one untimed warm-up call says fill RUN_S. Then it
records the tracemalloc peak of one more, separate call, after a full
collection. The run records the machine too: core count, Python version,
machine type, and the git commit of the imported bitgather (with whether its
sources differ from that commit). Run from the repository root:

    PYTHONPATH=src python tools/ladder.py --out BENCH_40.json --label change

--out appends the run to the file's "runs", so one file can hold a parent
run and a change run. --layout puts every row on one layout, as a quick
check that each row runs; its times compare with nothing.

--parent PATH also imports PATH/src/bitgather, a checkout of the parent
commit, under the package name bitgather_parent, and times each row's
parent and change calls in turn, k rounds alternated, so that both runs
meet the same drift of the machine's speed. It writes two runs, "parent"
and the --label one (default "change"):

    PYTHONPATH=src python tools/ladder.py --parent ../parent --out BENCH_40.json
"""

from __future__ import annotations

import argparse
import functools
import gc
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import deque
from itertools import repeat
from pathlib import Path
from types import ModuleType
from typing import Callable

import bitgather
from test_pinned import LAYOUTS, layout_text  # the script's own directory is first on sys.path

# Models by family and (n, alpha, beta), built from each imported tree's own classes.
ENUMERATE = ("GaussianDecayModel", 8, 1.0, 0.05)  # the benchmark's enumerate model
SEARCH = ("PowerLawModel", 8, 1.0, 1.0)  # its search model
FIELD = ("GaussianDecayModel", 12, 1.0, 0.5)  # its field model
WIDE = ("GaussianDecayModel", 2**53, 1.0, 0.05)  # a budget per pair: the polled-set pass's widest sums
PER_PAIR = ("GaussianDecayModel", 10**6, 1.0, 0.5)  # 64n + 2 past N = 500's pairs: a budget call per pair
CONSTANT = ("GaussianDecayModel", 10**6, 1.0, 0.0)  # beta = 0: one budget, from the two end calls
LONG = ("GaussianDecayModel", 2**16 // 8, 1.0, 0.05)  # the most sum_steps steps the polled-set pass takes at N = 16

RUN_S = 0.005  # a timed run repeats a faster call until it lasts about this long

Make = Callable[[ModuleType, object, Path], Callable[[], object]]  # make(tree, topology, its file): the call to time


def _model(tree: ModuleType, spec: tuple):
    family, *params = spec
    return getattr(tree, family)(*params)


def _shuffled(topo) -> list[int]:
    """The layout's ids shuffled by random.Random(0), as test_pinned's {order}."""
    order = [*range(topo.size)]
    random.Random(0).shuffle(order)
    return order


def _polled_sets(rule: str, model: tuple = ENUMERATE) -> Make:
    return lambda tree, topo, _: functools.partial(
        tree.schedule._exhaustive, _model(tree, model), tree.ConditioningRule(rule), topo, "")


def _optimize(model: tuple, rule: str, objective: str, strategy: str) -> Make:
    return lambda tree, topo, _: functools.partial(
        tree.schedule.optimize, _model(tree, model), tree.ConditioningRule(rule), topo, objective, strategy)


def _stats_sampled(tree: ModuleType, topo, _: Path) -> Callable[[], object]:
    return functools.partial(tree.schedule.schedule_stats, _model(tree, SEARCH), tree.ConditioningRule.MAX, topo,
                             "sampled", count=5000, seed=1)


def _pair_tails(tree: ModuleType, topo, _: Path) -> Callable[[], object]:
    tails = functools.partial(tree.schedule.pair_tails, _model(tree, FIELD), tree.ConditioningRule.MIN, topo)
    return lambda: deque(tails(functools.cache(str)), 0)


def _budget_matrix(model: tuple) -> Make:
    return lambda tree, topo, _: functools.partial(tree.schedule.budget_matrix, _model(tree, model), topo)


def _budget_steps(model: tuple) -> Make:
    """budget_steps for the layout's N(N-1)/2 pairs: past the 64n + 2 gate at N = 200 and 500."""
    return lambda tree, topo, _: functools.partial(
        tree.correlation.budget_steps, _model(tree, model), topo.coincident, topo.size * (topo.size - 1) // 2)


def _evaluate(rule: str) -> Make:
    """evaluate on the shuffled order: under MAX the farthest-partner walk, under ADDITIVE the decay-term fold."""
    return lambda tree, topo, _: functools.partial(
        tree.schedule.evaluate, _model(tree, FIELD), tree.ConditioningRule(rule), topo, _shuffled(topo))


def _from_positions(tree: ModuleType, topo, _: Path) -> Callable[[], object]:
    """from_positions on the layout's positions as a list of pairs: each coordinate read, the layout checked."""
    return functools.partial(tree.Topology.from_positions, [*topo.positions])


def _generate_field(tree: ModuleType, topo, _: Path) -> Callable[[], object]:
    """A field of the benchmark's width (n = 12) at L = 8: the warm-up call caches the layout's plan, so
    the row times the draws alone."""
    return functools.partial(tree.generate_field, topo, 12, 8.0, 1)


def _field_plan(tree: ModuleType, topo, _: Path) -> Callable[[], object]:
    """The field plan of a fresh Topology on the layout's positions, so that no call reads the cached one."""
    return lambda: tree.Topology(positions=topo.positions).field_plan


# (row name, layout, make)
ROWS: list[tuple[str, str, Make]] = [
    *((f"_exhaustive {rule}", f"n{size}.csv", _polled_sets(rule))
      for size in (8, 12, 14, 16) for rule in ("min", "max", "additive")),
    ("_exhaustive min n=2**53", "n16.csv", _polled_sets("min", WIDE)),
    ("_exhaustive additive n=8192", "n16.csv", _polled_sets("additive", LONG)),
    *((f"optimize brute_force {rule} minimize", f"n{size}.csv", _optimize(ENUMERATE, rule, "minimize", "brute_force"))
      for size in (14, 16) for rule in ("additive", "max")),
    ("stats sampled 5000 max", "n50.csv", _stats_sampled),
    ("optimize greedy_prim min", "n200_seed3.csv", _optimize(SEARCH, "min", "minimize", "greedy_prim")),
    ("optimize brute_force min", "n2000.csv", _optimize(SEARCH, "min", "minimize", "brute_force")),
    *(("pair_tails field min", f"n{size}.csv", _pair_tails) for size in (500, 2000)),
    ("budget_matrix field", "n500.csv", _budget_matrix(FIELD)),
    ("budget_matrix n=10**6", "n500.csv", _budget_matrix(PER_PAIR)),
    ("budget_matrix beta=0", "n500.csv", _budget_matrix(CONSTANT)),
    ("budget_steps field", "n500.csv", _budget_steps(FIELD)),
    ("budget_steps search", "n200_seed3.csv", _budget_steps(SEARCH)),
    ("evaluate max shuffled", "n500.csv", _evaluate("max")),
    ("evaluate additive shuffled", "n500.csv", _evaluate("additive")),
    *(("nearest_links shuffled", f"n{size}.csv",
       lambda tree, topo, _: functools.partial(topo.nearest_links, _shuffled(topo))) for size in (500, 2000)),
    *(("field_plan", f"n{size}.csv", _field_plan) for size in (500, 2000)),
    ("generate_field n=12 L=8", "n500.csv", _generate_field),
    *(("from_positions", f"n{size}.csv", _from_positions) for size in (500, 2000)),
    *(("load_topology", f"n{size}.csv", lambda tree, _, path: functools.partial(tree.load_topology, path))
      for size in (500, 2000)),
    # Where the grid pays less: every block covers the dense square, and a cluster's block holds its 40 nodes.
    *((name, layout, make) for layout in ("dense2000.csv", "clustered2000.csv")
      for name, make in (("pair_tails field min", _pair_tails), ("evaluate max shuffled", _evaluate("max")),
                         ("evaluate additive shuffled", _evaluate("additive")),
                         ("optimize greedy_prim min field", _optimize(FIELD, "min", "minimize", "greedy_prim")))),
]


def load_tree(root: Path, name: str) -> ModuleType:
    """root/src/bitgather imported afresh as the package `name`; its relative imports load its own modules."""
    for stale in [key for key in sys.modules if key == name or key.startswith(name + ".")]:
        del sys.modules[stale]
    where = root.resolve() / "src" / "bitgather"
    spec = importlib.util.spec_from_file_location(name, where / "__init__.py", submodule_search_locations=[str(where)])
    if spec is None or spec.loader is None:
        raise SystemExit(f"no bitgather package under {root}")
    tree = importlib.util.module_from_spec(spec)
    sys.modules[name] = tree
    spec.loader.exec_module(tree)
    return tree


def machine(tree: ModuleType) -> dict:
    """Cores, Python, machine type, and the commit of the imported tree."""
    where = Path(tree.__file__).resolve().parent

    def git(*args: str) -> str | None:
        try:
            got = subprocess.run(["git", *args], cwd=where, capture_output=True, text=True, timeout=30)
        except OSError:
            return None
        return got.stdout.strip() if got.returncode == 0 else None

    status = git("status", "--porcelain", "--", ".")
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(), "machine": platform.machine(),
            "commit": git("rev-parse", "HEAD"), "dirty": None if status is None else status != ""}


def measure(calls: list[Callable[[], object]], k: int) -> list[dict]:
    """For each call, the best, quartiles and median wall seconds a call of k
    timed runs, the calls taking turns in each of k rounds (in reverse order
    every other round, so none always runs first), then one traced call's
    peak. Each run repeats every call the same number of times, sized by the
    fastest call's untimed warm-up to fill RUN_S."""
    warm = []
    for call in calls:
        start = time.perf_counter()
        call()
        warm.append(time.perf_counter() - start)
    reps = max(1, int(RUN_S / max(min(warm), 1e-9)))
    times: list[list[float]] = [[] for _ in calls]
    turns = [*zip(calls, times)]
    for r in range(k):
        for call, spent in reversed(turns) if r % 2 else turns:
            start = time.perf_counter()
            for _ in repeat(None, reps):
                call()
            spent.append((time.perf_counter() - start) / reps)
    got = []
    for call, spent in zip(calls, times):
        gc.collect()  # a full collection empties the free lists, so every block the call takes is traced
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        q1, median, q3 = statistics.quantiles(spent, n=4, method="inclusive") if k > 1 else spent * 3
        got.append({"best_s": min(spent), "q1_s": q1, "median_s": median, "q3_s": q3, "reps": reps,
                    "peak_mb": peak / 2**20})
    return got


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--k", type=int, default=5, help="timed runs per row (default 5)")
    ap.add_argument("--out", type=Path, help="JSON file whose runs the run is appended to; stdout if absent")
    ap.add_argument("--label", help="the run's label, such as parent or change")
    ap.add_argument("--layout", choices=sorted(LAYOUTS), help="run every row on this layout")
    ap.add_argument("--parent", type=Path, help="a checkout of the parent commit, timed in turn with this tree")
    args = ap.parse_args(argv)
    if args.k < 1:
        ap.error("--k must be >= 1")
    trees, labels = [bitgather], [args.label]
    if args.parent is not None:
        trees, labels = [load_tree(args.parent, "bitgather_parent"), bitgather], ["parent", args.label or "change"]
    runs = [{"label": label, "k": args.k, "machine": machine(tree), "rows": []} for tree, label in zip(trees, labels)]
    topologies: dict[tuple[str, str], object] = {}
    with tempfile.TemporaryDirectory() as where:
        for name, layout, make in ROWS:
            layout = args.layout or layout
            path = Path(where) / layout
            if not path.exists():
                path.write_text(layout_text(LAYOUTS[layout]()))
            calls = []
            for tree in trees:
                key = (tree.__name__, layout)
                if key not in topologies:
                    topologies[key] = tree.load_topology(path)
                calls.append(make(tree, topologies[key], path))
            for run, got in zip(runs, measure(calls, args.k)):
                run["rows"].append({"row": name, "layout": layout, "n_nodes": topologies[key].size, **got})
            best = " ".join(f"{run['rows'][-1]['best_s']:.4g}" for run in runs)
            print(f"{name:38s} {layout:15s} best {best} s", file=sys.stderr)
    if args.out is None:
        json.dump(runs[0] if len(runs) == 1 else runs, sys.stdout, indent=1)
        print()
        return 0
    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
    doc["runs"] += runs
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
