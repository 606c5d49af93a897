import math
import operator
import random
from pathlib import Path

import pytest

from bitgather import PowerLawModel, Topology, TopologyError


@pytest.fixture
def collinear3():
    """Three nodes on a line at x = 0, 1, 2."""
    return Topology.from_positions([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])


@pytest.fixture
def unit_staircase():
    return PowerLawModel(n=5, alpha=1.0, beta=1.0)


def random_topology(rng: random.Random, n_nodes: int, scale: float = 10.0) -> Topology:
    return Topology.from_positions(
        [(rng.uniform(0, scale), rng.uniform(0, scale)) for _ in range(n_nodes)]
    )


def reference_load_topology(source) -> Topology:
    """The reference for load_topology: every line held as a list, the
    blank lines filtered out with their numbers kept, then a dict of
    coordinates by id handed to Topology.from_positions. Deliberately
    separate from the single-pass loader so it can check it."""
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise TopologyError(f"cannot read topology file {source}: {exc}") from None
    else:
        lines = [ln.rstrip("\n") for ln in source]

    lines = [(lineno, ln) for lineno, ln in enumerate(lines, start=1) if ln.strip() != ""]
    if not lines:
        raise TopologyError("empty input: expected header id,x,y")
    first, head = lines[0]
    header = [c.strip() for c in head.split(",")]
    if header != ["id", "x", "y"]:
        raise TopologyError(f"line {first}: expected header id,x,y, got {head!r}")

    by_id: dict[int, tuple[float, float]] = {}
    for lineno, raw in lines[1:]:
        cells = [c.strip() for c in raw.split(",")]
        if len(cells) != 3:
            raise TopologyError(f"line {lineno}: expected 3 fields, got {len(cells)}")
        try:
            node_id = int(cells[0])
        except ValueError:
            raise TopologyError(f"line {lineno}: id {cells[0]!r} is not an integer") from None
        try:
            x, y = float(cells[1]), float(cells[2])
        except ValueError:
            raise TopologyError(f"line {lineno}: non-numeric coordinate") from None
        if node_id < 0:
            raise TopologyError(f"line {lineno}: negative id {node_id}")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise TopologyError(f"line {lineno}: non-finite coordinate")
        if node_id in by_id:
            raise TopologyError(f"line {lineno}: duplicate id {node_id}")
        by_id[node_id] = (x, y)

    if not by_id:
        raise TopologyError("empty input: no node records after header")
    expected = list(range(len(by_id)))
    if sorted(by_id) != expected:
        missing = sorted(set(expected) - set(by_id))
        raise TopologyError(f"ids must be dense 0..{len(by_id) - 1}; missing {missing}")
    return Topology.from_positions([by_id[i] for i in expected])


def oracle_nearest_links(topology: Topology, order) -> list[tuple[float, int]]:
    """Independent quadratic oracle for Topology.nearest_links: each node's
    full row of distances to the nodes before it, its least distance and the
    lowest id at it; (inf, -1) for the first."""
    links = []
    for k, v in enumerate(order):
        ds = topology.distances_from(v, order[:k])
        d = min(ds, default=math.inf)
        links.append((d, min((u for u, x in zip(order, ds) if x == d), default=-1)))
    return links


def mst_weight(weights) -> int:
    """Independent Prim oracle: MST weight of a complete graph.

    Deliberately separate from the schedule-search code so it can check it.
    """
    n = len(weights)
    if n == 1:
        return 0
    in_tree = [False] * n
    in_tree[0] = True
    best = [weights[0][v] for v in range(n)]
    total = 0
    for _ in range(n - 1):
        u = min(
            (v for v in range(n) if not in_tree[v]), key=lambda v: (best[v], v)
        )
        total += best[u]
        in_tree[u] = True
        for v in range(n):
            if not in_tree[v] and weights[u][v] < best[v]:
                best[v] = weights[u][v]
    return total


def oracle_descent(weights, n: int, objective: str) -> tuple[int, ...]:
    """Independent O(N**3) oracle: the lexicographically first optimal
    schedule of the MIN rule minimized ("minimize") or the MAX rule
    maximized ("maximize"), over a complete graph of pairwise budgets.

    Each prefix's best completion is its total plus the min (max) spanning
    tree of the unpolled nodes and one node for the prefix, whose edge to v
    is link[v]; polling v next changes the tree by link[v] minus hop[v], the
    heaviest (lightest) edge on the tree path from the prefix to v. A fresh
    Prim over the unpolled nodes gives hop at every step. Deliberately
    separate from the schedule-search code so it can check it.
    """
    size = len(weights)
    better = operator.lt if objective == "minimize" else operator.gt
    pick, hop_of = (min, max) if objective == "minimize" else (max, min)
    link, rest, order = [n if objective == "minimize" else 0] * size, list(range(size)), []
    while rest:
        key, hop = link[:], link[:]
        out = rest[:]
        while out:
            u = pick(out, key=key.__getitem__)
            out.remove(u)
            row, h = weights[u], hop[u]
            for v in out:
                if better(row[v], key[v]):
                    key[v], hop[v] = row[v], hop_of(h, row[v])
        bounds = [link[v] - hop[v] for v in rest]
        v = rest.pop(bounds.index(pick(bounds)))  # index: the first, lowest id
        order.append(v)
        link = list(map(pick, link, weights[v]))
    return tuple(order)
