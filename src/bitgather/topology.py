"""Node placement and pairwise Euclidean distances, computed on demand from
the positions; overflowing distances rejected, the field plan cached."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from math import dist
from pathlib import Path
from typing import Iterable, Sequence


class TopologyError(ValueError):
    """Malformed node-placement input (bad file, bad ids, bad coordinates)."""


@dataclass(frozen=True)
class Topology:
    """Immutable 2-D node layout that holds O(N): positions[i] is the (x, y)
    coordinate of node i, and each distance is computed when read, exactly
    symmetric. distances, the full matrix, is built on its first read; no
    library code reads it. Safe for concurrent reads.
    """

    positions: tuple[tuple[float, float], ...]

    @property
    def size(self) -> int:
        return len(self.positions)

    @classmethod
    def from_positions(cls, positions: Sequence[tuple[float, float]]) -> "Topology":
        if not positions:
            raise TopologyError("topology needs at least one node")
        topo = cls(positions=tuple((float(x), float(y)) for x, y in positions))
        for i, (x, y) in enumerate(topo.positions):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise TopologyError(f"non-finite coordinate for node {i}")
        (xs, ys), n = zip(*topo.positions), topo.size
        # spans <= 2**1023 keep each distance <= 2**1023.5, and dist errs by < 1 ulp: none overflows
        if max(xs) - min(xs) > 2.0**1023 or max(ys) - min(ys) > 2.0**1023:
            for i in range(n):
                tail = topo.distances_from(i, range(i + 1, n))
                if math.inf in tail:
                    j = i + 1 + tail.index(math.inf)
                    raise TopologyError(f"distance between nodes {i} and {j} overflows the float range")
        return topo

    def distances_from(self, i: int, nodes: Iterable[int]) -> list[float]:
        """The distance from node i to each node of `nodes`: dist takes the
        same differences as hypot(xi - xj, yi - yj) and returns that value."""
        p, positions = self.positions[i], self.positions
        return [dist(p, positions[j]) for j in nodes]

    @cached_property
    def distances(self) -> tuple[tuple[float, ...], ...]:
        """The full symmetric matrix of distances_from rows."""
        return tuple(tuple(self.distances_from(i, range(self.size))) for i in range(self.size))

    def distance(self, i: int, j: int) -> float:
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise IndexError(f"node index out of range: ({i}, {j}) with N={self.size}")
        return self.distances_from(i, (j,))[0]

    def nearest_links(self, order: Sequence[int]) -> list[tuple[float, int]]:
        """(d, u) for each node of the permutation `order`: its nearest earlier
        node u by (distance, id), at d; (inf, -1) for the first."""
        return [nearest(self.distances_from(v, islice(order, k)), order) for k, v in enumerate(order)]

    @cached_property
    def field_plan(self) -> tuple[tuple[int, int, float], ...]:
        """The field generator's plan, cached: (v, nearest, d) for each node but
        0 in increasing distance from node 0 (ties by id), as nearest_links."""
        order = [0, *sorted(range(1, self.size), key=self.distances_from(0, range(self.size)).__getitem__)]
        return tuple((v, u, d) for v, (d, u) in zip(order[1:], self.nearest_links(order)[1:]))


def nearest(ds: list[float], ids: Sequence[int]) -> tuple[float, int]:
    """(d, u): the least distance of ds, where ds[k] is node ids[k]'s, and the
    lowest id among the nodes at it; (inf, -1) for an empty ds."""
    if not ds:
        return math.inf, -1
    d = min(ds)
    if ds.count(d) == 1:
        return d, ids[ds.index(d)]
    return d, min(u for u, x in zip(ids, ds) if x == d)  # coincident distances


def load_topology(source: str | Path | Iterable[str]) -> Topology:
    """Load a topology from `id,x,y` comma-separated text.

    Ids must be dense in [0, N) (any order in the file). Errors carry the
    offending line number, header = line 1.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except UnicodeDecodeError as exc:
            raise TopologyError(f"cannot read topology file {source}: {exc}") from None
    else:
        lines = [ln.rstrip("\n") for ln in source]

    lines = [ln for ln in lines if ln.strip() != ""]
    if not lines:
        raise TopologyError("empty input: expected header id,x,y")
    header = [c.strip() for c in lines[0].split(",")]
    if header != ["id", "x", "y"]:
        raise TopologyError(f"line 1: expected header id,x,y, got {lines[0]!r}")

    by_id: dict[int, tuple[float, float]] = {}
    for lineno, raw in enumerate(lines[1:], start=2):
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
