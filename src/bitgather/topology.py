"""Node placement and pairwise Euclidean distances: each pair computed once
and mirrored, overflowing distances rejected, the field plan cached."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence


class TopologyError(ValueError):
    """Malformed node-placement input (bad file, bad ids, bad coordinates)."""


@dataclass(frozen=True)
class Topology:
    """Immutable 2-D node layout with a precomputed distance matrix.

    positions[i] is the (x, y) coordinate of node i; distances is the full
    symmetric matrix of finite Euclidean distances. Safe for concurrent reads.
    """

    positions: tuple[tuple[float, float], ...]
    distances: tuple[tuple[float, ...], ...]

    @property
    def size(self) -> int:
        return len(self.positions)

    @classmethod
    def from_positions(cls, positions: Sequence[tuple[float, float]]) -> "Topology":
        if not positions:
            raise TopologyError("topology needs at least one node")
        pos = tuple((float(x), float(y)) for x, y in positions)
        for i, (x, y) in enumerate(pos):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise TopologyError(f"non-finite coordinate for node {i}")
        rows: list[tuple[float, ...]] = []
        for i, (xi, yi) in enumerate(pos):
            tail = [math.hypot(xi - xj, yi - yj) for xj, yj in pos[i + 1 :]]
            if math.inf in tail:
                j = i + 1 + tail.index(math.inf)
                raise TopologyError(f"distance between nodes {i} and {j} overflows the float range")
            rows.append((*map(itemgetter(i), rows), 0.0, *tail))  # hypot is exactly symmetric
        return cls(positions=pos, distances=tuple(rows))

    def distance(self, i: int, j: int) -> float:
        n = self.size
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"node index out of range: ({i}, {j}) with N={n}")
        return self.distances[i][j]

    def nearest_links(self, order: Sequence[int]) -> list[tuple[float, int]]:
        """(d, u) for each node of the permutation `order`: its nearest earlier
        node u by (distance, id), at d; (inf, -1) for the first."""
        near = [(math.inf, -1)] * self.size
        for k, v in enumerate(order):  # v's link is final: update the later ones
            row = self.distances[v]
            for w in order[k + 1 :]:
                if row[w] <= near[w][0] and (row[w], v) < near[w]:
                    near[w] = (row[w], v)
        return [near[v] for v in order]

    @cached_property
    def field_plan(self) -> tuple[tuple[int, int, float], ...]:
        """The field generator's plan, cached: (v, nearest, d) for each node but
        0 in increasing distance from node 0 (ties by id), as nearest_links."""
        order = [0, *sorted(range(1, self.size), key=self.distances[0].__getitem__)]  # stable
        return tuple((v, u, d) for v, (d, u) in zip(order[1:], self.nearest_links(order)[1:]))


def load_topology(source: str | Path | Iterable[str]) -> Topology:
    """Load a topology from `id,x,y` comma-separated text.

    Ids must be dense in [0, N) (any order in the file). Errors carry the
    offending line number, header = line 1.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
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
