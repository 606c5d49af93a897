"""Node placement and pairwise Euclidean distances, computed on demand from
the positions and never stored as a matrix; overflowing distances rejected.
Each node's nearest earlier node along an order comes from one sorted sweep
(nearest_links), and the field plan, one such sweep, is cached. One cell
grid (grid) certifies pairs at least s apart, and near_tails reads each
node's uncertified later pairs off it a block of cells at a time. Both scans
keep the positions they read in a list aligned with the ids they scan, so
each distance is one dist on that list. All distances are computed here."""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import chain, repeat
from math import dist, nextafter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from ._frozen import Frozen


class TopologyError(ValueError):
    """Malformed node-placement input (bad file, bad ids, bad coordinates)."""


class Topology(Frozen):
    """Immutable 2-D node layout that holds O(N): positions, a tuple of float
    pairs, holds the (x, y) coordinate of node i at index i, and each distance
    is computed when read, exactly symmetric. Safe for concurrent reads.
    """

    _fields = ("positions",)

    @property
    def size(self) -> int:
        return len(self.positions)

    @cached_property
    def coincident(self) -> bool:
        """Whether two nodes share a position: only such a pair is at distance 0."""
        return len(set(self.positions)) < self.size

    @classmethod
    def from_positions(cls, positions: Iterable[tuple[float, float]]) -> "Topology":
        xs, ys = [], []
        for x, y in positions:
            xs.append(float(x))
            ys.append(float(y))
        if not xs:
            raise TopologyError("topology needs at least one node")
        if not (all(map(math.isfinite, xs)) and all(map(math.isfinite, ys))):
            finite = [*map(operator.and_, map(math.isfinite, xs), map(math.isfinite, ys))]
            raise TopologyError(f"non-finite coordinate for node {finite.index(False)}")
        topo, n = cls(positions=tuple(zip(xs, ys))), len(xs)
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
        same differences as hypot(xi - xj, yi - yj) and returns that value.
        A range of ids in [0, N) with step 1 is read as a slice, with dist
        mapped over it; other ids are gathered by a comprehension, which is
        faster than a map over positions.__getitem__."""
        p, positions = self.positions[i], self.positions
        if isinstance(nodes, range) and nodes.step == 1 and 0 <= nodes.start and nodes.stop <= len(positions):
            return [*map(dist, repeat(p), positions[nodes.start : nodes.stop])]
        return [dist(p, positions[j]) for j in nodes]

    def distance(self, i: int, j: int) -> float:
        if not (0 <= i < self.size and 0 <= j < self.size):
            raise IndexError(f"node index out of range: ({i}, {j}) with N={self.size}")
        return self.distances_from(i, (j,))[0]

    def nearest_links(self, order: Sequence[int]) -> list[tuple[float, int]]:
        """(d, u) for each node of the permutation `order`: its nearest earlier
        node u by (distance, id), at d; (inf, -1) for the first.

        A projection search (Friedman, Baskett & Shustek 1975): the nodes met
        so far are kept sorted on the coordinate of larger span, their ids and
        positions in lists aligned with those keys, and each node scans out
        from its place on both sides until the gap g on that coordinate
        exceeds reach, the float after the best distance found: keys[j] - c
        to the right, where keys[j] >= c, and c - keys[j] to the left, each
        the rounded |keys[j] - c| (rounding is symmetric). dist takes the
        same rounded g, |g| is at most the norm dist rounds, and that norm
        errs by < 1 ulp (math.hypot's, documented since CPython 3.10), so
        dist returns at least the float before |g|. Once |g| > reach that is
        more than best, for this node and every node past it (|g| grows along
        a side). Gaps up to reach are scanned, so an equally near node of
        lower id is found.
        """
        positions, keys, ids, met, links = self.positions, [], [], [], []  # keys[k]: ids[k]'s sort coordinate
        xs, ys = zip(*positions)
        axis = 0 if max(xs) - min(xs) >= max(ys) - min(ys) else 1  # a column sorts on y
        for v in order:
            p = positions[v]
            c = p[axis]
            at, best, reach, near = bisect_left(keys, c), math.inf, math.inf, -1
            for j in range(at, len(keys)):
                if keys[j] - c > reach:
                    break
                d = dist(p, met[j])
                if d < best or d == best and ids[j] < near:
                    best, near, reach = d, ids[j], nextafter(d, math.inf)
            for j in range(at - 1, -1, -1):
                if c - keys[j] > reach:
                    break
                d = dist(p, met[j])
                if d < best or d == best and ids[j] < near:
                    best, near, reach = d, ids[j], nextafter(d, math.inf)
            keys.insert(at, c)
            ids.insert(at, v)
            met.insert(at, p)
            links.append((best, near))
        return links

    def grid(self, s: float) -> tuple[list[int], list[int]] | None:
        """A uniform cell grid certified at s > 0: (keys, offsets), node v's
        cell key at keys[v], where every pair whose keys differ by no offset
        is at distance >= s; None where s+, the float after s, or a cell
        index leaves the float range.

        The cell side h is a power of two with s+ / h in [2, 4), so x // h
        is floor(x / h) exactly, or inf where x / h leaves the float range.
        Two nodes whose columns are d >= 1 apart have an exact x gap above
        (d - 1) * h, a float, so the rounded gap that dist takes is at least
        that; likewise in y. An offset is left out where these two bounds
        alone give a norm of at least s+, tested in exact integers: a disk of
        cells, its corners cut. For every pair outside it the norm dist
        rounds is then at least s+, and dist errs by < 1 ulp (as in
        nearest_links), so it returns at least s."""
        far = nextafter(s, math.inf)
        h = math.ldexp(1.0, math.frexp(far)[1] - 2)  # s >= 2**-1074, so h >= 2**-1074
        rho = far / h  # exact: h is a power of two
        xs, ys = zip(*self.positions)
        try:  # as_integer_ratio and int raise at inf: s+ or an x / h past the float range
            p, q = rho.as_integer_ratio()
            cx = [*map(int, map(operator.floordiv, xs, repeat(h)))]
            cy = [*map(int, map(operator.floordiv, ys, repeat(h)))]
        except OverflowError:
            return None
        reach = range(-math.ceil(rho), math.ceil(rho) + 1)  # past it, one gap alone is >= s+
        stride = max(cy) - min(cy) + reach.stop  # key = column * stride + row: no offset's row wraps
        gaps = [max(abs(d) - 1, 0) ** 2 for d in reach]  # ((d - 1) * h)**2 in units of h**2
        offsets = [dx * stride + dy for dx, a in zip(reach, gaps) for dy, b in zip(reach, gaps)
                   if (a + b) * q * q < p * p]
        return [*map(operator.add, map(operator.mul, cx, repeat(stride)), cy)], offsets

    def near_tails(self, s: float) -> Iterator[tuple[list[int], Iterator[float]]] | None:
        """For each node i in id order, the nodes j > i that grid(s) cannot
        certify to be at distance >= s, in id order, and an iterator of their
        distances from i; None where grid(s) is None, or where those pairs
        are half of the N(N-1)/2 pairs or more, counted before any tail and
        no further. Each tail is read before the next is drawn.

        A cell's block, the nodes of the cells its key differs from by an
        offset, is gathered once, at its cell's first node: ids sorted,
        positions alongside. Node i drops the block's ids up to i, found by
        one bisect_right, with their positions, and maps dist over the
        positions left; the block goes after its cell's last node."""
        grid = self.grid(s)
        if grid is None:
            return None
        (keys, offsets), positions = grid, self.positions
        cells: dict[int, list[int]] = {}
        for v, k in enumerate(keys):
            cells.setdefault(k, []).append(v)
        get, count, half = cells.get, -len(keys), len(keys) * (len(keys) - 1) // 2  # each node is in its own block, a pair in both
        for k, c in cells.items():
            count += len(c) * sum(map(len, map(get, map(operator.add, repeat(k), offsets), repeat(()))))
            if count >= half:  # count only grows
                return None

        def tails() -> Iterator[tuple[list[int], Iterator[float]]]:
            blocks: dict[int, tuple[list[int], list]] = {}
            for i, (k, p) in enumerate(zip(keys, positions)):
                if k not in blocks:
                    ids = sorted(chain.from_iterable(map(get, map(operator.add, repeat(k), offsets), repeat(()))))
                    blocks[k] = ids, [positions[j] for j in ids]  # faster than a map, as in distances_from
                ids, near = blocks[k] if cells[k][-1] != i else blocks.pop(k)
                at = bisect_right(ids, i)
                del ids[:at], near[:at]
                yield ids, map(dist, repeat(p), near)

        return tails()

    @cached_property
    def field_plan(self) -> tuple[tuple[int, int, float], ...]:
        """The field generator's plan, cached: (v, nearest, d) for each node but
        0 in increasing distance from node 0 (ties by id), as nearest_links."""
        order = [0, *sorted(range(1, self.size), key=self.distances_from(0, range(self.size)).__getitem__)]
        return tuple((v, u, d) for v, (d, u) in zip(order[1:], self.nearest_links(order)[1:]))


def _lines(text: str) -> Iterator[str]:
    """text.splitlines(), a line at a time: no line break spans a newline."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def load_topology(source: str | Path | Iterable[str]) -> Topology:
    """Load a topology from `id,x,y` comma-separated text.

    Ids must be dense in [0, N) (any order in the file). Errors carry the
    offending line number: 1-based, blank lines counted (a file's lines as
    str.splitlines splits them, an iterable's items). Each line is dropped
    once parsed, its coordinates kept in two float lists.
    """
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                lines = enumerate(_lines(fh.read()), 1)
        except UnicodeDecodeError as exc:
            raise TopologyError(f"cannot read topology file {source}: {exc}") from None
    else:
        lines = enumerate(map(str.rstrip, source, repeat("\n")), 1)

    for lineno, raw in lines:
        if raw.strip():
            break
    else:
        raise TopologyError("empty input: expected header id,x,y")
    if [*map(str.strip, raw.split(","))] != ["id", "x", "y"]:
        raise TopologyError(f"line {lineno}: expected header id,x,y, got {raw!r}")

    xs, ys, rows = [], [], None  # rows: id -> record index, kept from the first id out of file order on
    for lineno, raw in lines:
        if not raw.strip():
            continue
        cells = raw.split(",")  # int and float strip the whitespace that str.strip does
        if len(cells) != 3:
            raise TopologyError(f"line {lineno}: expected 3 fields, got {len(cells)}")
        try:
            node_id = int(cells[0])
        except ValueError:
            raise TopologyError(f"line {lineno}: id {cells[0].strip()!r} is not an integer") from None
        try:
            x, y = float(cells[1]), float(cells[2])
        except ValueError:
            raise TopologyError(f"line {lineno}: non-numeric coordinate") from None
        if node_id < 0:
            raise TopologyError(f"line {lineno}: negative id {node_id}")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise TopologyError(f"line {lineno}: non-finite coordinate")
        if rows is not None or node_id != len(xs):
            if rows is None:  # the records before this one hold ids 0, 1, ... in order
                rows = dict(zip(range(len(xs)), range(len(xs))))
            if node_id in rows:
                raise TopologyError(f"line {lineno}: duplicate id {node_id}")
            rows[node_id] = len(xs)
        xs.append(x)
        ys.append(y)

    if not xs:
        raise TopologyError("empty input: no node records after header")
    if rows is not None:  # no id repeats, so they are dense when each is below N
        if max(rows) >= len(xs):
            missing = sorted(set(range(len(xs))).difference(rows))
            raise TopologyError(f"ids must be dense 0..{len(xs) - 1}; missing {missing}")
        at = [*map(rows.__getitem__, range(len(xs)))]
        xs, ys = [*map(xs.__getitem__, at)], [*map(ys.__getitem__, at)]
    return Topology.from_positions(zip(xs, ys))
