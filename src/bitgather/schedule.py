"""Polling-schedule evaluation, statistics, and search.

A schedule is a permutation of node ids: position k is the k-th node
polled. The first node always transmits all n bits; every later node's
budget is conditioned on the set already polled, so the total depends on
the order. Any schedule's attachment edges (each node to the polled
partner that sets its budget) form a spanning tree of the complete graph
with pairwise budgets as edge weights. So under the MIN rule the minimum
total over all schedules is n plus the minimum spanning tree weight, and
under the MAX rule the maximum total is n plus the maximum spanning tree
weight; a Prim order (cheapest link first under MIN, dearest under MAX)
attains each.

One kernel, _Attach, keeps each unpolled node's link into the polled set
and updates it in O(N) per poll, and its pair table, built on first use;
evaluate, gather and greedy_prim run on it. Under every rule a node's
budget depends only on the set polled before it (ADDITIVE rounds the exact
sum of its decay terms once), so exhaustive statistics make one backward
pass over the 2**N polled sets (Held & Karp 1962), not the N! orders. The
brute-force search is a lexicographic depth-first walk over polling
prefixes, _walk, that builds each prefix's links once for every schedule
extending it and skips every prefix whose optimistic bound cannot beat the
best total so far; for the two spanning-tree pairs the bound is exact.
Under MIN and MAX a node's budget is its first polled partner in its row
ranked best first; sampled permutations are scored by that scan (ADDITIVE
folds its prefix).

"Average" statistics are the mean over uniformly random schedules, drawn
by Fisher-Yates shuffles of a seeded Mersenne Twister (random.Random), so
sampled results are bit-reproducible across platforms.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from statistics import fmean
from typing import Callable, Iterator, Sequence

# conditioned_bits, pairwise_bits: unused here, bound for bench/tracer.py to patch.
from .correlation import (  # noqa: F401
    ConditioningRule,
    ModelSpec,
    conditioned_bits,
    decay_sum,
    from_units,
    pairwise_bits,
    require_decay,
    to_units,
)
from .topology import Topology

# Exhaustive stats fold a budget for each node and polled set, 5120 at N = 10;
# beyond that stats --mode exhaustive is refused under every rule.
EXHAUSTIVE_LIMIT = 10
# Work units the brute-force search may spend: each visited prefix costs
# (unpolled nodes) * N, which covers its O(N) link update and its O(N**2)
# bound. The whole search tree of 10 nodes costs 62,353,000 units, so every
# input the exhaustive limit accepts is searched to the end.
SEARCH_WORK_LIMIT = 10**8
# Sampled schedules (stats, optimize --strategy random_restart); one total is kept per sample.
SAMPLE_LIMIT = 10**6


class InfeasibleError(RuntimeError):
    """Request exceeds a size or work limit: too many permutations to
    enumerate, too much brute-force search, too many sampled schedules,
    or too many sweep rows or simulated bits."""


@dataclass(frozen=True)
class BitReport:
    """Per-node budgets in polling order plus their sum."""

    per_node: tuple[tuple[int, int], ...]  # (node, bits) in polling order
    total: int


@dataclass(frozen=True)
class ScheduleStats:
    mean_total: float
    min_total: int
    max_total: int
    argmin: tuple[int, ...]
    argmax: tuple[int, ...]
    sample_count: int
    exhaustive: bool


def _check_permutation(schedule: Sequence[int], n_nodes: int) -> tuple[int, ...]:
    order = tuple(schedule)
    if sorted(order) != list(range(n_nodes)):
        raise ValueError(f"schedule {order} is not a permutation of 0..{n_nodes - 1}")
    return order


class _Attach:
    """The attach recurrence: each node's link into the polled set.

    A link is the min or max pairwise budget to the polled nodes, or under
    ADDITIVE the exact sum of their decay terms as a whole number of
    2**-1074 units (to_units); cost(link) is the node's budget. poll(u)
    merges u's term into every unpolled link, computing distances and terms
    on demand. rows, the O(N**2) pair table of budgets or decay terms, is
    built on first read; fold(row entries) is the budget given a polled set.
    """

    def __init__(self, model: ModelSpec, rule: ConditioningRule, topology: Topology):
        self.n = model.n
        self.rule = rule
        self.distances_from = topology.distances_from
        if rule is ConditioningRule.ADDITIVE:
            require_decay(model)
            decay_term, decay_bits = model.decay_term, model.decay_bits
            self.pair = decay_term
            self.term = lambda d: to_units(decay_term(d))
            self.merge = operator.add
            self.cost = lambda link: decay_bits(from_units(link))
            self.fold = lambda terms: decay_bits(decay_sum(terms))
            empty = 0
        else:
            self.pair = self.term = model.budget
            self.merge = self.fold = min if rule is ConditioningRule.MIN else max
            self.cost = int  # the link is the budget
            empty = model.n if rule is ConditioningRule.MIN else 0
        self.link = [empty] * topology.size
        self.root_total = model.n - self.cost(empty)  # so the first node polled pays n
        self.pending = list(range(topology.size))  # unpolled, in id order

    @cached_property
    def rows(self) -> list[list]:
        """Every pair's budget, or decay term under ADDITIVE, computed once
        per unordered pair and mirrored; 0 on the diagonal."""
        rows: list[list] = []
        for i in range(len(self.link)):
            tail = self.distances_from(i, range(i + 1, len(self.link)))
            rows.append([*map(operator.itemgetter(i), rows), 0, *map(self.pair, tail)])
        return rows

    @cached_property
    def steps(self) -> list[list]:
        """rows as the terms merged into links: whole units under ADDITIVE."""
        if self.rule is not ConditioningRule.ADDITIVE:
            return self.rows
        return [list(map(to_units, row)) for row in self.rows]

    def poll(self, u: int) -> int:
        """Poll u; returns its budget."""
        pending, link = self.pending, self.link
        bits = self.n if len(pending) == len(link) else self.cost(link[u])
        pending.remove(u)
        term, merge = self.term, self.merge
        for v, d in zip(pending, self.distances_from(u, pending)):
            link[v] = merge(link[v], term(d))
        return bits


def evaluate(
    model: ModelSpec,
    rule: ConditioningRule,
    topology: Topology,
    schedule: Sequence[int],
) -> BitReport:
    """Per-node budgets and total bits for one polling order."""
    kernel = _Attach(model, rule, topology)
    order = _check_permutation(schedule, topology.size)
    bits = list(map(kernel.poll, order))
    return BitReport(per_node=tuple(zip(order, bits)), total=sum(bits))


def budget_matrix(model: ModelSpec, topology: Topology) -> list[list[int]]:
    """Pairwise budgets for every node pair; symmetric, 0 on the diagonal."""
    return _Attach(model, ConditioningRule.MIN, topology).rows


def _budgets(kernel: _Attach, order: Sequence[int]) -> Iterator[int]:
    """Each node's budget in `order`, folded from the pair table."""
    rows, fold = kernel.rows, kernel.fold
    yield kernel.n
    for k in range(1, len(order)):
        # islice: order[:k] fills CPython 3.11's 20-item tuple cache, never reused
        yield fold(map(rows[order[k]].__getitem__, islice(order, k)))


def _total_fn(kernel: _Attach) -> Callable[[Sequence[int]], int]:
    """Total bits of one permutation, equal to evaluate().total: a ranked scan
    (about H_N probes per node on a random order), or under ADDITIVE a fold
    of each node's prefix."""
    if kernel.rule is ConditioningRule.ADDITIVE:
        return lambda order: sum(_budgets(kernel, order))
    rows, n = kernel.rows, kernel.n
    ids = list(range(len(rows)))  # shared, so the ranked lists hold the same ints
    down = kernel.rule is ConditioningRule.MAX
    ranked = [sorted(ids[:v] + ids[v + 1 :], key=r.__getitem__, reverse=down) for v, r in enumerate(rows)]
    pos = ids[:]  # pos[u]: u's position in the order being scored

    def scanned(order: Sequence[int]) -> int:
        for k, v in enumerate(order):
            pos[v] = k
        t = n
        for k in range(1, len(order)):
            v = order[k]
            for u in ranked[v]:
                if pos[u] < k:
                    t += rows[v][u]
                    break
        return t

    return scanned


def _walk(kernel: _Attach, leaf: Callable, children: Callable) -> None:
    """Depth-first walk over polling prefixes in lexicographic order.

    Each prefix carries its total so far and every unpolled node's link
    into it, built once and shared by every schedule extending it.
    children(total, link, rest) yields, in increasing order, the positions
    in `rest` of the nodes to poll next; leaf(total, path, tail) receives
    each complete schedule, path followed by tail, with its total.
    """
    rows, merge, cost = kernel.steps, kernel.merge, kernel.cost
    path: list[int] = []

    def visit(total: int, link: list, rest: tuple[int, ...]) -> None:
        if len(rest) == 2:  # both orders of the last two nodes, no link update
            a, b = rest
            leaf(total + cost(link[a]) + cost(merge(link[b], rows[a][b])), path, rest)
            leaf(total + cost(link[b]) + cost(merge(link[a], rows[b][a])), path, (b, a))
            return
        if len(rest) == 1:  # N = 1
            leaf(total + cost(link[rest[0]]), path, rest)
            return
        for i in children(total, link, rest):
            v = rest[i]
            path.append(v)
            visit(total + cost(link[v]), list(map(merge, link, rows[v])), rest[:i] + rest[i + 1 :])
            path.pop()

    try:
        visit(kernel.root_total, kernel.link, tuple(range(len(rows))))
    finally:
        del visit  # it holds itself through its closure: free the walk's state now


def _exhaustive(kernel: _Attach) -> ScheduleStats:
    """Exact statistics over all N! schedules from one backward pass over
    the 2**N polled sets (Held & Karp 1962).

    A node's budget depends only on the set S polled before it, so the least
    and greatest totals of the nodes after S are g(S) = best over v not in S
    of budget(v | S) + g(S | {v}). v follows S in |S|! (N - 1 - |S|)!
    schedules, which weights the exact integer sum of all totals. argmin and
    argmax take the lowest optimal v forward from the empty set: the
    lexicographically first extremes. Budgets are folded afresh from the
    pair table, so the pass keeps two ints per set.
    """
    rows, fold, size = kernel.rows, kernel.fold, len(kernel.rows)
    ids, full = range(size), (1 << size) - 1
    weights = [math.factorial(k) * math.factorial(size - 1 - k) for k in ids]

    def budgets(s: int) -> list[tuple[int, int]]:
        """(v, budget(v | S)) for each node v outside the set S, in id order."""
        members = [u for u in ids if s >> u & 1]
        out = [v for v in ids if not s >> v & 1]
        return [(v, fold(map(rows[v].__getitem__, members)) if s else kernel.n) for v in out]

    lo, hi, acc = [0] * (full + 1), [0] * (full + 1), 0
    for s in range(full - 1, -1, -1):  # every superset of s comes first
        outs = budgets(s)
        acc += sum(b for _, b in outs) * weights[size - len(outs)]
        lo[s] = min(b + lo[s | 1 << v] for v, b in outs)
        hi[s] = max(b + hi[s | 1 << v] for v, b in outs)

    def first(g: list[int]) -> tuple[int, ...]:
        s, order = 0, []
        while s != full:
            order.append(next(v for v, b in budgets(s) if b + g[s | 1 << v] == g[s]))
            s |= 1 << order[-1]
        return tuple(order)

    count = math.factorial(size)
    return ScheduleStats(acc / count, lo[0], hi[0], first(lo), first(hi), count, exhaustive=True)


def _sample(
    model: ModelSpec, rule: ConditioningRule, topology: Topology,
    count: int | None, seed: int | None,
) -> ScheduleStats:
    """Statistics over `count` seeded shuffles, each scored as it is drawn."""
    if count is None or count < 1:
        raise ValueError("sampling needs count >= 1")
    if seed is None:
        raise ValueError("sampling needs an explicit seed")
    if count > SAMPLE_LIMIT:
        raise InfeasibleError(f"sampling refused: more than {SAMPLE_LIMIT} schedules")
    total_of = _total_fn(_Attach(model, rule, topology))
    rng, order = random.Random(seed), list(range(topology.size))
    totals, lo, hi, argmin, argmax = [], math.inf, -math.inf, (), ()
    for _ in range(count):
        rng.shuffle(order)
        totals.append(t := total_of(order))
        if t < lo:
            lo, argmin = t, tuple(order)
        if t > hi:
            hi, argmax = t, tuple(order)
    return ScheduleStats(fmean(totals), lo, hi, argmin, argmax, count, exhaustive=False)


def schedule_stats(
    model: ModelSpec,
    rule: ConditioningRule,
    topology: Topology,
    mode: str,
    *,
    count: int | None = None,
    seed: int | None = None,
) -> ScheduleStats:
    """Min / mean / max total bits over schedules.

    mode="exhaustive" is exact over all N! permutations (N <=
    EXHAUSTIVE_LIMIT), with argmin and argmax the lexicographically first
    extremes. No permutation is walked: under every rule a node's budget
    depends only on the set polled before it (ADDITIVE rounds the exact sum
    of its decay terms once), so one backward pass over the 2**N polled
    sets gives the minimum, the maximum and the exact mean.
    mode="sampled" draws `count` uniform permutations from `seed`.
    """
    n_nodes = topology.size
    if mode == "exhaustive":
        if n_nodes > EXHAUSTIVE_LIMIT:
            raise InfeasibleError(
                f"exhaustive enumeration refused for N={n_nodes} > "
                f"{EXHAUSTIVE_LIMIT}; use sampled mode"
            )
        return _exhaustive(_Attach(model, rule, topology))

    if mode != "sampled":
        raise ValueError(f"mode must be exhaustive or sampled, got {mode!r}")
    return _sample(model, rule, topology, count, seed)


# (rule, objective) pairs whose optimum is n plus a spanning tree's weight
_SPANNING = {(ConditioningRule.MIN, "minimize"), (ConditioningRule.MAX, "maximize")}


def _prim_order(model: ModelSpec, rule: ConditioningRule, topology: Topology) -> BitReport:
    """Prim order from node 0 with its budgets under `rule` (MIN or MAX):
    always poll the node whose link is cheapest under MIN, dearest under
    MAX, ties toward the lowest id."""
    kernel = _Attach(model, rule, topology)
    pick = min if rule is ConditioningRule.MIN else max  # both return the first extreme
    per_node, u = [], 0
    while kernel.pending:
        per_node.append((u, kernel.poll(u)))
        u = pick(kernel.pending, key=kernel.link.__getitem__, default=-1)
    return BitReport(per_node=tuple(per_node), total=sum(bits for _, bits in per_node))


def _prim_from(table: list[list[int]], start: int, pick: Callable = min) -> tuple[int, ...]:
    """A MIN-rule Prim order from `start` over a table of pairwise budgets:
    cheapest link first (pick=min) or dearest (pick=max), ties toward the lowest id."""
    link, order = table[start], [start]
    pending = [v for v in range(len(table)) if v != start]
    while pending:
        u = pick(pending, key=link.__getitem__)
        pending.remove(u)
        order.append(u)
        link = list(map(min, link, table[u]))
    return tuple(order)


def _additive_floors(kernel: _Attach) -> list[int]:
    """A lower bound on each node's ADDITIVE budget in any schedule: its
    budget given every other node. The exact sum only rises as nodes are
    polled, and cost does not rise with it (decay_bits is monotone)."""
    return [kernel.fold(row[:v] + row[v + 1 :]) for v, row in enumerate(kernel.rows)]


def _search(kernel: _Attach, objective: str) -> tuple[tuple[int, ...], int]:
    """The lexicographically first optimal schedule and its total, by
    branch and bound.

    A _walk that enters a prefix only if its optimistic bound
    (a lower bound on its completions' totals when minimizing, an upper
    bound when maximizing) beats the best total so far, or ties it while
    no leaf of the walk has been kept. The best starts unbounded, or for
    the two _SPANNING pairs at the root's exact bound, the optimum. So the
    first optimal leaf in lexicographic order is the one kept. Raises
    InfeasibleError once the walk has spent SEARCH_WORK_LIMIT work units.
    """
    size, rule = len(kernel.link), kernel.rule
    # the walk reaches a leaf through prefixes with N, N - 1, ..., 2 nodes
    # left, so it costs at least this much
    if size * (size * (size + 1) // 2 - 1) > SEARCH_WORK_LIMIT:
        raise InfeasibleError(f"brute force refused for N={size}: above the search's work limit")
    rows, merge, cost = kernel.steps, kernel.merge, kernel.cost
    minimize = objective == "minimize"
    better = operator.lt if minimize else operator.gt
    best, found = math.inf if minimize else -math.inf, None
    work = size * size  # the root's visit

    def admits(bound) -> bool:
        return better(bound, best) or (bound == best and found is None)

    def leaf(total: int, path: list[int], tail: tuple[int, ...]) -> None:
        nonlocal best, found
        if admits(total):
            best, found = total, (*path, *tail)

    if (rule, objective) in _SPANNING:
        pick, hop_of = (min, max) if minimize else (max, min)

        def bounds(total: int, link: list, rest: tuple[int, ...]) -> list:
            # Exact. The best completion of a prefix is total plus the min
            # (max) spanning tree of the unpolled nodes and one node for the
            # prefix, whose edge to v is link[v]. Polling v next forces that
            # edge into the tree: the tree's weight changes by link[v] minus
            # the heaviest (lightest) edge on its path from the prefix to v.
            key, hop = link[:], link[:]
            out, weight = list(rest), 0
            while out:
                u = pick(out, key=key.__getitem__)
                out.remove(u)
                weight += key[u]
                row, h = rows[u], hop[u]
                for v in out:
                    if better(row[v], key[v]):
                        key[v], hop[v] = row[v], hop_of(h, row[v])
            return [total + weight + link[v] - hop[v] for v in rest]

        best = pick(bounds(kernel.root_total, kernel.link, tuple(range(size))))

    elif rule is ConditioningRule.ADDITIVE and minimize:
        floors = _additive_floors(kernel)

        def bounds(total: int, link: list, rest: tuple[int, ...]) -> list:
            others = sum(map(floors.__getitem__, rest))
            return [total + cost(link[v]) + others - floors[v] for v in rest]

    else:

        def bounds(total: int, link: list, rest: tuple[int, ...]) -> list:
            # A link only moves one way as nodes are polled: a MIN link falls,
            # a MAX link rises, and an exact ADDITIVE sum of non-negative terms
            # rises. So once v is polled, each other node's cost is at least
            # its budget (MIN, ADDITIVE: maximize) or at most it (MAX: minimize).
            out = []
            for i, v in enumerate(rest):
                row, others = rows[v], rest[:i] + rest[i + 1 :]
                moved = map(merge, map(link.__getitem__, others), map(row.__getitem__, others))
                out.append(total + cost(link[v]) + sum(map(cost, moved)))
            return out

    def children(total: int, link: list, rest: tuple[int, ...]) -> Iterator[int]:
        # each bound is tested when the walk reaches its child, so a better
        # total found under an earlier sibling prunes the later ones; a
        # filter holds less per open prefix than a generator frame
        child_bounds, step = bounds(total, link, rest), (len(rest) - 1) * size

        def enters(i: int) -> bool:
            nonlocal work
            if not admits(child_bounds[i]):
                return False
            work += step
            if work > SEARCH_WORK_LIMIT:
                raise InfeasibleError(
                    f"brute force refused for N={size}: "
                    f"the search exceeded {SEARCH_WORK_LIMIT} work units"
                )
            return True

        return filter(enters, range(len(rest)))

    _walk(kernel, leaf, children)
    return found, best


def optimize(
    model: ModelSpec,
    rule: ConditioningRule,
    topology: Topology,
    objective: str = "minimize",
    strategy: str = "brute_force",
    *,
    count: int | None = None,
    seed: int | None = None,
    force: bool = False,
) -> tuple[tuple[int, ...], BitReport]:
    """Search for a schedule optimizing total bits.

    brute_force is exact and returns the lexicographically first optimal
    schedule. It is a branch-and-bound walk whose bound is exact for the
    MIN rule minimized and the MAX rule maximized, so those run in about
    O(N**3); it raises InfeasibleError once its work passes
    SEARCH_WORK_LIMIT, which no input of up to EXHAUSTIVE_LIMIT nodes
    reaches. greedy_prim is exact for the MIN rule with objective
    "minimize" and the MAX rule with "maximize": the Prim order from node
    0 totals n plus the min (max) spanning tree weight. For other pairs it
    is refused unless `force` is set; then it runs as a heuristic that
    tries every start node and keeps the best MIN-rule Prim order (dearest
    link first too, for the MIN rule maximized), all on one budget table.
    random_restart keeps the best of `count` seeded random permutations.
    Among equal totals the first schedule tried wins.
    """
    if objective not in ("minimize", "maximize"):
        raise ValueError(f"unknown objective {objective!r}")
    n_nodes = topology.size
    if strategy == "brute_force":
        best, _ = _search(_Attach(model, rule, topology), objective)
        return best, evaluate(model, rule, topology, best)
    if strategy == "greedy_prim":
        if (rule, objective) in _SPANNING:
            report = _prim_order(model, rule, topology)
            return tuple(u for u, _ in report.per_node), report
        if not force:
            raise ValueError(
                "greedy_prim is only exact for the min rule with objective minimize "
                "and the max rule with objective maximize; pass force=True to run "
                "it as a heuristic"
            )
        kernel = _Attach(model, rule, topology)  # under MIN and MAX its rows are the budgets
        table = budget_matrix(model, topology) if rule is ConditioningRule.ADDITIVE else kernel.rows
        # cheapest-first orders aim low: to maximize a MIN total, dearest-first ones follow
        aims = (min, max) if (rule, objective) == (ConditioningRule.MIN, "maximize") else (min,)
        candidates = [_prim_from(table, start, aim) for aim in aims for start in range(n_nodes)]
        pick = min if objective == "minimize" else max  # both keep the first extreme
        best = pick(candidates, key=_total_fn(kernel))
        bits = list(_budgets(kernel, best))
        return best, BitReport(per_node=tuple(zip(best, bits)), total=sum(bits))
    if strategy == "random_restart":
        stats = _sample(model, rule, topology, count, seed)
        best = stats.argmin if objective == "minimize" else stats.argmax
        return best, evaluate(model, rule, topology, best)
    raise ValueError(f"unknown strategy {strategy!r}")
