"""Polling-schedule evaluation, statistics, and search.

A schedule is a permutation of node ids: position k is the k-th node
polled. The first node always transmits all n bits; every later node's
budget is conditioned on the set already polled, so the total depends on
the order. Under the MIN rule the minimum total over all schedules equals
n plus the weight of the minimum spanning tree of the complete graph with
pairwise budgets as edge weights: any schedule's attachment edges form a
spanning tree, and every Prim order achieves the MST.

One kernel, _Attach, keeps each unpolled node's link into the polled set
and updates it in O(N) per poll. evaluate, gather, greedy_prim and the
exhaustive walks (which share each prefix's links) all run on it. Sampled
permutations are scored one by one: under MIN and MAX a node's budget is its
first polled partner in a row ranked best first; ADDITIVE folds its prefix.

"Average" statistics are the mean over uniformly random schedules, drawn
by Fisher-Yates shuffles of a seeded Mersenne Twister (random.Random), so
sampled results are bit-reproducible across platforms.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from statistics import fmean
from typing import Callable, Sequence

# conditioned_bits, pairwise_bits: unused here, bound for bench/tracer.py to patch.
from .correlation import (  # noqa: F401
    ConditioningRule,
    ModelSpec,
    conditioned_bits,
    pairwise_bits,
    require_decay,
)
from .topology import Topology

# 10! is ~3.6M evaluations; beyond that exhaustive enumeration is refused.
EXHAUSTIVE_LIMIT = 10


class InfeasibleError(RuntimeError):
    """Request would require enumerating too many permutations."""


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

    A link is the min or max pairwise budget to the polled nodes, or the
    sum of their decay terms in polling order (ADDITIVE); cost(link) is the
    node's budget. poll(u) merges u's term into every unpolled link,
    computing terms on demand.
    """

    def __init__(self, model: ModelSpec, rule: ConditioningRule, topology: Topology):
        self.n = model.n
        self.distances = topology.distances
        if rule is ConditioningRule.ADDITIVE:
            require_decay(model)
            self.term = model.decay_term
            self.merge = operator.add
            self.cost = model.decay_bits
            empty = 0.0
        else:
            self.term = model.budget
            self.merge = min if rule is ConditioningRule.MIN else max
            self.cost = int  # the link is the budget
            empty = model.n if rule is ConditioningRule.MIN else 0
        self.link = [empty] * topology.size
        self.pending = list(range(topology.size))  # unpolled, in id order

    def rows(self) -> list[list]:
        """Every pair's term, computed once per unordered pair and mirrored;
        0 on the diagonal."""
        rows: list[list] = []
        for i, drow in enumerate(self.distances):
            rows.append([*map(operator.itemgetter(i), rows), 0, *map(self.term, drow[i + 1 :])])
        return rows

    def poll(self, u: int) -> int:
        """Poll u; returns its budget."""
        pending, link = self.pending, self.link
        bits = self.n if len(pending) == len(link) else self.cost(link[u])
        pending.remove(u)
        drow, term, merge = self.distances[u], self.term, self.merge
        for v in pending:
            link[v] = merge(link[v], term(drow[v]))
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
    return _Attach(model, ConditioningRule.MIN, topology).rows()


def _total_fn(
    model: ModelSpec, rule: ConditioningRule, topology: Topology
) -> Callable[[Sequence[int]], int]:
    """Total bits of one permutation, equal to evaluate().total: a ranked scan
    (about H_N probes per node on a random order), or under ADDITIVE a fold."""
    kernel = _Attach(model, rule, topology)
    rows = kernel.rows()
    n, merge, cost = kernel.n, kernel.merge, kernel.cost
    if rule is ConditioningRule.ADDITIVE:
        # islice: order[:k] fills CPython 3.11's 20-item tuple cache, never reused
        return lambda order: n + sum(
            cost(reduce(merge, map(rows[order[k]].__getitem__, islice(order, k))))
            for k in range(1, len(order))
        )
    ids = list(range(len(rows)))  # shared, so the ranked lists hold the same ints
    down = rule is ConditioningRule.MAX
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


def _enumerate(model: ModelSpec, rule: ConditioningRule, topology: Topology) -> ScheduleStats:
    """Exact statistics over all permutations: a depth-first walk in
    lexicographic order (argmin and argmax are the first extremes) that
    computes each prefix's links once for every permutation extending it."""
    kernel = _Attach(model, rule, topology)
    rows = kernel.rows()
    merge, cost = kernel.merge, kernel.cost
    acc = count = 0
    lo, hi = math.inf, -math.inf
    argmin = argmax = ()
    path: list[int] = []

    def leaf(t: int, tail: tuple[int, ...]) -> None:
        nonlocal acc, count, lo, hi, argmin, argmax
        acc += t
        count += 1
        if t < lo:
            lo, argmin = t, (*path, *tail)
        if t > hi:
            hi, argmax = t, (*path, *tail)

    def visit(total: int, link: list, rest: tuple[int, ...]) -> None:
        if len(rest) == 2:  # both orders of the last two nodes, no link update
            a, b = rest
            leaf(total + cost(link[a]) + cost(merge(link[b], rows[a][b])), rest)
            leaf(total + cost(link[b]) + cost(merge(link[a], rows[b][a])), (b, a))
            return
        if len(rest) < 2:
            leaf(total + sum(cost(link[v]) for v in rest), rest)
            return
        for i, v in enumerate(rest):
            path.append(v)
            visit(total + cost(link[v]), list(map(merge, link, rows[v])), rest[:i] + rest[i + 1 :])
            path.pop()

    everyone = tuple(range(topology.size))
    for i, first in enumerate(everyone):
        path.append(first)
        visit(kernel.n, list(map(merge, kernel.link, rows[first])), everyone[:i] + everyone[i + 1 :])
        path.pop()
    return ScheduleStats(acc / count, lo, hi, argmin, argmax, count, exhaustive=True)


def _sample(
    model: ModelSpec, rule: ConditioningRule, topology: Topology, count: int, seed: int
) -> ScheduleStats:
    """Statistics over `count` seeded shuffles, each scored as it is drawn."""
    total_of = _total_fn(model, rule, topology)
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

    mode="exhaustive" enumerates all N! permutations (N <= EXHAUSTIVE_LIMIT);
    mode="sampled" draws `count` uniform permutations from `seed`.
    """
    n_nodes = topology.size
    if mode == "exhaustive":
        if n_nodes > EXHAUSTIVE_LIMIT:
            raise InfeasibleError(
                f"exhaustive enumeration refused for N={n_nodes} > "
                f"{EXHAUSTIVE_LIMIT}; use sampled mode"
            )
        return _enumerate(model, rule, topology)

    if mode != "sampled":
        raise ValueError(f"mode must be exhaustive or sampled, got {mode!r}")
    if count is None or count < 1:
        raise ValueError("sampled mode needs count >= 1")
    if seed is None:
        raise ValueError("sampled mode needs an explicit seed")

    return _sample(model, rule, topology, count, seed)


def _prim_order(model: ModelSpec, topology: Topology, start: int) -> BitReport:
    """Prim order from `start` with its MIN-rule budgets: always poll the
    node whose link is cheapest, ties toward the lowest id."""
    kernel = _Attach(model, ConditioningRule.MIN, topology)
    per_node = []
    u = start
    while kernel.pending:
        per_node.append((u, kernel.poll(u)))
        u = min(kernel.pending, key=kernel.link.__getitem__, default=-1)
    return BitReport(per_node=tuple(per_node), total=sum(bits for _, bits in per_node))


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

    brute_force is exact (N <= EXHAUSTIVE_LIMIT). greedy_prim is exact for
    the MIN rule with objective "minimize": every Prim order totals n plus
    the MST weight, so it runs from node 0 alone. For other rules or the
    other objective it is refused unless `force` is set; then it runs as a
    heuristic that tries every start node and keeps the best Prim order.
    random_restart keeps the best of `count` seeded random permutations.
    Among equal totals the first schedule tried wins.
    """
    if objective not in ("minimize", "maximize"):
        raise ValueError(f"unknown objective {objective!r}")
    n_nodes = topology.size
    if strategy == "brute_force":
        if n_nodes > EXHAUSTIVE_LIMIT:
            raise InfeasibleError(
                f"brute force refused for N={n_nodes} > {EXHAUSTIVE_LIMIT}"
            )
        stats = _enumerate(model, rule, topology)
    elif strategy == "greedy_prim":
        if rule is ConditioningRule.MIN and objective == "minimize":
            report = _prim_order(model, topology, 0)
            return tuple(u for u, _ in report.per_node), report
        if not force:
            raise ValueError(
                "greedy_prim is only exact for the min rule with objective "
                "minimize; pass force=True to run it as a heuristic"
            )
        candidates = [
            tuple(u for u, _ in _prim_order(model, topology, start).per_node)
            for start in range(n_nodes)
        ]
        pick = min if objective == "minimize" else max  # both keep the first extreme
        best = pick(candidates, key=_total_fn(model, rule, topology))
        return best, evaluate(model, rule, topology, best)
    elif strategy == "random_restart":
        if count is None or count < 1:
            raise ValueError("random_restart needs count >= 1")
        if seed is None:
            raise ValueError("random_restart needs an explicit seed")
        stats = _sample(model, rule, topology, count, seed)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    best = stats.argmin if objective == "minimize" else stats.argmax
    return best, evaluate(model, rule, topology, best)
