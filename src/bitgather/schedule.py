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
exhaustive walks (which share each prefix's links) all run on it; scoring
unrelated random permutations folds each prefix of a term matrix instead.

"Average" statistics are the mean over uniformly random schedules, drawn
by Fisher-Yates shuffles of a seeded Mersenne Twister (random.Random), so
sampled results are bit-reproducible across platforms and worker counts.
"""

from __future__ import annotations

import math
import operator
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial, reduce
from itertools import islice
from statistics import fmean
from typing import Callable, Sequence

# conditioned_bits is unused here but stays bound: bench/tracer.py patches it.
from .correlation import (  # noqa: F401
    ConditioningRule,
    ModelSpec,
    conditioned_bits,
    decay_bits,
    decay_term,
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
    node's budget, fold_cost(terms) the same from the terms themselves.
    poll(u) merges u's term into every unpolled link, computing terms on
    demand, and tracks each node's nearest polled node by (distance, id).
    """

    def __init__(self, model: ModelSpec, rule: ConditioningRule, topology: Topology):
        self.n = model.n
        self.distances = topology.distances
        if rule is ConditioningRule.ADDITIVE:
            require_decay(model)
            self.term = partial(decay_term, model)
            self.merge = operator.add
            self.cost = partial(decay_bits, model)
            self.fold_cost = lambda terms: decay_bits(model, reduce(operator.add, terms))
            empty = 0.0
        else:
            self.term = partial(pairwise_bits, model)
            self.merge = self.fold_cost = min if rule is ConditioningRule.MIN else max
            self.cost = int  # the link is the budget
            empty = model.n if rule is ConditioningRule.MIN else 0
        self.link = [empty] * topology.size
        self.near = [(math.inf, -1)] * topology.size
        self.pending = list(range(topology.size))  # unpolled, in id order

    def row(self, u: int) -> list:
        """u's term to every node; 0 on the diagonal, which is never read."""
        term = self.term
        return [term(d) if v != u else 0 for v, d in enumerate(self.distances[u])]

    def poll(self, u: int) -> tuple[int, int]:
        """Poll u; returns its budget and its reference node (-1 if first)."""
        pending, link, near = self.pending, self.link, self.near
        bits = self.n if len(pending) == len(link) else self.cost(link[u])
        pending.remove(u)
        drow, term, merge = self.distances[u], self.term, self.merge
        for v in pending:
            d = drow[v]
            link[v] = merge(link[v], term(d))
            if d <= near[v][0] and (d, u) < near[v]:
                near[v] = (d, u)
        return bits, near[u][1]


def _walk(
    model: ModelSpec, rule: ConditioningRule, topology: Topology, schedule: Sequence[int]
) -> tuple[BitReport, list[int]]:
    """Budgets of one polling order, and each node's reference node."""
    kernel = _Attach(model, rule, topology)
    order = _check_permutation(schedule, topology.size)
    bits, refs = zip(*map(kernel.poll, order))
    return BitReport(per_node=tuple(zip(order, bits)), total=sum(bits)), list(refs)


def evaluate(
    model: ModelSpec,
    rule: ConditioningRule,
    topology: Topology,
    schedule: Sequence[int],
) -> BitReport:
    """Per-node budgets and total bits for one polling order."""
    return _walk(model, rule, topology, schedule)[0]


def budget_matrix(model: ModelSpec, topology: Topology) -> list[list[int]]:
    """Pairwise budgets for every node pair; symmetric, zero-safe diagonal."""
    return [
        [pairwise_bits(model, d) if i != j else 0 for j, d in enumerate(row)]
        for i, row in enumerate(topology.distances)
    ]


def _total_fn(
    model: ModelSpec, rule: ConditioningRule, topology: Topology
) -> Callable[[Sequence[int]], int]:
    """Total bits of one permutation, equal to evaluate().total; folding
    each node's prefix beats an O(N) link update per unrelated permutation."""
    kernel = _Attach(model, rule, topology)
    rows = [kernel.row(u) for u in range(topology.size)]
    n, fold_cost = kernel.n, kernel.fold_cost

    def total(order: Sequence[int]) -> int:
        t = n
        for k in range(1, len(order)):
            # islice, not order[:k]: CPython 3.11 never reuses the 20-item
            # tuples it caches, so slicing would hold ~0.4 MB per process
            t += fold_cost(map(rows[order[k]].__getitem__, islice(order, k)))
        return t

    return total


def _enumerate(model: ModelSpec, rule: ConditioningRule, topology: Topology) -> ScheduleStats:
    """Exact statistics over all permutations: a depth-first walk in
    lexicographic order (argmin and argmax are the first extremes) that
    computes each prefix's links once for every permutation extending it."""
    kernel = _Attach(model, rule, topology)
    rows = [kernel.row(u) for u in range(topology.size)]
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


def _sampled_perms(n_nodes: int, count: int, seed: int) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    base = list(range(n_nodes))
    perms = []
    for _ in range(count):
        rng.shuffle(base)
        perms.append(tuple(base))
    return perms


def schedule_stats(
    model: ModelSpec,
    rule: ConditioningRule,
    topology: Topology,
    mode: str,
    *,
    count: int | None = None,
    seed: int | None = None,
    workers: int = 1,
) -> ScheduleStats:
    """Min / mean / max total bits over schedules.

    mode="exhaustive" enumerates all N! permutations (N <= EXHAUSTIVE_LIMIT);
    mode="sampled" draws `count` uniform permutations from `seed`. Results do
    not depend on `workers`.
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
        raise ValueError(f"unknown mode {mode!r}")
    if count is None or count < 1:
        raise ValueError("sampled mode needs count >= 1")
    if seed is None:
        raise ValueError("sampled mode needs an explicit seed")

    total_of = _total_fn(model, rule, topology)
    perms = _sampled_perms(n_nodes, count, seed)
    if workers > 1:
        chunk = max(1, -(-len(perms) // workers))
        parts = [perms[i : i + chunk] for i in range(0, len(perms), chunk)]
        with ThreadPoolExecutor(max_workers=workers) as ex:
            totals = [t for part in ex.map(lambda c: [total_of(p) for p in c], parts) for t in part]
    else:
        totals = [total_of(p) for p in perms]

    lo, hi = min(totals), max(totals)
    argmin, argmax = perms[totals.index(lo)], perms[totals.index(hi)]
    return ScheduleStats(fmean(totals), lo, hi, argmin, argmax, len(perms), exhaustive=False)


def _prim_order(model: ModelSpec, topology: Topology, start: int) -> BitReport:
    """Prim order from `start` with its MIN-rule budgets: always poll the
    node whose link is cheapest, ties toward the lowest id."""
    kernel = _Attach(model, ConditioningRule.MIN, topology)
    per_node = []
    u = start
    while kernel.pending:
        per_node.append((u, kernel.poll(u)[0]))
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
        best = stats.argmin if objective == "minimize" else stats.argmax
        return best, evaluate(model, rule, topology, best)
    if strategy == "greedy_prim":
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
    elif strategy == "random_restart":
        if count is None or count < 1:
            raise ValueError("random_restart needs count >= 1")
        if seed is None:
            raise ValueError("random_restart needs an explicit seed")
        candidates = _sampled_perms(n_nodes, count, seed)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    pick = min if objective == "minimize" else max  # both keep the first extreme
    best = pick(candidates, key=_total_fn(model, rule, topology))
    return best, evaluate(model, rule, topology, best)
