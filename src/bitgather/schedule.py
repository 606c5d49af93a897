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

Under every rule a node's budget depends only on the set polled before
it: its pair values to those nodes (pairwise budgets, or decay terms
under ADDITIVE) folded by min, max, or an exact sum rounded once.
_Attach holds that fold and the pair table, built on first use. A budget
is monotone in distance, so under MIN and MAX a walk (evaluate, and the
simulator's gather and sweep) reads each node's budget off one distance
of its prefix, the nearest or the farthest; under ADDITIVE it folds the
prefix. The pair table and the Prim order read pairwise budgets off the
model's step table where finding its steps costs fewer calls than the
pairs. Only the Prim order keeps a running link, to pick the next node.
One backward pass over the 2**N polled sets (Held & Karp 1962) gives the
exhaustive statistics and the brute-force optimum; the two spanning-tree
pairs instead descend by an exact spanning-tree bound, in O(N**3).
Sampled permutations are scored by a scan of each node's row ranked best
first (ADDITIVE folds its prefix).

"Average" statistics are the mean over uniformly random schedules, drawn
by this module's own Fisher-Yates shuffle over a seeded Mersenne Twister:
each swap index is getrandbits(k) with rejection, k the bit length of the
number of candidates. Those are the draws of random.shuffle on CPython
3.10-3.13, but reproducibility rests only on getrandbits' output, not on
shuffle's internals, so sampled results are bit-reproducible across
platforms.
"""

from __future__ import annotations

import math
import operator
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import islice, repeat
from statistics import fmean
from typing import Callable, Iterable, Iterator, Sequence

# conditioned_bits, pairwise_bits: unused here, bound for bench/tracer.py to patch.
from .correlation import (  # noqa: F401
    ConditioningRule,
    ModelSpec,
    budget_steps,
    conditioned_bits,
    decay_sum,
    pairwise_bits,
    require_decay,
)
from .topology import Topology

# The polled-set pass folds a budget for each node and polled set,
# 16 * 2**15 = 524,288 at N = 16; beyond that exhaustive stats and brute
# force outside the spanning pairs are refused.
EXHAUSTIVE_LIMIT = 16
# Work units the spanning-pair descent may spend: each prefix on its one
# path costs (unpolled nodes) * N, which covers its O(N) link update and its
# O(N**2) bound; from N = 585 the path alone costs more.
SEARCH_WORK_LIMIT = 10**8
# Sampled schedules (stats, optimize --strategy random_restart); one total is kept per sample.
SAMPLE_LIMIT = 10**6


class InfeasibleError(RuntimeError):
    """Request exceeds a size limit: too many polled sets for an exact
    answer, too many nodes for the spanning-pair descent, too many sampled
    schedules, or too many sweep rows or simulated bits."""


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


def _pair_budgets(model: ModelSpec, topology: Topology) -> Callable[[Iterable[float]], Iterator[int]]:
    """The pairwise budget of each distance in a row: a lookup in the model's
    step table when finding its steps, at most 64n + 2 budget calls, costs
    less than the N(N-1)/2 pair calls it replaces; else model.budget per pair."""
    size = topology.size
    if 64 * model.n + 2 >= size * (size - 1) // 2:
        return partial(map, model.budget)
    # only coincident nodes are at distance 0, where the budget may be singular
    steps, vals = budget_steps(model, zero=len(set(topology.positions)) < size)
    return lambda ds: map(vals.__getitem__, map(bisect_right, repeat(steps), ds))


class _Attach:
    """A node's budget given the polled set: fold(pairs(distances)).

    pairs maps distances to the polled partners' values: their pairwise
    budgets (_pair_budgets), or under ADDITIVE their decay terms. fold
    reduces a nonempty set of values to the budget: min, max, or under
    ADDITIVE the budget of their exact sum rounded once (decay_sum). pairs
    and rows, the O(N**2) pair table, are built on first read.
    """

    def __init__(self, model: ModelSpec, rule: ConditioningRule, topology: Topology):
        self.model, self.rule, self.topology = model, rule, topology
        self.n, self.size = model.n, topology.size
        if rule is ConditioningRule.ADDITIVE:
            require_decay(model)
            decay_bits = model.decay_bits
            self.fold = lambda terms: decay_bits(decay_sum(terms))
        else:
            self.fold = min if rule is ConditioningRule.MIN else max

    @cached_property
    def pairs(self) -> Callable[[Iterable[float]], Iterator]:
        if self.rule is ConditioningRule.ADDITIVE:
            return partial(map, self.model.decay_term)
        return _pair_budgets(self.model, self.topology)

    @cached_property
    def rows(self) -> list[list]:
        """Every pair's budget, or decay term under ADDITIVE, computed once
        per unordered pair and mirrored; 0 on the diagonal."""
        rows: list[list] = []
        pairs, distances_from = self.pairs, self.topology.distances_from
        for i in range(self.size):
            tail = distances_from(i, range(i + 1, self.size))
            rows.append([*map(operator.itemgetter(i), rows), 0, *pairs(tail)])
        return rows


def _walk(
    model: ModelSpec, rule: ConditioningRule, topology: Topology, schedule: Sequence[int]
) -> Iterator[tuple[int, list[float], int]]:
    """(node, its distances to the nodes before it, its budget) for each node
    of one polling order: n for the first node, then under ADDITIVE the
    node's decay terms to that row, folded. Under MIN and MAX a monotone
    budget is read off one distance of the row, its least or its greatest:
    one budget call per node. Each row is computed once and not kept."""
    kernel = _Attach(model, rule, topology)
    order = _check_permutation(schedule, topology.size)
    budget, distances_from = model.budget, topology.distances_from
    if rule is ConditioningRule.ADDITIVE:
        pairs, fold = kernel.pairs, kernel.fold
        budget_of = lambda ds: fold(pairs(ds))
    elif (rule is ConditioningRule.MIN) == (model.beta >= 0):  # the nearest partner sets it
        budget_of = lambda ds: budget(min(ds))
    else:  # the farthest partner sets it

        def budget_of(ds: list[float]) -> int:
            if min(ds) == 0:
                budget(0.0)  # raises where budget(0) is singular, as a fold would
            return budget(max(ds))

    yield order[0], [], kernel.n
    for k in range(1, len(order)):
        ds = distances_from(order[k], islice(order, k))
        yield order[k], ds, budget_of(ds)


def evaluate(
    model: ModelSpec,
    rule: ConditioningRule,
    topology: Topology,
    schedule: Sequence[int],
) -> BitReport:
    """Per-node budgets and total bits for one polling order: n for the first
    node, then each node's pair values to the nodes before it, folded."""
    per_node = tuple((v, bits) for v, _, bits in _walk(model, rule, topology, schedule))
    return BitReport(per_node=per_node, total=sum(bits for _, bits in per_node))


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


def _exhaustive(
    model: ModelSpec, rule: ConditioningRule, topology: Topology, advice: str
) -> ScheduleStats:
    """Exact statistics over all N! schedules from one backward pass over
    the 2**N polled sets (Held & Karp 1962); refused, with `advice`, for
    N > EXHAUSTIVE_LIMIT before any budget is computed.

    A node's budget depends only on the set S polled before it, so the least
    and greatest totals of the nodes after S are g(S) = best over v not in S
    of budget(v | S) + g(S | {v}). v follows S in |S|! (N - 1 - |S|)!
    schedules, which weights the exact integer sum of all totals. argmin and
    argmax take the lowest optimal v forward from the empty set: the
    lexicographically first extremes. Budgets are folded afresh from the
    pair table, so the pass keeps two ints per set.
    """
    size = topology.size
    if size > EXHAUSTIVE_LIMIT:
        raise InfeasibleError(f"exhaustive enumeration refused for N={size} > {EXHAUSTIVE_LIMIT}; {advice}")
    kernel = _Attach(model, rule, topology)
    rows, fold = kernel.rows, kernel.fold
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


def _shuffles(seed: int, size: int) -> Iterator[list[int]]:
    """One list of 0..size-1, shuffled in place again before each yield.

    Fisher-Yates: for i from size-1 down to 1, swap item i with item j,
    j uniform in 0..i, drawn as getrandbits(k) for k the bit length of i+1
    and redrawn while j > i. These are random.Random(seed).shuffle's draws,
    inline, so no Python frame is called per swap.
    """
    getrandbits, order = random.Random(seed).getrandbits, list(range(size))
    steps = [(i, (i + 1).bit_length()) for i in range(size - 1, 0, -1)]
    while True:
        for i, k in steps:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            order[i], order[j] = order[j], order[i]
        yield order


def _sample(
    model: ModelSpec, rule: ConditioningRule, topology: Topology,
    count: int | None, seed: int | None,
) -> ScheduleStats:
    """Statistics over `count` seeded shuffles, each scored as it is drawn:
    _shuffles' own Fisher-Yates over getrandbits(k) with rejection, the draws
    of random.shuffle on CPython 3.10-3.13 but not tied to its internals."""
    if count is None or count < 1:
        raise ValueError("sampling needs count >= 1")
    if seed is None:
        raise ValueError("sampling needs an explicit seed")
    if count > SAMPLE_LIMIT:
        raise InfeasibleError(f"sampling refused: more than {SAMPLE_LIMIT} schedules")
    total_of = _total_fn(_Attach(model, rule, topology))
    totals, lo, hi, argmin, argmax = [], math.inf, -math.inf, (), ()
    for order in islice(_shuffles(seed, topology.size), count):
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
    extremes. No permutation is visited: under every rule a node's budget
    depends only on the set polled before it (ADDITIVE rounds the exact sum
    of its decay terms once), so one backward pass over the 2**N polled
    sets gives the minimum, the maximum and the exact mean.
    mode="sampled" draws `count` uniform permutations from `seed`.
    """
    if mode == "exhaustive":
        return _exhaustive(model, rule, topology, "use sampled mode")

    if mode != "sampled":
        raise ValueError(f"mode must be exhaustive or sampled, got {mode!r}")
    return _sample(model, rule, topology, count, seed)


# (rule, objective) pairs whose optimum is n plus a spanning tree's weight
_SPANNING = {(ConditioningRule.MIN, "minimize"), (ConditioningRule.MAX, "maximize")}


def _prim_order(model: ModelSpec, rule: ConditioningRule, topology: Topology) -> BitReport:
    """Prim order from node 0 with its budgets under `rule` (MIN or MAX):
    always poll the node whose link, its budget given the polled set, is
    cheapest under MIN, dearest under MAX, ties toward the lowest id."""
    pick = min if rule is ConditioningRule.MIN else max  # both return the first extreme
    pairs, distances_from = _pair_budgets(model, topology), topology.distances_from
    pending = list(range(1, topology.size))  # unpolled, in id order
    links = [*pairs(distances_from(0, pending))]  # links[k]: pending[k]'s
    per_node = [(0, model.n)]
    while pending:
        k = links.index(pick(links))
        u = pending.pop(k)
        per_node.append((u, links.pop(k)))
        links = [*map(pick, links, pairs(distances_from(u, pending)))]
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


def _spanning_descent(kernel: _Attach, objective: str) -> tuple[int, ...]:
    """The lexicographically first optimal schedule of a _SPANNING pair.

    Each prefix's best completion is exact: its total plus the min (max)
    spanning tree of the unpolled nodes and one node for the prefix, whose
    edge to v is link[v]. Polling v next forces that edge into the tree:
    the tree's weight changes by link[v] minus the heaviest (lightest) edge
    on its path from the prefix to v. Every prefix polled lies on an optimal
    schedule, so its best bound is the optimum, and the lowest node that
    attains it is polled next. Raises InfeasibleError before any budget is
    computed when that one path costs more than SEARCH_WORK_LIMIT.
    """
    size = kernel.size
    if size * (size * (size + 1) // 2 - 1) > SEARCH_WORK_LIMIT:
        raise InfeasibleError(f"brute force refused for N={size}: above the search's work limit")
    rows = kernel.rows
    better = operator.lt if objective == "minimize" else operator.gt
    pick, hop_of = (min, max) if objective == "minimize" else (max, min)
    link, rest, order = [kernel.n if objective == "minimize" else 0] * size, list(range(size)), []
    while rest:
        key, hop = link[:], link[:]
        out = rest[:]
        while out:
            u = pick(out, key=key.__getitem__)
            out.remove(u)
            row, h = rows[u], hop[u]
            for v in out:
                if better(row[v], key[v]):
                    key[v], hop[v] = row[v], hop_of(h, row[v])
        bounds = [link[v] - hop[v] for v in rest]  # each less the prefix's total and tree weight
        v = rest.pop(bounds.index(pick(bounds)))  # index: the first, lowest id
        order.append(v)
        link = list(map(pick, link, rows[v]))  # pick is the pair's rule: min or max
    return tuple(order)


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
    schedule. For the MIN rule minimized and the MAX rule maximized it
    descends by an exact spanning-tree bound in O(N**3), refused from
    N = 585 on (SEARCH_WORK_LIMIT); for every other pair it is the
    exhaustive statistics' argmin or argmax, from one pass over the 2**N
    polled sets, refused for N > EXHAUSTIVE_LIMIT. greedy_prim is exact
    for the MIN rule with objective "minimize" and the MAX rule with
    "maximize": the Prim order from node 0 totals n plus the min (max)
    spanning tree weight. For other pairs it is refused unless `force` is set; then it runs as a heuristic that
    tries every start node and keeps the best MIN-rule Prim order (dearest
    link first too, for the MIN rule maximized), all on one budget table.
    random_restart keeps the best of `count` seeded random permutations.
    Among equal totals the first schedule tried wins.
    """
    if objective not in ("minimize", "maximize"):
        raise ValueError(f"unknown objective {objective!r}")
    n_nodes = topology.size
    if strategy == "brute_force":
        if (rule, objective) in _SPANNING:
            best = _spanning_descent(_Attach(model, rule, topology), objective)
        else:
            stats = _exhaustive(model, rule, topology, "use random_restart or greedy_prim")
            best = stats.argmin if objective == "minimize" else stats.argmax
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
