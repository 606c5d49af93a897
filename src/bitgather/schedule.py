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
under ADDITIVE) folded by min, max, or an exact sum rounded once:
_pair_values gives the pair values, the one place a distance becomes one,
_pair_rows a node's to given nodes, _fold the fold, pair_tails the pair
table's upper triangle a row at a time and mirrored its full rows, which
_table keeps and bits streams. A budget is monotone in distance, so under
MIN and MAX a walk (evaluate, and the simulator's gather and sweep) reads
each node's budget off one distance: its nearest earlier node's, from one
sorted sweep of the order (Topology.nearest_links), or the greatest to its
prefix, in the same prefix fold in which ADDITIVE sums the decay terms.
The pair rows (the table, bits, Prim and the spanning descent) read
pairwise budgets off the staircase that budget_steps gives for the
N(N-1)/2 pairs: where two calls show it constant, or finding its steps
costs fewer calls than the pairs. Past its last step every pair has the
top budget, so the table and bits compute only the pairs that
Topology.grid cannot certify to be that far apart, where they are few
enough to pay: _near_rows takes each node's later near nodes and their
distances from Topology.near_tails, which reads them off one sorted block
of ids and positions per cell. One backward pass over the 2**N polled sets
(Held & Karp 1962) gives the exhaustive statistics and the brute-force
optimum, under every rule from one vector of exact integer sums over the
set (_exact_sums) at about one C-level row operation and one labelling per
set. The two spanning-tree pairs instead run greedy_prim's _prim again,
keyed by an exact bound read off its first order: O(N**2) time, O(N)
memory. Sampled permutations are scored by one backward scan of the order:
each node reads its first earlier partner off its row ranked best first
(ADDITIVE folds its prefix).

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
from bisect import bisect_left, bisect_right
from collections import deque
from itertools import accumulate, chain, islice, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

# conditioned_bits, pairwise_bits: unused here, bound for bench/tracer.py to patch.
from .correlation import (  # noqa: F401
    ConditioningRule,
    ModelSpec,
    budget_steps,
    conditioned_bits,
    decay_sum,
    pairwise_bits,
    require_decay,
    sum_steps,
)
from .topology import Topology

# The polled-set pass reads a budget for each node and polled set,
# 16 * 2**15 = 524,288 at N = 16; beyond that exhaustive stats and brute
# force outside the spanning pairs are refused.
EXHAUSTIVE_LIMIT = 16
# Work units the spanning-pair brute force may spend: N * N, two Prim passes, the
# second keyed by walks along the first's order; past N = 2000 refused before any budget.
SEARCH_WORK_LIMIT = 2000**2
# Sampled schedules (stats, optimize --strategy random_restart); each total is summed as it is drawn.
SAMPLE_LIMIT = 10**6


class InfeasibleError(RuntimeError):
    """Request exceeds a size limit: too many polled sets for an exact
    answer, more than 2000 nodes for the spanning-pair descent, too many
    sampled schedules, or too many sweep rows or simulated bits."""


class BitReport(NamedTuple):
    """Per-node budgets in polling order plus their sum."""

    per_node: tuple[tuple[int, int], ...]  # (node, bits) in polling order
    total: int


class ScheduleStats(NamedTuple):
    mean_total: float
    min_total: int
    max_total: int
    argmin: tuple[int, ...]
    argmax: tuple[int, ...]
    sample_count: int
    exhaustive: bool


def _check_permutation(schedule: Sequence[int], n_nodes: int) -> tuple[int, ...]:
    order = tuple(schedule)  # read as plain ints, so no 2.0 passes as 2 and True is 1
    ids = tuple(map(operator.index, order)) if all(map(hasattr, order, repeat("__index__"))) else ()
    if sorted(ids) != list(range(n_nodes)):
        raise ValueError(f"schedule {order} is not a permutation of 0..{n_nodes - 1}")
    return ids


def _pair_values(
    model: ModelSpec, rule: ConditioningRule, table: tuple[list, list] | None
) -> Callable[[Iterable[float]], Iterator]:
    """values(distances): the pair value at each of `distances`, the one
    place a distance becomes a pair value.

    Given `table`, a staircase (steps, vals) as budget_steps gives it, its
    values labelled or not, the value at distance d is
    vals[bisect_right(steps, d)]. Else it is computed per pair: under
    ADDITIVE a decay term, else model.budget."""
    if table is not None:
        steps, vals = table
        return lambda distances: map(vals.__getitem__, map(bisect_right, repeat(steps), distances))
    pair = model.budget
    if rule is ConditioningRule.ADDITIVE:
        require_decay(model)
        pair = model.decay_term
    return lambda distances: map(pair, distances)


def _pair_rows(
    model: ModelSpec, rule: ConditioningRule, topology: Topology, table: tuple[list, list] | None
) -> Callable[[int, Iterable[int]], Iterator]:
    """row(u, nodes): u's _pair_values to each of `nodes`, computed on demand."""
    values, distances_from = _pair_values(model, rule, table), topology.distances_from
    return lambda u, nodes: values(distances_from(u, nodes))


def _fold(model: ModelSpec, rule: ConditioningRule) -> Callable[[Iterable], int]:
    """Reduces a nonempty set of pair values to the budget: min, max, or under
    ADDITIVE the budget of their exact sum rounded once (decay_sum)."""
    if rule is ConditioningRule.ADDITIVE:
        require_decay(model)
        decay_bits = model.decay_bits
        return lambda terms: decay_bits(decay_sum(terms))
    return min if rule is ConditioningRule.MIN else max


def pair_tails(model: ModelSpec, rule: ConditioningRule, topology: Topology, label: Callable) -> Iterator[list]:
    """The pair table's strict upper triangle, a row at a time: label(value)
    for node i's _pair_rows value to each of nodes i+1..N-1, each row made
    when it is read. Every error is raised by this call, before any row.

    Under ADDITIVE, and where budget_steps gives no staircase for the
    N(N-1)/2 pairs, each pair's value is computed and labelled. Else each
    step value is labelled once: a constant staircase repeats its one label
    and computes no distance; otherwise every pair at distance >= s, the
    last step, has the top label, and _near_rows computes only the pairs
    Topology.grid cannot certify to be that far apart where they are under
    half of all pairs.
    """
    size = topology.size
    pairs = size * (size - 1) // 2
    table = None if rule is ConditioningRule.ADDITIVE else budget_steps(model, topology.coincident, pairs)
    if table is None:
        row = _pair_rows(model, rule, topology, None)
        return ([*map(label, row(i, range(i + 1, size)))] for i in range(size))
    steps, vals = table[0], [*map(label, table[1])]
    if not steps:
        return ([vals[0]] * (size - 1 - i) for i in range(size))
    rows = _near_rows(topology, steps[-1], _pair_values(model, rule, (steps, vals)), vals[-1])
    row = _pair_rows(model, rule, topology, (steps, vals))
    return rows or ([*row(i, range(i + 1, size))] for i in range(size))


def _near_rows(topology: Topology, s: float, values: Callable, top) -> Iterator[list] | None:
    """pair_tails' rows off Topology.near_tails at the last step s, or None.

    Each row starts as `top`, the value at distance >= s, and takes the
    values, _pair_values on the labelled staircase, of its node's tail of
    near nodes. A candidate costs up to twice a row's pair (it is scattered
    as well), so the grid is used only where its candidate pairs are under
    half of the N(N-1)/2 pairs, as near_tails counts them."""
    size, tails = topology.size, topology.near_tails(s)
    if tails is None:
        return None

    def rows() -> Iterator[list]:
        for i, (near, distances) in enumerate(tails):
            line = [top] * size
            deque(map(line.__setitem__, near, values(distances)), 0)
            del line[: i + 1]
            yield line

    return rows()


def mirrored(tails: Iterable[list], size: int, zero) -> Iterator[list]:
    """The rows of the symmetric table with `zero` on its diagonal, from the
    rows of its strict upper triangle: row i's items past the diagonal are
    column i, the next items of the rows below, whose earlier halves grow
    until each is yielded (at most N**2 / 4 items held for rows not yet
    yielded)."""
    heads = [[] for _ in range(size)]
    for i, tail in enumerate(tails):
        line, heads[i] = heads[i], None
        deque(map(list.append, heads[i + 1 :], tail), 0)  # consumed at C level, nothing kept
        line.append(zero)
        line.extend(tail)
        yield line


def _table(model: ModelSpec, rule: ConditioningRule, topology: Topology) -> list[list]:
    """Every pair's _pair_rows value: pair_tails' rows, mirrored, 0 on the diagonal."""
    return [*mirrored(pair_tails(model, rule, topology, operator.pos), topology.size, 0)]


def _walk(
    model: ModelSpec, rule: ConditioningRule, topology: Topology, schedule: Sequence[int]
) -> tuple[BitReport, list[tuple[float, int]] | None]:
    """The BitReport of one polling order (n bits for the first node), and
    the order's Topology.nearest_links if the walk computed them, else None.
    Under MIN and MAX a monotone budget is one partner's: the nearest's,
    read off the node's link (no distance rows), or the farthest's, the
    budget of the greatest of the node's distances to the nodes before it.
    ADDITIVE folds the decay terms of those distances."""
    fold = _fold(model, rule)  # checks an ADDITIVE model before the order
    order = _check_permutation(schedule, topology.size)
    budget, row = model.budget, topology.distances_from
    if rule is ConditioningRule.ADDITIVE:
        row = _pair_rows(model, rule, topology, None)
    elif (rule is ConditioningRule.MIN) == (model.beta >= 0):  # the nearest partner sets it
        links = topology.nearest_links(order)
        return _report(model.n, order, [budget(d) for d, _ in islice(links, 1, None)]), links
    else:  # the farthest partner sets it: one budget of the greatest distance, never a coincident pair's 0
        if topology.coincident:
            budget(0.0)  # raises where budget(0) is singular
        fold = lambda distances: budget(max(distances))
    bits = [fold(row(order[k], islice(order, k))) for k in range(1, len(order))]
    return _report(model.n, order, bits), None


def _report(n: int, order: Sequence[int], later: Iterable[int]) -> BitReport:
    """The BitReport of `order` from n for the first node and `later`'s budgets for the rest."""
    bits = [n, *later]
    return BitReport(per_node=tuple(zip(order, bits)), total=sum(bits))


def evaluate(
    model: ModelSpec,
    rule: ConditioningRule,
    topology: Topology,
    schedule: Sequence[int],
) -> BitReport:
    """Per-node budgets and total bits for one polling order, _walk's
    BitReport: n for the first node, then each node's pair values to the
    nodes before it, folded."""
    return _walk(model, rule, topology, schedule)[0]


def budget_matrix(model: ModelSpec, topology: Topology) -> list[list[int]]:
    """Pairwise budgets for every node pair; symmetric, 0 on the diagonal."""
    return _table(model, ConditioningRule.MIN, topology)


def _prefix_folds(fold: Callable[[Iterable], int], rows: list[list], order: Sequence[int]) -> Iterator[int]:
    """Each node's budget along `order` after the first: fold of its _table row at the nodes before it."""
    # islice: order[:k] fills CPython 3.11's 20-item tuple cache, never reused
    return (fold(map(rows[order[k]].__getitem__, islice(order, k))) for k in range(1, len(order)))


def _total_fn(model: ModelSpec, rule: ConditioningRule, rows: list[list]) -> Callable[[Sequence[int]], int]:
    """Total bits of one permutation, equal to evaluate().total, from the
    rule's _table. Under MIN and MAX one backward scan: from the last node
    down to the third, each node clears its flag in a copy of `every`, so
    the flags still set are the nodes polled before it, and adds its pair
    value to the first of them in its row ranked best first (about H_N
    probes per node on a random order); the second node's one pair value is
    read directly. Under ADDITIVE each prefix is folded."""
    n, fold = model.n, _fold(model, rule)
    if rule is ConditioningRule.ADDITIVE:
        return lambda order: n + sum(_prefix_folds(fold, rows, order))
    ids = list(range(len(rows)))  # shared, so the ranked lists hold the same ints
    down = rule is ConditioningRule.MAX
    ranked = [sorted(ids[:v] + ids[v + 1 :], key=r.__getitem__, reverse=down) for v, r in enumerate(rows)]
    every = [True] * len(rows)

    def scanned(order: Sequence[int]) -> int:
        before, t = every[:], n + (rows[order[1]][order[0]] if len(order) > 1 else 0)
        for v in reversed(order[2:]):
            before[v] = False
            for u in ranked[v]:
                if before[u]:
                    t += rows[v][u]
                    break
        return t

    return scanned


def _exact_sums(model: ModelSpec, rule: ConditioningRule, rows: list[list]) -> Callable[[list], list]:
    """Puts the rule's _table rows on ints in place, for good, one int per
    pair shared by its two rows, so that a node's pair values over a polled
    set add up to one exact sum; returns label, where label(x) is every
    node's budget from its sum x[v] over the set (n for the empty set's 0).
    Each node's own entry becomes `member`, so a member's budget reads 0.

    Under MIN and MAX the distinct pair values are ranked worst first (the
    greatest first under MIN) and rank r weighs 1 << b*r, b the bit length
    of N - 1: a b-bit digit counts the up to N - 1 partners with its value,
    so a sum's bit_length names its best value, read off one table; member
    weighs a digit above them all. Under ADDITIVE a finite term x becomes
    -x * scale, scale = 2**e for e the most fractional bits of any term, so
    a sum t is exact and -t / scale rounds it once, as decay_sum does. t has
    budget bisect_left(thr, t), thr holding minus the least int at or past
    each of sum_steps' steps, and member is thr[0]; where the staircase could
    have more than 2**N / 8 steps, decay_bits(-t / scale) above member, minus
    the least int whose quotient by scale rounds to inf, else 0. Each inf
    term is member.
    """
    n, size = model.n, len(rows)
    if rule is ConditioningRule.ADDITIVE:
        finite = [*filter(math.isfinite, chain.from_iterable(rows))]  # the diagonal's ints 0 among them
        scale = 1 << max(x.as_integer_ratio()[1] for x in finite).bit_length() - 1
        member = -((1 << 1024) - (1 << 970)) * scale  # minus the least t whose t / scale rounds to inf
        # a staircase step costs about 30 labels by decay_bits in place of a bisection,
        # and 2**N / 8 thresholds take under half the memory of lo and hi: the most steps
        if n <= 1 << size >> 3:
            thr = []
            for step in reversed(sum_steps(model)):  # the least t with t / scale >= step:
                t = -member  # up from the midpoint of step and the float below it
                if step < math.inf:
                    (a, b), (c, d) = step.as_integer_ratio(), math.nextafter(step, 0.0).as_integer_ratio()
                    t = (a * d + c * b) * scale // (2 * b * d)
                    while t / scale < step:
                        t += 1
                thr.append(-t)
            thr = tuple(thr)
            label, member = (lambda x: [*map(bisect_left, repeat(thr), x)]), thr[0]
        else:
            decay_bits = model.decay_bits
            label = lambda x: [decay_bits(-t / scale) if t > member else 0 for t in x]

        def weight(x: float) -> int:
            num, den = x.as_integer_ratio() if x < math.inf else (-member, scale)  # inf: member
            return -num * (scale // den)
    else:
        b = (size - 1).bit_length()
        upper = chain.from_iterable(map(islice, rows, range(1, size + 1), repeat(None)))  # the pairs
        ranked = sorted({*upper}, reverse=rule is ConditioningRule.MIN)
        weight = dict(zip(ranked, map(pow, repeat(1 << b), range(len(ranked))))).__getitem__
        member = 1 << b * len(ranked)
        labels = [n, *chain.from_iterable(map(repeat, ranked, repeat(b))), 0]  # by bit_length
        label = lambda x: [*map(labels.__getitem__, map(int.bit_length, x))]
    for u, row in enumerate(rows):
        for v in range(u + 1, size):
            row[v] = rows[v][u] = weight(row[v])
        row[u] = member
    return label


def _polled_sets(n: int, rows: list[list], label: Callable, pick: Callable | None) -> tuple:
    """_exhaustive's pass over the polled sets S, on _exact_sums' rows and
    label: lo[S] and hi[S], the least and greatest totals of the nodes after
    S (given `pick`, only its own), and sums[k], every node's budgets summed
    over the sets of k members.

    Counting S down, x holds every node's exact sum over S, labelled once
    per set, at about one C-level row operation per set: y, the sums over S
    less node 0, plus node 0's row where S holds node 0. Every other S drops
    node 0 and keeps y; the others take a row out of y and add rows to it. A
    member's budget is 0, and lo and hi start past every total, so a member
    (S | {v} is S) is never the best.
    """
    size, full = len(rows), (1 << len(rows)) - 1
    y = [*map(operator.sub, map(sum, rows), rows[0])]  # the full set's sums less node 0's row
    top = n * size + 1  # past every total
    lo = None if pick is max else [top] * (full + 1)
    hi = None if pick is min else [-top] * (full + 1)
    for g in filter(None, (lo, hi)):
        g[full] = 0  # no node follows the full set
    bits, sums = [1 << v for v in range(size)], [0] * size  # sums[k]: sum(f) over the sets of k members
    for s in range(full - 1, -1, -1):
        h = (s ^ s + 1).bit_length() - 1  # s left out bit h of s + 1 and took every bit below it
        x = y
        if h:  # s holds node 0
            y = [*map(operator.sub, y, rows[h])]
            for b in range(1, h):
                y = [*map(operator.add, y, rows[b])]
            x = [*map(operator.add, y, rows[0])]
        f = label(x)
        if pick is None:
            sums[s.bit_count()] += sum(f)
        nx = [*map(operator.or_, repeat(s), bits)]
        if lo:  # a member reads lo[s], still past every total
            lo[s] = min(map(operator.add, f, map(lo.__getitem__, nx)))
        if hi:
            hi[s] = max(map(operator.add, f, map(hi.__getitem__, nx)))
    return lo, hi, sums


def _exhaustive(
    model: ModelSpec, rule: ConditioningRule, topology: Topology, advice: str, pick: Callable | None = None
) -> ScheduleStats | tuple[tuple[int, ...], list[int]]:
    """Exact statistics over all N! schedules from one backward pass over
    the 2**N polled sets (Held & Karp 1962), or given `pick` (min or max)
    only its extreme's schedule and that schedule's budgets; refused, with
    `advice`, for N > EXHAUSTIVE_LIMIT before any budget is computed.

    A node's budget depends only on the set S polled before it, so the least
    and greatest totals of the nodes after S are g(S) = best over v not in S
    of budget(v | S) + g(S | {v}) (_polled_sets). v follows S in
    |S|! (N - 1 - |S|)! schedules, which weights the exact integer sum of
    all totals. argmin and argmax take the lowest optimal v forward from the
    empty set, each budget labelled off the running sums of the nodes polled:
    the lexicographically first.
    """
    size = topology.size
    if size > EXHAUSTIVE_LIMIT:
        raise InfeasibleError(f"exhaustive enumeration refused for N={size} > {EXHAUSTIVE_LIMIT}; {advice}")
    rows, ids, full = _table(model, rule, topology), range(size), (1 << size) - 1
    label = _exact_sums(model, rule, rows)
    lo, hi, sums = _polled_sets(model.n, rows, label, pick)

    def first(g: list[int]) -> tuple[tuple[int, ...], list[int]]:
        s, x, order, bits = 0, [0] * size, [], []
        while s != full:
            f = label(x)
            for v in ids:
                if not s >> v & 1 and g[s | 1 << v] + f[v] == g[s]:
                    break
            order.append(v)
            bits.append(f[v])
            s, x = s | 1 << v, [*map(operator.add, x, rows[v])]
        return tuple(order), bits

    if pick is not None:
        return first(lo or hi)
    argmin, argmax, count = first(lo)[0], first(hi)[0], math.factorial(size)  # no weights held: a lower peak
    weights = [math.factorial(k) * math.factorial(size - 1 - k) for k in ids]
    mean = sum(map(operator.mul, sums, weights)) / count
    return ScheduleStats(mean, lo[0], hi[0], argmin, argmax, count, exhaustive=True)


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
) -> tuple[ScheduleStats, list[list]]:
    """Statistics over `count` seeded shuffles, each scored as it is drawn,
    and the _table they were scored on: _shuffles' own Fisher-Yates over
    getrandbits(k) with rejection, the draws of random.shuffle on CPython
    3.10-3.13 but not tied to its internals."""
    if count is None or count < 1:
        raise ValueError("sampling needs count >= 1")
    if seed is None:
        raise ValueError("sampling needs an explicit seed")
    if count > SAMPLE_LIMIT:
        raise InfeasibleError(f"sampling refused: more than {SAMPLE_LIMIT} schedules")
    rows = _table(model, rule, topology)
    total_of = _total_fn(model, rule, rows)
    lo, hi, argmin, argmax = math.inf, -math.inf, (), ()

    def totals() -> Iterator[int]:
        nonlocal lo, hi, argmin, argmax
        for order in islice(_shuffles(seed, topology.size), count):
            t = total_of(order)
            if t < lo:
                lo, argmin = t, tuple(order)
            if t > hi:
                hi, argmax = t, tuple(order)
            yield t

    mean = math.fsum(totals()) / count  # statistics.fmean of the totals, none of them kept
    return ScheduleStats(mean, lo, hi, argmin, argmax, count, exhaustive=False), rows


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
    return _sample(model, rule, topology, count, seed)[0]


# (rule, objective) pairs whose optimum is n plus a spanning tree's weight
_SPANNING = {(ConditioningRule.MIN, "minimize"), (ConditioningRule.MAX, "maximize")}


def _prim(
    start: int, size: int, row: Callable, pick: Callable, merge: Callable, key: Callable | None = None
) -> tuple[list[int], list]:
    """Nodes 0..size-1 polled from `start`, and each later node's link when
    polled: row(u, nodes) gives u's pair values to `nodes`, merge (min or
    max) folds them into the links, and pick polls the first extreme (lowest
    id) of the links (a Prim order) or of key(order, pending, links) if given."""
    pending = [v for v in range(size) if v != start]  # unpolled, in id order
    links = [*row(start, pending)]  # links[k]: pending[k]'s
    order, attached = [start], []
    while pending:
        scores = links if key is None else key(order, pending, links)
        k = scores.index(pick(scores))
        order.append(pending.pop(k))
        attached.append(links.pop(k))
        links = [*map(merge, links, row(order[-1], pending))]
    return order, attached


def _descent(rule: ConditioningRule, q: list[int], edges: list) -> Callable:
    """The _prim key under which it polls a _SPANNING pair's lexicographically
    first optimal schedule; q is the pair's Prim order from node 0, edges its links.

    Each prefix's best completion is exact: its total plus the min (max)
    spanning tree of the unpolled nodes and one node for the prefix, whose
    edge to v is link[v]. Polling v next forces that edge into the tree:
    the tree's weight changes by link[v] minus hop[v], the heaviest
    (lightest) edge on its path from the prefix to v. Every prefix polled
    lies on an optimal schedule, so its best bound is the optimum, and the
    lowest node that attains it is polled next: node 0 first.

    hop[v] is the best, over polled p, of the bottleneck between p and v,
    and bottleneck paths lie on any optimal spanning tree (Hu 1961). Along
    q, with edges[k] joining q_k and q_{k+1}, the bottleneck of two nodes is
    the max (min, to maximize) of the edges between them. Each poll walks
    out along q on both sides, storing the new bottleneck while it is
    strictly better. Past the first stored hop that is no better, the new
    one only gets worse, and the stored one equals it (set from behind) or
    only gets better (from ahead), so the walk stops there, as at any polled
    node. With _prim's rows that is O(N**2) time and O(N) memory.
    """
    hop_of, better = (max, operator.lt) if rule is ConditioningRule.MIN else (min, operator.gt)
    level = -math.inf if rule is ConditioningRule.MIN else math.inf  # a polled node's hop: its path is empty
    at = sorted(range(len(q)), key=q.__getitem__)  # at[v]: v's position in q
    hop = [*accumulate(edges, hop_of, initial=level)]  # by position in q, with node 0 polled

    def bounds(order: list[int], pending: list[int], links: list) -> list:
        p = at[order[-1]]  # the node polled last
        hop[p] = level
        # walking right, q_k's edge back to q_{k-1} is edges[k - 1]; walking left, edges[k]
        for walk, back in ((range(p + 1, len(q)), -1), (range(p - 1, -1, -1), 0)):
            h = level
            for k in walk:
                h = hop_of(h, edges[k + back])
                if not better(h, hop[k]):
                    break
                hop[k] = h
        return [b - hop[at[v]] for v, b in zip(pending, links)]  # each less the prefix's total and tree weight

    return bounds


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
    schedule. For the MIN rule minimized and the MAX rule maximized it reruns
    greedy_prim's Prim loop keyed by an exact spanning-tree bound, in O(N**2)
    time and O(N) memory, refused for N > 2000 (SEARCH_WORK_LIMIT); for every
    other pair it is the exhaustive statistics' argmin or argmax, from one
    pass over the 2**N polled sets, refused for N > EXHAUSTIVE_LIMIT.
    greedy_prim is exact for the MIN rule with objective "minimize" and the
    MAX rule with "maximize": the Prim order from node 0 totals n plus the min
    (max) spanning tree weight. For other pairs it is refused unless `force`
    is set; then it runs as a heuristic that tries every start node and keeps
    the best MIN-rule Prim order (dearest link first too, for the MIN rule
    maximized), all on one budget table. random_restart keeps the best of
    `count` seeded random permutations. Among equal totals the first schedule
    tried wins. The exact Prim searches report n plus their links, brute
    force elsewhere the budgets its pass labelled; the others fold each
    prefix of the pair table they searched on, with no walk.
    """
    if objective not in ("minimize", "maximize"):
        raise ValueError(f"unknown objective {objective!r}")
    # both return the first extreme; on the _SPANNING pairs it is the rule's own
    n_nodes, pick = topology.size, min if objective == "minimize" else max
    if strategy in ("brute_force", "greedy_prim") and (rule, objective) in _SPANNING:
        if strategy == "brute_force" and n_nodes * n_nodes > SEARCH_WORK_LIMIT:
            raise InfeasibleError(f"brute force refused for N={n_nodes}: above the search's work limit")
        table = budget_steps(model, topology.coincident, n_nodes * (n_nodes - 1) // 2)
        row = _pair_rows(model, rule, topology, table)
        order, links = _prim(0, n_nodes, row, pick, pick)  # the Prim order from node 0
        if strategy == "brute_force":  # poll again, by the bound read off that order
            order, links = _prim(0, n_nodes, row, pick, pick, _descent(rule, order, links))
        return tuple(order), _report(model.n, order, links)  # each link is its node's budget
    if strategy == "greedy_prim":
        if not force:
            raise ValueError(
                "greedy_prim is only exact for the min rule with objective minimize "
                "and the max rule with objective maximize; pass force=True to run "
                "it as a heuristic"
            )
        rows = _table(model, rule, topology)  # under MIN and MAX the budgets
        table = budget_matrix(model, topology) if rule is ConditioningRule.ADDITIVE else rows
        row = lambda u, vs: map(table[u].__getitem__, vs)
        # cheapest-first orders aim low: to maximize a MIN total, dearest-first ones follow
        aims = (min, max) if (rule, objective) == (ConditioningRule.MIN, "maximize") else (min,)
        candidates = [tuple(_prim(s, n_nodes, row, aim, min)[0]) for aim in aims for s in range(n_nodes)]
        best = pick(candidates, key=_total_fn(model, rule, rows))
    elif strategy == "brute_force":
        best, bits = _exhaustive(model, rule, topology, "use random_restart or greedy_prim", pick)
        return best, _report(model.n, best, bits[1:])  # the budgets its pass labelled, n first
    elif strategy == "random_restart":
        stats, rows = _sample(model, rule, topology, count, seed)
        best = stats.argmin if objective == "minimize" else stats.argmax
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return best, _report(model.n, best, _prefix_folds(_fold(model, rule), rows, best))  # off the searched table
