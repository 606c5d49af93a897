"""The schedule and simulator fast paths against the direct definition.

Every fast path in schedule.py and simulator.py is compared with the slow
path built on conditioned_bits: itertools.permutations for enumeration,
per-position conditioned budgets for totals, and a gather that searches
the polled prefix for its reference node. Sampled statistics are compared
with the same seeded shuffles, all held and each scored by evaluate.
"""

import functools
import itertools
import math
import operator
import random
import struct
import sys
from fractions import Fraction
from statistics import fmean

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitgather import (
    ConditioningRule,
    GaussianDecayModel,
    PowerLawModel,
    Reading,
    ScheduleStats,
    SensorField,
    Topology,
    conditioned_bits,
    decode,
    encode,
    evaluate,
    fidelity_sweep,
    gather,
    generate_field,
    optimize,
    pairwise_bits,
    schedule_stats,
)
from bitgather.correlation import decay_sum, sum_steps
from bitgather.schedule import _exhaustive, _shuffles, _table, _total_fn

from conftest import mst_weight, oracle_descent, random_topology

MIN, MAX, ADD = ConditioningRule.MIN, ConditioningRule.MAX, ConditioningRule.ADDITIVE

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def instances(
    draw,
    min_nodes=1,
    max_nodes=6,
    rules=(MIN, MAX, ADD),
    widths=st.integers(1, 12),
    coord=st.one_of(st.integers(0, 4).map(float), st.floats(0.0, 6.0)),
):
    """(model, rule, topology): both model families and every rule valid for
    the family, on a small square so that budgets vary across pairs. Grid
    coordinates make tied distances and budgets common."""
    positions = draw(st.lists(st.tuples(coord, coord), min_size=min_nodes, max_size=max_nodes))
    n = draw(widths)
    alpha = draw(st.floats(0.1, 3.0))
    if any(r is not ADD for r in rules) and draw(st.booleans()):
        # beta > 0 keeps coincident nodes away from the singular 0**beta
        model = PowerLawModel(n=n, alpha=alpha, beta=draw(st.floats(0.1, 2.5)))
        valid = [r for r in rules if r is not ADD]
    else:
        model = GaussianDecayModel(n=n, alpha=alpha, beta=draw(st.floats(-1.0, 3.0)))
        valid = list(rules)
    return model, draw(st.sampled_from(valid)), Topology.from_positions(positions)


def oracle_budgets(model, rule, topo, order):
    return [conditioned_bits(model, rule, topo, v, order[:k]) for k, v in enumerate(order)]


def oracle_stats(model, rule, topo):
    # conditioned_bits depends on the polled set only, so each (node, set) is scored once
    budget = functools.cache(lambda v, prior: conditioned_bits(model, rule, topo, v, prior))
    scored = [
        (sum(budget(v, frozenset(perm[:k])) for k, v in enumerate(perm)), perm)
        for perm in itertools.permutations(range(topo.size))
    ]
    totals = [t for t, _ in scored]
    lo, hi = min(totals), max(totals)
    return ScheduleStats(
        mean_total=sum(totals) / len(totals),
        min_total=lo,
        max_total=hi,
        argmin=next(p for t, p in scored if t == lo),
        argmax=next(p for t, p in scored if t == hi),
        sample_count=len(scored),
        exhaustive=True,
    )


def oracle_sampled(model, rule, topo, count, seed):
    """The same seeded shuffles, all held, each scored by evaluate."""
    rng, base, perms = random.Random(seed), list(range(topo.size)), []
    for _ in range(count):
        rng.shuffle(base)
        perms.append(tuple(base))
    totals = [evaluate(model, rule, topo, p).total for p in perms]
    lo, hi = min(totals), max(totals)
    argmin, argmax = perms[totals.index(lo)], perms[totals.index(hi)]
    return ScheduleStats(fmean(totals), lo, hi, argmin, argmax, count, exhaustive=False)


def oracle_prim(weights, start, dearest=False):
    """Prim order from `start`, cheapest link first (or dearest), ties to the
    lowest id; a node's link is its least weight to the nodes in the order."""
    order, sign = [start], -1 if dearest else 1
    while len(order) < len(weights):
        rest = [v for v in range(len(weights)) if v not in order]
        order.append(min(rest, key=lambda v: (sign * min(weights[v][u] for u in order), v)))
    return tuple(order)


def pair_weights(model, topo):
    """Every pair's pairwise_bits; 0 on the diagonal."""
    return [
        [pairwise_bits(model, topo.distance(i, j)) if i != j else 0 for j in range(topo.size)]
        for i in range(topo.size)
    ]


def outcome(fn):
    """fn's result, or the message of the ValueError it raises."""
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


def spanning_optimum(model, rule, topo):
    """n plus the min spanning tree weight under MIN, the max under MAX."""
    weights = pair_weights(model, topo)
    if rule is MIN:
        return model.n + mst_weight(weights)
    return model.n - mst_weight([[-w for w in row] for row in weights])


def oracle_mean(model, rule, topo):
    """Exact mean total over all N! schedules: each node's budget given each
    set of others, weighted by the share of schedules in which exactly that
    set is polled before it, |S|! (N - 1 - |S|)! / N!."""
    size, mean = topo.size, Fraction(0)
    for v in range(size):
        others = [u for u in range(size) if u != v]
        for k in range(size):
            share = Fraction(math.factorial(k) * math.factorial(size - 1 - k), math.factorial(size))
            mean += share * sum(
                conditioned_bits(model, rule, topo, v, prior) for prior in itertools.combinations(others, k)
            )
    return mean


def oracle_gather(model, rule, topo, order, field):
    """(total, exact_count, max_abs_error) of the direct gather."""
    n = model.n
    recon = {}
    for k, node in enumerate(order):
        truth = Reading(field.readings[node], n)
        if k == 0:
            recon[node] = truth.value
            continue
        bits = conditioned_bits(model, rule, topo, node, order[:k])
        ref = min(order[:k], key=lambda u: (topo.distance(node, u), u))
        recon[node] = decode(Reading(recon[ref], n), encode(truth, bits)).value
    errors = [abs(recon[v] - field.readings[v]) for v in range(topo.size)]
    total = sum(oracle_budgets(model, rule, topo, order))
    return total, errors.count(0), max(errors)


_PENTAGON = Topology.from_positions([(0.0, 0.0), (3.0, 0.0), (0.0, 1.0), (2.5, 2.0), (1.0, 4.0)])


_TOP = sys.float_info.max  # (2**53 - 1) * 2**971; halfway to 2**1024 is _TOP + 2**970


def star(model, terms):
    """A topology in which node 0's decay terms to nodes 1, 2, ... are `terms`
    and every other pair's term is 0: the model now reads its terms from a
    table keyed by node 0's exact distances, 3**i to node i."""
    topo = Topology.from_positions([(0.0, 0.0), *((3.0**i, 0.0) for i in range(1, len(terms) + 1))])
    table = dict(zip(topo.distances_from(0, range(1, topo.size)), terms))
    others = {d for i in range(1, topo.size) for d in topo.distances_from(i, range(i + 1, topo.size))}
    assert len(table) == len(terms) and not others & table.keys()
    vars(model)["decay_term"] = (table | dict.fromkeys(others, 0.0)).__getitem__
    return topo


def additive_star(n, terms, alpha=5e-324):
    """(model, ADD, star(model, terms)), the terms padded with 0.0 to six
    nodes, where n = 8 reads the polled-set pass's staircase (2**6 / 8 = 8
    steps); the default alpha leaves bits over at a sum of _TOP and none at
    inf."""
    model = GaussianDecayModel(n, alpha, 1.0)
    return model, ADD, star(model, [*terms, *[0.0] * (5 - len(terms))])


def midpoint_star(parity):
    """An additive_star whose two terms sum exactly to the midpoint of a step
    of sum_steps and the float below it, for a step whose last mantissa bit
    is `parity`: the sum rounds to the step where it is 0 (ties to even) and
    below it where it is 1."""
    steps = sum_steps(GaussianDecayModel(8, 1.0, 1.0))
    step = next(s for s in steps if struct.unpack("Q", struct.pack("d", s))[0] & 1 == parity)
    below = math.nextafter(step, 0.0)
    return additive_star(8, [below, (step - below) / 2], alpha=1.0)


@SETTINGS
@given(
    st.one_of(
        instances(max_nodes=7),
        instances(max_nodes=7, coord=st.integers(0, 2).map(float)),  # tied budgets, d = 0
        instances(max_nodes=7, rules=(ADD,), widths=st.just(2**53)),  # a bit per 2**-53 of sum
    )
)
@example((PowerLawModel(5, 1.0, 1.0), MAX, Topology.from_positions([(1.0, 2.0)])))  # the empty set alone
@example((GaussianDecayModel(12, 1.0, 0.5), MIN, Topology.from_positions([(0.0, 0.0), (1.0, 0.5)])))
@example((GaussianDecayModel(12, 1.0, 0.5), MAX, Topology.from_positions([(0.0, 0.0), (1.0, 0.5)])))
@example((PowerLawModel(6, 2.0, 0.0), MIN, _PENTAGON))  # a constant staircase: every budget 2
@example((PowerLawModel(6, 2.0, 0.0), MAX, _PENTAGON))
@example((GaussianDecayModel(12, 0.1, -0.1), MIN, _PENTAGON))  # beta < 0: the farthest partner is the cheapest
@example((GaussianDecayModel(12, 0.1, -0.1), MAX, _PENTAGON))
# ADDITIVE sums on the staircase's integer thresholds (n <= 2**N / 8): the
# last step at inf (every inf term's sum has budget 0, a finite one 4),
# every term 1 with sums exactly on the steps, alpha > 1, and sums at the
# float range's edge: halfway to 2**1024 rounds to inf, just below it and
# _TOP plus the least float stay finite, and sums exactly halfway between a
# step and the float below it. The last, at n = 2**53, labels each sum by
# decay_bits.
@example((GaussianDecayModel(4, 5e-324, -50.0), ADD, _PENTAGON))
@example((GaussianDecayModel(4, 0.25, 0.0), ADD, _PENTAGON))
@example((GaussianDecayModel(4, 2.5, 0.3), ADD, _PENTAGON))
@example(additive_star(8, [_TOP, 2.0**970]))
@example(additive_star(8, [_TOP, 2.0**970 - 2.0**918, 1.0]))
@example(additive_star(8, [_TOP, 5e-324]))
@example(midpoint_star(0))
@example(midpoint_star(1))
@example(additive_star(2**53, [_TOP, 2.0**970 - 2.0**918]))
def test_exhaustive_stats_match_enumeration(instance):
    model, rule, topo = instance
    assert schedule_stats(model, rule, topo, "exhaustive") == oracle_stats(model, rule, topo)
    # brute-force optimize reports off the table the pass returns: the pass must leave it as _table built it
    assert _exhaustive(model, rule, topo, "")[1] == _table(model, rule, topo)


# Fixed below the polled-set pass's limit: oracle_mean makes N * 2**(N - 1)
# conditioned_bits calls a case, 5120 at N = 10.
_ORACLE_N = 10
_GRID = Topology.from_positions([(float(x % 4), float(x // 4)) for x in range(_ORACLE_N)])


_UNIFORM = random_topology(random.Random(10), _ORACLE_N)
_AT_LIMIT = [
    ("power-uniform", PowerLawModel(8, 1.0, 1.0), _UNIFORM),
    ("gauss-grid", GaussianDecayModel(12, 1.0, 0.5), _GRID),  # many tied distances
    ("gauss-grid-wide", GaussianDecayModel(2**40, 0.7, -0.5), _GRID),
    ("gauss-uniform-wide", GaussianDecayModel(2**53, 1.0, 0.05), _UNIFORM),
]


@pytest.mark.parametrize(
    "model, rule, topo",
    [
        pytest.param(model, rule, topo, id=f"{name}-{rule.value}")
        for name, model, topo in _AT_LIMIT
        for rule in (MIN, MAX, ADD)
        if rule is not ADD or isinstance(model, GaussianDecayModel)
    ],
)
def test_exhaustive_stats_at_the_limit(model, rule, topo):
    """Stats at N = 10 against oracles that do not walk the 10! schedules:
    the mean summed over polled sets, the extremes from brute force (the
    spanning extreme from its descent and the spanning tree)."""
    stats = schedule_stats(model, rule, topo, "exhaustive")
    assert stats.sample_count == math.factorial(_ORACLE_N)
    assert stats.mean_total == float(oracle_mean(model, rule, topo))
    argmin, low = optimize(model, rule, topo, objective="minimize", strategy="brute_force")
    argmax, high = optimize(model, rule, topo, objective="maximize", strategy="brute_force")
    assert (stats.argmin, stats.min_total) == (argmin, low.total)
    assert (stats.argmax, stats.max_total) == (argmax, high.total)
    if rule is not ADD:
        spanning = stats.min_total if rule is MIN else stats.max_total
        assert spanning == spanning_optimum(model, rule, topo)


@SETTINGS
@given(
    st.one_of(
        instances(max_nodes=7),
        instances(max_nodes=7, coord=st.integers(0, 2).map(float)),  # tied budgets, d = 0
    ),
    st.sampled_from(["minimize", "maximize"]),
)
def test_brute_force_matches_enumeration(instance, objective):
    model, rule, topo = instance
    expected = oracle_stats(model, rule, topo)
    best = expected.argmin if objective == "minimize" else expected.argmax
    order, report = optimize(model, rule, topo, objective=objective, strategy="brute_force")
    assert order == best
    assert report.per_node == tuple(zip(best, oracle_budgets(model, rule, topo, best)))
    assert report.total == (expected.min_total if objective == "minimize" else expected.max_total)


@SETTINGS
@given(instances(), st.randoms(use_true_random=False))
def test_single_order_paths_match_direct_budgets(instance, rng):
    model, rule, topo = instance
    order = list(range(topo.size))
    rng.shuffle(order)
    budgets = oracle_budgets(model, rule, topo, order)
    report = evaluate(model, rule, topo, order)
    assert report.per_node == tuple(zip(order, budgets))
    assert report.total == sum(budgets)
    assert _total_fn(model, rule, _table(model, rule, topo))(order) == sum(budgets)


@SETTINGS
@given(
    st.one_of(
        st.tuples(instances(max_nodes=8), st.integers(1, 40)),
        st.tuples(instances(min_nodes=9, max_nodes=40), st.integers(1, 4)),  # swap draws 4 to 6 bits wide
        # totals past 2**53 round: the mean summed as drawn must still be fmean's
        st.tuples(instances(max_nodes=8, widths=st.sampled_from([2**52 + 1, 2**53])), st.integers(1, 40)),
    ),
    st.integers(0, 2**32),
)
def test_sampled_paths_match_scored_shuffles(case, seed):
    (model, rule, topo), count = case
    expected = oracle_sampled(model, rule, topo, count, seed)
    assert schedule_stats(model, rule, topo, "sampled", count=count, seed=seed) == expected
    for objective, best in (("minimize", expected.argmin), ("maximize", expected.argmax)):
        order, report = optimize(
            model, rule, topo, objective=objective, strategy="random_restart", count=count, seed=seed
        )
        assert order == best
        assert report == evaluate(model, rule, topo, best)


@SETTINGS
@given(
    st.one_of(st.sampled_from([0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 33, 65]), st.integers(0, 70)),
    st.one_of(st.sampled_from([-1, -(2**64) - 3, 2**64, 2**64 + 1]), st.integers(-(2**70), 2**70)),
)
def test_shuffles_draw_what_random_shuffle_draws(size, seed):
    # where i + 1 is a power of two, half of the k-bit draws are rejected; sizes
    # at and next to powers of two put that case at the first, widest swap
    rng, order, expected = random.Random(seed), list(range(size)), []
    for _ in range(30):
        rng.shuffle(order)
        expected.append(tuple(order))
    assert [tuple(o) for o in itertools.islice(_shuffles(seed, size), 30)] == expected


def test_shuffles_are_pinned():
    """The first orders of one seed, fixed here and not only by the stdlib."""
    assert [tuple(o) for o in itertools.islice(_shuffles(0, 10), 3)] == [
        (7, 8, 1, 5, 3, 4, 2, 0, 9, 6),
        (6, 3, 9, 2, 7, 8, 0, 1, 5, 4),
        (1, 6, 4, 2, 9, 8, 0, 5, 3, 7),
    ]


@SETTINGS
@given(
    st.one_of(
        instances(max_nodes=8, widths=st.integers(1, 3)),  # few budget levels: ties everywhere
        instances(max_nodes=8, widths=st.just(2**40)),  # many budget levels
        instances(max_nodes=8, coord=st.integers(0, 1).map(float)),  # repeated points, d = 0
    ),
    st.randoms(use_true_random=False),
)
def test_total_fn_matches_evaluate(instance, rng):
    model, rule, topo = instance
    total_of = _total_fn(model, rule, _table(model, rule, topo))  # one scorer for several orders
    order = list(range(topo.size))
    for _ in range(5):
        rng.shuffle(order)
        assert total_of(order) == evaluate(model, rule, topo, order).total


_FEW = [
    [(0.0, 0.0)],
    [(0.0, 0.0), (1.5, 0.0)],
    [(0.0, 0.0), (1.5, 0.0), (0.5, 2.0)],
    [(1.0, 1.0)] * 3,  # all coincident: every budget ties at d = 0
    [(0.0, 0.0), (2.0, 0.0), (0.0, 0.0), (2.0, 0.5)],
]


@pytest.mark.parametrize("positions", _FEW, ids=["n1", "n2", "n3", "n3-coincident", "n4-twins"])
@pytest.mark.parametrize(
    "model, rule",
    [(PowerLawModel(5, 1.0, 1.0), MIN), (PowerLawModel(5, 1.0, 1.0), MAX),
     *((GaussianDecayModel(6, 1.0, 0.5), rule) for rule in (MIN, MAX, ADD))],
    ids=["power-min", "power-max", "gauss-min", "gauss-max", "gauss-additive"],
)
def test_total_fn_on_every_order_of_a_few_nodes(positions, model, rule):
    """At N = 1 and 2 the backward scan's loop is empty, at N = 3 it runs
    once: the first node's n and the second's one pair value, read directly,
    decide the total. Coincident nodes tie at d = 0."""
    topo = Topology.from_positions(positions)
    total_of = _total_fn(model, rule, _table(model, rule, topo))
    for order in itertools.permutations(range(topo.size)):
        assert total_of(order) == evaluate(model, rule, topo, order).total == sum(
            oracle_budgets(model, rule, topo, order)
        )


@SETTINGS
@given(
    st.one_of(
        instances(max_nodes=40, widths=st.integers(1, 3)),
        instances(min_nodes=20, max_nodes=40, widths=st.integers(1, 3)),  # long ranked scans
    ),
    st.randoms(use_true_random=False),
)
def test_total_fn_on_prim_and_shuffled_orders(instance, rng):
    """Forced greedy_prim scores Prim orders, which poll near nodes first,
    and sampling scores shuffles. With 1-3 bit budgets ties are everywhere,
    so a node's first polled partner is one of many equal ones."""
    model, rule, topo = instance
    total_of = _total_fn(model, rule, _table(model, rule, topo))
    weights = pair_weights(model, topo)
    orders = [oracle_prim(weights, rng.randrange(topo.size), dearest) for dearest in (False, True)]
    for _ in range(3):
        orders.append(tuple(rng.sample(range(topo.size), topo.size)))
    for order in orders:
        assert total_of(order) == evaluate(model, rule, topo, order).total


@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("rule", [MIN, MAX, ADD], ids=["min", "max", "additive"])
def test_sampled_paths_on_one_and_two_nodes(size, rule):
    model, topo = GaussianDecayModel(6, 1.0, 0.5), Topology.from_positions(_FEW[1][:size])
    expected = oracle_sampled(model, rule, topo, 7, 3)
    assert schedule_stats(model, rule, topo, "sampled", count=7, seed=3) == expected
    for objective, best in (("minimize", expected.argmin), ("maximize", expected.argmax)):
        order, report = optimize(model, rule, topo, objective=objective, strategy="random_restart", count=7, seed=3)
        assert (order, report) == (best, evaluate(model, rule, topo, best))


@SETTINGS
@given(instances(max_nodes=8, rules=(MIN,)))
def test_single_start_prim_equals_all_starts_and_mst(instance):
    model, _, topo = instance
    order, report = optimize(model, MIN, topo, strategy="greedy_prim")
    weights = [
        [pairwise_bits(model, topo.distance(i, j)) if i != j else 0 for j in range(topo.size)]
        for i in range(topo.size)
    ]
    all_starts = [oracle_prim(weights, start) for start in range(topo.size)]
    totals = [sum(oracle_budgets(model, MIN, topo, o)) for o in all_starts]
    assert order == all_starts[totals.index(min(totals))]
    assert report.total == model.n + mst_weight(weights) == min(totals)
    assert report.per_node == tuple(zip(order, oracle_budgets(model, MIN, topo, order)))


@pytest.mark.parametrize(
    "model, rule, objective, positions",
    [
        # the first optimal second node hangs in the prefix's spanning tree
        # below other unpolled nodes, and the extreme edge on its tree path is
        # not the last one: a bound that read only the last edge would skip it
        (PowerLawModel(8, 1.0, 1.0), MIN, "minimize", [(5, 2), (2, 6), (2, 4), (5, 5), (2, 1)]),
        (PowerLawModel(8, 1.0, 1.0), MAX, "maximize", [(1, 5), (4, 6), (5, 5), (2, 0), (6, 1)]),
        # every budget is n, so every ADDITIVE floor is met exactly: a floor
        # one bit too high would prune every schedule
        (GaussianDecayModel(6, 1.5, 3.0), ADD, "minimize", [(0, 2), (1, 2), (0, 0)]),
    ],
)
def test_brute_force_where_bounds_are_tight(model, rule, objective, positions):
    topo = Topology.from_positions(positions)
    expected = oracle_stats(model, rule, topo)
    order, _ = optimize(model, rule, topo, objective=objective, strategy="brute_force")
    assert order == (expected.argmin if objective == "minimize" else expected.argmax)


def test_additive_floor_covers_every_polling_order():
    # summed as running floats in the order a, c, b these terms round one ulp
    # above their exact sum, and at n = 2**40 an ulp is a whole bit
    terms = [0.3415763282153053, 0.31522513914241207, 0.28963258630651645]
    model = GaussianDecayModel(n=2**40, alpha=1.0, beta=1.0)
    sums = [functools.reduce(operator.add, order, 0.0) for order in itertools.permutations(terms)]
    running = set(map(model.decay_bits, sums))
    assert len(running) == 2
    topo = star(model, terms)
    exact = conditioned_bits(model, ADD, topo, 0, [1, 2, 3])
    assert exact == model.decay_bits(math.fsum(terms)) and exact in running
    for order in itertools.permutations([1, 2, 3]):
        assert evaluate(model, ADD, topo, [*order, 0]).per_node[-1] == (0, exact)


@pytest.mark.parametrize(
    "terms, exact",
    [
        # fsum overflows midway in some orders, though the sum rounds to _TOP
        ([_TOP - 2.0**972, 2.0**970 + 2.0**918, 2.0**972 - 2.0**919], _TOP),
        ([_TOP, 2.0**970 - 2.0**918], _TOP),  # just below halfway
        ([_TOP, 2.0**970], math.inf),  # halfway rounds to even: 2**1024
        ([_TOP / 2, _TOP / 2], _TOP),
        ([2.0**1023, 2.0**1023], math.inf),
        ([_TOP, 5e-324, math.inf], math.inf),
    ],
)
def test_decay_sum_is_exact_at_the_float_range_edge(terms, exact):
    # alpha so small that a sum of _TOP leaves bits over and inf leaves none
    model = GaussianDecayModel(n=2**53, alpha=5e-324, beta=1.0)
    assert model.decay_bits(_TOP) > 0 == model.decay_bits(math.inf)
    topo = star(model, terms)
    budget = conditioned_bits(model, ADD, topo, 0, range(1, topo.size))
    assert budget == model.decay_bits(exact)
    for order in itertools.permutations(range(1, topo.size)):
        assert decay_sum(terms[u - 1] for u in order) == exact
        assert evaluate(model, ADD, topo, [*order, 0]).per_node[-1] == (0, budget)


@SETTINGS
@given(
    st.lists(
        st.one_of(
            st.floats(0.0, 1.0),
            st.floats(0.0, _TOP),
            st.sampled_from([0.0, 5e-324, 2.0**-1022, 2.0**970, _TOP, math.inf]),
        ),
        max_size=6,
    )
)
def test_decay_sum_is_the_exact_sum_rounded_once(terms):
    exact = sum(map(Fraction, filter(math.isfinite, terms)))
    if math.inf not in terms and exact < Fraction(_TOP) + 2**970:  # below halfway to 2**1024
        assert decay_sum(terms) == float(exact)  # Fraction rounds correctly
    else:
        assert decay_sum(terms) == math.inf


@SETTINGS
@given(
    instances(min_nodes=2, max_nodes=6, rules=(ADD,), widths=st.sampled_from([12, 2**40, 2**53])),
    st.data(),
)
def test_additive_budget_depends_on_the_polled_set_only(instance, data):
    """Every polling order of a prior set gives one budget: conditioned_bits."""
    model, _, topo = instance
    v, *others = data.draw(st.permutations(range(topo.size)))
    prior = others[: data.draw(st.integers(0, len(others)))]
    rest = others[len(prior) :]
    budget = conditioned_bits(model, ADD, topo, v, prior)
    for order in itertools.permutations(prior):
        assert evaluate(model, ADD, topo, [*order, v, *rest]).per_node[len(prior)] == (v, budget)


@SETTINGS
@given(
    st.one_of(instances(max_nodes=8), instances(max_nodes=8, coord=st.integers(0, 2).map(float))),
    st.sampled_from(["minimize", "maximize"]),
)
@example(  # dearest-first orders whose links merge by max (not min) pick another order
    (PowerLawModel(3, 1.0, 0.5), MIN,
     Topology.from_positions([(3.0, 0.0), (2.0, 4.0), (3.0, 3.0), (2.0, 3.0), (2.0, 4.0), (1.0, 4.0)])),
    "maximize",
)
def test_forced_greedy_prim_keeps_the_best_min_rule_prim_order(instance, objective):
    model, rule, topo = instance
    if (rule, objective) in ((MIN, "minimize"), (MAX, "maximize")):
        rule = ADD if isinstance(model, GaussianDecayModel) else MAX if rule is MIN else MIN
    weights = [
        [pairwise_bits(model, topo.distance(i, j)) if i != j else 0 for j in range(topo.size)]
        for i in range(topo.size)
    ]
    aims = (False, True) if (rule, objective) == (MIN, "maximize") else (False,)
    starts = [oracle_prim(weights, start, dearest) for dearest in aims for start in range(topo.size)]
    totals = [sum(oracle_budgets(model, rule, topo, o)) for o in starts]
    best = starts[totals.index(min(totals) if objective == "minimize" else max(totals))]
    order, report = optimize(model, rule, topo, objective, "greedy_prim", force=True)
    assert order == best
    assert report == evaluate(model, rule, topo, best)


def test_forced_greedy_prim_maximizes_min_rule_past_the_cheapest_first_orders():
    rng, gains = random.Random(5), 0
    for k in range(12):
        model = PowerLawModel(8, 1.0, 1.0) if k % 2 else GaussianDecayModel(12, 1.0, 0.5)
        topo = random_topology(rng, rng.randint(2, 10))
        weights = [
            [pairwise_bits(model, topo.distance(i, j)) if i != j else 0 for j in range(topo.size)]
            for i in range(topo.size)
        ]
        cheapest_first = max(
            sum(oracle_budgets(model, MIN, topo, oracle_prim(weights, start)))
            for start in range(topo.size)
        )
        _, report = optimize(model, MIN, topo, "maximize", "greedy_prim", force=True)
        assert cheapest_first <= report.total <= schedule_stats(model, MIN, topo, "exhaustive").max_total
        gains += cheapest_first < report.total
    assert gains > 0


@pytest.mark.parametrize(
    "model, rule, objective",
    [
        pytest.param(model, rule, objective, id=f"{name}-{rule.value}-{objective}")
        for name, model, rules in [
            ("power", PowerLawModel(8, 1.0, 1.0), (MAX,)),
            ("gauss", GaussianDecayModel(12, 1.0, 0.5), (MAX, ADD)),
            ("gauss-wide", GaussianDecayModel(2**40, 0.7, -0.5), (ADD,)),
        ]
        for rule in rules
        for objective in ("minimize", "maximize")
        if (rule, objective) != (MAX, "maximize")  # there greedy_prim is exact
    ],
)
def test_forced_greedy_prim_never_beats_brute_force(model, rule, objective):
    """Where greedy_prim is a heuristic, at N = 11-12: its report is evaluate's
    for its order, and its total is never past the exact optimum."""
    rng = random.Random(17)
    for size in (11, 12):
        topo = random_topology(rng, size)
        order, report = optimize(model, rule, topo, objective, "greedy_prim", force=True)
        _, exact = optimize(model, rule, topo, objective, "brute_force")
        assert report == evaluate(model, rule, topo, order)
        assert (exact.total <= report.total) if objective == "minimize" else (report.total <= exact.total)


@SETTINGS
@given(instances(max_nodes=8, rules=(MAX,)))
def test_greedy_prim_is_exact_for_max_maximize(instance):
    model, _, topo = instance
    order, report = optimize(model, MAX, topo, objective="maximize", strategy="greedy_prim")
    _, brute = optimize(model, MAX, topo, objective="maximize", strategy="brute_force")
    assert report.total == brute.total == spanning_optimum(model, MAX, topo)
    assert report.per_node == tuple(zip(order, oracle_budgets(model, MAX, topo, order)))


@settings(max_examples=30, deadline=None)
@given(instances(min_nodes=24, max_nodes=40, rules=(MIN, MAX), widths=st.integers(1, 4)))
def test_prim_order_matches_its_definition_past_the_gate(instance):
    """Past the step-table gate (64n + 2 <= 258 < 276 <= N(N-1)/2) Prim reads
    its pair budgets off the table; the order is still the one whose every
    link is picked from model.budget's values, ties to the lowest id."""
    model, rule, topo = instance
    pick, size = (min if rule is MIN else max), topo.size
    weights = [[pairwise_bits(model, topo.distance(i, j)) for j in range(size)] for i in range(size)]
    order = [0]
    while len(order) < size:
        rest = [v for v in range(size) if v not in order]
        order.append(pick(rest, key=lambda v: pick(weights[v][u] for u in order)))
    objective = "minimize" if rule is MIN else "maximize"
    assert optimize(model, rule, topo, objective, "greedy_prim") == (
        tuple(order), evaluate(model, rule, topo, order))


@SETTINGS
@given(
    st.lists(st.tuples(*[st.one_of(st.integers(0, 3).map(float), st.floats(0.0, 6.0))] * 2),
             min_size=1, max_size=8),
    st.sampled_from([PowerLawModel, GaussianDecayModel]),
    st.integers(1, 64),
    st.floats(0.05, 3.0),
    st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
    st.sampled_from([MIN, MAX]),
    st.randoms(use_true_random=False),
)
def test_one_budget_call_per_node_matches_the_fold(positions, cls, n, alpha, beta, rule, rng):
    """Under MIN and MAX the walk reads a node's budget off its nearest or
    its farthest polled partner, as the rule and the sign of beta say;
    conditioned_bits folds every partner. Grid points coincide, where a power
    law with beta < 0 must raise as the fold does."""
    model, topo = cls(n=n, alpha=alpha, beta=beta), Topology.from_positions(positions)
    order = rng.sample(range(topo.size), topo.size)
    assert outcome(lambda: evaluate(model, rule, topo, order).per_node) == outcome(
        lambda: tuple(zip(order, oracle_budgets(model, rule, topo, order))))


@settings(max_examples=30, deadline=None)
@given(instances(min_nodes=11, max_nodes=40, rules=(MIN, MAX)))
def test_spanning_pairs_searched_past_the_old_limit(instance):
    model, rule, topo = instance
    objective = "minimize" if rule is MIN else "maximize"
    order, report = optimize(model, rule, topo, objective=objective, strategy="brute_force")
    assert sorted(order) == list(range(topo.size))
    assert report == evaluate(model, rule, topo, order)
    assert report.total == spanning_optimum(model, rule, topo)


_TWINS = [(float(i % 3), float(i // 3)) for i in range(9)] + [(1.0, 1.0)]
# gaps 12, 11, ..., 2 along a line: the Prim order from node 0 is the line, and
# each poll's bottlenecks beat node 0's all the way out, the longest hop walks
_LINE = [(x, 0.0) for x in itertools.accumulate(map(float, range(12, 1, -1)), initial=0.0)]


@SETTINGS
@given(
    st.sampled_from([st.floats(0.0, 10.0), st.integers(0, 4).map(float)]).flatmap(
        lambda coord: st.lists(st.tuples(coord, coord), min_size=8, max_size=60)),
    st.sampled_from([PowerLawModel, GaussianDecayModel]),
    st.integers(1, 16),
    st.floats(0.1, 3.0),
    st.floats(-2.0, 3.0),
    st.sampled_from([MIN, MAX]),
)
@example(_TWINS, PowerLawModel, 5, 1.0, -0.5, MIN)  # coincident nodes: singular
@example(  # a node's nearest polled node along the Prim order may come after it
    [(3.9, 0.5), (5.2, 4.6), (1.7, 3.3), (0.4, 1.4), (2.0, 2.3), (3.4, 4.7), (4.0, 2.7), (2.4, 0.2),
     (3.9, 3.8), (2.7, 0.6)], PowerLawModel, 4, 0.5, 1.0, MIN)
@example(_TWINS, PowerLawModel, 5, 1.0, 0.5, MAX)
@example([(0.0, 0.0)] * 3 + _TWINS, GaussianDecayModel, 12, 0.9, 0.3, MIN)
@example(_LINE, PowerLawModel, 16, 1.0, 1.0, MIN)  # links 12, 11, ..., 2
@example([(x / 24, y) for x, y in _LINE], PowerLawModel, 16, 1.0, -1.0, MAX)  # links 2, 3, 3, 3, 3, 4, ..., 12
# beta = 0: every budget and every bound ties, so the order is 0..N-1
@example(_TWINS[:9], PowerLawModel, 5, 1.5, 0.0, MIN)
@example(_TWINS[:9], PowerLawModel, 5, 1.5, 0.0, MAX)
def test_spanning_brute_force_equals_the_cubic_descent(positions, cls, n, alpha, beta, rule):
    """Both spanning pairs at N 8-60, on uniform and integer-grid layouts
    (tied budgets, d = 0): brute force, one Prim order read at every step,
    returns the order of the O(N**3) descent that re-runs Prim each step,
    or raises its message. At N 9-13 that order is the exhaustive argmin
    (argmax) too."""
    model, topo = cls(n=n, alpha=alpha, beta=beta), Topology.from_positions(positions)
    objective = "minimize" if rule is MIN else "maximize"
    want = outcome(lambda: oracle_descent(pair_weights(model, topo), model.n, objective))
    assert outcome(lambda: optimize(model, rule, topo, objective, "brute_force")[0]) == want
    if 9 <= topo.size <= 13 and not isinstance(want, str):
        stats = schedule_stats(model, rule, topo, "exhaustive")
        assert want == (stats.argmin if rule is MIN else stats.argmax)


@SETTINGS
@given(
    instances(min_nodes=2, max_nodes=8),
    st.lists(st.floats(0.0, 6.0), min_size=1, max_size=3),
    st.lists(st.integers(0, 1000), min_size=1, max_size=2),
    st.randoms(use_true_random=False),
)
def test_fidelity_sweep_rows_match_direct_gather(instance, smoothness, seeds, rng):
    model, rule, topo = instance
    order = list(range(topo.size))
    rng.shuffle(order)
    rows = fidelity_sweep(model, rule, topo, order, smoothness, seeds)
    expected = [
        (L, seed, *oracle_gather(model, rule, topo, order, generate_field(topo, model.n, L, seed)))
        for L in smoothness
        for seed in seeds
    ]
    assert rows == expected


def test_reference_ties_break_toward_lowest_id():
    # node 2 is 1 away from both polled nodes; node 1 was polled first, but
    # node 0 is the reference, so node 2 decodes against 18, not 20
    topo = Topology.from_positions([(0.0, 0.0), (2.0, 0.0), (1.0, 0.0)])
    model = PowerLawModel(n=5, alpha=1.0, beta=1.0)
    field = SensorField(readings=(10, 20, 15), width=5, smoothness=0.0, seed=0)
    result = gather(model, MIN, topo, [1, 0, 2], field)
    assert result.reconstructed == (18, 20, 17)
    assert (result.bit_report.total, result.exact_count, result.max_abs_error) == oracle_gather(
        model, MIN, topo, [1, 0, 2], field
    )
