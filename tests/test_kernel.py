"""The incremental attach kernel against the direct definition.

Every fast path in schedule.py and simulator.py is compared with the slow
path built on conditioned_bits: itertools.permutations for enumeration,
per-position conditioned budgets for totals, and a gather that searches
the polled prefix for its reference node.
"""

import itertools

from hypothesis import given, settings
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
from bitgather.schedule import _total_fn

from conftest import mst_weight

MIN, MAX, ADD = ConditioningRule.MIN, ConditioningRule.MAX, ConditioningRule.ADDITIVE

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def instances(draw, min_nodes=1, max_nodes=6, rules=(MIN, MAX, ADD)):
    """(model, rule, topology): both model families and every rule valid for
    the family, on a small square so that budgets vary across pairs. Grid
    coordinates make tied distances and budgets common."""
    coord = st.one_of(st.integers(0, 4).map(float), st.floats(0.0, 6.0))
    positions = draw(st.lists(st.tuples(coord, coord), min_size=min_nodes, max_size=max_nodes))
    n = draw(st.integers(1, 12))
    alpha = draw(st.floats(0.1, 3.0))
    if draw(st.booleans()):
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
    scored = [
        (sum(oracle_budgets(model, rule, topo, perm)), perm)
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


def oracle_prim(weights, start):
    """Prim order from `start`, cheapest link first, ties to the lowest id."""
    order = [start]
    while len(order) < len(weights):
        rest = [v for v in range(len(weights)) if v not in order]
        order.append(min(rest, key=lambda v: (min(weights[v][u] for u in order), v)))
    return tuple(order)


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


@SETTINGS
@given(instances())
def test_exhaustive_stats_match_enumeration(instance):
    model, rule, topo = instance
    assert schedule_stats(model, rule, topo, "exhaustive") == oracle_stats(model, rule, topo)


@SETTINGS
@given(instances(), st.sampled_from(["minimize", "maximize"]))
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
    assert _total_fn(model, rule, topo)(order) == sum(budgets)


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
