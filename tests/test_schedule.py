import gc
import itertools
import math
import random
import sys

import pytest

from bitgather import (
    ConditioningRule,
    GaussianDecayModel,
    InfeasibleError,
    PowerLawModel,
    Topology,
    budget_matrix,
    evaluate,
    fidelity_sweep,
    optimize,
    schedule_stats,
)
from bitgather import schedule
from bitgather.correlation import budget_steps
from bitgather.schedule import EXHAUSTIVE_LIMIT, _table, _total_fn

from conftest import mst_weight, random_topology

MIN, MAX, ADD = ConditioningRule.MIN, ConditioningRule.MAX, ConditioningRule.ADDITIVE


class TestEvaluate:
    def test_single_node(self, unit_staircase):
        topo = Topology.from_positions([(0.0, 0.0)])
        report = evaluate(unit_staircase, MIN, topo, [0])
        assert report.total == 5
        assert report.per_node == ((0, 5),)

    def test_two_nodes_order_independent(self, unit_staircase):
        topo = Topology.from_positions([(0.0, 0.0), (1.2, 0.0)])
        assert evaluate(unit_staircase, MIN, topo, [0, 1]).total == 7
        assert evaluate(unit_staircase, MIN, topo, [1, 0]).total == 7

    def test_collinear_regression(self, collinear3, unit_staircase):
        fwd = evaluate(unit_staircase, MIN, collinear3, [0, 1, 2])
        assert [b for _, b in fwd.per_node] == [5, 1, 1]
        assert fwd.total == 7
        skip = evaluate(unit_staircase, MIN, collinear3, [0, 2, 1])
        assert [b for _, b in skip.per_node] == [5, 2, 1]
        assert skip.total == 8

    def test_first_node_always_pays_n(self):
        rng = random.Random(21)
        for _ in range(30):
            topo = random_topology(rng, rng.randint(1, 7))
            m = GaussianDecayModel(n=6, alpha=0.8, beta=0.5)
            order = list(range(topo.size))
            rng.shuffle(order)
            rule = rng.choice([MIN, MAX, ADD])
            report = evaluate(m, rule, topo, order)
            assert report.per_node[0] == (order[0], 6)
            assert report.total == sum(b for _, b in report.per_node)

    def test_malformed_permutation_rejected(self, collinear3, unit_staircase):
        for bad in ([0, 1], [0, 1, 1], [0, 1, 3], [0, 1, 2.0]):
            with pytest.raises(ValueError, match="permutation"):
                evaluate(unit_staircase, MIN, collinear3, bad)
        node, _ = evaluate(unit_staircase, MIN, collinear3, [0, True, 2]).per_node[1]
        assert node == 1 and type(node) is int

    def test_fast_total_matches_evaluate(self):
        rng = random.Random(22)
        for _ in range(60):
            topo = random_topology(rng, rng.randint(2, 7))
            if rng.random() < 0.5:
                m = PowerLawModel(n=5, alpha=rng.uniform(0.2, 2), beta=rng.uniform(0.2, 2))
                rule = rng.choice([MIN, MAX])
            else:
                m = GaussianDecayModel(n=5, alpha=rng.uniform(0.2, 2), beta=rng.uniform(0.2, 2))
                rule = rng.choice([MIN, MAX, ADD])
            order = list(range(topo.size))
            rng.shuffle(order)
            assert _total_fn(m, rule, _table(m, rule, topo))(order) == evaluate(m, rule, topo, order).total


class TestStats:
    def test_two_node_symmetry(self, unit_staircase):
        topo = Topology.from_positions([(0.0, 0.0), (1.2, 0.0)])
        stats = schedule_stats(unit_staircase, MIN, topo, "exhaustive")
        assert stats.min_total == stats.max_total == 7
        assert stats.mean_total == 7.0
        assert stats.exhaustive and stats.sample_count == 2

    def test_collinear_exhaustive(self, collinear3, unit_staircase):
        stats = schedule_stats(unit_staircase, MIN, collinear3, "exhaustive")
        assert (stats.min_total, stats.max_total) == (7, 8)
        assert stats.sample_count == 6

    def test_exhaustive_guard(self, unit_staircase):
        topo = random_topology(random.Random(1), EXHAUSTIVE_LIMIT + 1)
        with pytest.raises(InfeasibleError, match="sampled"):
            schedule_stats(unit_staircase, MIN, topo, "exhaustive")

    def test_sampled_is_deterministic(self, unit_staircase):
        topo = random_topology(random.Random(9), 6)
        a = schedule_stats(unit_staircase, MIN, topo, "sampled", count=1000, seed=42)
        b = schedule_stats(unit_staircase, MIN, topo, "sampled", count=1000, seed=42)
        assert a == b

    def test_sampled_brackets_exhaustive(self, collinear3, unit_staircase):
        full = schedule_stats(unit_staircase, MIN, collinear3, "exhaustive")
        sampled = schedule_stats(
            unit_staircase, MIN, collinear3, "sampled", count=200, seed=0
        )
        assert full.min_total <= sampled.min_total
        assert sampled.max_total <= full.max_total

    def test_exhaustive_min_max_do_not_walk_every_permutation(self, unit_staircase):
        """Outside the spanning pairs brute force is the polled-set pass:
        its answer is the exhaustive extreme, with evaluate's report."""
        topo = random_topology(random.Random(23), 7)
        m = GaussianDecayModel(n=5, alpha=0.9, beta=0.3)
        for model, rule, objective in [
            (unit_staircase, MIN, "maximize"),
            (unit_staircase, MAX, "minimize"),
            (m, ADD, "minimize"),
            (m, ADD, "maximize"),
        ]:
            stats = schedule_stats(model, rule, topo, "exhaustive")
            assert stats.sample_count == 5040
            best = stats.argmin if objective == "minimize" else stats.argmax
            order, report = optimize(model, rule, topo, objective, "brute_force")
            assert order == best
            assert report == evaluate(model, rule, topo, best)
            assert report.total == (stats.min_total if objective == "minimize" else stats.max_total)

    def test_exhaustive_max_matches_brute_force_maximize(self):
        rng = random.Random(12)
        for _ in range(10):
            topo = random_topology(rng, rng.randint(2, 5))
            m = GaussianDecayModel(n=5, alpha=0.9, beta=0.3)
            stats = schedule_stats(m, ADD, topo, "exhaustive")
            _, report = optimize(m, ADD, topo, objective="maximize")
            assert stats.max_total == report.total



@pytest.mark.parametrize(
    "points",
    [
        # exp(29**2) and exp(30**2) overflow: every term with node 1 is inf
        [(0, 0), (30, 0), (1, 0)],
        # each term is finite (about exp(709)), but node 0's exact sum overflows
        [(0, 0), (26.627, 0), (26.627, 0.01), (26.627, -0.01)],
        # the same with that node last
        [(26.627, 0), (26.627, 0.01), (26.627, -0.01), (0, 0)],
    ],
)
def test_additive_brute_force_matches_exhaustive_at_overflow(points):
    """ADDITIVE brute force where a node's terms overflow: the lexicographically
    first extreme of evaluate's totals over every permutation."""
    m = GaussianDecayModel(n=8, alpha=1.0, beta=-1.0)
    topo = Topology.from_positions(points)
    totals = {p: evaluate(m, ADD, topo, p).total for p in itertools.permutations(range(topo.size))}
    for objective, pick in (("minimize", min), ("maximize", max)):
        best = pick(totals, key=totals.__getitem__)  # the first extreme, in lexicographic order
        order, report = optimize(m, ADD, topo, objective=objective, strategy="brute_force")
        assert (order, report.total) == (best, totals[best])


class TestOptimize:
    def test_collinear_minimum(self, collinear3, unit_staircase):
        _, report = optimize(unit_staircase, MIN, collinear3, strategy="brute_force")
        assert report.total == 7

    def test_single_node(self, unit_staircase):
        topo = Topology.from_positions([(0.0, 0.0)])
        order, report = optimize(unit_staircase, MIN, topo)
        assert order == (0,) and report.total == 5

    def test_min_rule_optimum_is_mst_weight(self, unit_staircase):
        rng = random.Random(13)
        for _ in range(30):
            topo = random_topology(rng, rng.randint(2, 6), scale=6.0)
            _, best = optimize(unit_staircase, MIN, topo, strategy="brute_force")
            oracle = unit_staircase.n + mst_weight(budget_matrix(unit_staircase, topo))
            assert best.total == oracle
            _, greedy = optimize(unit_staircase, MIN, topo, strategy="greedy_prim")
            assert greedy.total == oracle

    def test_max_rule_dominates_min_rule(self):
        rng = random.Random(14)
        m = GaussianDecayModel(n=6, alpha=1.0, beta=0.4)
        for _ in range(40):
            topo = random_topology(rng, rng.randint(2, 7))
            order = list(range(topo.size))
            rng.shuffle(order)
            lo = evaluate(m, MIN, topo, order)
            hi = evaluate(m, MAX, topo, order)
            for (_, a), (_, b) in zip(lo.per_node, hi.per_node):
                assert a <= b
            assert lo.total <= hi.total

    def test_greedy_refused_outside_exact_regime(self, collinear3, unit_staircase):
        with pytest.raises(ValueError, match="greedy_prim"):
            optimize(unit_staircase, MAX, collinear3, strategy="greedy_prim")
        with pytest.raises(ValueError, match="greedy_prim"):
            optimize(
                unit_staircase, MIN, collinear3, objective="maximize", strategy="greedy_prim"
            )
        # forced heuristic runs and returns a valid schedule
        order, _ = optimize(
            unit_staircase, MAX, collinear3, strategy="greedy_prim", force=True
        )
        assert sorted(order) == [0, 1, 2]

    def test_random_restart_deterministic_and_valid(self, unit_staircase):
        topo = random_topology(random.Random(15), 7)
        a = optimize(unit_staircase, MIN, topo, strategy="random_restart", count=50, seed=3)
        b = optimize(unit_staircase, MIN, topo, strategy="random_restart", count=50, seed=3)
        assert a == b
        _, brute = optimize(unit_staircase, MIN, topo, strategy="brute_force")
        assert a[1].total >= brute.total

    def test_brute_force_guard(self, unit_staircase, monkeypatch):
        topo = random_topology(random.Random(16), 11)
        one_path = 11 * 11  # the descent's work: N * N
        monkeypatch.setattr(schedule, "SEARCH_WORK_LIMIT", one_path - 1)
        with pytest.raises(InfeasibleError, match="work limit"):
            optimize(unit_staircase, MIN, topo, strategy="brute_force")
        # the exact bound descends a single path, so it fits a limit of N * N
        monkeypatch.setattr(schedule, "SEARCH_WORK_LIMIT", one_path)
        _, report = optimize(unit_staircase, MIN, topo, strategy="brute_force")
        assert report.total == unit_staircase.n + mst_weight(budget_matrix(unit_staircase, topo))
        # the other pairs pass over the polled sets, refused past their limit
        topo = random_topology(random.Random(16), EXHAUSTIVE_LIMIT + 1)
        with pytest.raises(InfeasibleError, match=f"N={EXHAUSTIVE_LIMIT + 1} > {EXHAUSTIVE_LIMIT}"):
            optimize(unit_staircase, MIN, topo, objective="maximize", strategy="brute_force")

    def test_unknown_inputs_rejected(self, collinear3, unit_staircase):
        with pytest.raises(ValueError):
            optimize(unit_staircase, MIN, collinear3, objective="fastest")
        with pytest.raises(ValueError):
            optimize(unit_staircase, MIN, collinear3, strategy="anneal")


@pytest.mark.parametrize(
    "call",
    [
        lambda m, topo: schedule_stats(m, MIN, topo, "sampled", count=0, seed=1),
        lambda m, topo: schedule_stats(m, MIN, topo, "sampled", count=None, seed=1),
        lambda m, topo: schedule_stats(m, MIN, topo, "sampled", count=5, seed=None),
        lambda m, topo: optimize(m, MIN, topo, strategy="random_restart", count=0, seed=1),
        lambda m, topo: optimize(m, MIN, topo, strategy="random_restart", count=None, seed=1),
        lambda m, topo: optimize(m, MIN, topo, strategy="random_restart", count=5, seed=None),
    ],
    ids=[f"{caller}-{case}" for caller in ("stats", "restart") for case in ("zero", "none", "seed")],
)
def test_sampling_refusals(collinear3, unit_staircase, call):
    with pytest.raises(ValueError, match=r"^sampling needs (count >= 1|an explicit seed)$"):
        call(unit_staircase, collinear3)


# Below the step-table gate a pairwise budget is first asked at both ends of
# the distances, the least positive float and the largest, which tell a
# constant staircase (equal there) from one computed pair by pair.
_ENDS = [5e-324, sys.float_info.max]


def _count_budget_calls(model, method: str = "budget") -> list[float]:
    """Wrap the model's pairwise budget (or another per-distance method, such
    as decay_term); returns the distances it is asked for."""
    calls, budget = [], getattr(model, method)

    def counted(d: float):
        calls.append(d)
        return budget(d)

    vars(model)[method] = counted  # frozen: shadow the method in the instance's own dict
    return calls


@pytest.mark.parametrize("rule", [MIN, MAX], ids=["min", "max"])
def test_exhaustive_stats_compute_each_pair_budget_once(rule):
    """The mean and both searches share one pair table: the two end calls,
    then one per pair."""
    m = PowerLawModel(n=5, alpha=1.0, beta=1.0)
    calls = _count_budget_calls(m)
    schedule_stats(m, rule, random_topology(random.Random(31), 8), "exhaustive")
    assert calls[:2] == _ENDS
    assert len(calls) == 2 + 8 * 7 // 2


@pytest.mark.parametrize("rule, objective", [(MIN, "maximize"), (MAX, "minimize"), (ADD, "minimize")])
def test_forced_greedy_prim_computes_each_pair_budget_once(rule, objective):
    """Every Prim start and the scoring share one pair table, and the report
    folds each node's prefix of the scoring table, with no call of its own.
    ADDITIVE builds two tables: Prim's budgets off the step table
    (64n + 2 < N(N-1)/2), and the scoring's decay terms, one per pair."""
    m = GaussianDecayModel(5, 0.9, 0.3) if rule is ADD else PowerLawModel(n=5, alpha=1.0, beta=1.0)
    calls = _count_budget_calls(m)
    terms = _count_budget_calls(m, "decay_term") if rule is ADD else []
    optimize(m, rule, random_topology(random.Random(32), 40), objective, "greedy_prim", force=True)
    assert len(calls) <= 40 * 39 // 2
    if rule is ADD:
        assert len(calls) <= 64 * 5 + 2
        assert len(terms) == 40 * 39 // 2


@pytest.mark.parametrize(
    "method, run, size",
    [
        ("decay_term", lambda m, topo: optimize(m, ADD, topo, "minimize", "random_restart", count=5, seed=0), 40),
        ("decay_term", lambda m, topo: optimize(m, ADD, topo, "maximize", "brute_force"), 10),
        ("budget", lambda m, topo: optimize(m, MAX, topo, "minimize", "brute_force"), 10),
    ],
    ids=["restart-additive", "brute-additive", "brute-max-minimize"],
)
def test_searches_report_off_their_table(method, run, size):
    """random_restart and brute force outside the spanning pairs read the
    winner's budgets off the pair table they searched, with no closing walk:
    one call per unordered pair (at N = 10, 64n + 2 >= 45 pairs, so no step
    table), after the two end calls where the pairs are budgets."""
    m = GaussianDecayModel(n=5, alpha=0.9, beta=0.3)
    calls = _count_budget_calls(m, method)
    run(m, random_topology(random.Random(36), size))
    assert len(calls) == size * (size - 1) // 2 + (2 if method == "budget" else 0)


_SHUFFLED = random.Random(34).sample(range(30), 30)
_PAIRS, _NODES = 30 * 29 // 2, 29


@pytest.mark.parametrize(
    "method, run, count",
    [
        ("budget", lambda m, topo: evaluate(m, MIN, topo, _SHUFFLED), _NODES),
        ("budget", lambda m, topo: evaluate(m, MAX, topo, _SHUFFLED), _NODES),
        ("decay_term", lambda m, topo: evaluate(m, ADD, topo, _SHUFFLED), _PAIRS),
        ("budget", lambda m, topo: optimize(m, MIN, topo, "minimize", "greedy_prim"), 2 + _PAIRS),
        ("budget", lambda m, topo: optimize(m, MAX, topo, "maximize", "greedy_prim"), 2 + _PAIRS),
        ("budget", lambda m, topo: optimize(m, MIN, topo, "minimize", "brute_force"), 2 + 2 * _PAIRS),
        ("budget", lambda m, topo: optimize(m, MAX, topo, "maximize", "brute_force"), 2 + 2 * _PAIRS),
        ("budget", lambda m, topo: fidelity_sweep(m, MIN, topo, _SHUFFLED, [1.0], [0, 1]), _NODES),
    ],
    ids=["evaluate-min", "evaluate-max", "evaluate-additive", "prim-min", "prim-max", "brute-min", "brute-max",
         "sweep-min"],
)
def test_evaluate_and_prim_compute_each_pair_once(method, run, count):
    """Under MIN and MAX a walk reads each node's budget off one distance:
    one call per node but the first. The ADDITIVE prefix fold, and Prim's
    running link below the step-table gate (64n + 2 >= N(N-1)/2, after the
    two end calls), call the pair method once per unordered pair: no pair
    twice, and no table besides.
    Spanning brute force is two Prim passes, the second keyed by the first's
    order, and reports their links: no closing walk."""
    m = GaussianDecayModel(n=12, alpha=0.9, beta=0.3)
    calls = _count_budget_calls(m, method)
    run(m, random_topology(random.Random(33), 30))
    assert len(calls) == count


@pytest.mark.parametrize("size, tabled", [(23, False), (24, True)])
def test_budget_matrix_bisects_only_above_the_gate(size, tabled):
    """With n = 4 the gate is 64n + 2 = 258 calls: N = 23 has 253 pairs, so
    after the two end calls each pair calls model.budget once, in row order;
    N = 24 has 276, and the step table's bisection makes at most 258 calls."""
    m = PowerLawModel(n=4, alpha=1.0, beta=1.0)
    topo = random_topology(random.Random(35), size)
    want = [[m.budget(topo.distance(i, j)) if i != j else 0 for j in range(size)] for i in range(size)]
    calls = _count_budget_calls(m)
    assert budget_matrix(m, topo) == want
    if tabled:
        assert len(calls) <= 64 * 4 + 2
    else:
        assert calls == [*_ENDS, *(topo.distance(i, j) for i in range(size) for j in range(i + 1, size))]


def test_budget_steps_gate_is_64n_plus_2():
    """With n = 4 the bisection's bound is 64n + 2 = 258 calls: at 258 pairs
    budget_steps gives None after the two end calls, at 259 the staircase. A
    constant staircase costs the two end calls at any count of pairs."""
    m = PowerLawModel(n=4, alpha=1.0, beta=1.0)
    calls = _count_budget_calls(m)
    assert budget_steps(m, False, 258) is None
    assert calls == _ENDS
    del calls[:]
    assert budget_steps(m, False, 259) == ([1.0000000000000003e-09, 1.000000001, 2.000000001, 3.000000001],
                                           [0, 1, 2, 3, 4])
    assert calls[:2] == _ENDS and len(calls) <= 258
    for model in (PowerLawModel(4, 3.0, 0.0), GaussianDecayModel(10**6, 0.5, 0.0)):
        table, calls = ([], [model.budget(1.0)]), _count_budget_calls(model)
        for pairs in (0, 258, 259, math.inf):
            del calls[:]
            assert budget_steps(model, False, pairs) == table
            assert calls == _ENDS


@pytest.mark.parametrize("coincident", [False, True], ids=["apart", "twins"])
def test_constant_staircase_below_the_gate_costs_two_calls(coincident):
    """A budget equal at both ends is constant: below the gate (n = 10**6, 435
    pairs) the table, bits' rows and every search read its one value off two
    calls, at 0 where nodes coincide, and compute no pair."""
    points = [(float(i % 6), float(i // 6)) for i in range(30)]
    topo = Topology.from_positions(points + points[-1:] if coincident else points)
    ends = [0.0 if coincident else _ENDS[0], _ENDS[1]]
    size = topo.size
    for model in (PowerLawModel(10**6, 3.0, 0.0), GaussianDecayModel(10**6, 0.5, 0.0)):
        calls = _count_budget_calls(model)
        want = [[0 if i == j else model.budget(1.0) for j in range(size)] for i in range(size)]
        del calls[:]
        assert budget_matrix(model, topo) == want
        assert calls == ends
        del calls[:]
        assert [*schedule.pair_tails(model, MIN, topo, str)] == [[str(want[0][1])] * (size - 1 - i)
                                                                for i in range(size)]
        assert calls == ends
        for rule, strategy in ((MIN, "brute_force"), (MAX, "greedy_prim")):  # Prim's rows, and a forced table
            del calls[:]
            report = optimize(model, rule, topo, "minimize", strategy, force=True)[1]
            assert report.total == model.n + (size - 1) * want[0][1]
            assert calls == ends


def test_refused_brute_force_computes_no_budget():
    m = PowerLawModel(n=5, alpha=1.0, beta=1.0)
    calls = _count_budget_calls(m)
    topo = Topology.from_positions([(float(i), 0.0) for i in range(2001)])
    with pytest.raises(InfeasibleError, match="above the search's work limit"):
        optimize(m, MIN, topo, strategy="brute_force")
    # one node past the polled-set pass's limit, under every rule
    topo = Topology.from_positions([(float(i), 0.0) for i in range(EXHAUSTIVE_LIMIT + 1)])
    g = GaussianDecayModel(n=5, alpha=0.9, beta=0.3)
    g_calls = _count_budget_calls(g, "decay_term")  # the ADDITIVE pair table's method
    refusals = [
        lambda: schedule_stats(m, MIN, topo, "exhaustive"),
        lambda: schedule_stats(m, MAX, topo, "exhaustive"),
        lambda: schedule_stats(g, ADD, topo, "exhaustive"),
        lambda: optimize(m, MIN, topo, "maximize", "brute_force"),
        lambda: optimize(m, MAX, topo, "minimize", "brute_force"),
        lambda: optimize(g, ADD, topo, "minimize", "brute_force"),
        lambda: optimize(g, ADD, topo, "maximize", "brute_force"),
    ]
    for refused in refusals:
        with pytest.raises(InfeasibleError, match=f"N={EXHAUSTIVE_LIMIT + 1} > {EXHAUSTIVE_LIMIT}"):
            refused()
    assert calls == g_calls == []


_GAUSS = GaussianDecayModel(n=5, alpha=0.9, beta=0.3)


def _assert_no_new_cycle(call) -> None:
    """The second call leaves nothing for the cyclic collector (the first
    may fill caches)."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


_SAMPLED = lambda m, topo: schedule_stats(m, MAX, topo, "sampled", count=50, seed=0)
_BRUTE = lambda m, topo: optimize(m, MIN, topo, strategy="brute_force")
_PRIM = lambda m, topo: optimize(m, MIN, topo, strategy="greedy_prim")
_PRIM_FORCED = lambda m, topo: optimize(m, MAX, topo, strategy="greedy_prim", force=True)
_RESTART = lambda m, topo: optimize(m, MIN, topo, strategy="random_restart", count=50, seed=0)


@pytest.mark.parametrize(
    "call, size",
    [
        (lambda m, topo: schedule_stats(m, MIN, topo, "exhaustive"), 6),
        (lambda m, topo: schedule_stats(_GAUSS, ADD, topo, "exhaustive"), 6),
        (_SAMPLED, 6),
        (_BRUTE, 6),
        (lambda m, topo: optimize(m, MIN, topo, objective="maximize", strategy="brute_force"), 6),
        (lambda m, topo: optimize(_GAUSS, ADD, topo, strategy="brute_force"), 6),
        (_PRIM, 6),
        (_PRIM_FORCED, 6),
        (_RESTART, 6),
        (lambda m, topo: evaluate(m, MIN, topo, range(topo.size)), 6),
        (lambda m, topo: fidelity_sweep(m, MIN, topo, range(topo.size), [0.5, 2.0], [1, 2]), 6),
        # past the gate (64n + 2 = 322 < 435 pairs): each call bisects the staircase
        (_SAMPLED, 30),
        (_BRUTE, 30),
        (_PRIM, 30),
        (_PRIM_FORCED, 30),
        (_RESTART, 30),
        (budget_matrix, 30),
        (lambda m, topo: [*schedule.pair_tails(m, MIN, topo, str)], 30),
    ],
    ids=[
        "exhaustive", "exhaustive-additive", "sampled", "brute", "brute-max", "brute-additive",
        "prim", "prim-forced", "restart", "evaluate", "fidelity_sweep",
        "sampled-n30", "brute-n30", "prim-n30", "prim-forced-n30", "restart-n30", "budget_matrix-n30",
        "pair_tails-n30",
    ],
)
def test_leaves_no_reference_cycle(unit_staircase, call, size):
    topo = random_topology(random.Random(21), size)
    _assert_no_new_cycle(lambda: call(unit_staircase, topo))


def test_refused_search_leaves_no_reference_cycle(unit_staircase):
    """Both up-front refusals: the spanning descent's and the polled-set pass's."""
    for n_nodes, objective in [(2001, "minimize"), (EXHAUSTIVE_LIMIT + 1, "maximize")]:
        topo = random_topology(random.Random(21), n_nodes)

        def refused():
            try:
                optimize(unit_staircase, MIN, topo, objective=objective, strategy="brute_force")
            except InfeasibleError:
                return
            raise AssertionError("the search was not refused")

        _assert_no_new_cycle(refused)
