import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitgather import (
    ConditioningRule,
    GaussianDecayModel,
    PowerLawModel,
    SensorField,
    Topology,
    evaluate,
    fidelity_sweep,
    gather,
    generate_field,
)
from bitgather.codec import Reading, decode, encode
from bitgather.simulator import _walk_references

from conftest import oracle_nearest_links, random_topology

MIN, MAX, ADD = ConditioningRule.MIN, ConditioningRule.MAX, ConditioningRule.ADDITIVE


class TestGenerateField:
    def test_zero_smoothness_is_constant(self, collinear3):
        field = generate_field(collinear3, 5, 0.0, seed=123)
        assert len(set(field.readings)) == 1

    @pytest.mark.parametrize("n, seed", [(5.0, 1), (5, 1.5)], ids=["float-n", "float-seed"])
    def test_width_and_seed_are_read_as_ints(self, collinear3, n, seed):
        with pytest.raises(TypeError, match=r"^'float' object cannot be interpreted as an integer$"):
            generate_field(collinear3, n, 1.0, seed)

    def test_deterministic(self, collinear3):
        a = generate_field(collinear3, 8, 1.5, seed=99)
        b = generate_field(collinear3, 8, 1.5, seed=99)
        assert a == b
        c = generate_field(collinear3, 8, 1.5, seed=100)
        assert a != c  # not a guarantee in general, but holds for this seed

    def test_two_node_delta_bound(self):
        topo = Topology.from_positions([(0.0, 0.0), (3.0, 0.0)])
        top = (1 << 5) - 1
        for seed in range(1000):
            field = generate_field(topo, 5, 1.0, seed)
            r0, r1 = field.readings
            assert all(0 <= r <= top for r in field.readings)
            clipped = r1 in (0, top)
            assert abs(r0 - r1) <= 3 or clipped

    def test_readings_in_range(self):
        rng = random.Random(31)
        for _ in range(50):
            topo = random_topology(rng, rng.randint(1, 10))
            n = rng.randint(1, 10)
            field = generate_field(topo, n, rng.uniform(0, 5), seed=rng.randint(0, 999))
            assert all(0 <= r < (1 << n) for r in field.readings)

    def test_negative_smoothness_rejected(self, collinear3):
        with pytest.raises(ValueError):
            generate_field(collinear3, 5, -1.0, seed=0)


class TestGather:
    def test_single_node_exact(self, unit_staircase):
        topo = Topology.from_positions([(0.0, 0.0)])
        field = generate_field(topo, 5, 2.0, seed=1)
        result = gather(unit_staircase, MIN, topo, [0], field)
        assert result.bit_report.total == 5
        assert result.exact_count == 1
        assert result.max_abs_error == 0

    def test_constant_field_reconstructs_exactly(self, collinear3):
        m = GaussianDecayModel(n=5, alpha=1.0, beta=1.0)
        field = generate_field(collinear3, 5, 0.0, seed=5)
        for rule in (MIN, MAX, ADD):
            result = gather(m, rule, collinear3, [0, 1, 2], field)
            assert result.exact_count == 3
            assert result.reconstructed == field.readings

    def test_collinear_tie_break_regression(self, collinear3, unit_staircase):
        # budgets (5, 1, 1); node 1 decodes payload 1 against reference 12,
        # ties 11 vs 13 break low, and the error propagates to node 2
        field = SensorField(readings=(12, 13, 14), width=5, smoothness=0.0, seed=0)
        result = gather(unit_staircase, MIN, collinear3, [0, 1, 2], field)
        assert [b for _, b in result.bit_report.per_node] == [5, 1, 1]
        assert result.reconstructed == (12, 11, 10)
        assert result.exact_count == 1
        assert result.max_abs_error == 4

    def test_budgets_are_data_independent(self):
        rng = random.Random(41)
        for _ in range(30):
            topo = random_topology(rng, rng.randint(2, 7))
            m = GaussianDecayModel(n=6, alpha=0.9, beta=0.7)
            rule = rng.choice([MIN, MAX, ADD])
            order = list(range(topo.size))
            rng.shuffle(order)
            field = generate_field(topo, 6, rng.uniform(0, 3), seed=rng.randint(0, 99))
            result = gather(m, rule, topo, order, field)
            assert result.bit_report == evaluate(m, rule, topo, order)

    def test_first_node_always_exact(self):
        rng = random.Random(42)
        for _ in range(30):
            topo = random_topology(rng, rng.randint(2, 7))
            m = PowerLawModel(n=5, alpha=1.0, beta=1.0)
            order = list(range(topo.size))
            rng.shuffle(order)
            field = generate_field(topo, 5, 4.0, seed=rng.randint(0, 99))
            result = gather(m, MIN, topo, order, field)
            first = order[0]
            assert result.reconstructed[first] == field.readings[first]

    def test_size_mismatch_rejected(self, collinear3, unit_staircase):
        field = SensorField(readings=(1, 2), width=5, smoothness=0.0, seed=0)
        with pytest.raises(ValueError, match="readings"):
            gather(unit_staircase, MIN, collinear3, [0, 1, 2], field)

    def test_width_mismatch_rejected(self, collinear3, unit_staircase):
        field = SensorField(readings=(1, 2, 3), width=4, smoothness=0.0, seed=0)
        with pytest.raises(ValueError, match="width"):
            gather(unit_staircase, MIN, collinear3, [0, 1, 2], field)

    @pytest.mark.parametrize("bad", [99, -3, 32])
    @pytest.mark.parametrize("size, at", [(1, 0), (3, 0), (3, 1)])
    def test_out_of_range_reading_rejected(self, unit_staircase, size, at, bad):
        # at N=1 no node decodes against the bad reading; at N=3 it is the
        # first or the middle node polled
        topo = Topology.from_positions([(float(x), 0.0) for x in range(size)])
        readings = [1] * size
        readings[at] = bad
        field = SensorField(readings=tuple(readings), width=5, smoothness=0.0, seed=0)
        with pytest.raises(ValueError, match=rf"^value {bad} out of range for 5 bits$"):
            gather(unit_staircase, MIN, topo, list(range(size)), field)

    def test_non_integer_reading_rejected(self, unit_staircase):
        # 1.5 is in range, but & on it fails; gather refuses it before the walk
        topo = Topology.from_positions([(0.0, 0.0), (9.0, 0.0)])
        field = SensorField(readings=(1.5, 2), width=5, smoothness=0.0, seed=0)
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            gather(unit_staircase, MIN, topo, [0, 1], field)

    def test_readings_at_the_range_ends_accepted(self, unit_staircase):
        topo = Topology.from_positions([(0.0, 0.0), (9.0, 0.0)])  # 9 apart: the second node sends all 5 bits
        field = SensorField(readings=(0, 31), width=5, smoothness=0.0, seed=0)
        assert gather(unit_staircase, MIN, topo, [0, 1], field).reconstructed == (0, 31)


class TestFidelitySweep:
    def test_zero_smoothness_rows_are_exact(self, collinear3):
        m = GaussianDecayModel(n=5, alpha=1.0, beta=1.0)
        rows = fidelity_sweep(m, MIN, collinear3, [0, 1, 2], [0.0], [1, 2, 3])
        for _, _, _, exact, err in rows:
            assert exact == 3
            assert err == 0

    def test_duplicate_rows_identical(self, collinear3):
        m = GaussianDecayModel(n=5, alpha=1.0, beta=1.0)
        a = fidelity_sweep(m, MIN, collinear3, [0, 1, 2], [0.5, 1.0], [7])
        b = fidelity_sweep(m, MIN, collinear3, [0, 1, 2], [0.5, 1.0], [7])
        assert a == b

    def test_total_bits_monotone_in_decay_rate(self):
        # with alpha <= 1 every pairwise budget grows with beta, so a fixed
        # schedule's total grows too
        rng = random.Random(43)
        topo = random_topology(rng, 6)
        order = list(range(6))
        totals = []
        for beta in (0.1, 1.0, 10.0):
            m = GaussianDecayModel(n=5, alpha=1.0, beta=beta)
            rows = fidelity_sweep(m, MIN, topo, order, [1.0], [11])
            totals.append(rows[0][2])
        assert totals == sorted(totals)

    def test_empty_sweep_rejected(self, collinear3):
        m = GaussianDecayModel(n=5, alpha=1.0, beta=1.0)
        with pytest.raises(ValueError):
            fidelity_sweep(m, MIN, collinear3, [0, 1, 2], [], [1])
        with pytest.raises(ValueError):
            fidelity_sweep(m, MIN, collinear3, [0, 1, 2], [1.0], [])


# A 4 x 4 grid: coincident nodes and equal distances, so ties decide references.
grid_layouts = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=10)
walk_models = st.sampled_from([
    (PowerLawModel(n=5, alpha=1.0, beta=1.0), MIN),
    (PowerLawModel(n=5, alpha=1.0, beta=1.0), MAX),
    (GaussianDecayModel(n=6, alpha=0.9, beta=0.7), MIN),
    (GaussianDecayModel(n=6, alpha=0.9, beta=0.7), MAX),
    (GaussianDecayModel(n=6, alpha=0.9, beta=0.7), ADD),
    (GaussianDecayModel(n=64, alpha=0.9, beta=0.7), MIN),  # masks wider than a machine word
])


@settings(max_examples=80, deadline=None)
@given(grid_layouts, walk_models, st.randoms(use_true_random=False), st.integers(0, 10**6))
def test_one_walk_gives_the_report_and_the_nearest_references(points, model_rule, rng, seed):
    """The walk's report is evaluate's, its references are the quadratic
    oracle's nearest links, and gather decodes each field as the sweep's
    matching row reports it."""
    model, rule = model_rule
    topo = Topology.from_positions(points)
    order = list(range(topo.size))
    rng.shuffle(order)
    report, refs = _walk_references(model, rule, topo, order)
    assert report == evaluate(model, rule, topo, order)
    links = oracle_nearest_links(topo, order)
    assert refs == [u for _, u in links]
    smoothness, seeds = [0.0, 1.5], [seed, seed + 1]
    rows = iter(fidelity_sweep(model, rule, topo, order, smoothness, seeds))
    for L in smoothness:
        for s in seeds:
            field = generate_field(topo, model.n, L, s)
            result = gather(model, rule, topo, order, field)
            recon = list(field.readings)  # oracle: decode against the oracle's links
            for (v, bits), (_, u) in zip(report.per_node[1:], links[1:]):
                sent = encode(Reading(field.readings[v], model.n), bits)
                recon[v] = decode(Reading(recon[u], model.n), sent).value
            assert result.bit_report == report
            assert result.reconstructed == tuple(recon)
            assert next(rows) == (L, s, report.total, result.exact_count, result.max_abs_error)


def test_distance_counts_of_row_walks_and_sorted_sweeps(monkeypatch):
    """ADDITIVE, and MAX with beta > 0 (the farthest partner), walk a row of
    distances per node: N(N-1)/2 in all. Under MIN with beta > 0 the nearest
    partner sets each budget, so the sweep's walk, references and field plan
    read sorted sweeps instead: fewer than N**2/8 distances on a uniform
    layout and on an axis-aligned column, where the old rows made N**2."""
    calls = []

    def counted(p, q):
        calls.append(None)
        return math.dist(p, q)

    monkeypatch.setattr("bitgather.topology.dist", counted)
    model = GaussianDecayModel(n=12, alpha=0.9, beta=0.3)
    topo, order = random_topology(random.Random(35), 30), random.Random(36).sample(range(30), 30)
    for rule in (ADD, MAX):
        calls.clear()
        evaluate(model, rule, topo, order)
        assert len(calls) == 30 * 29 // 2
    rng = random.Random(37)
    uniform = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(400)]
    column = [(1.0, rng.uniform(0, 10)) for _ in range(400)]
    for points in (uniform, column):
        calls.clear()
        order = rng.sample(range(400), 400)
        fidelity_sweep(model, MIN, Topology.from_positions(points), order, [1.0, 2.0], [0, 1])
        assert len(calls) < 400 * 400 // 8
