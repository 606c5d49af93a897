import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitgather import (
    ConditioningRule,
    GaussianDecayModel,
    Topology,
    TopologyError,
    fidelity_sweep,
    load_topology,
    optimize,
)

from conftest import oracle_nearest_links, random_topology


def test_three_four_five():
    topo = load_topology(["id,x,y", "0,0.0,0.0", "1,3.0,4.0"])
    assert topo.distance(0, 1) == 5.0
    assert topo.distance(1, 0) == 5.0


def test_single_node():
    topo = load_topology(["id,x,y", "0,1.0,1.0"])
    assert topo.size == 1
    assert topo.distances_from(0, range(topo.size)) == [0.0]


def test_ids_may_arrive_out_of_order():
    topo = load_topology(["id,x,y", "1,3,4", "0,0,0"])
    assert topo.positions[0] == (0.0, 0.0)
    assert topo.distance(0, 1) == 5.0


def test_duplicate_id_reports_line():
    with pytest.raises(TopologyError, match="line 3.*duplicate id 0"):
        load_topology(["id,x,y", "0,0,0", "0,1,1"])


def test_non_finite_coordinate_rejected():
    with pytest.raises(TopologyError, match="line 2"):
        load_topology(["id,x,y", "0,nan,0"])
    with pytest.raises(TopologyError, match="line 2"):
        load_topology(["id,x,y", "0,inf,0"])
    with pytest.raises(TopologyError, match=r"^non-finite coordinate for node 0$"):
        Topology.from_positions([(math.nan, 0.0)])


def test_empty_input_rejected():
    with pytest.raises(TopologyError, match="empty"):
        load_topology([])
    with pytest.raises(TopologyError, match="empty"):
        load_topology(["id,x,y"])
    with pytest.raises(TopologyError, match=r"^topology needs at least one node$"):
        Topology.from_positions([])


def test_bad_header_rejected():
    with pytest.raises(TopologyError, match="line 1"):
        load_topology(["x,y,id", "0,0,0"])


def test_non_dense_ids_rejected():
    with pytest.raises(TopologyError, match="dense"):
        load_topology(["id,x,y", "0,0,0", "2,1,1"])


def test_bad_field_count_reports_line():
    with pytest.raises(TopologyError, match="line 2"):
        load_topology(["id,x,y", "0,0"])


def test_index_out_of_range():
    topo = Topology.from_positions([(0, 0)])
    with pytest.raises(IndexError):
        topo.distance(0, 1)


def test_load_from_file(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("id,x,y\n0,0,0\n1,3,4\n")
    assert load_topology(path).distance(0, 1) == 5.0


def test_matrix_invariants_on_random_layouts():
    rng = random.Random(11)
    for _ in range(25):
        topo = random_topology(rng, rng.randint(1, 12))
        n = topo.size
        for i in range(n):
            assert topo.distance(i, i) == 0.0
            for j in range(n):
                assert topo.distance(i, j) == topo.distance(j, i)
                recomputed = math.dist(topo.positions[i], topo.positions[j])
                assert topo.distance(i, j) == pytest.approx(recomputed, rel=1e-12)


def test_coincident_nodes_allowed():
    topo = Topology.from_positions([(1.0, 1.0), (1.0, 1.0)])
    assert topo.distance(0, 1) == 0.0


def hypot_of(points, i, j):
    """The distance of i and j as the reference formula, i < j."""
    (xi, yi), (xj, yj) = points[min(i, j)], points[max(i, j)]
    return math.hypot(xi - xj, yi - yj)


# Few distinct points make coincident nodes; no span reaches 2**1023.
near_coordinates = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e307, 1e307), st.integers(-3, 3).map(float)
)
near_layouts = st.lists(st.tuples(near_coordinates, near_coordinates), min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=8)
)


@settings(max_examples=80, deadline=None)
@given(near_layouts, st.randoms(use_true_random=False))
def test_distances_on_demand_are_exact(points, rng):
    topo = Topology.from_positions(points)
    n = topo.size
    rows = [topo.distances_from(i, range(n)) for i in range(n)]
    for i in range(n):
        assert topo.distance(i, i) == rows[i][i] == 0.0
        for j in range(i + 1, n):
            d = hypot_of(points, i, j)
            assert topo.distance(i, j) == topo.distance(j, i) == d
            assert rows[i][j] == rows[j][i] == d
    order = list(range(n))
    rng.shuffle(order)
    expected = [min(((hypot_of(points, v, u), u) for u in order[:k]), default=(math.inf, -1))
                for k, v in enumerate(order)]
    assert topo.nearest_links(order) == expected
    assigned, plan = [0], []
    for v in sorted(range(1, n), key=lambda v: (hypot_of(points, 0, v), v)):
        d, u = min((hypot_of(points, v, u), u) for u in assigned)
        plan.append((v, u, d))
        assigned.append(v)
    assert topo.field_plan == tuple(plan)


# Integer grids tie many distances, so the lowest id decides; columns and rows
# put every node on one coordinate; uniform layouts are large enough to prune.
grid_points = st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=80).map(
    lambda cells: [(float(x), float(y)) for x, y in cells])
line_points = st.builds(
    lambda c, coords, column: [(c, v) if column else (v, c) for v in coords],
    near_coordinates,
    st.lists(st.one_of(st.integers(-5, 5).map(float), st.floats(-10, 10)), min_size=1, max_size=60),
    st.booleans(),
)
uniform_points = st.builds(
    lambda size, seed: [(r.uniform(0, 10), r.uniform(0, 10)) for r in [random.Random(seed)] for _ in range(size)],
    st.integers(50, 300),
    st.integers(0, 2**32),
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(near_layouts, grid_points, line_points, uniform_points), st.randoms(use_true_random=False))
def test_nearest_links_equal_the_quadratic_oracle(points, rng):
    topo = Topology.from_positions(points)
    order = list(range(topo.size))
    rng.shuffle(order)
    assert topo.nearest_links(order) == oracle_nearest_links(topo, order)


TOP = 1.7976931348623157e308
EDGE = [1e308, -1e308, 1.3e308, 1.7e308, -1.7e308, 2.0**1023, -(2.0**1023), 0.0, 1.0, -2.5]


def first_overflow(points):
    """The first pair in row-major order whose distance overflows, by a full scan."""
    n = len(points)
    return next(((i, j) for i in range(n) for j in range(i + 1, n)
                 if math.isinf(hypot_of(points, i, j))), None)


def check_refusal(points):
    pair = first_overflow(points)
    if pair is None:
        assert Topology.from_positions(points).size == len(points)
    else:
        with pytest.raises(TopologyError) as info:
            Topology.from_positions(points)
        assert str(info.value) == f"distance between nodes {pair[0]} and {pair[1]} overflows the float range"


@pytest.mark.parametrize(
    "points, overflows",
    [
        ([(0.0, 0.0), (1.7e308, 0.0)], False),  # x-span above 2**1023, no pair overflows
        ([(0.0, 0.0), (2.0**1023, 2.0**1023), (0.0, 2.0**1023)], False),  # both spans 2**1023
        ([(0.0, 0.0), (TOP, 0.0), (-1.0, 0.0)], False),  # TOP + 1 rounds to TOP
        ([(0.0, 0.0), (TOP, 0.0), (-1e308, 0.0)], True),
        ([(1.0, 0.0), (0.0, 1.7e308), (0.0, -1.7e308)], True),
        ([(0.0, -1e308), (1.7e308, 1e308)], True),  # each coordinate difference is finite
        ([(0.0, 0.0), (1.3e308, 1.3e308)], True),  # both spans below 1.5e308
    ],
)
def test_overflow_refusals_at_the_span_edge(points, overflows):
    assert (first_overflow(points) is not None) == overflows
    check_refusal(points)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(EDGE), st.sampled_from(EDGE)), min_size=1, max_size=6))
def test_overflow_refusals_match_a_full_scan(points):
    check_refusal(points)


def test_a_layout_and_its_runs_hold_linear_memory():
    # An N x N store at N = 1000 takes about 20 MB; fidelity_sweep runs evaluate
    rng = random.Random(0)
    points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(1000)]
    model = GaussianDecayModel(n=12, alpha=1.0, beta=0.5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        topo = Topology.from_positions(points)
        order, report = optimize(model, ConditioningRule.MIN, topo, "minimize", "greedy_prim")
        [row] = fidelity_sweep(model, ConditioningRule.MIN, topo, order, [1.0], [0])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert row[2] == report.total
    assert peak < 1_000_000
