import gc
import itertools
import math
import random
import sys
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

from conftest import oracle_nearest_links, random_topology, reference_load_topology


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


@pytest.mark.parametrize(
    "lines, error",
    [
        (["id,x,y", "", "0,a,0"], "line 3: non-numeric coordinate"),
        (["", " ", "x,y,id"], "line 3: expected header id,x,y, got 'x,y,id'"),
        (["id,x,y", "0,0,0", "", "\t", "0,1,1"], "line 5: duplicate id 0"),
    ],
)
def test_errors_name_the_line_with_blank_lines_counted(tmp_path, lines, error):
    path = tmp_path / "nodes.csv"
    path.write_text("\n".join(lines) + "\n")
    for source in (path, lines):
        with pytest.raises(TopologyError) as info:
            load_topology(source)
        assert str(info.value) == error


# Every str.splitlines line break; "\r" then a blank line's "\n" is one CRLF.
SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
blank_lines = st.sampled_from(["", " ", "\t", " \t  "])
odd_ids = st.sampled_from(["-1", "-0", "+1", " 2 ", "1.5", "\t1e3 ", " a", "", "0_1", "99999999999999999999", "\u0663"])
finite_cells = st.one_of(st.floats(-1e3, 1e3), st.floats(allow_nan=False, allow_infinity=False)).map(repr)
odd_cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "-inf", "1e999", " 2.5 ", "1_0.5", "0x1p3", "abc", "", "-0"]),
)


@st.composite
def placement_lines(draw):
    """A placement's lines: a header and records whose ids are a permutation
    of 0..N-1, with blank lines anywhere. A messy one also has, at times,
    odd, negative, huge and repeated ids, non-numeric and non-finite
    coordinates, wrong field counts, and a missing or bad header."""
    messy = draw(st.booleans())

    def odd() -> bool:
        return messy and draw(st.integers(0, 7)) == 0

    ids = [*map(str, draw(st.permutations(range(draw(st.integers(0, 8))))))]
    for k in range(len(ids)):
        if odd():
            ids[k] = draw(st.one_of(odd_ids, st.sampled_from(ids)))
    lines = [draw(st.sampled_from(["x,y,id", "id,x", "id;x;y", ""])) if odd() else
             draw(st.sampled_from(["id,x,y", " id , x ,y\t"]))]
    for node in ids:
        record = [node, *(draw(odd_cells if odd() else finite_cells) for _ in "xy")]
        if odd():
            record = record[: draw(st.integers(0, 2))] if draw(st.booleans()) else [*record, "0"]
        lines.append(",".join(record))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(blank_lines))
    return lines


def loaded(load, source) -> str:
    """What load makes of source: the exact positions, or the error's message."""
    try:
        return repr(load(source).positions)
    except TopologyError as exc:
        return f"TopologyError: {exc}"


@settings(max_examples=300, deadline=None)
@given(placement_lines(), st.data())
def test_loading_a_file_matches_the_reference(tmp_path_factory, lines, data):
    """Joined by any line boundary, at times with a byte that is not UTF-8,
    as a str or a Path."""
    raw = "".join(line + data.draw(st.sampled_from(SEPARATORS)) for line in lines).encode()
    if data.draw(st.integers(0, 9)) == 0:
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + b"\xff" + raw[at:]
    path = tmp_path_factory.getbasetemp() / "reference.csv"
    path.write_bytes(raw)
    source = data.draw(st.sampled_from([path, str(path)]))
    assert loaded(load_topology, source) == loaded(reference_load_topology, source)


@settings(max_examples=300, deadline=None)
@given(placement_lines(), st.data())
def test_loading_lines_matches_the_reference(lines, data):
    """An iterable's items, each with or without line ends, numbered by index."""
    items = [line + data.draw(st.sampled_from(["", "\n", "\n\n", "\r\n", "\x0c", "\u2028"])) for line in lines]
    assert loaded(load_topology, iter(items)) == loaded(reference_load_topology, items)


def test_loading_holds_under_twice_the_topology(tmp_path):
    """The loader's tracemalloc peak on a 2000-node file stays under twice
    the bytes of the Topology it returns: its tuple of pairs, each pair and
    each float. A ratio holds across Python versions; a byte count does not."""
    rng = random.Random(5)
    path = tmp_path / "n2000.csv"
    path.write_text("id,x,y\n" + "".join(f"{i},{rng.uniform(0, 10)!r},{rng.uniform(0, 10)!r}\n" for i in range(2000)))
    load_topology(path)
    gc.collect()  # a full collection empties the free lists, so the call's every block is traced
    tracemalloc.start()
    try:
        topo = load_topology(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = sys.getsizeof(topo.positions) + sum(sys.getsizeof(p) + sys.getsizeof(p[0]) + sys.getsizeof(p[1])
                                               for p in topo.positions)
    assert peak < 2 * held


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
        assert Topology(positions=tuple(points)).size == len(points)
    else:
        with pytest.raises(TopologyError) as info:
            Topology.from_positions(points)
        assert str(info.value) == f"distance between nodes {pair[0]} and {pair[1]} overflows the float range"
        with pytest.raises(TopologyError) as built:
            Topology(positions=tuple(points))
        assert str(built.value) == str(info.value)


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


def guard_oracle(points):
    """The message Topology(positions=...) must raise on points, or None:
    the first non-finite coordinate's node, else the first pair in row order
    whose math.dist is inf."""
    for i, p in enumerate(points):
        if not all(map(math.isfinite, p)):
            return f"non-finite coordinate for node {i}"
    for i, j in itertools.combinations(range(len(points)), 2):
        if math.isinf(math.dist(points[i], points[j])):
            return f"distance between nodes {i} and {j} overflows the float range"
    return None


# Small values, values about the guard's 2**1022 and the spans a distance
# overflows at, the largest float, NaN, +-inf, and ints, each sign.
guard_coordinates = st.one_of(
    st.floats(-10, 10),
    st.sampled_from([2.0**1021, 2.0**1022, 2.0**1023, TOP]).flatmap(
        lambda e: st.sampled_from([e, math.nextafter(e, 0), math.nextafter(e, math.inf)]) | st.floats(e / 2, TOP)),
    st.sampled_from([math.nan, math.inf]),
    st.integers(-3, 3) | st.sampled_from([2**1021, 2**1022, 2**1023]),
).flatmap(lambda v: st.sampled_from([v, -v]))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(guard_coordinates, guard_coordinates), min_size=1, max_size=7))
def test_the_coordinate_guard_matches_an_oracle(points):
    """Built through the constructor: a layout the oracle passes builds,
    hashes, and equals from_positions of its list; any other raises the
    oracle's message."""
    fault = guard_oracle(points)
    if fault is None:
        topo, listed = Topology(positions=tuple(points)), Topology.from_positions(points)
        assert topo == listed and hash(topo) == hash(listed)
        return
    with pytest.raises(TopologyError) as info:
        Topology(positions=tuple(points))
    assert str(info.value) == fault


@pytest.mark.parametrize("coordinate, error", [(1 + 2j, TypeError), ("1.0", TypeError), (10**400, OverflowError)])
def test_a_coordinate_that_reads_as_no_float_is_refused(coordinate, error):
    """Each coordinate is read as a float: a complex one, whose abs is real, is refused all the same."""
    with pytest.raises(error):
        Topology(positions=((0.0, 0.0), (coordinate, 0.0)))


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
