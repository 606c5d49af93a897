"""Per-pair fast paths against their literal definitions.

Each model's budget method is checked against the formulas written out here, the
half-matrix topology against hypot on every ordered pair, the cached field
plan against the generator that searched the assigned set for every node,
and `bits` and budget_matrix against a double loop over pairwise_bits, 0 on
the diagonal; their cell grid also against the step-table rows, with its
work counted, and Topology.grid's certificate pair by pair.
"""

import contextlib
import io
import itertools
import math
import pickle
import random
import struct
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bitgather import (
    BitReport,
    Codeword,
    ConditioningRule,
    GatherResult,
    GaussianDecayModel,
    PowerLawModel,
    Reading,
    ScheduleStats,
    SensorField,
    Topology,
    TopologyError,
    budget_matrix,
    correctness_radius,
    decode,
    encode,
    generate_field,
    pairwise_bits,
)
import bitgather.topology
from bitgather import schedule
from bitgather.cli import main
from bitgather.correlation import budget_steps, sum_steps
from bitgather.schedule import pair_tails

SETTINGS = settings(max_examples=50, deadline=None)
MAX_FLOAT = 1.7976931348623157e308
EXTREMES = [0.0, 5e-324, 2.2e-308, 1e-160, 1.0, 1e160, 1e308, MAX_FLOAT]


def outcome(fn, *args):
    """A call's result, or its exception's type and message."""
    try:
        return fn(*args)
    except Exception as exc:  # the comparison covers what is raised
        return type(exc), str(exc)


def oracle_budget(model, d):
    """The two budget formulas, written out: clamp to [0, n] the snapped
    ceiling of alpha * ceil(d**beta) or of n * (1 - alpha * exp(-beta d^2)),
    where a power or an exp that overflows counts as +inf."""
    if math.isnan(d) or math.isinf(d):
        raise ValueError(f"distance must be finite, got {d!r}")
    if d < 0:
        raise ValueError(f"distance must be non-negative, got {d!r}")

    def snapped_ceil(x):
        return round(x) if abs(x - round(x)) <= 1e-9 else math.ceil(x)

    if isinstance(model, PowerLawModel):
        if d == 0 and model.beta < 0:
            raise ValueError("d = 0 with negative exponent is singular")
        try:
            raw = model.alpha * snapped_ceil(d**model.beta)
        except OverflowError:
            raw = math.inf
    else:
        try:
            s = math.exp(-model.beta * d * d)
        except OverflowError:
            s = math.inf
        raw = model.n * (1 - model.alpha * s)
    if math.isinf(raw):
        return model.n if raw > 0 else 0
    return min(model.n, max(0, snapped_ceil(raw)))


def signed(values):
    return st.sampled_from([v for x in values for v in (x, -x)])


@st.composite
def models(draw):
    cls = draw(st.sampled_from([PowerLawModel, GaussianDecayModel]))
    n = draw(st.one_of(st.integers(1, 64), st.sampled_from([10**9, 2**53])))
    alpha = draw(st.one_of(st.sampled_from(EXTREMES[1:]), st.floats(5e-324, MAX_FLOAT)))
    beta = draw(st.one_of(signed(EXTREMES), st.floats(-MAX_FLOAT, MAX_FLOAT)))
    return cls(n=n, alpha=alpha, beta=beta)


SPECIAL_DISTANCES = [v for x in EXTREMES + [math.inf] for v in (x, -x)] + [math.nan]


@SETTINGS
@given(models(), st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.floats(0.0, 20.0)))
def test_budget_closure_matches_the_formula(model, drawn):
    for d in SPECIAL_DISTANCES + [drawn]:
        expected = outcome(oracle_budget, model, d)
        assert outcome(model.budget, d) == expected
        assert outcome(pairwise_bits, model, d) == expected


def _gauss_at(n, raw):
    """A Gaussian model whose budget at d = 0 (or any d, beta = 0) rounds `raw`."""
    return GaussianDecayModel(n=n, alpha=1.0 - raw / n, beta=0.0)


# (model, d, budget) at the rounding edges. Both budgets round through
# clamped_ceil's snap-then-ceil rule, power-law twice: on d**beta and on alpha times it.
ROUNDING_EDGES = [
    # d**beta within CEIL_SNAP of 3, above and below, snaps to 3; 2e-9 away does not
    (PowerLawModel(n=64, alpha=1.0, beta=1.0), 3 + 5e-10, 3),
    (PowerLawModel(n=64, alpha=1.0, beta=1.0), 3 - 5e-10, 3),
    (PowerLawModel(n=64, alpha=1.0, beta=1.0), 3 + 2e-9, 4),
    (PowerLawModel(n=64, alpha=1.0, beta=1.0), 3 - 2e-9, 3),
    (PowerLawModel(n=64, alpha=1.0, beta=0.5), 9 + 2e-9, 3),  # sqrt moves 2e-9 under the snap
    # alpha * 1 just off 1: the second rounding
    (PowerLawModel(n=64, alpha=1 + 5e-10, beta=1.0), 1.0, 1),
    (PowerLawModel(n=64, alpha=1 - 5e-10, beta=1.0), 1.0, 1),
    (PowerLawModel(n=64, alpha=1 + 2e-9, beta=1.0), 1.0, 2),
    (PowerLawModel(n=64, alpha=1 - 2e-9, beta=1.0), 1.0, 1),
    # d**beta overflows: +inf, so n
    (PowerLawModel(n=64, alpha=1.0, beta=40.0), 1e10, 64),
    (PowerLawModel(n=64, alpha=1e-300, beta=2.0), 1e308, 64),
    # n * (1 - alpha) just off 5
    (_gauss_at(8, 5 + 5e-10), 0.0, 5),
    (_gauss_at(8, 5 - 5e-10), 0.0, 5),
    (_gauss_at(8, 5 + 2e-9), 0.0, 6),
    (_gauss_at(8, 5 - 2e-9), 2.0, 5),
    # exp overflows (beta < 0): the term is +inf, so 0
    (GaussianDecayModel(n=8, alpha=1e-300, beta=-1.0), 100.0, 0),
]


@pytest.mark.parametrize("model, d, bits", ROUNDING_EDGES)
def test_budget_closure_at_the_rounding_edges(model, d, bits):
    assert oracle_budget(model, d) == model.budget(d) == pairwise_bits(model, d) == bits


# (type, fields in order, one field changed, repr): each repr is the text the
# type printed as a frozen dataclass
VALUE_TYPES = [
    (Reading, {"value": 5, "width": 4}, {"value": 6}, "Reading(value=5, width=4)"),
    (Codeword, {"payload": 3, "bits": 2}, {"bits": 3}, "Codeword(payload=3, bits=2)"),
    (PowerLawModel, {"n": 5, "alpha": 1.0, "beta": 1.0}, {"beta": 2.0}, "PowerLawModel(n=5, alpha=1.0, beta=1.0)"),
    (GaussianDecayModel, {"n": 7, "alpha": 1.0, "beta": 0.5}, {"n": 8},
     "GaussianDecayModel(n=7, alpha=1.0, beta=0.5)"),
    (Topology, {"positions": ((0.0, 0.0), (3.0, 4.0))}, {"positions": ((0.0, 0.0),)},
     "Topology(positions=((0.0, 0.0), (3.0, 4.0)))"),
    (BitReport, {"per_node": ((0, 5), (1, 3)), "total": 8}, {"total": 9},
     "BitReport(per_node=((0, 5), (1, 3)), total=8)"),
    (ScheduleStats,
     {"mean_total": 7.5, "min_total": 6, "max_total": 9, "argmin": (0, 1), "argmax": (1, 0),
      "sample_count": 2, "exhaustive": True},
     {"exhaustive": False},
     "ScheduleStats(mean_total=7.5, min_total=6, max_total=9, argmin=(0, 1), argmax=(1, 0), "
     "sample_count=2, exhaustive=True)"),
    (SensorField, {"readings": (1, 2), "width": 4, "smoothness": 0.5, "seed": 7}, {"seed": 8},
     "SensorField(readings=(1, 2), width=4, smoothness=0.5, seed=7)"),
    (GatherResult,
     {"bit_report": BitReport(((0, 5), (1, 3)), 8), "reconstructed": (1, 2), "exact_count": 2, "max_abs_error": 0},
     {"max_abs_error": 1},
     "GatherResult(bit_report=BitReport(per_node=((0, 5), (1, 3)), total=8), reconstructed=(1, 2), "
     "exact_count=2, max_abs_error=0)"),
]


def test_value_types_keep_their_semantics():
    """Each of the nine value types is built by keyword or by position,
    compares and hashes by value, prints its fields, refuses assignment and
    survives a pickle round trip; a model's copy rebuilds its closure."""
    for cls, fields, changed, shown in VALUE_TYPES:
        value = cls(**fields)
        assert cls(*fields.values()) == value and hash(cls(*fields.values())) == hash(value)
        assert value != cls(**{**fields, **changed}) and not value == cls(**{**fields, **changed})
        assert repr(value) == shown
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(value, name, fields[name])
        copy = pickle.loads(pickle.dumps(value))
        assert (type(copy), copy, repr(copy)) == (cls, value, shown)
        if cls in (PowerLawModel, GaussianDecayModel):
            assert [copy.budget(d) for d in (0.5, 2.0, 9.0)] == [value.budget(d) for d in (0.5, 2.0, 9.0)]
    assert PowerLawModel(5, 1.0, 1.0) != GaussianDecayModel(5, 1.0, 1.0)  # equal fields, other type


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Reading(16, 4), "value 16 out of range for 4 bits"),
        (lambda: Reading(value=0, width=0), "width must be >= 1"),
        (lambda: Codeword(4, 2), "payload 4 out of range for 2 bits"),
        (lambda: Codeword(payload=0, bits=-1), "bits must be >= 0"),
        (lambda: PowerLawModel(0, 1.0, 1.0), "n must be >= 1"),
        (lambda: GaussianDecayModel(2**53 + 1, 1.0, 1.0), "n must be at most 2**53"),
        (lambda: PowerLawModel(n=5, alpha=math.nan, beta=1.0), "alpha1 must be finite, got nan"),
        (lambda: GaussianDecayModel(n=5, alpha=1.0, beta=math.inf), "beta2 must be finite, got inf"),
        (lambda: PowerLawModel(5, -1.0, 1.0), "alpha1 must be positive"),
        (lambda: GaussianDecayModel(5, 0.0, 1.0), "alpha2 must be positive"),
    ],
)
def test_value_types_keep_their_validation_messages(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: encode(Reading(1, 4), -1), "budget must be >= 0"),
        (lambda: decode(Reading(1, 4), Codeword(0, 5)), "codeword bits 5 exceed reference width 4"),
        (lambda: correctness_radius(-1), "bits must be >= 0"),
        (lambda: generate_field(Topology.from_positions([(0.0, 0.0)]), 0, 1.0, 0), "n must be >= 1"),
    ],
)
def test_functions_keep_their_validation_messages(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def _bits(d):
    return struct.unpack("Q", struct.pack("d", d))[0]


def _float(bits):
    return struct.unpack("d", struct.pack("Q", bits))[0]


@st.composite
def table_models(draw):
    """Both families with beta below, at and above 0."""
    cls = draw(st.sampled_from([PowerLawModel, GaussianDecayModel]))
    beta = draw(st.one_of(st.just(0.0), st.floats(-9.0, -1e-300), st.floats(1e-300, 9.0)))
    return cls(n=draw(st.integers(1, 64)), alpha=draw(st.floats(0.05, 3.0)), beta=beta)


@settings(max_examples=40, deadline=None)
@given(table_models(), st.lists(st.floats(0.0, MAX_FLOAT), max_size=40), st.booleans())
def test_step_table_matches_the_closure(model, drawn, zero):
    """budget_steps reads model.budget off its table at every step, at the 300
    floats on each side of it, at the range's ends and at random distances.
    It makes at most 64n + 2 calls, and from 0 it raises where budget(0) is
    singular."""
    calls, budget = [], model.budget
    vars(model)["budget"] = lambda d: calls.append(d) or budget(d)
    singular = isinstance(model, PowerLawModel) and model.beta < 0
    if zero and singular:
        with pytest.raises(ValueError, match="d = 0 with negative exponent is singular"):
            budget_steps(model, True, math.inf)
        return
    steps, vals = budget_steps(model, zero, math.inf)
    assert len(calls) <= 64 * model.n + 2
    assert len(calls) <= 63 * len(steps) + 2  # the per-step bound the 64n + 2 gate rests on
    assert len(vals) == len(steps) + 1 and steps == sorted(steps)
    assert not steps or steps[0] >= 5e-324
    lo, top = (0 if zero else 1), _bits(MAX_FLOAT)
    near = {b for s in steps for b in range(max(lo, _bits(s) - 300), min(top, _bits(s) + 300) + 1)}
    ends = {*range(lo, lo + 300), *range(top - 300, top + 1)}
    for d in [*map(_float, near | ends), *(d for d in drawn if d > 0 or zero)]:
        assert vals[bisect_right(steps, d)] == budget(d), d


def test_step_tables_take_few_calls_a_step():
    """Seeded from each model's closed-form inverse, budget_steps makes at
    most 10 budget calls a step, its two end calls included, over a grid of
    the models test_step_table_matches_the_closure draws: both families, n
    from 1 to 64, alpha from 0.05 to 3 and beta of either sign from 1e-5 to
    9. The benchmark's field and search models take at most 4 a step. One
    model alone may take more: a single step just past d = 0, where exp(-beta
    * d * d) is near 1, costs about bisection's 63 calls."""
    def counted(model):
        calls, budget = [], model.budget
        vars(model)["budget"] = lambda d: calls.append(d) or budget(d)
        return calls, budget_steps(model, False, math.inf)[0]

    calls = steps = 0
    for cls, n, alpha, beta in itertools.product(
        [PowerLawModel, GaussianDecayModel], [1, 2, 5, 12, 64], [0.05, 0.5, 1.0, 1.5, 3.0],
        [-9.0, -1.0, -0.05, -1e-5, 1e-5, 0.05, 0.5, 1.0, 9.0],
    ):
        made, table = counted(cls(n, alpha, beta))
        calls, steps = calls + len(made), steps + len(table)
    assert calls <= 10 * steps
    for model in (GaussianDecayModel(12, 1.0, 0.5), PowerLawModel(8, 1.0, 1.0)):
        made, table = counted(model)
        assert len(made) <= 4 * len(table)


@pytest.mark.parametrize("n", [1, 2, 8, 12, 1000])
@pytest.mark.parametrize("alpha", [5e-324, 1e-300, 0.3, 1.0, 2.5, 1e308])
def test_sum_staircase_matches_bisection(n, alpha):
    """sum_steps against plain bisection of decay_bits over every float bit
    pattern from 0.0 to inf, the pattern after the largest float: each step's
    first pattern, once per bit the budget drops there. Below alpha of about
    5.6e-309 a sum of the largest float leaves bits over, so the staircase
    ends at inf."""
    model = GaussianDecayModel(n, alpha, 1.0)
    bits, want = model.decay_bits, []

    def split(a, va, b, vb):  # va = bits at pattern a > bits at pattern b = vb
        if b - a == 1:
            want.extend([_float(b)] * (va - vb))
            return
        m = (a + b) // 2
        vm = bits(_float(m))
        if vm != va:
            split(a, va, m, vm)
        if vm != vb:
            split(m, vm, b, vb)

    split(0, n, _bits(math.inf), 0)
    assert sum_steps(model) == want
    assert (want[-1] == math.inf) == (bits(MAX_FLOAT) > 0) == (alpha < 1e-300)


@pytest.mark.parametrize("n", [1, 2, 8, 12, 1000])
@pytest.mark.parametrize("alpha", [5e-324, 1e-300, 0.3, 1.0, 2.5, 1e308])
def test_sum_staircase_takes_few_calls_a_step(n, alpha):
    """sum_steps makes at most 4 decay_bits calls per distinct step: its seed,
    clamped into the bracket, lands next to each step, and no call repeats."""
    model = GaussianDecayModel(n, alpha, 1.0)
    calls, bits = [], model.decay_bits
    vars(model)["decay_bits"] = lambda s: calls.append(s) or bits(s)
    steps = sum_steps(model)
    assert len(calls) == len(set(calls)) <= 4 * len(set(steps))


# Few distinct points make duplicates; the extremes make overflowing pairs.
coordinates = st.one_of(st.integers(-3, 3).map(float), signed([1e308, MAX_FLOAT]), st.floats(-1e6, 1e6))
layouts = st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=6).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=8)
)


@SETTINGS
@given(layouts)
def test_from_positions_is_exactly_symmetric(points):
    pairs = [(i, j) for i in range(len(points)) for j in range(i + 1, len(points))]
    hypot = {
        (i, j): math.hypot(points[i][0] - points[j][0], points[i][1] - points[j][1])
        for i in range(len(points))
        for j in range(len(points))
    }
    overflowing = [(i, j) for i, j in pairs if math.isinf(hypot[i, j])]
    if overflowing:
        i, j = overflowing[0]
        with pytest.raises(TopologyError, match=f"nodes {i} and {j} overflows"):
            Topology.from_positions(points)
        return
    topo = Topology.from_positions(points)
    for (i, j), d in hypot.items():
        assert topo.distance(i, j) == d
        assert math.copysign(1.0, topo.distance(i, j)) == math.copysign(1.0, d)


def oracle_plan(topology):
    """(v, nearest, d) as the field generator found them: assign in
    increasing distance from node 0, each node searching the assigned set."""
    rest = sorted(range(1, topology.size), key=lambda v: (topology.distance(0, v), v))
    assigned, plan = [0], []
    for v in rest:
        nearest = min(assigned, key=lambda u: (topology.distance(v, u), u))
        plan.append((v, nearest, topology.distance(v, nearest)))
        assigned.append(v)
    return tuple(plan)


def oracle_field(topology, n, smoothness, seed):
    """The field generator's draws along the oracle plan."""
    rng = random.Random(seed)
    top = (1 << n) - 1
    readings = [None] * topology.size
    readings[0] = rng.randint(0, top)
    for v, nearest, d in oracle_plan(topology):
        reach = smoothness * d
        if reach == math.inf:
            raise ValueError(f"smoothness {smoothness!r} overflows the field spread")
        spread = math.ceil(reach)
        readings[v] = max(0, min(readings[nearest] + rng.randint(-spread, spread), top))
    return tuple(readings)


grid = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=12)


_FIELD_GRID = [(0, 0), (1, 0), (3, 2), (2, 3), (0, 3), (3, 3)]


@SETTINGS
# one-word and multi-word getrandbits draws: node 0 draws n + 1 bits, two
# 32-bit words at n = 32 and 33 and three at 64; later nodes draw a few bits,
# one word, except at smoothness 1e12, where each spread is above 2**32
@example(_FIELD_GRID, 32, 1.5, 7)
@example(_FIELD_GRID, 33, 2.5, 8)
@example(_FIELD_GRID, 64, 3.0, 9)
@example(_FIELD_GRID, 64, 1e12, 10)
@example(_FIELD_GRID, 33, 1e12, 11)
@given(
    grid,
    st.integers(1, 16),
    st.one_of(st.floats(0.0, 8.0), st.sampled_from([0.0, 1e307, 1e308])),
    st.integers(0, 10**6),
)
def test_field_plan_matches_the_assigned_set_search(points, n, smoothness, seed):
    topo = Topology.from_positions(points)
    assert topo.field_plan == oracle_plan(topo)
    expected = outcome(oracle_field, topo, n, smoothness, seed)
    got = outcome(lambda: generate_field(topo, n, smoothness, seed).readings)
    assert got == expected


@SETTINGS
@given(grid.map(lambda pts: [(x / 2, y / 3) for x, y in pts]), models())
def test_bits_matches_a_double_loop(tmp_path_factory, points, model):
    path = tmp_path_factory.getbasetemp() / "bits.csv"
    path.write_text("id,x,y\n" + "".join(f"{i},{x!r},{y!r}\n" for i, (x, y) in enumerate(points)))
    topo = Topology.from_positions(points)
    expected = outcome(
        lambda: [
            ",".join(str(pairwise_bits(model, topo.distance(i, j)) if i != j else 0)
                     for j in range(topo.size))
            for i in range(topo.size)
        ]
    )
    model_flag = "1" if isinstance(model, PowerLawModel) else "2"
    argv = ["bits", "--topology", str(path), "--model", model_flag,
            "--n", str(model.n), f"--alpha={model.alpha!r}", f"--beta={model.beta!r}"]
    out, code = _run(argv)
    if isinstance(expected, tuple):  # the loop raised: the CLI reports it
        assert code == 2
    else:
        assert code == 0
        assert [ln for ln in out.splitlines() if not ln.startswith("#")] == expected


def _run(argv):
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = main(argv)
    return buf.getvalue(), code


def _near(kind, size, s, rng):
    """`size` points of a layout kind, in units of the last step s (at least
    1e-300, so that a subnormal s does not make most nodes coincide)."""
    unit = max(s, 1e-300)
    spread = [(rng.uniform(0, 6 * unit), rng.uniform(0, 6 * unit)) for _ in range(size)]
    if kind == "uniform":
        return spread
    if kind == "diagonal":  # pairs just within s at 45 degrees: the corner cells' nodes
        tilt = [(x * 4, y * 4, rng.uniform(0.9, 1.0) * unit / math.sqrt(2)) for x, y in spread[: size // 2]]
        return [p for x, y, g in tilt for p in ((x, y), (x + g, y + g))]
    if kind == "offset":  # cell indices near 1e15, each one exact
        return [(x + 1e15 * unit, y - 1e15 * unit) for x, y in spread]
    if kind == "multiples":  # distances at and next to multiples of s
        return [(rng.randint(0, 12) * s, rng.randint(0, 12) * s) for _ in range(size)]
    if kind == "boundary":  # pairs at s and the floats on each side, along an axis and diagonally
        gaps = [math.nextafter(s, -math.inf), s, math.nextafter(s, math.inf)]
        pairs = [((0.0, 3 * k * unit), (g, 3 * k * unit)) for k, g in enumerate(gaps)]
        pairs += [((30 * unit, 3 * k * unit), (30 * unit + g / math.sqrt(2), 3 * k * unit + g / math.sqrt(2)))
                  for k, g in enumerate(gaps)]
        return [p for pair in pairs for p in pair] + spread[6:]
    if kind == "collinear":
        return [(x * 4, 0.5 * unit) for x, _ in spread]
    if kind == "lattice":
        c = rng.uniform(0.7, 1.5) * unit
        return [(i % 9 * c, i // 9 * c) for i in range(size)]
    if kind == "cluster":  # half the nodes in one cell
        return [(x / 1000, y / 1000) for x, y in spread[: size // 2]] + [(x * 3, y * 3) for x, y in spread[size // 2 :]]
    if kind == "coincident":
        return spread[: size // 2] * 2 + spread[: size % 2]
    # spans near 2**1023: x / h leaves the float range where s is small
    return [(rng.choice([-1.0, 1.0]) * 2.0**1022, y) for _, y in spread[:3]] + spread[3:]


NEAR_KINDS = ["uniform", "diagonal", "offset", "multiples", "boundary", "collinear", "lattice", "cluster", "coincident",
              "huge"]


@st.composite
def near_cases(draw):
    """A model (both families, beta below, at and above 0; 0 and most
    alpha < 1/n give a constant staircase, so they are drawn less often) and
    a layout kind scaled to its last step s, with N past the 64n + 2 gate."""
    cls = draw(st.sampled_from([PowerLawModel, GaussianDecayModel]))
    beta = draw(st.sampled_from([0.0, -1.0, 1.0, 1.0, 1.0])) * draw(st.floats(0.01, 9.0))
    model = cls(n=draw(st.integers(1, 12)), alpha=draw(st.floats(0.3, 3.0)), beta=beta)
    steps = budget_steps(model, False, math.inf)[0]
    s = steps[-1] if steps else 1.0
    kind = draw(st.sampled_from(NEAR_KINDS))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return model, kind, _near(kind, draw(st.integers(40, 70)), min(s, 1e300), rng), s


@settings(max_examples=60, deadline=None)
@given(near_cases())
def test_bits_grid_matches_the_rows_and_pairwise_bits(case):
    """pair_tails against a double loop over pairwise_bits and against the
    step-table rows, and budget_matrix against that loop mirrored. Every
    layout but the huge one keeps its candidate pairs under half, so the grid
    must be taken, and give those rows, where the layout was scaled to the
    last step (coincident nodes can add a step at 0); the huge one may fall
    back. A singular budget
    raises from the call, before any row."""
    model, kind, points, s = case
    topo = Topology.from_positions(points)
    size = topo.size
    expected = outcome(lambda: [[str(pairwise_bits(model, topo.distance(i, j))) for j in range(i + 1, size)]
                                for i in range(size)])
    got = outcome(pair_tails, model, ConditioningRule.MIN, topo, str)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert [*got] == expected
    assert budget_matrix(model, topo) == [[pairwise_bits(model, topo.distance(i, j)) if i != j else 0
                                           for j in range(size)] for i in range(size)]
    steps, vals = budget_steps(model, topo.coincident, size * (size - 1) // 2)
    labels = [*map(str, vals)]
    row = schedule._pair_rows(model, ConditioningRule.MIN, topo, (steps, labels))
    assert [[*row(i, range(i + 1, size))] for i in range(size)] == expected
    if steps and steps[-1] == s and kind != "huge":
        values = schedule._pair_values(model, ConditioningRule.MIN, (steps, labels))
        assert [*schedule._near_rows(topo, s, values, labels[-1])] == expected


def test_bits_grid_falls_back_where_a_cell_index_overflows():
    """s = 0.0022: 2**1022 / h is past the float range, so the rows are read
    off the step table, exactly, with no OverflowError. So are they for a
    last step at the largest float, where s+ is inf."""
    model = GaussianDecayModel(12, 1.0, 1e6)
    points = [(-(2.0**1022), 0.0), (2.0**1022, 0.0)] + [(i / 1000, i % 7 / 1000) for i in range(60)]
    topo = Topology.from_positions(points)
    for table in (budget_steps(model, topo.coincident, 62 * 61 // 2), ([MAX_FLOAT], ["0", "1"])):
        values = schedule._pair_values(model, ConditioningRule.MIN, table)
        assert schedule._near_rows(topo, table[0][-1], values, table[1][-1]) is None
    expected = [[str(pairwise_bits(model, topo.distance(i, j))) for j in range(i + 1, 62)] for i in range(62)]
    assert [*pair_tails(model, ConditioningRule.MIN, topo, str)] == expected


@settings(max_examples=60, deadline=None)
@given(near_cases())
def test_grid_certifies_every_pair_outside_the_block(case):
    """Topology.grid at the last step s: every ordered pair whose key
    difference is not an offset is at distance >= s. Only the huge layout
    may leave the float range."""
    _, kind, points, s = case
    topo = Topology.from_positions(points)
    grid = topo.grid(s)
    assert grid is not None or kind == "huge"
    if grid is None:
        return
    keys, offsets = grid
    block = set(offsets)
    for i, j in itertools.permutations(range(topo.size), 2):
        if keys[j] - keys[i] not in block:
            assert topo.distance(i, j) >= s


def test_grid_is_none_past_the_float_range():
    """s = 0.0022 puts 2**1022 / h past the float range; at the largest float s+ is inf."""
    topo = Topology.from_positions([(-(2.0**1022), 0.0), (2.0**1022, 0.0)] + [(i / 1000, 0.0) for i in range(60)])
    assert topo.grid(0.0022) is None
    assert topo.grid(MAX_FLOAT) is None
    assert topo.grid(1e300) is not None


def test_bits_computes_only_near_pairs(monkeypatch):
    """500 uniform nodes on a 10 x 10 square and the field model (s = 2.23):
    bits' rows and budget_matrix each compute exactly the distances of the
    pairs i < j whose keys in Topology.grid(s) differ by an offset, counted
    here pair by pair, and those are under 40% of the N(N-1)/2 pairs. A
    constant staircase (beta = 0, or beta < 0 with alpha = 1, where every
    budget clamps to 0) computes none. A power law whose last step (7) spans
    most of the square reads every pair off the step table. topology holds
    the one distance source, so a return to every pair reads all of them."""
    counted, real = [], bitgather.topology.dist
    assert not hasattr(schedule, "dist")
    monkeypatch.setattr(bitgather.topology, "dist", lambda p, q: counted.append(1) or real(p, q))
    r = random.Random(0)
    topo = Topology.from_positions([(r.uniform(0, 10), r.uniform(0, 10)) for _ in range(500)])
    field = GaussianDecayModel(12, 1.0, 0.5)
    keys, offsets = topo.grid(budget_steps(field, topo.coincident, 500 * 499 // 2)[0][-1])
    block = set(offsets)
    near = sum(keys[j] - keys[i] in block for i, j in itertools.combinations(range(500), 2))
    assert counted == []
    [*pair_tails(field, ConditioningRule.MIN, topo, str)]
    assert len(counted) == near < 0.4 * 500 * 499 / 2
    del counted[:]
    budget_matrix(field, topo)
    assert len(counted) == near
    del counted[:]
    for model in (GaussianDecayModel(12, 1.0, 0.0), GaussianDecayModel(12, 1.0, -0.5), PowerLawModel(8, 1.0, 0.0)):
        top = model.budget(1.0)
        rows = [*pair_tails(model, ConditioningRule.MIN, topo, str)]
        assert rows == [[str(top)] * (499 - i) for i in range(500)]
        assert budget_matrix(model, topo) == [[top] * i + [0] + [top] * (499 - i) for i in range(500)]
    assert counted == []
    power = PowerLawModel(8, 1.0, 1.0)
    steps, vals = budget_steps(power, topo.coincident, 500 * 499 // 2)
    values = schedule._pair_values(power, ConditioningRule.MIN, (steps, vals))
    assert schedule._near_rows(topo, steps[-1], values, vals[-1]) is None
    [*pair_tails(power, ConditioningRule.MIN, topo, str)]
    assert len(counted) == 500 * 499 / 2
