"""cli.main over numeric flags: every input ends in a documented exit code.

Values range over finite, huge, non-finite and signed extremes, and the
placements include coordinates whose distances overflow. A run may succeed
or be refused (0, 2, 3, 4); it never ends in a traceback.
"""

import contextlib
import io
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from bitgather.cli import main

EXIT_CODES = {0, 2, 3, 4}

reals = st.one_of(
    st.floats(-10.0, 10.0),
    st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)
widths = st.one_of(
    st.integers(-1, 40), st.sampled_from([2**16, 2**16 + 1, 10**9, 2**53, 2**53 + 1, 10**400])
)
coordinates = st.one_of(st.integers(-3, 3).map(float), st.sampled_from([1e308, -1e308]), st.floats(-1e3, 1e3))
placements = st.lists(st.tuples(coordinates, coordinates), min_size=1, max_size=6)


def flag(name, value):
    """--name=value, so that negative numbers are not read as flags."""
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


@st.composite
def invocations(draw):
    """(argv, placement) for one command; the topology path is added later."""
    command = draw(st.sampled_from(["bits", "evaluate", "optimize", "simulate", "stats", "sweep"]))
    argv = [command, flag("model", draw(st.sampled_from([1, 2]))), flag("n", draw(widths)),
            flag("alpha", draw(reals)), flag("beta", draw(reals))]
    points = draw(placements)
    if command in ("evaluate", "optimize", "simulate", "stats"):
        argv.append(flag("rule", draw(st.sampled_from(["min", "max", "additive"]))))
    if command == "evaluate":
        order = draw(st.permutations(range(len(points))))
        argv.append(flag("order", ",".join(map(str, order))))
    elif command == "optimize":
        argv += [flag("strategy", draw(st.sampled_from(["brute_force", "greedy_prim", "random_restart"]))),
                 flag("objective", draw(st.sampled_from(["minimize", "maximize"]))),
                 flag("restarts", draw(st.integers(-1, 30)))]
        argv += ["--force-greedy"] if draw(st.booleans()) else []
    elif command == "simulate":
        argv.append(flag("smoothness", draw(reals)))
    elif command == "stats":
        argv += [flag("mode", draw(st.sampled_from(["sampled", "exhaustive"]))),
                 flag("samples", draw(st.integers(-1, 30)))]
    elif command == "sweep":
        argv += [flag(name, draw(reals)) for name in ("d-min", "d-max", "d-step")]
    return argv, points


@settings(max_examples=80, deadline=None)
@given(invocations())
def test_numeric_flags_never_end_in_a_traceback(tmp_path_factory, invocation):
    argv, points = invocation
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_text("id,x,y\n" + "".join(f"{i},{x!r},{y!r}\n" for i, (x, y) in enumerate(points)))
    if argv[0] != "sweep":
        argv = argv + ["--topology", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag by exiting
            code = exc.code
    assert code in EXIT_CODES, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
