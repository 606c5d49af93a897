import ast
import os
import random
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import bitgather
from bitgather import PowerLawModel
from bitgather.cli import main
from bitgather.schedule import EXHAUSTIVE_LIMIT

from conftest import random_topology


@pytest.fixture
def topo_345(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("id,x,y\n0,0,0\n1,3,4\n")
    return str(path)


@pytest.fixture
def topo_line3(tmp_path):
    path = tmp_path / "line.csv"
    path.write_text("id,x,y\n0,0,0\n1,1,0\n2,2,0\n")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def data_lines(out):
    return [ln for ln in out.splitlines() if not ln.startswith("#")]


def test_bits_345(capsys, topo_345):
    code, out = run(capsys, ["bits", "--topology", topo_345, "--model", "1"])
    assert code == 0
    assert data_lines(out) == ["0,5", "5,0"]


def test_bits_single_node(capsys, tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("id,x,y\n0,1,1\n")
    code, out = run(capsys, ["bits", "--topology", str(path), "--model", "2"])
    assert code == 0
    assert data_lines(out) == ["0"]


def test_bits_matrix_is_symmetric(capsys, topo_line3):
    code, out = run(capsys, ["bits", "--topology", topo_line3, "--model", "2", "--beta", "0.5"])
    assert code == 0
    matrix = [row.split(",") for row in data_lines(out)]
    for i in range(3):
        for j in range(3):
            assert matrix[i][j] == matrix[j][i]


def write_topology(path, positions):
    path.write_text("id,x,y\n" + "".join(f"{i},{x!r},{y!r}\n" for i, (x, y) in enumerate(positions)))
    return str(path)


@pytest.mark.parametrize("size, tabled", [(23, False), (24, True)], ids=["per-pair", "step-table"])
def test_bits_equals_the_double_loop_at_the_gate(capsys, tmp_path, monkeypatch, size, tabled):
    """As budget_matrix: with n = 4 the gate is 64n + 2 = 258 budget calls, so
    N = 23 (253 pairs) calls the budget at both ends of the distances, the
    least positive float and the largest, then once per pair, in row order, and
    N = 24 (276 pairs) reads the step table; each line is the double loop's row."""
    topo = random_topology(random.Random(35), size)
    path = write_topology(tmp_path / "nodes.csv", topo.positions)
    m = PowerLawModel(n=4, alpha=1.0, beta=1.0)
    want = [",".join(str(m.budget(topo.distance(i, j)) if i != j else 0) for j in range(size))
            for i in range(size)]
    calls, budget = [], PowerLawModel.budget

    def counted(self, d):
        calls.append(d)
        return budget(self, d)

    monkeypatch.setattr(PowerLawModel, "budget", counted)
    code, out = run(capsys, ["bits", "--topology", path, "--model", "1", "--n", "4"])
    assert code == 0
    assert data_lines(out) == want
    if tabled:
        assert len(calls) <= 64 * 4 + 2
    else:
        ends = [5e-324, sys.float_info.max]  # equal budgets there would make the staircase constant
        assert calls == [*ends, *(topo.distance(i, j) for i in range(size) for j in range(i + 1, size))]


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("size", [3, 62], ids=["per-pair", "step-table"])
def test_bits_writes_nothing_before_an_error(capsys, tmp_path, size, to_file):
    """budget(0) is singular for a power law with beta < 0: on both sides of
    the gate (n = 5: 3 pairs, and 1891 > 322 at N = 62) bits exits 2 before
    its first byte, though the last two nodes alone coincide and every
    earlier row could be written."""
    rng = random.Random(size)
    points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(size - 1)]
    path = write_topology(tmp_path / "twins.csv", [*points, points[-1]])
    out = tmp_path / "bits.csv"
    argv = ["bits", "--beta", "-0.5", "--topology", path, *(["--out", str(out)] if to_file else [])]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: d = 0 with negative exponent is singular\n")
    assert not out.exists()


def test_bits_holds_less_than_the_table(tmp_path):
    """bits to a file holds the earlier halves of the lines not yet written,
    each item one of a few shared texts, and writes each line as it is made:
    below 6 N**2 bytes at N = 300, where the mirrored table and all its lines
    came to 1.05 MB."""
    size = 300
    path = write_topology(tmp_path / "nodes.csv", random_topology(random.Random(300), size).positions)
    argv = ["bits", "--topology", path, "--model", "2", "--n", "12", "--beta", "0.5",
            "--out", str(tmp_path / "bits.csv")]
    assert main(argv) == 0  # the parser is built once, outside the trace
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * size * size


def test_bits_to_a_reader_that_closes_early_exits_0(tmp_path):
    """`bits | head -1`: the reader closes after one line, and the run stops
    quietly with exit 0, as under SIGPIPE. At N = 300 the output (about
    260 KB) is far more than one pipe buffer, so a later write meets the
    closed pipe."""
    path = write_topology(tmp_path / "nodes.csv", random_topology(random.Random(300), 300).positions)
    argv = [sys.executable, "-m", "bitgather.cli", "bits", "--topology", path, "--model", "2", "--n", "12", "--beta", "0.5"]
    env = {**os.environ, "PYTHONPATH": str(Path(bitgather.__file__).resolve().parents[1])}
    with subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"# bitgather bits ")
        proc.stdout.close()
        assert (proc.wait(timeout=60), proc.stderr.read()) == (0, b"")


def test_cli_import_loads_no_dataclasses_inspect_or_fractions():
    """Start-up cost: a fresh isolated interpreter (no site, no environment)
    imports the CLI without generating dataclass code or loading fractions,
    which only decay_sum's overflow fallback uses. -B: -I ignores
    PYTHONDONTWRITEBYTECODE, and bytecode left under src would make later
    imports skip compiling, which the benchmark's setup_s times."""
    src = str(Path(bitgather.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import bitgather.cli; "
            "print(sorted({'dataclasses', 'inspect', 'fractions'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_package_imports_only_the_standard_library():
    """bitgather declares no runtime dependency (dependencies = []): every
    absolute import in its modules names a standard-library module."""
    imported = set()
    for path in Path(bitgather.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update((path.name, alias.name) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module))
    assert ("topology.py", "math") in imported
    assert [(path, name) for path, name in sorted(imported) if name.split(".")[0] not in sys.stdlib_module_names] == []


def test_sweep_staircase(capsys):
    code, out = run(capsys, ["sweep", "--model", "1", "--d-max", "8", "--d-step", "0.1"])
    assert code == 0
    rows = [ln.split("\t") for ln in data_lines(out)[1:]]
    budgets = [int(b) for _, b in rows]
    assert sorted(set(budgets)) == [0, 1, 2, 3, 4, 5]
    assert budgets == sorted(budgets)


def test_sweep_gaussian_origin(capsys):
    code, out = run(capsys, ["sweep", "--model", "2", "--d-max", "2", "--d-step", "0.5"])
    assert code == 0
    rows = data_lines(out)[1:]
    assert rows[0] == "0\t0"
    budgets = [int(ln.split("\t")[1]) for ln in rows]
    assert budgets == sorted(budgets)


@pytest.mark.parametrize("flag, value", [("--beta", "-1e-3"), ("--d-min", "-2.5e-1"), ("--beta", "-inf")])
def test_negative_values_parse_as_with_equals(capsys, flag, value):
    """A negative value in scientific notation (or -inf) after its flag reads
    as the --flag=value form does, on every Python: argparse's own
    negative-number pattern has no exponent. A negative distance and an
    infinite beta are then refused by the model, not the parser."""
    got = []
    for argv in ([flag, value], [f"{flag}={value}"]):
        code = main(["sweep", "--model", "2", *argv, "--d-max", "1", "--d-step", "0.25"])
        got.append((code, *capsys.readouterr()))
    assert got[0] == got[1]
    assert got[0][0] == (0 if value == "-1e-3" else 2)


def test_sweep_rejects_bad_step(capsys):
    code, _ = run(capsys, ["sweep", "--model", "1", "--d-step", "0"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, code, expect",
    [
        (["--d-max", "inf"], 2, "--d-max must be finite"),
        (["--d-min", "nan"], 2, "--d-min must be finite"),
        (["--d-step", "nan"], 2, "--d-step must be finite"),
        (["--d-step", "inf"], 2, "--d-step must be finite"),
        (["--d-max", "1e9"], 4, "more than 1000000 rows"),
        (["--d-step", "5e-324"], 4, "more than 1000000 rows"),
        (["--d-min=-1e308", "--d-max=1e308"], 4, "more than 1000000 rows"),  # span overflows
        # d_min + k * d_step never grows past d_max: the row count ends the
        # loop, and the rows that repeat the first distance are dropped
        (["--d-min", "1e300", "--d-max", "1e300", "--d-step", "1e-300"], 0,
         "d\tbudget\n1e+300\t5\n"),
        # every float from 1e16 to 1e16 + 100 (ulp 2) once; .6g shows each
        # as 1e+16, so all but the first print in full
        (["--d-min", "1e16", "--d-max", "1.00000000000001e16", "--d-step", "0.6"], 0,
         "d\tbudget\n1e+16\t5\n" + "".join(f"{1e16 + 2 * k!r}\t5\n" for k in range(1, 51))),
    ],
)
def test_sweep_is_bounded(capsys, argv, code, expect):
    assert main(["sweep", *argv]) == code
    captured = capsys.readouterr()
    if code == 0:  # everything below the header line, exactly
        assert captured.out.split("\n", 1)[1] == expect
    else:
        assert expect in captured.err


def test_bad_alpha_exits_2(capsys, topo_345):
    code = main(["bits", "--topology", topo_345, "--model", "2", "--alpha", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "alpha2 must be positive" in captured.err


def test_bad_model_exits_2(capsys, topo_345):
    code, _ = run(capsys, ["bits", "--topology", topo_345, "--model", "3"])
    assert code == 2


def test_missing_topology_file_exits_3(capsys):
    code, _ = run(capsys, ["bits", "--topology", "/nonexistent/nodes.csv"])
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "70000"],
    ["stats", "--samples", "2000000"],
    ["optimize", "--strategy", "random_restart", "--restarts", "2000000"],
])
def test_missing_topology_exits_3_before_an_infeasible_request(capsys, argv):
    """Every command reads its topology before it judges a request feasible."""
    code, out = run(capsys, argv + ["--topology", "/nonexistent/nodes.csv"])
    assert (code, out) == (3, "")


def test_malformed_topology_exits_3(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,x,y\n0,0,0\n0,1,1\n")
    code, _ = run(capsys, ["bits", "--topology", str(path)])
    assert code == 3


def test_exhaustive_too_large_exits_4(capsys, tmp_path):
    path = tmp_path / "big.csv"
    size = EXHAUSTIVE_LIMIT + 1
    path.write_text("id,x,y\n" + "\n".join(f"{i},{i},0" for i in range(size)) + "\n")
    code, _ = run(
        capsys, ["stats", "--topology", str(path), "--mode", "exhaustive"]
    )
    assert code == 4
    # brute force outside the spanning pairs runs the same pass, under the same limit
    code = main(["optimize", "--topology", str(path), "--objective", "maximize"])
    assert code == 4
    assert f"refused for N={size} > {EXHAUSTIVE_LIMIT}" in capsys.readouterr().err


def test_brute_force_past_work_limit_exits_4(capsys, tmp_path):
    # 2001 nodes: the descent's N * N work is more than the limit
    path = tmp_path / "big.csv"
    path.write_text("id,x,y\n" + "\n".join(f"{i},{i},0" for i in range(2001)) + "\n")
    code = main(["optimize", "--topology", str(path), "--strategy", "brute_force"])
    captured = capsys.readouterr()
    assert code == 4
    assert "brute force refused for N=2001" in captured.err


def test_evaluate_collinear(capsys, topo_line3):
    code, out = run(
        capsys,
        ["evaluate", "--topology", topo_line3, "--rule", "min", "--order", "0,1,2"],
    )
    assert code == 0
    assert "# total=7" in out
    assert data_lines(out) == ["position,node,bits", "0,0,5", "1,1,1", "2,2,1"]


def test_evaluate_requires_order(capsys, topo_line3):
    code, _ = run(capsys, ["evaluate", "--topology", topo_line3])
    assert code == 2


def test_optimize_brute_matches_greedy(capsys, topo_line3):
    code_b, out_b = run(
        capsys, ["optimize", "--topology", topo_line3, "--strategy", "brute_force"]
    )
    code_g, out_g = run(
        capsys, ["optimize", "--topology", topo_line3, "--strategy", "greedy_prim"]
    )
    assert code_b == code_g == 0
    total_b = [ln for ln in out_b.splitlines() if ln.startswith("# total=")]
    total_g = [ln for ln in out_g.splitlines() if ln.startswith("# total=")]
    assert total_b == total_g == ["# total=7"]


def test_simulate_smooth_field_is_exact(capsys, topo_line3):
    code, out = run(
        capsys,
        ["simulate", "--topology", topo_line3, "--smoothness", "0.0", "--seeds", "1,2"],
    )
    assert code == 0
    rows = [ln.split("\t") for ln in data_lines(out)[1:]]
    assert len(rows) == 2
    for _, _, _, exact, err in rows:
        assert exact == "3"
        assert err == "0"


def test_stats_exhaustive_collinear(capsys, topo_line3):
    code, out = run(
        capsys, ["stats", "--topology", topo_line3, "--mode", "exhaustive"]
    )
    assert code == 0
    values = dict(ln.split(",", 1) for ln in data_lines(out)[1:])
    assert values["min_total"] == "7"
    assert values["max_total"] == "8"
    assert values["sample_count"] == "6"
    assert values["exhaustive"] == "true"


def test_repeat_runs_byte_identical(capsys, topo_line3):
    argv = [
        "stats", "--topology", topo_line3, "--mode", "sampled",
        "--samples", "200", "--seed", "42",
    ]
    _, first = run(capsys, argv)
    _, second = run(capsys, argv)
    assert first == second


def test_workers_do_not_change_output(capsys, topo_line3):
    base = [
        "stats", "--topology", topo_line3, "--mode", "sampled",
        "--samples", "200", "--seed", "42",
    ]
    _, one = run(capsys, base + ["--workers", "1"])
    _, four = run(capsys, base + ["--workers", "4"])
    strip = lambda s: [ln for ln in s.splitlines() if "workers" not in ln]
    assert strip(one) == strip(four)


def test_out_file_matches_stdout(capsys, topo_line3, tmp_path):
    out_path = tmp_path / "report.csv"
    argv = ["evaluate", "--topology", topo_line3, "--order", "0,1,2"]
    _, stdout = run(capsys, argv)
    assert main(argv + ["--out", str(out_path)]) == 0
    assert out_path.read_text() == stdout


def test_config_file_with_cli_override(capsys, topo_line3, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"topology={topo_line3}\nrule=min\norder=0,2,1\n")
    code, out = run(capsys, ["evaluate", "--config", str(cfg)])
    assert code == 0
    assert "# total=8" in out
    # CLI flag wins over the config file
    code, out = run(capsys, ["evaluate", "--config", str(cfg), "--order", "0,1,2"])
    assert code == 0
    assert "# total=7" in out


def test_unknown_config_key_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus=1\n")
    code, _ = run(capsys, ["sweep", "--config", str(cfg)])
    assert code == 2


@pytest.mark.parametrize(
    "rule, value, code",
    [
        ("min", "ture", 2),  # a typo is refused, not read as false
        ("max", "YES", 0),  # case-insensitive; max/minimize needs the flag set
        ("max", "Off", 2),  # read as false: greedy_prim then refuses max/minimize
    ],
)
def test_config_boolean_words(capsys, topo_line3, tmp_path, rule, value, code):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"topology={topo_line3}\nrule={rule}\nstrategy=greedy_prim\nforce_greedy={value}\n")
    assert main(["optimize", "--config", str(cfg)]) == code
    err = capsys.readouterr().err
    if value == "ture":
        assert err == (
            "error: config key force_greedy: "
            "expected 1/true/yes/on or 0/false/no/off, got 'ture'\n"
        )
    elif code == 2:
        assert "pass force=True" in err


def test_header_records_resolved_config(capsys, topo_line3):
    _, out = run(capsys, ["evaluate", "--topology", topo_line3, "--order", "0,1,2"])
    header = out.splitlines()[0]
    assert header.startswith("# bitgather evaluate ")
    for key in ("model=1", "n=5", "alpha=1.0", "beta=1.0", "rule=min", "order=0,1,2"):
        assert key in header


def test_header_quotes_a_path_with_a_space(capsys, tmp_path):
    path = tmp_path / "my nodes.csv"
    path.write_text("id,x,y\n0,0,0\n1,3,4\n")
    _, out = run(capsys, ["bits", "--topology", str(path)])
    words = shlex.split(out.splitlines()[0])
    assert words[:3] == ["#", "bitgather", "bits"]
    assert f"topology={path}" in words


@pytest.mark.parametrize(
    "argv, code, expect",
    [
        # d**400 overflows for the pairs ~10 apart: their budgets saturate at n
        (["bits", "--beta", "400"], 0, "0,5,0\n5,0,5\n0,5,0\n"),
        (["simulate", "--smoothness", "inf"], 2, "smoothness"),
        (["simulate", "--smoothness", "1e308"], 2, "smoothness"),
        # alpha * (sum of exp(+d**2)) overflows: additive budgets clamp to 0
        (["evaluate", "--model", "2", "--rule", "additive", "--alpha", "1e308",
          "--beta", "-1", "--order", "0,1,2"], 0, "# total=5\n"),
        (["bits", "--alpha", "inf"], 2, "alpha1 must be finite"),
        (["bits", "--model", "2", "--beta", "nan"], 2, "beta2 must be finite"),
        # n feeds float arithmetic (the Gaussian budget, the mean total)
        (["stats", "--n", str(10**400)], 2, "n must be at most 2**53"),
        # the diagonal is 0, not budget(0), which is singular for beta < 0
        (["bits", "--beta", "-0.5"], 0, "\n0,1,2\n1,0,1\n2,1,0\n"),
        (["stats", "--mode", "bogus"], 2, "mode must be exhaustive or sampled, got 'bogus'"),
        (["optimize", "--strategy", "bogus"], 2, "unknown strategy 'bogus'"),
        (["evaluate", "--order", "0,1,2", "--out", "/nonexistent/out.csv"], 3,
         "No such file or directory"),
        # simulate holds n-bit readings: n is bounded by SIMULATE_WIDTH_LIMIT
        (["simulate", "--n", str(2**16), "--smoothness", "1"], 0, "\n1\t0\t"),
        (["simulate", "--n", str(2**16 + 1)], 4, "simulate refused: n above 65536"),
        (["evaluate", "--rule", "bogus", "--order", "0,1,2"], 2,
         "error: rule must be min, max, or additive, got 'bogus'\n"),
        # sampled schedules are bounded by SAMPLE_LIMIT, refused before any is drawn
        (["stats", "--samples", str(10**6 + 1)], 4, "sampling refused: more than 1000000 schedules"),
        (["optimize", "--strategy", "random_restart", "--restarts", str(10**6 + 1)], 4,
         "sampling refused: more than 1000000 schedules"),
    ],
)
def test_non_finite_and_overflowing_parameters(capsys, tmp_path, argv, code, expect):
    path = tmp_path / "far.csv"
    path.write_text("id,x,y\n0,0,0\n1,10,0\n2,0.5,0.5\n")
    assert main(argv + ["--topology", str(path)]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert expect in (captured.out if code == 0 else captured.err)


@pytest.mark.parametrize("rule", ["min", "max", "additive"])
def test_overflowing_distance_exits_3_for_every_command(capsys, tmp_path, rule):
    path = tmp_path / "far.csv"
    path.write_text("id,x,y\n0,-1e308,0\n1,1e308,0\n")
    ruled = [["evaluate", "--order", "0,1"], ["simulate"], ["stats"], ["optimize"]]
    for argv in [["bits"]] + [cmd + ["--rule", rule] for cmd in ruled]:
        assert main(argv + ["--topology", str(path), "--model", "2"]) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: distance between nodes 0 and 1 overflows the float range\n"


def test_main_repeats_exactly_across_runs(capsys, topo_line3):
    """The parser is built once and reused: runs, failing ones included,
    leave nothing behind that changes the next."""
    ok = ["simulate", "--topology", topo_line3, "--smoothness", "1,4", "--seeds", "3"]
    bad_value = ["evaluate", "--topology", topo_line3, "--order", "0,0,1"]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag by exiting
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    runs = [outcome(argv) for argv in (ok, bad_value, ["stats", "--bogus"], ok, bad_value)]
    assert runs[0] == runs[3] and runs[0][0] == 0
    assert runs[1] == runs[4] and runs[1][0] == 2
    assert runs[2][0] == 2 and "unrecognized arguments: --bogus" in runs[2][2]


@pytest.mark.parametrize(
    "argv, expect",
    [
        (["evaluate", "--order", "0,a"], "--order: expected comma-separated integers, got '0,a'"),
        (["simulate", "--seeds", "1,x"], "--seeds: expected comma-separated integers, got '1,x'"),
        (["simulate", "--smoothness", "1,x"],
         "--smoothness: expected comma-separated numbers, got '1,x'"),
    ],
)
def test_bad_list_flag_names_the_flag(capsys, topo_line3, argv, expect):
    with pytest.raises(SystemExit) as exc:  # argparse rejects a flag by exiting
        main(argv + ["--topology", topo_line3])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {expect}\n" in err
    assert "_int_list" not in err and "_float_list" not in err


def test_bad_list_config_value_names_the_key(capsys, topo_line3, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"topology={topo_line3}\norder=0,a\n")
    assert main(["evaluate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: config key order: expected comma-separated integers, got '0,a'\n"
    )


def test_unreadable_config_exits_2(capsys, tmp_path):
    missing = tmp_path / "absent.cfg"
    not_utf8 = tmp_path / "latin1.cfg"
    not_utf8.write_bytes(b"rule=min\n# caf\xe9\n")
    for path in (missing, not_utf8):
        assert main(["sweep", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read config file {path}: ")


def test_config_line_without_equals_exits_2(capsys, tmp_path):
    # the comment and the blank line are skipped: the error names line 3
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\n\nrule\n")
    assert main(["evaluate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:3: expected key=value, got 'rule'\n"


@pytest.mark.parametrize(
    "record, expect",
    [
        ("a,0,0", "line 2: id 'a' is not an integer"),
        ("0,zz,0", "line 2: non-numeric coordinate"),
        ("-1,0,0", "line 2: negative id -1"),
        (
            b"0,0,0\n1,1,\xff",
            "cannot read topology file {path}: 'utf-8' codec can't decode byte 0xff"
            " in position 17: invalid start byte",
        ),
    ],
)
def test_bad_topology_record_exits_3(capsys, tmp_path, record, expect):
    path = tmp_path / "bad.csv"
    if isinstance(record, bytes):  # not UTF-8 text
        path.write_bytes(b"id,x,y\n" + record + b"\n")
    else:
        path.write_text(f"id,x,y\n{record}\n")
    assert main(["bits", "--topology", str(path)]) == 3
    assert capsys.readouterr().err == f"error: {expect.format(path=path)}\n"


@pytest.mark.parametrize("size", [25, 62], ids=["closure", "step-table"])
@pytest.mark.parametrize(
    "argv",
    [
        ["bits"],
        ["evaluate", "--rule", "min"],
        ["evaluate", "--rule", "max"],
        ["simulate", "--rule", "min"],
        ["simulate", "--rule", "max"],
        ["optimize", "--strategy", "greedy_prim", "--rule", "min"],
        ["stats", "--mode", "sampled", "--samples", "3", "--rule", "min"],
    ],
)
def test_coincident_nodes_under_a_negative_power_exit_2(capsys, tmp_path, argv, size):
    """budget(0) is singular for a power law with beta < 0, so two coincident
    nodes are an error on every path: below the step-table gate (n = 5:
    64n + 2 = 322 calls, 300 pairs at N = 25) and above it (1891 pairs at
    N = 62). A walk reads the farthest distance under MIN and still sees the 0."""
    rng = random.Random(size)
    points = [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(size - 1)]
    points.insert(size // 2, points[3])  # nodes 3 and size // 2 coincide
    path = tmp_path / "twins.csv"
    path.write_text("id,x,y\n" + "".join(f"{i},{x!r},{y!r}\n" for i, (x, y) in enumerate(points)))
    order = ["--order", ",".join(map(str, rng.sample(range(size), size)))] if argv[0] == "evaluate" else []
    assert main([*argv, *order, "--beta", "-0.5", "--topology", str(path)]) == 2
    assert capsys.readouterr().err == "error: d = 0 with negative exponent is singular\n"
