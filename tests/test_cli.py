import pytest

from bitgather.cli import main


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


def test_sweep_rejects_bad_step(capsys):
    code, _ = run(capsys, ["sweep", "--model", "1", "--d-step", "0"])
    assert code == 2


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


def test_malformed_topology_exits_3(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,x,y\n0,0,0\n0,1,1\n")
    code, _ = run(capsys, ["bits", "--topology", str(path)])
    assert code == 3


def test_exhaustive_too_large_exits_4(capsys, tmp_path):
    path = tmp_path / "big.csv"
    path.write_text("id,x,y\n" + "\n".join(f"{i},{i},0" for i in range(11)) + "\n")
    code, _ = run(
        capsys, ["stats", "--topology", str(path), "--mode", "exhaustive"]
    )
    assert code == 4


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


def test_header_records_resolved_config(capsys, topo_line3):
    _, out = run(capsys, ["evaluate", "--topology", topo_line3, "--order", "0,1,2"])
    header = out.splitlines()[0]
    assert header.startswith("# bitgather evaluate ")
    for key in ("model=1", "n=5", "alpha=1.0", "beta=1.0", "rule=min", "order=0,1,2"):
        assert key in header


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
    ],
)
def test_non_finite_and_overflowing_parameters(capsys, tmp_path, argv, code, expect):
    path = tmp_path / "far.csv"
    path.write_text("id,x,y\n0,0,0\n1,10,0\n2,0.5,0.5\n")
    assert main(argv + ["--topology", str(path)]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert expect in (captured.out if code == 0 else captured.err)
