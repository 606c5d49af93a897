"""tools/ladder.py, the per-layer performance ladder, on a small layout:
every row runs and the run it writes parses, also with the repository as
its own parent. No time is checked."""

import json
import math
from pathlib import Path

import bitgather.schedule

REPO = Path(__file__).resolve().parents[1]
TOOLS = REPO / "tools"


def _check_rows(run, ladder):
    assert run["machine"]["cpu_count"] >= 1
    assert [row["row"] for row in run["rows"]] == [name for name, _, _ in ladder.ROWS]
    for row in run["rows"]:
        assert row["n_nodes"] == 8
        assert all(math.isfinite(row[k]) and row[k] >= 0 for k in ("best_s", "median_s", "peak_mb")), row
        assert row["best_s"] <= row["q1_s"] <= row["median_s"] <= row["q3_s"] and row["reps"] >= 1, row


def test_ladder_writes_a_run_of_finite_times(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import ladder

    out = tmp_path / "ladder.json"
    assert ladder.main(["--layout", "n8.csv", "--k", "1", "--label", "check", "--out", str(out)]) == 0
    (run,) = json.loads(out.read_text())["runs"]
    assert run["label"] == "check"
    _check_rows(run, ladder)


def test_ladder_times_a_parent_tree_in_turn(tmp_path, monkeypatch):
    """--parent imports that tree's bitgather as bitgather_parent and writes
    a parent run, then the change run, both with every row."""
    monkeypatch.syspath_prepend(str(TOOLS))
    import ladder

    out = tmp_path / "ladder.json"
    assert ladder.main(["--layout", "n8.csv", "--k", "2", "--parent", str(REPO), "--out", str(out)]) == 0
    parent, change = json.loads(out.read_text())["runs"]
    assert (parent["label"], change["label"]) == ("parent", "change")
    for run in (parent, change):
        _check_rows(run, ladder)
    tree = ladder.load_tree(REPO, "bitgather_parent")
    assert tree.schedule.__name__ == "bitgather_parent.schedule" and tree.schedule is not bitgather.schedule
