"""tools/ladder.py, the per-layer performance ladder, on a small layout:
every row runs and the run it writes parses. No time is checked."""

import json
import math
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_ladder_writes_a_run_of_finite_times(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import ladder

    out = tmp_path / "ladder.json"
    assert ladder.main(["--layout", "n8.csv", "--k", "1", "--label", "check", "--out", str(out)]) == 0
    (run,) = json.loads(out.read_text())["runs"]
    assert run["label"] == "check" and run["machine"]["cpu_count"] >= 1
    assert [row["row"] for row in run["rows"]] == [name for name, _, _ in ladder.ROWS]
    for row in run["rows"]:
        assert row["n_nodes"] == 8
        assert all(math.isfinite(row[k]) and row[k] >= 0 for k in ("best_s", "median_s", "peak_mb")), row
