"""Self-test of the benchmark: tiny-size runs of every workload.

Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

sys.path.insert(0, str(run.SRC))
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(run.build_workloads())


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload, trace):
    result, detail = run.run(workload, seed=0, seconds=0, trace=trace, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # Traced passes are checked against the same recorded digests, so a
    # correct traced run means the tracer left every output byte unchanged.
    assert result["correct"], detail["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in section}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    assert detail["untraced_patches"] == []


def test_tracer_restores_every_patch(tmp_path):
    run.setup("enumerate", run.build_workloads(tiny=True)["enumerate"], 0, tmp_path)
    modules = {n: sys.modules[f"bitgather.{n}"] for n in run.MODULES}
    owners = [*modules.values(), modules["topology"].Topology]
    before = [dict(vars(owner)) for owner in owners]
    tracer = Tracer()
    tracer.install(modules)
    assert [dict(vars(owner)) for owner in owners] != before
    tracer.restore()
    assert [dict(vars(owner)) for owner in owners] == before


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*BENCHMARK["command"], "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
