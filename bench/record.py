"""Record the reference exit code and stdout sha256 of every benchmark call.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 bench/record.py

It runs each call once for every instance of the pool, at full and tiny
sizes, writes bench/expected.json, and exits non-zero if any call fails or
any instance is degenerate (see run.degeneracy_problems).
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    table: dict = {"pool": run.POOL}
    problems = []
    work = run.WORK / "record"
    work.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for scale, tiny in (("tiny", True), ("full", False)):
            table[scale] = {}
            for workload, wl in run.build_workloads(tiny).items():
                table[scale][workload] = {}
                for instance in range(run.POOL):
                    cli = run.setup(workload, wl, instance, work)
                    entry, outputs = {}, {}
                    for call in wl.calls:
                        rc, out = run.run_call(cli, call)
                        entry[call.name] = [rc, run.sha256(out)]
                        outputs[call.name] = out
                        if rc != 0:
                            problems.append(f"{scale} {workload} {instance}: {call.name} exited {rc}")
                    found = run.degeneracy_problems(wl, outputs)
                    problems += [f"{scale} {workload} {instance}: {p}" for p in found]
                    table[scale][workload][str(instance)] = entry
                print(f"recorded {scale} {workload}", file=sys.stderr, flush=True)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    run.EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
