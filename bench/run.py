"""bitgather benchmark: drives ``bitgather.cli.main`` in-process on seeded
random placements and prints a detail line, then one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload enumerate --seed 3 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics (set-up time, wall time of the
workload's CLI calls, tracemalloc peak); ``--trace 1`` reports per-module
metrics from passes with ``tracer.Tracer`` installed. Every CLI call's exit
code and stdout sha256 are checked against ``expected.json`` (recorded from
the reference commit by ``record.py``); a mismatch is a failed operation.
See README.md in this directory for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
WORK = ROOT / ".bench_work"

PROBE_PERIOD_S = 0.005
# Normalized seconds = seconds x PROBE_REF_S / probe duration. PROBE_REF_S is
# about the probe's duration, sampled inside the timer handler, on a 2-vCPU
# Xeon VM under Python 3.11 when nothing slows it; there the two agree.
PROBE_REF_S = 1.0e-4
# Seeds map onto this many instances, each with recorded reference digests,
# so every run's outputs are checked byte for byte whatever seed it gets.
POOL = 64
SETUP_REPS = 15
BOX = 10.0  # placements are uniform in a BOX x BOX square

M1 = ("--model", "1", "--n", "8", "--alpha", "1", "--beta", "1")
M1_SQRT = ("--model", "1", "--n", "8", "--alpha", "1", "--beta", "0.5")
M2_8 = ("--model", "2", "--n", "8", "--alpha", "1", "--beta", "0.05")
M2_12 = ("--model", "2", "--n", "12", "--alpha", "1", "--beta", "0.5")
FIELD = ("--smoothness", "1,8", "--seeds", "1,2")


@dataclass(frozen=True)
class Call:
    """One CLI call: ``bitgather <command> --topology <placement> <flags>``."""

    name: str
    command: str
    placement: str
    flags: tuple[str, ...]
    scored: int = 0  # schedules the call scores, computed from its inputs


@dataclass(frozen=True)
class Workload:
    placements: dict[str, int]  # placement name -> node count
    calls: tuple[Call, ...]


_FULL = dict(enum_n=8, prim_n=200, sampled_n=50, samples=5000, field_n=500, side_n=20, side_samples=200)
_TINY = dict(enum_n=7, prim_n=16, sampled_n=10, samples=100, field_n=40, side_n=20, side_samples=20)


def build_workloads(tiny: bool = False) -> dict[str, Workload]:
    """Every workload runs bits, stats, optimize and simulate, so every module
    is exercised; the calls outside a workload's focus use small placements
    and take a few percent of its time. ``tiny`` shrinks all sizes for the
    self-test."""
    z = _TINY if tiny else _FULL
    e, p, s, f, side = z["enum_n"], z["prim_n"], z["sampled_n"], z["field_n"], z["side_n"]
    samples, side_samples = z["samples"], z["side_samples"]

    def exhaustive(rule: str) -> tuple[str, ...]:
        return ("--mode", "exhaustive", "--rule", rule)

    def sampled(count: int, rule: str) -> tuple[str, ...]:
        return ("--mode", "sampled", "--samples", str(count), "--seed", "1", "--rule", rule)

    brute_max = ("--strategy", "brute_force", "--rule", "max", "--objective", "maximize")
    prim_min = ("--strategy", "greedy_prim", "--rule", "min")
    e_perms = math.factorial(e)
    return {
        # Permutation enumeration and _total_fn scoring dominate.
        "enumerate": Workload(
            {"a": e},
            (
                Call("bits", "bits", "a", M2_8),
                Call("stats_exhaustive_min", "stats", "a", (*exhaustive("min"), *M2_8), e_perms),
                Call("stats_exhaustive_additive", "stats", "a", (*exhaustive("additive"), *M2_8), e_perms),
                Call("optimize_brute_force_max", "optimize", "a", (*brute_max, *M1_SQRT), e_perms),
                Call("simulate", "simulate", "a", (*M2_8, *FIELD)),
            ),
        ),
        # Schedule search at medium N: Prim multi-start and sampled scoring.
        "search": Workload(
            {"prim": p, "sampled": s},
            (
                Call("bits", "bits", "sampled", M1),
                Call("stats_sampled_max", "stats", "sampled", (*sampled(samples, "max"), *M1), samples),
                Call("optimize_greedy_prim_min", "optimize", "prim", (*prim_min, *M1), p),
                Call("simulate", "simulate", "sampled", (*M1, *FIELD)),
            ),
        ),
        # Topology build, pairwise budgets, field generation, gather and codec.
        "field": Workload(
            {"field": f, "side": side},
            (
                Call("bits", "bits", "field", M2_12),
                Call("stats_sampled_min", "stats", "side", (*sampled(side_samples, "min"), *M2_12),
                     side_samples),
                Call("optimize_greedy_prim_min", "optimize", "side", (*prim_min, *M2_12), side),
                Call("simulate", "simulate", "field", (*M2_12, *FIELD)),
            ),
        ),
    }


# Per-layer metrics read from Tracer.summary() as "<traced name>.<field>".
TRACED_METRICS = [
    "topology.load_topology.s",
    "topology.from_positions.s",
    "correlation.pairwise_bits.calls",
    "correlation.pairwise_bits.s",
    "correlation.conditioned_bits.calls",
    "correlation.conditioned_bits.s",
    "schedule.budget_matrix.calls",
    "schedule.budget_matrix.s",
    "schedule.evaluate.calls",
    "schedule.evaluate.s",
    "schedule.schedule_stats.s",
    "schedule.optimize.s",
    "codec.encode.calls",
    "codec.decode.calls",
    "codec.decode.s",
    "simulator.generate_field.s",
    "simulator.gather.self_s",
    "cli.main.self_s",
]
DERIVED_LAYER_METRICS = [
    ("schedule.schedules_scored", "count"),  # computed from inputs, not counted
    ("schedule.schedules_per_s", "1/s"),
    ("simulator.exact_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
]
END_TO_END_METRICS = [("wall_s", "s"), ("setup_s", "s"), ("peak_mem_mb", "MB")]
MODULES = ("cli", "correlation", "schedule", "simulator", "topology")


def placement_text(workload: str, instance: int, name: str, n_nodes: int) -> str:
    rng = random.Random(f"{workload}/{instance}/{name}")
    rows = [f"{i},{rng.uniform(0, BOX)!r},{rng.uniform(0, BOX)!r}" for i in range(n_nodes)]
    return "\n".join(["id,x,y", *rows]) + "\n"


def setup(workload: str, wl: Workload, instance: int, work: Path):
    """Import bitgather afresh and write the placement files into ``work``;
    returns the cli module. Calls name the files relative to ``work`` so
    that the configuration the CLI echoes does not depend on where it is."""
    for name in [m for m in sys.modules if m == "bitgather" or m.startswith("bitgather.")]:
        del sys.modules[name]
    cli = importlib.import_module("bitgather.cli")
    work.mkdir(parents=True, exist_ok=True)
    for name, n_nodes in wl.placements.items():
        text = placement_text(workload, instance, name, n_nodes)
        (work / f"{name}.csv").write_text(text, encoding="utf-8")
    return cli


def run_call(cli, call: Call) -> tuple[int, str]:
    """Run one call, with the placement files' directory as working directory."""
    argv = [call.command, "--topology", f"{call.placement}.csv", *call.flags]
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)  # looked up per call so the tracer's patch applies
    except SystemExit as exc:  # argparse rejects flags by exiting
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed operation, not a benchmark crash
        traceback.print_exc(file=sys.stderr)
        rc = -1
    return rc, buf.getvalue()


_PROBE_RNG = random.Random(0)
_PROBE_ROWS = [[_PROBE_RNG.randrange(12) for _ in range(48)] for _ in range(48)]


def _probe() -> int:
    """Fixed pure-Python work, independent of bitgather, timed as a speed gauge.

    It mixes the kinds of work the library's hot loops do: generator minima
    over list rows, dict and tuple operations, small function calls and float
    rounding. A plain integer loop tracked the slowdowns less well.
    """

    def clamp(bits: int, n: int) -> int:
        return max(0, min(bits, n))

    order = list(range(48))
    total = 0
    for k in range(1, 48, 3):
        row = _PROBE_ROWS[order[k]]
        total += min(row[order[j]] for j in range(k))
    counts: dict[tuple[int, int], int] = {}
    for i in range(100):
        key = (i & 15, i % 7)
        counts[key] = counts.get(key, 0) + clamp(i - 40, 60)
        total += math.ceil(i * 0.37)
    return total + len(counts)


class SpeedSampler:
    """Times ``_probe`` every PROBE_PERIOD_S on a SIGALRM timer.

    Small shared virtual machines run the same code up to twice as slowly
    for stretches of a fraction of a second to minutes. ``since`` scales an
    interval by PROBE_REF_S over the probe durations sampled inside it, which
    removes most of that drift from the reported times. The timer runs in
    the main thread; no thread is started.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._old_handler = None

    def __enter__(self) -> "SpeedSampler":
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        self._tick()  # so that even the first interval has a sample before it
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def _tick(self, *_signal) -> None:
        t0 = time.perf_counter()
        _probe()
        self.samples.append(time.perf_counter() - t0)

    def mark(self) -> tuple[float, int]:
        return time.perf_counter(), len(self.samples)

    def since(self, mark: tuple[float, int]) -> tuple[float, float]:
        """(seconds, normalized seconds) since ``mark``, probe time excluded.

        An interval too short to hold a sample uses the sample before it.
        """
        t0, i0 = mark
        t1 = time.perf_counter()
        probes = self.samples[i0:]
        seconds = t1 - t0 - sum(probes)
        rates = probes or self.samples[i0 - 1 : i0]
        return seconds, seconds * PROBE_REF_S * statistics.fmean(1.0 / p for p in rates)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Checker:
    """Compares every call's exit code and stdout digest with the record."""

    def __init__(self, expected: dict[str, list] | None) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_output: dict[str, str] = {}
        self.digests: dict[str, set[str]] = {}

    def check(self, call: Call, rc: int, out: str) -> None:
        self.attempted += 1
        digest = sha256(out)
        self.first_output.setdefault(call.name, out)
        self.digests.setdefault(call.name, set()).add(digest)
        want = self.expected.get(call.name) if self.expected else None
        if want is None:
            problem = f"{call.name}: no recorded digest"
        elif [rc, digest] != want:
            problem = f"{call.name}: exit {rc} sha256 {digest[:12]}, recorded {want[0]} {want[1][:12]}"
        else:
            return
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)


def run_pass(
    cli, wl: Workload, checker: Checker, speed: SpeedSampler | None = None
) -> list[tuple[float, float]]:
    """Run every call once; with ``speed``, return each call's
    (seconds, normalized seconds)."""
    times = []
    for call in wl.calls:
        mark = speed.mark() if speed else None
        rc, out = run_call(cli, call)
        if speed:
            times.append(speed.since(mark))
        checker.check(call, rc, out)
    return times


def _data_lines(out: str) -> list[str]:
    return [ln for ln in out.splitlines() if ln and not ln.startswith("#")]


def _exact_counts(out: str) -> list[int]:
    """The exact_count column of simulate's TSV output."""
    return [int(row.split("\t")[3]) for row in _data_lines(out)[1:]]


def degeneracy_problems(wl: Workload, outputs: dict[str, str]) -> list[str]:
    """A later change must not win on a trivial instance: stats need
    min < mean < max, and simulate needs 0 < exact < N for some row."""
    problems = []
    for call in wl.calls:
        out = outputs.get(call.name, "")
        try:
            if call.command == "stats":
                values = dict(ln.split(",", 1) for ln in _data_lines(out)[1:])
                lo, mean, hi = (float(values[k]) for k in ("min_total", "mean_total", "max_total"))
                if not lo < mean < hi:
                    problems.append(f"{call.name}: degenerate stats min={lo} mean={mean} max={hi}")
            elif call.command == "simulate":
                n_nodes = wl.placements[call.placement]
                exact = _exact_counts(out)
                if not any(0 < x < n_nodes for x in exact):
                    problems.append(f"{call.name}: degenerate exact counts {exact} for N={n_nodes}")
        except (KeyError, ValueError, IndexError):
            problems.append(f"{call.name}: unparseable {call.command} output")
    return problems


def exact_fraction(wl: Workload, outputs: dict[str, str]) -> float:
    """Exact readings over readings gathered, over all simulate calls; 0.0
    when an output cannot be parsed (degeneracy_problems reports it)."""
    exact = readings = 0
    for call in wl.calls:
        if call.command == "simulate":
            try:
                counts = _exact_counts(outputs.get(call.name, ""))
            except (ValueError, IndexError):
                return 0.0
            exact += sum(counts)
            readings += len(counts) * wl.placements[call.placement]
    return exact / readings if readings else 0.0


def timing_summary(samples: list[tuple[float, float]]) -> dict:
    """Median of the normalized times, the highest percentile with at least
    ten samples beyond it (none below eleven samples), the sample count, and
    the median of the unscaled seconds."""
    ordered = sorted(norm for _, norm in samples)
    n = len(ordered)
    tail = None
    if n >= 11:
        tail = {"quantile": (n - 10) / n, "value": ordered[n - 11]}
    raw = statistics.median(sec for sec, _ in samples) if samples else None
    median = statistics.median(ordered) if n else None
    return {"median": median, "tail": tail, "n": n, "seconds_median": raw}


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def load_expected(tiny: bool, workload: str, instance: int) -> dict[str, list] | None:
    try:
        table = json.loads(EXPECTED.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    return table["tiny" if tiny else "full"].get(workload, {}).get(str(instance))


def layer_metrics(summary: dict, scale: float, scored: int, exact_frac: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; times are multiplied by
    ``scale``, the pass's normalized over plain seconds."""
    metrics = {}
    for metric in TRACED_METRICS:
        name, field = metric.rsplit(".", 1)
        value = summary.get(name, {}).get(field, 0)
        metrics[metric] = value if field == "calls" else value * scale
    search_s = metrics["schedule.schedule_stats.s"] + metrics["schedule.optimize.s"]
    metrics["schedule.schedules_scored"] = scored
    metrics["schedule.schedules_per_s"] = scored / search_s if search_s else 0.0
    metrics["simulator.exact_frac"] = exact_frac
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, dict]:
    """One benchmark run; returns (result, detail)."""
    from tracer import Tracer

    wl = build_workloads(tiny)[workload]
    instance = seed % POOL
    checker = Checker(load_expected(tiny, workload, instance))
    work = WORK / str(os.getpid())
    cwd = os.getcwd()
    setups: list[tuple[float, float]] = []
    passes: list[list[tuple[float, float]]] = []
    traced: list[list[tuple[float, float]]] = []
    summaries: list[tuple[dict, float]] = []
    missing: list[str] = []
    try:
        with SpeedSampler() as speed:
            for _ in range(SETUP_REPS):
                mark = speed.mark()
                cli = setup(workload, wl, instance, work)
                setups.append(speed.since(mark))
            modules = {n: sys.modules[f"bitgather.{n}"] for n in MODULES}
            os.chdir(work)
            run_pass(cli, wl, checker)  # warm-up, untimed
            start = time.perf_counter()
            while True:
                gc.collect()
                passes.append(run_pass(cli, wl, checker, speed))
                if trace:
                    gc.collect()
                    tracer = Tracer()
                    tracer.install(modules)
                    try:
                        traced.append(run_pass(cli, wl, checker, speed))
                    finally:
                        tracer.restore()
                    seconds_sum, normalized_sum = map(sum, zip(*traced[-1]))
                    summaries.append((tracer.summary(), normalized_sum / seconds_sum))
                    missing = tracer.missing
                if time.perf_counter() - start >= seconds:
                    break
        if not trace:  # tracemalloc slows allocation, so it gets its own pass
            gc.collect()
            tracemalloc.start()
            try:
                run_pass(cli, wl, checker)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only if no concurrent run still uses it

    def walls(pass_list):
        return [tuple(map(sum, zip(*p))) for p in pass_list]

    wall_norm = statistics.median(norm for _, norm in walls(passes))
    if trace:
        scored = sum(c.scored for c in wl.calls)
        exact = exact_fraction(wl, checker.first_output)
        samples = [layer_metrics(summary, scale, scored, exact) for summary, scale in summaries]
        metrics = {name: statistics.median_low(s[name] for s in samples) for name in samples[0]}
        traced_norm = statistics.median(norm for _, norm in walls(traced))
        metrics["trace.overhead_frac"] = traced_norm / wall_norm - 1.0
        units = {m: "count" if m.endswith(".calls") else "s" for m in TRACED_METRICS}
        units.update(DERIVED_LAYER_METRICS)
    else:
        metrics = {
            "wall_s": wall_norm,
            "setup_s": statistics.median(norm for _, norm in setups),
            "peak_mem_mb": peak / 1e6,
        }
        units = dict(END_TO_END_METRICS)

    problems = degeneracy_problems(wl, checker.first_output) + checker.problems
    unsteady = [name for name, seen in checker.digests.items() if len(seen) > 1]
    problems += [f"{name}: stdout differs between passes" for name in unsteady]
    result = {
        "correct": checker.failed == 0 and not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "instance": instance,
        "trace": int(trace),
        "placements": wl.placements,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "probe_s": {"median": statistics.median(speed.samples), "reference": PROBE_REF_S},
        "wall_s": timing_summary(walls(passes)),
        "setup_s": timing_summary(setups),
        "calls_s": {c.name: timing_summary([p[i] for p in passes]) for i, c in enumerate(wl.calls)},
        "traced_wall_s": timing_summary(walls(traced)) if trace else None,
        "failed_frac": checker.failed / checker.attempted,
        "untraced_patches": missing,
        "problems": problems,
    }
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(build_workloads()))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bitgather" / "__init__.py").is_file():
        print(f"error: no bitgather sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bitgather

    if not Path(bitgather.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported bitgather from {bitgather.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
