"""Spans and counters around calls into bitgather's public functions.

The tracer patches functions in the module namespaces where callers look
them up (``from .schedule import optimize`` in ``cli`` binds its own name,
so ``cli.optimize`` is patched as well as ``schedule.optimize``). Outer
calls become spans with a parent; hot leaf functions are aggregated as a
call count plus total seconds. Everything stays in memory until
``summary()``; ``restore()`` puts every original back.
"""

from __future__ import annotations

import time
from types import ModuleType

# (module, attribute, metric name). Spans are recorded one per call.
SPAN_TARGETS = [
    ("cli", "main", "cli.main"),
    ("cli", "load_topology", "topology.load_topology"),
    ("topology", "Topology.from_positions", "topology.from_positions"),
    ("schedule", "budget_matrix", "schedule.budget_matrix"),
    ("cli", "evaluate", "schedule.evaluate"),
    ("schedule", "evaluate", "schedule.evaluate"),
    ("cli", "schedule_stats", "schedule.schedule_stats"),
    ("cli", "optimize", "schedule.optimize"),
    ("simulator", "generate_field", "simulator.generate_field"),
    ("simulator", "gather", "simulator.gather"),
]

# Leaves are called up to millions of times per pass: count and time only.
LEAF_TARGETS = [
    ("cli", "pairwise_bits", "correlation.pairwise_bits"),
    ("schedule", "pairwise_bits", "correlation.pairwise_bits"),
    ("correlation", "pairwise_bits", "correlation.pairwise_bits"),
    ("schedule", "conditioned_bits", "correlation.conditioned_bits"),
    ("simulator", "conditioned_bits", "correlation.conditioned_bits"),
    ("simulator", "encode", "codec.encode"),
    ("simulator", "decode", "codec.decode"),
]

# Span record fields (lists, not objects, to keep the wrapper cheap).
_NAME, _PARENT, _START, _END, _LEAF_S = range(5)


class Tracer:
    """Install with ``install(modules)``; always pair with ``restore()``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.leaves: dict[str, list] = {}  # name -> [calls, seconds]
        self.missing: list[str] = []  # targets the program no longer has
        self._stack: list[int] = []
        self._leaf_depth = [0]
        self._patches: list[tuple[object, str, object]] = []

    def install(self, modules: dict[str, ModuleType]) -> None:
        for targets, make in ((SPAN_TARGETS, self._span), (LEAF_TARGETS, self._leaf)):
            for module_name, attr, metric in targets:
                owner = modules[module_name]
                *path, leaf_attr = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner).get(leaf_attr)
                if raw is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(make(metric, raw.__func__))
                else:
                    wrapped = make(metric, raw)
                self._patches.append((owner, leaf_attr, raw))
                setattr(owner, leaf_attr, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[_END] = clock()
                stack.pop()

        return wrapper

    def _leaf(self, name: str, fn):
        counter = self.leaves.setdefault(name, [0, 0.0])
        spans, stack, depth, clock = self.spans, self._stack, self._leaf_depth, time.perf_counter

        def wrapper(*args, **kwargs):
            depth[0] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[0] -= 1
                counter[0] += 1
                counter[1] += dt
                # Only the outermost leaf counts against the enclosing span,
                # so pairwise_bits inside conditioned_bits is not subtracted twice.
                if depth[0] == 0 and stack:
                    spans[stack[-1]][_LEAF_S] += dt

        return wrapper

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls, inclusive seconds ``s`` and, for spans, ``self_s``.

        Self time is a span's duration minus the time its child spans and
        outermost leaf calls cover.
        """
        covered = [rec[_LEAF_S] for rec in self.spans]
        for rec in self.spans:
            if rec[_PARENT] >= 0:
                covered[rec[_PARENT]] += rec[_END] - rec[_START]
        out: dict[str, dict[str, float]] = {}
        for rec, cov in zip(self.spans, covered):
            entry = out.setdefault(rec[_NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
            duration = rec[_END] - rec[_START]
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - cov
        for name, (calls, seconds) in self.leaves.items():
            out[name] = {"calls": calls, "s": seconds}
        return out
