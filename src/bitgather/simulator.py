"""Synthetic correlated fields and end-to-end gathering runs.

The field generator seeds node 0 with a uniform n-bit value and assigns
the rest in increasing distance from node 0: each node gets a value within
+/- ceil(L * d) of its nearest already-assigned node, where d is that
distance and L tunes smoothness (L = 0 gives a constant field). This gives
a Lipschitz-style bound tying data deltas to distance, the same premise
the budget models encode.

A gather run walks a schedule, budgets each node against the already
polled set, encodes the low bits, and decodes against the reconstructed
reading of the nearest prior node. Reconstructed (not true) readings feed
later references, so decoding errors propagate as they would in a real
collector. Budgets are data-independent: the bit report always matches
schedule.evaluate on the same inputs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .codec import Reading, decode, encode
# conditioned_bits is unused here but stays bound: bench/tracer.py patches it.
from .correlation import ConditioningRule, ModelSpec, conditioned_bits  # noqa: F401
from .schedule import BitReport, _walk
from .topology import Topology


@dataclass(frozen=True)
class SensorField:
    readings: tuple[int, ...]
    width: int
    smoothness: float
    seed: int


@dataclass(frozen=True)
class GatherResult:
    bit_report: BitReport
    reconstructed: tuple[int, ...]
    exact_count: int
    max_abs_error: int


def generate_field(
    topology: Topology, n: int, smoothness: float, seed: int
) -> SensorField:
    """Deterministic correlated field over the topology's nodes."""
    if not math.isfinite(smoothness):
        raise ValueError(f"smoothness must be finite, got {smoothness!r}")
    if smoothness < 0:
        raise ValueError("smoothness must be >= 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    top = (1 << n) - 1
    n_nodes = topology.size
    readings: list[int | None] = [None] * n_nodes
    readings[0] = rng.randint(0, top)
    # assignment order: increasing distance from the seed node, ties by id
    rest = sorted(range(1, n_nodes), key=lambda v: (topology.distance(0, v), v))
    assigned = [0]
    for v in rest:
        nearest = min(assigned, key=lambda u: (topology.distance(v, u), u))
        reach = smoothness * topology.distance(v, nearest)
        if reach == math.inf:
            raise ValueError(f"smoothness {smoothness!r} overflows the field spread")
        spread = math.ceil(reach)
        value = readings[nearest] + rng.randint(-spread, spread)
        readings[v] = max(0, min(value, top))
        assigned.append(v)
    return SensorField(
        readings=tuple(readings), width=n, smoothness=smoothness, seed=seed
    )


def _decode_all(report: BitReport, refs: Sequence[int], field: SensorField) -> GatherResult:
    """Reconstruct every reading along a walked schedule."""
    n = field.width
    recon = list(field.readings)  # the first node sends all n bits: exact
    for k, ((node, bits), ref) in enumerate(zip(report.per_node, refs)):
        if k:
            truth = Reading(field.readings[node], n)
            recon[node] = decode(Reading(recon[ref], n), encode(truth, bits)).value
    errors = [abs(a - b) for a, b in zip(recon, field.readings)]
    return GatherResult(
        bit_report=report,
        reconstructed=tuple(recon),
        exact_count=errors.count(0),
        max_abs_error=max(errors),
    )


def gather(
    model: ModelSpec,
    rule: ConditioningRule,
    topology: Topology,
    schedule: Sequence[int],
    field: SensorField,
) -> GatherResult:
    """Run one full collection pass and report bits spent and fidelity."""
    if len(field.readings) != topology.size:
        raise ValueError(
            f"field has {len(field.readings)} readings for {topology.size} nodes"
        )
    if field.width != model.n:
        raise ValueError(f"field width {field.width} != model n {model.n}")
    return _decode_all(*_walk(model, rule, topology, schedule), field)


def fidelity_sweep(
    model: ModelSpec,
    rule: ConditioningRule,
    topology: Topology,
    schedule: Sequence[int],
    smoothness_values: Iterable[float],
    seeds: Iterable[int],
) -> list[tuple[float, int, int, int, int]]:
    """(L, seed, total_bits, exact_count, max_abs_error) per combination.

    Budgets and references do not depend on the data, so the schedule is
    walked once and every field is decoded against that walk.
    """
    l_values = list(smoothness_values)
    seed_values = list(seeds)
    if not l_values or not seed_values:
        raise ValueError("sweep needs at least one smoothness value and one seed")
    report, refs = _walk(model, rule, topology, schedule)
    rows = []
    for smoothness in l_values:
        for seed in seed_values:
            result = _decode_all(report, refs, generate_field(topology, model.n, smoothness, seed))
            rows.append(
                (smoothness, seed, report.total, result.exact_count, result.max_abs_error)
            )
    return rows
