"""Synthetic correlated fields and end-to-end gathering runs.

The field generator seeds node 0 with a uniform n-bit value and assigns
the rest in increasing distance from node 0: each node gets a value within
+/- ceil(L * d) of its nearest already-assigned node, where d is that
distance and L tunes smoothness (L = 0 gives a constant field). This gives
a Lipschitz-style bound tying data deltas to distance, the same premise
the budget models encode. The order and the links depend on the layout
alone, so every field draws along one cached plan (Topology.field_plan).
Each draw is random.randint's, made inline from getrandbits by the rule
randrange uses, so a field rests on random.Random(seed).getrandbits alone.

A gather run walks a schedule, budgets each node against the already
polled set, sends the low bits, and decodes against the reconstructed
reading of the nearest prior node. Reconstructed (not true) readings feed
later references, so decoding errors propagate as they would in a real
collector. Budgets and references are data-independent, so one walk per
schedule gives both: the bit report is schedule.evaluate's, and each node's
reference is its nearest earlier node by (distance, id), Topology.nearest_links'.
The decode loop runs on plain ints: each node's payload is its reading's low
bits, decoded by codec.nearest, the rule codec.decode applies to a Reading.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, NamedTuple, Sequence

# encode and decode are unused here but stay bound: bench/tracer.py patches them.
from .codec import Reading, decode, encode, nearest  # noqa: F401
# conditioned_bits is unused here but stays bound: bench/tracer.py patches it.
from .correlation import ConditioningRule, ModelSpec, conditioned_bits  # noqa: F401
from .schedule import BitReport, _walk
from .topology import Topology


class SensorField(NamedTuple):
    readings: tuple[int, ...]
    width: int
    smoothness: float
    seed: int


class GatherResult(NamedTuple):
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
    # randint(lo, lo + w - 1) is lo plus the first of getrandbits(w.bit_length())
    # draws that is below w: the same numbers, without randint's three frames
    getrandbits = random.Random(seed).getrandbits
    top = (1 << n) - 1
    readings = [0] * topology.size
    value = getrandbits(n + 1)  # w = top + 1
    while value > top:
        value = getrandbits(n + 1)
    readings[0] = value
    for v, near, d in topology.field_plan:
        reach = smoothness * d
        if reach == math.inf:
            raise ValueError(f"smoothness {smoothness!r} overflows the field spread")
        spread = math.ceil(reach)
        w = 2 * spread + 1
        k = w.bit_length()
        r = getrandbits(k)
        while r >= w:
            r = getrandbits(k)
        value = readings[near] + r - spread
        readings[v] = 0 if value < 0 else top if value > top else value
    return SensorField(
        readings=tuple(readings), width=n, smoothness=smoothness, seed=seed
    )


def _walk_references(
    model: ModelSpec, rule: ConditioningRule, topology: Topology, schedule: Sequence[int]
) -> tuple[BitReport, list[int]]:
    """evaluate's report, and each node's decode reference: its nearest earlier
    node by (distance, id), from Topology.nearest_links; -1 for the first.
    Where the nearest partner sets the budgets, the walk's own links serve."""
    report, links = _walk(model, rule, topology, schedule)  # checks the schedule
    return report, [u for _, u in links or topology.nearest_links([v for v, _ in report.per_node])]


def _decode_all(report: BitReport, refs: Sequence[int], field: SensorField) -> GatherResult:
    """Reconstruct every reading along a walked schedule and its decode references."""
    n, truths = field.width, field.readings
    recon = list(truths)  # the first node sends all n bits: exact
    for (node, bits), ref in zip(report.per_node[1:], refs[1:]):
        recon[node] = nearest(recon[ref], truths[node] & ((1 << bits) - 1), bits, n)
    errors = [abs(a - b) for a, b in zip(recon, truths)]
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
    """Run one full collection pass and report bits spent and fidelity: one
    walk of the schedule gives the budgets and the decode references."""
    if len(field.readings) != topology.size:
        raise ValueError(
            f"field has {len(field.readings)} readings for {topology.size} nodes"
        )
    if field.width != model.n:
        raise ValueError(f"field width {field.width} != model n {model.n}")
    top = 1 << field.width  # the decode loop takes the readings as plain ints; Reading rejects a bad one
    for value in field.readings:
        if not 0 <= value < top:
            Reading(value, field.width)
    return _decode_all(*_walk_references(model, rule, topology, schedule), field)


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
    walked once, the same walk gather makes, and every field is decoded
    against it.
    """
    l_values = list(smoothness_values)
    seed_values = list(seeds)
    if not l_values or not seed_values:
        raise ValueError("sweep needs at least one smoothness value and one seed")
    report, refs = _walk_references(model, rule, topology, schedule)
    rows = []
    for smoothness in l_values:
        for seed in seed_values:
            result = _decode_all(report, refs, generate_field(topology, model.n, smoothness, seed))
            rows.append(
                (smoothness, seed, report.total, result.exact_count, result.max_abs_error)
            )
    return rows
