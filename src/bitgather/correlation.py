"""Distance-driven bit budgets: pairwise and set-conditioned.

Two model families are supported:

* PowerLawModel  — budget = min(alpha * ceil(d**beta), n), a staircase that
  grows with distance.
* GaussianDecayModel — budget = ceil(n * (1 - alpha * exp(-beta * d**2))),
  saturating at n as the correlation term decays.

Both depend on distance only, so the pairwise budget is symmetric by
construction. Conditioning on a set of already-transmitted nodes uses one
of three rules: nearest prior node (MIN), farthest prior node (MAX), or a
summed exponential term (ADDITIVE, Gaussian-decay parameters only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import ClassVar, Iterable, Union

from .topology import Topology

# Values this close to an integer are snapped before the ceiling, so that
# floating-point noise (e.g. exp(0) rounding) cannot inflate a budget by one.
CEIL_SNAP = 1e-9


def guarded_ceil(x: float) -> int:
    nearest = round(x)
    if abs(x - nearest) <= CEIL_SNAP:
        return int(nearest)
    return math.ceil(x)


class _Checked:
    """Validation shared by both families; errors name alpha1, beta2, ..."""

    def __post_init__(self) -> None:
        k = self._subscript
        if self.n < 1:
            raise ValueError("n must be >= 1")
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not math.isfinite(value):
                raise ValueError(f"{name}{k} must be finite, got {value!r}")
        if not self.alpha > 0:
            raise ValueError(f"alpha{k} must be positive")


@dataclass(frozen=True)
class PowerLawModel(_Checked):
    """Staircase budget: alpha * ceil(d**beta), capped at n."""

    n: int
    alpha: float
    beta: float
    _subscript: ClassVar[str] = "1"


@dataclass(frozen=True)
class GaussianDecayModel(_Checked):
    """Saturating budget: ceil(n * (1 - alpha * exp(-beta * d**2)))."""

    n: int
    alpha: float
    beta: float
    _subscript: ClassVar[str] = "2"


ModelSpec = Union[PowerLawModel, GaussianDecayModel]


class ConditioningRule(Enum):
    MIN = "min"
    MAX = "max"
    ADDITIVE = "additive"


def clamped_ceil(raw: float, n: int) -> int:
    """Whole bits for a raw budget: its snapped ceiling clamped to [0, n].

    Every budget is rounded here. +inf gives n and -inf gives 0, the exact
    clamped values, so an overflow upstream can pass on an infinity.
    """
    return n if raw >= n else 0 if raw <= 0 else guarded_ceil(raw)


def decay_term(model: GaussianDecayModel, d: float) -> float:
    """exp(-beta * d**2), saturating to inf where it overflows (beta < 0)."""
    try:
        return math.exp(-model.beta * d * d)
    except OverflowError:
        return math.inf


def decay_bits(model: GaussianDecayModel, s: float) -> int:
    """Budget ceil(n * (1 - alpha * s)) for a summed decay term s."""
    return clamped_ceil(model.n * (1.0 - model.alpha * s), model.n)


def pairwise_bits(model: ModelSpec, d: float) -> int:
    """Bits a node must transmit given one other node's data, at distance d.

    Always in [0, n]. Raises on non-finite or negative d, and on the
    singular 0**beta case for negative power-law exponents.
    """
    if not math.isfinite(d):
        raise ValueError(f"distance must be finite, got {d!r}")
    if d < 0:
        raise ValueError(f"distance must be non-negative, got {d!r}")
    if isinstance(model, GaussianDecayModel):
        return decay_bits(model, decay_term(model, d))
    if d == 0 and model.beta < 0:
        raise ValueError("d = 0 with negative exponent is singular")
    try:
        raw = model.alpha * guarded_ceil(d**model.beta)
    except OverflowError:  # d**beta beyond the float range: the staircase tops out
        raw = math.inf
    return clamped_ceil(raw, model.n)


def conditioned_bits(
    model: ModelSpec,
    rule: ConditioningRule,
    topology: Topology,
    i: int,
    prior: Iterable[int],
) -> int:
    """Bits node i must transmit given the nodes in `prior` already have.

    An empty prior set means i transmits everything (n bits). The ADDITIVE
    rule requires Gaussian-decay parameters; MIN/MAX work with either model.
    The tests use this direct definition as the oracle for schedule.py.
    """
    prior_set = set(prior)
    if i in prior_set:
        raise ValueError(f"node {i} cannot condition on itself")
    topology.distance(i, i)  # index check
    if not prior_set:
        return model.n

    if rule is ConditioningRule.ADDITIVE:
        require_decay(model)
        s = sum(decay_term(model, topology.distance(i, j)) for j in prior_set)
        return decay_bits(model, s)

    budgets = [pairwise_bits(model, topology.distance(i, j)) for j in prior_set]
    return min(budgets) if rule is ConditioningRule.MIN else max(budgets)


def require_decay(model: ModelSpec) -> None:
    if not isinstance(model, GaussianDecayModel):
        raise ValueError("additive rule requires Gaussian-decay parameters")
