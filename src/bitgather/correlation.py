"""Distance-driven bit budgets: pairwise and set-conditioned.

Two model families are supported:

* PowerLawModel  — budget = min(alpha * ceil(d**beta), n), a staircase that
  grows with distance.
* GaussianDecayModel — budget = ceil(n * (1 - alpha * exp(-beta * d**2))),
  saturating at n as the correlation term decays.

Both depend on distance only, so the pairwise budget is symmetric by
construction. Both are monotone in d: non-decreasing for beta > 0,
non-increasing for beta < 0, constant for beta = 0. So a budget is a
staircase of at most n + 1 values; budget_steps tabulates its steps, and a
lookup in that table replaces a budget call per pair where it costs less
(sum_steps does the same for decay_bits over a summed decay term). One
loop, _staircase, pins the steps of both over the float bit patterns, from
a closed-form inverse of each.
Conditioning on a set of already-transmitted nodes uses one of three
rules: nearest prior node (MIN), farthest prior node (MAX), or a summed
exponential term (ADDITIVE, Gaussian-decay parameters only): the exact sum
of the prior nodes' decay terms, rounded once, so their polling order does
not matter. By monotonicity a MIN or MAX budget is the budget of one prior
node's distance, the least or the greatest.
Each model's budget(d) is a plain method, shared by pairwise_bits and
the hot loops. clamped_ceil states the rounding rule, a snapped ceiling
clamped to [0, n], once: both budgets and ADDITIVE's decay_bits call it,
so a pair's budget costs the method and that one helper.
"""

from __future__ import annotations

import math
import struct
from enum import Enum
from typing import Iterable, Union

from ._frozen import Frozen
from .topology import Topology

# Values this close to an integer are snapped before the ceiling, so that
# floating-point noise (e.g. exp(0) rounding) cannot inflate a budget by one.
CEIL_SNAP = 1e-9


class _Checked(Frozen):
    """Both families' fields (int n, float alpha and beta) and checks; errors name alpha1, beta2, ..."""

    _fields = ("n", "alpha", "beta")

    def _check(self) -> None:
        k = self._subscript
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.n > 2**53:  # budgets, sums and the mean total use float arithmetic
            raise ValueError("n must be at most 2**53")
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if not math.isfinite(value):
                raise ValueError(f"{name}{k} must be finite, got {value!r}")
        if not self.alpha > 0:
            raise ValueError(f"alpha{k} must be positive")


def _bad_distance(d: float) -> ValueError:
    need = "non-negative" if math.isfinite(d) else "finite"
    return ValueError(f"distance must be {need}, got {d!r}")


class PowerLawModel(_Checked):
    """Staircase budget: alpha * ceil(d**beta), capped at n."""

    _subscript = "1"

    def budget(self, d: float) -> int:
        if not 0.0 <= d < math.inf:
            raise _bad_distance(d)
        if d == 0 and self.beta < 0:
            raise ValueError("d = 0 with negative exponent is singular")
        try:
            x = d**self.beta
        except OverflowError:  # d**beta beyond the float range: the staircase tops out
            return self.n
        return clamped_ceil(self.alpha * clamped_ceil(x, math.inf), self.n)  # the inner ceiling is not capped

    def _crossing(self, r: float) -> float:
        """About the d where alpha * ceil(d**beta) crosses r > 0: where d**beta passes
        the last inner value that alpha times keeps at most r. Raises nothing."""
        try:
            return (r // self.alpha + CEIL_SNAP) ** (1.0 / self.beta)
        except OverflowError:
            return math.inf


class GaussianDecayModel(_Checked):
    """Saturating budget: ceil(n * (1 - alpha * exp(-beta * d**2)))."""

    _subscript = "2"

    def decay_term(self, d: float) -> float:  # saturates to inf where it overflows (beta < 0)
        try:
            return math.exp(-self.beta * d * d)
        except OverflowError:
            return math.inf

    def decay_bits(self, s: float) -> int:  # for a summed decay term s
        return clamped_ceil(self.n * (1.0 - self.alpha * s), self.n)

    def budget(self, d: float) -> int:  # decay_bits(decay_term(d)), without their two frames
        if not 0.0 <= d < math.inf:
            raise _bad_distance(d)
        try:
            s = math.exp(-self.beta * d * d)
        except OverflowError:  # the term is +inf: the budget is clamped to 0
            return 0
        return clamped_ceil(self.n * (1.0 - self.alpha * s), self.n)

    def _crossing(self, r: float) -> float:
        """About the d where n * (1 - alpha * s) crosses r in (0, n). For alpha * s in
        [0.5, 1), 1 - alpha * s is a multiple of 2**-53; 1 - r / n is put
        halfway between two, as near s = 1 one spans many floats of d."""
        t = min(math.floor(r / self.n * 2**53) + 0.5, 2**53 - 1) / 2**53
        return math.sqrt(abs((math.log1p(-t) - math.log(self.alpha)) / self.beta))


ModelSpec = Union[PowerLawModel, GaussianDecayModel]


class ConditioningRule(Enum):
    MIN = "min"
    MAX = "max"
    ADDITIVE = "additive"


def clamped_ceil(raw: float, n: int) -> int:
    """Whole bits for a raw budget: its snapped ceiling clamped to [0, n].

    The one rounding rule: both budgets and decay_bits call it. +inf gives n
    and -inf gives 0, the exact clamped values, so an overflow upstream can
    pass on an infinity; n = inf leaves the ceiling uncapped.
    """
    if raw >= n:
        return n
    if raw <= 0:
        return 0
    k = round(raw)
    return k if abs(raw - k) <= CEIL_SNAP else math.ceil(raw)


def pairwise_bits(model: ModelSpec, d: float) -> int:
    """Bits a node must transmit given one other node's data, at distance d.

    Always in [0, n]. Raises on non-finite or negative d, and on the
    singular 0**beta case for negative power-law exponents.
    """
    return model.budget(d)


# The bit patterns of the non-negative floats order them: 0 is 0.0, 1 the
# smallest positive float and _TOP the largest finite one.
_TOP = 0x7FEFFFFFFFFFFFFF


def _float(bits: int) -> float:
    return struct.unpack("d", struct.pack("Q", bits))[0]


def _staircase(f, lo: int, v: int, hi: int, top: int, seed=None) -> tuple[list[float], list[int]]:
    """The steps of a monotone f over the float bit patterns (lo, hi], f(lo) = v
    and f(hi) = top: each step's least pattern as a float, and [v, the value
    past each]. Each step is pinned from the last, galloping out from seed(r)
    clamped into the bracket, r the raw value past which clamped_ceil leaves
    v, else bisecting (at most 63 calls a step) up to the least probe known
    to lie past it; no call is repeated."""
    steps, vals, past = [], [v], [(hi, top)]  # (pattern, value) of each probe past a step to come, least last
    while v != top:
        hi, vh = past.pop()  # the least pattern known past this step
        probe, gap = lo, 1  # lo is outside the open bracket: bisect
        if seed is not None:
            r = v + CEIL_SNAP if top > v else v - 1 + CEIL_SNAP
            probe = min(max(struct.unpack("Q", struct.pack("d", seed(r)))[0], lo + 1), hi - 1)
        while hi - lo > 1:
            if not lo < probe < hi:  # the gallop left (lo, hi): bisect from here on
                probe, gap = (lo + hi) // 2, 0
            vp = f(struct.unpack("d", struct.pack("Q", probe))[0])
            if vp == v:
                lo, probe = probe, probe + gap
            else:
                if vp != vh:  # the old bound lies past the step to vp
                    past.append((hi, vh))
                hi, vh, probe = probe, vp, probe - gap
            gap *= 2
        steps.append(_float(hi))
        vals.append(vh)
        lo, v = hi, vh
    return steps, vals


def budget_steps(model: ModelSpec, zero: bool, pairs: float) -> tuple[list[float], list[int]] | None:
    """The budget staircase, where it costs fewer budget calls than the
    `pairs` it replaces: budget(d) == vals[bisect_right(steps, d)] for every
    finite d > 0, and for d = 0 when `zero` is set; else None.

    Two calls ask the budget at both ends of the range, 0.0 when `zero` is
    set (which raises where budget(0) is singular) else the smallest
    positive float, and the largest float. Where they agree the budget is
    constant between them, and the staircase is ([], [v]) at any `pairs`.
    Else _staircase pins each step with model.budget as the oracle,
    galloping out from the model's closed-form inverse: a few calls a step
    on most models, and about bisection's 63 where the budget's rounding
    puts a step far from that inverse (just past d = 0, where exp(-beta *
    d * d) is near 1). The gate keeps bisection's bound, 64n + 2 with the
    ends: the staircase is built only where that is below `pairs`.
    """
    budget, lo = model.budget, 0 if zero else 1
    v_lo, v_top = budget(_float(lo)), budget(_float(_TOP))
    if v_lo == v_top:
        return [], [v_lo]
    if 64 * model.n + 2 >= pairs:
        return None
    return _staircase(budget, lo, v_lo, _TOP, v_top, model._crossing)


def sum_steps(model: GaussianDecayModel) -> list[float]:
    """decay_bits' staircase over a summed decay term: decay_bits(s) ==
    n - bisect_right(steps, s) for every s in [0, inf], steps[j] the least s
    with decay_bits(s) < n - j (inf past the largest float, whose pattern
    follows). _staircase pins them with decay_bits as the oracle, galloping
    out from where n * (1 - alpha * s) crosses the next value plus
    CEIL_SNAP: a few calls a step.
    """
    n, alpha = model.n, model.alpha
    seed = lambda r: (1.0 - r / n) / alpha
    steps, vals = _staircase(model.decay_bits, 0, n, _TOP + 1, 0, seed)
    return [step for step, a, b in zip(steps, vals, vals[1:]) for _ in range(a - b)]


def decay_sum(terms: Iterable[float]) -> float:
    """The exact sum of non-negative decay terms rounded once; inf past the float range."""
    terms = [*terms]  # list() would not reuse CPython's cache of freed lists, and so fill it
    try:
        return math.fsum(terms)
    except OverflowError:  # fsum can overflow midway on a sum that rounds to the largest float
        from fractions import Fraction  # only here, so a start-up loads no fractions or decimal

        try:  # Fraction(inf), and an exact sum past the float range, raise OverflowError
            return float(sum(map(Fraction, terms)))  # int / int: correctly rounded
        except OverflowError:
            return math.inf


def conditioned_bits(
    model: ModelSpec,
    rule: ConditioningRule,
    topology: Topology,
    i: int,
    prior: Iterable[int],
) -> int:
    """Bits node i must transmit given the nodes in `prior` already have.

    An empty prior set means i transmits everything (n bits). The ADDITIVE
    rule requires Gaussian-decay parameters and costs the decay_sum of the
    prior nodes' terms; MIN/MAX work with either model. The tests use this
    direct definition as the oracle for schedule.py.
    """
    prior_set = set(prior)
    if i in prior_set:
        raise ValueError(f"node {i} cannot condition on itself")
    topology.distance(i, i)  # index check
    if not prior_set:
        return model.n

    if rule is ConditioningRule.ADDITIVE:
        require_decay(model)
        terms = [model.decay_term(topology.distance(i, j)) for j in prior_set]
        return model.decay_bits(decay_sum(terms))

    budgets = [pairwise_bits(model, topology.distance(i, j)) for j in prior_set]
    return min(budgets) if rule is ConditioningRule.MIN else max(budgets)


def require_decay(model: ModelSpec) -> None:
    if not isinstance(model, GaussianDecayModel):
        raise ValueError("additive rule requires Gaussian-decay parameters")
