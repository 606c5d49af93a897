import math
import random

import pytest

from bitgather import (
    ConditioningRule,
    GaussianDecayModel,
    PowerLawModel,
    Topology,
    conditioned_bits,
    pairwise_bits,
)

from conftest import random_topology

MIN, MAX, ADD = ConditioningRule.MIN, ConditioningRule.MAX, ConditioningRule.ADDITIVE


def random_model(rng):
    if rng.random() < 0.5:
        return PowerLawModel(
            n=rng.randint(1, 16), alpha=rng.uniform(0.1, 3.0), beta=rng.uniform(0.2, 2.5)
        )
    return GaussianDecayModel(
        n=rng.randint(1, 16), alpha=rng.uniform(0.1, 3.0), beta=rng.uniform(0.05, 4.0)
    )


class TestPairwise:
    def test_staircase_values(self):
        m = PowerLawModel(n=5, alpha=1.0, beta=1.0)
        assert pairwise_bits(m, 3.4) == 4
        assert pairwise_bits(m, 7.0) == 5  # clipped at n
        assert pairwise_bits(m, 0.0) == 0

    def test_gaussian_decay_values(self):
        m = GaussianDecayModel(n=5, alpha=1.0, beta=1.0)
        assert pairwise_bits(m, 0.0) == 0
        assert pairwise_bits(m, 1.0) == 4  # ceil(5 * (1 - e^-1))
        assert pairwise_bits(m, 10.0) == 5  # saturated

    def test_fractional_alpha_rounds_up_to_whole_bits(self):
        m = PowerLawModel(n=5, alpha=0.5, beta=1.0)
        assert pairwise_bits(m, 1.0) == 1  # 0.5 * ceil(1) -> ceil(0.5)

    def test_over_unit_alpha_clamps_to_zero(self):
        m = GaussianDecayModel(n=5, alpha=2.0, beta=1.0)
        assert pairwise_bits(m, 0.0) == 0  # raw value is -5

    def test_ceiling_snap_guard(self):
        # 1.1 * 10 is 11.000000000000002 in floats; must cost 11 bits, not 12
        m = PowerLawModel(n=20, alpha=1.1, beta=1.0)
        assert pairwise_bits(m, 10.0) == 11

    def test_invalid_distance(self):
        m = PowerLawModel(n=5, alpha=1.0, beta=1.0)
        for bad in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError):
                pairwise_bits(m, bad)

    def test_zero_distance_negative_exponent_is_singular(self):
        m = PowerLawModel(n=5, alpha=1.0, beta=-1.0)
        with pytest.raises(ValueError, match="singular"):
            pairwise_bits(m, 0.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PowerLawModel(n=0, alpha=1.0, beta=1.0)
        with pytest.raises(ValueError):
            PowerLawModel(n=5, alpha=0.0, beta=1.0)
        with pytest.raises(ValueError):
            GaussianDecayModel(n=5, alpha=-1.0, beta=1.0)

    def test_non_finite_parameters_rejected_by_name(self):
        for cls, k in ((PowerLawModel, "1"), (GaussianDecayModel, "2")):
            for name in ("alpha", "beta"):
                for bad in (math.inf, -math.inf, math.nan):
                    params = {"n": 5, "alpha": 1.0, "beta": 1.0, name: bad}
                    with pytest.raises(ValueError, match=f"{name}{k} must be finite"):
                        cls(**params)

    def test_overflow_saturates_to_the_clamp(self):
        # d**beta and exp(-beta * d**2) overflow: the exact budgets are n and 0
        assert pairwise_bits(PowerLawModel(n=5, alpha=1.0, beta=400.0), 10.0) == 5
        assert pairwise_bits(PowerLawModel(n=5, alpha=1.0, beta=-400.0), 0.01) == 5
        assert pairwise_bits(PowerLawModel(n=5, alpha=1e308, beta=2.0), 1e3) == 5
        assert pairwise_bits(GaussianDecayModel(n=5, alpha=1.0, beta=-1000.0), 10.0) == 0
        topo = Topology.from_positions([(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)])
        m = GaussianDecayModel(n=5, alpha=1e308, beta=-1.0)
        assert conditioned_bits(m, ADD, topo, 1, {0, 2}) == 0

    def test_symmetry_1000_draws(self):
        # budgets depend on distance only, so d_ij and d_ji agree exactly
        rng = random.Random(2)
        for _ in range(1000):
            m = random_model(rng)
            x0, y0 = rng.uniform(-10, 10), rng.uniform(-10, 10)
            x1, y1 = rng.uniform(-10, 10), rng.uniform(-10, 10)
            d_ij = math.hypot(x1 - x0, y1 - y0)
            d_ji = math.hypot(x0 - x1, y0 - y1)
            assert pairwise_bits(m, d_ij) == pairwise_bits(m, d_ji)

    def test_range_property(self):
        rng = random.Random(3)
        for _ in range(500):
            m = random_model(rng)
            b = pairwise_bits(m, rng.uniform(0, 50))
            assert 0 <= b <= m.n

    def test_monotone_in_distance(self):
        rng = random.Random(4)
        for _ in range(300):
            if rng.random() < 0.5:
                m = PowerLawModel(
                    n=rng.randint(1, 12),
                    alpha=rng.uniform(0.1, 3.0),
                    beta=rng.uniform(0.1, 3.0),
                )
            else:
                m = GaussianDecayModel(
                    n=rng.randint(1, 12),
                    alpha=rng.uniform(0.05, 1.0),
                    beta=rng.uniform(0.05, 3.0),
                )
            d1, d2 = sorted((rng.uniform(0, 20), rng.uniform(0, 20)))
            assert pairwise_bits(m, d1) <= pairwise_bits(m, d2)

    def test_linearization_of_gaussian_decay(self):
        # small beta * d^2 with alpha = 1: budget tracks ceil(n * beta * d^2),
        # and a power-law model with alpha = n * beta, exponent 2 agrees to
        # within the ceiling granularity
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 16)
            beta = rng.uniform(1e-5, 1e-3)
            d = rng.uniform(0.0, math.sqrt(0.01 / beta))
            g = pairwise_bits(GaussianDecayModel(n=n, alpha=1.0, beta=beta), d)
            linear = math.ceil(n * beta * d * d)
            assert abs(g - linear) <= 1
            p = pairwise_bits(PowerLawModel(n=n, alpha=n * beta, beta=2.0), d)
            assert abs(g - p) <= 1


class TestConditioned:
    def test_empty_prior_transmits_everything(self, collinear3, unit_staircase):
        for rule in (MIN, MAX):
            assert conditioned_bits(unit_staircase, rule, collinear3, 1, []) == 5
        m2 = GaussianDecayModel(n=5, alpha=1.0, beta=1.0)
        assert conditioned_bits(m2, ADD, collinear3, 1, []) == 5

    def test_min_max_on_two_priors(self, unit_staircase):
        topo = Topology.from_positions([(0.0, 0.0), (1.2, 0.0), (6.0, 0.0)])
        assert conditioned_bits(unit_staircase, MIN, topo, 0, {1, 2}) == 2
        assert conditioned_bits(unit_staircase, MAX, topo, 0, {1, 2}) == 5

    def test_additive_negative_sum_clamps_to_zero(self):
        m = GaussianDecayModel(n=5, alpha=1.0, beta=1.0)
        topo = Topology.from_positions([(0.0, 0.0), (0.5, 0.0), (-0.5, 0.0)])
        # 5 * (1 - 2 e^-0.25) = -2.79, clamped
        assert conditioned_bits(m, ADD, topo, 0, {1, 2}) == 0

    def test_self_conditioning_rejected(self, collinear3, unit_staircase):
        with pytest.raises(ValueError, match="itself"):
            conditioned_bits(unit_staircase, MIN, collinear3, 1, {1, 2})

    def test_additive_needs_gaussian_parameters(self, collinear3, unit_staircase):
        with pytest.raises(ValueError, match="additive"):
            conditioned_bits(unit_staircase, ADD, collinear3, 0, {1})

    def test_singleton_prior_equals_pairwise(self):
        rng = random.Random(6)
        for _ in range(200):
            topo = random_topology(rng, rng.randint(2, 8))
            m2 = GaussianDecayModel(
                n=rng.randint(1, 12), alpha=rng.uniform(0.1, 2.0), beta=rng.uniform(0.1, 2.0)
            )
            i, j = rng.sample(range(topo.size), 2)
            expected = pairwise_bits(m2, topo.distance(i, j))
            for rule in (MIN, MAX, ADD):
                assert conditioned_bits(m2, rule, topo, i, {j}) == expected

    def test_prior_set_monotonicity(self):
        # MIN and ADDITIVE budgets never grow when the prior set grows;
        # MAX never shrinks
        rng = random.Random(7)
        for _ in range(200):
            topo = random_topology(rng, rng.randint(3, 9))
            m2 = GaussianDecayModel(
                n=rng.randint(1, 12), alpha=rng.uniform(0.1, 2.0), beta=rng.uniform(0.1, 2.0)
            )
            i = rng.randrange(topo.size)
            others = [v for v in range(topo.size) if v != i]
            big = set(rng.sample(others, rng.randint(1, len(others))))
            small = set(rng.sample(sorted(big), rng.randint(0, len(big) - 1)))
            for rule in (MIN, ADD):
                assert conditioned_bits(m2, rule, topo, i, big) <= conditioned_bits(
                    m2, rule, topo, i, small
                )
            # MAX monotonicity holds over non-empty sets; the empty-prior
            # convention (transmit everything) sits above any single budget
            if small:
                assert conditioned_bits(m2, MAX, topo, i, big) >= conditioned_bits(
                    m2, MAX, topo, i, small
                )
