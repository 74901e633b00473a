"""Property-based tests (hypothesis) for the sequential-stopping stats.

The steering layer stops a campaign when a Wilson interval gets tight
enough (docs/steering.md); these tests pin the interval's invariants —
containment, monotonicity in ``n`` — and check that the sequential
stopping rule keeps near-nominal coverage on simulated Bernoulli
streams, which is the property the early-stop contract rests on.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import (
    hoeffding_halfwidth,
    stratified_estimate,
    wilson_halfwidth,
    wilson_interval,
)
from repro.runtime.stats import normal_quantile, z_value


class TestNormalQuantile:
    def test_known_points(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-9)
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
        assert z_value(0.95) == pytest.approx(1.959964, abs=1e-5)
        assert z_value(0.99) == pytest.approx(2.575829, abs=1e-5)

    @given(st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=40, deadline=None)
    def test_inverts_cdf(self, p):
        x = normal_quantile(p)
        assert 0.5 * (1 + math.erf(x / math.sqrt(2))) == pytest.approx(
            p, abs=1e-9
        )

    def test_rejects_endpoints(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                normal_quantile(bad)


class TestWilsonInterval:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=10_000),
        st.floats(min_value=0.5, max_value=0.999),
    )
    @settings(max_examples=80, deadline=None)
    def test_contained_in_unit_interval_and_brackets_p_hat(
        self, successes, n, confidence
    ):
        successes = min(successes, n)
        lo, hi = wilson_interval(successes, n, confidence)
        p_hat = successes / n
        assert 0.0 <= lo <= p_hat <= hi <= 1.0

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=5_000),
        st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=80, deadline=None)
    def test_halfwidth_monotone_in_n_at_fixed_rate(self, p_hat, n, factor):
        # More observations at the same rate can only tighten the CI.
        small = wilson_halfwidth(p_hat * n, n)
        large = wilson_halfwidth(p_hat * n * factor, n * factor)
        assert large <= small + 1e-12

    def test_vacuous_at_n_zero(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError):
            wilson_interval(-1, 4)
        with pytest.raises(ValueError):
            wilson_interval(0, -1)


class TestHoeffding:
    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_bounded_and_looser_than_wilson_needs_no_rate(self, n):
        hw = hoeffding_halfwidth(n)
        assert 0.0 < hw <= 1.0
        assert hoeffding_halfwidth(4 * n) <= hw

    def test_exact_form(self):
        n = 200
        expected = math.sqrt(math.log(2 / 0.05) / (2 * n))
        assert hoeffding_halfwidth(n, 0.95) == pytest.approx(expected)


class TestStratifiedEstimate:
    def test_single_stratum_matches_plain_rate(self):
        estimate, hw = stratified_estimate([1.0], [30], [100])
        assert estimate == pytest.approx(0.3)
        assert hw > 0

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=50),  # weight share
                st.integers(min_value=1, max_value=200),  # n_s
                st.floats(min_value=0.0, max_value=1.0),  # rate
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_estimate_is_weighted_mean_in_unit_interval(self, strata):
        total = sum(w for w, _, _ in strata)
        weights = [w / total for w, _, _ in strata]
        counts = [n for _, n, _ in strata]
        failures = [round(n * r) for _, n, r in strata]
        estimate, hw = stratified_estimate(weights, failures, counts)
        expected = sum(
            q * f / n for q, f, n in zip(weights, failures, counts)
        )
        assert estimate == pytest.approx(min(max(expected, 0.0), 1.0))
        assert 0.0 <= estimate <= 1.0 and hw >= 0.0

    def test_allocation_invariance_of_the_estimate(self):
        # Doubling one stratum's sample at the same rate moves the
        # variance, never the estimate (post-stratification).
        base, _ = stratified_estimate([0.5, 0.5], [10, 40], [100, 100])
        skewed, _ = stratified_estimate([0.5, 0.5], [20, 40], [200, 100])
        assert skewed == pytest.approx(base)

    def test_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            stratified_estimate([0.5, 0.4], [1, 1], [10, 10])
        with pytest.raises(ValueError, match="observation"):
            stratified_estimate([0.5, 0.5], [1, 0], [10, 0])
        with pytest.raises(ValueError, match="align"):
            stratified_estimate([1.0], [1, 2], [10])


class TestSequentialStoppingCoverage:
    @pytest.mark.parametrize("p_true", [0.05, 0.3, 0.5])
    def test_near_nominal_coverage_on_bernoulli_streams(self, p_true):
        """Stop each stream when the 95% Wilson half-width hits 0.05;
        the stopped interval must still cover p_true near-nominally.

        Sequential (optional) stopping eats some coverage relative to a
        fixed-n interval, so the floor is 0.88, not 0.95.  The streams
        are a fixed-seed simulation: the check is deterministic.
        """
        rng = np.random.default_rng(20260807)
        streams, batch, target = 300, 64, 0.05
        covered = 0
        for _ in range(streams):
            successes = n = 0
            while True:
                draws = rng.random(batch) < p_true
                successes += int(draws.sum())
                n += batch
                if wilson_halfwidth(successes, n) <= target or n >= 8192:
                    break
            lo, hi = wilson_interval(successes, n)
            covered += lo <= p_true <= hi
        assert covered / streams >= 0.88
