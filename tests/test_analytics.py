from __future__ import annotations

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromres import (
    AnalyticProfile,
    GnpParams,
    build_profile,
    compute_k0,
    expected_counts,
    generate_gnp,
    max_independent_set,
    predicted_chromatic,
    tail_bounds,
    working_k,
)


class TestComputeK0:
    def test_small_example(self):
        # C(4,2)/2 = 3 >= 1 but C(4,3)/8 = 0.5 < 1
        assert compute_k0(4, 0.5, 1.0) == 2

    def test_absent(self):
        # even k=1 gives 4 < 5
        assert compute_k0(4, 0.5, 5.0) is None

    def test_pinned_n1000(self):
        k0 = compute_k0(1000, 0.5, 1.0)
        assert k0 == 15
        assert abs(k0 - 2 * math.log2(1000 * 0.5)) <= 4

    def test_pinned_n1000_high_precision(self):
        # independent re-check of the defining inequality with 60-digit
        # arithmetic: 15 qualifies, nothing above does
        with mpmath.workdps(60):
            def expected(k):
                return mpmath.binomial(1000, k) * mpmath.mpf(0.5) ** (k * (k - 1) // 2)

            assert expected(15) >= 1
            assert all(expected(k) < 1 for k in range(16, 41))
            # beyond k=40 the weight term collapses far below 1
            assert expected(41) < mpmath.mpf("1e-100")

    def test_bad_args(self):
        with pytest.raises(ValueError):
            compute_k0(10, 0.0, 1.0)
        with pytest.raises(ValueError):
            compute_k0(10, 0.5, 0.0)
        with pytest.raises(ValueError, match="theta must be positive"):
            compute_k0(30, 0.5, math.nan)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 80),
           p=st.floats(0.05, 0.9),
           theta1=st.floats(0.1, 1e6),
           factor=st.floats(1.0, 100.0))
    def test_monotone_in_theta(self, n, p, theta1, factor):
        k_lo = compute_k0(n, p, theta1)
        k_hi = compute_k0(n, p, theta1 * factor)
        if k_hi is not None:
            assert k_lo is not None and k_lo >= k_hi

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 80),
           extra=st.integers(1, 40),
           p=st.floats(0.05, 0.9),
           theta=st.floats(0.1, 1e6))
    def test_monotone_in_n(self, n, extra, p, theta):
        k_small = compute_k0(n, p, theta)
        k_big = compute_k0(n + extra, p, theta)
        if k_small is not None:
            assert k_big is not None and k_big >= k_small


class TestExpectedCounts:
    def test_ratio_identity_p_cancels(self):
        for p in (0.1, 0.37, 0.5):
            log_mu, log_mu0 = expected_counts(10, p, 4)
            assert math.exp(log_mu0 - log_mu) == pytest.approx(2 / 15, rel=1e-12)

    def test_direct_small_values(self):
        log_mu, log_mu0 = expected_counts(4, 0.5, 2)
        assert math.exp(log_mu) == pytest.approx(3.0, rel=1e-12)
        assert math.exp(log_mu0) == pytest.approx(0.5, rel=1e-12)

    def test_full_set_boundary(self):
        # k0 = n: the single full set contains every pair
        log_mu, log_mu0 = expected_counts(6, 0.3, 6)
        assert log_mu == log_mu0
        assert log_mu == pytest.approx(15 * math.log(0.7), rel=1e-12)

    def test_k0_below_two_rejected(self):
        with pytest.raises(ValueError):
            expected_counts(10, 0.5, 1)

    def test_identity_on_random_profiles(self):
        import random

        rng = random.Random(4242)
        for _ in range(50):
            n = rng.randint(5, 3000)
            p = rng.uniform(0.05, 0.5)
            profile = build_profile(n, p, 1.0)
            if profile.k0 is None or profile.k0 < 2:
                continue
            ratio = math.exp(profile.log_mu0 - profile.log_mu)
            exact = profile.k0 * (profile.k0 - 1) / (n * (n - 1))
            assert ratio == pytest.approx(exact, rel=1e-12)


class TestTailBounds:
    def synthetic(self, ratio: float, n: int, p: float) -> AnalyticProfile:
        # direct construction bypasses build_profile validation on purpose
        return AnalyticProfile(n=n, p=p, theta=1.0, b=1 / (1 - p), k0=2,
                               log_mu=math.log(ratio), log_mu0=0.0,
                               k=2, chi_predicted=None)

    def test_lower_tail_example(self):
        bounds = tail_bounds(self.synthetic(10.0, 2, 0.5), delta=0.5)
        assert bounds.lower_tail == pytest.approx(math.exp(-1 / 6), rel=1e-12)

    def test_vacuous_two_sided_clamps(self):
        bounds = tail_bounds(self.synthetic(10.0, 2, 0.5), delta=1e-9)
        assert bounds.two_sided == 1.0

    def test_exponent_constants(self):
        # coded constants: lower exponent uses 1/300, two-sided delta^2/40
        delta = 2 / 5
        bounds = tail_bounds(self.synthetic(17.0, 5, 0.4), delta=delta)
        assert bounds.two_sided_exponent / bounds.lower_exponent == pytest.approx(
            (delta ** 2 / 40) / (1 / 300), rel=1e-12)

    def test_results_are_probabilities(self):
        profile = build_profile(60, 0.5, 1.0)
        for delta in (0.1, 0.5, 0.9):
            bounds = tail_bounds(profile, delta)
            assert 0.0 <= bounds.lower_tail <= 1.0
            assert 0.0 <= bounds.two_sided <= 1.0

    def test_requires_k0(self):
        profile = build_profile(4, 0.5, 5.0)  # k0 absent
        with pytest.raises(ValueError):
            tail_bounds(profile, 0.5)


class TestPredictedChromatic:
    def test_n200_value(self):
        target, k = predicted_chromatic(200, 0.5, 0.0)
        assert target == pytest.approx(200 / (2 * math.log2(100)), rel=1e-12)
        assert target == pytest.approx(15.0515, abs=5e-4)
        target_eps, _ = predicted_chromatic(200, 0.5, 0.25)
        assert target_eps == pytest.approx(1.25 * target, rel=1e-12)

    def test_degenerate_log_signals_absent(self):
        assert predicted_chromatic(2, 0.5, 0.0) == (None, None)

    def test_linear_in_epsilon(self):
        base, _ = predicted_chromatic(300, 0.4, 0.0)
        t1, _ = predicted_chromatic(300, 0.4, 0.3)
        t2, _ = predicted_chromatic(300, 0.4, 0.6)
        assert t2 - base == pytest.approx(2 * (t1 - base), rel=1e-9)

    def test_working_k_clamped(self):
        # np < log^3 n everywhere at desk scale: the clamp yields 2
        _, k = predicted_chromatic(100, 0.5, 0.0)
        assert k == 2

    def test_working_k_absent_at_np_one(self):
        assert working_k(2, 0.5) is None


class TestProfile:
    def test_fields_and_json(self):
        profile = build_profile(40, 0.5, 1.0)
        assert profile.k0 == 7
        assert profile.b == pytest.approx(2.0)
        assert profile.mu == pytest.approx(math.comb(40, 7) * 0.5 ** 21, rel=1e-12)
        assert profile.chi_predicted == pytest.approx(40 / (2 * math.log2(20)), rel=1e-12)
        d = profile.to_json()
        assert d["mu"] == pytest.approx(profile.mu)
        assert d["log_mu"] == profile.log_mu

    @pytest.mark.parametrize("p, theta", [(0.5, math.nan), (0.5, 0.0), (1.0, 1.0),
                                          (math.nan, 1.0)])
    def test_bad_p_or_theta_rejected(self, p, theta):
        # p = 1 must fail the p check, not divide by zero in 1 / (1 - p)
        with pytest.raises(ValueError):
            build_profile(30, p, theta)

    def test_mu_at_least_theta(self):
        for theta in (1.0, 10.0, 1e4):
            profile = build_profile(120, 0.4, theta)
            if profile.k0 is not None and profile.k0 >= 2:
                assert profile.mu >= theta * (1 - 1e-12)

    def test_high_p_warns_instead_of_asserting_cap_inequality(self):
        # above p = 1/2 the default coverage-cap inequality has no backing
        with pytest.warns(UserWarning):
            build_profile(20, 0.6, 1.0)

    def test_literal_quartic_threshold_unreachable_at_desk_scale(self):
        # with theta = n^4 the expected count never clears the threshold
        # at these sizes, so k0 is absent by design
        profile = build_profile(1000, 0.5, float(1000) ** 4)
        assert profile.k0 is None

    def test_k0_tracks_alpha(self):
        # desk-scale shadow of the independence number: |k0 - alpha| <= 3 on
        # at least 95% of 100 seeded graphs, n in [30, 200]
        import random

        rng = random.Random(12345)
        hits = 0
        for trial in range(100):
            n = rng.randint(30, 200)
            g = generate_gnp(GnpParams(n, 0.5, trial))
            alpha = len(max_independent_set(g, limit=200))
            if abs(compute_k0(n, 0.5, 1.0) - alpha) <= 3:
                hits += 1
        assert hits >= 95
