import math

import numpy as np
import pytest

from qjump import core, stats
from qjump.core import ModelParams
from qjump.stats import DelayDistribution


def analytic_distribution(params, span, n=4000):
    tau = np.linspace(0, span, n)
    return DelayDistribution(tau, core.waiting_time_density(tau, params), "analytic")


class TestDelayDistribution:
    def test_validation(self):
        tau = np.linspace(0, 1, 10)
        with pytest.raises(ValueError):
            DelayDistribution(tau, -np.ones(10))
        with pytest.raises(ValueError):
            DelayDistribution(tau[::-1], np.ones(10))
        with pytest.raises(ValueError):
            DelayDistribution(tau, np.full(10, 5.0))  # mass > 1
        with pytest.raises(ValueError):
            DelayDistribution(tau, np.zeros(10), kind="bogus")

    def test_normalized(self):
        tau = np.linspace(0, 1, 100)
        d = DelayDistribution(tau, 0.5 * np.ones(100), "baseline")
        assert d.normalized().integral() == pytest.approx(1.0)


class TestKsTest:
    def test_calibration_under_null(self):
        rejections = 0
        for seed in range(50):
            x = np.random.default_rng(seed).exponential(size=10_000)
            rep = stats.ks_test(x, lambda v: 1.0 - np.exp(-v))
            rejections += rep.reject_at_1pct
        assert rejections <= 1  # >= 98% non-rejections

    def test_power_against_wrong_rate(self):
        x = np.random.default_rng(0).exponential(scale=1.0, size=5000)
        rep = stats.ks_test(x, lambda v: 1.0 - np.exp(-2.0 * v))
        assert rep.reject_at_1pct

    def test_statistic_range_and_report(self):
        x = np.random.default_rng(1).exponential(size=100)
        rep = stats.ks_test(x, lambda v: 1.0 - np.exp(-v))
        assert 0.0 <= rep.statistic <= 1.0
        assert 0.0 <= rep.p_value <= 1.0
        assert rep.n == 100

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            stats.ks_test(np.ones(5), lambda v: v)

    def test_invariant_under_monotone_reparameterization(self):
        x = np.random.default_rng(2).exponential(size=500)
        d1 = stats.ks_test(x, lambda v: 1.0 - np.exp(-v)).statistic
        d2 = stats.ks_test(x**2, lambda v: 1.0 - np.exp(-np.sqrt(v))).statistic
        assert d1 == pytest.approx(d2, abs=1e-12)


class TestMeanDelay:
    def test_exponential_mean(self):
        gamma = 2.0
        tau = np.linspace(0, 20 / gamma, 20000)
        d = DelayDistribution(tau, gamma * np.exp(-gamma * tau), "analytic")
        assert stats.mean_delay(d) == pytest.approx(1 / gamma, rel=1e-3)

    def test_degenerate_grid_errors(self):
        d = DelayDistribution(np.array([1.0]), np.array([0.5]), "baseline")
        with pytest.raises(ValueError):
            stats.mean_delay(d)

    def test_unnormalized_analytic_rejected(self):
        tau = np.linspace(0, 1, 100)
        d = DelayDistribution(tau, 0.5 * np.ones(100), "analytic")
        with pytest.raises(ValueError):
            stats.mean_delay(d)

    def test_tail_warning(self):
        tau = np.linspace(0, 2.0, 2000)
        d = DelayDistribution(tau, np.exp(-tau), "baseline")
        with pytest.warns(UserWarning, match="tail"):
            stats.mean_delay(d)

    def test_positive_and_finite_when_mass_captured(self):
        p = ModelParams(3.33, 1.0)
        m = stats.mean_delay(analytic_distribution(p, 40.0))
        assert 0 < m < math.inf
        assert m == pytest.approx(core.mean_waiting_time(p), rel=1e-3)


class TestScalingRegression:
    def test_exact_power_law(self):
        g = np.geomspace(1, 100, 6)
        exponent, r2 = stats.scaling_regression(np.column_stack([g, 3.0 * g**-0.2]))
        assert exponent == pytest.approx(-0.2, abs=1e-12)
        assert r2 == pytest.approx(1.0)

    @pytest.mark.parametrize("planted", [-1.0, -0.2, 0.5, 1.0])
    def test_recovers_planted_exponents(self, planted):
        g = np.geomspace(0.5, 50, 5)
        exponent, r2 = stats.scaling_regression(np.column_stack([g, 2.0 * g**planted]))
        assert exponent == pytest.approx(planted, abs=1e-10)
        assert r2 == pytest.approx(1.0)

    def test_dressed_scale_series_has_unit_exponent(self):
        omega = 1.0
        g = np.geomspace(4, 64, 5)
        tq = np.array(
            [core.dressed_delay_scale(ModelParams(omega, gi)) for gi in g]
        )
        exponent, _ = stats.scaling_regression(np.column_stack([g, tq]))
        assert exponent == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            stats.scaling_regression([(1.0, 2.0), (2.0, 3.0)])
        with pytest.raises(ValueError):
            stats.scaling_regression([(1.0, 2.0), (2.0, -3.0), (3.0, 1.0)])


class TestEmpiricalDistribution:
    def test_histogram_recovers_exponential(self):
        x = np.random.default_rng(3).exponential(size=200_000)
        tau = np.linspace(0, 10, 200)
        d = stats.empirical_delay_distribution(x, tau)
        assert d.kind == "empirical"
        interior = (tau > 0.2) & (tau < 5)
        assert np.max(np.abs(d.density[interior] - np.exp(-tau[interior]))) < 0.05

    def test_no_samples(self):
        with pytest.raises(ValueError):
            stats.empirical_delay_distribution(np.array([]), np.linspace(0, 1, 10))


class TestDistances:
    def test_l1_zero_on_itself(self):
        d = analytic_distribution(ModelParams(3.33, 1.0), 40.0)
        assert stats.l1_distance(d, d) == 0.0

    def test_l1_symmetric(self):
        p = ModelParams(3.33, 1.0)
        a = analytic_distribution(p, 40.0)
        b = analytic_distribution(ModelParams(1.0, 1.0), 40.0)
        assert stats.l1_distance(a, b) == pytest.approx(stats.l1_distance(b, a))
