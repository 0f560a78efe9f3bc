import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import kolmogorov

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

    @pytest.mark.parametrize("extra", [-1, 0, 1, 2 * stats._KS_CHUNK + 5])
    def test_chunks_give_the_whole_array_statistic(self, extra):
        # the statistic as one pass over all samples computes it
        x = np.random.default_rng(extra + 10).exponential(size=stats._KS_CHUNK + extra)
        f = 1.0 - np.exp(-np.sort(x))
        grid = np.arange(x.size + 1) / x.size
        whole = max(np.max(grid[1:] - f), np.max(f - grid[:-1]))
        assert stats.ks_test(x, lambda v: 1.0 - np.exp(-v)).statistic == whole

    def test_nan_in_a_later_chunk_names_cdf(self):
        x = np.sort(np.random.default_rng(4).exponential(size=2 * stats._KS_CHUNK + 7))
        bad = x[stats._KS_CHUNK + 5]  # in the second chunk
        cdf = lambda v: np.where(v == bad, np.nan, 1.0 - np.exp(-v))  # noqa: E731
        with pytest.raises(ValueError, match=r"\bcdf\b"):
            stats.ks_test(x, cdf)


# ks_test p-values of seeded exponential samples, as scipy.special.kolmogorov
# gave them: (seed, size, rate of the tested cdf) -> p-value
KS_P_VALUES = {
    (0, 10_000, 1.0): 0.3797451081357946,
    (1, 10_000, 1.0): 0.8468976785739519,
    (2, 10_000, 1.0): 0.21280621285782206,
    (0, 5000, 2.0): 3.1442132878421917e-279,
    (1, 100, 1.0): 0.9882867249515628,
    (2, 500, 1.0): 0.16335495927669338,
}


class TestKolmogorovSeries:
    x = np.linspace(0.0, 5.0, 5001)

    def test_matches_scipy(self):
        series = np.array([stats._kolmogorov_sf(v) for v in self.x])
        np.testing.assert_allclose(series, kolmogorov(self.x), rtol=0, atol=1e-12)

    def test_one_at_zero_and_non_increasing(self):
        assert stats._kolmogorov_sf(0.0) == 1.0
        series = np.array([stats._kolmogorov_sf(v) for v in self.x])
        assert np.all(np.diff(series) <= 0.0)

    @pytest.mark.parametrize("case", list(KS_P_VALUES))
    def test_seeded_p_values_unchanged(self, case):
        seed, size, rate = case
        x = np.random.default_rng(seed).exponential(size=size)
        rep = stats.ks_test(x, lambda v: 1.0 - np.exp(-rate * v))
        assert rep.p_value == pytest.approx(KS_P_VALUES[case], rel=0, abs=1e-12)


class TestMeanDelay:
    def test_exponential_mean(self):
        gamma = 2.0
        tau = np.linspace(0, 20 / gamma, 20000)
        d = DelayDistribution(tau, gamma * np.exp(-gamma * tau), "analytic")
        assert stats.mean_delay(d) == pytest.approx(1 / gamma, rel=1e-3)

    def test_degenerate_grid_errors(self):
        with pytest.raises(ValueError, match=r"\btau_grid\b"):
            DelayDistribution(np.array([1.0]), np.array([0.5]), "baseline")

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
        with pytest.raises(ValueError, match="distinct"):
            stats.scaling_regression([(4.0, 2.0), (4.0, 2.5), (4.0, 3.0)])


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

    def test_l1_zero_mass_names_argument(self):
        d = analytic_distribution(ModelParams(3.33, 1.0), 40.0)
        empty = DelayDistribution([0.0, 1.0], [0.0, 0.0], "baseline")
        with pytest.raises(ValueError, match="curve b"):
            stats.l1_distance(d, empty)

    def test_l1_of_a_curve_on_a_tiny_spacing(self):
        # a unit-mass triangle on [x0, x1] peaks at 2/(x1 - x0) = 4.2e185, so
        # np.interp's slope overflows; the union grid's last interval, to 1,
        # takes the peak down to 0 and holds nearly all of the distance
        x0, x1 = -2.68e-232, 4.79e-186
        steep = DelayDistribution([x0, x1], [0.0, 1.0])
        unit = DelayDistribution([0.0, 1.0], [1.0, 1.0])
        assert stats.l1_distance(steep, unit) == pytest.approx(1.0 / (x1 - x0), rel=1e-12)
        assert stats.l1_distance(unit, steep) == stats.l1_distance(steep, unit)


NUMBERS = st.one_of(st.floats(-1.0, 40.0), st.floats(allow_nan=True, allow_infinity=True))
# (grid, value) pairs: all in range, so that calls also succeed, or any floats
PAIRS = st.one_of(
    st.lists(st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 0.2)), max_size=14),
    st.lists(st.tuples(NUMBERS, NUMBERS), max_size=14),
)
ARGUMENTS = {
    "DelayDistribution": ("tau_grid", "density", "kind"),
    "mean_delay": ("tau_grid", "density", "kind"),
    "ks_test": ("samples", "cdf"),
    "empirical_delay_distribution": ("samples", "tau_grid"),
    "scaling_regression": ("points",),
    # "a" alone is also an English word
    "l1_distance": ("tau_grid", "density", "kind", "curve a"),
}
# the other curve of l1_distance: unit mass on [0, 1]
UNIT = DelayDistribution([0.0, 1.0], [1.0, 1.0])


def _non_finite(entry, grid, values, cdf):
    """Arguments of the call that hold a non-finite value.

    The cdf counts only through its values on samples that ks_test accepts."""
    if entry == "ks_test":
        samples = np.sort(grid)
        ok = samples.size >= 10 and np.isfinite(samples).all() and samples[0] >= 0
        arrays = {"samples": grid, "cdf": cdf(samples) if ok else 0.0}
    elif entry == "scaling_regression":
        arrays = {"points": np.concatenate([grid, values])}
    elif entry == "empirical_delay_distribution":
        arrays = {"samples": values, "tau_grid": grid}
    else:
        arrays = {"tau_grid": grid, "density": values}
    return [name for name, a in arrays.items() if not np.isfinite(a).all()]


def _outputs(entry, grid, values, kind, cdf):
    """What the call of `entry` returns, as floats and arrays."""
    if entry == "ks_test":
        rep = stats.ks_test(grid, cdf)
        return [rep.statistic, rep.p_value]
    if entry == "scaling_regression":
        return list(stats.scaling_regression(np.column_stack([grid, values])))
    if entry == "empirical_delay_distribution":
        dist = stats.empirical_delay_distribution(values, grid)
        return [dist.tau_grid, dist.density]
    dist = DelayDistribution(grid, values, kind)
    if entry == "mean_delay":
        return [stats.mean_delay(dist)]
    if entry == "l1_distance":
        return [stats.l1_distance(dist, UNIT)]
    return [dist.tau_grid, dist.density, dist.integral()]


class TestInputContracts:
    @settings(max_examples=300, deadline=None)
    @given(
        entry=st.sampled_from(list(ARGUMENTS)),
        pairs=PAIRS,
        order=st.sampled_from(["drawn", "sorted", "unit mass"]),
        kind=st.sampled_from(["analytic", "empirical", "baseline", "bogus"]),
        rate=NUMBERS,
    )
    # each of these was accepted, gave NaN or raised LinAlgError before
    @example("mean_delay", [(0, 0.1), (1, math.nan), (2, 0.1)], "sorted", "baseline", 1)
    @example("ks_test", [(k, 0.0) for k in range(12)], "sorted", "analytic", math.inf)
    @example("scaling_regression", [(1, 1), (2, math.nan), (3, 3)], "drawn", "analytic", 1)
    @example("scaling_regression", [(1, 1), (2, 2), (math.inf, 3)], "drawn", "analytic", 1)
    @example(
        "empirical_delay_distribution",
        [(0, 0.5), (1, 1.5), (2, math.nan), (3, 2.5)],
        "sorted",
        "analytic",
        1.0,
    )
    # zero mass: each raised a ValueError naming neither curve
    @example("l1_distance", [(0, 0.0), (1, 0.0)], "sorted", "baseline", 1)
    @example("l1_distance", [(0.5, 0.2)], "sorted", "analytic", 1)
    # np.interp's slope over a spacing of 5e-186 overflowed: l1_distance gave inf
    @example("l1_distance", [(-2.68e-232, 0.0), (4.79e-186, 1.0)], "sorted", "analytic", 1)
    def test_finite_output_or_named_error(self, entry, pairs, order, kind, rate):
        """Finite output, or a ValueError naming a bad argument.

        A non-finite argument must be refused, by its name."""
        grid, values = np.array(pairs, dtype=float).reshape(-1, 2).T
        grid = grid if order == "drawn" else np.sort(grid)
        cdf = lambda v: 1.0 - np.exp(-rate * v)  # noqa: E731
        with np.errstate(all="ignore"):
            mass = np.trapezoid(values, grid)
            if order == "unit mass" and 0 < mass < math.inf:
                values = values / mass
            bad = _non_finite(entry, grid, values, cdf)
            try:
                out = _outputs(entry, grid, values, kind, cdf)
            except ValueError as exc:
                names = bad or ARGUMENTS[entry]
                named = [n for n in names if re.search(rf"\b{n}\b", str(exc))]
                assert named, f"{exc!r} names none of {names}"
                return
        assert not bad, f"accepted non-finite {bad}"
        assert all(np.isfinite(np.asarray(x, dtype=float)).all() for x in out)
