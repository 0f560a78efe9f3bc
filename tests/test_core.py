import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qjump import core
from qjump.core import ModelParams

HALF_PI = math.pi / 2

angles = st.floats(-10.0, 10.0, allow_nan=False)
times = st.floats(0.0, 50.0, allow_nan=False)


class TestParams:
    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            ModelParams(1.0, 0.0)
        with pytest.raises(ValueError):
            ModelParams(1.0, -1.0)

    def test_rejects_negative_omega(self):
        with pytest.raises(ValueError):
            ModelParams(-0.5, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_omega(self, value):
        with pytest.raises(ValueError, match="omega"):
            ModelParams(value, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_gamma(self, value):
        with pytest.raises(ValueError, match="gamma"):
            ModelParams(1.0, value)

    def test_rejects_theta0_outside_cell(self):
        with pytest.raises(ValueError):
            ModelParams(1.0, 1.0, HALF_PI)
        ModelParams(1.0, 1.0, -HALF_PI)  # left edge is included


class TestTimeSteps:
    def test_step_count_cap(self):
        assert core.time_steps(core.MAX_STEPS * 0.5, 0.5) == (core.MAX_STEPS, 0.5)
        for t_end, dt in [(core.MAX_STEPS * 0.5, 0.49), (1.0, 1e-200), (1e300, 1e-3)]:
            with pytest.raises(ValueError, match="t_end/dt must be at most"):
                core.time_steps(t_end, dt)


class TestDrift:
    def test_identity_at_t0(self):
        p = ModelParams(2.7, 1.0)
        assert core.drift_angle(0.0, p, 0.3) == pytest.approx(0.3)

    def test_half_period_advance(self):
        p = ModelParams(2.0, 1.0)
        assert core.drift_angle(math.pi / p.omega, p, 0.0) == pytest.approx(-HALF_PI)

    def test_linear_drift(self):
        p = ModelParams(2.0, 1.0)
        assert core.drift_angle(0.7, p, 0.1) == pytest.approx(0.8)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            core.drift_angle(-0.1, ModelParams(1.0, 1.0), 0.0)

    @given(angles)
    def test_reduction_lands_in_principal_cell(self, theta):
        r = core.reduce_angle(theta)
        assert -HALF_PI <= r < HALF_PI
        assert math.sin(r) ** 2 == pytest.approx(math.sin(theta) ** 2, abs=1e-9)

    @given(times, times, angles)
    def test_semigroup(self, t1, t2, theta):
        p = ModelParams(1.3, 1.0)
        once = core.drift_angle(t1 + t2, p, theta)
        twice = core.drift_angle(t2, p, core.drift_angle(t1, p, theta))
        assert once == pytest.approx(twice, abs=1e-7)


class TestIntensities:
    def test_ground_state_never_jumps(self):
        assert core.emission_intensity(0.0, 1.0) == 0.0

    def test_fully_excited(self):
        assert core.emission_intensity(HALF_PI - 1e-9, 3.0) == pytest.approx(3.0)

    def test_values_at_quarter_pi(self):
        assert core.emission_intensity(math.pi / 4, 1.0) == pytest.approx(0.25)

    @given(angles, st.floats(1e-3, 1e3))
    def test_ordering(self, theta, gamma):
        em = core.emission_intensity(theta, gamma)
        assert 0.0 <= em <= gamma


class TestWaitingTime:
    def test_zero_at_origin(self):
        p = ModelParams(3.33, 1.0)
        assert core.waiting_time_density(0.0, p) == 0.0

    def test_rejects_zero_omega(self):
        p = ModelParams(0.0, 1.0)
        with pytest.raises(ValueError):
            core.waiting_time_density(1.0, p)
        with pytest.raises(ValueError):
            core.waiting_time_cdf(1.0, p)
        for law in (
            core.waiting_time_tail_cutoff,
            core.waiting_time_normalization,
            core.mean_waiting_time,
        ):
            with pytest.raises(ValueError, match="requires omega > 0"):
                law(p)

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            core.waiting_time_density(-1.0, ModelParams(1.0, 1.0))

    @pytest.mark.parametrize("omega", [0.4, 1.7, 6.2])
    def test_closed_form_antiderivative_against_quadrature(self, omega):
        # oracle: adaptive quadrature of sin^4(omega t / 2)
        for tau in [0.3, 1.0, 2 * math.pi / omega, 7.7]:
            oracle, _ = quad(lambda t: math.sin(0.5 * omega * t) ** 4, 0, tau)
            assert core.intensity_integral(tau, omega) == pytest.approx(
                oracle, abs=1e-10
            )
        assert core.intensity_integral(2 * math.pi / omega, omega) == pytest.approx(
            3 * math.pi / (4 * omega)
        )

    @pytest.mark.parametrize(
        "omega_tau", [1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.99, 1.0, 1.01, 3.0, 10.0]
    )
    def test_small_omega_tau_against_quadrature(self, omega_tau):
        # the closed form cancels as omega*tau -> 0, the series below
        # omega*tau = 1 does not
        omega = 0.7
        tau = omega_tau / omega
        oracle, _ = quad(
            lambda t: math.sin(0.5 * omega * t) ** 4, 0, tau, epsabs=0, epsrel=1e-13
        )
        assert core.intensity_integral(tau, omega) == pytest.approx(oracle, rel=1e-12, abs=0)

    def test_normalization_in_the_weak_field(self):
        # over the waiting-time span omega*tau is about (omega/gamma)^(1/5)
        p = ModelParams(1e-10, 1.0)
        assert core.waiting_time_normalization(p) == pytest.approx(1.0, abs=1e-12)

    def test_normalization(self):
        p = ModelParams(1.7, 1.0)
        assert core.waiting_time_normalization(p) == pytest.approx(1.0, rel=1e-6)

    def test_nonnegative(self):
        p = ModelParams(2.0, 3.0)
        tau = np.linspace(0, 30, 1000)
        assert np.all(core.waiting_time_density(tau, p) >= 0)

    def test_cdf_consistent_with_density(self):
        p = ModelParams(2.0, 1.0)
        tau = np.linspace(0, 10, 4001)
        dens = core.waiting_time_density(tau, p)
        cdf = core.waiting_time_cdf(tau, p)
        trapz = np.concatenate(
            [[0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(tau))]
        )
        assert np.max(np.abs(trapz - cdf)) < 1e-4


MOMENT_RATIOS = [1e-3, 1.0 / 6.0, 1.0, 3.33, 10.0, 100.0]


def quad_per_period(params, f):
    """Oracle: adaptive quadrature of f over [0, T], one call per drive period,
    with a relative tolerance only, so the result does not depend on 1/gamma."""
    T = core.waiting_time_tail_cutoff(params)
    edges = np.append(np.arange(0.0, T, 2 * math.pi / params.omega), T)
    return sum(
        quad(f, a, b, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        for a, b in zip(edges[:-1], edges[1:])
    )


class TestWaitingTimeMoments:
    @pytest.mark.parametrize("gamma", [1.0, 1e4])
    @pytest.mark.parametrize("ratio", MOMENT_RATIOS)
    def test_mean_against_quadrature(self, ratio, gamma):
        p = ModelParams(ratio * gamma, gamma)
        oracle = quad_per_period(
            p, lambda t: t * float(core.waiting_time_density(t, p))
        )
        assert core.mean_waiting_time(p) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("gamma", [1.0, 1e4])
    @pytest.mark.parametrize("ratio", MOMENT_RATIOS)
    def test_normalization_is_one(self, ratio, gamma):
        p = ModelParams(ratio * gamma, gamma)
        assert core.waiting_time_normalization(p) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("ratio", MOMENT_RATIOS)
    def test_scaled_mean_independent_of_gamma(self, ratio):
        # the mean scales as 1/gamma at fixed omega/gamma
        small, large = (
            g * core.mean_waiting_time(ModelParams(ratio * g, g)) for g in (1.0, 1e4)
        )
        assert large == pytest.approx(small, rel=1e-10)


class TestNoPump:
    def test_initial_value(self):
        p = ModelParams(0.0, 1.0, math.pi / 4)
        assert core.no_pump_excited_population(0.0, p) == pytest.approx(0.5)

    def test_ground_state_stays(self):
        p = ModelParams(0.0, 2.0, 0.0)
        assert core.no_pump_excited_population(3.0, p) == 0.0

    def test_decays_to_zero(self):
        p = ModelParams(0.0, 1.0, math.pi / 4)
        assert core.no_pump_excited_population(100.0, p) < 1e-20

    def test_initial_rate_is_minus_gamma_sin4(self):
        # finite-difference check of the emission rate at t=0
        p = ModelParams(0.0, 1.3, 0.6)
        h = 1e-6
        fd = (
            core.no_pump_excited_population(h, p)
            - core.no_pump_excited_population(0.0, p)
        ) / h
        assert fd == pytest.approx(-p.gamma * math.sin(p.theta0) ** 4, rel=1e-4)

    def test_emission_probability(self):
        assert core.no_pump_emission_probability(HALF_PI - 1e-9) == pytest.approx(1.0)
        assert core.no_pump_emission_probability(math.pi / 4) == pytest.approx(0.5)
        assert core.no_pump_emission_probability(0.0) == 0.0


class TestDelayScales:
    def test_unit_case(self):
        assert core.weak_field_delay_scale(ModelParams(1.0, 1.0)) == pytest.approx(1.0)

    def test_gamma_32(self):
        assert core.weak_field_delay_scale(ModelParams(1.0, 32.0)) == pytest.approx(0.5)

    def test_dressed_scale(self):
        assert core.dressed_delay_scale(ModelParams(2.0, 8.0)) == pytest.approx(2.0)

    def test_mean_tracks_weak_field_scale_at_fixed_ratio(self):
        # quadrature oracle: at fixed omega/gamma = 1/6 the ratio
        # mean / tau_K must be the same constant for every gamma
        ratios = []
        for gamma in [1.0, 16.0, 256.0]:
            p = ModelParams(gamma / 6.0, gamma)
            ratios.append(core.mean_waiting_time(p) / core.weak_field_delay_scale(p))
        assert max(ratios) / min(ratios) == pytest.approx(1.0, rel=1e-6)
        assert 1.0 < ratios[0] < 5.0


any_float = st.floats(allow_nan=True, allow_infinity=True)
moderate = st.floats(1e-3, 1e3)


def assert_finite_or_names(call, ok, name):
    """call() gives finite output when ok, else raises ValueError naming `name`."""
    if ok:
        assert np.all(np.isfinite(call()))
        return
    with pytest.raises(ValueError) as info:
        call()
    assert re.search(rf"\b{name}\b", str(info.value)), info.value


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestInputContracts:
    """Finite output, or a ValueError that names the bad parameter."""

    @settings(max_examples=200, deadline=None)
    @given(
        tau=any_float, omega=moderate, gamma=moderate,
        law=st.sampled_from([core.waiting_time_density, core.waiting_time_cdf]),
    )
    def test_waiting_time_laws(self, tau, omega, gamma, law):
        p = ModelParams(omega, gamma)
        assert_finite_or_names(lambda: law(np.array([0.5, tau]), p), tau >= 0, "tau")

    @settings(max_examples=200, deadline=None)
    @given(t=any_float, theta_start=any_float, omega=st.floats(0.0, 1e3))
    def test_drift_angle(self, t, theta_start, omega):
        ok = t >= 0 and math.isfinite(theta_start + 0.5 * omega * t)
        call = lambda: core.drift_angle(t, ModelParams(omega, 1.0), theta_start)
        name = "t" if not (0 <= t < math.inf) else "theta_start"
        assert_finite_or_names(call, ok, name)

    @settings(max_examples=50, deadline=None)
    @given(
        omega=st.floats(0.0, 1e300, exclude_min=True),
        gamma=st.floats(0.0, 1e300, exclude_min=True),
        moment=st.sampled_from([core.mean_waiting_time, core.waiting_time_normalization]),
    )
    # the strong field once ran for minutes; omega**4 once raised OverflowError
    @example(omega=1.0, gamma=1e-306, moment=core.mean_waiting_time)
    @example(omega=1e100, gamma=1e100, moment=core.mean_waiting_time)
    # the tail cutoff once overflowed to inf, and once made a NaN panel count
    @example(omega=1e-309, gamma=1e-297, moment=core.mean_waiting_time)
    @example(omega=1e-308, gamma=1e-308, moment=core.mean_waiting_time)
    def test_waiting_time_moments(self, omega, gamma, moment):
        ok = core.MIN_MOMENT_RATIO <= omega / gamma <= core.MAX_MOMENT_RATIO
        call = lambda: moment(ModelParams(omega, gamma))
        if ok and min(omega, gamma) < 1e-300:
            # a tail cutoff of order 1/omega + 1/gamma may pass the float range
            try:
                assert math.isfinite(call())
            except ValueError as e:
                assert re.search(r"\b(omega|gamma)\b", str(e)), e
            return
        assert_finite_or_names(call, ok, "omega")

    @settings(max_examples=200, deadline=None)
    @given(omega=st.floats(1e-300, 1e300), gamma=st.floats(1e-300, 1e300))
    @example(omega=1e100, gamma=1e100)
    @example(omega=1e200, gamma=1.0)
    def test_delay_scales(self, omega, gamma):
        p = ModelParams(omega, gamma)
        assert 0.0 < core.weak_field_delay_scale(p) < math.inf
        # gamma/omega^2 is a float where its logarithm is below the largest float's
        ok = math.log(gamma) - 2.0 * math.log(omega) < math.log(sys.float_info.max)
        assert_finite_or_names(lambda: core.dressed_delay_scale(p), ok, "omega")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "omega, gamma", [(1e-300, 4e-300), (1e200, 1e200), (1e-200, 1e300), (1e-300, 1.0)]
    )
    @pytest.mark.parametrize("scale", [core.weak_field_delay_scale, core.dressed_delay_scale])
    def test_delay_scales_of_numpy_scalars(self, scale, omega, gamma):
        # a numpy scalar warns where a Python float raises; the results must agree

        def run(p):
            try:
                return scale(p)
            except ValueError as e:
                assert re.search(r"\bomega\b", str(e)), e
                return "refused"

        want = run(ModelParams(omega, gamma))
        assert run(ModelParams(np.float64(omega), np.float64(gamma))) == want
        assert run(ModelParams(omega, np.float64(gamma))) == want

    def test_cases_that_once_failed(self):
        p = ModelParams(3.33, 1.0)
        with pytest.raises(ValueError, match="tau"):
            core.waiting_time_density(math.nan, p)
        assert core.waiting_time_cdf(math.inf, p) == 1.0
        assert core.waiting_time_density(math.inf, p) == 0.0
        with pytest.raises(ValueError, match=r"\bt\b"):
            core.drift_angle(math.inf, p, 0.0)
        with pytest.raises(ValueError, match="omega"):
            core.mean_waiting_time(ModelParams(1e-300, 1.0))
        assert core.weak_field_delay_scale(ModelParams(1e-300, 1.0)) == pytest.approx(
            1e240
        )
        with pytest.raises(ValueError, match="omega"):
            core.mean_waiting_time(ModelParams(1.0, 1e-306))
        for tiny in (ModelParams(1e-309, 1e-297), ModelParams(1e-308, 1e-308)):
            with pytest.raises(ValueError, match=r"omega=.*gamma="):
                core.mean_waiting_time(tiny)
        big = ModelParams(1e100, 1e100)
        assert core.weak_field_delay_scale(big) == pytest.approx(1e-100)
        assert core.dressed_delay_scale(big) == pytest.approx(1e-100)
        assert core.mean_waiting_time(big) == pytest.approx(
            1e-100 * core.mean_waiting_time(ModelParams(1.0, 1.0)), rel=1e-12
        )

    def test_cap_leaves_the_laws_unchanged(self):
        # past the cap exp(-gamma I) is exactly 0 with or without it
        p = ModelParams(1.0 / 6.0, 1.0)
        tau = np.array([1e4, 1e6, 1e12])
        raw = np.exp(-p.gamma * core.intensity_integral(tau, p.omega))
        assert np.all(raw == 0.0)
        assert np.all(core.waiting_time_density(tau, p) == 0.0)
        assert np.all(core.waiting_time_cdf(tau, p) == 1.0)
