import hashlib
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qjump import core
from qjump.core import ModelParams

HALF_PI = math.pi / 2
SRC = str(Path(__file__).resolve().parents[1] / "src")

angles = st.floats(-10.0, 10.0, allow_nan=False)


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
    """pde and mc drift the angle inline; both reduce it with reduce_angle."""

    @given(angles)
    def test_reduction_lands_in_principal_cell(self, theta):
        r = core.reduce_angle(theta)
        assert -HALF_PI <= r < HALF_PI
        assert math.sin(r) ** 2 == pytest.approx(math.sin(theta) ** 2, abs=1e-9)


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
            with pytest.raises(ValueError, match="requires omega > 0") as refusal:
                law(p)
            # the refusal names the unpumped law, which exists
            assert "no_pump_excited_population" in str(refusal.value)
            assert callable(core.no_pump_excited_population)

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            core.waiting_time_density(-1.0, ModelParams(1.0, 1.0))

    @pytest.mark.parametrize("mass_tol", [0.0, -1.0, 1.0, 1e10, math.nan, math.inf, -math.inf])
    def test_tail_cutoff_rejects_mass_tol_outside_unit_interval(self, mass_tol):
        with pytest.raises(ValueError, match="mass_tol"):
            core.waiting_time_tail_cutoff(ModelParams(3.33, 1.0), mass_tol=mass_tol)

    @pytest.mark.parametrize("mass_tol", [5e-324, 1e-12, 0.5, np.nextafter(1.0, 0.0)])
    def test_tail_cutoff_is_positive_inside_unit_interval(self, mass_tol):
        assert 0.0 < core.waiting_time_tail_cutoff(ModelParams(3.33, 1.0), mass_tol=mass_tol)

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

    @pytest.mark.parametrize("gamma", [1.0, 1e4])
    @pytest.mark.parametrize("ratio", [1e-20, 1e-24])
    def test_weak_field_mean_is_the_weibull_mean(self, ratio, gamma):
        # as omega -> 0, gamma*I(tau) -> gamma omega^4 tau^5/80: a Weibull law
        # of shape 5, whose mean is 80^(1/5) Gamma(6/5) (omega^4 gamma)^(-1/5)
        p = ModelParams(ratio * gamma, gamma)
        scaled = core.mean_waiting_time(p) * (p.omega**4 * p.gamma) ** 0.2
        assert scaled == pytest.approx(80.0**0.2 * math.gamma(1.2), rel=1e-8)


# sha256 of the float64 bytes of (density, cdf) on a tau grid to three times
# the cap (8/3)(800/gamma + 1/omega) of the laws' argument, plus 1e6, 1e300
# and inf, and of (mean, mass, tail cutoff) at MOMENT_RATIOS for gamma = 1
# and 1e4; recorded before the cap and the tail cutoff shared one formula,
# except the moments, re-recorded when their panel sums left the BLAS dot
# (mean within 2.1e-16 and mass within 4.5e-16, relative, of the old bits)
CAP_DIGESTS = {
    "weak": "aa6701ab41c58ec85c1e6b7630fea4589e676fba4cc07fa0f0d6ebb98194642d",
    "fig1b": "ebbc8d0a587d817097acc44db164164f4dd0fe781039213ac4da768c74f18f85",
    "unit": "dae5b8ade8177747b8921872bc318c58ea10e4d220967adba638013fcaa770e3",
    "fig1a": "d7234c08ed9374b06232f859936c77a4169427e20c471e6a759e03e27f96e2cc",
    "strong": "34885dd1c1c8fed6dd5bf31c13cfbea00937c1c7d2acc5189ea48ce62a5f3fd7",
    "strong_g1e4": "4dcb8541410272cdc7fdceb18998d79602f1686c6fdfa87f9a1b4d3d9a40f303",
    "moments": "99394c35099730b19450587881fd59d7224ed66b7bd6b60ae6da5bfab0a22bad",
}
CAP_PARAMS = {
    "weak": (1e-3, 1.0),
    "fig1b": (1.0 / 6.0, 1.0),
    "unit": (1.0, 1.0),
    "fig1a": (3.33, 1.0),
    "strong": (100.0, 1.0),
    "strong_g1e4": (1e6, 1e4),
}


def sha256_of(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


class TestClosedFormsUnchanged:
    @pytest.mark.parametrize("name", list(CAP_PARAMS))
    def test_laws_across_the_cap(self, name):
        omega, gamma = CAP_PARAMS[name]
        p = ModelParams(omega, gamma)
        span = 8.0 * (800.0 / gamma + 1.0 / omega)
        tau = np.append(np.linspace(0.0, span, 40_001), [1e6, 1e300, math.inf])
        digest = sha256_of(core.waiting_time_density(tau, p), core.waiting_time_cdf(tau, p))
        assert digest == CAP_DIGESTS[name]

    def test_moments(self):
        values = []
        for gamma in (1.0, 1e4):
            for ratio in MOMENT_RATIOS:
                p = ModelParams(ratio * gamma, gamma)
                values += [
                    core.mean_waiting_time(p),
                    core.waiting_time_normalization(p),
                    core.waiting_time_tail_cutoff(p),
                ]
        assert sha256_of(values) == CAP_DIGESTS["moments"]

    def test_gauss_legendre_rule_is_numpys(self):
        # the moments' rule is numpy's leggauss(32), written out (bit for bit
        # at numpy 2.4) so that the runtime loads no numpy.polynomial
        nodes, weights = np.polynomial.legendre.leggauss(32)
        np.testing.assert_array_max_ulp(core._GL_NODES, nodes, maxulp=2)
        np.testing.assert_array_max_ulp(core._GL_WEIGHTS, weights, maxulp=2)

    def test_moments_do_not_depend_on_blas_threads(self):
        # OpenBLAS splits a long dot product across its threads, which moves
        # the last bits of a sum; the moments must give the same bits anyway
        script = (
            "from qjump import core\n"
            "for gamma in (1.0, 1e4):\n"
            "    p = core.ModelParams(100.0 * gamma, gamma)\n"
            "    print(core.waiting_time_normalization(p).hex(),"
            " core.mean_waiting_time(p).hex())\n"
        )
        one, two = (
            subprocess.run(
                [sys.executable, "-c", script],
                env=dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads),
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for threads in ("1", "2")
        )
        assert one == two


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
        # an unpumped atom ever emits with probability sin^2(theta0), its
        # excited population at t = 0
        def probability(theta0):
            return core.no_pump_excited_population(0.0, ModelParams(0.0, 1.0, theta0))

        assert probability(HALF_PI - 1e-9) == pytest.approx(1.0)
        assert probability(math.pi / 4) == pytest.approx(0.5)
        assert probability(0.0) == 0.0


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
normal_float = st.floats(sys.float_info.min, sys.float_info.max)
LOG_MIN, LOG_MAX = math.log(sys.float_info.min), math.log(sys.float_info.max)
FLOAT_MAX, EDGE_ULPS = Fraction(sys.float_info.max), Fraction(4, 2**52)
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
    # refused once by a fixed floor on omega/gamma
    @example(omega=1e-20, gamma=1.0, moment=core.mean_waiting_time)
    def test_waiting_time_moments(self, omega, gamma, moment):
        # finite inside [1e-24, 1e4], refused outside [1e-27, 2e4], either
        # between: the panel count, not a fixed ratio, sets the window
        ratio = omega / gamma
        call = lambda: moment(ModelParams(omega, gamma))
        if not (1e-27 < ratio < 2e4) or (
            min(omega, gamma) >= 1e-300 and 1e-24 <= ratio <= 1e4
        ):
            assert_finite_or_names(call, 1e-24 <= ratio <= 1e4, "omega")
            return
        # between the two, or a tail cutoff of order 1/omega + 1/gamma that
        # may pass the float range
        try:
            assert math.isfinite(call())
        except ValueError as e:
            assert re.search(r"\b(omega|gamma)\b", str(e)), e

    @settings(max_examples=200, deadline=None)
    @given(omega=normal_float, gamma=normal_float)
    @example(omega=1e100, gamma=1e100)
    @example(omega=1e200, gamma=1.0)
    # the plain powers omega^4 * gamma and omega^2 once gave these: subnormal,
    # so finite and nonzero, and up to 1e-3 off
    @example(omega=1e-80, gamma=0.1)
    @example(omega=1e-160, gamma=1e-30)
    # the scale gamma is finite, but math.log(gamma) rounds to log of the
    # largest float, so a log-space edge once demanded a refusal
    @example(omega=1.0, gamma=1.7976931348621712e308)
    def test_delay_scales(self, omega, gamma):
        # each scale is within 1e-12 of a log-space oracle wherever that is a
        # normal float, and names omega past the largest float.  The edge is
        # decided on the exact rational scale**power, with either outcome
        # allowed within the few ulps that the factored formula rounds by.
        p = ModelParams(omega, gamma)
        w, g = Fraction(omega), Fraction(gamma)
        log_omega, log_gamma = math.log(omega), math.log(gamma)
        for scale, power, exact, log_scale in [
            (core.weak_field_delay_scale, 5, 1 / (w**4 * g), -(4.0 * log_omega + log_gamma) / 5.0),
            (core.dressed_delay_scale, 1, g / w**2, log_gamma - 2.0 * log_omega),
        ]:
            fits = exact < (FLOAT_MAX * (1 - EDGE_ULPS)) ** power
            if fits or exact > (FLOAT_MAX * (1 + EDGE_ULPS)) ** power:
                assert_finite_or_names(lambda: scale(p), fits, "omega")
            else:
                try:
                    assert math.isfinite(scale(p))
                except ValueError as e:
                    assert re.search(r"\bomega\b", str(e)), e
            if fits and LOG_MIN <= log_scale < LOG_MAX:
                assert scale(p) == pytest.approx(math.exp(log_scale), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        omega=st.floats(1e-9, 0.1),
        gamma=st.floats(0.0, sys.float_info.min, exclude_min=True, exclude_max=True),
    )
    # gamma/omega is subnormal, gamma/omega^2 normal: once 2.0e-10 off
    @example(omega=1.02e-8, gamma=1.5e-323)
    def test_dressed_scale_of_subnormal_gamma(self, omega, gamma):
        # within 1e-12 of the exact rational gamma/omega^2 wherever that is normal
        exact = float(Fraction(gamma) / Fraction(omega) ** 2)
        scale = core.dressed_delay_scale(ModelParams(omega, gamma))
        if exact >= sys.float_info.min:
            assert scale == pytest.approx(exact, rel=1e-12)
        else:
            assert scale == pytest.approx(exact, rel=0, abs=sys.float_info.min * 1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "omega, gamma", [(1e-300, 4e-300), (1e200, 1e200), (1e-200, 1e300), (1e-300, 1.0)]
    )
    @pytest.mark.parametrize("scale", [core.weak_field_delay_scale, core.dressed_delay_scale])
    def test_delay_scales_of_numpy_scalars(self, scale, omega, gamma):
        # numpy scalars must give a float's result, without a warning

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
