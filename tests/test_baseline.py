import math

import numpy as np
import pytest

from qjump import baseline
from qjump.baseline import DensityMatrix2
from qjump.core import ModelParams


def closed_form_excited_amplitude(params, tau):
    """Oracle: amplitude of the excited state under the truncated evolution
    started from the ground state, from the damped two-level closed form."""
    lam = np.sqrt(complex((0.5 * params.omega) ** 2 - (0.25 * params.gamma) ** 2))
    return (
        -1j
        * (0.5 * params.omega)
        * np.exp(-0.25 * params.gamma * tau)
        * np.sinc(lam * tau / np.pi)
        * tau
    )


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix2(np.array([[1.0, 0.2], [0.3, 0.0]]))

    def test_constructors(self):
        assert DensityMatrix2.ground().rho_gg == 1.0
        assert DensityMatrix2.excited().rho_ee == 1.0
        assert DensityMatrix2.ground().trace() == pytest.approx(1.0)


class TestRhs:
    def test_ground_state_does_not_decay(self):
        p = ModelParams(2.0, 1.0)
        rhs = baseline.lindblad_rhs(DensityMatrix2.ground(), p)
        assert rhs.matrix[1, 1].real == pytest.approx(0.0, abs=1e-14)
        assert abs(rhs.matrix[0, 1]) > 0  # coherence driven by the pump

    def test_excited_decay_rate(self):
        p = ModelParams(0.0, 1.7)
        rho = DensityMatrix2.excited()
        full = baseline.lindblad_rhs(rho, p)
        assert full.matrix[1, 1].real == pytest.approx(-p.gamma)
        assert full.trace() == pytest.approx(0.0, abs=1e-14)
        trunc = baseline.lindblad_rhs(rho, p, truncated=True)
        assert trunc.trace() == pytest.approx(-p.gamma)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_rhs_is_traceless(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = DensityMatrix2(a + a.conj().T)
        rhs = baseline.lindblad_rhs(rho, ModelParams(1.3, 0.8))
        assert rhs.trace() == pytest.approx(0.0, abs=1e-12)


class TestIntegrate:
    def test_no_pump_decay_closed_form(self):
        p = ModelParams(0.0, 1.0)
        times, states = baseline.integrate(DensityMatrix2.excited(), p, 5.0, 0.02)
        exact = np.exp(-p.gamma * times)
        got = np.array([s.rho_ee for s in states])
        assert np.max(np.abs(got - exact)) < 1e-8

    def test_trace_conserved(self):
        p = ModelParams(3.33, 1.0)
        _, states = baseline.integrate(DensityMatrix2.ground(), p, 20.0, 0.02)
        traces = np.array([s.trace() for s in states])
        assert np.max(np.abs(traces - 1.0)) < 1e-8

    def test_truncated_trace_nonincreasing(self):
        p = ModelParams(3.33, 1.0)
        _, states = baseline.integrate(
            DensityMatrix2.ground(), p, 20.0, 0.02, truncated=True
        )
        traces = np.array([s.trace() for s in states])
        assert np.all(np.diff(traces) <= 1e-14)

    def test_fourth_order_convergence(self):
        p = ModelParams(2.0, 1.0)
        ref = baseline.integrate(DensityMatrix2.ground(), p, 2.0, 0.0005)[1][-1].rho_ee
        errs = []
        for dt in [0.04, 0.02, 0.01]:
            val = baseline.integrate(DensityMatrix2.ground(), p, 2.0, dt)[1][-1].rho_ee
            errs.append(abs(val - ref))
        order = np.polyfit(np.log([0.04, 0.02, 0.01]), np.log(errs), 1)[0]
        assert order > 3.5

    def test_rejects_large_dt(self):
        with pytest.raises(ValueError):
            baseline.integrate(DensityMatrix2.ground(), ModelParams(1.0, 50.0), 1.0, 0.1)

    def test_step_never_exceeds_dt(self):
        # round(1.0 / 0.03) = 33 steps would take h = 0.0303 > dt
        p = ModelParams(1.0, 1.0)
        times, states = baseline.integrate(DensityMatrix2.ground(), p, 1.0, 0.03)
        assert len(states) == times.size == 35
        assert times[1] <= 0.03
        assert times[-1] == 1.0

    @pytest.mark.parametrize(
        "name, t_end, dt",
        [
            ("t_end", math.nan, 0.01),
            ("t_end", math.inf, 0.01),
            ("dt", 1.0, math.nan),
            pytest.param("t_end", 1e300, 0.01, id="too-many-steps"),
        ],
    )
    def test_non_finite_input_names_parameter(self, name, t_end, dt):
        with pytest.raises(ValueError, match=name):
            baseline.integrate(DensityMatrix2.ground(), ModelParams(1.0, 1.0), t_end, dt)


class TestSteadyState:
    @pytest.mark.parametrize("ratio", [0.2, 1.0, 3.33, 10.0])
    def test_long_time_limit_matches_algebraic_solve(self, ratio):
        p = ModelParams(ratio, 1.0)
        ss = baseline.steady_state(p)
        dt = 0.05 / max(p.omega, p.gamma)
        _, states = baseline.integrate(DensityMatrix2.ground(), p, 60.0, dt)
        assert states[-1].rho_ee == pytest.approx(ss.rho_ee, abs=1e-6)
        assert 0.0 < ss.rho_ee < 0.5

    def test_saturation_limit(self):
        assert baseline.steady_state(ModelParams(100.0, 1.0)).rho_ee == pytest.approx(
            0.5, abs=1e-4
        )


class TestDelayFunction:
    def test_zero_at_origin(self):
        p = ModelParams(3.33, 1.0)
        d = baseline.delay_function(p, np.linspace(0, 10, 200))
        assert d.density[0] == 0.0

    def test_sub_probability(self):
        p = ModelParams(3.33, 1.0)
        d = baseline.delay_function(p, np.linspace(0, 30, 600))
        assert np.all(d.density >= 0)
        assert d.integral() <= 1.0 + 1e-6

    def test_matches_amplitude_closed_form(self):
        p = ModelParams(3.33, 1.0)
        tau = np.linspace(0, 15, 400)
        d = baseline.delay_function(p, tau)
        oracle = p.gamma * np.abs(closed_form_excited_amplitude(p, tau)) ** 2
        assert np.max(np.abs(d.density - oracle)) < 1e-12

    def test_overdamped_closed_form(self):
        # gamma > 2*omega: lambda is imaginary and sinc becomes sinh-like
        p = ModelParams(1.0 / 6.0, 1.0)
        tau = np.linspace(0, 40, 300)
        d = baseline.delay_function(p, tau)
        oracle = p.gamma * np.abs(closed_form_excited_amplitude(p, tau)) ** 2
        assert np.max(np.abs(d.density - oracle)) < 1e-12

    def test_critical_damping_closed_form(self):
        # omega = gamma/2: lambda = 0, where the two eigenmodes coalesce
        p = ModelParams(0.5, 1.0)
        tau = np.linspace(0, 30, 500)
        d = baseline.delay_function(p, tau)
        oracle = p.gamma * np.abs(closed_form_excited_amplitude(p, tau)) ** 2
        assert np.max(np.abs(d.density - oracle)) < 1e-12

    def test_non_uniform_grid_closed_form(self):
        # every spacing differs, so every step takes its own propagator
        p = ModelParams(3.33, 1.0)
        rng = np.random.default_rng(5)
        tau = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 5.0, 400))])
        assert np.unique(np.diff(tau)).size > 300
        d = baseline.delay_function(p, tau)
        oracle = p.gamma * np.abs(closed_form_excited_amplitude(p, tau)) ** 2
        assert np.max(np.abs(d.density - oracle)) < 1e-12

    def test_agrees_with_truncated_rk4(self):
        p = ModelParams(3.33, 1.0)
        times, states = baseline.integrate(
            DensityMatrix2.ground(), p, 15.0, 0.005, truncated=True
        )
        rk4 = p.gamma * np.array([s.rho_ee for s in states])
        d = baseline.delay_function(p, times)
        assert np.max(np.abs(d.density - rk4)) < 1e-8

    @pytest.mark.parametrize(
        "omega, gamma, tau",
        [
            (100.0, 1.0, np.linspace(0, 20, 20001)),
            (10.0, 1e4, np.linspace(0, 200, 2001)),
        ],
    )
    def test_extreme_ratios_stay_sub_probability(self, omega, gamma, tau):
        d = baseline.delay_function(ModelParams(omega, gamma), tau)
        assert np.all(np.isfinite(d.density))
        assert np.all(d.density >= 0)
        assert d.integral() <= 1.0

    def test_rejects_bad_grid(self):
        p = ModelParams(1.0, 1.0)
        with pytest.raises(ValueError):
            baseline.delay_function(p, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            baseline.delay_function(p, np.array([0.0, 2.0, 1.0]))
