import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def complex_lindblad_rhs(rho, params, weight):
    """Oracle: -i[H, rho] + gamma (weight s rho s^+ - {n_e, rho}/2), written
    with the 2x2 operators H = (omega/2) sigma_x, s = |g><e| and n_e = |e><e|."""
    h = 0.5 * params.omega * np.array([[0.0, 1.0], [1.0, 0.0]])
    s = np.array([[0.0, 1.0], [0.0, 0.0]])
    n_e = np.diag([0.0, 1.0])
    out = -1j * (h @ rho - rho @ h) - 0.5 * params.gamma * (n_e @ rho + rho @ n_e)
    return out + weight * params.gamma * (s @ rho @ s.T)


class TestRhs:
    """The right-hand side L x on x = (rho_gg, rho_ee, Re rho_ge, Im rho_ge)."""

    def test_ground_state_does_not_decay(self):
        rhs = baseline._generator(ModelParams(2.0, 1.0), 1.0) @ [1.0, 0.0, 0.0, 0.0]
        assert rhs[1] == 0.0
        assert rhs[3] != 0.0  # coherence driven by the pump

    def test_excited_decay_rate(self):
        p = ModelParams(0.0, 1.7)
        full = baseline._generator(p, 1.0) @ [0.0, 1.0, 0.0, 0.0]
        assert full[1] == pytest.approx(-p.gamma)
        assert full[0] + full[1] == pytest.approx(0.0, abs=1e-14)
        trunc = baseline._generator(p, 0.0) @ [0.0, 1.0, 0.0, 0.0]
        assert trunc[0] + trunc[1] == pytest.approx(-p.gamma)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_rhs_is_traceless(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = a + a.conj().T
        x = [rho[0, 0].real, rho[1, 1].real, rho[0, 1].real, rho[0, 1].imag]
        p = ModelParams(1.3, 0.8)
        for weight in (1.0, 0.0):
            want = complex_lindblad_rhs(rho, p, weight)
            want = [want[0, 0].real, want[1, 1].real, want[0, 1].real, want[0, 1].imag]
            assert np.allclose(baseline._generator(p, weight) @ x, want, rtol=0, atol=1e-14)
        rhs = baseline._generator(p, 1.0) @ x
        assert rhs[0] + rhs[1] == pytest.approx(0.0, abs=1e-12)


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

    @pytest.mark.parametrize("omega, gamma, dt", [(2.0, 1.0, 0.04), (1.0, 50.0, 0.1)])
    def test_step_size_independent(self, omega, gamma, dt):
        # each step is exact, so dt and dt/7 give the same states at common
        # times, also at gamma*dt = 5
        p = ModelParams(omega, gamma)
        times, coarse = baseline.integrate(DensityMatrix2.ground(), p, 2.0, dt)
        fine_times, fine = baseline.integrate(DensityMatrix2.ground(), p, 2.0, dt / 7)
        assert fine_times.size == 7 * (times.size - 1) + 1
        assert np.allclose(fine_times[::7], times, rtol=0, atol=1e-14)
        for a, b in zip(coarse, fine[::7]):
            assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12

    def test_truncated_matches_amplitude_closed_form(self):
        p = ModelParams(3.33, 1.0)
        times, states = baseline.integrate(
            DensityMatrix2.ground(), p, 15.0, 0.005, truncated=True
        )
        got = p.gamma * np.array([s.rho_ee for s in states])
        oracle = p.gamma * np.abs(closed_form_excited_amplitude(p, times)) ** 2
        assert np.max(np.abs(got - oracle)) < 1e-12

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
        # oracle: the stationary Bloch equations solved by hand
        p = ModelParams(ratio, 1.0)
        exact = p.omega**2 / (p.gamma**2 + 2.0 * p.omega**2)
        assert baseline.steady_state(p).rho_ee == pytest.approx(exact, abs=1e-12)
        dt = 0.05 / max(p.omega, p.gamma)
        _, states = baseline.integrate(DensityMatrix2.ground(), p, 60.0, dt)
        assert states[-1].rho_ee == pytest.approx(exact, abs=1e-10)

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

    def test_nonnegative_where_rho_ee_vanishes(self):
        # rho_ee = 0 at multiples of pi/lambda, where rounding can take it below 0
        p = ModelParams(3.33, 1.0)
        lam = math.sqrt((0.5 * p.omega) ** 2 - (0.25 * p.gamma) ** 2)
        d = baseline.delay_function(p, np.arange(6) * (math.pi / lam))
        assert np.all(d.density >= 0)
        assert np.max(d.density) < 1e-15

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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(
    end=st.floats(allow_nan=True, allow_infinity=True),
    omega=st.floats(0.0, 1e3),
    gamma=st.floats(1e-3, 1e3),
)
def test_delay_function_finite_or_names_tau_grid(end, omega, gamma):
    p = ModelParams(omega, gamma)
    ok = end > 0 and math.isfinite(end * (omega + gamma))
    try:
        density = baseline.delay_function(p, [0.0, end]).density
    except ValueError as exc:
        assert re.search(r"\btau_grid\b", str(exc)), exc
        # a finite span is refused only when it is too coarse for the mass
        assert not ok or "under-resolves" in str(exc), exc
        return
    assert ok and np.all(np.isfinite(density))


def test_nan_grid_point_names_tau_grid():
    with pytest.raises(ValueError, match="tau_grid"):
        baseline.delay_function(ModelParams(3.33, 1.0), [0.0, math.nan])


def test_coarse_grid_names_tau_grid():
    # two points 3e32 apart: the trapezoid mass of the curve exceeds 1
    with pytest.raises(ValueError, match="tau_grid under-resolves"):
        baseline.delay_function(ModelParams(7.97e-17, 1.0), [0.0, 3.15e32])
