import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qjump import baseline
from qjump.baseline import GROUND
from qjump.core import MAX_STEPS, ModelParams


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


def overdamped_excited_amplitude(params, tau):
    """Oracle: that amplitude divided by i, for gamma > 2 omega, in a form
    that does not cancel on stiff spans.

    c_e'' + (gamma/2) c_e' + (omega/2)^2 c_e = 0, c_e(0) = 0 and c_e'(0) =
    -i omega/2 give c_e = -i (omega/(4 k)) (e^(s tau) - e^(f tau)), k =
    sqrt((gamma/4)^2 - (omega/2)^2), with the roots f = -(gamma/4 + k) and
    s = (omega/2)^2/f (their product), so that neither root cancels; e^(s
    tau) - e^(f tau) = -e^(s tau) expm1(-2 k tau).
    """
    k = math.sqrt((0.25 * params.gamma) ** 2 - (0.5 * params.omega) ** 2)
    s = (0.5 * params.omega) ** 2 / -(0.25 * params.gamma + k)
    return (0.25 * params.omega / k) * np.exp(s * tau) * np.expm1(-2.0 * k * tau)


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
        times, states = baseline.integrate((0.0, 1.0, 0.0, 0.0), p, 5.0, 0.02)
        exact = np.exp(-p.gamma * times)
        assert np.max(np.abs(states[:, 1] - exact)) < 1e-8

    def test_trace_conserved(self):
        p = ModelParams(3.33, 1.0)
        _, states = baseline.integrate(GROUND, p, 20.0, 0.02)
        traces = states[:, 0] + states[:, 1]
        assert np.max(np.abs(traces - 1.0)) < 1e-8

    def test_truncated_trace_nonincreasing(self):
        p = ModelParams(3.33, 1.0)
        _, states = baseline.integrate(GROUND, p, 20.0, 0.02, truncated=True)
        traces = states[:, 0] + states[:, 1]
        assert np.all(np.diff(traces) <= 1e-14)

    @pytest.mark.parametrize("omega, gamma, dt", [(2.0, 1.0, 0.04), (1.0, 50.0, 0.1)])
    def test_step_size_independent(self, omega, gamma, dt):
        # each step is exact, so dt and dt/7 give the same states at common
        # times, also at gamma*dt = 5
        p = ModelParams(omega, gamma)
        times, coarse = baseline.integrate(GROUND, p, 2.0, dt)
        fine_times, fine = baseline.integrate(GROUND, p, 2.0, dt / 7)
        assert fine_times.size == 7 * (times.size - 1) + 1
        assert np.allclose(fine_times[::7], times, rtol=0, atol=1e-14)
        assert np.max(np.abs(coarse - fine[::7])) < 1e-12

    def test_truncated_matches_amplitude_closed_form(self):
        p = ModelParams(3.33, 1.0)
        times, states = baseline.integrate(GROUND, p, 15.0, 0.005, truncated=True)
        got = p.gamma * states[:, 1]
        oracle = p.gamma * np.abs(closed_form_excited_amplitude(p, times)) ** 2
        assert np.max(np.abs(got - oracle)) < 1e-12

    def test_step_never_exceeds_dt(self):
        # round(1.0 / 0.03) = 33 steps would take h = 0.0303 > dt
        p = ModelParams(1.0, 1.0)
        times, states = baseline.integrate(GROUND, p, 1.0, 0.03)
        assert states.shape == (times.size, 4) and times.size == 35
        assert times[1] <= 0.03
        assert times[-1] == 1.0

    @pytest.mark.parametrize(
        "name, x0, t_end, dt",
        [
            pytest.param("t_end", GROUND, math.nan, 0.01, id="t_end-nan-0.01"),
            pytest.param("t_end", GROUND, math.inf, 0.01, id="t_end-inf-0.01"),
            pytest.param("dt", GROUND, 1.0, math.nan, id="dt-1.0-nan"),
            pytest.param("t_end", GROUND, 1e300, 0.01, id="too-many-steps"),
            pytest.param("x0", (math.nan, 0.0, 0.0, 0.0), 1.0, 0.01, id="x0-nan"),
            pytest.param("x0", (1.0, 0.0, math.inf, 0.0), 1.0, 0.01, id="x0-inf"),
            pytest.param("x0", (1.0, 0.0, 0.0), 1.0, 0.01, id="x0-three-numbers"),
            pytest.param("x0", (*GROUND, 0.0), 1.0, 0.01, id="x0-five-numbers"),
            pytest.param("x0", "ground", 1.0, 0.01, id="x0-not-numbers"),
            pytest.param("x0", (1.5e308, 1.5e308, 0.0, 0.0), 1.0, 0.01, id="x0-overflows"),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_input_names_parameter(self, name, x0, t_end, dt):
        with pytest.raises(ValueError, match=name):
            baseline.integrate(x0, ModelParams(1.0, 1.0), t_end, dt)

    @pytest.mark.parametrize(
        "omega, gamma, t_end",
        [
            (1e19, 1.0, 1.0),  # omega*h = 1e19: exp(L h) comes out NaN
            (1.0, 1e6, 1e4),  # gamma*h = 1e10: one step moves the trace by 4e-6
        ],
    )
    def test_coarse_step_names_dt(self, omega, gamma, t_end):
        with pytest.raises(ValueError, match=r"\bdt under-resolves"):
            baseline.integrate(GROUND, ModelParams(omega, gamma), t_end, t_end)


class TestSteadyState:
    @pytest.mark.parametrize("ratio", [0.2, 1.0, 3.33, 10.0])
    def test_long_time_limit_matches_algebraic_solve(self, ratio):
        # oracle: the stationary Bloch equations solved by hand
        p = ModelParams(ratio, 1.0)
        exact = p.omega**2 / (p.gamma**2 + 2.0 * p.omega**2)
        assert baseline.steady_state(p)[1] == pytest.approx(exact, abs=1e-12)
        dt = 0.05 / max(p.omega, p.gamma)
        _, states = baseline.integrate(GROUND, p, 60.0, dt)
        assert states[-1, 1] == pytest.approx(exact, abs=1e-10)

    def test_saturation_limit(self):
        assert baseline.steady_state(ModelParams(100.0, 1.0))[1] == pytest.approx(
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

    @pytest.mark.parametrize("ratio", [1e-3, 0.05, 1.0, 100.0])
    def test_tail_cutoff_leaves_1e_9_of_the_mass(self, ratio):
        # the trace the truncated evolution keeps at T is the mass past T
        p = ModelParams(ratio * 2.0, 2.0)
        T = baseline.delay_tail_cutoff(p)
        _, states = baseline.integrate(GROUND, p, T, T / 100, truncated=True)
        assert 0.5e-9 < states[-1, 0] + states[-1, 1] < 2e-9

    @pytest.mark.parametrize("omega", [0.0, 1e-200])
    def test_tail_cutoff_without_decay_names_omega(self, omega):
        # an undriven atom never leaves the ground state, so its trace never
        # decays; at omega = 1e-200 the rate omega^2/gamma underflows to 0
        with pytest.raises(ValueError, match=r"omega=.*gamma="):
            baseline.delay_tail_cutoff(ModelParams(omega, 1.0))

    def test_rejects_bad_grid(self):
        p = ModelParams(1.0, 1.0)
        with pytest.raises(ValueError):
            baseline.delay_function(p, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            baseline.delay_function(p, np.array([0.0, 2.0, 1.0]))


class TestPropagatorPowers:
    """The states on a uniform grid are powers of one propagator applied to GROUND."""

    @pytest.mark.parametrize("ratio", [1e-3, 1.0 / 6.0, 0.5, 3.33, 100.0])
    def test_powers_match_stepping(self, ratio):
        # the state at every step of a 6 001-point grid over the tail cutoff,
        # against the closed form: 3.6e-15 to 2.7e-14 of the maximum on the
        # resolved grids; at 1e-3, (omega + gamma) h is about 3.5e3, and the
        # stiff steps leave 1.6e-10, inside MAX_STEP_NORM's documented 1e-9
        p = ModelParams(ratio, 1.0)
        tau = np.linspace(0.0, baseline.delay_tail_cutoff(p), 6001)
        h = tau[-1] / 6000
        powers = baseline._powers(baseline._generator(p, 0.0), GROUND, h, 6000)
        assert powers.shape == (6001, 4)
        if p.gamma > 2.0 * p.omega:
            oracle = overdamped_excited_amplitude(p, tau) ** 2
        else:
            oracle = np.abs(closed_form_excited_amplitude(p, tau)) ** 2
        bound = 1e-9 if (p.omega + p.gamma) * h > 1e3 else 1e-13
        assert np.max(np.abs(powers[:, 1] - oracle)) <= bound * oracle.max()

    def test_stiff_coarse_steps_hold_the_overdamped_closed_form(self):
        # `qjump baseline --omega 0.001`'s default grid: (omega + gamma) h is
        # about 1e4
        p = ModelParams(0.001, 1.0)
        tau = np.linspace(0.0, baseline.delay_tail_cutoff(p), 2000)
        assert (p.omega + p.gamma) * tau[1] > 1e4
        oracle = p.gamma * overdamped_excited_amplitude(p, tau) ** 2
        d = baseline.delay_function(p, tau)
        # MAX_STEP_NORM's documented round-off, relative to the maximum
        assert np.max(np.abs(d.density - oracle)) <= 1e-9 * oracle.max()

    @pytest.mark.parametrize(
        "tau",
        [
            pytest.param(np.linspace(0.0, 20.0, 401) + 1e-9 * (np.arange(401) == 200),
                         id="one-point-moved"),
            pytest.param(np.concatenate([[0.0], np.geomspace(1e-3, 20.0, 400)]), id="geomspace"),
            pytest.param([0.0, 1.0, 10.0], id="three-points"),
        ],
    )
    def test_non_uniform_grid_names_tau_grid(self, tau):
        with pytest.raises(ValueError, match=r"\btau_grid must be uniform"):
            baseline.delay_function(ModelParams(3.33, 1.0), tau)

    @settings(max_examples=200, deadline=None)
    @given(span=st.floats(1e-3, 1e12), points=st.integers(2, 40_000))
    def test_linspace_grid_is_accepted(self, span, points):
        # the README's and the benchmark's grids, and the 2.07e7 span of
        # `qjump baseline --omega 0.001`, lie inside this range; the model is
        # scaled with the span, so that no step is too coarse
        p = ModelParams(3.33 / span, 1.0 / span)
        d = baseline.delay_function(p, np.linspace(0.0, span, points))
        assert d.density.shape == (points,)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(
    end=st.floats(allow_nan=True, allow_infinity=True),
    omega=st.floats(0.0, 1e300),
    gamma=st.floats(1e-300, 1e300),
)
def test_delay_function_finite_or_names_tau_grid(end, omega, gamma):
    p = ModelParams(omega, gamma)
    ok = end > 0 and end * (omega + gamma) <= baseline.MAX_STEP_NORM
    try:
        density = baseline.delay_function(p, [0.0, end]).density
    except ValueError as exc:
        assert re.search(r"\btau_grid\b", str(exc)), exc
        # a finite span is refused only when it is too coarse for the mass
        assert not ok or "under-resolves" in str(exc), exc
        return
    assert ok and np.all(np.isfinite(density))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(
    x0=st.lists(st.floats(), min_size=3, max_size=5),
    t_end=st.floats(allow_nan=True, allow_infinity=True),
    dt=st.floats(allow_nan=True, allow_infinity=True),
    omega=st.floats(0.0, 1e300),
    gamma=st.floats(1e-300, 1e300),
    truncated=st.booleans(),
)
def test_integrate_finite_or_names_parameter(x0, t_end, dt, omega, gamma, truncated):
    # runs of more than 1e4 steps only take time here; the too-many-steps
    # row of TestIntegrate covers the step cap
    assume(not (dt > 0 and 1e4 * dt < t_end <= MAX_STEPS * dt))
    p = ModelParams(omega, gamma)
    try:
        times, states = baseline.integrate(x0, p, t_end, dt, truncated)
    except ValueError as exc:
        assert re.search(r"\b(x0|t_end|dt)\b", str(exc)), exc
        return
    assert np.all(np.isfinite(times)) and np.all(np.isfinite(states))
    assert states.shape == (times.size, 4)


@settings(max_examples=200, deadline=None)
@given(
    omega=st.floats(0.0, 1e300),
    gamma=st.floats(1e-300, 1e300),
)
def test_steady_state_unit_trace(omega, gamma):
    # oracle: the stationary Bloch equations solved by hand, in omega and
    # gamma scaled by their maximum so that no square overflows
    x = baseline.steady_state(ModelParams(omega, gamma))
    w, g = omega / max(omega, gamma), gamma / max(omega, gamma)
    assert np.all(np.isfinite(x))
    assert x[0] + x[1] == pytest.approx(1.0, abs=1e-12)
    assert x[1] == pytest.approx(w * w / (g * g + 2.0 * w * w), abs=1e-12)


@pytest.mark.parametrize(
    "omega, gamma, end",
    [
        (1e16, 1.0, 1.0),  # omega*h = 1e16: rho_ee comes out at 1.69
        (1e20, 1.0, 1.0),  # omega*h = 1e20: exp(L h) overflows
        (1.0, 1e6, 1e4),  # gamma*h = 1e10: rho_ee off by 4e-7 of itself in one step
    ],
)
def test_coarse_step_names_tau_grid(omega, gamma, end):
    with pytest.raises(ValueError, match=r"\btau_grid under-resolves the evolution"):
        baseline.delay_function(ModelParams(omega, gamma), [0.0, end])


def test_nan_grid_point_names_tau_grid():
    with pytest.raises(ValueError, match="tau_grid"):
        baseline.delay_function(ModelParams(3.33, 1.0), [0.0, math.nan])


def test_coarse_grid_names_tau_grid():
    # two points 3e32 apart: one step takes (omega + gamma) h to 3e32
    with pytest.raises(ValueError, match="tau_grid under-resolves"):
        baseline.delay_function(ModelParams(7.97e-17, 1.0), [0.0, 3.15e32])
