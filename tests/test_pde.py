import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qjump import cli, core, pde
from qjump.core import ModelParams
from qjump.pde import ProbabilityField, ThetaGrid


def l1(a, b, grid):
    return float(np.sum(np.abs(a - b)) * grid.cell_width)


def mass(values, grid):
    return float(values.sum() * grid.cell_width)


def spike(grid, theta):
    """Unit mass in the cell of theta, the cell solve deposits a point mass in."""
    values = np.zeros(grid.n_cells)
    values[grid.cell_of(theta)] = 1.0 / grid.cell_width
    return values


class TestGrid:
    def test_rejects_small_grids(self):
        with pytest.raises(ValueError):
            ThetaGrid(8)

    @pytest.mark.parametrize("n", [64.5, 64.0, math.nan, math.inf, -math.inf, "64", 15, 0, -64])
    def test_rejects_non_integer_or_small_sizes(self, n):
        with pytest.raises(ValueError, match="n_cells"):
            ThetaGrid(n)

    def test_numpy_integer_size(self):
        assert ThetaGrid(np.int64(64)).centers.size == 64

    @pytest.mark.parametrize("n", [16, 64, 257, 1024])
    def test_tables_match_sin(self, n):
        g = ThetaGrid(n)
        s = np.sin(g.centers)
        assert np.max(np.abs(g.sin2 - s**2)) <= 1e-15
        assert np.max(np.abs(g.sin4 - s**4)) <= 1e-15
        assert np.max(np.abs(g.sin_2theta - np.sin(2.0 * g.centers))) <= 1e-15

    @pytest.mark.parametrize("n", [16, 64, 255, 256])
    def test_source_cell_contains_zero(self, n):
        g = ThetaGrid(n)
        left = -math.pi / 2 + g.source_index * g.cell_width
        assert left <= 0 < left + g.cell_width
        assert g.cell_of(0.0) == g.source_index

    def test_periodic_adjacency(self):
        g = ThetaGrid(64)
        assert g.cell_of(-math.pi / 2) == 0
        assert g.cell_of(math.pi / 2 - 1e-12) == 63

    def test_cell_of_array_matches_scalar(self):
        g = ThetaGrid(64)
        # the first angle reduces to exactly pi/2 by round-off and wraps to 0
        theta = np.array(
            [np.nextafter(-math.pi / 2, -math.inf), -math.pi / 2, math.pi / 2, 0.0,
             math.pi / 2 - 1e-12, 0.3 + 3.0 * math.pi, -7.5]
        )
        cells = g.cell_of(theta)
        assert cells.dtype.kind == "i" and cells.shape == theta.shape
        assert cells.tolist() == [g.cell_of(float(t)) for t in theta]
        assert cells[:5].tolist() == [0, 0, 0, g.source_index, 63]

    def test_equality_is_identity(self):
        g = ThetaGrid(64)
        assert (g == ThetaGrid(64)) is False
        assert (g == g) is True


class TestField:
    @pytest.mark.parametrize("bad", [-1e-300, -math.inf, math.inf, math.nan])
    def test_rejects_negative_and_non_finite(self, bad):
        one = np.full(64, 1.0 / math.pi)
        one[17] = bad
        for values in (one, np.full(64, bad)):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                ProbabilityField(ThetaGrid(64), values)

    def test_accepts_zeros_and_largest_finite(self):
        values = np.zeros(64)
        values[3] = np.finfo(float).max
        assert ProbabilityField(ThetaGrid(64), values).values[3] == values[3]

    def test_equality_is_identity(self):
        g = ThetaGrid(64)
        f = ProbabilityField(g, spike(g, 0.3))
        assert (f == ProbabilityField(f.grid, f.values.copy(), f.time)) is False
        assert (f == f) is True


class TestStep:
    def test_rejects_unstable_dt(self):
        g = ThetaGrid(64)
        with pytest.raises(ValueError):
            pde.StepOperator(ModelParams(100.0, 1.0), g, 1.0)
        with pytest.raises(ValueError):
            pde.StepOperator(ModelParams(0.0, 100.0), g, 1.0)

    def test_pure_advection_returns_to_translate(self):
        # gamma ~ 0: transport only; with unit Courant number the upwind
        # update is an exact shift, so a half Rabi period moves the field
        # by exactly half the cells
        g = ThetaGrid(64)
        p = ModelParams(2.0, 1e-9)
        values = spike(g, 0.3)
        op = pde.StepOperator(p, g, g.cell_width / (0.5 * p.omega))
        for _ in range(g.n_cells // 2):
            values = op.apply(values)
        assert l1(values, np.roll(spike(g, 0.3), 32), g) < 1e-6

    def test_unit_courant_is_exact_shift(self):
        # survival exp(-gamma sin^2 dt) rounds to 1, so the step is transport
        # alone; on a state spanning 15 decades it must equal np.roll exactly
        g = ThetaGrid(64)
        p = ModelParams(2.0, 1e-300)
        dt = g.cell_width / (0.5 * p.omega)
        op = pde.StepOperator(p, g, dt)
        assert op.courant == 1.0
        assert np.all(op.survival == 1.0)
        values = 10.0 ** np.random.default_rng(3).uniform(-15.0, 0.0, g.n_cells)
        assert np.array_equal(op.apply(values), np.roll(values, 1))
        batch = np.stack([values, values[::-1]])
        assert np.array_equal(op.apply(batch), np.roll(batch, 1, axis=-1))
        state = values
        for k in range(1, g.n_cells + 1):
            state = op.apply(state)
            assert np.array_equal(state, np.roll(values, k))

    def test_courant_past_one_by_round_off_is_one(self):
        # the step check admits dt up to 1e-12 past the bound; the step there
        # is still the exact shift, with no negative 1 - c weight
        g = ThetaGrid(64)
        p = ModelParams(2.0, 1e-300)
        op = pde.StepOperator(p, g, g.cell_width / (0.5 * p.omega) * (1 + 1e-13))
        assert op.courant == 1.0
        values = 10.0 ** np.random.default_rng(3).uniform(-15.0, 0.0, g.n_cells)
        assert np.array_equal(op.apply(values), np.roll(values, 1))

    def test_mass_conserved_and_positive(self):
        g = ThetaGrid(64)
        p = ModelParams(3.33, 1.0)
        values = spike(g, 0.1)
        op = pde.StepOperator(p, g, pde.max_stable_dt(p, g))
        for _ in range(200):
            values = op.apply(values)
        assert mass(values, g) == pytest.approx(1.0, abs=1e-12)
        assert np.all(values >= 0)

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(0.0, 10.0),
        st.floats(0.1, 5.0),
        st.lists(st.floats(0.0, 3.0), min_size=32, max_size=32),
    )
    @example(omega=5e-324, gamma=1.0, raw=[1.0] * 32)
    def test_mass_conservation_property(self, omega, gamma, raw):
        if sum(raw) == 0:
            raw[0] = 1.0
        g = ThetaGrid(32)
        values = np.asarray(raw) / (sum(raw) * g.cell_width)
        p = ModelParams(omega, gamma)
        op = pde.StepOperator(p, g, pde.max_stable_dt(p, g))
        for _ in range(5):
            values = op.apply(values)
        assert mass(values, g) == pytest.approx(1.0, abs=1e-12)
        assert np.all(values >= 0)

    def test_max_stable_dt_with_subnormal_omega(self):
        # 0.5 * omega underflows to 0; the gamma bound must still apply
        g = ThetaGrid(32)
        p = ModelParams(5e-324, 2.0)
        assert pde.max_stable_dt(p, g) == pde.MAX_GAMMA_DT / p.gamma


def _oracle_rate(values, grid, p):
    """Quadrature of p * (omega/2 sin(2 theta) - gamma sin^4 theta), with np.sum."""
    th = grid.centers
    integrand = 0.5 * p.omega * np.sin(2.0 * th) - p.gamma * np.sin(th) ** 4
    return np.sum(values * integrand) * grid.cell_width


def _spike_rate(theta, p):
    """population_rate of a unit spike in the cell of theta on 256 cells, and
    the rate omega/2 sin(2 c) - gamma sin^4(c) at that cell's center c."""
    g = ThetaGrid(256)
    c = g.centers[g.cell_of(theta)]
    got = pde.population_rate(ProbabilityField(g, spike(g, theta)), p)
    return got, 0.5 * p.omega * math.sin(2.0 * c) - p.gamma * math.sin(c) ** 4


class TestPopulationRate:
    def test_delta_at_zero_is_stationary(self):
        # the spike sits at the center dx/2 of the source cell, not at 0
        got, want = _spike_rate(0.0, ModelParams(1.0, 1.0))
        assert got == pytest.approx(want, abs=1e-3)

    def test_pure_drive_at_quarter_pi(self):
        got, want = _spike_rate(math.pi / 4, ModelParams(2.0, 1e-12))
        assert got == pytest.approx(want, abs=1e-3)

    def test_no_pump_rate(self):
        got, want = _spike_rate(0.6, ModelParams(0.0, 2.0))
        assert got == pytest.approx(want, abs=1e-3)

    @pytest.mark.parametrize("n", [16, 64, 257, 1024])
    @pytest.mark.parametrize(
        "omega, gamma", [(0.0, 1.0), (3.33, 1.0), (1.0 / 6.0, 1.0), (2.0, 1e-12), (50.0, 7.5)]
    )
    def test_matches_independent_quadrature(self, n, omega, gamma):
        g = ThetaGrid(n)
        p = ModelParams(omega, gamma)
        rng = np.random.default_rng(n)
        for _ in range(5):
            values = rng.exponential(size=n) * (rng.random(n) < 0.7)
            got = pde.population_rate(ProbabilityField(g, values), p)
            assert got == pytest.approx(_oracle_rate(values, g, p), rel=1e-13, abs=0.0)


class TestSolve:
    def test_no_pump_matches_closed_form(self):
        p = ModelParams(0.0, 1.0, math.pi / 4)
        g = ThetaGrid(256)
        r = pde.solve(p, g, 10.0, pde.max_stable_dt(p, g))
        exact = core.no_pump_excited_population(r.times, p)
        assert np.max(np.abs(r.rho1 - exact)) < 1e-3

    def test_mass_conserved_at_every_sample(self):
        p = ModelParams(3.33, 1.0)
        g = ThetaGrid(128)
        r = pde.solve(p, g, 10.0, pde.max_stable_dt(p, g), snapshot_stride=50)
        for snap in r.snapshots:
            assert mass(snap.values, g) == pytest.approx(1.0, abs=1e-10)

    def test_rate_identity_rho0_plus_rho1(self):
        p = ModelParams(3.33, 1.0)
        g = ThetaGrid(64)
        r = pde.solve(p, g, 5.0, pde.max_stable_dt(p, g))
        assert np.max(np.abs(r.rho0 + r.rho1 - 1.0)) < 1e-10

    def test_long_run_approaches_stationary_shape(self):
        p = ModelParams(3.33, 1.0)
        g = ThetaGrid(128)
        dt = pde.max_stable_dt(p, g)
        n = int(40.0 / dt)
        r = pde.solve(p, g, 40.0, dt, snapshot_stride=max(1, n // 8))
        dists = [
            l1(a.values, b.values, g)
            for a, b in zip(r.snapshots[1:], r.snapshots[2:])
        ]
        assert dists[-1] < 0.02
        assert dists[-1] < dists[0]

    @pytest.mark.parametrize(
        "omega, theta0", [(1.0 / 6.0, 0.0), (3.33, 0.0), (0.0, math.pi / 4), (0.0, 0.0)]
    )
    def test_point_mass_is_zero_once_not_normal(self, omega, theta0):
        # the transport benchmark's 10^5-step solve at omega/gamma = 1/6: the
        # full running product goes subnormal at step 19 222 and never reaches 0
        p = ModelParams(omega, 1.0, theta0)
        dt = pde.max_stable_dt(p, ThetaGrid(256))
        angle = theta0 + 0.5 * omega * np.linspace(0.0, 100_000 * dt, 100_001)
        point = pde._point_mass(angle, dt, p)
        full = np.cumprod(np.append(1.0, np.exp(-pde._hazard_integrals(angle, dt, p))))
        tiny = np.finfo(float).tiny
        normal = full >= tiny
        assert not np.any((point > 0.0) & (point < tiny))
        assert np.array_equal(point[normal], full[normal])
        assert np.all(point[~normal] == 0.0)
        if omega == 1.0 / 6.0:
            assert np.flatnonzero(~normal)[0] == 19_222 and full[-1] > 0.0

    def test_rejects_bad_t_end(self):
        p = ModelParams(1.0, 1.0)
        with pytest.raises(ValueError):
            pde.solve(p, ThetaGrid(64), -1.0, 0.01)

    @pytest.mark.parametrize(
        "name, t_end, dt, theta0",
        [
            *(
                pytest.param(name, t_end, dt, 0.0, id=f"{name}-{t_end}-{dt}")
                for name, t_end, dt in [
                    ("t_end", math.nan, 0.01),
                    ("t_end", math.inf, 0.01),
                    ("t_end", -math.inf, 0.01),
                    ("dt", 1.0, math.nan),
                    ("dt", 1.0, math.inf),
                    ("t_end", 1e300, 1e-10),
                ]
            ),
            pytest.param("theta0", 1.0, 0.01, math.nan, id="theta0-nan"),
            pytest.param("theta0", 1.0, 0.01, math.inf, id="theta0-inf"),
            pytest.param("t_end", 1e300, 1e-3, 0.0, id="too-many-steps-t_end"),
            pytest.param("dt", 1.0, 1e-200, 0.0, id="too-many-steps-dt"),
        ],
    )
    def test_non_finite_input_names_parameter(self, name, t_end, dt, theta0):
        with pytest.raises(ValueError, match=name):
            pde.solve(ModelParams(1.0, 1.0, theta0), ThetaGrid(64), t_end, dt)

    @pytest.mark.parametrize("stride", [2.5, 2.0, math.nan, math.inf, "3", 0, -1])
    def test_rejects_bad_snapshot_stride(self, stride):
        with pytest.raises(ValueError, match="snapshot_stride"):
            pde.solve(ModelParams(1.0, 1.0), ThetaGrid(64), 1.0, 0.01, snapshot_stride=stride)

    @settings(max_examples=150, deadline=None)
    @given(
        n_cells=st.one_of(
            st.integers(16, 300), st.sampled_from([15, 0, -4, 64.5, math.nan, math.inf])
        ),
        omega=st.floats(0.0, 10.0),
        gamma=st.floats(0.1, 5.0),
        # an integer t_end counts steps of dt, which keeps valid solves small
        t_end=st.one_of(
            st.integers(1, 1500),
            st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf, 1e300]),
        ),
        # dt in units of the largest stable step
        dt=st.one_of(
            st.floats(0.05, 1.5), st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.1])
        ),
        theta0=st.one_of(
            st.floats(-math.pi / 2, math.pi / 2, exclude_max=True),
            st.floats(allow_nan=True, allow_infinity=True),
        ),
        stride=st.one_of(
            st.none(), st.integers(-3, 50), st.floats(allow_nan=True, allow_infinity=True)
        ),
    )
    @example(n_cells=16, omega=0.0, gamma=1.0, t_end=1, dt=1.0, theta0=8.98846567431158e307, stride=None)
    # each overflowed np.divmod in the blocks with an OverflowError
    @example(n_cells=64, omega=3.33, gamma=1.0, t_end=1500, dt=1.0, theta0=0.3, stride=2**63)
    @example(n_cells=64, omega=3.33, gamma=1.0, t_end=1500, dt=1.0, theta0=0.3, stride=10**30)
    def test_finite_output_or_named_error(self, n_cells, omega, gamma, t_end, dt, theta0, stride):
        try:
            p = ModelParams(omega, gamma, theta0)
            g = ThetaGrid(n_cells)
            dt *= pde.max_stable_dt(p, g)
            if isinstance(t_end, int):
                t_end *= dt
            r = pde.solve(p, g, t_end, dt, snapshot_stride=stride)
        except ValueError as e:
            assert re.search(r"t_end|dt|theta0|snapshot_stride|n_cells", str(e)), str(e)
            return
        assert np.isfinite(r.rho0).all() and np.isfinite(r.rho1).all()
        assert np.isfinite(r.final.values).all()
        assert all(np.isfinite(s.values).all() for s in r.snapshots)

    @pytest.mark.parametrize("stride", [2001, 10**5, 2**62, 2**63, 10**30])
    def test_stride_past_the_end_keeps_two_snapshots(self, stride):
        p, g = ModelParams(3.33, 1.0, 0.3), ThetaGrid(64)
        dt = pde.max_stable_dt(p, g)
        want = pde.solve(p, g, 2000 * dt, dt, snapshot_stride=2000)
        r = pde.solve(p, g, 2000 * dt, dt, snapshot_stride=stride)
        assert path(2000, 64) == "blocks"

        def digest(r):
            return sha256_of(r.times, r.rho0, r.rho1, *(s.values for s in r.snapshots))

        assert digest(r) == digest(want)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_step_rejects_non_finite_dt(self, dt):
        with pytest.raises(ValueError, match="dt"):
            pde.StepOperator(ModelParams(1.0, 1.0), ThetaGrid(64), dt)

    @pytest.mark.parametrize(
        "t_end, dt, n_steps",
        [(1.0, 0.03, 34), (0.01, 0.03, 1), (0.3, 0.1, 3), (1.0, 1.0 / 49.0, 49)],
    )
    def test_ends_exactly_at_t_end(self, t_end, dt, n_steps):
        r = pde.solve(ModelParams(0.1, 1.0), ThetaGrid(64), t_end, dt)
        assert r.times.size == n_steps + 1
        assert r.times[-1] == t_end
        assert r.final.time == t_end
        assert r.times[1] == t_end / n_steps <= dt

    @pytest.mark.parametrize("dt, stride", [(0.03, 1), (0.03, 7), (0.03, 35), (0.001, 300)])
    def test_snapshots_end_at_t_end(self, dt, stride):
        r = pde.solve(ModelParams(0.1, 1.0), ThetaGrid(64), 1.0, dt, snapshot_stride=stride)
        assert [s.time for s in r.snapshots] == [*r.times[:-1:stride], 1.0]
        assert r.final is r.snapshots[-1]

    def test_whole_step_count_is_kept(self):
        # 100_000 * dt / dt is not exactly 100_000 in floating point
        p = ModelParams(3.33, 1.0)
        g = ThetaGrid(256)
        dt = pde.max_stable_dt(p, g)
        r = pde.solve(p, g, 1000 * dt, dt, snapshot_stride=1000)
        assert r.times.size == 1001

    def test_tiny_omega_matches_no_pump(self):
        # the hazard integral must not divide by a vanishing omega
        g = ThetaGrid(64)
        ref = pde.solve(ModelParams(0.0, 1.0, 0.5), g, 10.0, 0.01)
        for omega in (1e-300, 5e-324):
            r = pde.solve(ModelParams(omega, 1.0, 0.5), g, 10.0, 0.01)
            assert np.max(np.abs(r.rho1 - ref.rho1)) < 1e-12


def _oracle_hazard(theta, dt, p):
    """int_0^dt gamma sin^2(theta + omega s/2) ds, as the difference of sines."""
    if p.omega == 0.0:
        return p.gamma * dt * math.sin(theta) ** 2
    theta_end = theta + 0.5 * p.omega * dt
    return p.gamma * (
        0.5 * dt - (math.sin(2.0 * theta_end) - math.sin(2.0 * theta)) / (2.0 * p.omega)
    )


def stencil_reference(p, grid, times, stride):
    """The solve one StepOperator.apply at a time, with the point mass as a scalar recursion."""
    dt, dx = times[1], grid.cell_width
    s2 = np.sin(grid.centers) ** 2
    op = pde.StepOperator(p, grid, dt)
    values, m = np.zeros(grid.n_cells), 1.0
    rho0, rho1, snapshots = [], [], []
    for k, t in enumerate(times):
        theta = p.theta0 + 0.5 * p.omega * t
        rho1.append(np.sum(values * s2) * dx + m * math.sin(theta) ** 2)
        rho0.append(np.sum(values * (1.0 - s2)) * dx + m * math.cos(theta) ** 2)
        if k % stride == 0 or k == times.size - 1:
            snap = values.copy()
            if m > 0.0:
                snap[grid.cell_of(theta)] += m / dx
            snapshots.append(snap)
        if k < times.size - 1:
            values = op.apply(values)
            m_new = m * math.exp(-_oracle_hazard(theta, dt, p))
            values[grid.source_index] += (m - m_new) / dx
            m = m_new
    return np.array(rho0), np.array(rho1), snapshots


def path(n_steps, n_cells):
    """The way solve advances, whatever its snapshot stride: the stencil or the blocks."""
    return "stencil" if pde._block_size(n_steps, n_cells) == 1 else "blocks"


def solve_case(omega, theta0, n_cells, n_steps, stride):
    """A solve of n_steps at gamma = 0.5 and dt = max_stable_dt, or one cell
    width at omega = 2, where a step drifts exactly one cell."""
    p = ModelParams(omega, 0.5, theta0)
    g = ThetaGrid(n_cells)
    dt = g.cell_width if omega == 2.0 else pde.max_stable_dt(p, g)
    r = pde.solve(p, g, n_steps * dt, dt, snapshot_stride=stride)
    assert r.times.size == n_steps + 1
    if omega == 2.0:
        assert pde.StepOperator(p, g, r.times[1]).courant == 1.0
    return r, p, g


def assert_matches_stencil(r, p, g, stride):
    """r against stencil_reference: rho to 1e-12, each snapshot to 1e-12 in L1 per cell."""
    rho0, rho1, snapshots = stencil_reference(p, g, r.times, stride)
    assert np.max(np.abs(r.rho0 - rho0)) < 1e-12
    assert np.max(np.abs(r.rho1 - rho1)) < 1e-12
    assert len(r.snapshots) == len(snapshots)
    for got, want in zip(r.snapshots, snapshots):
        assert np.max(np.abs(got.values - want)) * g.cell_width < 1e-12


def case(*args, path):
    """A parameter set whose id is its arguments alone, as pytest would write it."""
    return pytest.param(*args, path, id="-".join(map(str, args)))


class TestBlockPropagation:
    """Blocks of dense powers of A must reproduce the stencil step by step."""

    @pytest.mark.parametrize(
        "omega, theta0, n_cells, n_steps, stride, want_path",
        [
            case(0.0, math.pi / 4, 64, 300, 10, path="blocks"),  # no transport
            case(2.0, 0.3, 64, 600, 37, path="blocks"),  # Courant number exactly 1
            case(3.33, 0.0, 64, 1000, 300, path="blocks"),  # stride divides neither
            case(3.33, 0.2, 64, 200, 1, path="blocks"),  # every state kept
            case(1.0, 0.4, 16, 3000, 3000, path="blocks"),
            case(3.33, -0.7, 257, 2000, 400, path="blocks"),
            # 4000 steps, under the break-even (512 / 28)^3 = 6114
            case(1.0 / 6.0, 1.2, 512, 4000, 4000, path="stencil"),
        ],
    )
    def test_matches_stencil(self, omega, theta0, n_cells, n_steps, stride, want_path):
        assert path(n_steps, n_cells) == want_path
        r, p, g = solve_case(omega, theta0, n_cells, n_steps, stride)
        assert_matches_stencil(r, p, g, stride)

    @pytest.mark.parametrize(
        "omega, theta0, n_cells, n_steps, stride, size",
        [
            (3.33, 0.2, 64, 256, 1, 16),  # the last row is a block start
            (3.33, 0.2, 64, 250, 1, 16),  # a last block of 10 steps
            (2.0, 0.3, 64, 600, 1, 32),  # Courant number exactly 1
            (0.0, math.pi / 4, 64, 300, 1, 8),  # no transport
            (1.0, 0.4, 16, 3000, 1, 64),
            (1.0 / 6.0, 1.2, 512, 1000, 1, 16),
            (3.33, -0.7, 257, 2000, 1, 128),
            (1.0 / 6.0, 1.2, 512, 4000, 4000, 32),  # blocks the rule does not pick
            (3.33, 0.2, 64, 1000, 100, 32),  # a remainder of 4 steps in every gap
            (1.0, 0.4, 16, 3000, 700, 128),  # a last gap of 200 steps
            (2.0, 0.3, 64, 600, 37, 64),  # one block per gap, shorter than size
            (3.33, -0.7, 257, 2000, 128, 128),  # one full block per gap
            # the point mass underflows to 0 at step 15 022: no forcing in
            # 53 % of the steps, most of the blocks
            (2.0, 0.3, 16, 32_000, 3000, 64),
            (3.33, 0.3, 64, 1357, 13, 32),  # two or three snapshots in each block
            # the last step at offset 0 of a block that holds nothing else
            (2.0, 0.3, 64, 640, 100, 32),
            # the last block ends at offset 8, and the stack steps on to 30
            (3.33, 0.2, 64, 1000, 30, 32),
        ],
    )
    def test_block_size_matches_stencil(
        self, monkeypatch, omega, theta0, n_cells, n_steps, stride, size
    ):
        # the blocks at a size set here, whatever _block_size picks, in
        # chunks of three blocks
        monkeypatch.setattr(pde, "_block_size", lambda *args: size)
        monkeypatch.setattr(pde, "CHUNK_ELEMENTS", 3 * max(size, n_cells))
        r, p, g = solve_case(omega, theta0, n_cells, n_steps, stride)
        assert_matches_stencil(r, p, g, stride)

    @pytest.mark.parametrize(
        "n_steps, n_cells, want_path",
        [
            (100, 256, "stencil"),  # no_pump: too short for the powers
            (204, 64, "blocks"),  # the refinement ladder: 3.0 at omega = 3.33
            (815, 256, "blocks"),
            (1629, 512, "stencil"),
            (20_000, 256, "blocks"),
            (20_000, 2048, "stencil"),  # past MAX_BLOCK_CELLS
        ],
    )
    def test_stride_one_path(self, n_steps, n_cells, want_path):
        assert path(n_steps, n_cells) == want_path

    @pytest.mark.parametrize(
        "n_steps, stride, n_cells, size",
        [
            (100_000, 10_000, 256, 256),  # the benchmark's sparse solves
            (20_000, 1, 256, 128),  # its dense solve
            (204, 1, 64, 8),  # its refinement ladder
            (408, 1, 128, 16),
            (815, 1, 256, 16),  # (256 / 28)^3 = 764 steps break even
            (1629, 1, 512, 1),
            (100, 1, 256, 1),  # no_pump
            (340, 340, 128, 16),  # the duality reference
            (2000, 1, 256, 32),  # PDE_DIGESTS' solves
            (150, 7, 256, 1),
            (2000, 400, 128, 32),
            (1000, 1, 128, 16),
            (1357, 13, 256, 32),  # qjump pde: blocks past its snapshots
            (4000, 4000, 512, 1),  # the stencil guards
            (40_000, 4000, 1024, 1),
            (20_000, 1, 2048, 1),  # past MAX_BLOCK_CELLS
            # short strides, which once capped B, run the same blocks
            (1000, 2, 256, 16),
            (1000, 4, 256, 16),
            (7000, 8, 512, 64),
            (7000, 16, 512, 64),
            (49_000, 16, 1024, 128),  # just past (1024 / 28)^3 = 48 913.2
        ],
    )
    def test_block_size(self, n_steps, stride, n_cells, size):
        # the stride names the solve a row comes from; B does not read it
        assert pde._block_size(n_steps, n_cells) == size


# sha256 of the float64 bytes of a solve's (times, rho0, rho1, stacked
# snapshot values, snapshot times), of StepOperator.matrix(), and of
# --no-timestamp CLI files.  stencil_stride7, no_pump and the matrices are
# stencil bits.  The other five were re-recorded when one path of uniform
# blocks (populations from the block products, snapshots by stencil steps
# from the block starts) replaced the stride-1 fill and the blocks that
# restarted at every snapshot.  Against the last digests of those paths
# (18eecaa5..., 3cb9264c..., 7f1815ed..., bd1a32d9..., 1c9da19a...):
# stencil_stride1 moved by at most 5.6e-16 in rho and 0 in the snapshots,
# fill by 2.2e-16 in rho0, 1.7e-16 in rho1 and 0 in the snapshots, blocks
# by 5.6e-16 in rho and 1.7e-16 in L1 per snapshot, the qjump pde solve
# (B 13 -> 32) by 1.4e-15 in rho and 2.6e-15 in L1 per snapshot, and the
# qjump duality reference by 2.0e-16 in L1, which moved its L1 distances by
# at most 2.8e-17 and its slope by 3.3e-16
PDE_DIGESTS = {
    "stencil_stride1": "64aa6dbe7a2531acf39179a4c6ba7402aadce83ae37376884c2b287c8705ab51",
    "fill": "1cc7e6290b18b38722d2df1f37b6e28d617e55c85e695860c964843e3d821555",
    "stencil_stride7": "00863d10a947c7a0b4f6fc70225d2982685d565403ab299e3d916338c1b59c73",
    "blocks": "7d11b12db92ed8ecfe6ec456f183517d09da2001f9b79cdd6dcc183fff93deda",
    "no_pump": "357adbbb3d962692a143b1216b8330d6631c844c8d228a95b4563bf483b3af1b",
    "matrix_c0": "5715e0ca106ea37262bff18d41570056ea0f27e924b4b71e22aec7bbce13976f",
    "matrix_c_mid": "b8c049cac6f66ff5426547c981cd14116b049d64cd4b9cb9b4a423c0a5bcf992",
    "matrix_c1": "5c7002b67167a40d5443d505c3b284f9fe502124b23d8e9b9b4f6054622fa7b5",
    "cli_pde": "d0ff7c2cc01bbc2e00e4bdc9508a98ea9252217e11494739799253c5a7c61c52",
    "cli_duality": "8f592a2eefb40c01b586b81e8821e5c34a82b49fb8311f4492b412c1544caaab",
}
# (params, n_cells, t_end, snapshot_stride) at dt = max_stable_dt; an integer
# t_end counts steps of dt
SOLVE_RUNS = {
    "stencil_stride1": (ModelParams(3.33, 1.0), 256, 2000, 1),
    "stencil_stride7": (ModelParams(3.33, 1.0, 0.3), 256, 150, 7),
    "blocks": (ModelParams(3.33, 1.0, -0.7), 128, 2000, 400),
    "no_pump": (ModelParams(0.0, 1.0, math.pi / 4), 256, 10.0, None),
    "fill": (ModelParams(3.33, 1.0, -0.7), 128, 1000, 1),
}
# the path each run takes; a block-size rule that moves one shows here first
SOLVE_PATHS = {
    "stencil_stride1": "blocks",
    "stencil_stride7": "stencil",
    "blocks": "blocks",
    "no_pump": "stencil",
    "fill": "blocks",
}
# (params, dt) on a 64-cell grid: Courant number 0, strictly between 0 and 1,
# and 1 (dt=None: one cell width at omega = 2)
STEP_OPERATORS = {
    "c0": (ModelParams(0.0, 1.0), 0.05),
    "c_mid": (ModelParams(3.33, 1.0), 0.0123),
    "c1": (ModelParams(2.0, 0.5), None),
}
CLI_RUNS = {
    "cli_pde": ["pde", "--omega", "3.33", "--theta0", "0.3", "--horizon", "5"],
    "cli_duality": ["duality"],
}


def sha256_of(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def step_operator(name):
    p, dt = STEP_OPERATORS[name]
    g = ThetaGrid(64)
    return pde.StepOperator(p, g, g.cell_width if dt is None else dt)


def solve_run(name):
    """The solve SOLVE_RUNS[name] with its grid, params and snapshot stride."""
    p, n_cells, t_end, stride = SOLVE_RUNS[name]
    g = ThetaGrid(n_cells)
    dt = pde.max_stable_dt(p, g)
    r = pde.solve(p, g, t_end * dt if isinstance(t_end, int) else t_end, dt, stride)
    return r, g, p, stride or max(1, (r.times.size - 1) // 100)


class TestBitIdentity:
    @pytest.mark.parametrize("name", list(SOLVE_RUNS))
    def test_solve_unchanged(self, name):
        r, g, _, stride = solve_run(name)
        assert path(r.times.size - 1, g.n_cells) == SOLVE_PATHS[name]
        values = np.stack([s.values for s in r.snapshots])
        times = np.array([s.time for s in r.snapshots])
        assert sha256_of(r.times, r.rho0, r.rho1, values, times) == PDE_DIGESTS[name]

    @pytest.mark.parametrize("name", list(SOLVE_RUNS))
    def test_solve_matches_stencil(self, name):
        r, g, p, stride = solve_run(name)
        assert_matches_stencil(r, p, g, stride)

    @pytest.mark.parametrize("name", list(STEP_OPERATORS))
    def test_matrix_unchanged(self, name):
        assert sha256_of(step_operator(name).matrix()) == PDE_DIGESTS[f"matrix_{name}"]

    @pytest.mark.parametrize("name", list(CLI_RUNS))
    def test_cli_file_unchanged(self, tmp_path, name):
        out = tmp_path / f"{name}.csv"
        assert cli.main([*CLI_RUNS[name], "--no-timestamp", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PDE_DIGESTS[name]


class TestApplyOut:
    @pytest.mark.parametrize("name", list(STEP_OPERATORS))
    @pytest.mark.parametrize("shape", [(64,), (3, 64)])
    def test_out_is_bitwise_the_allocating_apply(self, name, shape):
        op = step_operator(name)
        c = op.courant
        assert {"c0": c == 0.0, "c_mid": 0.0 < c < 1.0, "c1": c == 1.0}[name]
        values = 10.0 ** np.random.default_rng(5).uniform(-15.0, 0.0, shape)
        kept = values.copy()
        want = op.apply(values)
        buf = np.full(shape, np.nan)
        assert op.apply(values, out=buf) is buf
        assert buf.tobytes() == want.tobytes()
        assert values.tobytes() == kept.tobytes()
        # out may be the input itself: the step then runs in place
        assert op.apply(values, out=values) is values
        assert values.tobytes() == want.tobytes()


class TestSnapshotTable:
    @pytest.mark.parametrize("stride", [1, 7, 37])
    def test_snapshots_are_rows_of_one_table(self, stride):
        p, g = ModelParams(3.33, 1.0, 0.3), ThetaGrid(64)
        dt = pde.max_stable_dt(p, g)
        r = pde.solve(p, g, 600 * dt, dt, stride)
        table = r.snapshots[0].values.base
        assert table is not None and table.shape == (len(r.snapshots), g.n_cells)
        want_times = [*r.times[:-1:stride], r.times[-1]]
        assert [s.time for s in r.snapshots] == want_times
        for s in r.snapshots:
            assert type(s) is ProbabilityField and type(s.time) is float
            assert s.grid is g and s.values.base is table
        # the public constructor still checks a row it is handed
        bad = r.snapshots[1].values.copy()
        bad[5] = -1.0
        with pytest.raises(ValueError, match="finite and nonnegative"):
            ProbabilityField(g, bad)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("stride", [1, 37])
    def test_table_is_checked_once(self, monkeypatch, bad, stride):
        # a step that spoils the state must still fail the solve's one check,
        # on the blocks with a snapshot every step and every 37 steps
        assert path(600, 64) == "blocks"
        apply = pde.StepOperator.apply

        def spoiled(self, values, out=None):
            result = apply(self, values, out=out)
            result[..., 0] = bad
            return result

        monkeypatch.setattr(pde.StepOperator, "apply", spoiled)
        p, g = ModelParams(3.33, 1.0), ThetaGrid(64)
        dt = pde.max_stable_dt(p, g)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite and"):
            pde.solve(p, g, 600 * dt, dt, stride)


# (name, path, stride, cells): 600 steps on the blocks with a snapshot every
# step and every 37 steps, and on the stencil
VIEW_PATHS = [
    ("fill", "blocks", 1, 64), ("stencil", "stencil", 7, 512), ("blocks", "blocks", 37, 64)
]


class TestSnapshotViews:
    """SolveResult.snapshots is a lazy sequence of views of its read-only table."""

    @pytest.fixture(params=VIEW_PATHS, ids=[name for name, *_ in VIEW_PATHS])
    def result(self, request):
        _, want_path, stride, n_cells = request.param
        assert path(600, n_cells) == want_path
        p, g = ModelParams(3.33, 1.0, 0.3), ThetaGrid(n_cells)
        dt = pde.max_stable_dt(p, g)
        r = pde.solve(p, g, 600 * dt, dt, stride)
        assert r.snapshot_times.tolist() == [*r.times[:-1:stride], r.times[-1]]
        return r

    @staticmethod
    def rows(r):
        """Each table row's bytes and its time, as a list of the views would hold them."""
        return [(v.tobytes(), t) for v, t in zip(r.table, r.snapshot_times.tolist())]

    @staticmethod
    def key(s):
        assert type(s) is ProbabilityField and type(s.time) is float
        return s.values.tobytes(), s.time

    def test_behaves_as_the_list(self, result):
        r, want = result, self.rows(result)
        s, n = result.snapshots, len(want)
        assert len(s) == n == r.table.shape[0]
        for i in range(n):
            assert self.key(s[i]) == self.key(s[i - n]) == want[i]
            assert s[i].values.base is r.table and s[i].grid is r.final.grid
        for i in (n, -n - 1, 10**20):
            with pytest.raises(IndexError):
                s[i]
        for cut in [slice(None), slice(None, -1), slice(1, -1, 3), slice(None, None, -2),
                    slice(-3, None), slice(5, 5), slice(n, None), slice(2, 1)]:
            part = s[cut]
            assert isinstance(part, pde.Snapshots) and len(part) == len(want[cut])
            assert [self.key(v) for v in part] == want[cut]
        for _ in range(2):  # iteration starts afresh on every pass
            assert [self.key(v) for v in s] == want

    def test_final_is_the_last_view(self, result):
        r = result
        assert r.final is r.snapshots[-1] is list(r.snapshots)[-1] is r.snapshots[1:][-1]
        assert r.final.time == r.times[-1] and r.final.values.base is r.table

    def test_table_is_read_only(self, result):
        r = result
        for array in (r.final.values, r.snapshots[0].values, r.table, r.snapshot_times):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_views_are_slotted(self, result):
        with pytest.raises(AttributeError):
            result.final.note = "no __dict__"

    def test_dense_solve_holds_little_beyond_its_table(self):
        # the 20 000-step stride-1 solve of the transport benchmark: a list
        # of 20 001 views held 5.29 MB beside the table
        p, g = ModelParams(3.33, 1.0), ThetaGrid(256)
        dt = pde.max_stable_dt(p, g)
        tracemalloc.start()
        try:
            r = pde.solve(p, g, 20_000 * dt, dt, 1)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert r.table.shape == (20_001, 256)
        assert held <= r.table.nbytes + 1e6
