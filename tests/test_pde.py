import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qjump import core, pde
from qjump.core import ModelParams
from qjump.pde import ProbabilityField, ThetaGrid


def l1(a, b, grid):
    return float(np.sum(np.abs(a - b)) * grid.cell_width)


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
        f = pde.init_delta(ThetaGrid(64), 0.3)
        assert (f == ProbabilityField(f.grid, f.values.copy(), f.time)) is False
        assert (f == f) is True


class TestInitDelta:
    def test_unit_mass(self):
        f = pde.init_delta(ThetaGrid(64), 0.0)
        assert f.total_mass() == pytest.approx(1.0)
        assert np.count_nonzero(f.values) <= 2

    def test_excited_pure_state(self):
        f = pde.init_delta(ThetaGrid(256), math.pi / 2 - 1e-6)
        _, rho1 = pde.populations(f)
        assert rho1 == pytest.approx(1.0, abs=1e-3)

    def test_moment_matches_theta0(self):
        g = ThetaGrid(64)
        f = pde.init_delta(g, 0.4)
        assert np.sum(f.values * g.centers) * g.cell_width == pytest.approx(0.4)


class TestStep:
    def test_rejects_unstable_dt(self):
        g = ThetaGrid(64)
        f = pde.init_delta(g, 0.0)
        with pytest.raises(ValueError):
            pde.step(f, ModelParams(100.0, 1.0), 1.0)
        with pytest.raises(ValueError):
            pde.step(f, ModelParams(0.0, 100.0), 1.0)

    def test_pure_advection_returns_to_translate(self):
        # gamma ~ 0: transport only; with unit Courant number the upwind
        # update is an exact shift, so a half Rabi period moves the field
        # by exactly half the cells
        g = ThetaGrid(64)
        p = ModelParams(2.0, 1e-9)
        f = pde.init_delta(g, 0.3)
        dt = g.cell_width / (0.5 * p.omega)
        for _ in range(g.n_cells // 2):
            f = pde.step(f, p, dt)
        assert l1(f.values, np.roll(pde.init_delta(g, 0.3).values, 32), g) < 1e-6

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
        f = ProbabilityField(g, values)
        for k in range(1, g.n_cells + 1):
            f = pde.step(f, p, dt)
            assert np.array_equal(f.values, np.roll(values, k))

    def test_mass_conserved_and_positive(self):
        g = ThetaGrid(64)
        p = ModelParams(3.33, 1.0)
        f = pde.init_delta(g, 0.1)
        dt = pde.max_stable_dt(p, g)
        for _ in range(200):
            f = pde.step(f, p, dt)
        assert f.total_mass() == pytest.approx(1.0, abs=1e-12)
        assert np.all(f.values >= 0)

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
        f = ProbabilityField(g, values)
        p = ModelParams(omega, gamma)
        dt = pde.max_stable_dt(p, g)
        for _ in range(5):
            f = pde.step(f, p, dt)
        assert f.total_mass() == pytest.approx(1.0, abs=1e-12)
        assert np.all(f.values >= 0)

    def test_max_stable_dt_with_subnormal_omega(self):
        # 0.5 * omega underflows to 0; the gamma bound must still apply
        g = ThetaGrid(32)
        p = ModelParams(5e-324, 2.0)
        assert pde.max_stable_dt(p, g) == pde.MAX_GAMMA_DT / p.gamma


class TestPopulations:
    def test_delta_at_quarter_pi(self):
        f = pde.init_delta(ThetaGrid(256), math.pi / 4)
        rho0, rho1 = pde.populations(f)
        assert rho1 == pytest.approx(0.5, abs=1e-4)
        assert rho0 == pytest.approx(0.5, abs=1e-4)

    def test_uniform_field(self):
        g = ThetaGrid(64)
        f = ProbabilityField(g, np.full(64, 1 / math.pi))
        rho0, rho1 = pde.populations(f)
        assert rho0 == pytest.approx(0.5, abs=1e-12)
        assert rho1 == pytest.approx(0.5, abs=1e-12)

    def test_delta_at_zero(self):
        rho0, rho1 = pde.populations(pde.init_delta(ThetaGrid(256), 0.0))
        assert rho1 == pytest.approx(0.0, abs=1e-3)
        assert rho0 + rho1 == pytest.approx(1.0, abs=1e-12)


def _oracle_rate(values, grid, p):
    """Quadrature of p * (omega/2 sin(2 theta) - gamma sin^4 theta), with np.sum."""
    th = grid.centers
    integrand = 0.5 * p.omega * np.sin(2.0 * th) - p.gamma * np.sin(th) ** 4
    return np.sum(values * integrand) * grid.cell_width


class TestPopulationRate:
    def test_delta_at_zero_is_stationary(self):
        f = pde.init_delta(ThetaGrid(256), 0.0)
        assert pde.population_rate(f, ModelParams(1.0, 1.0)) == pytest.approx(
            0.0, abs=1e-3
        )

    def test_pure_drive_at_quarter_pi(self):
        f = pde.init_delta(ThetaGrid(256), math.pi / 4)
        assert pde.population_rate(f, ModelParams(2.0, 1e-12)) == pytest.approx(
            1.0, abs=1e-3
        )

    def test_no_pump_rate(self):
        theta0 = 0.6
        f = pde.init_delta(ThetaGrid(256), theta0)
        assert pde.population_rate(f, ModelParams(0.0, 2.0)) == pytest.approx(
            -2.0 * math.sin(theta0) ** 4, abs=1e-3
        )

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
            assert snap.total_mass() == pytest.approx(1.0, abs=1e-10)

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
        if theta0 != 0.0:
            with pytest.raises(ValueError, match="theta0"):
                pde.init_delta(ThetaGrid(64), theta0)

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

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_step_rejects_non_finite_dt(self, dt):
        with pytest.raises(ValueError, match="dt"):
            pde.step(pde.init_delta(ThetaGrid(64), 0.0), ModelParams(1.0, 1.0), dt)

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
    """The solve one pde.step at a time, with the point mass as a scalar recursion."""
    dt, dx = times[1], grid.cell_width
    s2 = np.sin(grid.centers) ** 2
    field, m = ProbabilityField(grid, np.zeros(grid.n_cells)), 1.0
    rho0, rho1, snapshots = [], [], []
    for k, t in enumerate(times):
        theta = p.theta0 + 0.5 * p.omega * t
        rho1.append(np.sum(field.values * s2) * dx + m * math.sin(theta) ** 2)
        rho0.append(np.sum(field.values * (1.0 - s2)) * dx + m * math.cos(theta) ** 2)
        if k % stride == 0 or k == times.size - 1:
            snap = field.values.copy()
            if m > 0.0:
                snap[grid.cell_of(theta)] += m / dx
            snapshots.append(snap)
        if k < times.size - 1:
            field = pde.step(field, p, dt)
            m_new = m * math.exp(-_oracle_hazard(theta, dt, p))
            field.values[grid.source_index] += (m - m_new) / dx
            m = m_new
    return np.array(rho0), np.array(rho1), snapshots


class TestBlockPropagation:
    """Blocks of dense powers of A must reproduce the stencil step by step."""

    @pytest.mark.parametrize(
        "omega, theta0, n_cells, n_steps, stride",
        [
            (0.0, math.pi / 4, 64, 300, 10),  # no transport
            (2.0, 0.3, 64, 600, 37),  # Courant number exactly 1
            (3.33, 0.0, 64, 1000, 300),  # stride divides neither
            (3.33, 0.2, 64, 200, 1),  # every state kept: the stencil
            (1.0, 0.4, 16, 3000, 3000),
            (3.33, -0.7, 257, 2000, 400),
            (1.0 / 6.0, 1.2, 512, 4000, 4000),
        ],
    )
    def test_matches_stencil(self, omega, theta0, n_cells, n_steps, stride):
        p = ModelParams(omega, 0.5, theta0)
        g = ThetaGrid(n_cells)
        # at omega = 2 a step of one cell width drifts exactly one cell
        dt = g.cell_width if omega == 2.0 else pde.max_stable_dt(p, g)
        r = pde.solve(p, g, n_steps * dt, dt, snapshot_stride=stride)
        assert r.times.size == n_steps + 1
        # the blocks run whenever states are skipped; stride 1 keeps the stencil
        assert (pde._block_size(n_steps, stride, n_cells) > 1) == (stride > 1)
        if omega == 2.0:
            assert pde.StepOperator(p, g, r.times[1]).courant == 1.0
        rho0, rho1, snapshots = stencil_reference(p, g, r.times, stride)
        assert np.max(np.abs(r.rho0 - rho0)) < 1e-12
        assert np.max(np.abs(r.rho1 - rho1)) < 1e-12
        assert len(r.snapshots) == len(snapshots)
        for got, want in zip(r.snapshots, snapshots):
            assert np.max(np.abs(got.values - want)) * g.cell_width < 1e-12
